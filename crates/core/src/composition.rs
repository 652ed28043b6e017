//! The composition-based encoding of quantum gates (Section 6).
//!
//! A gate is applied to a tree automaton by (1) *tagging* the automaton so
//! every tree keeps a unique identity (Algorithm 3), (2) evaluating the
//! gate's symbolic update formula term by term with the tag-preserving
//! *restriction* (Algorithm 4), *multiplication* (Algorithm 5) and
//! *projection* (Algorithm 6–8, via forward/backward variable-order
//! swapping) operations, (3) combining the per-term automata with the
//! *binary operation* (Algorithm 9), and (4) *untagging* the result.
//!
//! The composition approach supports every gate of Table 1 — including the
//! Hadamard and π/2 rotations, which the permutation-based approach of
//! Section 5 cannot express — at the price of more expensive constructions.
//!
//! # The fused swap ladder
//!
//! Projecting qubit `t` of an `n`-qubit automaton runs `n − 1 − t` forward
//! swap passes, one subtree copy, and `n − 1 − t` backward passes — up to
//! `2(n − 1)` whole-automaton rebuilds for a single term at the paper's
//! 70-qubit width.  [`project_with`] therefore drives the ladder through a
//! fused pipeline:
//!
//! * the working automaton is kept *bucketed by variable layer*
//!   (`LadderState`): a swap pass rewrites exactly two layers — the moving
//!   qubit layer and the one it swaps past — so each pass costs O(active
//!   layers) instead of O(automaton);
//! * each pass looks the child layer up through CSR tables over that
//!   layer's own positions (`LayerIndex`): grouped by parent, and within
//!   each group sorted by symbol for the backward pass, whose matching
//!   pairs are found by binary search rather than a quadratic child scan.
//!   No table is sized by the state count, since about half the ids a
//!   ladder allocates end up with no transition;
//! * there is no per-pass [`TreeAutomaton::dedup_transitions`]: the two
//!   rebuilt layers are deduped as they are emitted through a fixed-hasher
//!   set on a packed key, and leaves are never touched, skipping the
//!   bigint-cloning leaf dedup entirely;
//! * `(symbol, left, right)` singleton states are interned per pass on a
//!   packed key (a whole-ladder interner was implemented and proven inert:
//!   each pass's probe keys are disjoint from every entry an earlier pass
//!   could have left behind — see `intern_pass_state`), and a gate's two
//!   projections of the same qubit share one forward ladder through the
//!   evaluation context, the second taking it without a copy;
//! * the index, the interner, the dedup set and the layer vectors are
//!   buffers of the ladder (`Ladder`), reused by each of its passes and
//!   dropped with it, so a pass allocates only when a layer outgrows them.
//!
//! The passes run back to back, as in Algorithms 7–8: nothing is reduced
//! inside a ladder.  The engine reduces after the gate, as its
//! `ReductionPolicy` decides.  What bounds a ladder that blows up is the
//! interrupt, whose size budgets are checked between every two passes.
//!
//! The evaluator is plain sequential code: a `Combine` evaluates its left
//! term, then its right one, on one `&mut` evaluation context holding the
//! peak watermarks, the shared forward ladders and the interrupt; a tripped
//! checkpoint returns its `Err` through every caller.  (Evaluating the two
//! terms on scoped threads measured slower on every workload: the second
//! projection of a qubit waits for the first's forward ladder anyway.)  The
//! unfused ladder is retained as [`project_reference`] and cross-validated
//! by the `composition_equivalence` property tests.
//!
//! # The trimmed product
//!
//! Algorithm 9 pairs every tag-matching state pair reachable from the root
//! pairs, *dead* ones included: their tags stop matching further down, so
//! they accept no tree.  [`binary_op`] builds that product with one
//! top-down worklist and trims it only when some pair got no transition;
//! the operands are acyclic, so every dead pair reaches such a pair.  The
//! output is thus exactly the trim of [`binary_op_reference`], the paper's
//! product and the oracle of the `composition_equivalence` property tests.
//! Dead pairs are rare: `table2` builds 740 products, each operand with one
//! root, and 4 hold a dead pair (MCToffoli under the Composition engine:
//! 26/36/46/56 states built, 22/30/38/46 trimmed); `table3 --paper` builds
//! none, since the fast paths below take all its composition gates.  The
//! gate's peak counts each product as built, dead pairs included.
//!
//! # The one-state path
//!
//! Tagging and the ladder exist to keep the trees of a *set* apart: a
//! `Combine` must add each tree's terms to that tree's own terms only.  A
//! set that holds exactly one quantum state has nothing to keep apart, and
//! for it the automaton is just a decision diagram of the state.  With
//! [`CompositionOptions::hybrid_fast_paths`] set, an input with one root,
//! exactly one transition per state and every state at the depth its
//! transition names (checked by one scan over the transitions and one walk
//! from the root; [`is_single_state_dag`]) is imported into a locally
//! hash-consed DAG, and the formula runs on it as memoised node walks:
//!
//! * `Proj` rebuilds the paths above the qubit, with both children of each
//!   qubit node replaced by the kept one;
//! * `Restrict` does the same with one child replaced by the all-zero
//!   subtree of its depth (one node per depth);
//! * `Scale` maps every leaf, and `Combine` walks both operands in step,
//!   memoised on the node pair, with [`intern::combine`] on the leaves
//!   (adding or subtracting an all-zero subtree returns the other operand).
//!
//! `Proj`, `Restrict` and `Scale` visit only nodes that exist when their
//! walk starts, whose ids are dense, so they memoise in a vector indexed by
//! node id; `Combine` keys its memo on the node pair.  One evaluator covers
//! every gate, controls below the target included.  The nodes the root
//! reaches are emitted as an untagged automaton, one state and one
//! transition per node, so the result is already reduced: `reduce` would
//! return it unchanged (debug builds assert it).  The peak reports the
//! nodes built and sets [`FormulaPeak::reduced`], and the engine counts the
//! reduction its policy asks for after such a gate without running it.
//!
//! # The basis path
//!
//! A *set* of phased basis states (every tree has exactly one non-zero
//! leaf) also has nothing to add: the `Combine` of a gate that permutes
//! basis states sums a tree's non-zero path with zero subtrees only.  This
//! is the case of every CNOT or Toffoli whose control sits below its target
//! (the permutation encoding of Section 5 needs the control above) on the
//! input sets of the bug hunt.  So, with the same option set, the formula
//! is first evaluated with exact scalars on the `2^k` basis vectors over
//! its `k ≤ 3` qubits; if that yields a permutation matrix whose entries
//! are exactly 1 (X, CNOT, Toffoli — not H, Y or the phase gates), and the
//! input is a phased-basis set ([`is_basis_set`]: every state the roots
//! reach sits at one depth and is *Zero*, accepting only all-zero trees, or
//! *Basis*, with one Zero and one Basis child on every transition and
//! non-zero leaves, and every root is Basis), the gate is applied by
//! guess-and-verify.  With `m` and `M` the gate's top and bottom qubits:
//!
//! * each Basis state at depth `m` becomes the union, over the guessed
//!   gate-input bits `g`, of the transitions of its `(s, g)` copies;
//! * between `m` and `M`, the copy `(s, g)` keeps only the transitions
//!   whose Basis child lies on the side `g` names at each gate qubit,
//!   moves that child to the side the gate's image of `g` names, and
//!   reuses the Zero child;
//! * every other state, and every leaf, is shared unchanged.
//!
//! The output is at most `2^k` copies of the band between `m` and `M` next
//! to the input, emitted from the roots down so it is trimmed; debug builds
//! assert it is acyclic, trimmed, free of duplicate transitions and again a
//! layered phased-basis set.  The peak reports its size, which the
//! interrupt's size budgets are checked against.  Any other input or
//! formula goes through the ladder unchanged.
//!
//! The fast paths are tried in this order: the one-state path, then the
//! basis path, then the ladder.  A one-state phased basis input qualifies
//! for both fast paths; `table3 --paper` reports the same peak-states
//! column in either order, so the one-state path keeps its place.
//!
//! Both paths sit behind this entry point, not in the engine, so every
//! caller that passes the engine's options, the benchmark's step-by-step
//! replay included, takes the same path.  Only `Engine::composition_options`
//! sets the option, and only for the Hybrid engine: the Composition engine
//! and [`CompositionOptions::default`] keep the paper's ladder for every
//! gate, so Table 2's Composition column still reproduces the paper and is
//! the oracle of both paths (the `singleton_equivalence` and
//! `basis_set_equivalence` suites).

use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;

use autoq_amplitude::hash::{FixedMap, FixedSet};
use autoq_amplitude::{intern, Algebraic, AmpId};
use autoq_treeaut::{
    InternalSymbol, InternalTransition, LeafTransition, StateId, Tag, TransitionIndex,
    TreeAutomaton,
};

use crate::formula::{CombineSign, ScaleFactor, UpdateExpr};
use crate::interrupt::{Interrupt, StopReason};

/// Tuning of the composition-encoded gate pipeline.  The engine derives
/// the effective options from its kind via `Engine::composition_options`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompositionOptions {
    /// Take the two fast paths ahead of the ladder: a hash-consed DAG when
    /// the input holds one quantum state, then a guess-and-verify rewrite
    /// when the input is a set of phased basis states and the gate permutes
    /// basis states (see *The one-state path* and *The basis path* in the
    /// module docs).  Off by default, so the paper's ladder runs for every
    /// gate; `Engine::composition_options` turns it on for
    /// `EngineKind::Hybrid` only.
    pub hybrid_fast_paths: bool,
}

/// The number of OS threads the composition evaluator uses: always `1`.
///
/// The evaluator is sequential (see the module docs); this constant exists
/// so the benchmark can keep recording `meta.eval_threads`.
pub fn default_eval_threads() -> usize {
    1
}

/// Peak automaton sizes observed inside one composition-encoded gate
/// (swap ladders and binary combinations included; the one-state path
/// reports the DAG nodes it built and the basis path its output's size);
/// merged into the engine's `ApplyStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FormulaPeak {
    /// Largest state count: the binary-operation products as built, dead
    /// pairs included (what the gate allocated, before the trim drops
    /// them), the DAG nodes the one-state path built, or the basis path's
    /// output.  The swap ladder reports no state count: its allocation
    /// count includes the ids its passes orphan, which the next trim drops.
    /// [`Interrupt::with_max_states`](crate::Interrupt::with_max_states)
    /// still checks the ladder's allocation count between passes, so a
    /// state budget can trip on a count this field never reports.
    pub states: usize,
    /// Largest transition count anywhere, including between swap passes.
    pub transitions: usize,
    /// `true` if the gate's output is already reduced, so `reduce` would
    /// return it unchanged: set by the one-state path only.
    pub reduced: bool,
}

/// The state of one formula evaluation: the peak-size watermarks (so the
/// engine's `ApplyStats` sees the sizes reached inside the gate), the
/// per-qubit forward-ladder cache shared by a gate's two projections, and
/// the interrupt checked between ladder passes.
struct EvalCtx<'a> {
    peak: FormulaPeak,
    /// The formula being evaluated, if any: it says how many projections
    /// of each qubit will ask for the qubit's forward ladder.
    formula: Option<&'a UpdateExpr>,
    /// `T_{x_t}` and `T_{x̄_t}` of the same formula run the same forward
    /// ladder and differ only in the subtree copy and the way back, so the
    /// forward-laddered automaton is computed once per qubit and shared:
    /// each entry holds it with the number of projections still to come,
    /// and the last one takes it instead of cloning it.
    forward_cache: FixedMap<u32, (LadderState, usize)>,
    /// The caller's interrupt, checked between swap-ladder passes so even a
    /// single blowing-up gate stops near its budget (`None` never stops).
    interrupt: Option<&'a Interrupt>,
}

impl<'a> EvalCtx<'a> {
    fn new(formula: Option<&'a UpdateExpr>, interrupt: Option<&'a Interrupt>) -> Self {
        EvalCtx {
            peak: FormulaPeak::default(),
            formula,
            forward_cache: FixedMap::default(),
            interrupt,
        }
    }

    fn observe_states(&mut self, states: usize) {
        self.peak.states = self.peak.states.max(states);
    }

    fn observe_transitions(&mut self, transitions: usize) {
        self.peak.transitions = self.peak.transitions.max(transitions);
    }

    /// Checks the interrupt against the current in-ladder sizes; `Err`
    /// unwinds the whole evaluation.
    fn checkpoint(&self, states: usize, transitions: usize) -> Result<(), StopReason> {
        match self.interrupt {
            Some(interrupt) => interrupt.check_sizes(states, transitions),
            None => Ok(()),
        }
    }
}

/// Applies a gate's update formula to an (untagged) automaton in place —
/// the complete pipeline of Section 6.2: tag → per-term construction →
/// binary combination → untag (not yet reduced).  Returns the peak
/// automaton sizes observed anywhere inside the gate (swap ladders and
/// binary combinations included), which the engine merges into its
/// `ApplyStats`.
///
/// `interrupt` is checked between the swap-ladder passes of every
/// projection, so even a single blowing-up composition gate stops near its
/// budget instead of finishing an arbitrarily large construction; the
/// first tripped check ends the evaluation.  On `Err` the automaton is
/// left in an unspecified partial (tagged) state and must be discarded —
/// the engine throws away its whole working automaton when a gate is
/// interrupted, so nothing downstream observes it.  With `None` it never
/// fails.
///
/// With [`CompositionOptions::hybrid_fast_paths`] set, two inputs skip the
/// ladder.  One that [`is_single_state_dag`] accepts runs the formula on a
/// hash-consed DAG; the peak reports the DAG nodes built, and the result is
/// already reduced ([`FormulaPeak::reduced`]).  Otherwise, one that
/// [`is_basis_set`] accepts, under a formula that permutes basis states
/// with every entry exactly 1, is rewritten by guess-and-verify; the peak
/// reports the output's size.
pub fn apply_formula_in_place_interruptible(
    automaton: &mut TreeAutomaton,
    formula: &UpdateExpr,
    opts: &CompositionOptions,
    interrupt: Option<&Interrupt>,
) -> Result<FormulaPeak, StopReason> {
    if opts.hybrid_fast_paths {
        if let Some(mut dag) = Dag::from_single_state(automaton) {
            let (result, peak) = dag.apply(formula, interrupt)?;
            *automaton = result;
            return Ok(peak);
        }
        if let Some(result) = apply_to_basis_set(automaton, formula) {
            let peak = FormulaPeak {
                states: result.state_count(),
                transitions: result.transition_count(),
                reduced: false,
            };
            if let Some(interrupt) = interrupt {
                interrupt.check_sizes(peak.states, peak.transitions)?;
            }
            *automaton = result;
            return Ok(peak);
        }
    }
    tag_in_place(automaton);
    let mut ctx = EvalCtx::new(Some(formula), interrupt);
    let mut result = evaluate_term(formula, automaton, &mut ctx)?.into_owned();
    result.untag_in_place();
    *automaton = result;
    Ok(ctx.peak)
}

/// Evaluates an update-formula term over a tagged source automaton.
pub fn evaluate_with(expr: &UpdateExpr, tagged_source: &TreeAutomaton) -> TreeAutomaton {
    evaluate_term(expr, tagged_source, &mut EvalCtx::new(Some(expr), None))
        .expect("an evaluation without an interrupt cannot stop")
        .into_owned()
}

/// Evaluates one term, borrowing the source automaton for `Source` leaves so
/// `Combine` feeds the product borrowed operands end to end — no
/// whole-automaton clone for the `T` operand of e.g. the `H` and `Rx(π/2)`
/// formulae.
fn evaluate_term<'a>(
    expr: &UpdateExpr,
    tagged_source: &'a TreeAutomaton,
    ctx: &mut EvalCtx<'_>,
) -> Result<Cow<'a, TreeAutomaton>, StopReason> {
    Ok(match expr {
        UpdateExpr::Source => Cow::Borrowed(tagged_source),
        UpdateExpr::Proj { qubit, bit } => {
            Cow::Owned(project_in_ctx(tagged_source, *qubit, *bit, ctx)?)
        }
        UpdateExpr::Restrict { qubit, bit, inner } => {
            let mut automaton = evaluate_term(inner, tagged_source, ctx)?.into_owned();
            restrict_in_place(&mut automaton, *qubit, *bit);
            Cow::Owned(automaton)
        }
        UpdateExpr::Scale { factor, inner } => {
            let mut automaton = evaluate_term(inner, tagged_source, ctx)?.into_owned();
            multiply_in_place(&mut automaton, *factor);
            Cow::Owned(automaton)
        }
        UpdateExpr::Combine { sign, lhs, rhs } => {
            let a = evaluate_term(lhs, tagged_source, ctx)?;
            let b = evaluate_term(rhs, tagged_source, ctx)?;
            // The peak counts the product as built, dead pairs included:
            // that is what the gate allocated.
            let (product, dead) = pair_product(&a, &b, *sign);
            ctx.observe_states(product.state_count());
            ctx.observe_transitions(product.transition_count());
            Cow::Owned(if dead { product.trim() } else { product })
        }
    })
}

/// The tagging procedure (Algorithm 3), in place: gives every internal
/// transition a unique tag so that every accepted tree has a unique "shape
/// identity".  Rewrites the symbols without copying the automaton.
pub fn tag_in_place(automaton: &mut TreeAutomaton) {
    for (index, transition) in automaton.internal.iter_mut().enumerate() {
        transition.symbol = transition.symbol.untagged().with_tag(Tag::Single(
            u32::try_from(index + 1).expect("more internal transitions than u32 tags"),
        ));
    }
}

/// The restriction operation (Algorithm 4), in place: `B_{x_t}·T`
/// (`bit = true`) keeps the amplitudes on branches where qubit `t` is `1`
/// and zeroes the others; `B̄_{x_t}·T` (`bit = false`) is symmetric.
///
/// Only the states actually reachable from the redirected children are
/// imported as the primed zeroed copy (structure and tags identical on that
/// region), and all zeroed *leaf* states collapse into one — the old
/// whole-automaton import left the unreachable majority of the copy behind
/// as dead weight that every later pass still iterated.
pub fn restrict_in_place(automaton: &mut TreeAutomaton, qubit: u32, bit: bool) {
    // The children that will be redirected into the zeroed copy.  When no
    // transition branches on `qubit` the restriction is the identity; skip
    // the import (and the index build) entirely.
    let seeds: Vec<StateId> = automaton
        .internal
        .iter()
        .filter(|t| t.symbol.var == qubit)
        .map(|t| if bit { t.left } else { t.right })
        .collect();
    if seeds.is_empty() {
        return;
    }
    let index = TransitionIndex::by_parent(automaton);
    let n = automaton.num_states as usize;
    // Downward closure of the seeds: the only part of the zeroed copy the
    // redirected transitions can reach.
    let mut needed = vec![false; n];
    let mut worklist: Vec<StateId> = Vec::new();
    for seed in seeds {
        if !needed[seed.index()] {
            needed[seed.index()] = true;
            worklist.push(seed);
        }
    }
    while let Some(state) = worklist.pop() {
        for &position in index.internal_of(state) {
            let t = &automaton.internal[position as usize];
            for child in [t.left, t.right] {
                if !needed[child.index()] {
                    needed[child.index()] = true;
                    worklist.push(child);
                }
            }
        }
    }
    // Allocate the zeroed region: leaf-only states all carry the same
    // zeroed value, so they share a single state; states with internal
    // transitions (and dead states, which must stay dead) map individually.
    let mut mapping: Vec<Option<StateId>> = vec![None; n];
    let mut next_state = automaton.num_states;
    let mut zero_state: Option<StateId> = None;
    for q in 0..n {
        if !needed[q] {
            continue;
        }
        let state = StateId::new(q as u32);
        let leaf_only = index.internal_of(state).is_empty() && !index.leaves_of(state).is_empty();
        if leaf_only {
            if zero_state.is_none() {
                zero_state = Some(StateId::new(next_state));
                next_state += 1;
            }
            mapping[q] = zero_state;
        } else {
            mapping[q] = Some(StateId::new(next_state));
            next_state += 1;
        }
    }
    // Emit the zeroed region's transitions.
    let mut new_internal: Vec<InternalTransition> = Vec::new();
    let mut new_leaves: Vec<LeafTransition> = Vec::new();
    if let Some(zero) = zero_state {
        new_leaves.push(LeafTransition {
            parent: zero,
            amp: intern::zero_id(),
        });
    }
    for q in 0..n {
        if !needed[q] {
            continue;
        }
        let state = StateId::new(q as u32);
        let mapped = mapping[q].expect("needed states are mapped");
        for &position in index.internal_of(state) {
            let t = &automaton.internal[position as usize];
            new_internal.push(InternalTransition {
                parent: mapped,
                symbol: t.symbol,
                left: mapping[t.left.index()].expect("children of needed states are needed"),
                right: mapping[t.right.index()].expect("children of needed states are needed"),
            });
        }
        // A state with internal transitions *and* a leaf keeps a zeroed
        // leaf of its own (leaf-only states were collapsed above).
        if Some(mapped) != zero_state && !index.leaves_of(state).is_empty() {
            new_leaves.push(LeafTransition {
                parent: mapped,
                amp: intern::zero_id(),
            });
        }
    }
    // Splice the region in and redirect the restricted branch.
    let original_count = automaton.internal.len();
    automaton.num_states = next_state;
    automaton.internal.extend(new_internal);
    automaton.leaves.extend(new_leaves);
    for transition in automaton.internal.iter_mut().take(original_count) {
        if transition.symbol.var == qubit {
            if bit {
                // keep x_t = 1, zero the left (x_t = 0) subtree
                transition.left =
                    mapping[transition.left.index()].expect("redirected child is a seed");
            } else {
                transition.right =
                    mapping[transition.right.index()].expect("redirected child is a seed");
            }
        }
    }
}

/// The multiplication operation (Algorithm 5, generalised to all scalar
/// factors appearing in Table 1), in place: rewrites every leaf value.
pub fn multiply_in_place(automaton: &mut TreeAutomaton, factor: ScaleFactor) {
    automaton.map_leaves_in_place(|value| scale_value(value, factor));
}

fn scale_value(value: &Algebraic, factor: ScaleFactor) -> Algebraic {
    match factor {
        ScaleFactor::OmegaPow(j) => value.mul_omega_pow(j as i64),
        ScaleFactor::Neg => -value,
        ScaleFactor::InvSqrt2 => value.div_sqrt2(),
    }
}

/// The leaf operation of a binary combination.
fn leaf_op(sign: CombineSign) -> intern::LeafOp {
    match sign {
        CombineSign::Plus => intern::LeafOp::Add,
        CombineSign::Minus => intern::LeafOp::Sub,
    }
}

/// The projection operation (Eq. (13)) through the fused swap ladder:
/// `T_{x_t}` (`bit = true`) replaces both subtrees of every `x_t` node by
/// its `1`-subtree; `T_{x̄_t}` is symmetric.  For qubits above the leaf
/// layer the variable is first moved to the bottom with forward swaps,
/// copied there, and moved back — indexed swap passes with per-pass state
/// interning (see the module docs).  Cross-validated against
/// [`project_reference`] by the `composition_equivalence` property tests.
pub fn project_with(automaton: &TreeAutomaton, qubit: u32, bit: bool) -> TreeAutomaton {
    project_in_ctx(automaton, qubit, bit, &mut EvalCtx::new(None, None))
        .expect("a projection without an interrupt cannot stop")
}

fn project_in_ctx(
    automaton: &TreeAutomaton,
    qubit: u32,
    bit: bool,
    ctx: &mut EvalCtx<'_>,
) -> Result<TreeAutomaton, StopReason> {
    let bottom = automaton.num_vars - 1;
    if qubit == bottom {
        let mut result = automaton.clone();
        subtree_copy_in_place(&mut result, qubit, bit);
        return Ok(result);
    }
    let swaps = bottom - qubit;
    // Both projections of the same formula (`T_{x_t}` and `T_{x̄_t}`) run
    // an identical forward ladder — compute it once per qubit and share;
    // the last projection takes the shared ladder instead of a copy.
    let (mut state, uses) = match ctx.forward_cache.remove(&qubit) {
        Some(entry) => entry,
        None => {
            let uses = ctx
                .formula
                .map_or(1, |formula| projections_of(formula, qubit));
            (forward_ladder(automaton, qubit, swaps, ctx)?, uses)
        }
    };
    if uses > 1 {
        ctx.forward_cache.insert(qubit, (state.clone(), uses - 1));
    }
    state.subtree_copy(qubit, bit);
    let mut ladder = Ladder::default();
    // Backward pass `k` restores the displaced layer sitting directly
    // above the qubit's current position: variable `bottom`, then
    // `bottom − 1`, …, down to `qubit + 1`.
    for k in 1..=swaps {
        // Between passes is the in-gate interrupt checkpoint: a ladder that
        // outgrows its budget abandons the remaining passes.
        ctx.checkpoint(state.num_states as usize, state.transition_count())?;
        ladder.backward_pass(&mut state, qubit, bottom - k + 1);
        ctx.observe_transitions(state.transition_count());
    }
    Ok(state.into_automaton())
}

/// The number of projections of `qubit` in `expr`: each is evaluated once.
fn projections_of(expr: &UpdateExpr, qubit: u32) -> usize {
    match expr {
        UpdateExpr::Source => 0,
        UpdateExpr::Proj { qubit: q, .. } => usize::from(*q == qubit),
        UpdateExpr::Restrict { inner, .. } | UpdateExpr::Scale { inner, .. } => {
            projections_of(inner, qubit)
        }
        UpdateExpr::Combine { lhs, rhs, .. } => {
            projections_of(lhs, qubit) + projections_of(rhs, qubit)
        }
    }
}

/// Runs the complete forward half of a projection ladder (shared between
/// the two projections of one formula via the evaluation context's cache).
fn forward_ladder(
    automaton: &TreeAutomaton,
    qubit: u32,
    swaps: u32,
    ctx: &mut EvalCtx<'_>,
) -> Result<LadderState, StopReason> {
    let mut state = LadderState::from_automaton(automaton);
    let mut ladder = Ladder::default();
    // Forward pass `k` swaps the qubit layer below the layer at variable
    // `qubit + k`.
    for k in 1..=swaps {
        // Same per-pass interrupt checkpoint as the backward ladder.
        ctx.checkpoint(state.num_states as usize, state.transition_count())?;
        ladder.forward_pass(&mut state, qubit, qubit + k);
        ctx.observe_transitions(state.transition_count());
    }
    Ok(state)
}

/// Reference implementation of [`project_with`]: the unfused ladder of
/// per-pass-deduped [`forward_swap`]/[`backward_swap`] whole-automaton
/// rebuilds, with no layer buckets and no reused buffers.  Retained as the
/// oracle the property tests compare the fused pipeline against; not used
/// on the hot path.
#[doc(hidden)]
pub fn project_reference(automaton: &TreeAutomaton, qubit: u32, bit: bool) -> TreeAutomaton {
    let bottom = automaton.num_vars - 1;
    if qubit == bottom {
        let mut result = automaton.clone();
        subtree_copy_in_place(&mut result, qubit, bit);
        return result;
    }
    let swaps = bottom - qubit;
    let mut current = forward_swap(automaton, qubit);
    for _ in 1..swaps {
        current = forward_swap(&current, qubit);
    }
    subtree_copy_in_place(&mut current, qubit, bit);
    for _ in 0..swaps {
        current = backward_swap(&current, qubit);
    }
    current
}

/// The subtree-copying procedure (Algorithm 6), in place; only valid at the
/// layer just above the leaves (Lemma 6.8).
pub fn subtree_copy_in_place(automaton: &mut TreeAutomaton, qubit: u32, bit: bool) {
    for transition in automaton.internal.iter_mut() {
        if transition.symbol.var == qubit {
            let copied = if bit {
                transition.right
            } else {
                transition.left
            };
            transition.left = copied;
            transition.right = copied;
        }
    }
}

/// Per-pass singleton-state interner: maps a `(symbol, left, right)` key
/// to a state whose *only* outgoing transition is `symbol(left, right)`,
/// allocating a fresh state (and queueing its defining transition) on a
/// miss.  Every symbol one pass interns has the same variable (the moving
/// qubit's going forward, the restored layer's going back), so the key is
/// the tag and the two children packed into one word.
///
/// The entries live exactly as long as one swap pass: the map is cleared
/// before every pass, and only its storage is kept for the next.  A
/// whole-ladder interner was implemented and proven inert for this pass
/// structure: every forward-pass probe uses the moving qubit's variable,
/// and each surviving entry with that variable is the parent of a
/// qubit-layer transition the next pass rewrites (so it would have to be
/// invalidated anyway); every backward-pass probe uses the restored
/// layer's variable, which strictly decreases across the ladder and never
/// matches an earlier pass's insertions.  Per-pass interning is therefore
/// behaviourally identical and carries no invalidation machinery.
fn intern_pass_state(
    interned: &mut FixedMap<(Tag, u64), StateId>,
    next_state: &mut u32,
    symbol: InternalSymbol,
    left: StateId,
    right: StateId,
    defined: &mut Vec<InternalTransition>,
) -> StateId {
    *interned
        .entry((
            symbol.tag,
            u64::from(left.raw()) << 32 | u64::from(right.raw()),
        ))
        .or_insert_with(|| {
            let state = StateId::new(*next_state);
            *next_state += 1;
            defined.push(InternalTransition {
                parent: state,
                symbol,
                left,
                right,
            });
            state
        })
}

/// The working automaton of one projection ladder, bucketed by variable.
///
/// A swap pass only rewrites two layers — the moving qubit layer and the
/// fixed layer it swaps past — while every other layer is carried verbatim.
/// Keeping the transitions bucketed by `symbol.var` turns each pass from
/// O(whole automaton) into O(active layers): untouched buckets are never
/// scanned, hashed or copied.  Every automaton in the pipeline is layered
/// by construction (full binary trees of uniform height), which is what
/// makes the bucketing lossless.
#[derive(Clone)]
#[cfg_attr(test, derive(Debug, PartialEq))]
struct LadderState {
    num_vars: u32,
    num_states: u32,
    roots: std::collections::BTreeSet<StateId>,
    /// Internal transitions, bucketed by `symbol.var`.
    layers: Vec<Vec<InternalTransition>>,
    /// Leaf transitions; swap passes never touch them.
    leaves: Vec<LeafTransition>,
}

impl LadderState {
    fn from_automaton(automaton: &TreeAutomaton) -> Self {
        let mut layers = vec![Vec::new(); automaton.num_vars as usize];
        for t in &automaton.internal {
            layers[t.symbol.var as usize].push(t.clone());
        }
        LadderState {
            num_vars: automaton.num_vars,
            num_states: automaton.num_states,
            roots: automaton.roots.clone(),
            layers,
            leaves: automaton.leaves.clone(),
        }
    }

    fn into_automaton(self) -> TreeAutomaton {
        let mut result = TreeAutomaton::new(self.num_vars);
        result.num_states = self.num_states;
        result.roots = self.roots;
        result.leaves = self.leaves;
        result.internal = self.layers.into_iter().flatten().collect();
        result
    }

    fn transition_count(&self) -> usize {
        self.layers.iter().map(Vec::len).sum::<usize>() + self.leaves.len()
    }

    /// [`subtree_copy_in_place`] on the bucketed representation: only the
    /// qubit layer is visited.
    fn subtree_copy(&mut self, qubit: u32, bit: bool) {
        for transition in &mut self.layers[qubit as usize] {
            let copied = if bit {
                transition.right
            } else {
                transition.left
            };
            transition.left = copied;
            transition.right = copied;
        }
    }
}

/// The buffers one projection's fused swap ladder reuses across its
/// passes.  They live as long as the ladder (one forward or one backward
/// half of a projection) and are sized by the active layers, never by the
/// state count: about half the ids a ladder allocates end up with no
/// transition.
#[derive(Default)]
struct Ladder {
    /// The by-parent lookup of the pass's child layer.
    index: LayerIndex,
    /// The pass's singleton-state interner ([`intern_pass_state`]).
    interned: FixedMap<(Tag, u64), StateId>,
    /// The dedup set of the layer being assembled ([`assemble_layer`]).
    seen: FixedSet<(Tag, u128)>,
    /// Which upper-layer transitions the pass rewrote.
    rewritten: Vec<bool>,
    /// Which child-layer transitions the pass consumed.
    consumed: Vec<bool>,
    /// The defining transitions of the states the pass interned; they join
    /// the upper layer.
    defined: Vec<InternalTransition>,
    /// The rewritten upper transitions, one layer further down.
    moved: Vec<InternalTransition>,
    /// Layer vectors the previous pass emptied, reused for its outputs.
    spare: Vec<Vec<InternalTransition>>,
}

impl Ladder {
    /// One forward variable-order swap pass (Algorithm 7): pushes the
    /// `x_qubit` layer below the `child_var` layer, remembering the
    /// displaced layer's tags in a [`Tag::Pair`].  Touches exactly the two
    /// active buckets.
    fn forward_pass(&mut self, state: &mut LadderState, qubit: u32, child_var: u32) {
        let uppers = std::mem::take(&mut state.layers[qubit as usize]);
        let children = std::mem::take(&mut state.layers[child_var as usize]);
        self.begin_pass(uppers.len(), &children, false);
        for (position, upper) in uppers.iter().enumerate() {
            let (Some(left_children), Some(right_children)) =
                (self.index.of(upper.left), self.index.of(upper.right))
            else {
                continue;
            };
            self.rewritten[position] = true;
            for &li in left_children {
                let left_t = &children[li as usize];
                for &ri in right_children {
                    let right_t = &children[ri as usize];
                    self.consumed[li as usize] = true;
                    self.consumed[ri as usize] = true;
                    let tag = Tag::Pair(
                        single_tag(left_t.symbol.tag),
                        single_tag(right_t.symbol.tag),
                    );
                    // q'_0 generates x_t^h(q00, q10); q'_1 generates
                    // x_t^h(q01, q11).
                    let q0 = intern_pass_state(
                        &mut self.interned,
                        &mut state.num_states,
                        upper.symbol,
                        left_t.left,
                        right_t.left,
                        &mut self.defined,
                    );
                    let q1 = intern_pass_state(
                        &mut self.interned,
                        &mut state.num_states,
                        upper.symbol,
                        left_t.right,
                        right_t.right,
                        &mut self.defined,
                    );
                    self.moved.push(InternalTransition {
                        parent: upper.parent,
                        symbol: InternalSymbol::new(left_t.symbol.var).with_tag(tag),
                        left: q0,
                        right: q1,
                    });
                }
            }
        }
        self.end_pass(state, qubit, uppers, child_var, children);
    }

    /// One backward variable-order swap pass (Algorithm 8): restores the
    /// displaced `upper_var` layer (remembered in [`Tag::Pair`] tags)
    /// sitting directly above the qubit's current position.
    fn backward_pass(&mut self, state: &mut LadderState, qubit: u32, upper_var: u32) {
        let uppers = std::mem::take(&mut state.layers[upper_var as usize]);
        let children = std::mem::take(&mut state.layers[qubit as usize]);
        self.begin_pass(uppers.len(), &children, true);
        for (position, upper) in uppers.iter().enumerate() {
            // Only the Pair-tagged transitions are rewritten; restored
            // (Single) transitions of this variable are carried.
            let Tag::Pair(tag_left, tag_right) = upper.symbol.tag else {
                continue;
            };
            let Some(left_children) = self.index.of(upper.left) else {
                continue;
            };
            let restored_left =
                InternalSymbol::new(upper.symbol.var).with_tag(Tag::Single(tag_left));
            let restored_right =
                InternalSymbol::new(upper.symbol.var).with_tag(Tag::Single(tag_right));
            for &li in left_children {
                let left_t = &children[li as usize];
                // A matching pair needs both child transitions to carry the
                // same tagged symbol.
                for &ri in self.index.matching(&children, upper.right, left_t.symbol) {
                    let right_t = &children[ri as usize];
                    self.rewritten[position] = true;
                    self.consumed[li as usize] = true;
                    self.consumed[ri as usize] = true;
                    // q''_0 generates x_l^i(q00, q01); q''_1 generates
                    // x_l^j(q10, q11).
                    let q0 = intern_pass_state(
                        &mut self.interned,
                        &mut state.num_states,
                        restored_left,
                        left_t.left,
                        right_t.left,
                        &mut self.defined,
                    );
                    let q1 = intern_pass_state(
                        &mut self.interned,
                        &mut state.num_states,
                        restored_right,
                        left_t.right,
                        right_t.right,
                        &mut self.defined,
                    );
                    self.moved.push(InternalTransition {
                        parent: upper.parent,
                        symbol: left_t.symbol,
                        left: q0,
                        right: q1,
                    });
                }
            }
        }
        self.end_pass(state, upper_var, uppers, qubit, children);
    }

    /// Clears the per-pass buffers and indexes the child layer (by parent,
    /// and by parent and symbol when `by_symbol` is set).
    fn begin_pass(&mut self, uppers: usize, children: &[InternalTransition], by_symbol: bool) {
        self.index.build(children, by_symbol);
        self.interned.clear();
        self.rewritten.clear();
        self.rewritten.resize(uppers, false);
        self.consumed.clear();
        self.consumed.resize(children.len(), false);
        self.defined.clear();
        self.moved.clear();
    }

    /// Rebuilds the two active layers: the upper one from its carried
    /// transitions and the interned states' definitions, the child one from
    /// its unconsumed transitions and the moved ones.  The emptied input
    /// vectors become the next pass's output buffers.
    fn end_pass(
        &mut self,
        state: &mut LadderState,
        upper_var: u32,
        uppers: Vec<InternalTransition>,
        child_var: u32,
        children: Vec<InternalTransition>,
    ) {
        // The interned states are fresh ids with one transition each, so
        // their definitions duplicate nothing and skip the dedup set.
        let mut upper_layer = self.spare.pop().unwrap_or_default();
        assemble_layer(
            &mut self.seen,
            &mut upper_layer,
            &uppers,
            &self.rewritten,
            &[],
        );
        upper_layer.extend_from_slice(&self.defined);
        let mut child_layer = self.spare.pop().unwrap_or_default();
        assemble_layer(
            &mut self.seen,
            &mut child_layer,
            &children,
            &self.consumed,
            &self.moved,
        );
        state.layers[upper_var as usize] = upper_layer;
        state.layers[child_var as usize] = child_layer;
        for mut emptied in [uppers, children] {
            emptied.clear();
            self.spare.push(emptied);
        }
    }
}

/// Rebuilds one active layer bucket into the empty `bucket`: the carried
/// transitions not `dropped`, then the pass's new transitions, keeping the
/// first of each set of duplicates.  All of a bucket's transitions share
/// one variable, so the dedup key is the tag and the three states packed
/// into one word.  Untouched buckets are never rebuilt, and leaves are
/// never visited — the bigint-cloning leaf dedup of
/// [`TreeAutomaton::dedup_transitions`] is skipped entirely.
fn assemble_layer(
    seen: &mut FixedSet<(Tag, u128)>,
    bucket: &mut Vec<InternalTransition>,
    carried: &[InternalTransition],
    dropped: &[bool],
    new_transitions: &[InternalTransition],
) {
    seen.clear();
    bucket.reserve(carried.len() + new_transitions.len());
    let kept = carried
        .iter()
        .zip(dropped)
        .filter(|(_, &dropped)| !dropped)
        .map(|(t, _)| t);
    for t in kept.chain(new_transitions) {
        let states = u128::from(t.parent.raw()) << 64
            | u128::from(t.left.raw()) << 32
            | u128::from(t.right.raw());
        if seen.insert((t.symbol.tag, states)) {
            bucket.push(t.clone());
        }
    }
}

/// The by-parent lookup of one active layer: the layer's positions grouped
/// by parent state in CSR layout.  The groups are found by bucketing the
/// layer's own positions, so the tables are sized by the layer, never by
/// the automaton's state count.
#[derive(Default)]
struct LayerIndex {
    /// Each parent's group, numbered in order of first appearance.
    group_of: FixedMap<u32, u32>,
    /// `starts[g] .. starts[g + 1]` delimits group `g` in `order`.
    starts: Vec<u32>,
    /// Positions grouped by parent, ascending within each group.
    order: Vec<u32>,
    /// The same groups, each sorted by `(symbol, position)`: the
    /// by-(parent, symbol) lookup of the backward pass.
    by_symbol: Vec<u32>,
    /// The group of each position (scratch while building).
    group_at: Vec<u32>,
}

impl LayerIndex {
    fn build(&mut self, layer: &[InternalTransition], by_symbol: bool) {
        self.group_of.clear();
        self.starts.clear();
        self.group_at.clear();
        for t in layer {
            let next = self.starts.len() as u32;
            let group = *self.group_of.entry(t.parent.raw()).or_insert(next);
            if group == next {
                self.starts.push(0);
            }
            self.starts[group as usize] += 1;
            self.group_at.push(group);
        }
        // Running sums turn the counts into group ends; filling each group
        // from its end, last position first, leaves `starts[g]` at the
        // group's start with its positions ascending.
        let mut end = 0;
        for count in &mut self.starts {
            end += *count;
            *count = end;
        }
        self.order.clear();
        self.order.resize(layer.len(), 0);
        for (position, &group) in self.group_at.iter().enumerate().rev() {
            let cursor = &mut self.starts[group as usize];
            *cursor -= 1;
            self.order[*cursor as usize] = position as u32;
        }
        self.starts.push(layer.len() as u32);
        if by_symbol {
            self.by_symbol.clear();
            self.by_symbol.extend_from_slice(&self.order);
            for bounds in self.starts.windows(2) {
                let group = &mut self.by_symbol[bounds[0] as usize..bounds[1] as usize];
                if group.len() > 1 {
                    group.sort_unstable_by_key(|&position| {
                        (layer[position as usize].symbol, position)
                    });
                }
            }
        }
    }

    fn group(&self, state: StateId) -> Option<Range<usize>> {
        let &group = self.group_of.get(&state.raw())?;
        Some(self.starts[group as usize] as usize..self.starts[group as usize + 1] as usize)
    }

    /// The positions of `state`'s transitions in layer order, or `None` if
    /// it has none in this layer.
    fn of(&self, state: StateId) -> Option<&[u32]> {
        self.group(state).map(|range| &self.order[range])
    }

    /// The positions of `state`'s transitions on `symbol`, in layer order
    /// (the index must have been built `by_symbol`).
    fn matching(
        &self,
        layer: &[InternalTransition],
        state: StateId,
        symbol: InternalSymbol,
    ) -> &[u32] {
        let Some(range) = self.group(state) else {
            return &[];
        };
        let group = &self.by_symbol[range];
        let start = group.partition_point(|&position| layer[position as usize].symbol < symbol);
        let len =
            group[start..].partition_point(|&position| layer[position as usize].symbol == symbol);
        &group[start..start + len]
    }
}

/// The forward variable-order swapping procedure (Algorithm 7): pushes the
/// `x_t` layer one level down, remembering the tags of the displaced layer
/// in a [`Tag::Pair`] so that [`backward_swap`] can restore them.
///
/// This is the *reference* single-pass implementation ([`project_reference`]
/// chains it); the hot path runs the fused equivalent inside
/// [`project_with`].
pub fn forward_swap(automaton: &TreeAutomaton, qubit: u32) -> TreeAutomaton {
    let mut result = TreeAutomaton::new(automaton.num_vars);
    result.num_states = automaton.num_states;
    result.roots = automaton.roots.clone();
    result.leaves = automaton.leaves.clone();

    // Index the child transitions by parent state.
    let mut by_parent: HashMap<StateId, Vec<usize>> = HashMap::new();
    for (index, transition) in automaton.internal.iter().enumerate() {
        by_parent.entry(transition.parent).or_default().push(index);
    }

    // States interned by the content of their single new transition.
    let mut interned: HashMap<(InternalSymbol, StateId, StateId), StateId> = HashMap::new();
    let mut removed: Vec<bool> = vec![false; automaton.internal.len()];
    let mut new_transitions: Vec<(StateId, InternalSymbol, StateId, StateId)> = Vec::new();

    for (upper_index, upper) in automaton.internal.iter().enumerate() {
        if upper.symbol.var != qubit {
            continue;
        }
        let left_children = by_parent.get(&upper.left).cloned().unwrap_or_default();
        let right_children = by_parent.get(&upper.right).cloned().unwrap_or_default();
        if left_children.is_empty() || right_children.is_empty() {
            continue;
        }
        removed[upper_index] = true;
        for &li in &left_children {
            for &ri in &right_children {
                let left_t = &automaton.internal[li];
                let right_t = &automaton.internal[ri];
                if left_t.symbol.var != right_t.symbol.var {
                    continue;
                }
                removed[li] = true;
                removed[ri] = true;
                let tag_left = single_tag(left_t.symbol.tag);
                let tag_right = single_tag(right_t.symbol.tag);
                let new_upper_symbol =
                    InternalSymbol::new(left_t.symbol.var).with_tag(Tag::Pair(tag_left, tag_right));
                // q'_0 generates x_t^h(q00, q10); q'_1 generates x_t^h(q01, q11).
                let lower_symbol = upper.symbol;
                let q0 = intern_state(
                    &mut result,
                    &mut interned,
                    lower_symbol,
                    left_t.left,
                    right_t.left,
                    &mut new_transitions,
                );
                let q1 = intern_state(
                    &mut result,
                    &mut interned,
                    lower_symbol,
                    left_t.right,
                    right_t.right,
                    &mut new_transitions,
                );
                new_transitions.push((upper.parent, new_upper_symbol, q0, q1));
            }
        }
    }

    for (index, transition) in automaton.internal.iter().enumerate() {
        if !removed[index] {
            result.internal.push(transition.clone());
        }
    }
    for (parent, symbol, left, right) in new_transitions {
        result.add_internal(parent, symbol, left, right);
    }
    result.dedup_transitions();
    result
}

/// The backward variable-order swapping procedure (Algorithm 8): restores a
/// layer displaced by [`forward_swap`], using the remembered tag pair.
///
/// Reference implementation, like [`forward_swap`].
pub fn backward_swap(automaton: &TreeAutomaton, qubit: u32) -> TreeAutomaton {
    let mut result = TreeAutomaton::new(automaton.num_vars);
    result.num_states = automaton.num_states;
    result.roots = automaton.roots.clone();
    result.leaves = automaton.leaves.clone();

    let mut by_parent: HashMap<StateId, Vec<usize>> = HashMap::new();
    for (index, transition) in automaton.internal.iter().enumerate() {
        by_parent.entry(transition.parent).or_default().push(index);
    }

    let mut interned: HashMap<(InternalSymbol, StateId, StateId), StateId> = HashMap::new();
    let mut removed: Vec<bool> = vec![false; automaton.internal.len()];
    let mut new_transitions: Vec<(StateId, InternalSymbol, StateId, StateId)> = Vec::new();

    for (upper_index, upper) in automaton.internal.iter().enumerate() {
        // Only rewrite the Pair-tagged layer sitting directly above x_qubit.
        let (tag_left, tag_right) = match upper.symbol.tag {
            Tag::Pair(i, j) => (i, j),
            _ => continue,
        };
        let left_children = by_parent.get(&upper.left).cloned().unwrap_or_default();
        let right_children = by_parent.get(&upper.right).cloned().unwrap_or_default();
        let mut handled = false;
        for &li in &left_children {
            for &ri in &right_children {
                let left_t = &automaton.internal[li];
                let right_t = &automaton.internal[ri];
                if left_t.symbol.var != qubit || right_t.symbol.var != qubit {
                    continue;
                }
                if left_t.symbol != right_t.symbol {
                    continue;
                }
                handled = true;
                removed[li] = true;
                removed[ri] = true;
                let restored_left_symbol =
                    InternalSymbol::new(upper.symbol.var).with_tag(Tag::Single(tag_left));
                let restored_right_symbol =
                    InternalSymbol::new(upper.symbol.var).with_tag(Tag::Single(tag_right));
                let lower_symbol = left_t.symbol;
                // q''_0 generates x_l^i(q00, q01); q''_1 generates x_l^j(q10, q11).
                let q0 = intern_state(
                    &mut result,
                    &mut interned,
                    restored_left_symbol,
                    left_t.left,
                    right_t.left,
                    &mut new_transitions,
                );
                let q1 = intern_state(
                    &mut result,
                    &mut interned,
                    restored_right_symbol,
                    left_t.right,
                    right_t.right,
                    &mut new_transitions,
                );
                new_transitions.push((upper.parent, lower_symbol, q0, q1));
            }
        }
        if handled {
            removed[upper_index] = true;
        }
    }

    for (index, transition) in automaton.internal.iter().enumerate() {
        if !removed[index] {
            result.internal.push(transition.clone());
        }
    }
    for (parent, symbol, left, right) in new_transitions {
        result.add_internal(parent, symbol, left, right);
    }
    result.dedup_transitions();
    result
}

/// Allocates (or reuses) a state whose single outgoing transition is
/// `symbol(left, right)`.
fn intern_state(
    result: &mut TreeAutomaton,
    interned: &mut HashMap<(InternalSymbol, StateId, StateId), StateId>,
    symbol: InternalSymbol,
    left: StateId,
    right: StateId,
    new_transitions: &mut Vec<(StateId, InternalSymbol, StateId, StateId)>,
) -> StateId {
    if let Some(&state) = interned.get(&(symbol, left, right)) {
        return state;
    }
    let state = result.add_state();
    interned.insert((symbol, left, right), state);
    new_transitions.push((state, symbol, left, right));
    state
}

fn single_tag(tag: Tag) -> u32 {
    match tag {
        Tag::Single(t) => t,
        Tag::None => 0,
        Tag::Pair(i, _) => i,
    }
}

/// The binary operation (Algorithm 9): a product construction that combines
/// only trees with the same tag (guaranteed by matching the uniquely tagged
/// symbols) and adds/subtracts their leaf amplitudes.
///
/// It builds the paper's product over every tag-matching pair reachable
/// from the root pairs and trims it only when it holds a dead pair, so the
/// output is exactly the trim of [`binary_op_reference`] (see *The trimmed
/// product* in the module docs for why and how rarely).
pub fn binary_op(a1: &TreeAutomaton, a2: &TreeAutomaton, sign: CombineSign) -> TreeAutomaton {
    let (product, dead) = pair_product(a1, a2, sign);
    if dead {
        product.trim()
    } else {
        product
    }
}

/// The top-down worklist of [`binary_op`]: the product over every pair
/// reachable from the root pairs, and whether some pair got no transition.
/// The operands are acyclic, so every pair that accepts no tree reaches
/// such a dead pair: with the flag clear the product is already trimmed.
fn pair_product(
    a1: &TreeAutomaton,
    a2: &TreeAutomaton,
    sign: CombineSign,
) -> (TreeAutomaton, bool) {
    let index1 = TransitionIndex::by_parent(a1);
    let index2 = TransitionIndex::by_parent(a2);
    let leaf_op = leaf_op(sign);
    let mut result = TreeAutomaton::new(a1.num_vars);
    let mut pair_state: FixedMap<(StateId, StateId), StateId> = FixedMap::default();
    let mut worklist: Vec<(StateId, StateId, StateId)> = Vec::new();
    let mut get_state = |result: &mut TreeAutomaton,
                         worklist: &mut Vec<(StateId, StateId, StateId)>,
                         q1: StateId,
                         q2: StateId| {
        *pair_state.entry((q1, q2)).or_insert_with(|| {
            let state = result.add_state();
            worklist.push((q1, q2, state));
            state
        })
    };

    for &r1 in &a1.roots {
        for &r2 in &a2.roots {
            let state = get_state(&mut result, &mut worklist, r1, r2);
            result.add_root(state);
        }
    }

    let mut dead = false;
    while let Some((q1, q2, parent)) = worklist.pop() {
        let mut emitted = false;
        for &i1 in index1.internal_of(q1) {
            let t1 = &a1.internal[i1 as usize];
            for &i2 in index2.internal_of(q2) {
                let t2 = &a2.internal[i2 as usize];
                if t1.symbol != t2.symbol {
                    continue;
                }
                let left = get_state(&mut result, &mut worklist, t1.left, t2.left);
                let right = get_state(&mut result, &mut worklist, t1.right, t2.right);
                result.add_internal(parent, t1.symbol, left, right);
                emitted = true;
            }
        }
        // Leaf combination — pure id arithmetic: the sum/difference of two
        // interned amplitudes is memoised process-wide.
        let leaf1 = index1.leaves_of(q1).first();
        let leaf2 = index2.leaves_of(q2).first();
        if let (Some(&leaf1), Some(&leaf2)) = (leaf1, leaf2) {
            let v1 = a1.leaves[leaf1 as usize].amp;
            let v2 = a2.leaves[leaf2 as usize].amp;
            result.add_leaf_id(parent, intern::combine(leaf_op, v1, v2));
            emitted = true;
        }
        dead |= !emitted;
    }
    (result, dead)
}

/// The binary operation (Algorithm 9) as the paper states it: every
/// tag-matching pair reachable from the root pairs, dead pairs included.
/// The oracle [`binary_op`] is tested against; not used on the hot path.
#[doc(hidden)]
pub fn binary_op_reference(
    a1: &TreeAutomaton,
    a2: &TreeAutomaton,
    sign: CombineSign,
) -> TreeAutomaton {
    let mut result = TreeAutomaton::new(a1.num_vars);
    let mut pair_state: HashMap<(StateId, StateId), StateId> = HashMap::new();
    let mut worklist: Vec<(StateId, StateId)> = Vec::new();

    let get_state = |result: &mut TreeAutomaton,
                     worklist: &mut Vec<(StateId, StateId)>,
                     pair_state: &mut HashMap<(StateId, StateId), StateId>,
                     q1: StateId,
                     q2: StateId| {
        *pair_state.entry((q1, q2)).or_insert_with(|| {
            worklist.push((q1, q2));
            result.add_state()
        })
    };

    // Root pairs.
    for &r1 in &a1.roots {
        for &r2 in &a2.roots {
            let state = get_state(&mut result, &mut worklist, &mut pair_state, r1, r2);
            result.add_root(state);
        }
    }

    // Adjacency (parent- and leaf-indexed) for both sides.
    let index1 = TransitionIndex::build(a1);
    let index2 = TransitionIndex::build(a2);

    while let Some((q1, q2)) = worklist.pop() {
        let parent = pair_state[&(q1, q2)];
        // Internal transitions with matching (tagged) symbols.
        for &i1 in index1.internal_of(q1) {
            for &i2 in index2.internal_of(q2) {
                let t1 = &a1.internal[i1 as usize];
                let t2 = &a2.internal[i2 as usize];
                if t1.symbol != t2.symbol {
                    continue;
                }
                let left = get_state(
                    &mut result,
                    &mut worklist,
                    &mut pair_state,
                    t1.left,
                    t2.left,
                );
                let right = get_state(
                    &mut result,
                    &mut worklist,
                    &mut pair_state,
                    t1.right,
                    t2.right,
                );
                result.add_internal(parent, t1.symbol, left, right);
            }
        }
        // Leaf combination — pure id arithmetic: the sum/difference of two
        // interned amplitudes is memoised process-wide, so repeated leaf
        // products across gates of the same circuit never redo the bigint
        // work (or clone a single coefficient).
        let v1 = index1
            .leaves_of(q1)
            .first()
            .map(|&i| a1.leaves[i as usize].amp);
        let v2 = index2
            .leaves_of(q2)
            .first()
            .map(|&i| a2.leaves[i as usize].amp);
        if let (Some(v1), Some(v2)) = (v1, v2) {
            result.add_leaf_id(parent, intern::combine(leaf_op(sign), v1, v2));
        }
    }
    result
}

/// `true` if `automaton` holds one quantum state in the shape the one-state
/// path of [`apply_formula_in_place_interruptible`] evaluates: one root,
/// exactly one transition (internal or leaf) on every state, and every
/// state the root reaches sits at the depth its transition names (an `x_v`
/// transition at depth `v`, a leaf at depth `num_vars`).  Any other input
/// takes the ladder.  Tests use it to pin which inputs take which path.
#[doc(hidden)]
pub fn is_single_state_dag(automaton: &TreeAutomaton) -> bool {
    Dag::from_single_state(automaton).is_some()
}

/// A node of the one-state DAG: a leaf amplitude, or a branch whose two
/// children sit one level further down.  Levels are implicit: the DAG is
/// layered, so every node lives at one depth.
#[derive(Clone, Copy)]
enum DagNode {
    Leaf(AmpId),
    Branch(u32, u32),
}

impl DagNode {
    /// The hash-consing key: node ids stay below `2^31`, so a branch key
    /// never sets the leaf bit.
    fn key(self) -> u64 {
        match self {
            DagNode::Leaf(amp) => 1 << 63 | u64::from(amp.raw()),
            DagNode::Branch(left, right) => u64::from(left) << 32 | u64::from(right),
        }
    }
}

/// A locally hash-consed DAG holding one quantum state and every term a
/// gate's formula derives from it: the one-state path of
/// [`apply_formula_in_place_interruptible`] (see the module docs).
struct Dag {
    num_vars: u32,
    nodes: Vec<DagNode>,
    ids: FixedMap<u64, u32>,
    /// `zeros[d]`: the all-zero subtree at depth `d`, once built.
    zeros: Vec<Option<u32>>,
    /// The input state's root.
    source: u32,
}

/// Per-state transition slots of [`Dag::from_single_state`]: a leaf
/// position carries [`LEAF`], and two sentinels mark "none" and "several".
const LEAF: u32 = 1 << 31;
const NO_TRANSITION: u32 = u32::MAX;
const SEVERAL: u32 = u32::MAX - 1;

/// An empty slot of the memo of [`Dag::rewrite_layer`] and [`Dag::scale`]:
/// both walk only nodes that exist when they start, so each memoises in a
/// vector with one slot per node id that exists then.
const UNVISITED: u32 = u32::MAX;

impl Dag {
    /// Imports `automaton` if [`is_single_state_dag`] holds for it: one
    /// scan assigns each state its one transition, then one walk from the
    /// root hash-conses the states it reaches, checking each depth.
    fn from_single_state(automaton: &TreeAutomaton) -> Option<Dag> {
        let mut roots = automaton.roots.iter();
        let (Some(&root), None) = (roots.next(), roots.next()) else {
            return None;
        };
        // Every slot must stay clear of the leaf bit and the sentinels.
        if automaton.internal.len() > LEAF as usize
            || automaton.leaves.len() > (SEVERAL & !LEAF) as usize
        {
            return None;
        }
        let mut only = vec![NO_TRANSITION; automaton.num_states as usize];
        let mut claim = |parent: StateId, slot: u32| {
            let entry = &mut only[parent.index()];
            *entry = if *entry == NO_TRANSITION {
                slot
            } else {
                SEVERAL
            };
        };
        for (position, t) in automaton.internal.iter().enumerate() {
            claim(t.parent, position as u32);
        }
        for (position, t) in automaton.leaves.iter().enumerate() {
            claim(t.parent, LEAF | position as u32);
        }
        if only
            .iter()
            .any(|&slot| slot == NO_TRANSITION || slot == SEVERAL)
        {
            return None;
        }
        let mut dag = Dag {
            num_vars: automaton.num_vars,
            nodes: Vec::new(),
            ids: FixedMap::default(),
            zeros: vec![None; automaton.num_vars as usize + 1],
            source: 0,
        };
        let mut node_of = vec![u32::MAX; only.len()];
        dag.source = dag.import(automaton, &only, &mut node_of, root, 0)?;
        Some(dag)
    }

    /// The node of `state`, reached at `depth`; `None` if the state's
    /// transition belongs to another depth.
    fn import(
        &mut self,
        automaton: &TreeAutomaton,
        only: &[u32],
        node_of: &mut [u32],
        state: StateId,
        depth: u32,
    ) -> Option<u32> {
        let slot = only[state.index()];
        let node = if slot & LEAF != 0 {
            if depth != self.num_vars {
                return None;
            }
            DagNode::Leaf(automaton.leaves[(slot & !LEAF) as usize].amp)
        } else {
            let t = &automaton.internal[slot as usize];
            if t.symbol.var != depth || depth >= self.num_vars {
                return None;
            }
            if node_of[state.index()] != u32::MAX {
                return Some(node_of[state.index()]);
            }
            let left = self.import(automaton, only, node_of, t.left, depth + 1)?;
            let right = self.import(automaton, only, node_of, t.right, depth + 1)?;
            DagNode::Branch(left, right)
        };
        let id = self.intern(node);
        node_of[state.index()] = id;
        Some(id)
    }

    fn intern(&mut self, node: DagNode) -> u32 {
        let next = self.nodes.len() as u32;
        let id = *self.ids.entry(node.key()).or_insert(next);
        if id == next {
            self.nodes.push(node);
        }
        id
    }

    fn branch(&mut self, left: u32, right: u32) -> u32 {
        self.intern(DagNode::Branch(left, right))
    }

    fn children(&self, node: u32) -> (u32, u32) {
        match self.nodes[node as usize] {
            DagNode::Branch(left, right) => (left, right),
            DagNode::Leaf(_) => unreachable!("a leaf sits below every qubit"),
        }
    }

    /// The all-zero subtree at `depth`.
    fn zero(&mut self, depth: u32) -> u32 {
        if let Some(zero) = self.zeros[depth as usize] {
            return zero;
        }
        let zero = if depth == self.num_vars {
            self.intern(DagNode::Leaf(intern::zero_id()))
        } else {
            let below = self.zero(depth + 1);
            self.branch(below, below)
        };
        self.zeros[depth as usize] = Some(zero);
        zero
    }

    /// Applies `formula` to the source state and emits the result.
    fn apply(
        &mut self,
        formula: &UpdateExpr,
        interrupt: Option<&Interrupt>,
    ) -> Result<(TreeAutomaton, FormulaPeak), StopReason> {
        self.checkpoint(interrupt)?;
        let root = self.eval(formula, interrupt)?;
        let result = self.to_automaton(root);
        debug_assert!(
            Dag::from_single_state(&result).is_some(),
            "the one-state path must emit one transition per state, layered"
        );
        debug_assert!(
            result.reduce() == result,
            "the one-state path must emit a reduced automaton"
        );
        let built = self.nodes.len();
        Ok((
            result,
            FormulaPeak {
                states: built,
                transitions: built,
                reduced: true,
            },
        ))
    }

    /// Checks the interrupt's cancellation and deadline.  Its size budgets
    /// are left to the engine's check after the gate, against the peak this
    /// path reports: a one-state gate builds a few nodes per input node, so
    /// it cannot blow up inside the gate the way a ladder can, and the
    /// stopped run's statistics then hold the peak that tripped the budget.
    fn checkpoint(&self, interrupt: Option<&Interrupt>) -> Result<(), StopReason> {
        match interrupt {
            Some(interrupt) => interrupt.check_sizes(0, 0),
            None => Ok(()),
        }
    }

    fn eval(
        &mut self,
        expr: &UpdateExpr,
        interrupt: Option<&Interrupt>,
    ) -> Result<u32, StopReason> {
        Ok(match *expr {
            UpdateExpr::Source => self.source,
            UpdateExpr::Proj { qubit, bit } => {
                self.rewrite_layer(self.source, qubit, |left, right| {
                    let kept = if bit { right } else { left };
                    (kept, kept)
                })
            }
            UpdateExpr::Restrict {
                qubit,
                bit,
                ref inner,
            } => {
                let inner = self.eval(inner, interrupt)?;
                let zero = self.zero(qubit + 1);
                self.rewrite_layer(
                    inner,
                    qubit,
                    |left, right| {
                        if bit {
                            (zero, right)
                        } else {
                            (left, zero)
                        }
                    },
                )
            }
            UpdateExpr::Scale { factor, ref inner } => {
                let inner = self.eval(inner, interrupt)?;
                self.scale(inner, factor, &mut vec![UNVISITED; self.nodes.len()])
            }
            UpdateExpr::Combine {
                sign,
                ref lhs,
                ref rhs,
            } => {
                let a = self.eval(lhs, interrupt)?;
                let b = self.eval(rhs, interrupt)?;
                let combined = self.combine(a, b, 0, leaf_op(sign), &mut FixedMap::default());
                self.checkpoint(interrupt)?;
                combined
            }
        })
    }

    /// Rebuilds the paths from `root` down to depth `qubit`, replacing
    /// each branch `(left, right)` there by `at_qubit(left, right)`, which
    /// must return nodes that exist already.
    fn rewrite_layer(
        &mut self,
        root: u32,
        qubit: u32,
        at_qubit: impl Fn(u32, u32) -> (u32, u32) + Copy,
    ) -> u32 {
        let mut memo = vec![UNVISITED; self.nodes.len()];
        self.rewrite_from(root, 0, qubit, at_qubit, &mut memo)
    }

    fn rewrite_from(
        &mut self,
        node: u32,
        depth: u32,
        qubit: u32,
        at_qubit: impl Fn(u32, u32) -> (u32, u32) + Copy,
        memo: &mut [u32],
    ) -> u32 {
        if memo[node as usize] != UNVISITED {
            return memo[node as usize];
        }
        let (left, right) = self.children(node);
        let (left, right) = if depth == qubit {
            at_qubit(left, right)
        } else {
            (
                self.rewrite_from(left, depth + 1, qubit, at_qubit, memo),
                self.rewrite_from(right, depth + 1, qubit, at_qubit, memo),
            )
        };
        let rewritten = self.branch(left, right);
        memo[node as usize] = rewritten;
        rewritten
    }

    /// Multiplies every leaf under `node` by `factor`.
    fn scale(&mut self, node: u32, factor: ScaleFactor, memo: &mut [u32]) -> u32 {
        if memo[node as usize] != UNVISITED {
            return memo[node as usize];
        }
        let scaled = match self.nodes[node as usize] {
            DagNode::Leaf(amp) => {
                let value = intern::intern(&scale_value(&intern::resolve(amp), factor));
                self.intern(DagNode::Leaf(value))
            }
            DagNode::Branch(left, right) => {
                let left = self.scale(left, factor, memo);
                let right = self.scale(right, factor, memo);
                self.branch(left, right)
            }
        };
        memo[node as usize] = scaled;
        scaled
    }

    /// The pointwise `a op b` of two nodes at `depth`; adding or
    /// subtracting the zero subtree returns the other operand unwalked.
    fn combine(
        &mut self,
        a: u32,
        b: u32,
        depth: u32,
        op: intern::LeafOp,
        memo: &mut FixedMap<u64, u32>,
    ) -> u32 {
        let zero = self.zeros[depth as usize];
        if zero == Some(b) {
            return a;
        }
        if zero == Some(a) && op == intern::LeafOp::Add {
            return b;
        }
        let key = u64::from(a) << 32 | u64::from(b);
        if let Some(&done) = memo.get(&key) {
            return done;
        }
        let combined = match (self.nodes[a as usize], self.nodes[b as usize]) {
            (DagNode::Leaf(x), DagNode::Leaf(y)) => {
                self.intern(DagNode::Leaf(intern::combine(op, x, y)))
            }
            (DagNode::Branch(a_left, a_right), DagNode::Branch(b_left, b_right)) => {
                let left = self.combine(a_left, b_left, depth + 1, op, memo);
                let right = self.combine(a_right, b_right, depth + 1, op, memo);
                self.branch(left, right)
            }
            _ => unreachable!("both operands sit at the same depth"),
        };
        memo.insert(key, combined);
        combined
    }

    /// Emits the nodes `root` reaches as an untagged automaton, one state
    /// and one transition per node.
    fn to_automaton(&self, root: u32) -> TreeAutomaton {
        let mut result = TreeAutomaton::new(self.num_vars);
        let mut state_of = vec![u32::MAX; self.nodes.len()];
        let root = self.emit(root, 0, &mut result, &mut state_of);
        result.add_root(root);
        result
    }

    fn emit(
        &self,
        node: u32,
        depth: u32,
        result: &mut TreeAutomaton,
        state_of: &mut [u32],
    ) -> StateId {
        if state_of[node as usize] != u32::MAX {
            return StateId::new(state_of[node as usize]);
        }
        let state = StateId::new(result.num_states);
        result.num_states += 1;
        state_of[node as usize] = state.raw();
        match self.nodes[node as usize] {
            DagNode::Leaf(amp) => result.leaves.push(LeafTransition { parent: state, amp }),
            DagNode::Branch(left, right) => {
                let left = self.emit(left, depth + 1, result, state_of);
                let right = self.emit(right, depth + 1, result, state_of);
                result.internal.push(InternalTransition {
                    parent: state,
                    symbol: InternalSymbol::new(depth),
                    left,
                    right,
                });
            }
        }
        state
    }
}

/// `true` if `automaton` is a set of phased basis states in the shape the
/// basis path of [`apply_formula_in_place_interruptible`] rewrites: every
/// state the roots reach sits at one depth, with `x_v` transitions at depth
/// `v` and leaves at depth `num_vars`, and is
///
/// * *Zero*: every tree it accepts is all-zero, or
/// * *Basis*: every transition has one Zero child and one Basis child, and
///   its leaves are non-zero;
///
/// and every root is Basis.  Any other input takes the ladder.  Tests use
/// it to pin which inputs take which path.
#[doc(hidden)]
pub fn is_basis_set(automaton: &TreeAutomaton) -> bool {
    BasisSet::classify(automaton).is_some()
}

/// The basis path: the formula's gate applied to a set of phased basis
/// states by guess-and-verify, or `None` when the formula does not permute
/// basis states or the input is not such a set.
fn apply_to_basis_set(automaton: &TreeAutomaton, formula: &UpdateExpr) -> Option<TreeAutomaton> {
    let gate = LocalPermutation::of(formula)?;
    let set = BasisSet::classify(automaton)?;
    let result = BasisRewrite::run(&set, &gate);
    #[cfg(debug_assertions)]
    debug_assert_basis_output(&result);
    Some(result)
}

/// The invariants the basis path's output keeps: acyclic, trimmed, no
/// duplicate transitions, and again a phased-basis set (leaves at depth
/// `num_vars` included).
#[cfg(debug_assertions)]
fn debug_assert_basis_output(result: &TreeAutomaton) {
    assert_eq!(
        result.validate(),
        Ok(()),
        "the basis path's output is acyclic"
    );
    assert_eq!(
        result.trim().state_count(),
        result.state_count(),
        "the basis path's output is trimmed"
    );
    let mut deduplicated = result.clone();
    deduplicated.dedup_transitions();
    assert_eq!(
        deduplicated.transition_count(),
        result.transition_count(),
        "the basis path emits no duplicate transitions"
    );
    assert!(
        is_basis_set(result),
        "the basis path's output is a layered phased-basis set"
    );
}

/// A gate whose action on the basis vectors over its qubits is a
/// permutation matrix with every entry exactly 1.
struct LocalPermutation {
    /// The gate's qubits, ascending; bit `i` of a local index is qubit
    /// `qubits[i]`.
    qubits: Vec<u32>,
    /// `image[g]`: the local index the gate sends `|g⟩` to.
    image: Vec<usize>,
}

impl LocalPermutation {
    /// Derives the gate's local action from `formula` itself: evaluates it
    /// with exact scalars on each of the `2^k` basis vectors over
    /// `formula.qubits()` (`k ≤ 3`), and keeps the result only if every
    /// image is one basis vector with amplitude exactly 1, no two alike.
    fn of(formula: &UpdateExpr) -> Option<Self> {
        let qubits = formula.qubits();
        if qubits.len() > 3 {
            return None;
        }
        let size = 1 << qubits.len();
        let mut image = vec![0; size];
        let mut hit = vec![false; size];
        for (g, slot) in image.iter_mut().enumerate() {
            let mut basis = vec![Algebraic::zero(); size];
            basis[g] = Algebraic::one();
            let column = evaluate_local(formula, &qubits, &basis);
            let mut nonzero = column.iter().enumerate().filter(|(_, a)| !a.is_zero());
            let (Some((to, amplitude)), None) = (nonzero.next(), nonzero.next()) else {
                return None;
            };
            if *amplitude != Algebraic::one() || std::mem::replace(&mut hit[to], true) {
                return None;
            }
            *slot = to;
        }
        Some(LocalPermutation { qubits, image })
    }

    /// The local bit of `qubit`, if the gate acts on it.
    fn bit_of(&self, qubit: u32) -> Option<usize> {
        self.qubits.iter().position(|&q| q == qubit)
    }
}

/// Evaluates `expr` on the vector `source` over the basis of `qubits`
/// (bit `i` of an index is qubit `qubits[i]`; `expr` mentions no other).
fn evaluate_local(expr: &UpdateExpr, qubits: &[u32], source: &[Algebraic]) -> Vec<Algebraic> {
    let mask = |qubit: u32| {
        1 << qubits
            .iter()
            .position(|&q| q == qubit)
            .expect("the formula mentions only its own qubits")
    };
    match expr {
        UpdateExpr::Source => source.to_vec(),
        UpdateExpr::Proj { qubit, bit } => {
            let mask = mask(*qubit);
            (0..source.len())
                .map(|x| source[if *bit { x | mask } else { x & !mask }].clone())
                .collect()
        }
        UpdateExpr::Restrict { qubit, bit, inner } => {
            let mask = mask(*qubit);
            let mut values = evaluate_local(inner, qubits, source);
            for (x, value) in values.iter_mut().enumerate() {
                if (x & mask != 0) != *bit {
                    *value = Algebraic::zero();
                }
            }
            values
        }
        UpdateExpr::Scale { factor, inner } => evaluate_local(inner, qubits, source)
            .iter()
            .map(|value| scale_value(value, *factor))
            .collect(),
        UpdateExpr::Combine { sign, lhs, rhs } => {
            let lhs = evaluate_local(lhs, qubits, source);
            let rhs = evaluate_local(rhs, qubits, source);
            lhs.iter()
                .zip(&rhs)
                .map(|(a, b)| match sign {
                    CombineSign::Plus => a + b,
                    CombineSign::Minus => a - b,
                })
                .collect()
        }
    }
}

/// The class of a state of a phased-basis set (see [`is_basis_set`]).
#[derive(Clone, Copy, PartialEq, Eq)]
enum BasisClass {
    Unreached,
    Zero,
    Basis,
}

/// A classified phased-basis set: the depth and class of every state its
/// roots reach.
struct BasisSet<'a> {
    automaton: &'a TreeAutomaton,
    index: TransitionIndex,
    depth: Vec<u32>,
    class: Vec<BasisClass>,
}

impl<'a> BasisSet<'a> {
    /// Classifies `automaton` if [`is_basis_set`] holds for it: a
    /// breadth-first walk from the roots assigns and checks depths, then
    /// the reached states are classified deepest first.
    fn classify(automaton: &'a TreeAutomaton) -> Option<Self> {
        let index = TransitionIndex::build(automaton);
        let mut depth = vec![u32::MAX; automaton.num_states as usize];
        let mut order: Vec<StateId> = automaton.roots.iter().copied().collect();
        for root in &order {
            depth[root.index()] = 0;
        }
        let mut next = 0;
        while let Some(&state) = order.get(next) {
            next += 1;
            let d = depth[state.index()];
            let internal = index.internal_of(state);
            let leaves = index.leaves_of(state);
            if d == automaton.num_vars {
                if !internal.is_empty() || leaves.is_empty() {
                    return None;
                }
                continue;
            }
            if !leaves.is_empty() || internal.is_empty() {
                return None;
            }
            for &position in internal {
                let t = &automaton.internal[position as usize];
                if t.symbol.var != d {
                    return None;
                }
                for child in [t.left, t.right] {
                    let seen = &mut depth[child.index()];
                    if *seen == u32::MAX {
                        *seen = d + 1;
                        order.push(child);
                    } else if *seen != d + 1 {
                        return None;
                    }
                }
            }
        }
        let mut set = BasisSet {
            automaton,
            index,
            depth,
            class: vec![BasisClass::Unreached; automaton.num_states as usize],
        };
        // Breadth-first order is by depth, so children come later.
        for &state in order.iter().rev() {
            set.class[state.index()] = set.class_of(state)?;
        }
        automaton
            .roots
            .iter()
            .all(|root| set.class[root.index()] == BasisClass::Basis)
            .then_some(set)
    }

    /// The class of `state` from its children's; `None` for a state that
    /// is neither Zero nor Basis.
    fn class_of(&self, state: StateId) -> Option<BasisClass> {
        let mut classes = self
            .index
            .leaves_of(state)
            .iter()
            .map(|&position| {
                if self.automaton.leaves[position as usize].amp == intern::zero_id() {
                    Some(BasisClass::Zero)
                } else {
                    Some(BasisClass::Basis)
                }
            })
            .chain(self.index.internal_of(state).iter().map(|&position| {
                let t = &self.automaton.internal[position as usize];
                match (self.class[t.left.index()], self.class[t.right.index()]) {
                    (BasisClass::Zero, BasisClass::Zero) => Some(BasisClass::Zero),
                    (BasisClass::Zero, BasisClass::Basis)
                    | (BasisClass::Basis, BasisClass::Zero) => Some(BasisClass::Basis),
                    _ => None,
                }
            }));
        let first = classes.next()??;
        classes.all(|class| class == Some(first)).then_some(first)
    }

    /// The transition at `position` of a Basis state as (Basis child, its
    /// side, Zero child); side `true` is the right (`1`) subtree.
    fn basis_arc(&self, position: u32) -> (StateId, bool, StateId) {
        let t = &self.automaton.internal[position as usize];
        if self.class[t.left.index()] == BasisClass::Basis {
            (t.left, false, t.right)
        } else {
            (t.right, true, t.left)
        }
    }
}

/// The guess-and-verify construction of the basis path.  With `top` and
/// `bottom` the gate's first and last qubits:
///
/// * states above `top`, Zero states and states below `bottom` are copied;
/// * a Basis state `s` at depth `top` becomes the union, over the guessed
///   local input bits `g`, of the transitions of its `(s, g)` copies;
/// * the copy `(s, g)` of a Basis state between `top` and `bottom` keeps
///   only the transitions whose Basis child lies on the side `g` names at a
///   gate qubit, moves that child to the side `image[g]` names, and reuses
///   the Zero child; a copy left without transitions is not emitted.
///
/// Only what the roots reach is emitted, so the output is trimmed.
struct BasisRewrite<'s, 'a> {
    set: &'s BasisSet<'a>,
    gate: &'s LocalPermutation,
    top: u32,
    bottom: u32,
    out: TreeAutomaton,
    /// The output state of each copied or unioned input state.
    emitted: Vec<Option<StateId>>,
    /// The output state of each copy `(s, g)`, keyed `s << 3 | g`; `None`
    /// for a copy that accepts nothing.
    copies: FixedMap<u64, Option<StateId>>,
}

impl<'s, 'a> BasisRewrite<'s, 'a> {
    fn run(set: &'s BasisSet<'a>, gate: &'s LocalPermutation) -> TreeAutomaton {
        let automaton = set.automaton;
        let mut rewrite = BasisRewrite {
            set,
            gate,
            top: *gate.qubits.first().unwrap_or(&automaton.num_vars),
            bottom: *gate.qubits.last().unwrap_or(&automaton.num_vars),
            out: TreeAutomaton::new(automaton.num_vars),
            emitted: vec![None; automaton.num_states as usize],
            copies: FixedMap::default(),
        };
        for &root in &automaton.roots {
            let root = rewrite.emit(root);
            rewrite.out.add_root(root);
        }
        rewrite.out
    }

    /// The output state of an input state other than a Basis state below
    /// `top` and at most `bottom` deep (those are reached through
    /// [`BasisRewrite::copy`]): a copy, or at depth `top` the union over
    /// the guesses.
    fn emit(&mut self, state: StateId) -> StateId {
        if let Some(done) = self.emitted[state.index()] {
            return done;
        }
        let parent = self.out.add_state();
        self.emitted[state.index()] = Some(parent);
        let set = self.set;
        let depth = set.depth[state.index()];
        if depth == self.out.num_vars {
            let mut amps: Vec<AmpId> = set
                .index
                .leaves_of(state)
                .iter()
                .map(|&position| set.automaton.leaves[position as usize].amp)
                .collect();
            amps.sort_unstable();
            amps.dedup();
            self.out
                .leaves
                .extend(amps.into_iter().map(|amp| LeafTransition { parent, amp }));
            return parent;
        }
        let mut arcs = Vec::new();
        if depth == self.top && set.class[state.index()] == BasisClass::Basis {
            for &position in set.index.internal_of(state) {
                let (child, side, zero) = set.basis_arc(position);
                for g in (0..self.gate.image.len()).filter(|g| (g & 1 == 1) == side) {
                    let moved = if self.top == self.bottom {
                        Some(self.emit(child))
                    } else {
                        self.copy(child, g)
                    };
                    if let Some(moved) = moved {
                        arcs.push(self.arc(self.gate.image[g] & 1 == 1, moved, zero));
                    }
                }
            }
        } else {
            for &position in set.index.internal_of(state) {
                let t = &set.automaton.internal[position as usize];
                arcs.push((self.emit(t.left), self.emit(t.right)));
            }
        }
        self.push_arcs(parent, depth, arcs);
        parent
    }

    /// The output state of the copy `(state, g)` of a Basis state between
    /// `top` and `bottom`, or `None` when it accepts nothing.
    fn copy(&mut self, state: StateId, g: usize) -> Option<StateId> {
        let key = u64::from(state.raw()) << 3 | g as u64;
        if let Some(&done) = self.copies.get(&key) {
            return done;
        }
        let set = self.set;
        let depth = set.depth[state.index()];
        let gate_bit = self.gate.bit_of(depth);
        let mut arcs = Vec::new();
        for &position in set.index.internal_of(state) {
            let (child, side, zero) = set.basis_arc(position);
            let side = match gate_bit {
                Some(bit) if (g >> bit & 1 == 1) != side => continue,
                Some(bit) => self.gate.image[g] >> bit & 1 == 1,
                None => side,
            };
            let moved = if depth == self.bottom {
                Some(self.emit(child))
            } else {
                self.copy(child, g)
            };
            if let Some(moved) = moved {
                arcs.push(self.arc(side, moved, zero));
            }
        }
        let copy = (!arcs.is_empty()).then(|| {
            let parent = self.out.add_state();
            self.push_arcs(parent, depth, arcs);
            parent
        });
        self.copies.insert(key, copy);
        copy
    }

    /// The children of an output transition with the Basis child `moved`
    /// on `side` and the Zero child `zero` on the other.
    fn arc(&mut self, side: bool, moved: StateId, zero: StateId) -> (StateId, StateId) {
        let zero = self.emit(zero);
        if side {
            (zero, moved)
        } else {
            (moved, zero)
        }
    }

    fn push_arcs(&mut self, parent: StateId, depth: u32, mut arcs: Vec<(StateId, StateId)>) {
        arcs.sort_unstable();
        arcs.dedup();
        let symbol = InternalSymbol::new(depth);
        self.out
            .internal
            .extend(arcs.into_iter().map(|(left, right)| InternalTransition {
                parent,
                symbol,
                left,
                right,
            }));
    }
}

#[cfg(test)]
mod pass_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::update_formula;
    use autoq_amplitude::Algebraic;
    use autoq_circuit::Gate;
    use autoq_simulator::DenseState;
    use autoq_treeaut::{equivalence, Tree};
    use std::collections::BTreeSet;

    fn singleton(tree: &Tree) -> TreeAutomaton {
        TreeAutomaton::from_tree(tree)
    }

    fn tag(automaton: &TreeAutomaton) -> TreeAutomaton {
        let mut tagged = automaton.clone();
        tag_in_place(&mut tagged);
        tagged
    }

    fn restrict(automaton: &TreeAutomaton, qubit: u32, bit: bool) -> TreeAutomaton {
        let mut restricted = automaton.clone();
        restrict_in_place(&mut restricted, qubit, bit);
        restricted
    }

    fn multiply(automaton: &TreeAutomaton, factor: ScaleFactor) -> TreeAutomaton {
        let mut scaled = automaton.clone();
        multiply_in_place(&mut scaled, factor);
        scaled
    }

    /// Applies `formula` with the default options and no interrupt.
    fn apply(automaton: &TreeAutomaton, formula: &UpdateExpr) -> (TreeAutomaton, FormulaPeak) {
        let mut result = automaton.clone();
        let peak = apply_formula_in_place_interruptible(
            &mut result,
            formula,
            &CompositionOptions::default(),
            None,
        )
        .expect("no interrupt, so the formula cannot stop early");
        (result, peak)
    }

    fn state_of(automaton: &TreeAutomaton) -> Vec<std::collections::BTreeMap<u128, Algebraic>> {
        automaton
            .enumerate(64)
            .iter()
            .map(Tree::to_amplitude_map)
            .collect()
    }

    #[test]
    fn tagging_gives_unique_tags() {
        let automaton = TreeAutomaton::from_trees(
            2,
            &[
                Tree::basis_state(2, 0),
                Tree::basis_state(2, 1),
                Tree::basis_state(2, 3),
            ],
        );
        let tagged = tag(&automaton);
        let mut tags: Vec<_> = tagged.internal.iter().map(|t| t.symbol.tag).collect();
        tags.sort();
        tags.dedup();
        assert_eq!(tags.len(), tagged.internal.len(), "tags must be unique");
        assert_eq!(tagged.untagged().internal.len(), automaton.internal.len());
    }

    #[test]
    fn restriction_zeroes_one_branch() {
        // B_{x_0}·T on |11⟩ keeps it; B̄_{x_0}·T zeroes it.
        let tree = Tree::basis_state(2, 0b11);
        let tagged = tag(&singleton(&tree));
        let keep = restrict(&tagged, 0, true).untagged().reduce();
        let kill = restrict(&tagged, 0, false).untagged().reduce();
        assert_eq!(state_of(&keep), vec![tree.to_amplitude_map()]);
        let killed = state_of(&kill);
        assert_eq!(killed.len(), 1);
        assert!(killed[0].is_empty(), "all amplitudes must be zero");
    }

    #[test]
    fn restriction_on_an_unmentioned_qubit_is_the_identity() {
        // An automaton with no transition on qubit 1 (empty language after
        // trimming): restriction must leave it untouched instead of
        // importing a zeroed copy.
        let mut automaton = TreeAutomaton::new(2);
        let leaf = automaton.leaf_state(&Algebraic::one());
        let root = automaton.add_state();
        automaton.add_root(root);
        automaton.add_internal(root, InternalSymbol::new(0), leaf, leaf);
        let states_before = automaton.state_count();
        let transitions_before = automaton.transition_count();
        restrict_in_place(&mut automaton, 1, true);
        assert_eq!(automaton.state_count(), states_before);
        assert_eq!(automaton.transition_count(), transitions_before);
    }

    #[test]
    fn multiplication_rewrites_leaves() {
        let tree = Tree::basis_state(1, 1);
        let tagged = tag(&singleton(&tree));
        let scaled = multiply(&tagged, ScaleFactor::OmegaPow(2)).untagged();
        let states = state_of(&scaled);
        assert_eq!(states[0][&1], Algebraic::i());
        let halved = multiply(&tagged, ScaleFactor::InvSqrt2).untagged();
        assert_eq!(state_of(&halved)[0][&1], Algebraic::one_over_sqrt2());
        let negated = multiply(&tagged, ScaleFactor::Neg).untagged();
        assert_eq!(state_of(&negated)[0][&1], -&Algebraic::one());
    }

    #[test]
    fn projection_at_the_bottom_layer() {
        // T on 1 qubit: T_{x_0} copies the |1⟩ amplitude everywhere.
        let tree = Tree::from_fn(1, |b| {
            if b == 0 {
                Algebraic::one()
            } else {
                Algebraic::i()
            }
        });
        let tagged = tag(&singleton(&tree));
        let projected = project_with(&tagged, 0, true).untagged();
        let states = state_of(&projected);
        assert_eq!(states.len(), 1);
        assert_eq!(states[0][&0], Algebraic::i());
        assert_eq!(states[0][&1], Algebraic::i());
    }

    #[test]
    fn projection_above_the_bottom_layer_uses_swaps() {
        // 2 qubits: T(b0 b1) = b0*2 + b1 as amplitude (all distinct).
        let tree = Tree::from_fn(2, |b| Algebraic::from_int(b as i64 + 1));
        let tagged = tag(&singleton(&tree));
        // T_{x̄_0}: fix qubit 0 to 0 → amplitudes (1, 2, 1, 2).
        let projected = project_with(&tagged, 0, false).untagged().reduce();
        let states = state_of(&projected);
        assert_eq!(states.len(), 1);
        assert_eq!(states[0][&0b00], Algebraic::from_int(1));
        assert_eq!(states[0][&0b01], Algebraic::from_int(2));
        assert_eq!(states[0][&0b10], Algebraic::from_int(1));
        assert_eq!(states[0][&0b11], Algebraic::from_int(2));
        // T_{x_0}: fix qubit 0 to 1 → amplitudes (3, 4, 3, 4).
        let projected = project_with(&tagged, 0, true).untagged().reduce();
        let states = state_of(&projected);
        assert_eq!(states[0][&0b00], Algebraic::from_int(3));
        assert_eq!(states[0][&0b01], Algebraic::from_int(4));
    }

    #[test]
    fn fused_projection_matches_the_reference_ladder() {
        // Multi-tree tagged automaton, every qubit/bit at 3 qubits.
        let trees = vec![
            Tree::from_fn(3, |b| Algebraic::from_int((b % 3) as i64)),
            Tree::basis_state(3, 5),
            Tree::basis_state(3, 2),
        ];
        let tagged = tag(&TreeAutomaton::from_trees(3, &trees));
        for qubit in 0..3 {
            for bit in [false, true] {
                let fused = project_with(&tagged, qubit, bit);
                let reference = project_reference(&tagged, qubit, bit);
                assert!(
                    equivalence(&fused, &reference).holds(),
                    "fused projection diverged at qubit {qubit}, bit {bit}"
                );
            }
        }
    }

    #[test]
    fn forward_then_backward_swap_is_identity_on_the_language() {
        let trees = vec![
            Tree::from_fn(3, |b| Algebraic::from_int((b % 3) as i64)),
            Tree::basis_state(3, 5),
        ];
        let automaton = tag(&TreeAutomaton::from_trees(3, &trees));
        let swapped = forward_swap(&automaton, 1);
        let restored = backward_swap(&swapped, 1);
        assert!(equivalence(&automaton.untagged(), &restored.untagged()).holds());
    }

    #[test]
    fn binary_op_adds_amplitudes_of_matching_trees() {
        let tree = Tree::from_fn(1, |b| {
            if b == 0 {
                Algebraic::one()
            } else {
                Algebraic::i()
            }
        });
        let tagged = tag(&singleton(&tree));
        let doubled = binary_op(&tagged, &tagged, CombineSign::Plus)
            .untagged()
            .reduce();
        let states = state_of(&doubled);
        assert_eq!(states.len(), 1);
        assert_eq!(states[0][&0], Algebraic::from_int(2));
        let cancelled = binary_op(&tagged, &tagged, CombineSign::Minus)
            .untagged()
            .reduce();
        assert!(state_of(&cancelled)[0].is_empty());
    }

    #[test]
    fn binary_op_does_not_mix_distinct_trees() {
        // Two different basis states in one automaton: the combination must
        // pair each tree with itself, not cross-combine (the paper's
        // motivation for tagging).
        let automaton =
            TreeAutomaton::from_trees(2, &[Tree::basis_state(2, 0), Tree::basis_state(2, 3)]);
        let tagged = tag(&automaton);
        let doubled = binary_op(&tagged, &tagged, CombineSign::Plus)
            .untagged()
            .reduce();
        let states = state_of(&doubled);
        assert_eq!(states.len(), 2);
        for map in states {
            assert_eq!(
                map.len(),
                1,
                "each combined tree keeps a single non-zero amplitude"
            );
            assert_eq!(map.values().next().unwrap(), &Algebraic::from_int(2));
        }
    }

    /// `root → x0#1(s1, s2)`, `s1 → x1#2(|1⟩, |0⟩)`, `s2 → x1#right_tag(|0⟩, |1⟩)`:
    /// one tree, one transition per state.
    fn two_level_singleton(right_tag: u32) -> TreeAutomaton {
        let tagged = |var, tag| InternalSymbol::new(var).with_tag(Tag::Single(tag));
        let mut automaton = TreeAutomaton::new(2);
        let zero = automaton.leaf_state(&Algebraic::zero());
        let one = automaton.leaf_state(&Algebraic::one());
        let [root, s1, s2] = [(); 3].map(|_| automaton.add_state());
        automaton.add_internal(s1, tagged(1, 2), one, zero);
        automaton.add_internal(s2, tagged(1, right_tag), zero, one);
        automaton.add_internal(root, tagged(0, 1), s1, s2);
        automaton.add_root(root);
        automaton
    }

    #[test]
    fn singleton_products_are_built_trimmed() {
        let a = two_level_singleton(3);
        let product = binary_op(&a, &a, CombineSign::Plus);
        assert_eq!(product, binary_op_reference(&a, &a, CombineSign::Plus));
        assert_eq!(product.state_count(), 5);

        // The right children's tags differ, so the root pair is dead: the
        // product must come back trimmed.
        let b = two_level_singleton(4);
        let reference = binary_op_reference(&a, &b, CombineSign::Plus);
        assert!(reference.state_count() > 0);
        let product = binary_op(&a, &b, CombineSign::Plus);
        assert_eq!(product.state_count(), 0);
        assert!(product.roots.is_empty());
        assert_eq!(reference.trim().state_count(), 0);
    }

    #[test]
    fn dead_pairs_are_trimmed_and_counted_in_the_peak() {
        // {|00⟩, i|01⟩} under CNOT(1→0), on the paper's ladder: the top-level
        // `Combine` pairs states whose tags stop matching further down.
        let gate = Gate::Cnot {
            control: 1,
            target: 0,
        };
        let members = [
            Tree::basis_state(2, 0b00),
            Tree::from_fn(2, |b| {
                if b == 0b01 {
                    Algebraic::i()
                } else {
                    Algebraic::zero()
                }
            }),
        ];
        let input = TreeAutomaton::from_trees(2, &members);
        let formula = update_formula(&gate).unwrap();
        let (result, peak) = apply(&input, &formula);

        let expected: BTreeSet<_> = members
            .iter()
            .map(|member| {
                let mut state = DenseState::from_amplitudes(2, member.to_state_vector());
                state.apply_gate(&gate);
                state.to_amplitude_map()
            })
            .collect();
        let actual: BTreeSet<_> = state_of(&result).into_iter().collect();
        assert_eq!(actual, expected);
        assert_eq!(result.trim().state_count(), result.state_count());

        let UpdateExpr::Combine { sign, lhs, rhs } = &formula else {
            panic!("a CNOT formula is a Combine");
        };
        let tagged = tag(&input);
        let untrimmed = binary_op_reference(
            &evaluate_with(lhs, &tagged),
            &evaluate_with(rhs, &tagged),
            *sign,
        );
        assert!(
            untrimmed.trim().state_count() < untrimmed.state_count(),
            "the product must hold a dead pair"
        );
        assert_eq!(peak.states, untrimmed.state_count());
        assert!(peak.states > result.state_count());
    }

    #[test]
    fn hadamard_formula_produces_the_plus_state() {
        let formula = update_formula(&Gate::H(0)).unwrap();
        let automaton = singleton(&Tree::basis_state(1, 0));
        let (result, peak) = apply(&automaton, &formula);
        let states = state_of(&result.reduce());
        assert_eq!(states.len(), 1);
        assert_eq!(states[0][&0], Algebraic::one_over_sqrt2());
        assert_eq!(states[0][&1], Algebraic::one_over_sqrt2());
        assert!(
            peak.states > 0 && peak.transitions > 0,
            "formula evaluation must observe a peak"
        );
    }

    #[test]
    fn cnot_formula_flips_conditionally_on_sets() {
        let formula = update_formula(&Gate::Cnot {
            control: 0,
            target: 1,
        })
        .unwrap();
        let automaton = TreeAutomaton::from_trees(
            2,
            &[
                Tree::basis_state(2, 0b00),
                Tree::basis_state(2, 0b10),
                Tree::basis_state(2, 0b11),
            ],
        );
        let result = apply(&automaton, &formula).0.reduce();
        assert!(result.accepts(&Tree::basis_state(2, 0b00)));
        assert!(result.accepts(&Tree::basis_state(2, 0b11)));
        assert!(result.accepts(&Tree::basis_state(2, 0b10)));
        assert_eq!(result.enumerate(16).len(), 3);
    }
}
