//! Sparse state-vector simulation for wide but sparse states.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

use autoq_amplitude::hash::FixedMap;
use autoq_amplitude::{intern, Algebraic, AmpId};
use autoq_circuit::schedule::interference_schedule;
use autoq_circuit::{Circuit, Gate};
use autoq_treeaut::basis;
use autoq_treeaut::Tree;

/// The value index of an absent (zero) amplitude.
const ZERO: u32 = u32::MAX;

/// A memo slot not computed yet.
const UNSET: u32 = u32::MAX - 1;

/// A sparse quantum state: the basis indices of its non-zero amplitudes,
/// in ascending order, each with its amplitude.
///
/// Unlike [`DenseState`](crate::DenseState), the sparse simulator scales to
/// up to 128 qubits (basis states are `u128` indices) as long as the number
/// of non-zero amplitudes stays manageable — which is the case for the
/// reversible-circuit benchmarks of the paper (they permute basis states)
/// and, thanks to the interference-friendly gate scheduling of
/// [`SparseState::apply_circuit`], for Bernstein–Vazirani.
///
/// # Representation
///
/// The entries are two parallel vectors sorted by basis index: the
/// indices, strictly ascending, and for each a `u32` index into a table of
/// distinct non-zero [`Algebraic`] values.  Circuit states hold few
/// distinct amplitudes even when their support is large (a 35-qubit
/// witness with 262,144 non-zero entries holds 96), so each is stored
/// once, and a gate computes its exact arithmetic once per distinct input
/// and memoises the result for the rest of that gate.  Every gate is one
/// sequential pass that keeps the indices sorted; no basis index is ever
/// hashed.  For a gate on the bit `m`, the entries sharing the bits above
/// `m` are contiguous (a *block*), and within a block those with `m` clear
/// come before those with `m` set, each run ordered by the bits below `m`:
///
/// * superposing gates (`H`, `Rx(π/2)`, `Ry(π/2)`) merge-join a block's
///   two runs on the bits below `m` to pair each `b` with `b|m`, compute
///   each distinct `(amplitude₀, amplitude₁)` pair once, and emit the
///   block's outputs with `m` clear, then those with `m` set;
/// * conditional bit flips (`X`, the flip of `Y`, `CNOT`, Toffoli) build
///   each new run of a block as the merge of the old run's entries that
///   stay and the other run's entries that flip, whether the controls sit
///   above or below the target; `SWAP` and Fredkin are three such flips.
///   Flips leave the values and the table alone;
/// * phase gates (`Z`, `S`, `S†`, `T`, `T†`, `CZ`, and `Y` before its bit
///   flip) rewrite the value indices in place, computing each
///   `(phase, amplitude)` product once.
///
/// **Memory bound.**  The memo lives for one gate, and the table is rebuilt
/// from the values the gate's output actually uses, so every table value
/// is used by some entry and the table is never larger than the support.
/// A T-heavy circuit whose amplitudes all differ therefore costs at most
/// one table value per entry, not an ever-growing table.  An entry costs
/// 20 bytes, and a gate holds its input and its output at once.
///
/// **Cost.**  Each gate reads its input in order and appends its output in
/// order, so it runs at memory speed: pulling the `random35` bug-hunt
/// witness (262,144 entries) back through its circuit takes 0.012–0.016 s
/// on a 2-core VM, where probing a hash map of the basis indices, one
/// cache miss after another, took 0.08–0.15 s.
///
/// # Inverses
///
/// [`SparseState::apply_gate_inverse`] undoes any gate as one step, and
/// [`SparseState::try_apply_inverse`] pulls a state back through a circuit
/// by walking the circuit's forward schedule backwards.  Pulling `U|b⟩`
/// back that way passes exactly the forward run's intermediate states, so
/// it costs about what the forward run costs, gate for gate, since every
/// kernel is linear in the entries it reads and writes.  The dagger
/// circuit (each `Rx(π/2)`/`Ry(π/2)` spelled as seven gates, under its own
/// schedule) passes far more entries.
///
/// # Examples
///
/// ```
/// use autoq_circuit::{Circuit, Gate};
/// use autoq_simulator::SparseState;
///
/// // A 120-qubit reversible circuit on a basis state stays a basis state.
/// let mut circuit = Circuit::new(120);
/// for q in 0..119 {
///     circuit.push(Gate::Cnot { control: q, target: q + 1 }).unwrap();
/// }
/// let mut state = SparseState::basis_state(120, 0);
/// state.apply_gate(&Gate::X(0));
/// state.apply_circuit(&circuit);
/// assert_eq!(state.support_size(), 1);
/// ```
#[derive(Clone)]
pub struct SparseState {
    num_qubits: u32,
    /// The basis indices of the non-zero amplitudes, strictly ascending.
    keys: Vec<u128>,
    /// `vals[i]` is the index into `values` of the amplitude of `keys[i]`.
    vals: Vec<u32>,
    /// The distinct non-zero amplitudes, each used by at least one entry.
    values: Vec<Algebraic>,
}

impl SparseState {
    /// Largest witness-tree support [`SparseState::from_tree`] will
    /// materialise; larger trees make it panic, so callers wanting graceful
    /// degradation must check `Tree::support_size` against this first.
    pub const MAX_TREE_SUPPORT: u128 = 1 << 24;

    /// The computational basis state `|basis⟩` over `num_qubits ≤ 128` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits > 128`.
    pub fn basis_state(num_qubits: u32, basis: u128) -> Self {
        Self::from_amplitudes(num_qubits, [(basis, Algebraic::one())])
    }

    /// Builds a state from explicit amplitudes; zero amplitudes are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits > 128`, if any basis index has bits outside the
    /// `num_qubits`-qubit space, or if a basis index is repeated (zero
    /// amplitudes included).
    pub fn from_amplitudes(
        num_qubits: u32,
        entries: impl IntoIterator<Item = (u128, Algebraic)>,
    ) -> Self {
        assert!(
            num_qubits <= basis::MAX_QUBITS,
            "sparse simulation limited to {} qubits",
            basis::MAX_QUBITS
        );
        let mut listed: Vec<(u128, Algebraic)> = entries
            .into_iter()
            .inspect(|&(basis, _)| basis::assert_in_range(num_qubits, basis))
            .collect();
        listed.sort_unstable_by_key(|&(basis, _)| basis);
        if let Some(pair) = listed.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            panic!("basis index {} repeated", pair[0].0);
        }
        let mut table = Table::default();
        let mut state = SparseState::empty(num_qubits, listed.len());
        for (basis, amp) in listed {
            let value = table.intern(amp);
            if value != ZERO {
                state.keys.push(basis);
                state.vals.push(value);
            }
        }
        state.values = table.into_values();
        debug_assert!(state.invariants_hold());
        state
    }

    /// Builds a sparse state from a (DAG-shared) witness tree produced by
    /// the automata framework, so AutoQ witnesses can be fed straight into
    /// the exact simulator for confirmation — the role SliQSim plays in the
    /// paper's evaluation.
    ///
    /// The conversion enumerates only the tree's non-zero amplitudes
    /// ([`Tree::for_each_nonzero`]), so a 35-qubit basis-state witness
    /// costs a handful of entries, not `2^35` leaves.  That walk lists them
    /// in ascending basis order, so they are appended as they come, with no
    /// map and no sort, and each distinct leaf amplitude is resolved from
    /// its interned id once: random35's 262,144-entry witness converts in
    /// 0.012–0.013 s on a 2-core VM, most of it the DAG walk.
    ///
    /// # Panics
    ///
    /// Panics if the witness support exceeds
    /// [`SparseState::MAX_TREE_SUPPORT`] non-zero amplitudes (materialising
    /// it entry by entry would defeat the sparse representation); check
    /// `tree.support_size()` against that constant first to degrade
    /// gracefully instead.
    ///
    /// ```
    /// use autoq_simulator::SparseState;
    /// use autoq_treeaut::Tree;
    ///
    /// let witness = Tree::basis_state(40, 1 << 39);
    /// let state = SparseState::from_tree(&witness);
    /// assert_eq!(state.support_size(), 1);
    /// assert_eq!(state.num_qubits(), 40);
    /// ```
    pub fn from_tree(tree: &Tree) -> Self {
        let support = tree.support_size();
        assert!(
            support <= Self::MAX_TREE_SUPPORT,
            "witness support {support} too large to materialise as a sparse state"
        );
        let num_qubits = tree.num_qubits();
        assert!(
            num_qubits <= basis::MAX_QUBITS,
            "sparse simulation limited to {} qubits",
            basis::MAX_QUBITS
        );
        let mut state = SparseState::empty(num_qubits, support as usize);
        // Interned ids are canonical, so distinct ids are distinct non-zero
        // values: each is resolved once and the table comes out tight.
        let mut slots: FixedMap<AmpId, u32> = FixedMap::default();
        tree.for_each_nonzero(|basis, amp| {
            basis::assert_in_range(num_qubits, basis);
            assert!(
                state.keys.last().map_or(true, |&last| last < basis),
                "basis index {basis} repeated or out of order"
            );
            let next = u32::try_from(state.values.len()).expect("amplitude table overflow");
            let value = *slots.entry(amp).or_insert_with(|| {
                state.values.push(intern::resolve(amp));
                next
            });
            state.keys.push(basis);
            state.vals.push(value);
        });
        debug_assert!(state.invariants_hold());
        state
    }

    /// A state with no entries yet, room for `capacity`, and no table.
    fn empty(num_qubits: u32, capacity: usize) -> Self {
        SparseState {
            num_qubits,
            keys: Vec::with_capacity(capacity),
            vals: Vec::with_capacity(capacity),
            values: Vec::new(),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Number of non-zero amplitudes.
    pub fn support_size(&self) -> usize {
        self.keys.len()
    }

    /// The amplitude of `|basis⟩` (zero if absent).
    pub fn amplitude(&self, basis: u128) -> Algebraic {
        self.keys.binary_search(&basis).map_or_else(
            |_| Algebraic::zero(),
            |at| self.values[self.vals[at] as usize].clone(),
        )
    }

    /// The non-zero amplitudes, ordered by basis index.
    pub fn to_amplitude_map(&self) -> BTreeMap<u128, Algebraic> {
        self.keys
            .iter()
            .zip(&self.vals)
            .map(|(&basis, &value)| (basis, self.values[value as usize].clone()))
            .collect()
    }

    /// Consumes the state and returns its non-zero amplitudes, ordered by
    /// basis index.  Each table value is moved into the last entry that
    /// uses it and cloned only for the others, so a state whose entries
    /// all differ clones nothing.
    pub fn into_amplitude_map(self) -> BTreeMap<u128, Algebraic> {
        let mut uses = vec![0u32; self.values.len()];
        for &value in &self.vals {
            uses[value as usize] += 1;
        }
        let mut values = self.values;
        self.keys
            .into_iter()
            .zip(self.vals)
            .map(|(basis, value)| {
                let value = value as usize;
                uses[value] -= 1;
                let amp = if uses[value] == 0 {
                    std::mem::take(&mut values[value])
                } else {
                    values[value].clone()
                };
                (basis, amp)
            })
            .collect()
    }

    /// Total squared norm (should be 1).
    pub fn total_probability(&self) -> f64 {
        self.vals
            .iter()
            .map(|&value| self.values[value as usize].norm_sqr())
            .sum()
    }

    fn mask(&self, qubit: u32) -> u128 {
        1u128 << (self.num_qubits - 1 - qubit)
    }

    /// Applies one gate in place.
    ///
    /// # Panics
    ///
    /// Panics if the gate refers to a qubit outside the state.
    pub fn apply_gate(&mut self, gate: &Gate) {
        for q in gate.qubits() {
            assert!(q < self.num_qubits, "gate qubit {q} out of range");
        }
        match *gate {
            Gate::X(q) => self.flip(self.mask(q), 0),
            Gate::Y(q) => {
                // |0⟩ → i|1⟩ and |1⟩ → −i|0⟩: the phase by the source bit,
                // then the flip.
                let mask = self.mask(q);
                self.phase([2, 6], |b| usize::from(b & mask != 0));
                self.flip(mask, 0);
            }
            Gate::Z(q) => self.phase_if_set(self.mask(q), 4),
            Gate::S(q) => self.phase_if_set(self.mask(q), 2),
            Gate::Sdg(q) => self.phase_if_set(self.mask(q), 6),
            Gate::T(q) => self.phase_if_set(self.mask(q), 1),
            Gate::Tdg(q) => self.phase_if_set(self.mask(q), 7),
            Gate::H(q) => self.superpose(self.mask(q), |v0, v1| {
                ((v0 + v1).div_sqrt2(), (v0 - v1).div_sqrt2())
            }),
            Gate::RxPi2(q) => self.superpose(self.mask(q), |v0, v1| {
                let minus_i = -&Algebraic::i();
                (
                    (v0 + &(v1 * &minus_i)).div_sqrt2(),
                    (&(v0 * &minus_i) + v1).div_sqrt2(),
                )
            }),
            Gate::RyPi2(q) => self.superpose(self.mask(q), |v0, v1| {
                ((v0 - v1).div_sqrt2(), (v0 + v1).div_sqrt2())
            }),
            Gate::Cnot { control, target } => self.flip(self.mask(target), self.mask(control)),
            Gate::Cz { control, target } => {
                self.phase_if_set(self.mask(control) | self.mask(target), 4)
            }
            Gate::Swap(a, b) => self.swap(self.mask(a), self.mask(b), 0),
            Gate::Toffoli { controls, target } => self.flip(
                self.mask(target),
                self.mask(controls[0]) | self.mask(controls[1]),
            ),
            Gate::Fredkin { control, targets } => self.swap(
                self.mask(targets[0]),
                self.mask(targets[1]),
                self.mask(control),
            ),
        }
        debug_assert!(self.invariants_hold());
    }

    /// Applies the exact inverse of one gate in place, as one gate:
    /// `S`↔`S†`, `T`↔`T†`, and `Rx(π/2)⁻¹`/`Ry(π/2)⁻¹` as one superposing
    /// step each (where [`Gate::dagger`] spells them as seven copies of the
    /// gate); every other gate is its own inverse.
    ///
    /// # Panics
    ///
    /// Panics if the gate refers to a qubit outside the state.
    pub fn apply_gate_inverse(&mut self, gate: &Gate) {
        match *gate {
            Gate::S(q) => self.apply_gate(&Gate::Sdg(q)),
            Gate::Sdg(q) => self.apply_gate(&Gate::S(q)),
            Gate::T(q) => self.apply_gate(&Gate::Tdg(q)),
            Gate::Tdg(q) => self.apply_gate(&Gate::T(q)),
            Gate::RxPi2(q) => {
                assert!(q < self.num_qubits, "gate qubit {q} out of range");
                self.superpose(self.mask(q), |v0, v1| {
                    let i = Algebraic::i();
                    ((v0 + &(v1 * &i)).div_sqrt2(), (&(v0 * &i) + v1).div_sqrt2())
                });
                debug_assert!(self.invariants_hold());
            }
            Gate::RyPi2(q) => {
                assert!(q < self.num_qubits, "gate qubit {q} out of range");
                self.superpose(self.mask(q), |v0, v1| {
                    ((v0 + v1).div_sqrt2(), (v1 - v0).div_sqrt2())
                });
                debug_assert!(self.invariants_hold());
            }
            _ => self.apply_gate(gate),
        }
    }

    /// Flips the `target` bit of every `|b⟩` that has all `controls` bits
    /// set (`controls` excludes `target`): amplitudes and the table stay.
    ///
    /// Flipping `target` moves an entry between the two runs of its block,
    /// and keeps its bits below `target` and its controls, so each new run
    /// is the merge of the old run's entries that do not fire with the
    /// other run's entries that do.
    fn flip(&mut self, target: u128, controls: u128) {
        let fires = |b: u128| b & controls == controls;
        let mut next = SparseState::empty(self.num_qubits, self.keys.len());
        let (keys, vals) = (&self.keys, &self.vals);
        let mut merge = |stay: Range<usize>, moved: Range<usize>| {
            let (mut i, mut j) = (stay.start, moved.start);
            loop {
                while i < stay.end && fires(keys[i]) {
                    i += 1;
                }
                while j < moved.end && !fires(keys[j]) {
                    j += 1;
                }
                let take_stay = match (i < stay.end, j < moved.end) {
                    (true, true) => keys[i] < keys[j] ^ target,
                    (true, false) => true,
                    (false, true) => false,
                    (false, false) => break,
                };
                if take_stay {
                    next.keys.push(keys[i]);
                    next.vals.push(vals[i]);
                    i += 1;
                } else {
                    next.keys.push(keys[j] ^ target);
                    next.vals.push(vals[j]);
                    j += 1;
                }
            }
        };
        for_each_block(keys, target, |clear, set| {
            merge(clear.clone(), set.clone());
            merge(set, clear);
        });
        self.keys = next.keys;
        self.vals = next.vals;
    }

    /// Exchanges the bits `a` and `b` of every `|x⟩` that has all
    /// `controls` bits set, as three conditional flips.
    fn swap(&mut self, a: u128, b: u128, controls: u128) {
        self.flip(b, a);
        self.flip(a, b | controls);
        self.flip(b, a);
    }

    /// Multiplies the amplitude of every `|b⟩` with all `mask` bits set by
    /// `ω^power`.
    fn phase_if_set(&mut self, mask: u128, power: u8) {
        self.phase([0, power], |b| usize::from(b & mask == mask));
    }

    /// Multiplies the amplitude of each `|b⟩` by `ω^powers[slot(b)]`,
    /// computing each `(slot, amplitude)` product once.
    fn phase(&mut self, powers: [u8; 2], slot: impl Fn(u128) -> usize) {
        let old = std::mem::take(&mut self.values);
        let mut table = Table::default();
        let mut memo = vec![UNSET; 2 * old.len()];
        for (&b, value) in self.keys.iter().zip(&mut self.vals) {
            let s = slot(b);
            let result = &mut memo[s * old.len() + *value as usize];
            if *result == UNSET {
                *result = table.intern(times_omega_pow(&old[*value as usize], powers[s]));
            }
            *value = *result;
        }
        self.values = table.into_values();
    }

    /// Applies a single-qubit gate on the bit `mask` that mixes `|b⟩` (bit
    /// clear) with `|b|mask⟩`: `f(v₀, v₁)` gives the pair's new amplitudes.
    /// Each block's two runs are merge-joined on the bits below `mask`, so
    /// each pair is visited once, and each distinct `(v₀, v₁)` is computed
    /// once.
    fn superpose(
        &mut self,
        mask: u128,
        f: impl Fn(&Algebraic, &Algebraic) -> (Algebraic, Algebraic),
    ) {
        let zero = Algebraic::zero();
        let old = std::mem::take(&mut self.values);
        let amp = |value: u32| {
            if value == ZERO {
                &zero
            } else {
                &old[value as usize]
            }
        };
        let mut table = Table::default();
        let mut memo: FixedMap<u64, (u32, u32)> = FixedMap::default();
        let mut next = SparseState::empty(self.num_qubits, self.keys.len());
        // The current block's outputs with the bit set, emitted after its
        // outputs with the bit clear.
        let mut set_run: Vec<(u128, u32)> = Vec::new();
        let (keys, vals) = (&self.keys, &self.vals);
        for_each_block(keys, mask, |clear, set| {
            let (mut i, mut j) = (clear.start, set.start);
            while i < clear.end || j < set.end {
                // `keys[j] ^ mask` is the partner of `keys[j]`, bit clear.
                let order = match (i < clear.end, j < set.end) {
                    (true, true) => keys[i].cmp(&(keys[j] ^ mask)),
                    (true, false) => Ordering::Less,
                    (false, _) => Ordering::Greater,
                };
                let (low, v0, v1) = match order {
                    Ordering::Less => (keys[i], vals[i], ZERO),
                    Ordering::Greater => (keys[j] ^ mask, ZERO, vals[j]),
                    Ordering::Equal => (keys[i], vals[i], vals[j]),
                };
                i += usize::from(order != Ordering::Greater);
                j += usize::from(order != Ordering::Less);
                let key = (u64::from(v0) << 32) | u64::from(v1);
                let (n0, n1) = *memo.entry(key).or_insert_with(|| {
                    let (a0, a1) = f(amp(v0), amp(v1));
                    (table.intern(a0), table.intern(a1))
                });
                if n0 != ZERO {
                    next.keys.push(low);
                    next.vals.push(n0);
                }
                if n1 != ZERO {
                    set_run.push((low | mask, n1));
                }
            }
            for (b, value) in set_run.drain(..) {
                next.keys.push(b);
                next.vals.push(value);
            }
        });
        self.keys = next.keys;
        self.vals = next.vals;
        self.values = table.into_values();
    }

    /// Whether the state is well formed: the basis indices are strictly
    /// ascending, each has one value, and the table holds distinct non-zero
    /// values, each used by some entry (which bounds the table by the
    /// support).
    fn invariants_hold(&self) -> bool {
        let mut used = vec![false; self.values.len()];
        for &value in &self.vals {
            match used.get_mut(value as usize) {
                Some(u) => *u = true,
                None => return false,
            }
        }
        let mut table = Table::default();
        self.keys.len() == self.vals.len()
            && self.keys.windows(2).all(|pair| pair[0] < pair[1])
            && used.into_iter().all(|u| u)
            && self
                .values
                .iter()
                .enumerate()
                .all(|(index, value)| table.intern(value.clone()) as usize == index)
    }

    /// Applies every gate of a circuit.
    ///
    /// Gates are applied in an *interference-friendly* order rather than
    /// strict program order: only gates acting on disjoint qubit sets are
    /// ever reordered, which commutes exactly, so the final state is
    /// identical to program-order application.  The scheduler greedily
    /// collapses superpositions (e.g. each qubit's `H … oracle … H` pattern
    /// in Bernstein–Vazirani) before branching further qubits, keeping the
    /// support polynomial on circuits whose program order would visit an
    /// exponential intermediate support.
    ///
    /// # Panics
    ///
    /// Panics if the circuit width exceeds the state width.
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        self.try_apply_circuit(circuit, usize::MAX);
    }

    /// Applies a circuit like [`SparseState::apply_circuit`] but gives up
    /// (returning `false`) as soon as the live support exceeds
    /// `max_support`, so callers probing a possibly-dense evolution — e.g.
    /// witness confirmation running a superposing circuit on a basis
    /// input — degrade gracefully instead of exhausting memory.
    ///
    /// On `false` the state is left mid-circuit and is not meaningful.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than the state.
    pub fn try_apply_circuit(&mut self, circuit: &Circuit, max_support: usize) -> bool {
        let order = interference_schedule(circuit);
        self.try_apply_gates(circuit, order.into_iter(), Self::apply_gate, max_support)
    }

    /// Applies the inverse of `circuit` — the state `U†|ψ⟩` — giving up
    /// (returning `false`) like [`SparseState::try_apply_circuit`] as soon
    /// as the live support exceeds `max_support`.
    ///
    /// The circuit's [`interference_schedule`] is walked backwards, each
    /// gate undone by [`SparseState::apply_gate_inverse`].  Pulling `U|b⟩`
    /// back this way visits exactly the intermediate states of the forward
    /// run from `|b⟩`, in reverse, so it costs one forward run and stays
    /// under `max_support` whenever that run does.  Applying
    /// `circuit.dagger()` gives the same state, but through the dagger's
    /// own schedule (which can pass much larger supports) and with every
    /// `Rx(π/2)`/`Ry(π/2)` spelled as seven gates.
    ///
    /// On `false` the state is left mid-circuit and is not meaningful.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than the state.
    ///
    /// ```
    /// use autoq_circuit::{Circuit, Gate};
    /// use autoq_simulator::SparseState;
    ///
    /// let circuit = Circuit::from_gates(2, [Gate::H(0), Gate::RxPi2(1), Gate::T(0)]).unwrap();
    /// let mut state = SparseState::run(&circuit, 0b10);
    /// assert!(state.try_apply_inverse(&circuit, usize::MAX));
    /// assert_eq!(state, SparseState::basis_state(2, 0b10));
    /// ```
    pub fn try_apply_inverse(&mut self, circuit: &Circuit, max_support: usize) -> bool {
        let order = interference_schedule(circuit);
        self.try_apply_gates(
            circuit,
            order.into_iter().rev(),
            Self::apply_gate_inverse,
            max_support,
        )
    }

    /// Applies `apply` to the gates of `circuit` in `order`, giving up as
    /// soon as the live support exceeds `max_support`.
    fn try_apply_gates(
        &mut self,
        circuit: &Circuit,
        order: impl Iterator<Item = usize>,
        apply: fn(&mut Self, &Gate),
        max_support: usize,
    ) -> bool {
        assert!(
            circuit.num_qubits() <= self.num_qubits,
            "circuit wider than the state"
        );
        let gates = circuit.gates();
        for index in order {
            apply(self, &gates[index]);
            if self.support_size() > max_support {
                return false;
            }
        }
        true
    }

    /// Convenience: simulates `circuit` on the basis state `|basis⟩`.
    pub fn run(circuit: &Circuit, basis: u128) -> SparseState {
        let mut state = SparseState::basis_state(circuit.num_qubits(), basis);
        state.apply_circuit(circuit);
        state
    }

    /// Decides exactly whether `a|basis⟩ ≠ b|basis⟩`, simulating only the
    /// gates where the two circuits differ.
    ///
    /// In program order the circuits are `S·M_a·P` and `S·M_b·P`, with `P`
    /// their longest common gate prefix and `S` their longest common suffix.
    /// `S` is unitary and the arithmetic is exact, so the outputs differ
    /// exactly when `M_a·P|basis⟩ ≠ M_b·P|basis⟩`: `P` runs once, each
    /// middle runs on a copy of its result, each under its own
    /// [`interference_schedule`], and the suffix never runs.  Circuits with
    /// no gate in common cost the two forward runs.
    ///
    /// Returns `None` as soon as the live support exceeds `max_support`.
    /// The state at the cut is a genuine intermediate state, and the
    /// suffix's interference never gets to shrink it, so a circuit that only
    /// collapses its superpositions after the cut (Bernstein–Vazirani with
    /// the difference inside its oracle) can overflow here where a full run
    /// would not.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ or `basis` is outside their range.
    ///
    /// ```
    /// use autoq_circuit::{Circuit, Gate};
    /// use autoq_simulator::SparseState;
    ///
    /// let original = Circuit::from_gates(2, [Gate::H(0), Gate::X(1)]).unwrap();
    /// let buggy = Circuit::from_gates(2, [Gate::H(0), Gate::Z(1), Gate::X(1)]).unwrap();
    /// // Z(1) acts as the identity while qubit 1 (the low bit) is |0⟩.
    /// assert_eq!(SparseState::circuits_differ_on(&original, &buggy, 0b00, usize::MAX), Some(false));
    /// assert_eq!(SparseState::circuits_differ_on(&original, &buggy, 0b01, usize::MAX), Some(true));
    /// ```
    pub fn circuits_differ_on(
        a: &Circuit,
        b: &Circuit,
        basis: u128,
        max_support: usize,
    ) -> Option<bool> {
        let n = a.num_qubits();
        assert_eq!(n, b.num_qubits(), "circuit width mismatch");
        let (gates_a, gates_b) = (a.gates(), b.gates());
        let prefix = common_run(gates_a.iter(), gates_b.iter());
        let (rest_a, rest_b) = (&gates_a[prefix..], &gates_b[prefix..]);
        let suffix = common_run(rest_a.iter().rev(), rest_b.iter().rev());
        let run = |state: &mut SparseState, gates: &[Gate]| {
            let circuit =
                Circuit::from_gates(n, gates.iter().copied()).expect("gates of a valid circuit");
            state.try_apply_circuit(&circuit, max_support)
        };
        let mut out_a = SparseState::basis_state(n, basis);
        if !run(&mut out_a, &gates_a[..prefix]) {
            return None;
        }
        let mut out_b = out_a.clone();
        (run(&mut out_a, &rest_a[..rest_a.len() - suffix])
            && run(&mut out_b, &rest_b[..rest_b.len() - suffix]))
        .then(|| out_a != out_b)
    }
}

/// States are equal when they have the same width and the same amplitude at
/// every basis index, however their tables are ordered.
impl PartialEq for SparseState {
    fn eq(&self, other: &Self) -> bool {
        self.num_qubits == other.num_qubits
            && self.keys == other.keys
            && self
                .vals
                .iter()
                .zip(&other.vals)
                .all(|(&ours, &theirs)| self.values[ours as usize] == other.values[theirs as usize])
    }
}

impl Eq for SparseState {}

impl fmt::Debug for SparseState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SparseState")
            .field("num_qubits", &self.num_qubits)
            .field("amplitudes", &self.to_amplitude_map())
            .finish()
    }
}

/// A table of distinct non-zero amplitudes under construction.
#[derive(Default)]
struct Table {
    index: FixedMap<Algebraic, u32>,
}

impl Table {
    /// The index of `amp` in the table ([`ZERO`] for zero), adding it if new.
    fn intern(&mut self, amp: Algebraic) -> u32 {
        if amp.is_zero() {
            return ZERO;
        }
        let next = u32::try_from(self.index.len()).expect("amplitude table overflow");
        assert!(next < UNSET, "amplitude table overflow");
        *self.index.entry(amp).or_insert(next)
    }

    /// The values, ordered by index.
    fn into_values(self) -> Vec<Algebraic> {
        let mut values = vec![Algebraic::zero(); self.index.len()];
        for (amp, index) in self.index {
            values[index as usize] = amp;
        }
        values
    }
}

/// `amp · ω^power` (negation for `power = 4`).
fn times_omega_pow(amp: &Algebraic, power: u8) -> Algebraic {
    match power {
        0 => amp.clone(),
        4 => -amp,
        _ => amp.mul_omega_pow(i64::from(power)),
    }
}

/// How many gates `a` and `b` have in common before they first differ.
fn common_run<'g>(a: impl Iterator<Item = &'g Gate>, b: impl Iterator<Item = &'g Gate>) -> usize {
    a.zip(b).take_while(|(x, y)| x == y).count()
}

/// Splits `keys` (strictly ascending) into blocks of equal bits above
/// `bit` and calls `f(clear, set)` with each block's run of positions with
/// `bit` clear and its run with `bit` set, either possibly empty.  Each run
/// is ordered by the bits below `bit`.
fn for_each_block(keys: &[u128], bit: u128, mut f: impl FnMut(Range<usize>, Range<usize>)) {
    // Written without `bit << 1`, which overflows for bit 127.
    let below = bit - 1;
    let above = !(bit | below);
    let mut start = 0;
    while start < keys.len() {
        let block = keys[start] & above;
        let mut split = start;
        while split < keys.len() && keys[split] & !below == block {
            split += 1;
        }
        let mut end = split;
        while end < keys.len() && keys[end] & above == block {
            end += 1;
        }
        f(start..split, split..end);
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseState;
    use autoq_circuit::generators::{random_circuit, RandomCircuitConfig};
    use rand::SeedableRng;

    #[test]
    fn sparse_matches_dense_on_random_circuits() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let config = RandomCircuitConfig::with_paper_ratio(6);
        for _ in 0..10 {
            let circuit = random_circuit(&config, &mut rng);
            let dense = DenseState::run(&circuit, 5);
            let sparse = SparseState::run(&circuit, 5);
            for (basis, amp) in dense.to_amplitude_map() {
                assert_eq!(sparse.amplitude(basis), amp, "mismatch at |{basis:b}⟩");
            }
            assert_eq!(dense.to_amplitude_map().len(), sparse.support_size());
        }
    }

    #[test]
    fn y_gate_phases_match_dense() {
        for basis in 0..2u128 {
            let mut dense = DenseState::basis_state(1, basis);
            let mut sparse = SparseState::basis_state(1, basis);
            dense.apply_gate(&Gate::Y(0));
            sparse.apply_gate(&Gate::Y(0));
            for b in 0..2u128 {
                assert_eq!(dense.amplitude(b), sparse.amplitude(b));
            }
        }
    }

    #[test]
    fn wide_reversible_circuit_keeps_single_support() {
        let circuit = autoq_circuit::generators::ripple_carry_adder(40); // 82 qubits
        let state = SparseState::run(&circuit, 0);
        assert_eq!(state.support_size(), 1);
        assert!((state.total_probability() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sixty_qubit_bernstein_vazirani() {
        let hidden: Vec<bool> = (0..60).map(|i| i % 3 == 0).collect();
        let circuit = autoq_circuit::generators::bernstein_vazirani(&hidden);
        let state = SparseState::run(&circuit, 0);
        assert_eq!(state.support_size(), 1);
        let expected = autoq_circuit::generators::bernstein_vazirani_expected_output(&hidden);
        assert_eq!(state.amplitude(expected), Algebraic::one());
    }

    #[test]
    fn schedule_is_a_valid_commuting_reorder() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let config = RandomCircuitConfig::with_paper_ratio(5);
        for _ in 0..5 {
            let circuit = random_circuit(&config, &mut rng);
            let order = interference_schedule(&circuit);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..circuit.gate_count()).collect::<Vec<_>>());
            // Gates sharing a qubit must keep their program order.
            let mut position = vec![0usize; circuit.gate_count()];
            for (pos, &index) in order.iter().enumerate() {
                position[index] = pos;
            }
            let gates = circuit.gates();
            for a in 0..gates.len() {
                let qubits_a = gates[a].qubits();
                for b in (a + 1)..gates.len() {
                    if gates[b].qubits().iter().any(|q| qubits_a.contains(q)) {
                        assert!(
                            position[a] < position[b],
                            "dependent gates {a} -> {b} were reordered"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn interference_cancels_amplitudes_exactly() {
        // H · Z · H |0⟩ = |1⟩: the |0⟩ branch must vanish exactly, not just approximately.
        let mut state = SparseState::basis_state(1, 0);
        state.apply_gate(&Gate::H(0));
        state.apply_gate(&Gate::Z(0));
        state.apply_gate(&Gate::H(0));
        assert_eq!(state.support_size(), 1);
        assert_eq!(state.amplitude(1), Algebraic::one());
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn from_amplitudes_rejects_a_repeated_basis_index() {
        SparseState::from_amplitudes(2, [(1, Algebraic::one()), (1, Algebraic::i())]);
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn from_amplitudes_rejects_a_repeated_basis_index_with_a_zero() {
        SparseState::from_amplitudes(2, [(1, Algebraic::one()), (1, Algebraic::zero())]);
    }

    #[test]
    #[should_panic(expected = "outside the 2-qubit space")]
    fn from_amplitudes_range_checks_zero_amplitudes() {
        SparseState::from_amplitudes(2, [(0, Algebraic::one()), (4, Algebraic::zero())]);
    }

    #[test]
    fn table_holds_each_distinct_amplitude_once() {
        // H⊗H⊗H|000⟩ has 8 entries but one amplitude, 2^(-3/2).
        let mut state = SparseState::basis_state(3, 0);
        for q in 0..3 {
            state.apply_gate(&Gate::H(q));
        }
        assert_eq!(state.support_size(), 8);
        assert_eq!(state.values.len(), 1);
        // Z on qubit 0 negates half of them: two distinct values.
        state.apply_gate(&Gate::Z(0));
        assert_eq!(state.values.len(), 2);
        // Dropping back to one entry drops the unused values too.
        for q in 0..3 {
            state.apply_gate(&Gate::H(q));
        }
        assert_eq!(state.support_size(), 1);
        assert_eq!(state.values, vec![Algebraic::one()]);
    }
}
