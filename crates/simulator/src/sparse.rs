//! Sparse state-vector simulation for wide but sparse states.

use std::collections::BTreeMap;
use std::fmt;

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

/// A sparse quantum state: a map from basis indices to non-zero amplitudes.
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
/// Circuit states hold few distinct amplitudes even when their support is
/// large (a 35-qubit witness with 262,144 non-zero entries holds 96), so
/// the state stores each distinct amplitude once: a hash map sends every
/// basis index to a `u32` index into a table of distinct non-zero
/// [`Algebraic`] values.  A gate computes its exact arithmetic once per
/// distinct input and memoises the result for the rest of that gate:
///
/// * permutation gates (`X`, `CNOT`, `SWAP`, Toffoli, Fredkin) rewrite keys
///   and leave the table alone;
/// * phase gates (`Z`, `S`, `S†`, `T`, `T†`, `CZ`, and `Y` before its bit
///   flip) compute each `(phase, amplitude)` product once;
/// * superposing gates (`H`, `Rx(π/2)`, `Ry(π/2)`) visit every `b`/`b|mask`
///   pair once and compute each `(amplitude₀, amplitude₁)` pair once.
///
/// **Memory bound.**  The memo lives for one gate, and the table is rebuilt
/// from the values the gate's output actually uses, so every table value
/// is used by some entry and the table is never larger than the support.
/// A T-heavy circuit whose amplitudes all differ therefore costs at most
/// one table value per entry, not an ever-growing table.
///
/// **Hasher.**  Basis indices are hashed by the workspace's fixed std-only
/// [`FixedHasher`](autoq_amplitude::hash::FixedHasher) instead of
/// `SipHash`: the keys are basis indices of circuits under test, not
/// adversarial input, and hashing dominates once the arithmetic is
/// memoised.  When confirmation still pulled the `random35` bug-hunt
/// witness (262,144 entries) back through the 207-gate dagger circuit, the
/// whole confirmation took 0.6 s with it and 4.0 s with `SipHash` on a
/// 2-core VM.
///
/// # Inverses
///
/// [`SparseState::apply_gate_inverse`] undoes any gate as one step, and
/// [`SparseState::try_apply_inverse`] pulls a state back through a circuit
/// by walking the circuit's forward schedule backwards.  Pulling `U|b⟩`
/// back that way passes exactly the forward run's intermediate states, so
/// it costs about what the forward run costs: random35's witness pulls
/// back in 0.12–0.15 s against 0.09–0.11 s for the forward run, where the
/// dagger circuit (each `Rx(π/2)`/`Ry(π/2)` spelled as seven gates, under
/// its own schedule) took ~0.8–0.9 s on the same 2-core VM.
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
    /// Basis index → index into `values` of its (non-zero) amplitude.
    entries: FixedMap<u128, u32>,
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
        let mut table = Table::default();
        let mut map = FixedMap::default();
        for (basis, amp) in entries {
            basis::assert_in_range(num_qubits, basis);
            let previous = map.insert(basis, table.intern(amp));
            assert!(previous.is_none(), "basis index {basis} repeated");
        }
        map.retain(|_, value| *value != ZERO);
        let state = SparseState {
            num_qubits,
            entries: map,
            values: table.into_values(),
        };
        debug_assert!(state.table_is_tight());
        state
    }

    /// Builds a sparse state from a (DAG-shared) witness tree produced by
    /// the automata framework, so AutoQ witnesses can be fed straight into
    /// the exact simulator for confirmation — the role SliQSim plays in the
    /// paper's evaluation.
    ///
    /// The conversion enumerates only the tree's non-zero amplitudes
    /// ([`Tree::for_each_nonzero`]), so a 35-qubit basis-state witness
    /// costs a handful of map entries, not `2^35` leaves.  Entries go
    /// straight into the state's map, and each distinct leaf amplitude is
    /// resolved from its interned id once: random35's 262,144-entry witness
    /// converts in ~0.04 s on a 2-core VM, where going through
    /// [`Tree::to_amplitude_map`] took ~0.2 s.
    ///
    /// # Panics
    ///
    /// Panics if the witness support exceeds
    /// [`SparseState::MAX_TREE_SUPPORT`] non-zero amplitudes (materialising
    /// it as a map would defeat the sparse representation); check
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
        let mut entries = FixedMap::with_capacity_and_hasher(support as usize, Default::default());
        // Interned ids are canonical, so distinct ids are distinct non-zero
        // values: each is resolved once and the table comes out tight.
        let mut slots: FixedMap<AmpId, u32> = FixedMap::default();
        let mut values = Vec::new();
        tree.for_each_nonzero(|basis, amp| {
            basis::assert_in_range(num_qubits, basis);
            let next = u32::try_from(values.len()).expect("amplitude table overflow");
            let value = *slots.entry(amp).or_insert_with(|| {
                values.push(intern::resolve(amp));
                next
            });
            let previous = entries.insert(basis, value);
            assert!(previous.is_none(), "basis index {basis} repeated");
        });
        let state = SparseState {
            num_qubits,
            entries,
            values,
        };
        debug_assert!(state.table_is_tight());
        state
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Number of non-zero amplitudes.
    pub fn support_size(&self) -> usize {
        self.entries.len()
    }

    /// The amplitude of `|basis⟩` (zero if absent).
    pub fn amplitude(&self, basis: u128) -> Algebraic {
        self.entries
            .get(&basis)
            .map_or_else(Algebraic::zero, |&value| {
                self.values[value as usize].clone()
            })
    }

    /// The non-zero amplitudes, ordered by basis index.
    pub fn to_amplitude_map(&self) -> BTreeMap<u128, Algebraic> {
        self.entries
            .iter()
            .map(|(&basis, &value)| (basis, self.values[value as usize].clone()))
            .collect()
    }

    /// Consumes the state and returns its non-zero amplitudes, ordered by
    /// basis index.  Each table value is moved into the last entry that
    /// uses it and cloned only for the others, so a state whose entries
    /// all differ clones nothing.
    pub fn into_amplitude_map(self) -> BTreeMap<u128, Algebraic> {
        let mut uses = vec![0u32; self.values.len()];
        for &value in self.entries.values() {
            uses[value as usize] += 1;
        }
        let mut values = self.values;
        self.entries
            .into_iter()
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
        self.entries
            .values()
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
            Gate::X(q) => {
                let mask = self.mask(q);
                self.permute(|b| b ^ mask);
            }
            Gate::Y(q) => {
                // |0⟩ → i|1⟩ and |1⟩ → −i|0⟩: the phase by the source bit,
                // then the flip.
                let mask = self.mask(q);
                self.phase([2, 6], |b| usize::from(b & mask != 0));
                self.permute(|b| b ^ mask);
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
            Gate::Cnot { control, target } => {
                let (c, t) = (self.mask(control), self.mask(target));
                self.permute(|b| if b & c != 0 { b ^ t } else { b });
            }
            Gate::Cz { control, target } => {
                self.phase_if_set(self.mask(control) | self.mask(target), 4)
            }
            Gate::Swap(a, b) => {
                let (ma, mb) = (self.mask(a), self.mask(b));
                self.permute(|x| swap_bits(x, ma, mb));
            }
            Gate::Toffoli { controls, target } => {
                let c = self.mask(controls[0]) | self.mask(controls[1]);
                let t = self.mask(target);
                self.permute(|b| if b & c == c { b ^ t } else { b });
            }
            Gate::Fredkin { control, targets } => {
                let c = self.mask(control);
                let (ma, mb) = (self.mask(targets[0]), self.mask(targets[1]));
                self.permute(|x| if x & c != 0 { swap_bits(x, ma, mb) } else { x });
            }
        }
        debug_assert!(self.table_is_tight());
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
                debug_assert!(self.table_is_tight());
            }
            Gate::RyPi2(q) => {
                assert!(q < self.num_qubits, "gate qubit {q} out of range");
                self.superpose(self.mask(q), |v0, v1| {
                    ((v0 + v1).div_sqrt2(), (v1 - v0).div_sqrt2())
                });
                debug_assert!(self.table_is_tight());
            }
            _ => self.apply_gate(gate),
        }
    }

    /// Sends each `|b⟩` to `|to(b)⟩` (`to` must be a bijection): keys are
    /// rewritten, amplitudes and the table stay.
    fn permute(&mut self, to: impl Fn(u128) -> u128) {
        let mut next = FixedMap::with_capacity_and_hasher(self.entries.len(), Default::default());
        next.extend(self.entries.drain().map(|(b, value)| (to(b), value)));
        self.entries = next;
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
        for (&b, value) in self.entries.iter_mut() {
            let s = slot(b);
            let result = &mut memo[s * old.len() + *value as usize];
            if *result == UNSET {
                *result = table.intern(times_omega_pow(&old[*value as usize], powers[s]));
            }
            *value = *result;
        }
        self.values = table.into_values();
    }

    /// Applies a single-qubit gate that mixes `|b⟩` (bit clear) with
    /// `|b|mask⟩`: `f(v₀, v₁)` gives the pair's new amplitudes.  Each pair
    /// is visited once and each distinct `(v₀, v₁)` is computed once.
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
        let mut next = FixedMap::with_capacity_and_hasher(self.entries.len(), Default::default());
        for (&b, &value) in &self.entries {
            let (low, v0, v1) = if b & mask == 0 {
                let partner = self.entries.get(&(b | mask)).copied();
                (b, value, partner.unwrap_or(ZERO))
            } else if self.entries.contains_key(&(b & !mask)) {
                // Visited from its partner.
                continue;
            } else {
                (b & !mask, ZERO, value)
            };
            let key = (u64::from(v0) << 32) | u64::from(v1);
            let (n0, n1) = *memo.entry(key).or_insert_with(|| {
                let (a0, a1) = f(amp(v0), amp(v1));
                (table.intern(a0), table.intern(a1))
            });
            if n0 != ZERO {
                next.insert(low, n0);
            }
            if n1 != ZERO {
                next.insert(low | mask, n1);
            }
        }
        self.entries = next;
        self.values = table.into_values();
    }

    /// Whether the table holds distinct non-zero values, each used by some
    /// entry — the invariant that bounds the table by the support.
    fn table_is_tight(&self) -> bool {
        let mut used = vec![false; self.values.len()];
        for &value in self.entries.values() {
            used[value as usize] = true;
        }
        let mut table = Table::default();
        used.into_iter().all(|u| u)
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
            && self.entries.len() == other.entries.len()
            && self.entries.iter().all(|(b, &value)| {
                other.entries.get(b).is_some_and(|&theirs| {
                    self.values[value as usize] == other.values[theirs as usize]
                })
            })
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

/// Exchanges the bits `a` and `b` (single-bit masks) of `x`.
fn swap_bits(x: u128, a: u128, b: u128) -> u128 {
    if (x & a != 0) == (x & b != 0) {
        x
    } else {
        x ^ (a | b)
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
