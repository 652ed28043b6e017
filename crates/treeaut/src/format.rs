//! Compact binary codecs for automata, witness trees and inclusion
//! certificates.
//!
//! Automata ([`to_binary`]/[`from_binary`]) and witness trees serialised
//! *as DAGs* ([`tree_to_binary`]/[`tree_from_binary`]): shared subtrees are
//! emitted once and referenced by index, so a 70-qubit basis witness costs
//! a few hundred bytes instead of 2⁷¹ positions.  The binary forms are what
//! the verification daemon persists in its verdict cache and streams over
//! the wire; decoding never panics on malformed input — every error is
//! reported as a [`BinaryFormatError`] with a byte offset.
//!
//! Since codec version 2 both binary forms carry a per-message **amplitude
//! table**: each distinct leaf amplitude is encoded once (in first-use
//! order) and leaf transitions / leaf nodes reference it by dense varint
//! index, so an automaton with thousands of leaves over a handful of
//! amplitudes pays for each bigint tuple exactly once.

use std::collections::HashMap;

use autoq_amplitude::{intern, resolve, Algebraic, AmpId};
use autoq_bigint::{BigInt, Sign};

use crate::certificate::{CertSet, InclusionCertificate, LeafJustification, StepJustification};
use crate::tree::TreeBuilder;
use crate::{InternalSymbol, StateId, Tag, Tree, TreeAutomaton};

/// Error produced when decoding the binary automaton/tree codec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BinaryFormatError {
    /// Byte offset at which decoding failed.
    pub offset: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for BinaryFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "binary format error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for BinaryFormatError {}

const AUTOMATON_MAGIC: [u8; 4] = *b"AQBA";
const TREE_MAGIC: [u8; 4] = *b"AQTD";
const CERTIFICATE_MAGIC: [u8; 4] = *b"AQIC";
// Version 2: leaf amplitudes moved out of the transition/node streams into
// a per-message deduplicated table (first-use order), referenced by dense
// varint index.  Process-local `AmpId`s are never written to the wire — the
// table indices are self-contained, so encodings are stable across
// processes and across restarts of the interner.
const BINARY_VERSION: u8 = 2;

fn put_varint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn put_bigint(buf: &mut Vec<u8>, value: &BigInt) {
    buf.push(match value.sign() {
        Sign::Zero => 0,
        Sign::Positive => 1,
        Sign::Negative => 2,
    });
    let bytes = value.magnitude_le_bytes();
    put_varint(buf, bytes.len() as u64);
    buf.extend_from_slice(&bytes);
}

fn put_algebraic(buf: &mut Vec<u8>, value: &Algebraic) {
    let (a, b, c, d, k) = value.components();
    for part in [a, b, c, d] {
        put_bigint(buf, part);
    }
    put_varint(buf, k);
}

/// Builds the per-message amplitude table: distinct amplitude ids in first-use
/// order plus the reverse map to their dense table indices.  The dense indices
/// are what goes on the wire — raw [`AmpId`]s are process-local and must never
/// be serialised.
fn amplitude_table(amps: impl Iterator<Item = AmpId>) -> (Vec<AmpId>, HashMap<AmpId, u64>) {
    let mut table: Vec<AmpId> = Vec::new();
    let mut index: HashMap<AmpId, u64> = HashMap::new();
    for amp in amps {
        index.entry(amp).or_insert_with(|| {
            table.push(amp);
            (table.len() - 1) as u64
        });
    }
    (table, index)
}

/// Decodes the amplitude table of a v2 message, interning each value.
fn get_amplitude_table(cursor: &mut Cursor<'_>) -> Result<Vec<AmpId>, BinaryFormatError> {
    // Minimum encoded amplitude: four (sign byte + length varint) bigints
    // plus the exponent varint = 9 bytes.
    let count = cursor.get_count(9)?;
    let mut table = Vec::with_capacity(count);
    for _ in 0..count {
        table.push(intern(&cursor.get_algebraic()?));
    }
    Ok(table)
}

/// A bounds-checked cursor over an untrusted byte buffer.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn error(&self, message: impl Into<String>) -> BinaryFormatError {
        BinaryFormatError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn get_u8(&mut self) -> Result<u8, BinaryFormatError> {
        let byte = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| self.error("unexpected end of input"))?;
        self.pos += 1;
        Ok(byte)
    }

    fn get_bytes(&mut self, len: usize) -> Result<&'a [u8], BinaryFormatError> {
        if self.remaining() < len {
            return Err(self.error(format!(
                "unexpected end of input (need {len} bytes, have {})",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    fn get_varint(&mut self) -> Result<u64, BinaryFormatError> {
        let mut value: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.get_u8()?;
            let bits = u64::from(byte & 0x7f);
            if shift == 63 && bits > 1 {
                return Err(self.error("varint overflows u64"));
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(self.error("varint longer than 10 bytes"))
    }

    /// A varint tag payload; tags are `u32`, so a wider one is rejected.
    fn get_tag(&mut self) -> Result<u32, BinaryFormatError> {
        let tag = self.get_varint()?;
        u32::try_from(tag).map_err(|_| self.error(format!("tag {tag} exceeds u32")))
    }

    /// A varint that is also claimed to *count* items each at least
    /// `min_item_bytes` long — rejected early when the remaining buffer
    /// cannot possibly hold that many, so hostile headers cannot trigger
    /// huge allocations.
    fn get_count(&mut self, min_item_bytes: usize) -> Result<usize, BinaryFormatError> {
        let count = self.get_varint()?;
        let limit = (self.remaining() / min_item_bytes.max(1)) as u64;
        if count > limit {
            return Err(self.error(format!(
                "count {count} exceeds what the remaining {} bytes can hold",
                self.remaining()
            )));
        }
        Ok(count as usize)
    }

    fn get_bigint(&mut self) -> Result<BigInt, BinaryFormatError> {
        let sign = match self.get_u8()? {
            0 => Sign::Zero,
            1 => Sign::Positive,
            2 => Sign::Negative,
            other => return Err(self.error(format!("invalid sign byte {other}"))),
        };
        let len = self.get_count(1)?;
        let bytes = self.get_bytes(len)?;
        if sign == Sign::Zero && bytes.iter().any(|&b| b != 0) {
            return Err(self.error("zero-signed integer with nonzero magnitude"));
        }
        Ok(BigInt::from_sign_magnitude_le_bytes(sign, bytes))
    }

    fn get_algebraic(&mut self) -> Result<Algebraic, BinaryFormatError> {
        let a = self.get_bigint()?;
        let b = self.get_bigint()?;
        let c = self.get_bigint()?;
        let d = self.get_bigint()?;
        let k = self.get_varint()?;
        Ok(Algebraic::new(a, b, c, d, k))
    }

    fn expect_magic(&mut self, magic: &[u8; 4], what: &str) -> Result<(), BinaryFormatError> {
        let start = self.pos;
        let found = self.get_bytes(4)?;
        if found != magic {
            return Err(BinaryFormatError {
                offset: start,
                message: format!("bad magic for {what} (expected {magic:?}, found {found:?})"),
            });
        }
        let version = self.get_u8()?;
        if version != BINARY_VERSION {
            return Err(self.error(format!(
                "unsupported {what} codec version {version} (this build reads {BINARY_VERSION})"
            )));
        }
        Ok(())
    }

    fn expect_end(&self) -> Result<(), BinaryFormatError> {
        if self.remaining() != 0 {
            return Err(self.error(format!("{} trailing bytes after value", self.remaining())));
        }
        Ok(())
    }
}

/// Serialises an automaton in the compact binary format.
///
/// ```
/// use autoq_treeaut::{format, Tree, TreeAutomaton};
/// let automaton = TreeAutomaton::from_tree(&Tree::basis_state(3, 0b101));
/// let bytes = format::to_binary(&automaton);
/// let parsed = format::from_binary(&bytes).unwrap();
/// assert_eq!(parsed, automaton);
/// ```
pub fn to_binary(automaton: &TreeAutomaton) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + 16 * automaton.transition_count());
    buf.extend_from_slice(&AUTOMATON_MAGIC);
    buf.push(BINARY_VERSION);
    put_varint(&mut buf, u64::from(automaton.num_vars));
    put_varint(&mut buf, u64::from(automaton.num_states));
    put_varint(&mut buf, automaton.roots.len() as u64);
    for root in &automaton.roots {
        put_varint(&mut buf, u64::from(root.raw()));
    }
    let (amp_table, amp_index) = amplitude_table(automaton.leaves.iter().map(|t| t.amp));
    put_varint(&mut buf, amp_table.len() as u64);
    for &amp in &amp_table {
        put_algebraic(&mut buf, &resolve(amp));
    }
    put_varint(&mut buf, automaton.leaves.len() as u64);
    for t in &automaton.leaves {
        put_varint(&mut buf, u64::from(t.parent.raw()));
        put_varint(&mut buf, amp_index[&t.amp]);
    }
    put_varint(&mut buf, automaton.internal.len() as u64);
    for t in &automaton.internal {
        put_varint(&mut buf, u64::from(t.parent.raw()));
        put_varint(&mut buf, u64::from(t.symbol.var));
        match t.symbol.tag {
            Tag::None => buf.push(0),
            Tag::Single(i) => {
                buf.push(1);
                put_varint(&mut buf, u64::from(i));
            }
            Tag::Pair(i, j) => {
                buf.push(2);
                put_varint(&mut buf, u64::from(i));
                put_varint(&mut buf, u64::from(j));
            }
        }
        put_varint(&mut buf, u64::from(t.left.raw()));
        put_varint(&mut buf, u64::from(t.right.raw()));
    }
    buf
}

/// Parses an automaton from the binary format.  Exact inverse of
/// [`to_binary`]: the decoded automaton is structurally *equal* to the
/// encoded one (states, roots and transition order all preserved), not
/// merely language-equivalent.
///
/// # Errors
///
/// Returns a [`BinaryFormatError`] with the offending byte offset; malformed
/// or hostile input never panics and never triggers oversized allocations.
pub fn from_binary(bytes: &[u8]) -> Result<TreeAutomaton, BinaryFormatError> {
    let mut cursor = Cursor::new(bytes);
    cursor.expect_magic(&AUTOMATON_MAGIC, "automaton")?;
    let num_vars =
        u32::try_from(cursor.get_varint()?).map_err(|_| cursor.error("num_vars exceeds u32"))?;
    let num_states =
        u32::try_from(cursor.get_varint()?).map_err(|_| cursor.error("num_states exceeds u32"))?;
    let mut automaton = TreeAutomaton::new(num_vars);
    automaton.num_states = num_states;
    let state = |cursor: &mut Cursor<'_>| -> Result<StateId, BinaryFormatError> {
        let raw = cursor.get_varint()?;
        if raw >= u64::from(num_states) {
            return Err(cursor.error(format!("state q{raw} out of range (< {num_states})")));
        }
        Ok(StateId::new(raw as u32))
    };
    let root_count = cursor.get_count(1)?;
    for _ in 0..root_count {
        let root = state(&mut cursor)?;
        automaton.roots.insert(root);
    }
    let amp_ids = get_amplitude_table(&mut cursor)?;
    // Minimum leaf transition: parent varint + table-index varint.
    let leaf_count = cursor.get_count(2)?;
    let mut leaf_values: HashMap<StateId, AmpId> = HashMap::with_capacity(leaf_count);
    for _ in 0..leaf_count {
        let parent = state(&mut cursor)?;
        let index = cursor.get_varint()? as usize;
        let amp = *amp_ids
            .get(index)
            .ok_or_else(|| cursor.error(format!("amplitude index {index} out of table")))?;
        if let Some(&existing) = leaf_values.get(&parent) {
            if existing != amp {
                return Err(cursor.error(format!("leaf parent q{parent} carries two values")));
            }
        }
        leaf_values.insert(parent, amp);
        automaton.leaves.push(crate::LeafTransition { parent, amp });
    }
    // Minimum internal transition: parent + var + tag kind + left + right,
    // one byte each when every varint fits seven bits.
    let internal_count = cursor.get_count(5)?;
    for _ in 0..internal_count {
        let parent = state(&mut cursor)?;
        let var = u32::try_from(cursor.get_varint()?)
            .map_err(|_| cursor.error("variable exceeds u32"))?;
        if var >= num_vars {
            return Err(cursor.error(format!("variable x{var} out of range (< {num_vars})")));
        }
        let tag = match cursor.get_u8()? {
            0 => Tag::None,
            1 => Tag::Single(cursor.get_tag()?),
            2 => Tag::Pair(cursor.get_tag()?, cursor.get_tag()?),
            other => return Err(cursor.error(format!("invalid tag kind {other}"))),
        };
        let left = state(&mut cursor)?;
        let right = state(&mut cursor)?;
        automaton.internal.push(crate::InternalTransition {
            parent,
            symbol: InternalSymbol::new(var).with_tag(tag),
            left,
            right,
        });
    }
    cursor.expect_end()?;
    automaton.validate().map_err(|message| BinaryFormatError {
        offset: bytes.len(),
        message,
    })?;
    Ok(automaton)
}

/// Serialises a tree **as a DAG**: each node is emitted once, in
/// children-first order, and referenced by index afterwards (a tree built
/// by a hash-consing constructor has one node per distinct subtree).  This
/// is the compact witness encoding streamed and persisted by the
/// verification daemon — a shared 70-qubit basis witness encodes in
/// O(qubits) bytes.
///
/// ```
/// use autoq_treeaut::{format, Tree};
/// let witness = Tree::basis_state(70, 1u128 << 69);
/// let bytes = format::tree_to_binary(&witness);
/// assert!(bytes.len() < 2_000);
/// let decoded = format::tree_from_binary(&bytes).unwrap();
/// assert_eq!(decoded, witness);
/// assert_eq!(decoded.node_count(), witness.node_count());
/// ```
pub fn tree_to_binary(tree: &Tree) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32 + 8 * tree.node_count());
    buf.extend_from_slice(&TREE_MAGIC);
    buf.push(BINARY_VERSION);
    put_varint(&mut buf, u64::from(tree.num_qubits()));
    // Children-first (postorder) emission over the DAG: `indices` maps a
    // node's address to its position in the emitted node list.
    let mut nodes: Vec<u8> = Vec::new();
    let mut indices: HashMap<usize, u64> = HashMap::new();
    let mut emitted: u64 = 0;
    let mut amp_table: Vec<AmpId> = Vec::new();
    let mut amp_index: HashMap<AmpId, u64> = HashMap::new();
    // Explicit two-phase stack so deeply shared chains do not recurse.
    enum Walk {
        Visit(Tree),
        Emit(Tree),
    }
    let mut stack = vec![Walk::Visit(tree.clone())];
    while let Some(step) = stack.pop() {
        match step {
            Walk::Visit(t) => {
                if indices.contains_key(&t.addr()) {
                    continue;
                }
                if let Some((_, left, right)) = t.as_node() {
                    stack.push(Walk::Emit(t));
                    stack.push(Walk::Visit(right));
                    stack.push(Walk::Visit(left));
                } else {
                    stack.push(Walk::Emit(t));
                }
            }
            Walk::Emit(t) => {
                if indices.contains_key(&t.addr()) {
                    continue;
                }
                match t.as_node() {
                    None => {
                        let amp = t.as_leaf_id().expect("leaf");
                        let table_index = *amp_index.entry(amp).or_insert_with(|| {
                            amp_table.push(amp);
                            (amp_table.len() - 1) as u64
                        });
                        nodes.push(0);
                        put_varint(&mut nodes, table_index);
                    }
                    Some((var, left, right)) => {
                        nodes.push(1);
                        put_varint(&mut nodes, u64::from(var));
                        put_varint(&mut nodes, indices[&left.addr()]);
                        put_varint(&mut nodes, indices[&right.addr()]);
                    }
                }
                indices.insert(t.addr(), emitted);
                emitted += 1;
            }
        }
    }
    put_varint(&mut buf, amp_table.len() as u64);
    for &amp in &amp_table {
        put_algebraic(&mut buf, &resolve(amp));
    }
    put_varint(&mut buf, emitted);
    buf.extend_from_slice(&nodes);
    buf
}

/// Parses a tree from the binary DAG format of [`tree_to_binary`].  The
/// decoder hash-conses the nodes it builds, so structurally equal subtrees
/// of the decoded tree are one shared node: decoding the encoding of a tree
/// `t` yields a tree equal to `t`, with `t`'s node count whenever `t` itself
/// has one node per distinct subtree.
///
/// # Errors
///
/// Returns a [`BinaryFormatError`] on malformed input, including trees that
/// are not well-formed (a node of variable `v` must have children of
/// variable `v + 1`, bottoming out in leaves below variable
/// `num_qubits − 1`).
pub fn tree_from_binary(bytes: &[u8]) -> Result<Tree, BinaryFormatError> {
    let mut cursor = Cursor::new(bytes);
    cursor.expect_magic(&TREE_MAGIC, "tree")?;
    let num_qubits =
        u32::try_from(cursor.get_varint()?).map_err(|_| cursor.error("num_qubits exceeds u32"))?;
    if num_qubits > crate::basis::MAX_QUBITS {
        return Err(cursor.error(format!(
            "num_qubits {num_qubits} exceeds the {}-qubit limit",
            crate::basis::MAX_QUBITS
        )));
    }
    let amp_ids = get_amplitude_table(&mut cursor)?;
    let node_count = cursor.get_count(2)?;
    if node_count == 0 {
        return Err(cursor.error("a tree encoding needs at least one node"));
    }
    let mut builder = TreeBuilder::default();
    let mut trees: Vec<Tree> = Vec::with_capacity(node_count);
    // `top[i]` is the variable of node `i`, or `num_qubits` for leaves —
    // checking children are exactly one layer below guarantees the decoded
    // tree is well-formed without a quadratic post-hoc walk.
    let mut top: Vec<u32> = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        match cursor.get_u8()? {
            0 => {
                let index = cursor.get_varint()? as usize;
                let amp = *amp_ids
                    .get(index)
                    .ok_or_else(|| cursor.error(format!("amplitude index {index} out of table")))?;
                trees.push(builder.leaf(amp));
                top.push(num_qubits);
            }
            1 => {
                let var = u32::try_from(cursor.get_varint()?)
                    .map_err(|_| cursor.error("variable exceeds u32"))?;
                if var >= num_qubits {
                    return Err(
                        cursor.error(format!("variable x{var} out of range (< {num_qubits})"))
                    );
                }
                let child = |cursor: &mut Cursor<'_>| -> Result<usize, BinaryFormatError> {
                    let index = cursor.get_varint()? as usize;
                    if index >= trees.len() {
                        return Err(cursor.error(format!(
                            "child index {index} refers to a node not yet emitted"
                        )));
                    }
                    if top[index] != var + 1 {
                        return Err(cursor.error(format!(
                            "child of x{var} must start at x{} (found {})",
                            var + 1,
                            if top[index] == num_qubits {
                                "a leaf".to_string()
                            } else {
                                format!("x{}", top[index])
                            }
                        )));
                    }
                    Ok(index)
                };
                let left = child(&mut cursor)?;
                let right = child(&mut cursor)?;
                let node = builder.node(var, &trees[left], &trees[right]);
                trees.push(node);
                top.push(var);
            }
            other => return Err(cursor.error(format!("invalid node kind {other}"))),
        }
    }
    cursor.expect_end()?;
    let root = trees.pop().expect("node_count >= 1");
    let expected_top = if num_qubits == 0 { num_qubits } else { 0 };
    if top[top.len() - 1] != expected_top {
        return Err(BinaryFormatError {
            offset: bytes.len(),
            message: format!(
                "root must be {}",
                if num_qubits == 0 { "a leaf" } else { "x0" }
            ),
        });
    }
    Ok(root)
}

/// Serialises a bundle of inclusion certificates to the `AQIC` binary
/// format.
///
/// A bundle holds the certificates backing one verdict: one certificate for
/// an inclusion spec, two (in the order `[out ⊆ post, post ⊆ out]`) for an
/// equality spec.  Certificates reference automaton states and transition
/// indices only — no amplitude table is needed, since leaf justifications
/// point at `A`-leaf positions and the checker resolves values itself.
///
/// Layout after the 5-byte header (`"AQIC"` + version): a certificate count
/// varint, then per certificate the `A`-state count, the sets (state, size,
/// strictly increasing state ids), the leaf justifications (leaf index, set
/// index) and the step justifications (transition, left/right/result set
/// indices, then exactly one `(left, right)` witness pair per state of the
/// result set — the length is derived, never stored).
///
/// ```
/// use autoq_treeaut::format::{certificates_from_binary, certificates_to_binary};
/// use autoq_treeaut::{inclusion_with_certificate, CertifiedInclusionResult, Tree, TreeAutomaton};
///
/// let a = TreeAutomaton::from_tree(&Tree::basis_state(2, 1));
/// let b = TreeAutomaton::from_trees(2, &[Tree::basis_state(2, 0), Tree::basis_state(2, 1)]);
/// let CertifiedInclusionResult::Included(cert) = inclusion_with_certificate(&a, &b).unwrap()
/// else {
///     unreachable!()
/// };
/// let bytes = certificates_to_binary(std::slice::from_ref(&cert));
/// assert_eq!(certificates_from_binary(&bytes).unwrap(), vec![cert]);
/// ```
pub fn certificates_to_binary(certs: &[InclusionCertificate]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&CERTIFICATE_MAGIC);
    buf.push(BINARY_VERSION);
    put_varint(&mut buf, certs.len() as u64);
    for cert in certs {
        put_varint(&mut buf, u64::from(cert.num_a_states));
        put_varint(&mut buf, cert.sets.len() as u64);
        for set in &cert.sets {
            put_varint(&mut buf, u64::from(set.a_state.raw()));
            put_varint(&mut buf, set.b_states.len() as u64);
            for state in &set.b_states {
                put_varint(&mut buf, u64::from(state.raw()));
            }
        }
        put_varint(&mut buf, cert.leaf_just.len() as u64);
        for just in &cert.leaf_just {
            put_varint(&mut buf, u64::from(just.leaf));
            put_varint(&mut buf, u64::from(just.set));
        }
        put_varint(&mut buf, cert.step_just.len() as u64);
        for just in &cert.step_just {
            put_varint(&mut buf, u64::from(just.transition));
            put_varint(&mut buf, u64::from(just.left_set));
            put_varint(&mut buf, u64::from(just.right_set));
            put_varint(&mut buf, u64::from(just.result_set));
            for (left, right) in &just.witnesses {
                put_varint(&mut buf, u64::from(left.raw()));
                put_varint(&mut buf, u64::from(right.raw()));
            }
        }
    }
    buf
}

/// Decodes an `AQIC` certificate bundle.
///
/// Only *self*-consistency is validated here (set indices in range, set
/// states within `num_a_states`, `b_states` strictly increasing, witness
/// counts matching their result sets, no trailing bytes); the semantic
/// conditions against a concrete automaton pair are the `autoq-certify`
/// checker's job.  Inputs are untrusted: malformed bytes produce a
/// [`BinaryFormatError`], never a panic.
pub fn certificates_from_binary(
    bytes: &[u8],
) -> Result<Vec<InclusionCertificate>, BinaryFormatError> {
    let mut cursor = Cursor::new(bytes);
    cursor.expect_magic(&CERTIFICATE_MAGIC, "certificate bundle")?;
    let cert_count = cursor.get_count(3)?;
    let mut certs = Vec::with_capacity(cert_count);
    for _ in 0..cert_count {
        let num_a_states = u32::try_from(cursor.get_varint()?)
            .map_err(|_| cursor.error("num_a_states exceeds u32"))?;
        let get_u32 = |cursor: &mut Cursor<'_>, what: &str| -> Result<u32, BinaryFormatError> {
            u32::try_from(cursor.get_varint()?)
                .map_err(|_| cursor.error(format!("{what} exceeds u32")))
        };
        let set_count = cursor.get_count(2)?;
        let mut sets = Vec::with_capacity(set_count);
        for _ in 0..set_count {
            let a_state = get_u32(&mut cursor, "set state")?;
            if a_state >= num_a_states {
                return Err(cursor.error(format!(
                    "set state {a_state} out of range (< {num_a_states})"
                )));
            }
            let state_count = cursor.get_count(1)?;
            let mut b_states: Vec<StateId> = Vec::with_capacity(state_count);
            for _ in 0..state_count {
                let state = StateId::new(get_u32(&mut cursor, "set member")?);
                if b_states.last().is_some_and(|last| *last >= state) {
                    return Err(cursor.error("set members must be strictly increasing"));
                }
                b_states.push(state);
            }
            sets.push(CertSet {
                a_state: StateId::new(a_state),
                b_states,
            });
        }
        let check_set_index =
            |cursor: &Cursor<'_>, index: u32, what: &str| -> Result<(), BinaryFormatError> {
                if index as usize >= set_count {
                    return Err(
                        cursor.error(format!("{what} {index} out of range (< {set_count} sets)"))
                    );
                }
                Ok(())
            };
        let leaf_count = cursor.get_count(2)?;
        let mut leaf_just = Vec::with_capacity(leaf_count);
        for _ in 0..leaf_count {
            let leaf = get_u32(&mut cursor, "leaf index")?;
            let set = get_u32(&mut cursor, "leaf set")?;
            check_set_index(&cursor, set, "leaf set")?;
            leaf_just.push(LeafJustification { leaf, set });
        }
        let step_count = cursor.get_count(4)?;
        let mut step_just = Vec::with_capacity(step_count);
        for _ in 0..step_count {
            let transition = get_u32(&mut cursor, "transition index")?;
            let left_set = get_u32(&mut cursor, "left set")?;
            let right_set = get_u32(&mut cursor, "right set")?;
            let result_set = get_u32(&mut cursor, "result set")?;
            check_set_index(&cursor, left_set, "left set")?;
            check_set_index(&cursor, right_set, "right set")?;
            check_set_index(&cursor, result_set, "result set")?;
            // The witness count is derived from the result set, so a
            // mutated count cannot desynchronise witnesses from states.
            let witness_count = sets[result_set as usize].b_states.len();
            let mut witnesses = Vec::with_capacity(witness_count);
            for _ in 0..witness_count {
                let left = StateId::new(get_u32(&mut cursor, "witness left")?);
                let right = StateId::new(get_u32(&mut cursor, "witness right")?);
                witnesses.push((left, right));
            }
            step_just.push(StepJustification {
                transition,
                left_set,
                right_set,
                result_set,
                witnesses,
            });
        }
        certs.push(InclusionCertificate {
            num_a_states,
            sets,
            leaf_just,
            step_just,
        });
    }
    cursor.expect_end()?;
    Ok(certs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(automaton: &TreeAutomaton) -> TreeAutomaton {
        from_binary(&to_binary(automaton)).unwrap()
    }

    #[test]
    fn round_trip_preserves_the_language() {
        let trees = vec![
            Tree::from_fn(3, |b| {
                if b % 2 == 0 {
                    Algebraic::one_over_sqrt2()
                } else {
                    Algebraic::zero()
                }
            }),
            Tree::basis_state(3, 5),
        ];
        let automaton = TreeAutomaton::from_trees(3, &trees);
        assert_eq!(round_trip(&automaton), automaton);
    }

    #[test]
    fn tagged_automata_round_trip() {
        let mut automaton = TreeAutomaton::from_tree(&Tree::basis_state(2, 1));
        for (i, t) in automaton.internal.iter_mut().enumerate() {
            t.symbol = t.symbol.with_tag(Tag::Single(i as u32 + 1));
        }
        let parsed = round_trip(&automaton);
        assert!(parsed.is_tagged());
        assert_eq!(parsed, automaton);
    }

    #[test]
    fn negative_and_large_coefficients_survive() {
        let amp = Algebraic::from_components(-3, 141, -59, 26, 5);
        let mut automaton = TreeAutomaton::new(1);
        let leaf = automaton.leaf_state(&amp);
        let zero = automaton.leaf_state(&Algebraic::zero());
        let root = automaton.add_state();
        automaton.add_root(root);
        automaton.add_internal(root, InternalSymbol::new(0), zero, leaf);
        assert_eq!(round_trip(&automaton), automaton);
    }
}
