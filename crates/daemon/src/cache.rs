//! The content-addressed verdict cache.
//!
//! Verdicts are keyed on the pair *(circuit digest, spec digest)*:
//!
//! * the **circuit digest** is [`autoq_circuit::digest::circuit_digest`]
//!   over the *parsed* gate list, so QASM sources that differ only in
//!   formatting, comments or register names hit the same entry;
//! * the **spec digest** hashes the canonical wire encodings of the pre-
//!   and post-conditions plus the mode and witness flag, so any semantic
//!   field change misses.
//!
//! The cache is a map from keys to encoded verdicts with two persistence
//! formats, both served through a [`VerdictStore`]:
//!
//! * the **snapshot** (magic `AQVC`) — the whole map in one blob, streamed
//!   to the store entry by entry, shard by shard, each shard in key order.
//!   A corrupt or truncated snapshot is *rejected as a whole*: the daemon
//!   then starts with an empty cache rather than trusting partial data.  Once a snapshot is
//!   saved, the cache drops the bodies it holds from memory and reads them
//!   back from the snapshot on demand (see [`VerdictCache`]).
//! * the **journal** (record tag `AQVJ` semantics) — an append-only
//!   sequence of length-prefixed, FNV-1a-checksummed single-entry records
//!   written after each fresh verdict, so persistence cost per verdict is
//!   O(entry), not O(cache).  Replay applies the journal's intact prefix
//!   and silently drops a torn tail — exactly what a crash mid-append
//!   leaves behind.

use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use autoq_circuit::digest::{chunks_digest, Digest};

use crate::lock;
use crate::proto::{JobRequest, SpecMode};
use crate::store::{SnapshotFile, VerdictStore};
use crate::wire::{Decoder, Encoder, WireError};

/// Snapshot magic: **A**uto**Q** **V**erdict **C**ache.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"AQVC";

/// Snapshot format version.  Version 2 writes one section per cache
/// shard, each a varint count and its entries sorted by key.
pub const SNAPSHOT_VERSION: u8 = 2;

/// Journal record framing: `[payload len: u32 LE][fnv1a32(payload): u32 LE]`
/// followed by the payload (one snapshot-format entry).
pub const JOURNAL_HEADER_LEN: usize = 8;

fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &byte in bytes {
        hash ^= u32::from(byte);
        hash = hash.wrapping_mul(16_777_619);
    }
    hash
}

/// A cache key: circuit digest + spec digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct VerdictKey {
    /// Digest of the parsed circuit.
    pub circuit: Digest,
    /// Digest of the canonical spec encoding (pre, post, mode, witness
    /// flag).
    pub spec: Digest,
}

/// Digest of everything about a job *except* the circuit: pre, post, mode
/// and the witness flag, over their canonical wire encodings.
///
/// `want_certificate` deliberately stays out of the digest: the verdict of
/// `{P} C {Q}` is the same either way, so certificate-requesting jobs share
/// their cache entry with plain ones.  [`VerdictCache::lookup`] handles the
/// one asymmetry (a plain entry cannot answer a certificate request).
pub fn spec_digest(job: &JobRequest) -> Digest {
    let pre = job.pre.canonical_bytes();
    let post = job.post.canonical_bytes();
    let mode: &[u8] = match job.mode {
        SpecMode::Equality => b"eq",
        SpecMode::Inclusion => b"incl",
    };
    let witness: &[u8] = if job.want_witness { b"w1" } else { b"w0" };
    chunks_digest("autoq-spec-v1", &[&pre, &post, mode, witness])
}

/// A cached verdict: the engine's answer with the witness already in its
/// serialised binary-DAG form, ready to be framed to any client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedVerdict {
    /// Whether the triple holds.
    pub holds: bool,
    /// Violation direction.
    pub reachable_but_forbidden: bool,
    /// Serialised witness ([`autoq_treeaut::format::tree_to_binary`]).
    pub witness: Option<Vec<u8>>,
    /// Serialised inclusion-certificate bundle
    /// ([`autoq_treeaut::format::certificates_to_binary`]), present when
    /// the verdict was computed for a certificate-requesting job.
    pub certificate: Option<Vec<u8>>,
}

/// Encodes one `(key, verdict)` entry — the unit shared by the snapshot
/// body and the journal payload: the key's two digests, then the
/// verdict's bytes ([`encode_verdict`]).
fn encode_entry(enc: &mut Encoder, key: &VerdictKey, verdict: &CachedVerdict) {
    encode_key(enc, key);
    encode_verdict(enc, verdict);
}

fn encode_key(enc: &mut Encoder, key: &VerdictKey) {
    enc.put_bytes(&key.circuit.0);
    enc.put_bytes(&key.spec.0);
}

/// Encodes the verdict part of an entry: flags, then the optional witness
/// and certificate.  The cache stores exactly these bytes per entry.
fn encode_verdict(enc: &mut Encoder, verdict: &CachedVerdict) {
    let mut flags = 0u8;
    if verdict.holds {
        flags |= 1;
    }
    if verdict.reachable_but_forbidden {
        flags |= 2;
    }
    if verdict.witness.is_some() {
        flags |= 4;
    }
    if verdict.certificate.is_some() {
        flags |= 8;
    }
    enc.put_u8(flags);
    if let Some(witness) = &verdict.witness {
        enc.put_bytes(witness);
    }
    if let Some(certificate) = &verdict.certificate {
        enc.put_bytes(certificate);
    }
}

/// Decodes one `(key, verdict)` entry (inverse of [`encode_entry`]).
fn decode_entry(dec: &mut Decoder<'_>) -> Result<(VerdictKey, CachedVerdict), WireError> {
    let key = decode_key(dec)?;
    Ok((key, decode_verdict(dec)?))
}

fn decode_key(dec: &mut Decoder<'_>) -> Result<VerdictKey, WireError> {
    let digest = |dec: &mut Decoder<'_>| -> Result<Digest, WireError> {
        let arr: [u8; 32] = dec
            .get_byte_slice()?
            .try_into()
            .map_err(|_| WireError::malformed(0, "digest must be 32 bytes"))?;
        Ok(Digest(arr))
    };
    let circuit = digest(dec)?;
    let spec = digest(dec)?;
    Ok(VerdictKey { circuit, spec })
}

/// The parts of one encoded verdict ([`encode_verdict`]), borrowed from
/// the buffer: flags, witness, certificate.
type VerdictParts<'a> = (u8, Option<&'a [u8]>, Option<&'a [u8]>);

fn verdict_parts<'a>(dec: &mut Decoder<'a>) -> Result<VerdictParts<'a>, WireError> {
    let flags = dec.get_u8()?;
    if flags & !0x0f != 0 {
        return Err(WireError::malformed(
            0,
            format!("unknown snapshot entry flags {flags:#04x}"),
        ));
    }
    let witness = if flags & 4 != 0 {
        Some(dec.get_byte_slice()?)
    } else {
        None
    };
    let certificate = if flags & 8 != 0 {
        Some(dec.get_byte_slice()?)
    } else {
        None
    };
    Ok((flags, witness, certificate))
}

/// Decodes the verdict part of an entry (inverse of [`encode_verdict`]).
fn decode_verdict(dec: &mut Decoder<'_>) -> Result<CachedVerdict, WireError> {
    let (flags, witness, certificate) = verdict_parts(dec)?;
    Ok(CachedVerdict {
        holds: flags & 1 != 0,
        reachable_but_forbidden: flags & 2 != 0,
        witness: witness.map(<[u8]>::to_vec),
        certificate: certificate.map(<[u8]>::to_vec),
    })
}

/// Frames one cache entry as a self-delimiting journal record:
/// length-prefixed and checksummed so replay can detect a torn tail.
pub fn journal_record(key: &VerdictKey, verdict: &CachedVerdict) -> Vec<u8> {
    let mut enc = Encoder::default();
    encode_entry(&mut enc, key, verdict);
    let payload = enc.finish();
    let mut record = Vec::with_capacity(JOURNAL_HEADER_LEN + payload.len());
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&fnv1a32(&payload).to_le_bytes());
    record.extend_from_slice(&payload);
    record
}

/// Number of independently locked cache shards.
///
/// Sixteen shards follow the amplitude interner's sharding: enough to keep
/// worker threads recording fresh verdicts from serialising on one global
/// lock, small enough that snapshotting stays a cheap gather.
const NUM_SHARDS: usize = 16;

/// Picks the shard for a key by hashing both digests, so the load spreads
/// even if one digest were ever constant across a workload.
fn shard_index(key: &VerdictKey) -> usize {
    let mut bytes = [0u8; 64];
    bytes[..32].copy_from_slice(&key.circuit.0);
    bytes[32..].copy_from_slice(&key.spec.0);
    fnv1a32(&bytes) as usize & (NUM_SHARDS - 1)
}

/// Where one verdict's encoded bytes ([`encode_verdict`]) live.
enum Body {
    /// Written since the last snapshot: the bytes themselves, exact size.
    Inline(Box<[u8]>),
    /// Older than the last snapshot: a range of that snapshot.
    Stored(StoredBody),
}

/// Where a snapshot holds one verdict body, with the checksum of the
/// bytes written there.
#[derive(Clone, Copy)]
struct BodyRange {
    offset: u64,
    len: u32,
    checksum: u32,
}

impl BodyRange {
    fn of(offset: usize, body: &[u8]) -> Self {
        BodyRange {
            offset: offset as u64,
            len: body.len() as u32,
            checksum: fnv1a32(body),
        }
    }
}

/// A verdict body in a snapshot file.
#[derive(Clone)]
struct StoredBody {
    file: Arc<dyn SnapshotFile>,
    range: BodyRange,
}

impl StoredBody {
    /// The body's bytes; `None` if the read fails or returns other bytes
    /// than were written.
    fn read(&self) -> Option<Vec<u8>> {
        let BodyRange {
            offset,
            len,
            checksum,
        } = self.range;
        let bytes = self.file.read_at(offset, len as usize).ok()?;
        (bytes.len() == len as usize && fnv1a32(&bytes) == checksum).then_some(bytes)
    }
}

struct Entry {
    /// Which insert wrote the entry, unique per insert: a snapshot records
    /// the stamps it wrote and moves out of memory only the entries that
    /// still carry one, so an entry replaced since keeps its newer body.
    stamp: u64,
    body: Body,
}

/// The verdict cache with hit/miss counters, sharded 16 ways so concurrent
/// workers rarely contend on a lock.
///
/// Each verdict is held as its encoded bytes (the tail of its journal
/// payload, after the key), in one of two places:
///
/// * *inline*, an exact-size allocation in memory, for every verdict
///   inserted since the last snapshot;
/// * *stored*, an `(offset, len)` range of the last snapshot (plus the
///   checksum of the bytes written there), for everything older.
///   [`VerdictCache::save_to`] moves the inline bodies there once the
///   store holds the snapshot, and a daemon recovering from a snapshot
///   indexes it instead of decoding every body
///   ([`VerdictCache::recover_snapshot`]).
///
/// So memory holds ~100 bytes per stored verdict instead of its ~570-byte
/// body, and a daemon that keeps answering fresh jobs stays flat between
/// snapshots.  A stored body that fails to read back, or reads back other
/// bytes than were written, is a miss: the job recomputes and its verdict
/// is inserted inline again.  Without a store nothing is ever snapshotted
/// and every body stays inline.
#[derive(Default)]
pub struct VerdictCache {
    shards: [Mutex<HashMap<VerdictKey, Entry>>; NUM_SHARDS],
    stamps: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl VerdictCache {
    /// An empty cache.
    pub fn new() -> Self {
        VerdictCache::default()
    }

    /// Looks up a verdict, counting a hit or a miss.
    ///
    /// A stored verdict without a certificate does not satisfy a job that
    /// wants one: that lookup counts as a miss so the job recomputes (and
    /// its richer verdict then overwrites the entry).  The reverse serve —
    /// a certificate-carrying entry answering a job that did not ask — is
    /// fine; the server strips the bundle from the framed reply.  A body
    /// that fails to read back from the snapshot is a miss too.
    pub fn lookup(&self, key: &VerdictKey, want_certificate: bool) -> Option<CachedVerdict> {
        let verdict = self
            .stamped_body(key)
            .and_then(|(_, body)| body)
            .and_then(|bytes| decode_verdict(&mut Decoder::new(&bytes)).ok());
        match verdict {
            Some(verdict) if !want_certificate || verdict.certificate.is_some() => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(verdict)
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// The stamp and encoded body of `key`, `None` if it is absent: an
    /// inline body is copied out under its shard's lock, a stored one is
    /// read back after the lock is released (`None` if that fails).
    fn stamped_body(&self, key: &VerdictKey) -> Option<(u64, Option<Vec<u8>>)> {
        let (stamp, stored) = {
            let shard = lock(&self.shards[shard_index(key)]);
            let entry = shard.get(key)?;
            match &entry.body {
                Body::Inline(bytes) => return Some((entry.stamp, Some(bytes.to_vec()))),
                Body::Stored(stored) => (entry.stamp, stored.clone()),
            }
        };
        Some((stamp, stored.read()))
    }

    /// Inserts (or overwrites) a verdict, inline.
    pub fn insert(&self, key: VerdictKey, verdict: CachedVerdict) {
        let mut enc = Encoder::default();
        encode_verdict(&mut enc, &verdict);
        self.insert_body(key, Body::Inline(enc.finish().into_boxed_slice()));
    }

    fn insert_body(&self, key: VerdictKey, body: Body) {
        let stamp = self.stamps.fetch_add(1, Ordering::Relaxed);
        lock(&self.shards[shard_index(&key)]).insert(key, Entry { stamp, body });
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| lock(shard).len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of cached verdicts whose body is held in memory, i.e. was
    /// inserted since the last snapshot.
    #[cfg(test)]
    fn inline_len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                lock(shard)
                    .values()
                    .filter(|entry| matches!(entry.body, Body::Inline(_)))
                    .count()
            })
            .sum()
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Streams the cache's binary snapshot into `out`, one entry at a time,
    /// so a snapshot never holds a second copy of the cache in memory, and
    /// records each entry's stamp with where its body went (24 bytes per
    /// entry, not the body).
    ///
    /// After the header come [`NUM_SHARDS`] sections, one per shard in
    /// shard order: its entry count, then its entries sorted by key.  A
    /// key's shard depends on the key alone, so equal caches snapshot to
    /// identical bytes, and only one shard's keys are held at a time.
    /// Each entry is copied out under its shard's lock (a stored body is
    /// read back after it) and written.  Only this method removes entries,
    /// so every collected key is still there when its turn comes (a
    /// concurrent overwrite just snapshots the newer verdict).  A stored
    /// body that fails to read back fails the snapshot and is forgotten,
    /// so the next snapshot goes through.
    fn write_snapshot(
        &self,
        out: &mut dyn Write,
        written: &mut Vec<(u64, BodyRange)>,
    ) -> io::Result<()> {
        written.reserve_exact(self.len());
        let mut enc = Encoder::default();
        for &byte in SNAPSHOT_MAGIC {
            enc.put_u8(byte);
        }
        enc.put_u8(SNAPSHOT_VERSION);
        let header = enc.finish();
        out.write_all(&header)?;
        let mut offset = header.len();
        let mut keys: Vec<VerdictKey> = Vec::new();
        for shard in &self.shards {
            keys.clear();
            keys.extend(lock(shard).keys().copied());
            keys.sort_unstable_by_key(|k| (k.circuit, k.spec));
            let mut enc = Encoder::default();
            enc.put_varint(keys.len() as u64);
            let count = enc.finish();
            out.write_all(&count)?;
            offset += count.len();
            for key in &keys {
                let (stamp, body) = self
                    .stamped_body(key)
                    .ok_or_else(|| io::Error::other("verdict cache entry vanished"))?;
                let Some(body) = body else {
                    self.forget(key, stamp);
                    return Err(io::Error::other("a stored verdict body did not read back"));
                };
                let mut enc = Encoder::default();
                encode_key(&mut enc, key);
                let mut entry = enc.finish();
                written.push((stamp, BodyRange::of(offset + entry.len(), &body)));
                entry.extend_from_slice(&body);
                out.write_all(&entry)?;
                offset += entry.len();
            }
        }
        Ok(())
    }

    /// Removes `key` unless an insert replaced it since `stamp`.
    fn forget(&self, key: &VerdictKey, stamp: u64) {
        let mut shard = lock(&self.shards[shard_index(key)]);
        if shard.get(key).is_some_and(|entry| entry.stamp == stamp) {
            shard.remove(key);
        }
    }

    /// Saves a snapshot into `store`; once the store holds it, every body
    /// the snapshot wrote is dropped from memory and read back from the
    /// snapshot on demand.  If the store cannot reopen the snapshot, the
    /// bodies stay where they were.
    ///
    /// # Errors
    ///
    /// The store's error if the save fails; the cache is then unchanged,
    /// except for a stored body that failed to read back, which is gone.
    pub fn save_to(&self, store: &dyn VerdictStore) -> io::Result<()> {
        let mut written = Vec::new();
        store.save_with(&mut |sink| {
            written.clear();
            self.write_snapshot(sink, &mut written)
        })?;
        if let Ok(Some(file)) = store.open_snapshot() {
            // Stamps are unique per insert, so an entry whose stamp the
            // snapshot wrote still holds the body it wrote.
            written.sort_unstable_by_key(|&(stamp, _)| stamp);
            for shard in &self.shards {
                for entry in lock(shard).values_mut() {
                    if let Ok(at) = written.binary_search_by_key(&entry.stamp, |&(stamp, _)| stamp)
                    {
                        entry.body = Body::Stored(StoredBody {
                            file: Arc::clone(&file),
                            range: written[at].1,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Serialises the cache into its binary snapshot format in memory
    /// (the bytes [`VerdictCache::save_to`] streams).  Writing into a `Vec`
    /// cannot fail; a stored body that fails to read back cuts the bytes
    /// short, so [`VerdictCache::from_snapshot`] rejects them.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        let _ = self.write_snapshot(&mut bytes, &mut Vec::new());
        bytes
    }

    /// Restores a cache from a snapshot, every body inline.
    ///
    /// # Errors
    ///
    /// Any structural problem — wrong magic, unknown version, truncation,
    /// trailing bytes — rejects the whole snapshot.
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self, WireError> {
        let cache = VerdictCache::new();
        for_each_snapshot_body(bytes, |key, range| {
            cache.insert_body(key, Body::Inline(bytes[range].into()));
        })?;
        Ok(cache)
    }

    /// Recovers a cache from `bytes`, the snapshot `store` last saved: the
    /// snapshot is checked like [`VerdictCache::from_snapshot`] does, but
    /// each body is only indexed, as a range of the snapshot read back
    /// through [`VerdictStore::open_snapshot`] on demand.  If the store
    /// cannot open the snapshot, the bodies are kept inline.
    ///
    /// # Errors
    ///
    /// As [`VerdictCache::from_snapshot`].
    pub fn recover_snapshot(bytes: &[u8], store: &dyn VerdictStore) -> Result<Self, WireError> {
        let Ok(Some(file)) = store.open_snapshot() else {
            return VerdictCache::from_snapshot(bytes);
        };
        let cache = VerdictCache::new();
        for_each_snapshot_body(bytes, |key, range| {
            let body = StoredBody {
                file: Arc::clone(&file),
                range: BodyRange::of(range.start, &bytes[range]),
            };
            cache.insert_body(key, Body::Stored(body));
        })?;
        Ok(cache)
    }

    /// Replays a journal on top of this cache, applying every intact
    /// record and returning how many were applied.
    ///
    /// The journal is an append-only crash artifact: a record whose length
    /// prefix overruns the buffer, whose checksum mismatches, or whose
    /// payload fails to decode marks the torn tail — it and everything
    /// after it are dropped without error.  Records *before* the tear are
    /// still applied, so a crash mid-append loses at most the entry being
    /// written.
    pub fn replay_journal(&self, journal: &[u8]) -> usize {
        let mut applied = 0;
        let mut rest = journal;
        while rest.len() >= JOURNAL_HEADER_LEN {
            let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
            let checksum = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
            let Some(payload) = rest[JOURNAL_HEADER_LEN..].get(..len) else {
                break; // torn tail: length overruns the journal
            };
            if fnv1a32(payload) != checksum {
                break; // torn or corrupt record
            }
            let mut dec = Decoder::new(payload);
            let Ok((key, verdict)) = decode_entry(&mut dec) else {
                break;
            };
            if dec.expect_end().is_err() {
                break;
            }
            self.insert(key, verdict);
            applied += 1;
            rest = &rest[JOURNAL_HEADER_LEN + len..];
        }
        applied
    }
}

/// Checks a whole snapshot and calls `each` with every entry's key and the
/// byte range of its verdict body, in snapshot order.
fn for_each_snapshot_body(
    bytes: &[u8],
    mut each: impl FnMut(VerdictKey, std::ops::Range<usize>),
) -> Result<(), WireError> {
    let mut dec = Decoder::new(bytes);
    for expected in SNAPSHOT_MAGIC {
        if dec.get_u8()? != *expected {
            return Err(WireError::malformed(0, "bad cache snapshot magic"));
        }
    }
    let version = dec.get_u8()?;
    if version != SNAPSHOT_VERSION {
        return Err(WireError::malformed(
            4,
            format!("unsupported cache snapshot version {version}"),
        ));
    }
    for _ in 0..NUM_SHARDS {
        let at = dec.position();
        let count = dec.get_varint()?;
        if count > dec.remaining() as u64 {
            return Err(WireError::malformed(at, "snapshot entry count too large"));
        }
        for _ in 0..count {
            let key = decode_key(&mut dec)?;
            let start = dec.position();
            verdict_parts(&mut dec)?;
            each(key, start..dec.position());
        }
    }
    dec.expect_end()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoq_circuit::digest::sha256;

    fn key(tag: u8) -> VerdictKey {
        VerdictKey {
            circuit: sha256(&[tag]),
            spec: sha256(&[tag, tag]),
        }
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let cache = VerdictCache::new();
        assert!(cache.lookup(&key(1), false).is_none());
        cache.insert(
            key(1),
            CachedVerdict {
                holds: true,
                reachable_but_forbidden: false,
                witness: None,
                certificate: None,
            },
        );
        assert!(cache.lookup(&key(1), false).is_some());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn certificate_requests_miss_plain_entries() {
        let cache = VerdictCache::new();
        cache.insert(
            key(1),
            CachedVerdict {
                holds: true,
                reachable_but_forbidden: false,
                witness: None,
                certificate: None,
            },
        );
        // A plain entry cannot answer a certificate request...
        assert!(cache.lookup(&key(1), true).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // ...but once the recomputed verdict (with its bundle) overwrites
        // the entry, both kinds of request hit.
        cache.insert(
            key(1),
            CachedVerdict {
                holds: true,
                reachable_but_forbidden: false,
                witness: None,
                certificate: Some(vec![0xAA, 0xBB]),
            },
        );
        assert!(cache.lookup(&key(1), true).is_some());
        assert!(cache.lookup(&key(1), false).is_some());
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
    }

    #[test]
    fn entries_spread_across_shards() {
        let cache = VerdictCache::new();
        for tag in 0..64 {
            cache.insert(
                key(tag),
                CachedVerdict {
                    holds: true,
                    reachable_but_forbidden: false,
                    witness: None,
                    certificate: None,
                },
            );
        }
        assert_eq!(cache.len(), 64);
        let populated = cache
            .shards
            .iter()
            .filter(|shard| !lock(shard).is_empty())
            .count();
        // 64 sha256-derived keys over 16 shards: all lookups still resolve
        // and more than one shard carries load.
        assert!(populated > 1, "all entries landed in one shard");
        for tag in 0..64 {
            assert!(cache.lookup(&key(tag), false).is_some());
        }
    }

    #[test]
    fn snapshot_round_trips_and_is_deterministic() {
        let cache = VerdictCache::new();
        cache.insert(
            key(1),
            CachedVerdict {
                holds: true,
                reachable_but_forbidden: false,
                witness: None,
                certificate: Some(vec![0xC0, 0xDE]),
            },
        );
        cache.insert(
            key(2),
            CachedVerdict {
                holds: false,
                reachable_but_forbidden: true,
                witness: Some(vec![1, 2, 3]),
                certificate: None,
            },
        );
        let snap = cache.to_snapshot();
        let restored = VerdictCache::from_snapshot(&snap).unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!(
            restored.lookup(&key(2), false).unwrap().witness,
            Some(vec![1, 2, 3])
        );
        assert_eq!(
            restored.lookup(&key(1), true).unwrap().certificate,
            Some(vec![0xC0, 0xDE])
        );
        assert_eq!(restored.to_snapshot(), snap);
    }

    #[test]
    fn streamed_snapshots_match_the_buffered_encoding() {
        use crate::store::{FileStore, MemStore, VerdictStore};

        let cache = VerdictCache::new();
        for tag in 0..40u8 {
            cache.insert(
                key(tag),
                CachedVerdict {
                    holds: tag % 3 == 0,
                    reachable_but_forbidden: tag % 3 == 1,
                    witness: (tag % 2 == 0).then(|| vec![tag; usize::from(tag)]),
                    certificate: (tag % 5 == 0).then(|| vec![!tag; 100]),
                },
            );
        }
        // The snapshot format spelled out by hand (every length below 128
        // is a one-byte varint): header, then per shard its count and, per
        // entry in key order, both digests, the flags and the optional
        // byte strings.
        let mut expected = b"AQVC\x02".to_vec();
        let mut shards = vec![Vec::new(); NUM_SHARDS];
        for tag in 0..40u8 {
            shards[shard_index(&key(tag))].push(tag);
        }
        for mut tags in shards {
            tags.sort_by_key(|&tag| (key(tag).circuit, key(tag).spec));
            expected.push(tags.len() as u8);
            for tag in tags {
                let k = key(tag);
                for digest in [k.circuit.0, k.spec.0] {
                    expected.push(32);
                    expected.extend_from_slice(&digest);
                }
                let witness = tag % 2 == 0;
                let certificate = tag % 5 == 0;
                let flags = u8::from(tag % 3 == 0)
                    | u8::from(tag % 3 == 1) << 1
                    | u8::from(witness) << 2
                    | u8::from(certificate) << 3;
                expected.push(flags);
                if witness {
                    expected.push(tag);
                    expected.extend(std::iter::repeat(tag).take(usize::from(tag)));
                }
                if certificate {
                    expected.push(100);
                    expected.extend_from_slice(&[!tag; 100]);
                }
            }
        }
        assert_eq!(cache.to_snapshot(), expected);

        let mem = MemStore::new();
        cache.save_to(&mem).unwrap();
        assert_eq!(mem.snapshot().unwrap(), expected);

        let dir = std::env::temp_dir().join(format!("autoq-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = FileStore::new(dir.join("cache.aqvc"));
        cache.save_to(&file).unwrap();
        assert_eq!(file.load().unwrap().unwrap(), expected);
        assert!(!dir.join("cache.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// 40 verdicts of every shape: holding or not, with and without a
    /// witness and a certificate.
    fn mixed_verdicts() -> Vec<(VerdictKey, CachedVerdict)> {
        (0..40u8)
            .map(|tag| {
                let verdict = CachedVerdict {
                    holds: tag % 3 == 0,
                    reachable_but_forbidden: tag % 3 == 1,
                    witness: (tag % 2 == 0).then(|| vec![tag; usize::from(tag)]),
                    certificate: (tag % 5 == 0).then(|| vec![!tag; 100]),
                };
                (key(tag), verdict)
            })
            .collect()
    }

    fn cache_of(verdicts: &[(VerdictKey, CachedVerdict)]) -> VerdictCache {
        let cache = VerdictCache::new();
        for (key, verdict) in verdicts {
            cache.insert(*key, verdict.clone());
        }
        cache
    }

    /// Every key answers exactly its verdict, certified or not.
    fn assert_answers(cache: &VerdictCache, verdicts: &[(VerdictKey, CachedVerdict)]) {
        for (key, verdict) in verdicts {
            assert_eq!(cache.lookup(key, false).as_ref(), Some(verdict));
            let certified = cache.lookup(key, true);
            if verdict.certificate.is_some() {
                assert_eq!(certified.as_ref(), Some(verdict));
            } else {
                assert_eq!(certified, None);
            }
        }
    }

    #[test]
    fn snapshots_move_every_body_out_of_memory() {
        use crate::store::{FileStore, MemStore, VerdictStore};

        let verdicts = mixed_verdicts();
        let (old, new) = verdicts.split_at(25);
        let dir = std::env::temp_dir().join(format!("autoq-bodies-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = FileStore::new(dir.join("cache.aqvc"));
        let mem = MemStore::new();
        for store in [&file as &dyn VerdictStore, &mem] {
            let cache = cache_of(old);
            assert_eq!(cache.inline_len(), 25);
            cache.save_to(store).unwrap();
            assert_eq!((cache.len(), cache.inline_len()), (25, 0));
            assert_answers(&cache, old);
            // New verdicts stay inline until the next snapshot, which
            // copies the stored bodies over and replaces the file they
            // were read from.
            for (key, verdict) in new {
                cache.insert(*key, verdict.clone());
            }
            assert_eq!(cache.inline_len(), 15);
            assert_answers(&cache, &verdicts);
            cache.save_to(store).unwrap();
            assert_eq!((cache.len(), cache.inline_len()), (40, 0));
            assert_answers(&cache, &verdicts);
            // The bytes match a cache that never left memory, and a
            // recovery indexes them without holding a body inline.
            let snapshot = store.load().unwrap().unwrap();
            assert_eq!(snapshot, cache_of(&verdicts).to_snapshot());
            assert_eq!(cache.to_snapshot(), snapshot);
            let recovered = VerdictCache::recover_snapshot(&snapshot, store).unwrap();
            assert_eq!((recovered.len(), recovered.inline_len()), (40, 0));
            assert_answers(&recovered, &verdicts);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_overwrite_during_a_snapshot_stays_inline() {
        use crate::store::{MemStore, SnapshotWriter, VerdictStore};

        /// A store that inserts a newer verdict for `key(3)` while a
        /// snapshot is being written, as a concurrent worker would.
        struct Interleaving<'a> {
            inner: MemStore,
            cache: &'a VerdictCache,
            newer: CachedVerdict,
        }
        impl VerdictStore for Interleaving<'_> {
            fn load(&self) -> io::Result<Option<Vec<u8>>> {
                self.inner.load()
            }
            fn open_snapshot(&self) -> io::Result<Option<Arc<dyn SnapshotFile>>> {
                self.inner.open_snapshot()
            }
            fn save_with(&self, write: &mut SnapshotWriter<'_>) -> io::Result<()> {
                self.inner.save_with(write)?;
                self.cache.insert(key(3), self.newer.clone());
                Ok(())
            }
            fn append_journal(&self, record: &[u8]) -> io::Result<()> {
                self.inner.append_journal(record)
            }
            fn load_journal(&self) -> io::Result<Vec<u8>> {
                self.inner.load_journal()
            }
            fn clear_journal(&self) -> io::Result<()> {
                self.inner.clear_journal()
            }
        }

        let mut verdicts = mixed_verdicts();
        let cache = cache_of(&verdicts);
        let newer = CachedVerdict {
            holds: true,
            reachable_but_forbidden: false,
            witness: None,
            certificate: Some(vec![7; 9]),
        };
        let store = Interleaving {
            inner: MemStore::new(),
            cache: &cache,
            newer: newer.clone(),
        };
        cache.save_to(&store).unwrap();
        assert_eq!(cache.inline_len(), 1, "only the overwritten entry");
        verdicts[3].1 = newer;
        assert_answers(&cache, &verdicts);
    }

    #[test]
    fn stored_bodies_that_read_back_wrong_are_misses() {
        use crate::fault::FaultPlan;
        use crate::store::{FailMode, FailStore, MemStore};

        let verdicts = mixed_verdicts();
        let snapshot = cache_of(&verdicts).to_snapshot();
        let mut bodies = Vec::new();
        for_each_snapshot_body(&snapshot, |_, range| bodies.push(range)).unwrap();
        for at in (0..snapshot.len()).step_by(7) {
            let corrupt = FaultPlan::corrupt_at(at, 0x5a);
            let truncate = FaultPlan::truncate_at(at);
            let hits_a_body = [
                (corrupt, bodies.iter().any(|body| body.contains(&at))),
                (truncate, bodies.iter().any(|body| body.end > at)),
            ];
            for (plan, hits_a_body) in hits_a_body {
                let store = FailStore::new(MemStore::new(), FailMode::CorruptReads(plan));
                let cache = cache_of(&verdicts);
                cache.save_to(&store).unwrap();
                let mut missed = 0;
                for (key, verdict) in &verdicts {
                    match cache.lookup(key, false) {
                        Some(served) => assert_eq!(&served, verdict, "{plan:?}"),
                        None => {
                            missed += 1;
                            // The recomputed verdict goes back inline.
                            cache.insert(*key, verdict.clone());
                        }
                    }
                }
                assert_eq!(missed > 0, hits_a_body, "{plan:?}");
                assert_answers(&cache, &verdicts);
                // A body that no longer reads back fails one snapshot and
                // is forgotten; the next snapshot goes through.
                if cache.save_to(&store).is_err() {
                    cache.save_to(&store).unwrap();
                }
            }
        }
    }

    #[test]
    fn journal_records_replay_in_order() {
        let cache = VerdictCache::new();
        let first = CachedVerdict {
            holds: true,
            reachable_but_forbidden: false,
            witness: None,
            certificate: None,
        };
        let second = CachedVerdict {
            holds: false,
            reachable_but_forbidden: true,
            witness: Some(vec![9, 8, 7]),
            certificate: Some(vec![6, 5]),
        };
        let mut journal = journal_record(&key(1), &first);
        journal.extend_from_slice(&journal_record(&key(2), &second));
        // A later record for the same key overwrites the earlier one.
        journal.extend_from_slice(&journal_record(&key(1), &second));
        assert_eq!(cache.replay_journal(&journal), 3);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(&key(1), false).unwrap(), second);
    }

    #[test]
    fn torn_journal_tails_replay_the_intact_prefix() {
        let verdict = CachedVerdict {
            holds: false,
            reachable_but_forbidden: true,
            witness: Some(vec![1, 2, 3, 4]),
            certificate: None,
        };
        let first = journal_record(&key(1), &verdict);
        let mut journal = first.clone();
        journal.extend_from_slice(&journal_record(&key(2), &verdict));
        for cut in 0..journal.len() {
            let cache = VerdictCache::new();
            let applied = cache.replay_journal(&journal[..cut]);
            let expect = if cut >= journal.len() {
                2
            } else if cut >= first.len() {
                1
            } else {
                0
            };
            assert_eq!(applied, expect, "cut {cut}");
            assert_eq!(cache.len(), expect, "cut {cut}");
        }
        // A bit-flip anywhere in the first record's payload drops both
        // records (replay stops at the corruption).
        for flip in JOURNAL_HEADER_LEN..first.len() {
            let mut bad = journal.clone();
            bad[flip] ^= 0x40;
            let cache = VerdictCache::new();
            assert_eq!(cache.replay_journal(&bad), 0, "flip {flip}");
        }
    }

    #[test]
    fn corrupt_snapshots_are_rejected_wholesale() {
        let cache = VerdictCache::new();
        cache.insert(
            key(7),
            CachedVerdict {
                holds: true,
                reachable_but_forbidden: false,
                witness: None,
                certificate: None,
            },
        );
        let snap = cache.to_snapshot();
        // Truncation at every prefix fails cleanly.
        for cut in 0..snap.len() {
            assert!(
                VerdictCache::from_snapshot(&snap[..cut]).is_err(),
                "cut {cut}"
            );
        }
        // Wrong magic.
        let mut bad = snap.clone();
        bad[0] ^= 0xff;
        assert!(VerdictCache::from_snapshot(&bad).is_err());
        // Trailing garbage.
        let mut long = snap;
        long.push(0);
        assert!(VerdictCache::from_snapshot(&long).is_err());
    }
}
