//! Persistence backends for the verdict cache.
//!
//! The store interface has two channels: the *snapshot* (the whole cache,
//! see [`VerdictCache`](crate::cache::VerdictCache)) and the *journal* (an
//! append-only sequence of checksummed per-verdict records written between
//! snapshots).  Recovery loads the snapshot, then replays the journal's
//! intact prefix — a torn tail from a crash mid-append is dropped, not
//! fatal.  Snapshots are *streamed* into the store
//! ([`VerdictStore::save_with`]), so saving never holds a second copy of
//! the cache, and read back piecewise through a [`SnapshotFile`] handle
//! ([`VerdictStore::open_snapshot`]): the cache keeps only the bodies
//! written since the last snapshot in memory and reads older ones from
//! it.  [`FileStore`] is the production backend with atomic
//! write-then-rename snapshots and an `O_APPEND` journal file; [`MemStore`]
//! backs restart tests without a filesystem; [`FailStore`] wraps another
//! store and corrupts traffic through it with a [`FaultPlan`], which is how
//! the tests prove a daemon facing a bad disk starts empty instead of
//! serving half a cache, and recomputes a verdict whose stored body reads
//! back wrong instead of serving it.

use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use crate::fault::FaultPlan;
use crate::lock;

/// Emits a snapshot's bytes into the sink a store hands it (see
/// [`VerdictStore::save_with`]).
pub type SnapshotWriter<'a> = dyn FnMut(&mut dyn Write) -> io::Result<()> + 'a;

/// A read handle on one saved snapshot.  It keeps reading the snapshot it
/// was opened on after a later save replaces that snapshot, so every
/// verdict body the cache points at it stays readable until the cache
/// points the body elsewhere.
pub trait SnapshotFile: Send + Sync {
    /// Reads the `len` bytes at `offset`; a short read is an error.
    fn read_at(&self, offset: u64, len: usize) -> io::Result<Vec<u8>>;
}

impl SnapshotFile for Vec<u8> {
    fn read_at(&self, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        usize::try_from(offset)
            .ok()
            .and_then(|start| self.get(start..start.checked_add(len)?))
            .map(<[u8]>::to_vec)
            .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))
    }
}

/// Snapshot + journal persistence for the verdict cache.
pub trait VerdictStore: Send + Sync {
    /// Loads the last saved snapshot, `None` if nothing was ever saved.
    fn load(&self) -> io::Result<Option<Vec<u8>>>;
    /// Opens the last saved snapshot for piecewise reads, `None` if
    /// nothing was ever saved.
    fn open_snapshot(&self) -> io::Result<Option<Arc<dyn SnapshotFile>>>;
    /// Replaces the saved snapshot with the bytes `write` emits into the
    /// store's sink.  A backend streams them to its medium; one that has
    /// to see the whole snapshot at once may buffer it.
    fn save_with(&self, write: &mut SnapshotWriter<'_>) -> io::Result<()>;
    /// Replaces the saved snapshot with `bytes`.
    fn save(&self, bytes: &[u8]) -> io::Result<()> {
        self.save_with(&mut |sink| sink.write_all(bytes))
    }
    /// Appends one record to the journal.
    fn append_journal(&self, record: &[u8]) -> io::Result<()>;
    /// Loads the whole journal; empty if nothing was ever appended.
    fn load_journal(&self) -> io::Result<Vec<u8>>;
    /// Truncates the journal (called right after a successful snapshot).
    fn clear_journal(&self) -> io::Result<()>;
}

/// File-backed store with atomic replace (stream to `<path>.tmp` through a
/// buffer, then rename).
pub struct FileStore {
    path: PathBuf,
}

impl FileStore {
    /// Persists to the given path (the journal rides next to it with a
    /// `.journal` extension).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FileStore { path: path.into() }
    }

    fn journal_path(&self) -> PathBuf {
        self.path.with_extension("journal")
    }
}

impl VerdictStore for FileStore {
    fn load(&self) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(&self.path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn open_snapshot(&self) -> io::Result<Option<Arc<dyn SnapshotFile>>> {
        match std::fs::File::open(&self.path) {
            Ok(file) => Ok(Some(Arc::new(OpenFile(Mutex::new(file))))),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn save_with(&self, write: &mut SnapshotWriter<'_>) -> io::Result<()> {
        let tmp = self.path.with_extension("tmp");
        let mut file = BufWriter::new(std::fs::File::create(&tmp)?);
        write(&mut file)?;
        file.into_inner().map_err(|e| e.into_error())?;
        std::fs::rename(&tmp, &self.path)
    }

    fn append_journal(&self, record: &[u8]) -> io::Result<()> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.journal_path())?;
        file.write_all(record)
    }

    fn load_journal(&self) -> io::Result<Vec<u8>> {
        match std::fs::read(self.journal_path()) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    fn clear_journal(&self) -> io::Result<()> {
        match std::fs::remove_file(self.journal_path()) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// A [`FileStore`] snapshot opened for reading: the open file keeps its
/// contents after a rename replaces the path.
struct OpenFile(Mutex<std::fs::File>);

impl SnapshotFile for OpenFile {
    fn read_at(&self, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let mut file = lock(&self.0);
        file.seek(SeekFrom::Start(offset))?;
        let mut bytes = vec![0; len];
        file.read_exact(&mut bytes)?;
        Ok(bytes)
    }
}

/// In-memory store for restart tests: survives a daemon "restart" because
/// the test holds the `Arc`.
#[derive(Default)]
pub struct MemStore {
    bytes: Mutex<Option<Arc<Vec<u8>>>>,
    journal: Mutex<Vec<u8>>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        MemStore::default()
    }

    /// The currently saved snapshot, if any.
    pub fn snapshot(&self) -> Option<Vec<u8>> {
        lock(&self.bytes).as_deref().cloned()
    }

    /// The current journal bytes (for tests inspecting growth).
    pub fn journal_bytes(&self) -> Vec<u8> {
        lock(&self.journal).clone()
    }

    /// Overwrites the journal wholesale — how the torn-tail tests plant a
    /// journal truncated at an arbitrary byte offset.
    pub fn set_journal(&self, bytes: Vec<u8>) {
        *lock(&self.journal) = bytes;
    }
}

impl VerdictStore for MemStore {
    fn load(&self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.snapshot())
    }

    fn open_snapshot(&self) -> io::Result<Option<Arc<dyn SnapshotFile>>> {
        Ok(lock(&self.bytes)
            .clone()
            .map(|bytes| bytes as Arc<dyn SnapshotFile>))
    }

    fn save_with(&self, write: &mut SnapshotWriter<'_>) -> io::Result<()> {
        let mut bytes = Vec::new();
        write(&mut bytes)?;
        *lock(&self.bytes) = Some(Arc::new(bytes));
        Ok(())
    }

    fn append_journal(&self, record: &[u8]) -> io::Result<()> {
        lock(&self.journal).extend_from_slice(record);
        Ok(())
    }

    fn load_journal(&self) -> io::Result<Vec<u8>> {
        Ok(lock(&self.journal).clone())
    }

    fn clear_journal(&self) -> io::Result<()> {
        lock(&self.journal).clear();
        Ok(())
    }
}

/// How a [`FailStore`] misbehaves.
#[derive(Clone, Copy, Debug)]
pub enum FailMode {
    /// `load` and `save` both fail with an I/O error.
    Unavailable,
    /// `save` succeeds but the stored bytes pass through a [`FaultPlan`]
    /// first (truncation / bit-flips), so the *next* load sees a corrupt
    /// snapshot.
    CorruptOnSave(FaultPlan),
    /// `load` corrupts the bytes on the way out; `save` stores faithfully.
    CorruptOnLoad(FaultPlan),
    /// `load` and `save` are faithful, but every read through a handle
    /// from `open_snapshot` passes through the plan at its file offsets: a
    /// disk going bad after start-up.
    CorruptReads(FaultPlan),
}

/// A store wrapper that injects disk-level faults.
pub struct FailStore<S> {
    inner: S,
    mode: FailMode,
}

impl<S: VerdictStore> FailStore<S> {
    /// Wraps `inner` with the given failure mode.
    pub fn new(inner: S, mode: FailMode) -> Self {
        FailStore { inner, mode }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: VerdictStore> VerdictStore for FailStore<S> {
    fn load(&self) -> io::Result<Option<Vec<u8>>> {
        match self.mode {
            FailMode::Unavailable => Err(io::Error::other("fault injection: store unavailable")),
            FailMode::CorruptOnLoad(plan) => Ok(self.inner.load()?.map(|bytes| plan.apply(&bytes))),
            FailMode::CorruptOnSave(_) | FailMode::CorruptReads(_) => self.inner.load(),
        }
    }

    fn open_snapshot(&self) -> io::Result<Option<Arc<dyn SnapshotFile>>> {
        match self.mode {
            FailMode::Unavailable => Err(io::Error::other("fault injection: store unavailable")),
            FailMode::CorruptReads(plan) => Ok(self
                .inner
                .open_snapshot()?
                .map(|inner| Arc::new(FaultyFile { inner, plan }) as Arc<dyn SnapshotFile>)),
            FailMode::CorruptOnSave(_) | FailMode::CorruptOnLoad(_) => self.inner.open_snapshot(),
        }
    }

    fn save_with(&self, write: &mut SnapshotWriter<'_>) -> io::Result<()> {
        match self.mode {
            FailMode::Unavailable => Err(io::Error::other("fault injection: store unavailable")),
            FailMode::CorruptOnSave(plan) => {
                let mut bytes = Vec::new();
                write(&mut bytes)?;
                self.inner.save(&plan.apply(&bytes))
            }
            FailMode::CorruptOnLoad(_) | FailMode::CorruptReads(_) => self.inner.save_with(write),
        }
    }

    fn append_journal(&self, record: &[u8]) -> io::Result<()> {
        match self.mode {
            FailMode::Unavailable => Err(io::Error::other("fault injection: store unavailable")),
            FailMode::CorruptOnSave(plan) => self.inner.append_journal(&plan.apply(record)),
            FailMode::CorruptOnLoad(_) | FailMode::CorruptReads(_) => {
                self.inner.append_journal(record)
            }
        }
    }

    fn load_journal(&self) -> io::Result<Vec<u8>> {
        match self.mode {
            FailMode::Unavailable => Err(io::Error::other("fault injection: store unavailable")),
            FailMode::CorruptOnLoad(plan) => Ok(plan.apply(&self.inner.load_journal()?)),
            FailMode::CorruptOnSave(_) | FailMode::CorruptReads(_) => self.inner.load_journal(),
        }
    }

    fn clear_journal(&self) -> io::Result<()> {
        match self.mode {
            FailMode::Unavailable => Err(io::Error::other("fault injection: store unavailable")),
            _ => self.inner.clear_journal(),
        }
    }
}

/// A snapshot handle whose reads pass through a [`FaultPlan`] at their
/// file offsets (see [`FailMode::CorruptReads`]).
struct FaultyFile {
    inner: Arc<dyn SnapshotFile>,
    plan: FaultPlan,
}

impl SnapshotFile for FaultyFile {
    fn read_at(&self, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let mut bytes = self.inner.read_at(offset, len)?;
        if let Some((at, mask)) = self.plan.corrupt {
            let at = (at as u64).checked_sub(offset);
            if let Some(byte) = at.and_then(|i| bytes.get_mut(i as usize)) {
                *byte ^= mask;
            }
        }
        if self
            .plan
            .truncate_at
            .is_some_and(|limit| (limit as u64) < offset + len as u64)
        {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "fault injection: snapshot truncated",
            ));
        }
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_handles_read_ranges_and_survive_replacement() {
        let dir = std::env::temp_dir().join(format!("autoq-open-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = FileStore::new(dir.join("cache.bin"));
        let mem = MemStore::new();
        for store in [&file as &dyn VerdictStore, &mem] {
            assert!(store.open_snapshot().unwrap().is_none());
            store.save(b"first snapshot").unwrap();
            let handle = store.open_snapshot().unwrap().unwrap();
            assert_eq!(handle.read_at(6, 4).unwrap(), b"snap");
            assert!(handle.read_at(10, 5).is_err(), "a short read is an error");
            // A later save replaces the snapshot; the handle keeps the old one.
            store.save(b"the second one").unwrap();
            assert_eq!(handle.read_at(0, 5).unwrap(), b"first");
            let latest = store.open_snapshot().unwrap().unwrap();
            assert_eq!(latest.read_at(4, 6).unwrap(), b"second");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_reads_fault_handles_only() {
        let store = FailStore::new(
            MemStore::new(),
            FailMode::CorruptReads(FaultPlan {
                truncate_at: Some(8),
                corrupt: Some((2, 0xff)),
            }),
        );
        store.save(b"abcdefghij").unwrap();
        assert_eq!(store.load().unwrap(), Some(b"abcdefghij".to_vec()));
        let handle = store.open_snapshot().unwrap().unwrap();
        assert_eq!(handle.read_at(1, 3).unwrap(), [b'b', b'c' ^ 0xff, b'd']);
        assert_eq!(handle.read_at(4, 4).unwrap(), b"efgh");
        assert!(handle.read_at(6, 3).is_err(), "reads past the cut fail");
    }

    #[test]
    fn mem_store_round_trips() {
        let store = MemStore::new();
        assert_eq!(store.load().unwrap(), None);
        store.save(b"snapshot").unwrap();
        assert_eq!(store.load().unwrap(), Some(b"snapshot".to_vec()));
    }

    #[test]
    fn mem_store_journal_appends_and_clears() {
        let store = MemStore::new();
        assert!(store.load_journal().unwrap().is_empty());
        store.append_journal(b"ab").unwrap();
        store.append_journal(b"cd").unwrap();
        assert_eq!(store.load_journal().unwrap(), b"abcd".to_vec());
        store.clear_journal().unwrap();
        assert!(store.load_journal().unwrap().is_empty());
    }

    #[test]
    fn file_store_journal_appends_and_clears() {
        let dir = std::env::temp_dir().join("autoq-daemon-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.bin");
        let store = FileStore::new(&path);
        store.clear_journal().unwrap();
        assert!(store.load_journal().unwrap().is_empty());
        store.append_journal(b"one").unwrap();
        store.append_journal(b"two").unwrap();
        assert_eq!(store.load_journal().unwrap(), b"onetwo".to_vec());
        store.clear_journal().unwrap();
        assert!(store.load_journal().unwrap().is_empty());
        // Clearing an already-absent journal is not an error.
        store.clear_journal().unwrap();
    }

    #[test]
    fn file_store_round_trips_and_replaces_atomically() {
        let dir = std::env::temp_dir().join("autoq-daemon-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.bin");
        let _ = std::fs::remove_file(&path);
        let store = FileStore::new(&path);
        assert_eq!(store.load().unwrap(), None);
        store.save(b"one").unwrap();
        store.save(b"two").unwrap();
        assert_eq!(store.load().unwrap(), Some(b"two".to_vec()));
        assert!(!path.with_extension("tmp").exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fail_store_corrupts_snapshots() {
        let store = FailStore::new(
            MemStore::new(),
            FailMode::CorruptOnSave(FaultPlan::truncate_at(2)),
        );
        store.save(b"snapshot").unwrap();
        assert_eq!(store.load().unwrap(), Some(b"sn".to_vec()));

        let store = FailStore::new(
            MemStore::new(),
            FailMode::CorruptOnLoad(FaultPlan::corrupt_at(0, 0xff)),
        );
        store.save(b"abc").unwrap();
        assert_eq!(store.load().unwrap(), Some(vec![b'a' ^ 0xff, b'b', b'c']));

        let store = FailStore::new(MemStore::new(), FailMode::Unavailable);
        assert!(store.save(b"x").is_err());
        assert!(store.load().is_err());
    }
}
