//! Node-persistent shared memory.
//!
//! The paper (§2.3) keeps checkpoints in Linux SHM (`shmget`) segments: a
//! segment outlives the process that created it, so after an MPI job aborts
//! the restarted job can re-attach to the checkpoints on every *healthy*
//! node. A powered-off node loses its memory, segments included.
//!
//! [`ShmStore`] models the per-node segment table. Segments are typed
//! ([`SegmentData::F64`] for matrix data, [`SegmentData::Bytes`] for
//! headers / serialized state) so application code works on `f64` slices
//! directly — the workspace *is* the checkpoint, per the self-checkpoint
//! design.
//!
//! Power-off ([`ShmStore::wipe`]) clears the table and hands every `F64`
//! payload to the cluster's [`BufferPool`], leaving an empty payload
//! behind for any stale handle: the dead node's memory becomes the next
//! spare's segments (which start all-zero all the same) instead of being
//! returned to the OS and page-faulted in again.

use crate::failure::Fault;
use crate::pool::BufferPool;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Contents of one shared-memory segment.
#[derive(Clone, Debug, PartialEq)]
pub enum SegmentData {
    /// Double-precision payload (matrix workspace, checkpoints, checksums).
    F64(Vec<f64>),
    /// Raw bytes (protocol headers, serialized iteration state).
    Bytes(Vec<u8>),
}

impl SegmentData {
    /// Size of the payload in bytes (what `shmget` would have reserved).
    pub fn size_bytes(&self) -> usize {
        match self {
            SegmentData::F64(v) => v.len() * std::mem::size_of::<f64>(),
            SegmentData::Bytes(v) => v.len(),
        }
    }

    /// Borrow as `f64` slice; panics if the segment holds bytes.
    pub fn as_f64(&self) -> &[f64] {
        self.try_as_f64().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Borrow as mutable `f64` slice; panics if the segment holds bytes.
    pub fn as_f64_mut(&mut self) -> &mut Vec<f64> {
        match self {
            SegmentData::F64(v) => v,
            SegmentData::Bytes(_) => panic!("segment holds bytes, not f64"),
        }
    }

    /// Borrow as byte slice; panics if the segment holds f64 data.
    pub fn as_bytes(&self) -> &[u8] {
        self.try_as_bytes().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Borrow as mutable byte vec; panics if the segment holds f64 data.
    pub fn as_bytes_mut(&mut self) -> &mut Vec<u8> {
        match self {
            SegmentData::Bytes(v) => v,
            SegmentData::F64(_) => panic!("segment holds f64, not bytes"),
        }
    }

    /// Borrow as `f64` slice, reporting a mistyped segment as a
    /// [`Fault`] instead of panicking (for the protocol hot path, where
    /// a wiped or mistyped segment must abort the job as an error value).
    pub fn try_as_f64(&self) -> Result<&[f64], Fault> {
        match self {
            SegmentData::F64(v) => Ok(v),
            SegmentData::Bytes(_) => Err(Fault::Protocol("segment holds bytes, not f64")),
        }
    }

    /// Fallible mutable counterpart of [`Self::try_as_f64`].
    pub fn try_as_f64_mut(&mut self) -> Result<&mut Vec<f64>, Fault> {
        match self {
            SegmentData::F64(v) => Ok(v),
            SegmentData::Bytes(_) => Err(Fault::Protocol("segment holds bytes, not f64")),
        }
    }

    /// Borrow as byte slice, reporting a mistyped segment as a [`Fault`].
    pub fn try_as_bytes(&self) -> Result<&[u8], Fault> {
        match self {
            SegmentData::Bytes(v) => Ok(v),
            SegmentData::F64(_) => Err(Fault::Protocol("segment holds f64, not bytes")),
        }
    }

    /// Fallible mutable counterpart of [`Self::try_as_bytes`].
    pub fn try_as_bytes_mut(&mut self) -> Result<&mut Vec<u8>, Fault> {
        match self {
            SegmentData::Bytes(v) => Ok(v),
            SegmentData::F64(_) => Err(Fault::Protocol("segment holds f64, not bytes")),
        }
    }
}

/// A handle to a shared segment. Cloning the handle shares the storage
/// (like re-attaching with `shmat`).
pub type ShmSegment = Arc<RwLock<SegmentData>>;

/// Per-node shared-memory table: name → segment.
///
/// Thread-safe; the map lock is only held to look up / insert handles, the
/// segment `RwLock` protects the payload.
///
/// A store can be *frozen* (fencing a suspect node): every subsequent
/// attach or create hands out a **detached copy** of the segment instead
/// of the shared handle, so a zombie's late writes land in private memory
/// that nothing else can ever read, and removes become no-ops. The real
/// table is preserved untouched as quarantined evidence until the node is
/// powered off; a fence is never lifted.
#[derive(Default)]
pub struct ShmStore {
    segments: Mutex<BTreeMap<String, ShmSegment>>,
    frozen: AtomicBool,
}

impl ShmStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// `shmget(key, IPC_CREAT)`: return the existing segment named `name`
    /// or create it by calling `init`. The boolean is `true` when the
    /// segment already existed (a restarted rank re-attaching).
    pub fn get_or_create(
        &self,
        name: &str,
        init: impl FnOnce() -> SegmentData,
    ) -> (ShmSegment, bool) {
        let mut map = self.segments.lock();
        if let Some(seg) = map.get(name) {
            if self.is_frozen() {
                // zombie re-attach: a private copy it can scribble on
                return (Arc::new(RwLock::new(seg.read().clone())), true);
            }
            (Arc::clone(seg), true)
        } else {
            let seg = Arc::new(RwLock::new(init()));
            if !self.is_frozen() {
                map.insert(name.to_string(), Arc::clone(&seg));
            }
            (seg, false)
        }
    }

    /// Attach to an existing segment, if present. On a frozen store the
    /// handle is a detached copy — writes through it are invisible.
    pub fn attach(&self, name: &str) -> Option<ShmSegment> {
        let map = self.segments.lock();
        let seg = map.get(name)?;
        if self.is_frozen() {
            return Some(Arc::new(RwLock::new(seg.read().clone())));
        }
        Some(Arc::clone(seg))
    }

    /// `shmctl(IPC_RMID)`: drop the segment from the table. Existing
    /// handles keep their data (like detached-but-mapped memory) but new
    /// attaches fail. No-op on a frozen store.
    pub fn remove(&self, name: &str) -> bool {
        if self.is_frozen() {
            return false;
        }
        self.segments.lock().remove(name).is_some()
    }

    /// Fence this node's memory: from now on every attach/create returns
    /// a detached private copy and removes are rejected, so no late write
    /// can reach the real segments. Idempotent.
    pub fn freeze(&self) {
        self.frozen.store(true, Ordering::SeqCst);
    }

    /// Is the store frozen?
    pub fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::SeqCst)
    }

    /// Number of segments currently in the table.
    pub fn len(&self) -> usize {
        self.segments.lock().len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.segments.lock().is_empty()
    }

    /// Total bytes held by all segments — the node's checkpoint memory
    /// footprint. Used to validate the paper's Table 1 memory accounting
    /// against live segment sizes.
    pub fn total_bytes(&self) -> usize {
        let map = self.segments.lock();
        map.values().map(|s| s.read().size_bytes()).sum()
    }

    /// Bytes held by segments whose name starts with `prefix`.
    pub fn bytes_with_prefix(&self, prefix: &str) -> usize {
        let map = self.segments.lock();
        map.iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, s)| s.read().size_bytes())
            .sum()
    }

    /// Names of all segments (sorted).
    pub fn names(&self) -> Vec<String> {
        self.segments.lock().keys().cloned().collect()
    }

    /// Power-off: drop the whole segment table, and best-effort take the
    /// payloads of segments nobody holds locked, `F64` ones into `pool`.
    /// The table clear is what matters semantically (no restarted rank
    /// can ever re-attach); taking the payloads additionally makes stale
    /// handles observe the data loss (an empty payload) and recycles the
    /// node's memory. It uses `try_write` so that a *dying* rank that
    /// still holds a guard on its own segment (e.g. mid-encode) cannot
    /// deadlock the power-off.
    pub fn wipe(&self, pool: &BufferPool) {
        let mut map = self.segments.lock();
        for seg in map.values() {
            if let Some(mut g) = seg.try_write() {
                match &mut *g {
                    SegmentData::F64(v) => pool.give(std::mem::take(v)),
                    SegmentData::Bytes(v) => *v = Vec::new(),
                }
            }
        }
        map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_then_reattach_preserves_data() {
        let store = ShmStore::new();
        let (seg, existed) = store.get_or_create("a", || SegmentData::F64(vec![1.0, 2.0]));
        assert!(!existed);
        seg.write().as_f64_mut()[0] = 9.0;
        drop(seg); // "process exits"
        let (seg2, existed2) = store.get_or_create("a", || panic!("must not re-init"));
        assert!(existed2);
        assert_eq!(seg2.read().as_f64()[0], 9.0);
    }

    #[test]
    fn attach_missing_returns_none() {
        let store = ShmStore::new();
        assert!(store.attach("nope").is_none());
    }

    #[test]
    fn remove_detaches_name_but_keeps_handles() {
        let store = ShmStore::new();
        let (seg, _) = store.get_or_create("x", || SegmentData::Bytes(vec![1, 2, 3]));
        assert!(store.remove("x"));
        assert!(!store.remove("x"));
        assert!(store.attach("x").is_none());
        // existing handle still works (detached mapping)
        assert_eq!(seg.read().as_bytes(), &[1, 2, 3]);
    }

    #[test]
    fn total_bytes_accounts_all_segments() {
        let store = ShmStore::new();
        store.get_or_create("m", || SegmentData::F64(vec![0.0; 10]));
        store.get_or_create("h", || SegmentData::Bytes(vec![0; 16]));
        assert_eq!(store.total_bytes(), 10 * 8 + 16);
        assert_eq!(store.bytes_with_prefix("m"), 80);
    }

    #[test]
    fn wipe_clears_even_held_handles() {
        let store = ShmStore::new();
        let (seg, _) = store.get_or_create("m", || SegmentData::F64(vec![1.0; 4]));
        store.wipe(&BufferPool::new());
        assert!(store.is_empty());
        assert!(
            seg.read().as_f64().is_empty(),
            "power-off must destroy data"
        );
    }

    #[test]
    #[should_panic(expected = "segment holds bytes")]
    fn typed_access_is_enforced() {
        let d = SegmentData::Bytes(vec![1]);
        d.as_f64();
    }

    #[test]
    fn fallible_typed_access_returns_fault() {
        let mut d = SegmentData::Bytes(vec![1]);
        assert_eq!(
            d.try_as_f64(),
            Err(Fault::Protocol("segment holds bytes, not f64"))
        );
        assert!(d.try_as_bytes().is_ok());
        assert!(d.try_as_bytes_mut().is_ok());
        let mut f = SegmentData::F64(vec![0.5]);
        assert!(f.try_as_f64_mut().is_ok());
        assert_eq!(
            f.try_as_bytes(),
            Err(Fault::Protocol("segment holds f64, not bytes"))
        );
    }

    #[test]
    fn frozen_store_detaches_writes_and_rejects_removes() {
        let store = ShmStore::new();
        let (real, _) = store.get_or_create("s", || SegmentData::Bytes(vec![7; 4]));
        store.freeze();
        assert!(store.is_frozen());
        // late attach sees the data but writes land in a private copy
        let zombie = store.attach("s").unwrap();
        zombie.write().as_bytes_mut()[0] = 99;
        assert_eq!(real.read().as_bytes(), &[7; 4], "real segment untouched");
        // late re-create likewise
        let (z2, existed) = store.get_or_create("s", || unreachable!());
        assert!(existed);
        z2.write().as_bytes_mut()[1] = 1;
        assert_eq!(real.read().as_bytes(), &[7; 4]);
        // a brand-new segment is never published
        store.get_or_create("new", || SegmentData::Bytes(vec![1]));
        assert!(store.attach("new").is_none());
        // and removes are refused
        assert!(!store.remove("s"));
        assert!(store.attach("s").is_some());
    }

    #[test]
    fn concurrent_get_or_create_returns_same_segment() {
        let store = Arc::new(ShmStore::new());
        let mut handles = vec![];
        for _ in 0..8 {
            let s = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                let (seg, _) = s.get_or_create("shared", || SegmentData::F64(vec![0.0; 8]));
                Arc::as_ptr(&seg) as usize
            }));
        }
        let ptrs: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(
            ptrs.windows(2).all(|w| w[0] == w[1]),
            "all attaches must share storage"
        );
    }
}
