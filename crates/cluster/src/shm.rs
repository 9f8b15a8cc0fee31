//! Node-persistent shared memory.
//!
//! The paper (§2.3) keeps checkpoints in Linux SHM (`shmget`) segments: a
//! segment outlives the process that created it, so after an MPI job aborts
//! the restarted job can re-attach to the checkpoints on every *healthy*
//! node. A powered-off node loses its memory, segments included.
//!
//! [`ShmStore`] models the per-node segment table. Every segment holds
//! `f64` words ([`SegmentData::F64`]) so application code works on `f64`
//! slices directly — the workspace *is* the checkpoint, per the
//! self-checkpoint design. The protocol's commit header and stripe-CRC
//! table are `f64` segments too, read and written as little-endian bytes
//! through `skt_encoding::simd::f64_bytes(_mut)`.
//!
//! Power-off ([`ShmStore::wipe`]) clears the table and hands every
//! payload to the cluster's [`BufferPool`], leaving an empty payload
//! behind for any stale handle: the dead node's memory becomes the next
//! spare's segments (which start all-zero all the same) instead of being
//! returned to the OS and page-faulted in again.

use crate::pool::BufferPool;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Contents of one shared-memory segment: `f64` words, like every
/// segment the paper's SHM holds. The protocol's byte-level segments
/// (commit header, stripe-CRC table) read the same words as LE bytes.
#[derive(Clone, Debug, PartialEq)]
pub enum SegmentData {
    /// Double-precision payload (matrix workspace, checkpoints, checksums,
    /// and the byte-viewed protocol segments).
    F64(Vec<f64>),
}

impl SegmentData {
    /// Size of the payload in bytes (what `shmget` would have reserved).
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of_val(self.as_f64())
    }

    /// Borrow as `f64` slice.
    pub fn as_f64(&self) -> &[f64] {
        let SegmentData::F64(v) = self;
        v
    }

    /// Borrow as mutable `f64` vec.
    pub fn as_f64_mut(&mut self) -> &mut Vec<f64> {
        let SegmentData::F64(v) = self;
        v
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
    /// payloads of segments nobody holds locked into `pool`.
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
                pool.give(std::mem::take(g.as_f64_mut()));
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
        let (seg, _) = store.get_or_create("x", || SegmentData::F64(vec![1.0, 2.0, 3.0]));
        assert!(store.remove("x"));
        assert!(!store.remove("x"));
        assert!(store.attach("x").is_none());
        // existing handle still works (detached mapping)
        assert_eq!(seg.read().as_f64(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn total_bytes_accounts_all_segments() {
        let store = ShmStore::new();
        store.get_or_create("m", || SegmentData::F64(vec![0.0; 10]));
        store.get_or_create("h", || SegmentData::F64(vec![0.0; 2]));
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
    fn frozen_store_detaches_writes_and_rejects_removes() {
        let store = ShmStore::new();
        let (real, _) = store.get_or_create("s", || SegmentData::F64(vec![7.0; 4]));
        store.freeze();
        assert!(store.is_frozen());
        // late attach sees the data but writes land in a private copy
        let zombie = store.attach("s").unwrap();
        zombie.write().as_f64_mut()[0] = 99.0;
        assert_eq!(real.read().as_f64(), &[7.0; 4], "real segment untouched");
        // late re-create likewise
        let (z2, existed) = store.get_or_create("s", || unreachable!());
        assert!(existed);
        z2.write().as_f64_mut()[1] = 1.0;
        assert_eq!(real.read().as_f64(), &[7.0; 4]);
        // a brand-new segment is never published
        store.get_or_create("new", || SegmentData::F64(vec![1.0]));
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
