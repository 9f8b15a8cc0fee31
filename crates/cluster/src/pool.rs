//! The cluster's buffer pool: recycled `f64` buffers for node memory and
//! for the stripes the checkpoint engine moves.
//!
//! Fresh memory is not free on the hosts this runs on. A released
//! multi-MiB buffer goes back to the kernel (glibc trims or unmaps it),
//! so the next allocation of that size is paged in again, one minor
//! fault per 4 KiB page: touching a fresh 8 MiB took 6.0 ms on one
//! thread and 14.4 ms with four threads faulting at once (2-vCPU host),
//! against 0.66 ms to rewrite 8 MiB that is already resident. A spare
//! node's segments and every stripe of a recovery were such fresh
//! memory. The pool keeps what the cluster gives back instead:
//!
//! * one free list of `Vec<f64>` per exact length;
//! * [`BufferPool::take`] for a buffer whose stale contents the caller
//!   overwrites in full, [`BufferPool::take_zeroed`] for one filled with
//!   `+0.0` (a new node segment);
//! * [`BufferPool::give`] to return a buffer that came from a `take`.
//!
//! There is no retention setting. A free list holds at most as many
//! buffers as its length ever had on loan at once (the loan high-water),
//! and only buffers taken from the pool are given back, so the pool never
//! holds more memory than the peak it has already lent. It is dropped
//! with its cluster.
//!
//! In debug builds `give` fills every returned buffer with one fixed
//! signalling-NaN bit pattern: a path that reads a `take`n buffer before
//! overwriting it then breaks the bit-exact suites instead of passing on
//! stale data that happens to be right.

use parking_lot::Mutex;
use std::collections::HashMap;

/// The bit pattern a debug build fills every returned buffer with: a
/// signalling NaN (quiet bit clear, payload nonzero) that no kernel
/// produces from real data.
const POISON: u64 = 0x7FF4_B0B0_DEAD_F00D;

/// One length's free buffers and loan accounting.
#[derive(Default)]
struct FreeList {
    free: Vec<Vec<f64>>,
    on_loan: usize,
    high_water: usize,
}

/// Recycled `f64` buffers, one free list per exact length (see the
/// module docs). Thread-safe; the lock is held for list bookkeeping
/// only, never while a buffer is written.
#[derive(Default)]
pub struct BufferPool {
    lists: Mutex<HashMap<usize, FreeList>>,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count a loan of `len` and pop a recycled buffer, if one is free.
    fn lend(&self, len: usize) -> Option<Vec<f64>> {
        let mut lists = self.lists.lock();
        let list = lists.entry(len).or_default();
        list.on_loan += 1;
        list.high_water = list.high_water.max(list.on_loan);
        list.free.pop()
    }

    /// A buffer of `len` elements with unspecified contents: the caller
    /// overwrites every element before it reads one. A fresh allocation
    /// when the free list is empty.
    #[must_use]
    pub fn take(&self, len: usize) -> Vec<f64> {
        if len == 0 {
            return Vec::new();
        }
        self.lend(len).unwrap_or_else(|| vec![0.0; len])
    }

    /// A buffer of `len` elements, every one `+0.0` (a new segment's
    /// initial contents). A recycled buffer is zeroed in place.
    #[must_use]
    pub fn take_zeroed(&self, len: usize) -> Vec<f64> {
        if len == 0 {
            return Vec::new();
        }
        match self.lend(len) {
            Some(mut v) => {
                v.fill(0.0);
                v
            }
            None => vec![0.0; len],
        }
    }

    /// Return a buffer that came from [`Self::take`] or
    /// [`Self::take_zeroed`]. One its length has no loan outstanding for
    /// (it was never lent, or was resized since) is dropped, and so is
    /// one that would lift the free list above the loan high-water.
    pub fn give(&self, mut buf: Vec<f64>) {
        let len = buf.len();
        if len == 0 {
            return;
        }
        if cfg!(debug_assertions) {
            buf.fill(f64::from_bits(POISON));
        }
        let mut lists = self.lists.lock();
        let Some(list) = lists.get_mut(&len) else {
            return;
        };
        if list.on_loan == 0 {
            return;
        }
        list.on_loan -= 1;
        if list.free.len() < list.high_water {
            list.free.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shm::{SegmentData, ShmStore};

    fn free_and_high_water(pool: &BufferPool, len: usize) -> (usize, usize) {
        let lists = pool.lists.lock();
        lists
            .get(&len)
            .map_or((0, 0), |l| (l.free.len(), l.high_water))
    }

    #[test]
    fn take_zeroed_after_a_poisoned_give_returns_only_positive_zero_bits() {
        let pool = BufferPool::new();
        let mut v = pool.take(17);
        v.fill(-0.0);
        v[3] = f64::from_bits(POISON);
        pool.give(v);
        let z = pool.take_zeroed(17);
        assert_eq!(z.len(), 17);
        assert!(z.iter().all(|x| x.to_bits() == 0), "{z:?}");
    }

    #[test]
    fn a_given_buffer_is_recycled_and_poisoned_in_debug_builds() {
        let pool = BufferPool::new();
        let v = pool.take(9);
        let ptr = v.as_ptr();
        pool.give(v);
        let again = pool.take(9);
        assert_eq!(again.as_ptr(), ptr, "the free list hands the buffer back");
        if cfg!(debug_assertions) {
            assert!(again.iter().all(|x| x.to_bits() == POISON));
            assert!(f64::from_bits(POISON).is_nan());
        }
    }

    #[test]
    fn a_stale_handle_to_a_wiped_segment_sees_an_empty_payload() {
        let pool = BufferPool::new();
        let store = ShmStore::new();
        let (seg, _) = store.get_or_create("m", || SegmentData::F64(pool.take_zeroed(8)));
        seg.write().as_f64_mut()[0] = 5.0;
        store.wipe(&pool);
        assert!(store.is_empty());
        assert!(seg.read().as_f64().is_empty(), "power-off destroys data");
        // the payload went to the pool, and a spare's segment starts zero
        assert_eq!(free_and_high_water(&pool, 8), (1, 1));
        let (fresh, existed) = store.get_or_create("m", || SegmentData::F64(pool.take_zeroed(8)));
        assert!(!existed);
        assert!(fresh.read().as_f64().iter().all(|x| x.to_bits() == 0));
        assert!(
            seg.read().as_f64().is_empty(),
            "the stale handle stays empty"
        );
    }

    #[test]
    fn a_free_list_never_holds_more_than_its_loan_high_water() {
        let pool = BufferPool::new();
        let lent: Vec<Vec<f64>> = (0..3).map(|_| pool.take(4)).collect();
        // buffers the pool never lent: another length, and one past the
        // loans outstanding
        pool.give(vec![1.0; 5]);
        assert_eq!(free_and_high_water(&pool, 5), (0, 0));
        for v in lent {
            pool.give(v);
        }
        assert_eq!(free_and_high_water(&pool, 4), (3, 3));
        pool.give(vec![1.0; 4]);
        assert_eq!(free_and_high_water(&pool, 4), (3, 3));
        // a loan cycle below the high-water neither grows nor shrinks it
        for _ in 0..5 {
            let a = pool.take(4);
            let b = pool.take_zeroed(4);
            pool.give(a);
            pool.give(b);
            let (free, high) = free_and_high_water(&pool, 4);
            assert!(
                free <= high,
                "{free} free buffers above a high-water of {high}"
            );
        }
        assert_eq!(free_and_high_water(&pool, 4), (3, 3));
        // empty buffers are never pooled
        assert!(pool.take(0).is_empty());
        pool.give(Vec::new());
        assert_eq!(free_and_high_water(&pool, 0), (0, 0));
    }
}
