//! Incremental checkpoint analysis.
//!
//! Plank & Li's incremental diskless checkpointing (related work, §7)
//! saves only the data modified since the last checkpoint. The paper
//! dismisses it for HPL: "HPL has a big memory footprint. Almost every
//! byte is modified between two checkpoints. As a result, incremental
//! checkpoint methods are not efficient for this problem" (§1).
//!
//! [`DirtyTracker`] instruments a workspace with chunk-granularity
//! modification detection (content hashing, the software analogue of
//! page-protection tracking), so that claim can be *measured* — see the
//! `ablation_incremental` binary.

/// Chunk-hash based modification tracker over an `f64` workspace.
pub struct DirtyTracker {
    chunk: usize,
    hashes: Vec<u64>,
    len: usize,
}

#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn chunk_hash(c: &[f64]) -> u64 {
    let mut h = 0xABCD_EF01_2345_6789u64;
    for v in c {
        h = mix(h ^ v.to_bits());
    }
    h
}

impl DirtyTracker {
    /// Track a workspace of `len` elements at `chunk`-element granularity
    /// (the analogue of the OS page size; 512 elements = one 4 KiB page).
    pub fn new(len: usize, chunk: usize) -> Self {
        assert!(chunk >= 1 && len >= 1);
        DirtyTracker {
            chunk,
            hashes: vec![0; len.div_ceil(chunk)],
            len,
        }
    }

    /// Number of chunks tracked.
    pub fn chunks(&self) -> usize {
        self.hashes.len()
    }

    /// Record the current contents as the clean baseline.
    pub fn snapshot(&mut self, data: &[f64]) {
        assert_eq!(data.len(), self.len, "workspace length changed");
        for (i, c) in data.chunks(self.chunk).enumerate() {
            self.hashes[i] = chunk_hash(c);
        }
    }

    /// Indices of chunks modified since the last [`Self::snapshot`].
    pub fn dirty_chunks(&self, data: &[f64]) -> Vec<usize> {
        assert_eq!(data.len(), self.len, "workspace length changed");
        data.chunks(self.chunk)
            .enumerate()
            .filter(|(i, c)| chunk_hash(c) != self.hashes[*i])
            .map(|(i, _)| i)
            .collect()
    }

    /// Fraction of chunks modified since the last snapshot, in `[0, 1]`.
    pub fn dirty_fraction(&self, data: &[f64]) -> f64 {
        self.dirty_chunks(data).len() as f64 / self.chunks() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_workspace_has_no_dirty_chunks() {
        let data = vec![1.0; 1000];
        let mut t = DirtyTracker::new(1000, 64);
        t.snapshot(&data);
        assert!(t.dirty_chunks(&data).is_empty());
        assert_eq!(t.dirty_fraction(&data), 0.0);
    }

    #[test]
    fn single_write_dirties_exactly_one_chunk() {
        let mut data = vec![0.0; 1024];
        let mut t = DirtyTracker::new(1024, 128);
        t.snapshot(&data);
        data[300] = 5.0;
        assert_eq!(
            t.dirty_chunks(&data),
            vec![2],
            "element 300 lives in chunk 2"
        );
        assert!((t.dirty_fraction(&data) - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn ragged_tail_chunk_is_tracked() {
        let mut data = vec![0.0; 130];
        let mut t = DirtyTracker::new(130, 64);
        assert_eq!(t.chunks(), 3);
        t.snapshot(&data);
        data[129] = 9.0;
        assert_eq!(t.dirty_chunks(&data), vec![2]);
    }

    #[test]
    fn full_rewrite_dirties_everything() {
        let mut data = vec![1.0; 512];
        let mut t = DirtyTracker::new(512, 64);
        t.snapshot(&data);
        for (i, v) in data.iter_mut().enumerate() {
            *v = i as f64 + 0.5;
        }
        assert_eq!(t.dirty_fraction(&data), 1.0);
    }
}
