//! What each checkpoint method keeps, declared once (paper Table 1:
//! `A,B,C` / `A,2×(B,C)` / `A,B,C,D`; Figures 2–5 for which pair is
//! trusted when): the regions a method allocates, its `(commit word,
//! data, parity)` pairs, which pair epoch `e` overwrites and which pair
//! holds a given target epoch (its parity region read at that epoch).
//! `init`, the segment lookup, the CRC-slot table, `verify_integrity`,
//! `scrub`, the resume epoch and every restore read this table instead of
//! restating it. To add a method: add a row here and a `make` function
//! (plus its `restore` arm) in `methods`.

use super::header::{Header, HeaderWord};
use super::planner::HeaderMaxima;
use crate::memory::Method;
use skt_cluster::Region;

/// A consistent `(data, parity)` pair and the commit word holding the
/// epoch `e` it was committed at; `parity[e % 2]` holds its parity.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Pair {
    pub(crate) word: HeaderWord,
    pub(crate) data: Region,
    parity: [Region; 2],
}

impl Pair {
    const fn new(word: HeaderWord, data: Region, parity: [Region; 2]) -> Pair {
        Pair { word, data, parity }
    }

    /// The region holding this pair's parity at its committed epoch `e`.
    pub(crate) fn parity(&self, e: u64) -> Region {
        self.parity[(e % 2) as usize]
    }
}

/// The single and double methods' committed checkpoint `(B, C)` (pair 0).
pub(crate) const BC: Pair = Pair::new(HeaderWord::BcEpoch, Region::CopyB, [Region::ParityC; 2]);

/// The double method's second checkpoint pair.
const B1C1: Pair = Pair::new(HeaderWord::Pair1, Region::CopyB1, [Region::ParityC1; 2]);

/// The self method's `X(e)`: `C` at even epochs, `D` at odd ones. Epoch
/// `e` encodes into the region not holding `P(e-1)`, so no parity is ever
/// copied (the paper copies `D → C` at the end of every make).
const X: [Region; 2] = [Region::ParityC, Region::ChecksumD];

/// The self method's committed checkpoint `(B, X(bc))`.
pub(crate) const B_X: Pair = Pair::new(HeaderWord::BcEpoch, Region::CopyB, X);

/// The self method's `(work, X(d))`: the workspace as its own checkpoint.
pub(crate) const WORK_X: Pair = Pair::new(HeaderWord::DEpoch, Region::Work, X);

/// One method's row. What it allocates follows from it: the workspace
/// plus every pair's regions ([`MethodTable::regions`]).
pub(crate) struct MethodTable {
    /// The checkpoint pairs `make` rotates through, oldest overwritten
    /// first — the pairs a scrub verifies and a restart resumes from.
    pub(crate) pairs: &'static [Pair],
    /// The live pair, consistent only between its commit and the next
    /// application write (self method).
    pub(crate) live: Option<Pair>,
}

/// `A, B, C`.
static SINGLE: MethodTable = MethodTable {
    pairs: &[BC],
    live: None,
};

/// `A, 2 × (B, C)`.
static DOUBLE: MethodTable = MethodTable {
    pairs: &[BC, B1C1],
    live: None,
};

/// `A, B, C, D`.
static SELF_CKPT: MethodTable = MethodTable {
    pairs: &[B_X],
    live: Some(WORK_X),
};

/// Number of region slots: the length of a `Checkpointer`'s segment array
/// and the region count of the per-rank CRC table.
pub(crate) const SLOTS: usize = 6;

/// A corruptible `f64` region's slot: its index in the `Checkpointer`'s
/// segment array and its position in the per-rank CRC table segment —
/// the same for every method, and **on-disk layout**: never reorder.
/// Each region owns `N-1` little-endian `u32` stripe-CRC slots; the
/// parity regions (`c`, `d`, `c1`) use the first `m` and the data regions
/// the first `N-m` — both fit because `N-1 >= max(N-m, m)` for any valid
/// `m <= N-1`. The header has no slot on purpose — it carries its own
/// embedded CRC — and the table itself is trusted metadata the injector's
/// [`Region`] enum cannot target: a mismatch always means the *data*
/// moved, never the witness.
pub(crate) fn slot(r: Region) -> Option<usize> {
    match r {
        Region::Work => Some(0),
        Region::CopyB => Some(1),
        Region::ParityC => Some(2),
        Region::ChecksumD => Some(3),
        Region::CopyB1 => Some(4),
        Region::ParityC1 => Some(5),
        _ => None,
    }
}

impl MethodTable {
    /// The one place a [`Method`] maps to what it keeps.
    pub(crate) fn of(method: Method) -> &'static MethodTable {
        match method {
            Method::Single => &SINGLE,
            Method::Double => &DOUBLE,
            Method::SelfCkpt => &SELF_CKPT,
        }
    }

    /// Every pair the method can restore from, in the order a restore
    /// prefers them: a committed checkpoint before the live pair (when
    /// both hold the target they are identical).
    fn sources(&self) -> impl Iterator<Item = &Pair> {
        self.pairs.iter().chain(&self.live)
    }

    /// Whether region `r` carries a current stripe witness whenever a
    /// protocol copy reads it: the data region of one of the method's
    /// pairs, committed or live. The double and single methods'
    /// workspace is in no pair, and nothing witnesses it.
    pub(crate) fn witnessed(&self, r: Region) -> bool {
        self.sources().any(|p| p.data == r)
    }

    /// The `f64` segments the method allocates beside `header` and `crc`,
    /// in slot order (segment names are [`Region::suffix`]), each with
    /// whether it is a checksum segment (`m` stripes) rather than a
    /// workspace-sized one.
    pub(crate) fn regions(&self) -> Vec<(Region, bool)> {
        let data = std::iter::once(Region::Work).chain(self.sources().map(|p| p.data));
        let parity = self.sources().flat_map(|p| p.parity.map(|r| (r, true)));
        let mut all: Vec<_> = data.map(|r| (r, false)).chain(parity).collect();
        all.sort_by_key(|&(r, _)| slot(r));
        all.dedup();
        all
    }

    /// The checkpoint pair epoch `e`'s `make` overwrites — the *older*
    /// one, so the newer stays consistent — and therefore the pair that
    /// holds epoch `e` once it committed (the other may legally hold a
    /// torn write).
    pub(crate) fn written_at(&self, e: u64) -> &Pair {
        let n = self.pairs.len() as u64;
        &self.pairs[((e + n - 1) % n) as usize]
    }

    /// The pair committed at `target`, judged by the survivors' header
    /// maxima; `None` means no pair holds it — a broken protocol
    /// invariant.
    pub(crate) fn holding(&self, target: u64, seen: &HeaderMaxima) -> Option<&Pair> {
        self.sources().find(|p| seen.word(p.word) == target)
    }

    /// Epoch to resume at when re-attaching to existing segments: the
    /// newest committed checkpoint pair.
    pub(crate) fn resume_epoch(&self, h: &Header) -> u64 {
        let words = h.words();
        self.pairs
            .iter()
            .map(|p| words[p.word as usize])
            .max()
            .unwrap_or(0)
    }
}

impl Header {
    /// Whether this header records a commit under *any* method: some
    /// pair's commit word is non-zero. The attempt marker (`Dirty`)
    /// belongs to no pair and proves nothing; a commit word a future row
    /// adds is covered by being in that row.
    pub fn has_committed(&self) -> bool {
        let words = self.words();
        [&SINGLE, &DOUBLE, &SELF_CKPT]
            .into_iter()
            .flat_map(MethodTable::sources)
            .any(|p| words[p.word as usize] != 0)
    }
}
