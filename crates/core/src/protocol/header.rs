//! The CRC-guarded commit header shared by every protocol.
//!
//! Four little-endian `u64` words in a node-persistent `Bytes` segment,
//! followed by a CRC32C of those 32 bytes. Each word is a *commit
//! marker*: it is written only after a group barrier, so a survivor
//! advertising `word = e` proves every group member's data for that phase
//! of epoch `e` is complete — the property the recovery planner's
//! group-MAX consensus rests on.
//!
//! The trailing CRC closes the header against *silent* corruption: a bit
//! flip in a commit word would otherwise steer the planner toward a pair
//! that was never committed (or away from one that was). A header that
//! fails its CRC is [`HeaderState::Invalid`] and the planner treats its
//! rank as a lost member — its data is rebuilt from parity and the header
//! recommitted — instead of trusting a forged epoch.

use skt_cluster::{Fault, ShmSegment};
use skt_encoding::crc32c;

/// Header size in bytes (what `shmget` reserves for it): four `u64`
/// commit words, a `u32` CRC32C of them, and 4 bytes of padding.
pub const HEADER_BYTES: usize = 40;

/// Bytes covered by the trailing CRC (the four commit words).
const PAYLOAD_BYTES: usize = 32;

/// Which commit marker a write targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum HeaderWord {
    /// Self method: the live pair `(work, X(e))` committed this epoch.
    DEpoch = 0,
    /// Single: `(B, C)`, self: `(B, X(e))` committed; double: pair 0.
    BcEpoch = 1,
    /// Double method: pair-1 epoch.
    Pair1 = 2,
    /// Single method: an update *attempt* started for this epoch (the
    /// torn-update detector).
    Dirty = 3,
}

impl HeaderWord {
    pub(crate) const ALL: [HeaderWord; 4] = [
        HeaderWord::DEpoch,
        HeaderWord::BcEpoch,
        HeaderWord::Pair1,
        HeaderWord::Dirty,
    ];
}

/// A decoded header: one rank's view of what committed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Header {
    /// Epoch of the last committed live pair `(work, X(e))` (self method).
    pub d_epoch: u64,
    /// Epoch of the last committed `(B, C)` pair (pair 0 for double).
    pub bc_epoch: u64,
    /// Epoch of the last committed pair 1 (double method).
    pub pair1_epoch: u64,
    /// Epoch of the last *attempted* update (single method).
    pub dirty_epoch: u64,
}

/// What [`Header::classify`] found in the header segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeaderState {
    /// The CRC checks out; the commit words are trustworthy.
    Valid(Header),
    /// The segment is wiped, mistyped, truncated, or fails its CRC. The
    /// words must not be trusted; recovery treats the rank as lost.
    Invalid(&'static str),
}

/// A fresh header image: all commit words zero, CRC valid. This is what
/// `init` seeds a new segment with — an all-zeros image would fail its
/// own CRC and read as corrupt.
pub(crate) fn fresh_bytes() -> Vec<u8> {
    let mut b = vec![0u8; HEADER_BYTES];
    seal(&mut b);
    b
}

/// Recompute and store the trailing CRC over the payload words.
fn seal(b: &mut [u8]) {
    let crc = crc32c(&b[..PAYLOAD_BYTES]);
    b[PAYLOAD_BYTES..PAYLOAD_BYTES + 4].copy_from_slice(&crc.to_le_bytes());
}

/// Decode a word without indexing panics; `b` is length-checked upstream.
fn word_at(b: &[u8], i: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&b[i * 8..i * 8 + 8]);
    u64::from_le_bytes(w)
}

impl Header {
    /// Classify a header segment without faulting: distinguishes a
    /// trustworthy header from one that is wiped, mistyped, truncated or
    /// CRC-corrupt. Recovery uses this to fold a damaged header into the
    /// lost-rank path instead of acting on forged commit words.
    pub fn classify(seg: &ShmSegment) -> HeaderState {
        let g = seg.read();
        let b = match g.try_as_bytes() {
            Ok(b) => b,
            Err(_) => return HeaderState::Invalid("header segment holds the wrong payload type"),
        };
        if b.len() < HEADER_BYTES {
            return HeaderState::Invalid("header segment wiped or truncated");
        }
        let mut stored = [0u8; 4];
        stored.copy_from_slice(&b[PAYLOAD_BYTES..PAYLOAD_BYTES + 4]);
        if crc32c(&b[..PAYLOAD_BYTES]) != u32::from_le_bytes(stored) {
            return HeaderState::Invalid("header CRC mismatch (silent corruption)");
        }
        HeaderState::Valid(Header {
            d_epoch: word_at(b, 0),
            bc_epoch: word_at(b, 1),
            pair1_epoch: word_at(b, 2),
            dirty_epoch: word_at(b, 3),
        })
    }

    /// The words as a fixed array, in `HeaderWord` order.
    pub fn words(&self) -> [u64; 4] {
        [
            self.d_epoch,
            self.bc_epoch,
            self.pair1_epoch,
            self.dirty_epoch,
        ]
    }
}

/// Write one commit marker and re-seal the CRC. A wiped or mistyped
/// segment is a [`Fault`], not a panic: the caller propagates it as the
/// job-abort path.
pub(crate) fn write_word(seg: &ShmSegment, word: HeaderWord, val: u64) -> Result<(), Fault> {
    let mut g = seg.write();
    let b = g.try_as_bytes_mut()?;
    if b.len() < HEADER_BYTES {
        return Err(Fault::Protocol("header segment wiped or truncated"));
    }
    let idx = word as usize;
    b[idx * 8..(idx + 1) * 8].copy_from_slice(&val.to_le_bytes());
    seal(b);
    Ok(())
}

#[cfg(test)]
// unit tests exercise the raw word-write primitive on purpose — the
// sequenced-op wrappers are tested one layer up in `protocol::ops`
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use skt_cluster::{SegmentData, ShmStore};

    fn seg(data: SegmentData) -> ShmSegment {
        ShmStore::new().get_or_create("h", move || data).0
    }

    fn fresh_seg() -> ShmSegment {
        seg(SegmentData::Bytes(fresh_bytes()))
    }

    #[test]
    fn write_then_read_round_trips() {
        let s = fresh_seg();
        write_word(&s, HeaderWord::BcEpoch, 7).unwrap();
        write_word(&s, HeaderWord::Dirty, 9).unwrap();
        let h = Header {
            d_epoch: 0,
            bc_epoch: 7,
            pair1_epoch: 0,
            dirty_epoch: 9,
        };
        assert_eq!(Header::classify(&s), HeaderState::Valid(h));
        assert_eq!(h.words(), [0, 7, 0, 9]);
    }

    #[test]
    fn fresh_bytes_classify_as_a_valid_zero_header() {
        assert_eq!(
            Header::classify(&fresh_seg()),
            HeaderState::Valid(Header::default())
        );
    }

    #[test]
    fn all_zero_bytes_fail_the_crc() {
        // a raw zero image is NOT a valid header: seeding must go through
        // fresh_bytes so a wiped-to-zero segment reads as corrupt
        let s = seg(SegmentData::Bytes(vec![0u8; HEADER_BYTES]));
        assert!(matches!(Header::classify(&s), HeaderState::Invalid(_)));
    }

    #[test]
    fn wiped_segment_is_a_fault_not_a_panic() {
        // power-off clears the payload but stale handles survive
        let s = seg(SegmentData::Bytes(Vec::new()));
        assert!(matches!(Header::classify(&s), HeaderState::Invalid(_)));
        assert!(matches!(
            write_word(&s, HeaderWord::DEpoch, 1),
            Err(Fault::Protocol(_))
        ));
    }

    #[test]
    fn mistyped_segment_is_a_fault() {
        let s = seg(SegmentData::F64(vec![0.0; 5]));
        assert!(matches!(Header::classify(&s), HeaderState::Invalid(_)));
        assert!(matches!(
            write_word(&s, HeaderWord::DEpoch, 1),
            Err(Fault::Protocol(_))
        ));
    }

    #[test]
    fn every_single_bit_flip_in_the_payload_is_detected() {
        let s = fresh_seg();
        write_word(&s, HeaderWord::DEpoch, 3).unwrap();
        write_word(&s, HeaderWord::BcEpoch, 3).unwrap();
        for byte in 0..PAYLOAD_BYTES {
            for bit in 0..8 {
                {
                    let mut g = s.write();
                    g.try_as_bytes_mut().unwrap()[byte] ^= 1 << bit;
                }
                assert!(
                    matches!(Header::classify(&s), HeaderState::Invalid(_)),
                    "flip at byte {byte} bit {bit} must be detected"
                );
                {
                    let mut g = s.write();
                    g.try_as_bytes_mut().unwrap()[byte] ^= 1 << bit;
                }
            }
        }
        assert!(matches!(Header::classify(&s), HeaderState::Valid(_)));
    }

    #[test]
    fn a_flipped_crc_byte_is_detected_too() {
        let s = fresh_seg();
        {
            let mut g = s.write();
            g.try_as_bytes_mut().unwrap()[PAYLOAD_BYTES + 2] ^= 0x40;
        }
        assert!(matches!(
            Header::classify(&s),
            HeaderState::Invalid("header CRC mismatch (silent corruption)")
        ));
    }
}
