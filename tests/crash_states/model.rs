//! A reference model of the paper's recovery rules, written from the
//! paper (Figures 2–5) rather than from the implementation: it reads one
//! group's durable state at a crash instant and says what `recover` must
//! return. It does no I/O and shares no code with the protocol's planner,
//! method table or restore sequences, so agreement between the two is
//! evidence, not tautology.
//!
//! The rules:
//!
//! * **Consensus.** A member counts only if it survived with a header
//!   that passes its CRC. Commit words are written after a group
//!   barrier, so the group MAX of each word over those members says what
//!   committed.
//! * **CASE 1 / CASE 2.** Self-checkpoint restores the newer of `D` and
//!   `(B, C)`: `(work, D)` when only `D` committed at that epoch (CASE 2,
//!   roll forward), `(B, C)` otherwise (CASE 1). Single restores its one
//!   pair, and refuses when an update attempt outran the last commit
//!   (Figure 2, CASE 2: the only checkpoint may be torn). Double
//!   restores the pair committed later (Figure 3).
//! * **Erasures.** Lost members, members with an invalid header and
//!   members whose source regions fail their CRC witness are rebuilt from
//!   parity: at most `m` of them. More than `m` members without a header
//!   is a refusal only when a surviving header proves something
//!   committed; otherwise there is nothing to lose and the answer is
//!   to start over.
//!
//! A state in which the rules pick a source that some trusted member
//! does not actually hold at the chosen epoch (its bytes are another
//! epoch's under a valid witness) is a broken protocol invariant: the
//! model reports it instead of a verdict.

use self_checkpoint::core::Method;

/// A region of one member's protocol state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Reg {
    Work,
    B,
    C,
    D,
    B1,
    C1,
}

impl Reg {
    pub const ALL: [Reg; 6] = [Reg::Work, Reg::B, Reg::C, Reg::D, Reg::B1, Reg::C1];
}

/// What a region holds: which epoch's committed bytes (`None`: none of
/// them — initial, torn or application-dirty contents), and whether its
/// stored stripe CRCs match its bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RegionState {
    pub epoch: Option<u64>,
    pub witnessed: bool,
}

/// The four commit words of a valid header.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Words {
    pub d: u64,
    pub bc: u64,
    pub pair1: u64,
    pub dirty: u64,
}

impl Words {
    /// Whether these words prove a commit (the dirty word announces an
    /// attempt and proves nothing).
    pub fn prove_a_commit(&self) -> bool {
        self.d > 0 || self.bc > 0 || self.pair1 > 0
    }

    fn max(self, o: Words) -> Words {
        Words {
            d: self.d.max(o.d),
            bc: self.bc.max(o.bc),
            pair1: self.pair1.max(o.pair1),
            dirty: self.dirty.max(o.dirty),
        }
    }
}

/// One member's durable state at the crash instant.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Member {
    /// Lost in the crash, or its segments were never created.
    Gone,
    /// Segments present; `header` is `None` when it fails its CRC.
    Present {
        header: Option<Words>,
        regions: Vec<(Reg, RegionState)>,
    },
}

impl Member {
    pub fn words(&self) -> Option<Words> {
        match self {
            Member::Present { header, .. } => *header,
            Member::Gone => None,
        }
    }

    pub fn region(&self, r: Reg) -> Option<RegionState> {
        match self {
            Member::Present { regions, .. } => {
                regions.iter().find(|(reg, _)| *reg == r).map(|(_, s)| *s)
            }
            Member::Gone => None,
        }
    }
}

/// Why recovery must refuse.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Refusal {
    /// Single checkpoint caught mid-update.
    TornSingle,
    /// More erasures than the codec's `m`.
    TooManyErasures,
}

/// What `recover` must return for a group state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Verdict {
    NoCheckpoint,
    Restored { epoch: u64, source: Source },
    Unrecoverable(Refusal),
}

/// The consistent pair a restore reads: a committed checkpoint `(B, C)`
/// or `(B1, C1)`, or the workspace as its own checkpoint `(work, D)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Source {
    Checkpoint,
    Workspace,
}

/// The verdict for `group` (one entry per member, in group-rank order)
/// under `method` with an `m`-parity codec, or the broken invariant that
/// leaves no right answer.
pub fn recover(method: Method, m: usize, group: &[Member]) -> Result<Verdict, String> {
    let headerless: Vec<usize> = (0..group.len())
        .filter(|&i| group[i].words().is_none())
        .collect();
    if headerless.len() == group.len() {
        return Ok(Verdict::NoCheckpoint);
    }
    let trusted = group.iter().filter_map(Member::words);
    let proof = trusted.clone().any(|w| w.prove_a_commit());
    let seen = trusted.fold(Words::default(), Words::max);

    if method == Method::Single && seen.dirty > seen.bc {
        return Ok(Verdict::Unrecoverable(Refusal::TornSingle));
    }
    if proof && headerless.len() > m {
        return Ok(Verdict::Unrecoverable(Refusal::TooManyErasures));
    }
    let (epoch, data, parity) = match method {
        Method::SelfCkpt if seen.d > seen.bc => (seen.d, Reg::Work, Reg::D),
        Method::SelfCkpt | Method::Single => (seen.bc, Reg::B, Reg::C),
        Method::Double if seen.pair1 > seen.bc => (seen.pair1, Reg::B1, Reg::C1),
        Method::Double => (seen.bc, Reg::B, Reg::C),
    };
    if epoch == 0 {
        return Ok(Verdict::NoCheckpoint);
    }
    let witnessed = |r: Option<RegionState>| r.is_some_and(|s| s.witnessed);
    let erasures: Vec<usize> = (0..group.len())
        .filter(|&i| {
            headerless.contains(&i)
                || !witnessed(group[i].region(data))
                || !witnessed(group[i].region(parity))
        })
        .collect();
    if erasures.len() > m {
        return Ok(Verdict::Unrecoverable(Refusal::TooManyErasures));
    }
    for (i, member) in group.iter().enumerate() {
        if erasures.contains(&i) {
            continue;
        }
        for r in [data, parity] {
            let held = member.region(r).and_then(|s| s.epoch);
            if held != Some(epoch) {
                return Err(format!(
                    "the rules restore epoch {epoch} from ({data:?}, {parity:?}), but member \
                     {i}'s {r:?} holds {held:?} under a valid witness"
                ));
            }
        }
    }
    let source = match data {
        Reg::Work => Source::Workspace,
        _ => Source::Checkpoint,
    };
    Ok(Verdict::Restored { epoch, source })
}
