//! A reference model of the paper's recovery rules, written from the
//! paper (Figures 2–5, §3.3) rather than from the implementation: it
//! reads each group's durable state at a crash instant and says what
//! `recover` must return in each group. It does no I/O and shares no code
//! with the protocol's planner, method table or restore sequences, so
//! agreement between the two is evidence, not tautology.
//!
//! The rules:
//!
//! * **Consensus.** A member counts only if it survived with a header
//!   that passes its CRC. Commit words are written after a group
//!   barrier, so the group MAX of each word over those members says what
//!   committed.
//! * **CASE 1 / CASE 2.** Self-checkpoint proposes the newer of its two
//!   commit words: the live pair `(work, X(d))` when only the `d` word
//!   names that epoch (CASE 2, roll forward), the checkpoint `(B, X(bc))`
//!   otherwise (CASE 1). Single proposes its one pair, and refuses when
//!   an update attempt outran the last commit (Figure 2, CASE 2: the only
//!   checkpoint may be torn). Double proposes the pair committed later
//!   (Figure 3).
//! * **Alternating parity.** Self-checkpoint's parity at epoch `e` lives
//!   in `X(e)`: `D` at odd epochs, `C` at even ones. This deviates from
//!   the paper, whose `make` encodes into `D` and ends by copying
//!   `D → C`, so that its checkpoint is always `(B, C)`; here epoch `e`
//!   encodes into the region that does not hold `P(e-1)` and nothing is
//!   copied, so a pair is read at the epoch its commit word records. The
//!   other region holds a stale or not-yet-committed parity that no rule
//!   trusts. The baselines' parity regions are fixed.
//! * **Erasures.** Lost members, members with an invalid header and
//!   members whose source regions fail their CRC witness are rebuilt from
//!   parity: at most `m` of them. More than `m` members without a header
//!   is a refusal only when a surviving header proves something
//!   committed; otherwise there is nothing to lose and the answer is
//!   to start over.
//! * **Groups.** The job recovers as one: a refusal in any group refuses
//!   every group (a group with no reason of its own reports a group
//!   beyond repair), a group with no header anywhere starts the job over,
//!   and otherwise every group restores the *minimum* proposal from the
//!   pair committed at that epoch — the checkpoint before the live pair
//!   when both hold it. The cross-group gate (no group flushes `B` before
//!   every group committed `D`) is what keeps the checkpoint intact in a
//!   group that proposed more.
//!
//! A state in which the rules pick a source that some trusted member
//! does not actually hold at the chosen epoch (its bytes are another
//! epoch's under a valid witness), or no pair at all, is a broken
//! protocol invariant: the model reports it instead of a verdict.

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

/// The consistent pair a restore reads: a committed checkpoint (`(B, C)`,
/// `(B1, C1)` or the self method's `(B, X(bc))`), or the workspace as its
/// own checkpoint `(work, X(d))`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Source {
    Checkpoint,
    Workspace,
}

/// The members that come back without a valid header (lost, or a header
/// failing its CRC): what a restore rebuilds before it reads any CRC, and
/// what its report names as lost.
pub fn headerless(group: &[Member]) -> Vec<usize> {
    (0..group.len())
        .filter(|&i| group[i].words().is_none())
        .collect()
}

/// The group MAX of each commit word over the members with a valid
/// header.
pub fn seen(group: &[Member]) -> Words {
    group
        .iter()
        .filter_map(Member::words)
        .fold(Words::default(), Words::max)
}

/// The epoch `group` proposes to restore (0: nothing to restore), or its
/// reason to refuse.
fn propose(method: Method, m: usize, group: &[Member]) -> Result<u64, Refusal> {
    let headerless = headerless(group).len();
    if headerless == group.len() {
        return Ok(0);
    }
    let proof = group
        .iter()
        .filter_map(Member::words)
        .any(|w| w.prove_a_commit());
    let seen = seen(group);
    if method == Method::Single && seen.dirty > seen.bc {
        return Err(Refusal::TornSingle);
    }
    if proof && headerless > m {
        return Err(Refusal::TooManyErasures);
    }
    Ok(match method {
        Method::SelfCkpt => seen.d.max(seen.bc),
        Method::Single => seen.bc,
        Method::Double => seen.bc.max(seen.pair1),
    })
}

/// The self method's parity region at epoch `e`, `X(e)`.
fn alternating(e: u64) -> Reg {
    if e % 2 == 1 {
        Reg::D
    } else {
        Reg::C
    }
}

/// The method's pairs under commit words `w`, in the order a restore
/// prefers them, each as (commit word, data, parity at that word's epoch).
pub fn pairs(method: Method, w: Words) -> Vec<(u64, Reg, Reg)> {
    match method {
        Method::Single => vec![(w.bc, Reg::B, Reg::C)],
        Method::Double => vec![(w.bc, Reg::B, Reg::C), (w.pair1, Reg::B1, Reg::C1)],
        Method::SelfCkpt => vec![
            (w.bc, Reg::B, alternating(w.bc)),
            (w.d, Reg::Work, alternating(w.d)),
        ],
    }
}

/// The pair `group` restores `epoch` from: the first of the method's
/// [`pairs`] whose commit word says `epoch`.
fn holding(method: Method, group: &[Member], epoch: u64) -> Result<(Reg, Reg), String> {
    let seen = seen(group);
    pairs(method, seen)
        .into_iter()
        .find(|p| p.0 == epoch)
        .map(|(_, data, parity)| (data, parity))
        .ok_or_else(|| format!("no pair holds the agreed epoch {epoch}: {seen:?}"))
}

/// The members of `group` a restore from `(data, parity)` rebuilds:
/// those without a header and those whose source fails its witness.
fn erasures(group: &[Member], data: Reg, parity: Reg) -> Vec<usize> {
    let witnessed = |r: Option<RegionState>| r.is_some_and(|s| s.witnessed);
    let headerless = headerless(group);
    (0..group.len())
        .filter(|&i| {
            headerless.contains(&i)
                || !witnessed(group[i].region(data))
                || !witnessed(group[i].region(parity))
        })
        .collect()
}

/// The verdict for each of `groups` (one entry per member, in group-rank
/// order) of one job under `method` with an `m`-parity codec, or the
/// broken invariant that leaves no right answer.
pub fn recover(method: Method, m: usize, groups: &[Vec<Member>]) -> Result<Vec<Verdict>, String> {
    let proposals: Vec<_> = groups.iter().map(|g| propose(method, m, g)).collect();
    if proposals.iter().any(Result::is_err) {
        let why = |p: &Result<u64, Refusal>| p.err().unwrap_or(Refusal::TooManyErasures);
        return Ok(proposals
            .iter()
            .map(|p| Verdict::Unrecoverable(why(p)))
            .collect());
    }
    let epoch = proposals.into_iter().flatten().min().unwrap_or(0);
    if epoch == 0 {
        return Ok(vec![Verdict::NoCheckpoint; groups.len()]);
    }
    let sources = groups
        .iter()
        .map(|g| holding(method, g, epoch))
        .collect::<Result<Vec<_>, _>>()?;
    let beyond =
        |(g, &(data, parity)): (&Vec<Member>, &(Reg, Reg))| erasures(g, data, parity).len() > m;
    if groups.iter().zip(&sources).any(beyond) {
        let refused = Verdict::Unrecoverable(Refusal::TooManyErasures);
        return Ok(vec![refused; groups.len()]);
    }
    let mut verdicts = Vec::new();
    for (group, &(data, parity)) in groups.iter().zip(&sources) {
        let erased = erasures(group, data, parity);
        for (i, member) in group.iter().enumerate() {
            if erased.contains(&i) {
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
        verdicts.push(Verdict::Restored { epoch, source });
    }
    Ok(verdicts)
}
