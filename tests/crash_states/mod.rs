//! Crash states, not probes: every instant of one run, recovered once
//! per distinct durable state and judged by a reference model.
//!
//! Only shared memory survives a node loss. Under [`SimRuntime`] a rank
//! between two scheduling steps sits at a yield point whose next action
//! is an abort check, so a loss at step `t` leaves exactly the memory
//! the cluster held before step `t`, minus the lost nodes. One unarmed
//! run therefore yields every crash state its schedule reaches: the
//! per-step hook ([`SimRuntime::on_step`]) snapshots each rank's memory,
//! each (snapshot, ranks lost) pair is a crash state, equal ones are
//! recovered once on a fresh cluster restored from the snapshot, and
//! [`model::recover`] says what that recovery must return in each group.
//!
//! * [`Config`] — the shape: method × codec over `groups` groups of `n`
//!   members, one rank per node; several groups run under
//!   [`Checkpointer::init_synced`].
//! * [`Recording::new`] — the scenario (three makes), a snapshot before
//!   every step, and golden region images taken at each commit (what "a
//!   region holds epoch `e`" means to the model).
//! * [`loss_sweep`] — every set of lost ranks at every state.
//! * [`pair_sweep`] — a second loss at every step of first recoveries.
//! * [`flip_sweep`] — one bit flipped in each region of each survivor.
//! * [`live_kills`] — the premise, checked: a live kill at a step leaves
//!   that snapshot minus the victim, and every rank names the victim.
//! * [`probe_cell`] — a real-runtime probe kill, judged the same way.
//!
//! Every recovery is checked on every rank: a restore must be bit-exact
//! with a passing parity check, its [`RecoveryReport`] must name the
//! restored epoch, source and method, its lost members must be the ones
//! that came back without a valid header ([`model::headerless`]) and its
//! header maxima the group's ([`model::seen`]).
#![allow(dead_code)] // each test binary uses part of the harness

pub mod model;

use model::{Member, Refusal, Reg, RegionState, Source, Verdict, Words};
use self_checkpoint::cluster::{
    Cluster, ClusterConfig, FailurePlan, Ranklist, SegmentData, SimRuntime,
};
use self_checkpoint::core::{
    group_color, Checkpointer, CkptConfig, Method, RecoverError, Recovery, RecoveryReport,
    RestoreSource,
};
use self_checkpoint::encoding::{crc32c, stripe_crcs, CodecSpec, KernelConfig};
use self_checkpoint::mps::{run_on_cluster, Ctx, Fault};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Application workspace length (`f64`s per rank).
pub const A1: usize = 256;
/// Makes per recording: epoch 1 has nothing to fall back on, epoch 3 is
/// the first where the double method overwrites a pair it already wrote.
pub const EPOCHS: u64 = 3;
/// The scheduler seed of the single-group, four-member recordings.
pub const SEED: u64 = 1;
const JOB: &str = "crash";

/// Rank `rank`'s application data at epoch `epoch`.
pub fn pattern(rank: usize, epoch: u64) -> Vec<f64> {
    (0..A1)
        .map(|i| (rank * 7919 + i) as f64 * 0.25 + epoch as f64)
        .collect()
}

/// One recording's shape: method × codec over `groups` checkpoint groups
/// of `n` members each, one rank per node.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub method: Method,
    pub codec: CodecSpec,
    /// Members per group.
    pub n: usize,
    /// Checkpoint groups.
    pub groups: usize,
}

impl Config {
    /// One group of `n` members.
    pub const fn new(method: Method, codec: CodecSpec, n: usize) -> Self {
        Config {
            method,
            codec,
            n,
            groups: 1,
        }
    }

    /// The same groups, `groups` of them, each `n` neighbouring ranks.
    pub const fn grouped(self, groups: usize) -> Self {
        Config { groups, ..self }
    }

    /// Ranks (and nodes) of the job.
    pub fn ranks(&self) -> usize {
        self.n * self.groups
    }

    /// Every rank, as a loss-set bit mask (bit `i`: rank `i`).
    pub fn all(&self) -> u32 {
        (1 << self.ranks()) - 1
    }

    /// Parity stripes per group: the erasures the codec repairs.
    pub fn m(&self) -> usize {
        self.codec.resolve().parity_count()
    }

    /// The ranks of each group, in group-rank order.
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.groups];
        for rank in 0..self.ranks() {
            groups[group_color(rank, self.ranks(), self.n) as usize].push(rank);
        }
        groups
    }

    /// A job's view (one entry per rank) as one view per group.
    fn split(&self, view: &[Member]) -> Vec<Vec<Member>> {
        let members = self.members();
        members
            .iter()
            .map(|g| g.iter().map(|&r| view[r].clone()).collect())
            .collect()
    }

    pub fn label(&self) -> String {
        let (method, codec) = (self.method, self.codec.name());
        format!("{method:?}/{codec} {}x{}", self.groups, self.n)
    }

    fn ckpt(&self) -> CkptConfig {
        CkptConfig::new(JOB, self.method, A1, 16).with_codec(self.codec)
    }

    /// This rank's checkpointer: over the whole world for one group,
    /// over its group and synced job-wide for several.
    fn checkpointer<'c>(&self, ctx: &'c Ctx) -> Result<Checkpointer<'c>, Fault> {
        let world = ctx.world();
        if self.groups == 1 {
            return Ok(Checkpointer::init(world, self.ckpt()).0);
        }
        let me = world.rank();
        let group = world.split(group_color(me, self.ranks(), self.n), me)?;
        Ok(Checkpointer::init_synced(group, world, self.ckpt()).0)
    }
}

/// One rank's shared memory: every segment, sorted by name.
pub type Image = Vec<(String, SegmentData)>;
/// The ranks' memory at one instant (`None`: lost).
pub type State = Vec<Option<Arc<Image>>>;
/// The ranks' image hashes at one instant (`None`: lost).
type Snap = Vec<Option<u64>>;
/// Images by content hash, and the snapshots observed so far.
type Log = Arc<Mutex<(HashMap<u64, Arc<Image>>, Vec<Snap>)>>;

/// Hash `node`'s memory (names and payload bits), keeping a copy in
/// `images` the first time it is seen.
fn observe(images: &mut HashMap<u64, Arc<Image>>, cluster: &Cluster, node: usize) -> u64 {
    let shm = cluster.shm(node);
    let segs: Vec<_> = shm
        .names()
        .into_iter()
        .filter_map(|n| shm.attach(&n).map(|s| (n, s)))
        .collect();
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    let mut mix = |w: u64| h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29);
    for (name, seg) in &segs {
        name.bytes().for_each(|b| mix(u64::from(b)));
        match &*seg.read() {
            SegmentData::F64(v) => v.iter().for_each(|x| mix(x.to_bits())),
            SegmentData::Bytes(b) => b.iter().for_each(|&x| mix(u64::from(x))),
        };
    }
    images.entry(h).or_insert_with(|| {
        Arc::new(
            segs.iter()
                .map(|(n, s)| (n.clone(), s.read().clone()))
                .collect(),
        )
    });
    h
}

fn state_of(images: &HashMap<u64, Arc<Image>>, snap: &Snap) -> State {
    snap.iter()
        .map(|h| h.map(|h| Arc::clone(&images[&h])))
        .collect()
}

/// Install a per-step hook on `rt` logging each rank's memory (rank `i`
/// runs on `rl.node_of(i)`).
fn observe_steps(rt: &SimRuntime, cluster: &Arc<Cluster>, log: &Log, rl: Ranklist) {
    let (weak, log) = (Arc::downgrade(cluster), Arc::clone(log));
    rt.on_step(move |_| {
        if let Some(cluster) = weak.upgrade() {
            let (images, snaps) = &mut *log.lock().unwrap();
            snaps.push(
                (0..rl.len())
                    .map(|i| Some(observe(images, &cluster, rl.node_of(i))))
                    .collect(),
            );
        }
    });
}

fn segment<'a>(img: &'a Image, rank: usize, part: &str) -> Option<&'a SegmentData> {
    let name = format!("{JOB}/r{rank}/{part}");
    img.iter().find(|(n, _)| *n == name).map(|(_, d)| d)
}

fn f64s(seg: Option<&SegmentData>) -> &[f64] {
    match seg {
        Some(SegmentData::F64(v)) => v,
        _ => &[],
    }
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The header's commit words, or `None` when it is missing, truncated or
/// fails its CRC32C (four LE `u64` words, then the CRC of those 32 bytes).
fn decode_header(seg: Option<&SegmentData>) -> Option<Words> {
    let Some(SegmentData::Bytes(b)) = seg else {
        return None;
    };
    if b.len() < 36 || crc32c(&b[..32]).to_le_bytes() != b[32..36] {
        return None;
    }
    let w = |i: usize| u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().unwrap());
    Some(Words {
        d: w(0),
        bc: w(1),
        pair1: w(2),
        dirty: w(3),
    })
}

/// Segment suffix of each region of [`Reg::ALL`], in the order of the
/// stripe-CRC table — the protocol's on-disk layout: `n - 1` LE `u32`
/// slots per region.
const PARTS: [&str; 6] = ["work", "b", "c", "d", "b1", "c1"];

/// Rank `r`'s (workspace, parity) images right after its make of epoch
/// `e` committed; the parity is the region the model reads for the pair
/// whose commit word names `e`.
type Golden = BTreeMap<(usize, u64), (Vec<f64>, Vec<f64>)>;

/// The scenario's rank body: three makes over [`pattern`], each commit's
/// region images stored into `golden`. Its first action is an abort
/// check, like every action after a yield, so a rank first scheduled
/// after a loss changes nothing.
fn writer(ctx: &Ctx, cfg: &Config, golden: &Mutex<Golden>) -> Result<(), Fault> {
    ctx.check_abort()?;
    let rank = ctx.world_rank();
    let mut ck = cfg.checkpointer(ctx)?;
    for e in 1..=EPOCHS {
        ck.workspace().write().as_f64_mut()[..A1].copy_from_slice(&pattern(rank, e));
        ctx.failpoint("computing")?;
        ck.make(&e.to_le_bytes())?;
        let read = |part: &str| {
            let seg = ctx.shm().attach(&format!("{JOB}/r{rank}/{part}"));
            seg.expect("a protocol segment").read().clone()
        };
        let w = decode_header(Some(&read("header"))).expect("a committed header");
        let (_, _, parity) = model::pairs(cfg.method, w)
            .into_iter()
            .find(|&(word, _, _)| word == e)
            .expect("some pair is committed at e");
        let slot = Reg::ALL
            .iter()
            .position(|&r| r == parity)
            .expect("a region");
        let [work, parity] = ["work", PARTS[slot]].map(|p| f64s(Some(&read(p))).to_vec());
        golden.lock().unwrap().insert((rank, e), (work, parity));
    }
    Ok(())
}

/// One unarmed run of the scenario, observed before every step.
pub struct Recording {
    pub cfg: Config,
    pub seed: u64,
    pub steps: u64,
    images: HashMap<u64, Arc<Image>>,
    /// The snapshot before each step (index `step - 1`).
    snaps: Vec<Snap>,
    golden: Golden,
}

impl Recording {
    /// Run `cfg`'s scenario under `seed`, snapshotting before every step.
    pub fn new(cfg: Config, seed: u64) -> Recording {
        let rt = SimRuntime::new(seed);
        let cluster = Arc::new(Cluster::new_with_runtime(
            ClusterConfig::new(cfg.ranks(), 0),
            rt.clone(),
        ));
        let log = Log::default();
        let rl = Ranklist::round_robin(cfg.ranks(), cfg.ranks());
        observe_steps(&rt, &cluster, &log, rl.clone());
        let golden = Mutex::default();
        run_on_cluster(Arc::clone(&cluster), &rl, |ctx| writer(ctx, &cfg, &golden))
            .expect("the unarmed recording run completes");
        let (images, snaps) = std::mem::take(&mut *log.lock().unwrap());
        Recording {
            cfg,
            seed,
            steps: rt.steps(),
            images,
            snaps,
            golden: golden.into_inner().unwrap(),
        }
    }

    /// The distinct snapshots in first-seen order, each with the first
    /// step it was seen before.
    fn distinct(&self) -> Vec<(&Snap, u64)> {
        let mut seen = std::collections::HashSet::new();
        (1..)
            .zip(&self.snaps)
            .filter(|(_, s)| seen.insert(*s))
            .map(|(step, s)| (s, step))
            .collect()
    }

    /// The distinct job states, in first-seen order (what a loss
    /// sweep's [`Sweep::states`] indexes).
    pub fn states(&self) -> Vec<State> {
        self.distinct()
            .iter()
            .map(|(s, _)| state_of(&self.images, s))
            .collect()
    }

    /// What the model sees in a job state, rank by rank.
    pub fn view(&self, state: &State) -> Vec<Member> {
        (0..self.cfg.ranks())
            .map(|r| self.member(r, state[r].as_deref()))
            .collect()
    }

    /// The model's verdict for each group of a job state's view.
    pub fn model(&self, view: &[Member]) -> Result<Vec<Verdict>, String> {
        model::recover(self.cfg.method, self.cfg.m(), &self.cfg.split(view))
    }

    /// What the model sees in one rank's memory.
    fn member(&self, rank: usize, img: Option<&Image>) -> Member {
        let Some(img) = img.filter(|i| segment(i, rank, "work").is_some()) else {
            return Member::Gone;
        };
        let crcs = match segment(img, rank, "crc") {
            Some(SegmentData::Bytes(b)) => b.as_slice(),
            _ => &[],
        };
        let per = (self.cfg.n - 1) * 4;
        let stripe_len = f64s(segment(img, rank, "work")).len() / (self.cfg.n - self.cfg.m());
        let regions = (0..PARTS.len())
            .filter_map(|slot| {
                let (r, part) = (Reg::ALL[slot], PARTS[slot]);
                let data = f64s(Some(segment(img, rank, part)?));
                let fresh = stripe_crcs(data, stripe_len, KernelConfig::global());
                let stored = crcs.get(slot * per..slot * per + fresh.len() * 4);
                let witnessed = stored.is_some_and(|s| {
                    s.chunks_exact(4)
                        .zip(&fresh)
                        .all(|(w, c)| w == c.to_le_bytes())
                });
                let is_data = matches!(r, Reg::Work | Reg::B | Reg::B1);
                let epoch = (1..=EPOCHS).find(|&e| {
                    self.golden.get(&(rank, e)).is_some_and(|(work, parity)| {
                        bits_eq(if is_data { work } else { parity }, data)
                    })
                });
                Some((r, RegionState { epoch, witnessed }))
            })
            .collect();
        Member::Present {
            header: decode_header(segment(img, rank, "header")),
            regions,
        }
    }
}

/// `state` (or a snapshot) with the ranks in `lost` wiped.
pub fn lose<T: Clone>(state: &[Option<T>], lost: u32) -> Vec<Option<T>> {
    (0..state.len())
        .map(|i| state[i].clone().filter(|_| lost & (1 << i) == 0))
        .collect()
}

/// The model's [`Source`] of a protocol one.
fn source_of(source: RestoreSource) -> Source {
    match source {
        RestoreSource::WorkspaceAndChecksum => Source::Workspace,
        _ => Source::Checkpoint,
    }
}

/// One rank's recovery, judged on the rank: the verdict it reached (a
/// restore only if bit-exact with a passing parity check) and its
/// report, or why not.
fn recover_rank(
    ctx: &Ctx,
    cfg: &Config,
) -> Result<Result<(Verdict, Option<RecoveryReport>), String>, Fault> {
    ctx.check_abort()?;
    let rank = ctx.world_rank();
    let mut ck = cfg.checkpointer(ctx)?;
    let refused = |why| Ok((Verdict::Unrecoverable(why), None));
    Ok(match ck.recover() {
        Ok(Recovery::NoCheckpoint) => Ok((Verdict::NoCheckpoint, ck.last_report())),
        Ok(Recovery::Restored { epoch, a2, source }) => {
            let intact = ck.verify_integrity()?;
            let data = ck.workspace().read().as_f64()[..A1].to_vec();
            let exact = a2 == epoch.to_le_bytes() && bits_eq(&data, &pattern(rank, epoch));
            let source = source_of(source);
            match (exact, intact) {
                (true, true) => Ok((Verdict::Restored { epoch, source }, ck.last_report())),
                (false, _) => Err(format!("rank {rank} restored epoch {epoch}: wrong bytes")),
                (_, false) => Err(format!("rank {rank} restored epoch {epoch}: bad parity")),
            }
        }
        Err(RecoverError::Unrecoverable(msg)) if msg.contains("inconsistent") => {
            refused(Refusal::TornSingle)
        }
        // a group beyond repair refuses for the whole job
        Err(RecoverError::Unrecoverable(msg))
            if msg.contains("more than") || msg.contains("rebuild") || msg.contains("sibling") =>
        {
            refused(Refusal::TooManyErasures)
        }
        Err(RecoverError::Fault(f)) => return Err(f),
        Err(other) => Err(format!("rank {rank}: untyped refusal: {other}")),
    })
}

/// Whether `report` is the account of `verdict` over `group` under
/// `cfg`: a restore's epoch, source and method; as lost, the members
/// that came back without a valid header, with bytes rebuilt for them;
/// and as the header maxima, the group MAX of every commit word. No
/// restore, no report.
fn accounts_for(
    report: &Option<RecoveryReport>,
    verdict: Verdict,
    group: &[Member],
    cfg: &Config,
) -> bool {
    let (Verdict::Restored { epoch, source }, Some(r)) = (verdict, report) else {
        return report.is_none();
    };
    let (seen, max) = (&r.epochs_seen, model::seen(group));
    let lost = model::headerless(group);
    (r.epoch, source_of(r.source), r.method) == (epoch, source, cfg.method)
        && r.lost == lost
        && (r.rebuilt_bytes == 0) == lost.is_empty()
        && [seen.d, seen.bc, seen.pair1, seen.attempt] == [max.d, max.bc, max.pair1, max.dirty]
}

/// Launch recovery on every rank of `rl` over memory the model sees as
/// `view`: the verdict each group's ranks agreed on, or what went wrong
/// (a fault, a panic, a disagreement, a report that does not account
/// for the restore).
fn run_recovery(
    cluster: &Arc<Cluster>,
    rl: &Ranklist,
    cfg: &Config,
    view: &[Member],
) -> Result<Vec<Verdict>, String> {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_on_cluster(Arc::clone(cluster), rl, |ctx| recover_rank(ctx, cfg))
    }));
    let outs = match run {
        Ok(Ok(outs)) => outs,
        Ok(Err(f)) => return Err(format!("recovery faulted: {f:?}")),
        Err(p) => {
            let msg = p.downcast_ref::<String>().map(String::as_str);
            let msg = msg.or_else(|| p.downcast_ref::<&str>().copied());
            return Err(format!("recovery panicked: {}", msg.unwrap_or("?")));
        }
    };
    let mut verdicts = Vec::new();
    for (group, members) in cfg.members().into_iter().zip(cfg.split(view)) {
        let (first, _) = outs[group[0]].clone()?;
        for &rank in &group {
            let (verdict, report) = outs[rank].clone()?;
            if verdict != first {
                return Err(format!(
                    "rank {rank} got {verdict:?}, rank {} got {first:?}",
                    group[0]
                ));
            }
            if !accounts_for(&report, verdict, &members, cfg) {
                return Err(format!("rank {rank}: {verdict:?} but report {report:?}"));
            }
        }
        verdicts.push(first);
    }
    Ok(verdicts)
}

/// Recover `state` on a fresh cluster restored from it; with `log`, the
/// recovery's own steps are observed into it.
fn recover_state(
    rec: &Recording,
    state: &State,
    log: Option<&Log>,
) -> Result<Vec<Verdict>, String> {
    let ranks = rec.cfg.ranks();
    let rt = SimRuntime::new(rec.seed);
    let cluster = Arc::new(Cluster::new_with_runtime(
        ClusterConfig::new(ranks, ranks),
        rt.clone(),
    ));
    for (node, img) in state.iter().enumerate() {
        match img {
            Some(img) => img.iter().for_each(|(name, data)| {
                let _ = cluster.shm(node).get_or_create(name, || data.clone());
            }),
            None => cluster.kill_node(node),
        }
    }
    cluster.reset_abort();
    let mut rl = Ranklist::round_robin(ranks, ranks);
    rl.repair(&cluster).expect("enough spares");
    if let Some(log) = log {
        observe_steps(&rt, &cluster, log, rl.clone());
    }
    run_recovery(&cluster, &rl, &rec.cfg, &rec.view(state))
}

/// Recover `state` on a fresh cluster: the verdict each group's ranks
/// agreed on (restores and their reports checked), or what went wrong.
pub fn recover(rec: &Recording, state: &State) -> Result<Vec<Verdict>, String> {
    recover_state(rec, state, None)
}

/// [`recover`], also returning the memory before every step of it.
pub fn recover_observed(
    rec: &Recording,
    state: &State,
) -> (Result<Vec<Verdict>, String>, Vec<State>) {
    let log = Log::default();
    let verdicts = recover_state(rec, state, Some(&log));
    let (images, snaps) = &*log.lock().unwrap();
    (
        verdicts,
        snaps.iter().map(|s| state_of(images, s)).collect(),
    )
}

/// A job's verdicts as the report prints them: one per group, `" | "`
/// between groups.
fn show(verdicts: &[Verdict]) -> String {
    let shown: Vec<String> = verdicts.iter().map(|v| format!("{v:?}")).collect();
    shown.join(" | ")
}

/// The result of one enumeration.
#[derive(Default)]
pub struct Sweep {
    pub name: String,
    /// Ranks of the job.
    pub ranks: usize,
    /// Scheduling steps observed (every recorded run's).
    pub steps: u64,
    /// Kill instants covered: (observed step, loss set) pairs.
    pub instants: u64,
    /// The distinct pre-loss job states, as the model sees them.
    pub states: Vec<Vec<Member>>,
    /// (pre-loss state, loss set, per-group verdicts) of each distinct
    /// crash state, in first-seen order.
    pub cases: Vec<(usize, u32, Vec<Verdict>)>,
    /// The verdicts of every (pre-loss state, loss set) covered, equal
    /// crash states included.
    pub table: HashMap<(usize, u32), Vec<Verdict>>,
    /// Disagreements with the model, broken invariants and panics.
    pub findings: Vec<String>,
}

impl Sweep {
    fn new(rec: &Recording, what: &str) -> Sweep {
        let name = format!("{} seed={} {what}", rec.cfg.label(), rec.seed);
        Sweep {
            name,
            ranks: rec.cfg.ranks(),
            steps: rec.steps,
            ..Sweep::default()
        }
    }

    /// The model's view of pre-loss state `pre` with `lost` gone.
    pub fn view(&self, pre: usize, lost: u32) -> Vec<Member> {
        let mut v = self.states[pre].clone();
        (0..self.ranks)
            .filter(|i| lost & (1 << i) != 0)
            .for_each(|i| v[i] = Member::Gone);
        v
    }

    /// Recover `state` (pre-loss state `pre` minus `lost`) and judge it
    /// against the model; record the case, or the finding.
    fn judge(
        &mut self,
        rec: &Recording,
        state: &State,
        pre: usize,
        lost: u32,
        log: Option<&Log>,
    ) -> Option<Vec<Verdict>> {
        let view = rec.view(state);
        let got = recover_state(rec, state, log);
        let tag = format!("{} state {pre} lost {lost:b}: {view:?}", self.name);
        match rec.model(&view) {
            Ok(want) if got.as_ref() == Ok(&want) => {
                self.table.insert((pre, lost), want.clone());
                self.cases.push((pre, lost, want.clone()));
                return Some(want);
            }
            Ok(want) => self
                .findings
                .push(format!("{tag}\n  model: {want:?}\n  recovery: {got:?}")),
            Err(broken) => self
                .findings
                .push(format!("{tag}\n  invariant: {broken}\n  recovery: {got:?}")),
        }
        None
    }

    /// Fail with the first findings, if there are any.
    pub fn assert_clean(&self) {
        assert!(
            self.findings.is_empty(),
            "{}: {} finding(s); first:\n{}",
            self.name,
            self.findings.len(),
            self.findings[..self.findings.len().min(3)].join("\n")
        );
    }

    /// The report block: sizes, verdict histogram, and a hash of the
    /// per-state verdicts in first-seen order.
    pub fn block(&self) -> String {
        let mut hist = BTreeMap::new();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (pre, lost, v) in &self.cases {
            *hist.entry(v).or_insert(0) += 1;
            for b in format!("{pre}|{lost}|{};", show(v)).bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut s = format!(
            "{}: steps={} group_states={} kill_instants={} crash_states={} findings={}\n",
            self.name,
            self.steps,
            self.states.len(),
            self.instants,
            self.cases.len(),
            self.findings.len()
        );
        hist.iter()
            .for_each(|(v, n)| s.push_str(&format!("  {}: {n}\n", show(v))));
        s + &format!("  verdicts={h:016x}\n")
    }
}

/// At every distinct state of `rec`, lose every set of ranks whose size
/// is in `sizes` at once; recover each distinct crash state once.
pub fn loss_sweep(rec: &Recording, sizes: std::ops::RangeInclusive<usize>) -> Sweep {
    let sets: Vec<u32> = (1..=rec.cfg.all())
        .filter(|l| sizes.contains(&(l.count_ones() as usize)))
        .collect();
    let what = format!("losses={}..={}", sizes.start(), sizes.end());
    sets_sweep(rec, &what, &sets)
}

/// At every distinct state of `rec`, lose each of `sets` at once;
/// recover each distinct crash state once.
pub fn sets_sweep(rec: &Recording, what: &str, sets: &[u32]) -> Sweep {
    let mut sweep = Sweep::new(rec, what);
    sweep.instants = rec.steps * sets.len() as u64;
    let mut seen = HashMap::new();
    for (snap, _) in rec.distinct() {
        let state = state_of(&rec.images, snap);
        let pre = sweep.states.len();
        sweep.states.push(rec.view(&state));
        for &lost in sets {
            let verdicts = seen
                .entry(lose(snap, lost))
                .or_insert_with(|| sweep.judge(rec, &lose(&state, lost), pre, lost, None))
                .clone();
            if let Some(v) = verdicts {
                sweep.table.insert((pre, lost), v);
            }
        }
    }
    print!("{}", sweep.block()); // shown under --nocapture
    sweep
}

/// The distinct single-loss crash states of `rec` whose victim is in
/// `victims`, in first-seen order: (snapshot minus the victim, the first
/// step it was seen before, victim).
fn single_losses(rec: &Recording, victims: u32) -> Vec<(Snap, u64, usize)> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for (snap, step) in rec.distinct() {
        for v in (0..rec.cfg.ranks()).filter(|v| victims & (1 << v) != 0) {
            if seen.insert(lose(snap, 1 << v)) {
                out.push((lose(snap, 1 << v), step, v));
            }
        }
    }
    out
}

/// Second losses: recover every distinct single-loss state of `rec`
/// whose victim is in `victims` while observing the recovery's steps,
/// then lose each rank at every one of them and recover each distinct
/// resulting state once.
pub fn pair_sweep(rec: &Recording, victims: u32) -> Sweep {
    let what = format!("pairs first={victims:0w$b}", w = rec.cfg.ranks());
    let mut sweep = Sweep::new(rec, &what);
    let log = Log::default();
    let mut firsts = Sweep::new(rec, &what);
    for (i, (snap, _, v)) in single_losses(rec, victims).into_iter().enumerate() {
        firsts.states.push(Vec::new());
        firsts.judge(rec, &state_of(&rec.images, &snap), i, 1 << v, Some(&log));
    }
    let (images, snaps) = std::mem::take(&mut *log.lock().unwrap());
    sweep.steps = snaps.len() as u64;
    sweep.instants = sweep.steps * sweep.ranks as u64;
    sweep.findings = firsts.findings;
    let mut pre_of: HashMap<&Snap, usize> = HashMap::new();
    let mut seen = std::collections::HashSet::new();
    for snap in &snaps {
        for j in 0..sweep.ranks {
            if !seen.insert(lose(snap, 1 << j)) {
                continue;
            }
            let state = state_of(&images, snap);
            let pre = *pre_of.entry(snap).or_insert_with(|| {
                sweep.states.push(rec.view(&state));
                sweep.states.len() - 1
            });
            sweep.judge(rec, &lose(&state, 1 << j), pre, 1 << j, None);
        }
    }
    print!("{}", sweep.block()); // shown under --nocapture
    sweep
}

/// At every distinct single-loss state, flip one bit in each region of
/// each survivor — the middle element of every `f64` region, the low bit
/// of the header's `(B, C)` word — and recover.
pub fn flip_sweep(rec: &Recording) -> Sweep {
    let mut sweep = Sweep::new(rec, "flips");
    for (pre, (snap, _, v)) in single_losses(rec, rec.cfg.all()).into_iter().enumerate() {
        let state = state_of(&rec.images, &snap);
        sweep.states.push(rec.view(&state));
        for i in (0..sweep.ranks).filter(|&i| i != v) {
            let img = state[i].as_ref().expect("a survivor");
            for k in (0..img.len()).filter(|&k| !img[k].0.ends_with("/crc")) {
                let mut hit = (**img).clone();
                match &mut hit[k].1 {
                    SegmentData::F64(d) => {
                        let mid = d.len() / 2;
                        d[mid] = f64::from_bits(d[mid].to_bits() ^ 1);
                    }
                    SegmentData::Bytes(b) => b[8] ^= 1,
                }
                let mut flipped = state.clone();
                flipped[i] = Some(Arc::new(hit));
                sweep.instants += 1;
                sweep.judge(rec, &flipped, pre, 1 << v, None);
            }
        }
    }
    print!("{}", sweep.block()); // shown under --nocapture
    sweep
}

/// The memory every node of `cluster` holds now (`None`: dead node).
fn snap_of(cluster: &Cluster, ranks: usize, images: &mut HashMap<u64, Arc<Image>>) -> Snap {
    (0..ranks)
        .map(|i| Some(observe(images, cluster, i)).filter(|_| cluster.node_alive(i)))
        .collect()
}

/// What a loss left: every rank's result of the scenario, the memory
/// left behind, the model's verdicts for it, and the recovery's.
struct Aftermath {
    outs: Vec<Result<(), Fault>>,
    left: Snap,
    want: Result<Vec<Verdict>, String>,
    got: Result<Vec<Verdict>, String>,
}

/// Run the scenario on `cluster` (armed to lose a node), power off the
/// nodes in `also` once the job aborted, read the memory left, and
/// recover on the same cluster once the lost nodes are replaced.
fn run_to_loss(rec: &Recording, cluster: &Arc<Cluster>, also: u32) -> Aftermath {
    let (golden, cfg) = (Mutex::default(), rec.cfg);
    let mut rl = Ranklist::round_robin(cfg.ranks(), cfg.ranks());
    let outs = run_on_cluster(Arc::clone(cluster), &rl, |ctx| {
        Ok(writer(ctx, &cfg, &golden))
    })
    .expect("every rank returns its own result");
    (0..cfg.ranks())
        .filter(|i| also & (1 << i) != 0)
        .for_each(|i| cluster.kill_node(i));
    let mut images = HashMap::new();
    let left = snap_of(cluster, cfg.ranks(), &mut images);
    let view = rec.view(&state_of(&images, &left));
    let want = rec.model(&view);
    cluster.reset_abort();
    rl.repair(cluster).expect("a spare");
    let got = run_recovery(cluster, &rl, &cfg, &view);
    Aftermath {
        outs,
        left,
        want,
        got,
    }
}

/// The premise, checked live: for every distinct single-loss state of
/// `rec` whose verdicts `pick` selects, rerun the scenario and power the
/// victim off through the hook at the step the state was first seen.
/// Every rank still running must return `NodeDead(victim)`, the memory
/// left behind must be that snapshot minus the victim, and its recovery
/// on the same cluster must match the model. Panics with the findings;
/// returns the number of live kills.
pub fn live_kills(rec: &Recording, pick: impl Fn(Verdict) -> bool) -> usize {
    let mut findings = Vec::new();
    let mut kills = 0;
    for (snap, step, v) in single_losses(rec, rec.cfg.all()) {
        let want = match rec.model(&rec.view(&state_of(&rec.images, &snap))) {
            Ok(want) if want.iter().all(|&w| pick(w)) => want,
            _ => continue, // not selected, or the sweeps' finding
        };
        kills += 1;
        let rt = SimRuntime::new(rec.seed);
        let cluster = Arc::new(Cluster::new_with_runtime(
            ClusterConfig::new(rec.cfg.ranks(), 1),
            rt.clone(),
        ));
        let weak = Arc::downgrade(&cluster);
        rt.on_step(move |s| {
            if let (true, Some(c)) = (s == step, weak.upgrade()) {
                c.kill_node(v);
            }
        });
        let after = run_to_loss(rec, &cluster, 0);
        // a rank still running at the kill names the victim; one that
        // had already returned kept its result
        let outs = &after.outs;
        let named = outs.contains(&Err(Fault::NodeDead(v)));
        let attributed = outs
            .iter()
            .all(|o| *o == Ok(()) || *o == Err(Fault::NodeDead(v)));
        if !(named && attributed && after.left == snap && after.got == Ok(want.clone())) {
            findings.push(format!(
                "{} live kill of node {v} before step {step}: ranks {outs:?}, memory \
                 left {}, model {want:?}, recovery {:?}",
                rec.cfg.label(),
                if after.left == snap {
                    "as snapshotted"
                } else {
                    "differs"
                },
                after.got,
            ));
        }
    }
    assert!(findings.is_empty(), "{}", findings.join("\n"));
    kills
}

/// One real-runtime cell: arm `plan` (a kill) under the real runtime,
/// run the scenario to the loss, power off the nodes in `also` while the
/// job aborts, read the memory left behind and recover on the same
/// cluster. The model, reading that memory, is the oracle. `None` when
/// the plan never fired (the method has no such probe); otherwise the
/// model's verdicts, or the disagreement.
pub fn probe_cell(
    rec: &Recording,
    plan: FailurePlan,
    also: u32,
) -> Option<Result<Vec<Verdict>, String>> {
    let spares = 1 + also.count_ones() as usize;
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(rec.cfg.ranks(), spares)));
    cluster.arm_failure(plan);
    let after = run_to_loss(rec, &cluster, also);
    if after.outs.iter().all(Result::is_ok) {
        return None;
    }
    Some(match after.want {
        Err(broken) => Err(format!("invariant: {broken}")),
        Ok(want) if after.got.as_ref() == Ok(&want) => Ok(want),
        Ok(want) => Err(format!("model {want:?}, recovery {:?}", after.got)),
    })
}
