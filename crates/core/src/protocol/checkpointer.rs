//! The [`Checkpointer`] front end: segment lifecycle, the collective
//! `make`/`recover` entry points, and the shared mechanics the methods'
//! `make`/`restore` sequences (`methods`) build on. Durable state moves
//! only through the sequenced ops of [`super::ops`], sealed via
//! [`Checkpointer::seal`] so every commit lands in the audit trail.

use super::header::{self, Header, HeaderState};
use super::ops::{self, OpRecord};
use super::planner::{self, SurvivorView};
use super::report::RecoveryReport;
use super::table::{slot, MethodTable, SLOTS};
use super::{
    crc_table_bytes, CkptConfig, CkptStats, Phase, RecoverError, Recovery, RECOVER_PHASE_LABEL,
    RECOVER_PLAN_PROBE,
};
use crate::memory::Method;
use skt_cluster::{segment_name, Event, EventBus, Region, SegmentData, ShmSegment, Stopwatch};
use skt_encoding::{ErasureCodec, GroupLayout};
use skt_mps::{Comm, Fault, Payload, ReduceOp};
use std::time::Duration;

use crate::engine::{encode_parity_stripes, give_back};

/// An in-flight phase observation; [`PhaseSpan::end`] emits the matching
/// [`Event::PhaseExit`].
pub(crate) struct PhaseSpan {
    bus: EventBus,
    label: &'static str,
    epoch: u64,
    t0: Stopwatch,
}

impl PhaseSpan {
    pub(crate) fn end(self) {
        self.bus.emit(Event::PhaseExit {
            label: self.label,
            epoch: self.epoch,
            elapsed: self.t0.elapsed(),
        });
    }
}

/// How [`Checkpointer::seal`] commits an op: forward inside `make`
/// ([`ops::apply`]), or replayed — detect first, skip what already
/// committed ([`ops::replay`]) — inside a restore, a scrub or a reset.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Pass {
    Make,
    Replay,
}

/// One rank's checkpointer, bound to its group communicator.
///
/// When the application runs **multiple groups**, commits must be
/// *globally* consistent: all groups checkpoint the same epoch, and after
/// a failure every group must restore the *same* epoch. Pass the job-wide
/// communicator via [`Checkpointer::init_synced`]; it adds a cross-group
/// barrier between the checksum commit and the flush, in `make` and in a
/// roll-forward restore (so no group starts overwriting its old
/// checkpoint while another could still force a rollback past it), and
/// recovery agrees on the global minimum of the groups' restorable
/// epochs.
pub struct Checkpointer<'c> {
    pub(super) comm: Comm<'c>,
    pub(super) sync: Option<Comm<'c>>,
    pub(super) cfg: CkptConfig,
    pub(super) table: &'static MethodTable,
    pub(super) codec: &'static dyn ErasureCodec,
    pub(super) bus: EventBus,
    pub(super) layout: GroupLayout,
    pub(super) b2_words: usize,
    /// The method's `f64` segments, indexed by [`slot`].
    pub(super) segs: [Option<ShmSegment>; SLOTS],
    pub(super) header: ShmSegment,
    pub(super) crc: ShmSegment,
    pub(super) attached: bool,
    pub(super) epoch: u64,
    pub(super) last_report: Option<RecoveryReport>,
    pub(super) op_trail: Vec<OpRecord>,
}

impl<'c> Checkpointer<'c> {
    /// Create or re-attach this rank's segments. Returns the checkpointer
    /// and whether existing segments were found (i.e. this is a restart
    /// of a surviving rank). Single-group form; for multi-group jobs use
    /// [`Self::init_synced`].
    pub fn init(comm: Comm<'c>, cfg: CkptConfig) -> (Self, bool) {
        Self::init_inner(comm, None, cfg)
    }

    /// Like [`Self::init`], with a job-wide communicator for cross-group
    /// commit synchronization and recovery agreement. Every rank of the
    /// job must use the same `sync` communicator and issue `make`/
    /// `recover` collectively across the whole job.
    pub fn init_synced(comm: Comm<'c>, sync: Comm<'c>, cfg: CkptConfig) -> (Self, bool) {
        Self::init_inner(comm, Some(sync), cfg)
    }

    fn init_inner(comm: Comm<'c>, sync: Option<Comm<'c>>, cfg: CkptConfig) -> (Self, bool) {
        assert!(cfg.a1_len > 0, "workspace must be non-empty");
        let table = MethodTable::of(cfg.method);
        let codec = cfg.codec.resolve();
        let n = comm.size();
        let b2_words = 1 + cfg.a2_capacity.div_ceil(8);
        let layout = GroupLayout::new_with_parity(n, codec.parity_count(), cfg.a1_len + b2_words);
        let padded = layout.padded_len();
        let parity = layout.parity_len();
        let ctx = comm.ctx();
        let bus = ctx.cluster().events().clone();
        let me = ctx.world_rank();
        let shm = ctx.shm();
        let pool = ctx.cluster().pool();
        let seg_name = |part: &str| segment_name(&cfg.name, me, part);

        let mut segs: [Option<ShmSegment>; SLOTS] = Default::default();
        let mut attached = false;
        for (r, is_parity) in table.regions() {
            let len = if is_parity { parity } else { padded };
            // a powered-off node's memory, zeroed, when the pool has it
            let (seg, found) = shm.get_or_create(&seg_name(r.suffix()), || {
                SegmentData::F64(pool.take_zeroed(len))
            });
            if r == Region::Work {
                attached = found;
            }
            segs[slot(r).expect("every table region owns a slot")] = Some(seg);
        }
        let (header, _) = shm.get_or_create(&seg_name("header"), || {
            SegmentData::Bytes(header::fresh_bytes())
        });
        let (crc, _) = shm.get_or_create(&seg_name("crc"), || {
            SegmentData::Bytes(vec![0u8; crc_table_bytes(n)])
        });

        // A header that fails its CRC on re-attach proves nothing; start
        // from epoch 0 and let recovery fold this rank into the
        // lost-member path rather than trusting forged commit words.
        let h = match Header::classify(&header) {
            HeaderState::Valid(h) => h,
            HeaderState::Invalid(_) => Header::default(),
        };
        let epoch = table.resume_epoch(&h);
        (
            Checkpointer {
                comm,
                sync,
                cfg,
                table,
                codec,
                bus,
                layout,
                b2_words,
                segs,
                header,
                crc,
                attached,
                epoch,
                last_report: None,
                op_trail: Vec::new(),
            },
            attached,
        )
    }

    /// Handle to the workspace segment. The application reads/writes the
    /// first [`Self::a1_len`] elements; the tail is protocol-owned (`B2`).
    pub fn workspace(&self) -> ShmSegment {
        ShmSegment::clone(self.seg(Region::Work))
    }

    /// Application-visible workspace length (elements).
    pub fn a1_len(&self) -> usize {
        self.cfg.a1_len
    }

    /// The stripe geometry in use.
    pub fn layout(&self) -> &GroupLayout {
        &self.layout
    }

    /// Group communicator.
    pub fn comm(&self) -> &Comm<'c> {
        &self.comm
    }

    /// Last committed epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The protocol method in use.
    pub fn method(&self) -> Method {
        self.cfg.method
    }

    /// Job-wide minimum agreement (sync communicator when present,
    /// group otherwise).
    pub fn agree_min(&self, v: i64) -> Result<i64, Fault> {
        let comm = self.sync.as_ref().unwrap_or(&self.comm);
        Ok(comm
            .allreduce(ReduceOp::Min, Payload::I64(vec![v]))?
            .into_i64()[0])
    }

    /// Whether init re-attached to pre-existing segments.
    pub fn attached(&self) -> bool {
        self.attached
    }

    /// The report of the last successful [`Self::recover`] restore, if
    /// any ([`Recovery::NoCheckpoint`] leaves none).
    pub fn last_report(&self) -> Option<RecoveryReport> {
        self.last_report.clone()
    }

    /// The sequenced-op audit trail of the last collective entry point
    /// (`make`, `recover`, or `scrub`): which commit points were
    /// applied, detected already-`Done` and skipped, or replayed.
    pub fn op_trail(&self) -> &[OpRecord] {
        &self.op_trail
    }

    /// Total SHM bytes this rank's protocol state occupies (workspace
    /// included) — compared against Table 1 in tests.
    pub fn shm_bytes(&self) -> usize {
        self.segs
            .iter()
            .flatten()
            .chain([&self.header, &self.crc])
            .map(|s| s.read().size_bytes())
            .sum()
    }

    // ---- shared mechanics used by the methods' make/restore sequences ----

    /// The SHM segment backing a corruptible [`Region`], when this
    /// method allocates it (`None` for the header, which embeds its own
    /// CRC, and for the other methods' absent segments).
    pub(super) fn region_seg(&self, r: Region) -> Option<&ShmSegment> {
        self.segs[slot(r)?].as_ref()
    }

    /// [`Self::region_seg`] for a region the method's own table row
    /// names.
    pub(super) fn seg(&self, r: Region) -> &ShmSegment {
        self.region_seg(r)
            .expect("region named by the method's table row is allocated")
    }

    /// A [`Stopwatch`] on the cluster's clock — all protocol timing goes
    /// through this so reports reproduce bit-for-bit under simulation.
    pub(crate) fn clock(&self) -> Stopwatch {
        self.comm.ctx().stopwatch()
    }

    /// Emit a phase-enter event and start its clock.
    pub(super) fn span(&self, p: Phase, e: u64) -> PhaseSpan {
        self.bus.emit(Event::PhaseEnter {
            label: p.label(),
            epoch: e,
        });
        PhaseSpan {
            bus: self.bus.clone(),
            label: p.label(),
            epoch: e,
            t0: self.clock(),
        }
    }

    /// Commit `op` against this checkpointer as `pass` says and record it
    /// in the audit trail. The one gate every durable protocol mutation
    /// passes through.
    pub(super) fn seal<Op>(&mut self, pass: Pass, op: Op) -> Result<ops::Committed, Fault>
    where
        Op: ops::SequencedOp<Self>,
    {
        let tok = match pass {
            Pass::Make => ops::apply(op, self)?,
            Pass::Replay => ops::replay(op, self)?,
        };
        self.op_trail.push(tok.record().clone());
        Ok(tok)
    }

    /// This group's parity of region `r`'s contents (one ring
    /// reduce-scatter), one stripe per role this rank owns, in pool
    /// buffers the caller gives back (`engine::give_back`). When `probe`
    /// is set the failure probe fires after each ring fold and each
    /// delivered stripe — `n` times per call. The region's read guard is
    /// taken per fold and dropped before the probe: a corrupt plan firing
    /// there write-locks this very segment on this very thread.
    pub(super) fn encode_of(&self, r: Region, probe: Option<&str>) -> Result<Vec<Vec<f64>>, Fault> {
        let lend = |fold: &mut dyn FnMut(&[f64])| {
            fold(self.seg(r).read().try_as_f64()?);
            Ok(())
        };
        encode_parity_stripes(&self.comm, &self.layout, self.codec, lend, probe)
    }

    /// Fire a labeled failure-injection probe (a phase's, or a
    /// recovery-path yield point).
    pub(crate) fn probe(&self, label: &str) -> Result<(), Fault> {
        self.comm.ctx().failpoint(label)
    }

    pub(super) fn write_b2(&self, a2: &[u8]) -> Result<(), Fault> {
        assert!(
            a2.len() <= self.cfg.a2_capacity,
            "a2 ({} bytes) exceeds capacity ({})",
            a2.len(),
            self.cfg.a2_capacity
        );
        debug_assert!(a2.len().div_ceil(8) < self.b2_words, "B2 region overflow");
        let mut g = self.seg(Region::Work).write();
        let v = g.try_as_f64_mut()?;
        if v.len() < self.cfg.a1_len + self.b2_words {
            return Err(Fault::Protocol("workspace segment wiped or truncated"));
        }
        let base = self.cfg.a1_len;
        v[base] = f64::from_bits(a2.len() as u64);
        for (w, chunk) in a2.chunks(8).enumerate() {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            v[base + 1 + w] = f64::from_bits(u64::from_le_bytes(word));
        }
        Ok(())
    }

    /// Read the small-state area (`A2`) parked in a raw workspace image
    /// without constructing a checkpointer: `data` is a segment's f64
    /// view, `a1_len` the application region length, `a2_capacity` the
    /// capacity the writer was configured with. Returns `None` when the
    /// image is truncated or its length word is out of range (a torn or
    /// never-written boundary) — the service's resize harvest uses this
    /// to learn which panel a tenant's boundary checkpoint parked at,
    /// and a `None` is a typed refusal, never a panic.
    pub fn peek_a2(data: &[f64], a1_len: usize, a2_capacity: usize) -> Option<Vec<u8>> {
        let b2_words = 1 + a2_capacity.div_ceil(8);
        if data.len() < a1_len + b2_words {
            return None;
        }
        let len = data[a1_len].to_bits() as usize;
        if len > a2_capacity {
            return None;
        }
        Some(Self::read_b2(data, a1_len, a2_capacity))
    }

    pub(super) fn read_b2(data: &[f64], a1_len: usize, a2_capacity: usize) -> Vec<u8> {
        let len = data[a1_len].to_bits() as usize;
        assert!(len <= a2_capacity, "corrupt B2 length {len}");
        let mut out = Vec::with_capacity(len);
        let mut w = 0;
        while out.len() < len {
            let word = data[a1_len + 1 + w].to_bits().to_le_bytes();
            let take = (len - out.len()).min(8);
            out.extend_from_slice(&word[..take]);
            w += 1;
        }
        out
    }

    pub(super) fn stats(&self, e: u64, encode: Duration, flush: Duration) -> CkptStats {
        CkptStats {
            epoch: e,
            encode,
            flush,
            checkpoint_bytes: self.layout.padded_len() * 8,
            checksum_bytes: self.layout.parity_len() * 8,
        }
    }

    pub(super) fn sync_barrier(&self) -> Result<(), Fault> {
        match &self.sync {
            Some(s) => s.barrier(),
            None => self.comm.barrier(),
        }
    }

    /// Exchange `(fresh, header words)` across the group: one
    /// [`SurvivorView`] per member, in group-rank order. A header that
    /// fails its CRC proves nothing: its rank is advertised as fresh —
    /// like one that came up `detached`, without segments — so the
    /// planner rebuilds it instead of trusting forged epochs.
    pub(super) fn gather_views(&self, detached: bool) -> Result<Vec<SurvivorView>, Fault> {
        let (h, fresh) = match Header::classify(&self.header) {
            HeaderState::Valid(h) => (h, detached),
            HeaderState::Invalid(_) => (Header::default(), true),
        };
        let w = h.words().map(|w| w as i64);
        let mine = Payload::I64(vec![fresh as i64, w[0], w[1], w[2], w[3]]);
        Ok(self
            .comm
            .allgather(mine)?
            .into_iter()
            .map(Payload::into_i64)
            .map(|v| SurvivorView {
                fresh: v[0] != 0,
                header: Header {
                    d_epoch: v[1] as u64,
                    bc_epoch: v[2] as u64,
                    pair1_epoch: v[3] as u64,
                    dirty_epoch: v[4] as u64,
                },
            })
            .collect())
    }

    /// One job-wide allreduce combining the unrecoverable flag (Min of
    /// its negation) and the restore epoch (Min).
    pub(super) fn global_agree(
        &self,
        unrec: bool,
        proposal: u64,
    ) -> Result<(bool, u64), RecoverError> {
        match &self.sync {
            None => Ok((unrec, proposal)),
            Some(s) => {
                let v = s
                    .allreduce(
                        ReduceOp::Min,
                        Payload::I64(vec![-(unrec as i64), proposal as i64]),
                    )?
                    .into_i64();
                Ok((v[0] < 0, v[1] as u64))
            }
        }
    }

    // ---- the collective protocol entry points ----

    /// Make a checkpoint of the current workspace plus the serialized
    /// small state `a2`. Collective over the group.
    pub fn make(&mut self, a2: &[u8]) -> Result<CkptStats, Fault> {
        let e = self.epoch + 1;
        self.op_trail.clear();
        // Entry barrier: no rank may start dirtying protocol state until
        // the whole job reached the checkpoint. This pins the "failure
        // during computation" case to a state where every rank's segments
        // are quiescent, and keeps the epoch counter job-wide.
        self.sync_barrier()?;
        let sp = self.span(Phase::Serialize, e);
        self.write_b2(a2)?;
        sp.end();
        self.probe(Phase::Serialize.label())?;
        let stats = self.make_phases(e)?;
        self.epoch = e;
        self.probe(Phase::Done.label())?;
        Ok(stats)
    }

    /// Collective recovery after a restart. Up to the codec's parity
    /// count of group members may have lost their segments (fresh nodes)
    /// or hold silently corrupted data — the CRC verification folds
    /// damaged survivors into the erasure set. On success the workspace
    /// segment holds the restored data and [`Self::last_report`] the
    /// decision trail.
    ///
    /// The whole call runs inside the [`RECOVER_PHASE_LABEL`] phase span.
    /// A second node may be lost at any of its yield points; every
    /// durable step is a sequenced op ([`super::ops`]), so a
    /// *re-entered* recovery detects which steps already committed and
    /// skips them instead of redoing their work, and the audit trail of
    /// that detect/replay pass lands in [`RecoveryReport::ops`].
    pub fn recover(&mut self) -> Result<Recovery, RecoverError> {
        let t0 = self.clock();
        self.bus.emit(Event::PhaseEnter {
            label: RECOVER_PHASE_LABEL,
            epoch: self.epoch,
        });
        let out = self.recover_inner(&t0);
        self.bus.emit(Event::PhaseExit {
            label: RECOVER_PHASE_LABEL,
            epoch: self.epoch,
            elapsed: t0.elapsed(),
        });
        out
    }

    fn recover_inner(&mut self, t0: &Stopwatch) -> Result<Recovery, RecoverError> {
        self.last_report = None;
        self.op_trail.clear();
        let views = self.gather_views(!self.attached)?;
        let m = self.layout.parity_count();
        let plan = planner::plan_recovery(self.cfg.method, &views, m);
        self.probe(RECOVER_PLAN_PROBE)?;

        // Job-wide agreement: any torn / over-failed group dooms the
        // whole job; otherwise every group restores the global MINIMUM of
        // the proposals (the cross-group gate in `make` guarantees the
        // minimum is restorable by everyone — see init_synced docs).
        let (unrec, target) = self.global_agree(plan.multi_loss || plan.torn, plan.proposal)?;
        if unrec {
            return Err(RecoverError::Unrecoverable(if plan.torn {
                "single-checkpoint: failure during checkpoint update left (B, C) inconsistent"
                    .into()
            } else if m == 1 {
                "a group lost more than one member (or a peer group is unrecoverable)".into()
            } else {
                format!("a group lost more than {m} members (or a peer group is unrecoverable)")
            }));
        }
        if target == 0 {
            // no epoch ever committed job-wide (or a whole group's state
            // vanished): start over from scratch
            self.reset()?;
            self.sync_barrier().map_err(RecoverError::Fault)?;
            return Ok(Recovery::NoCheckpoint);
        }

        let source = self.restore(&plan.lost, target, &plan.maxima)?;
        let a2 = {
            let g = self.seg(Region::Work).read();
            Self::read_b2(g.try_as_f64()?, self.cfg.a1_len, self.cfg.a2_capacity)
        };
        self.epoch = target;
        self.attached = true;
        self.comm.barrier()?;
        // keep all groups aligned before the application resumes
        self.sync_barrier()?;
        let per_rank = ((self.layout.padded_len() + self.layout.parity_len()) * 8) as u64;
        let rebuilt_bytes = plan.lost.len() as u64 * per_rank;
        self.bus.emit(Event::RecoveryDecision {
            source: source.name(),
            epoch: target,
            rebuilt_bytes,
        });
        self.last_report = Some(RecoveryReport {
            method: self.cfg.method,
            source,
            epoch: target,
            lost: plan.lost,
            epochs_seen: plan.maxima,
            rebuilt_bytes,
            elapsed: t0.elapsed(),
            ops: self.op_trail.clone(),
        });
        Ok(Recovery::Restored {
            epoch: target,
            a2,
            source,
        })
    }

    /// Abandon all checkpoint state: zero the commit markers so future
    /// recoveries see "no checkpoint" and the application regenerates
    /// from scratch. Used when recovery reports
    /// [`RecoverError::Unrecoverable`] (e.g. the single-checkpoint
    /// baseline torn mid-update) and the caller restarts the computation.
    /// A wiped header segment is a [`Fault`], not a panic.
    pub fn reset(&mut self) -> Result<(), Fault> {
        let _zeroed = self.seal(Pass::Replay, ops::MarkerReset)?;
        self.epoch = 0;
        self.attached = true;
        Ok(())
    }

    /// Collective integrity check: recompute the parity of the committed
    /// checkpoint copy and compare it with its checksum bit-exactly.
    /// Returns the group-wide verdict.
    ///
    /// The check targets the pair (and parity region) holding the current
    /// epoch: the *off* pair or region may legally hold a torn write.
    pub fn verify_integrity(&self) -> Result<bool, Fault> {
        let pair = self.table.written_at(self.epoch);
        let parity = self.encode_of(pair.data, None)?;
        let ok = {
            let c = self.seg(pair.parity(self.epoch)).read();
            parity
                .iter()
                .flatten()
                .zip(c.try_as_f64()?)
                .all(|(a, b)| a.to_bits() == b.to_bits())
        };
        give_back(&self.comm, parity);
        let verdict = self
            .comm
            .allreduce(ReduceOp::Min, Payload::I64(vec![ok as i64]))?
            .into_i64()[0];
        Ok(verdict == 1)
    }
}
