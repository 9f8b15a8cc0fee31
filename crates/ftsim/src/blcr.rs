//! BLCR-style baseline: transparent, process-level checkpoint/restart to
//! block storage (Table 3's `BLCR+HDD` and `BLCR+SSD` rows).
//!
//! Each rank periodically serializes its *entire* state (matrix shard +
//! iteration counter) to its node-local disk. Like real BLCR, the
//! previous checkpoint is kept until the new one is complete (two
//! alternating slots), so a failure mid-write falls back to the older
//! epoch; on restart the group agrees on the newest epoch *every* rank
//! holds. Disk contents survive node power-off (platters / fabric-attached
//! storage — see DESIGN.md substitutions), which is how the paper's BLCR
//! rows recover.
//!
//! The cost model: checkpoint time = real serialization time + the
//! device's modeled transfer time (bandwidth shared among the node's
//! ranks). HDD ≈ 100 MB/s, SSD ≈ 500 MB/s — the Table 3 ordering. Every
//! transfer the model charges — one write per rank per checkpoint, the
//! one restore read per rank on a restart — is also an
//! `Event::StorageWrite` / `StorageRead` on the cluster's bus.

use skt_cluster::{segment_name, Device, DeviceKind, Event};
use skt_hpl::{solve, BlockCyclic1D, HplConfig, Kept, Shard, SktOutput, Start};
use skt_mps::{Ctx, Fault, Payload, ReduceOp};
use std::sync::Arc;

/// Per-rank persistent disks, owned by the driver so they outlive job
/// launches (a rank's disk follows it to a replacement node).
pub struct BlcrStore {
    devices: Vec<Device>,
}

impl BlcrStore {
    /// One device of `kind` per rank.
    pub fn new(nranks: usize, kind: DeviceKind) -> Arc<Self> {
        Arc::new(BlcrStore {
            devices: (0..nranks).map(|_| Device::new(kind)).collect(),
        })
    }
}

/// BLCR run configuration.
#[derive(Clone, Debug)]
pub struct BlcrConfig {
    /// The HPL problem.
    pub hpl: HplConfig,
    /// Panels between checkpoints.
    pub ckpt_every: usize,
    /// Blob namespace.
    pub name: String,
}

/// Run HPL under BLCR-style disk checkpointing. The same `store` must be
/// passed to every (re)launch of one logical run.
pub fn run_blcr(ctx: &Ctx, cfg: &BlcrConfig, store: &BlcrStore) -> Result<SktOutput, Fault> {
    let me = ctx.world_rank();
    let dist = BlockCyclic1D::new(cfg.hpl.n, cfg.hpl.nb, ctx.nranks(), me);
    let mut disk = Disk {
        every: cfg.ckpt_every,
        slots: [0, 1].map(|s| segment_name(&cfg.name, me, &format!("slot{s}"))),
        dev: &store.devices[me],
        sharers: ctx.node_sharers(),
        matrix: vec![0.0; dist.alloc_len()],
    };
    Ok(solve(ctx, &dist, cfg.hpl.seed, &mut disk, cfg.ckpt_every, 0)?.done())
}

/// BLCR's shard: a heap matrix, kept as a whole-state blob in one of two
/// alternating disk slots.
struct Disk<'a> {
    every: usize,
    slots: [String; 2],
    dev: &'a Device,
    sharers: usize,
    matrix: Vec<f64>,
}

impl Shard for Disk<'_> {
    /// The newest epoch available on EVERY rank. The read of the agreed
    /// slot is the one charged restore read; the inventory before it
    /// looks at each slot's epoch word alone.
    fn restore(&mut self, ctx: &Ctx) -> Result<Start, Fault> {
        // a blob torn below its epoch word reads as absent, never as a panic
        let epoch = |blob: &[u8]| Some(u64::from_le_bytes(blob.get(..8)?.try_into().ok()?));
        let held: Vec<(u64, &str)> = (self.slots.iter())
            .filter_map(|slot| Some((self.dev.read_with(slot, self.sharers, epoch)?.0?, &**slot)))
            .collect();
        let my_best = held.iter().map(|h| h.0).max().unwrap_or(0);
        let common = ctx
            .world()
            .allreduce(ReduceOp::Min, Payload::I64(vec![my_best as i64]))?
            .into_i64()[0] as u64;
        if common == 0 {
            return Ok(Start::Fresh);
        }
        // The two-slot discipline makes the agreed epoch held here, but a
        // disagreeing inventory yields a typed fault, not a panic
        // mid-collective.
        let missing = Fault::Protocol("blcr: agreed epoch not present in local slots");
        let slot = held.iter().find(|h| h.0 == common).ok_or(missing)?.1;
        let decode = |blob: &[u8]| {
            self.matrix = blob[8..]
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                .collect();
            blob.len() as u64
        };
        let (bytes, t_io) = (self.dev)
            .read_with(slot, self.sharers, decode)
            .ok_or(missing)?;
        ctx.cluster().events().emit(Event::StorageRead {
            device: self.dev.kind().name(),
            bytes,
            modeled: t_io,
        });
        Ok(Start::Resume {
            panel: common as usize,
            modeled: t_io.as_secs_f64(),
        })
    }

    fn lend<R>(&mut self, f: impl FnOnce(&mut [f64]) -> R) -> R {
        f(&mut self.matrix)
    }

    /// Serialize, write the slot this checkpoint's ordinal names (so the
    /// previous checkpoint survives until this one is complete), and
    /// commit with a barrier.
    fn keep(&mut self, ctx: &Ctx, done: usize) -> Result<Kept, Fault> {
        let mut blob = Vec::with_capacity(8 + self.matrix.len() * 8);
        blob.extend_from_slice(&(done as u64).to_le_bytes());
        for v in &self.matrix {
            blob.extend_from_slice(&v.to_le_bytes());
        }
        ctx.failpoint("blcr-write")?;
        let slot = &self.slots[done / self.every % 2];
        let bytes = blob.len() as u64;
        let t_io = self.dev.write(slot, blob, self.sharers);
        ctx.cluster().events().emit(Event::StorageWrite {
            device: self.dev.kind().name(),
            bytes,
            modeled: t_io,
        });
        ctx.world().barrier()?; // coordinated commit
        Ok(Kept {
            encode: 0.0,
            modeled: t_io.as_secs_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skt_cluster::{Cluster, ClusterConfig, FailurePlan, Ranklist, Recorder};
    use skt_hpl::ITER_PROBE;
    use skt_mps::run_on_cluster;

    fn cfg() -> BlcrConfig {
        BlcrConfig {
            hpl: HplConfig::new(48, 4, 17),
            ckpt_every: 2,
            name: "blcr".into(),
        }
    }

    /// Storage events of `kind` on the bus whose byte count is one whole
    /// checkpoint blob of `cfg()` (the epoch word + a rank's allocation).
    fn blob_events(rec: &Recorder, write: bool, kind: &str) -> usize {
        let blob = 8 + 8 * BlockCyclic1D::new(48, 4, 4, 0).alloc_len() as u64;
        rec.count(|e| match *e {
            Event::StorageWrite { device, bytes, .. } => write && device == kind && bytes == blob,
            Event::StorageRead { device, bytes, .. } => !write && device == kind && bytes == blob,
            _ => false,
        })
    }

    #[test]
    fn blcr_runs_and_checkpoints() {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 0)));
        let rec = Arc::new(Recorder::new());
        cluster.events().subscribe(Arc::clone(&rec) as _);
        let rl = Ranklist::round_robin(4, 4);
        let store = BlcrStore::new(4, DeviceKind::Hdd);
        let outs = run_on_cluster(cluster, &rl, |ctx| run_blcr(ctx, &cfg(), &store)).unwrap();
        for o in outs {
            assert!(o.hpl.passed);
            assert_eq!(o.hpl.checkpoints, 5, "panels 2, 4, 6, 8, 10 of 12");
            assert!(o.hpl.ckpt_seconds > 0.0, "device time must be charged");
        }
        assert!(store.devices.iter().any(|d| d.used_bytes() > 0));
        // one write per rank per checkpoint, nothing read on a fresh start
        assert_eq!(blob_events(&rec, true, "hdd"), 5 * 4);
        let reads = rec.count(|e| matches!(e, Event::StorageRead { .. }));
        assert_eq!(reads, 0);
    }

    #[test]
    fn blcr_recovers_from_node_loss_via_disk() {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 1)));
        let rec = Arc::new(Recorder::new());
        cluster.events().subscribe(Arc::clone(&rec) as _);
        let mut rl = Ranklist::round_robin(4, 4);
        let store = BlcrStore::new(4, DeviceKind::Ssd);
        cluster.arm_failure(FailurePlan::new(ITER_PROBE, 5, 2));
        let res = run_on_cluster(cluster.clone(), &rl, |ctx| run_blcr(ctx, &cfg(), &store));
        assert!(res.is_err());
        // survivors may have started checkpoint 3 before they saw the abort
        let before = blob_events(&rec, true, "ssd");
        assert!((2 * 4..3 * 4).contains(&before), "{before} writes");
        cluster.reset_abort();
        rl.repair(&cluster).unwrap();
        let outs = run_on_cluster(cluster, &rl, |ctx| run_blcr(ctx, &cfg(), &store)).unwrap();
        for o in outs {
            assert!(o.hpl.passed, "residual {}", o.hpl.residual);
            assert_eq!(o.resumed_from_panel, 4, "resume from last disk checkpoint");
        }
        // the restart: one charged restore read per rank (the slot
        // inventory is not a transfer), then checkpoints 3, 4 and 5
        let reads = rec.count(|e| matches!(e, Event::StorageRead { .. }));
        assert_eq!((blob_events(&rec, false, "ssd"), reads), (4, 4));
        assert_eq!(blob_events(&rec, true, "ssd") - before, 3 * 4);
    }

    #[test]
    fn torn_write_falls_back_to_previous_slot() {
        // kill during the write of checkpoint 2 on node 1: epoch 4's blob
        // may be missing on some ranks; the group must agree on epoch 2.
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 1)));
        let mut rl = Ranklist::round_robin(4, 4);
        let store = BlcrStore::new(4, DeviceKind::Hdd);
        cluster.arm_failure(FailurePlan::new("blcr-write", 2, 1));
        let res = run_on_cluster(cluster.clone(), &rl, |ctx| run_blcr(ctx, &cfg(), &store));
        assert!(res.is_err());
        cluster.reset_abort();
        rl.repair(&cluster).unwrap();
        let outs = run_on_cluster(cluster, &rl, |ctx| run_blcr(ctx, &cfg(), &store)).unwrap();
        for o in outs {
            assert!(o.hpl.passed);
            assert!(
                o.resumed_from_panel <= 4,
                "at most the last committed epoch"
            );
            assert!(o.resumed_from_panel >= 2, "first checkpoint was committed");
        }
    }

    #[test]
    fn hdd_charges_more_time_than_ssd() {
        let run = |kind: DeviceKind| {
            let cluster = Arc::new(Cluster::new(ClusterConfig::new(2, 0)));
            let rl = Ranklist::round_robin(2, 2);
            let store = BlcrStore::new(2, kind);
            let outs = run_on_cluster(cluster, &rl, |ctx| {
                run_blcr(
                    ctx,
                    &BlcrConfig {
                        hpl: HplConfig::new(64, 8, 3),
                        ckpt_every: 2,
                        name: "d".into(),
                    },
                    &store,
                )
            })
            .unwrap();
            outs[0].hpl.ckpt_seconds
        };
        let hdd = run(DeviceKind::Hdd);
        let ssd = run(DeviceKind::Ssd);
        assert!(hdd > ssd * 2.0, "HDD {hdd} vs SSD {ssd}");
    }
}
