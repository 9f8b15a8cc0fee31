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
use skt_hpl::dist::BlockCyclic1D;
use skt_hpl::elim::{back_substitute, generate, panel_step, verify};
use skt_hpl::plain::{assemble_output, HplConfig};
use skt_hpl::{SktOutput, ITER_PROBE};
use skt_linalg::MatGen;
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

    /// Rank `r`'s disk.
    pub fn device(&self, r: usize) -> &Device {
        &self.devices[r]
    }

    /// Total checkpoint bytes currently on all disks.
    pub fn used_bytes(&self) -> usize {
        self.devices.iter().map(|d| d.used_bytes()).sum()
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

fn serialize(k: u64, storage: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + storage.len() * 8);
    out.extend_from_slice(&k.to_le_bytes());
    for v in storage {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode a checkpoint blob. `None` for anything shorter than its epoch
/// header — a torn disk blob reads as absent, never as a panic.
fn deserialize(blob: &[u8]) -> Option<(u64, Vec<f64>)> {
    let head = blob.get(..8)?;
    let mut w = [0u8; 8];
    w.copy_from_slice(head);
    let k = u64::from_le_bytes(w);
    let data = blob[8..]
        .chunks_exact(8)
        .map(|c| {
            w.copy_from_slice(c);
            f64::from_le_bytes(w)
        })
        .collect();
    Some((k, data))
}

/// Run HPL under BLCR-style disk checkpointing. The same `store` must be
/// passed to every (re)launch of one logical run.
pub fn run_blcr(ctx: &Ctx, cfg: &BlcrConfig, store: &BlcrStore) -> Result<SktOutput, Fault> {
    let comm = ctx.world();
    let me = comm.rank();
    let dist = BlockCyclic1D::new(cfg.hpl.n, cfg.hpl.nb, comm.size(), me);
    let gen = MatGen::new(cfg.hpl.seed);
    let dev = store.device(me);
    let sharers = ctx.node_sharers();
    let device = dev.kind().name();
    let slot_name = |s: u64| segment_name(&cfg.name, me, &format!("slot{s}"));

    // --- restore: newest epoch available on EVERY rank ---
    let t_rec = ctx.stopwatch();
    let mut local: Vec<(u64, u64)> = Vec::new(); // (k, slot)
    for s in 0..2u64 {
        if let Some((blob, _)) = dev.read(&slot_name(s), sharers) {
            if let Some(head) = blob.get(..8) {
                let mut w = [0u8; 8];
                w.copy_from_slice(head);
                local.push((u64::from_le_bytes(w), s));
            }
        }
    }
    let my_best = local.iter().map(|(k, _)| *k).max().unwrap_or(0);
    let common = comm
        .allreduce(ReduceOp::Min, Payload::I64(vec![my_best as i64]))?
        .into_i64()[0] as u64;

    let mut storage;
    let start_panel;
    let mut recover_io = 0.0f64;
    if common > 0 {
        // The two-slot discipline makes the agreed epoch held here, but
        // every step stays fallible: a disagreeing inventory yields a
        // typed fault, not a panic mid-collective.
        let slot = local
            .iter()
            .find(|(k, _)| *k == common)
            .map(|(_, s)| *s)
            .ok_or(Fault::Protocol(
                "blcr: agreed epoch not present in local slots",
            ))?;
        let (blob, t_io) = dev.read(&slot_name(slot), sharers).ok_or(Fault::Protocol(
            "blcr: checkpoint slot vanished between inventory and read",
        ))?;
        ctx.cluster().events().emit(Event::StorageRead {
            device,
            bytes: blob.len() as u64,
            modeled: t_io,
        });
        recover_io += t_io.as_secs_f64();
        let (k, data) = deserialize(&blob).ok_or(Fault::Protocol(
            "blcr: checkpoint blob torn below its epoch header",
        ))?;
        debug_assert_eq!(k, common);
        storage = data;
        start_panel = common as usize;
    } else {
        storage = vec![0.0; dist.alloc_len()];
        generate(&dist, &gen, &mut storage);
        start_panel = 0;
    }
    let recover_seconds = t_rec.elapsed().as_secs_f64() + recover_io;
    comm.barrier()?;

    // --- eliminate with coordinated disk checkpoints ---
    let mut ckpt_secs = 0.0f64; // reported cost: real serialize + modeled device
    let mut ckpt_wall = 0.0f64; // real wall time actually spent, to subtract
    let mut checkpoints = 0usize;
    let nba = dist.nblocks_a();
    let t0 = ctx.stopwatch();
    for k in start_panel..nba {
        panel_step(&comm, &dist, &mut storage, k)?;
        ctx.failpoint(ITER_PROBE)?;
        let done = (k + 1) as u64;
        if cfg.ckpt_every > 0
            && (done as usize).is_multiple_of(cfg.ckpt_every)
            && (done as usize) < nba
        {
            let t = ctx.stopwatch();
            let blob = serialize(done, &storage);
            ctx.failpoint("blcr-write")?;
            // alternate slots by checkpoint ordinal so the previous
            // checkpoint survives until this one is complete
            let slot = (done as usize / cfg.ckpt_every) as u64 % 2;
            let bytes = blob.len() as u64;
            let t_io = dev.write(&slot_name(slot), blob, sharers);
            ctx.cluster().events().emit(Event::StorageWrite {
                device,
                bytes,
                modeled: t_io,
            });
            comm.barrier()?; // coordinated commit
            let wall = t.elapsed().as_secs_f64();
            ckpt_wall += wall;
            ckpt_secs += wall + t_io.as_secs_f64();
            checkpoints += 1;
        }
    }
    let x = back_substitute(&comm, &dist, &storage)?;
    let compute = (t0.elapsed().as_secs_f64() - ckpt_wall).max(1e-9);

    let v = verify(&comm, &dist, &gen, &x)?;
    let hpl = assemble_output(
        ctx,
        cfg.hpl.n,
        compute,
        ckpt_secs,
        0.0,
        checkpoints,
        v.residual,
        v.passed,
    )?;
    Ok(SktOutput {
        hpl,
        resumed_from_panel: start_panel,
        restarted_from_scratch: false,
        recover_seconds,
        // BLCR restores from disk blobs, outside the protocol layer
        recovery: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skt_cluster::{Cluster, ClusterConfig, FailurePlan, Ranklist, Recorder};
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
        assert!(store.used_bytes() > 0);
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
