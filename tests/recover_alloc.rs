//! The allocation budgets of `recover()`, `make()` and
//! `Checkpointer::init`.
//!
//! Cold, a rebuild reads the survivors' segments in place and hands the
//! lost ranks' stripes to their segments as the solve and the ring
//! delivered them, so what a rank may allocate inside `recover()` is a
//! count of stripes the layout dictates — the ring accumulators it
//! starts, the syndromes it copies for a second lost holder, the stripes
//! it solves — and nothing the size of a region: no snapshot of `B` and
//! `C` (`padded_len + parity_len`), no scratch image of the rebuilt data
//! (a second `padded_len`).
//!
//! Warm, not even those. Every stripe the engine starts comes from the
//! cluster's buffer pool and goes back to it once stored, and a
//! powered-off node's segments go there too. So a second kill → recover
//! of the same ranks, a spare's `init` after a kill, and every `make()`
//! after the first allocate nothing stripe- or segment-sized: each rank
//! stays within `SLACK`.
//!
//! This binary counts bytes per rank thread with its own
//! `#[global_allocator]`.

use self_checkpoint::cluster::{Cluster, ClusterConfig, Ranklist};
use self_checkpoint::core::{Checkpointer, CkptConfig, Method, Recovery};
use self_checkpoint::encoding::CodecSpec;
use self_checkpoint::mps::{run_on_cluster, Fault};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Bytes this thread has asked the allocator for, ever.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

/// The system allocator, counting what each thread requests.
struct Counting;

impl Counting {
    fn count(bytes: usize) {
        // a thread past its TLS teardown still frees and allocates
        let _ = ALLOCATED.try_with(|c| c.set(c.get() + bytes as u64));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, whose contract
// is the one the caller already upholds; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's `layout` obligations, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const N: usize = 4;
const M: usize = 2;
/// 64 KiB stripes: large enough that a stripe dwarfs bookkeeping, small
/// enough for four ranks on a shared host.
const STRIPE_LEN: usize = 8192;
const A2_CAPACITY: usize = 8;
/// Everything that is not a stripe: headers, CRC tables, op records,
/// collective envelopes, channel blocks.
const SLACK: u64 = 64 * 1024;

/// The most stripes a rank allocates inside one rebuild of `lost`
/// ranks, from `(N, M, lost)` alone. Stripes a rank receives were
/// allocated by their sender (a payload moves through the channel).
///
/// In every slot a lost rank either held data (it costs one syndrome
/// accumulator) or owned parity (one parity accumulator), never both.
fn max_stripes(lost: usize, i_am_lost: bool) -> usize {
    if i_am_lost {
        // solves its `N - M` data stripes; heads one slot's ring, where
        // it is itself a lost holder, so at most `lost - 1` owners of
        // that slot are lost and have it start their parity accumulator
        return (N - M) + (lost - 1);
    }
    // heads one slot's ring: one accumulator per lost rank there,
    // syndrome or parity
    let heads = lost;
    // the other `N - M - 1` slots it holds data in: syndromes only, and
    // it occupies one of the slot's `N - M` holder seats itself
    let holds = (N - M - 1) * lost.min(N - M - 1);
    // the `M` slots it owns parity in: it starts or copies the syndrome
    // at most once per lost holder
    let owns = M * lost.min(N - M);
    heads + holds + owns
}

fn pattern(rank: usize, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| (rank * 100_003 + i) as f64 * 0.25)
        .collect()
}

#[test]
fn recover_allocates_stripes_never_regions() {
    let b2_words = 1 + A2_CAPACITY.div_ceil(8);
    let a1_len = (N - M) * STRIPE_LEN - b2_words;
    let cfg = || {
        CkptConfig::new("alloc", Method::SelfCkpt, a1_len, A2_CAPACITY)
            .with_codec(CodecSpec::Rs { m: M })
    };
    let lost = [1usize, 2];
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(N, lost.len())));
    let mut rl = Ranklist::round_robin(N, N);
    let layout = run_on_cluster(Arc::clone(&cluster), &rl, |ctx| {
        let (mut ck, _) = Checkpointer::init(ctx.world(), cfg());
        ck.workspace().write().as_f64_mut()[..a1_len]
            .copy_from_slice(&pattern(ctx.world_rank(), a1_len));
        ck.make(&[7])?;
        Ok(*ck.layout())
    })
    .unwrap()[0];
    assert_eq!(layout.stripe_len(), STRIPE_LEN);
    for &l in &lost {
        cluster.kill_node(rl.node_of(l));
    }
    cluster.reset_abort();
    rl.repair(&cluster).unwrap();

    let during = run_on_cluster(cluster, &rl, |ctx| {
        let (mut ck, _) = Checkpointer::init(ctx.world(), cfg());
        let before = allocated();
        let rec = ck.recover();
        let during = allocated() - before;
        assert!(matches!(rec, Ok(Recovery::Restored { epoch: 1, .. })));
        let ws = ck.workspace();
        let restored = ws.read().as_f64()[..a1_len] == pattern(ctx.world_rank(), a1_len)[..];
        if !restored {
            return Err(Fault::Protocol("the budgeted recovery is not bit-exact"));
        }
        Ok(during)
    })
    .unwrap();

    let stripe_bytes = (STRIPE_LEN * 8) as u64;
    let region_bytes = ((layout.padded_len() + layout.parity_len()) * 8) as u64;
    // the slack hides no region: a bound with a snapshot in it would be
    // at least `region_bytes` above the stripes it counts
    assert!(SLACK < region_bytes);
    for (r, &bytes) in during.iter().enumerate() {
        let i_am_lost = lost.contains(&r);
        let stripes = max_stripes(lost.len(), i_am_lost) as u64;
        let bound = stripes * stripe_bytes + SLACK;
        let role = if i_am_lost { "lost" } else { "survivor" };
        assert!(
            bytes <= bound,
            "{role} rank {r} allocated {bytes} B inside recover(); at most {stripes} stripes \
             + slack allow {bound} B (a snapshot of its regions would be {region_bytes} B)"
        );
    }
}

/// A self-checkpoint group of `N` ranks under `codec`, with `a1_len`
/// sized so every stripe is `STRIPE_LEN` long.
fn warm_cfg(codec: CodecSpec) -> CkptConfig {
    let b2_words = 1 + A2_CAPACITY.div_ceil(8);
    let a1_len = (N - codec.parity_count()) * STRIPE_LEN - b2_words;
    CkptConfig::new("warm", Method::SelfCkpt, a1_len, A2_CAPACITY).with_codec(codec)
}

/// Every rank's count must be at most `SLACK`: nothing stripe-sized.
fn assert_within_slack(what: &str, during: &[u64]) {
    for (r, &bytes) in during.iter().enumerate() {
        assert!(
            bytes <= SLACK,
            "rank {r} allocated {bytes} B in {what}; a warm pool allows {SLACK} B of slack \
             and no stripe ({} B)",
            STRIPE_LEN * 8
        );
    }
}

/// Power off `lost`'s nodes and repair the ranklist onto spares.
fn kill_and_repair(cluster: &Cluster, rl: &mut Ranklist, lost: &[usize]) {
    for &l in lost {
        cluster.kill_node(rl.node_of(l));
    }
    cluster.reset_abort();
    rl.repair(cluster).unwrap();
}

/// One launch that makes epoch 1 of a pattern workspace.
fn make_epoch_one(cluster: &Arc<Cluster>, rl: &Ranklist, cfg: &CkptConfig) {
    run_on_cluster(Arc::clone(cluster), rl, |ctx| {
        let (mut ck, _) = Checkpointer::init(ctx.world(), cfg.clone());
        let a1_len = ck.a1_len();
        ck.workspace().write().as_f64_mut()[..a1_len]
            .copy_from_slice(&pattern(ctx.world_rank(), a1_len));
        ck.make(&[7])?;
        Ok(())
    })
    .unwrap();
}

/// A rebuild's stripes all come from and go back to the cluster's pool,
/// so once one kill → recover of two ranks has run, a second of the
/// same two ranks finds every stripe it needs there.
#[test]
fn a_second_recover_of_the_same_ranks_allocates_nothing() {
    let cfg = warm_cfg(CodecSpec::Rs { m: M });
    let lost = [1usize, 2];
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(N, 2 * lost.len())));
    let mut rl = Ranklist::round_robin(N, N);
    make_epoch_one(&cluster, &rl, &cfg);
    for round in 0..2 {
        kill_and_repair(&cluster, &mut rl, &lost);
        let during = run_on_cluster(Arc::clone(&cluster), &rl, |ctx| {
            let (mut ck, _) = Checkpointer::init(ctx.world(), cfg.clone());
            let before = allocated();
            let rec = ck.recover();
            let during = allocated() - before;
            assert!(matches!(rec, Ok(Recovery::Restored { epoch: 1, .. })));
            let a1_len = ck.a1_len();
            if ck.workspace().read().as_f64()[..a1_len] != pattern(ctx.world_rank(), a1_len)[..] {
                return Err(Fault::Protocol("the warm recovery is not bit-exact"));
            }
            Ok(during)
        })
        .unwrap();
        if round == 1 {
            assert_within_slack("a second recover()", &during);
        }
    }
}

/// Power-off recycles a node's segment payloads, so the spares that
/// replace two dead nodes build their segments from that memory: no rank's
/// `Checkpointer::init` allocates a segment.
#[test]
fn a_spares_init_after_a_kill_allocates_nothing() {
    let cfg = warm_cfg(CodecSpec::Rs { m: M });
    let lost = [1usize, 2];
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(N, lost.len())));
    let mut rl = Ranklist::round_robin(N, N);
    make_epoch_one(&cluster, &rl, &cfg);
    kill_and_repair(&cluster, &mut rl, &lost);
    let during = run_on_cluster(Arc::clone(&cluster), &rl, |ctx| {
        let before = allocated();
        let (ck, attached) = Checkpointer::init(ctx.world(), cfg.clone());
        let during = allocated() - before;
        assert_eq!(attached, !lost.contains(&ctx.world_rank()));
        let zero = ck
            .workspace()
            .read()
            .as_f64()
            .iter()
            .all(|x| x.to_bits() == 0);
        if !attached && !zero {
            return Err(Fault::Protocol("a spare's workspace must start all-zero"));
        }
        Ok(during)
    })
    .unwrap();
    assert_within_slack("Checkpointer::init", &during);
}

/// The encode ring's step-0 accumulators come from the pool and the
/// delivered parity goes back after the flush, so from the second
/// `make()` on a group allocates no stripe.
#[test]
fn second_and_later_makes_allocate_nothing() {
    for codec in [CodecSpec::default(), CodecSpec::Rs { m: M }] {
        let cfg = warm_cfg(codec);
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(N, 0)));
        let during = run_on_cluster(cluster, &Ranklist::round_robin(N, N), |ctx| {
            let (mut ck, _) = Checkpointer::init(ctx.world(), cfg.clone());
            let mut during = Vec::new();
            for e in 1..=3u8 {
                let before = allocated();
                ck.make(&[e])?;
                during.push(allocated() - before);
            }
            Ok(during)
        })
        .unwrap();
        for make in 1..3 {
            let per_rank: Vec<u64> = during.iter().map(|d| d[make]).collect();
            assert_within_slack(&format!("{} make {}", codec.name(), make + 1), &per_rank);
        }
    }
}
