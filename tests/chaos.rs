//! Chaos differential suite: joins racing a live writer over faulted
//! fleets must be **correct or typed-failed, never wrong**.
//!
//! A writer thread streams [`TrajectoryStream`] move batches into a live
//! deployment *while* joins run over links whose physical edges inject
//! scripted faults (drops, garbled replies, crash-then-restart),
//! across three pinned seeds and three topologies (flat, 4-shard fleet,
//! cached). The laws:
//!
//! * **Exactly once, everywhere** — no report holds a pair twice: not
//!   after a race, not on a fleet (the join's duplicate pass, not this
//!   suite, collapses re-derived pairs).
//! * **Exact replay (flat)** — a flat live server swaps generations
//!   atomically per request, so a join whose replies all reported one
//!   generation per side — whatever the algorithm — read one state, and
//!   its pairs must *exactly* equal the brute-force replay of that
//!   `(generation R, generation S)`. `NaiveJoin` downloads each side in
//!   one request, so its pairs equal the replay of *some* observed state
//!   even when a COUNT beside it saw another. Each cell prints how many
//!   of its reports read more than one generation and took the pass.
//! * **Never-wrong envelope (everything)** — every reported pair must be
//!   justified by object positions at *some* observed generation (subset
//!   of the union oracle), and every pair of never-moved objects that
//!   qualifies at *every* generation must be reported (superset of the
//!   stable intersection oracle). On a fleet the scatter is not a
//!   cross-shard snapshot — a batch lands shard by shard — so the
//!   envelope, not single-state equality, is the honest invariant; the
//!   per-shard generation vector itself is asserted never to regress.
//! * **Cache tiers never cross generations** — under the same contention,
//!   an entry planted at a stale generation is never served, while the
//!   identical plant at the current generation is (non-vacuity).
//! * **Off means off** — with `RetryPolicy::default()` (no retries) and a
//!   no-op `FaultPlan`, the whole machinery is byte-transparent: all six
//!   algorithms report identical pairs *and identical link snapshots* to
//!   an unwrapped deployment, flat, sharded and cached.

use adhoc_spatial_joins::prelude::*;
use asj_core::{DeploymentBuilder, Side};
use asj_geom::SpatialObject;
use asj_net::{FaultPlan, NetConfig, Request, Response, RetryPolicy, Update};
use asj_workloads::{
    default_space, gaussian_clusters, SyntheticSpec, TrajectorySpec, TrajectoryStream,
};

fn clusters(k: usize, n: usize, seed: u64) -> Vec<SpatialObject> {
    gaussian_clusters(&SyntheticSpec::new(default_space(), n, k), seed)
}

fn algorithms() -> Vec<Box<dyn DistributedJoin>> {
    vec![
        Box::new(NaiveJoin),
        Box::new(GridJoin::default()),
        Box::new(MobiJoin),
        Box::new(UpJoin::default()),
        Box::new(SrJoin::default()),
        Box::new(SemiJoin::default()),
    ]
}

/// The report's pairs, sorted — after asserting it holds none twice.
fn sorted_pairs(rep: &JoinReport) -> Vec<(u32, u32)> {
    let mut pairs = rep.pairs.clone();
    pairs.sort_unstable();
    let twice = pairs.windows(2).find(|w| w[0] == w[1]);
    assert_eq!(twice, None, "{} reported a pair twice", rep.algorithm);
    pairs
}

/// Brute-force distance join of two object sets — the offline oracle.
fn brute_pairs(r: &[SpatialObject], s: &[SpatialObject], eps: f64) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for a in r {
        for b in s {
            if a.mbr.within_distance(&b.mbr, eps) {
                out.push((a.id, b.id));
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[derive(Clone, Copy, Debug)]
enum FaultKind {
    Drop,
    Garble,
    CrashRestart,
}

impl FaultKind {
    /// Rates are chosen so that with the retry budget below, exhausting
    /// every attempt on one request is (deterministically, per seed)
    /// never drawn — the suite asserts recovery, not failure.
    fn plan(self, seed: u64) -> FaultPlan {
        match self {
            FaultKind::Drop => FaultPlan::seeded(seed).with_drops(0.15),
            FaultKind::Garble => FaultPlan::seeded(seed).with_garbles(0.15),
            FaultKind::CrashRestart => FaultPlan::seeded(seed).with_crash(1, 2),
        }
    }
}

const RETRY: RetryPolicy = RetryPolicy { max_attempts: 8 };

#[derive(Clone, Copy, Debug, PartialEq)]
enum Topology {
    Flat,
    Fleet4,
    Cached,
}

fn build_live(
    r: &[SpatialObject],
    s: &[SpatialObject],
    topo: Topology,
    fault: Option<FaultPlan>,
) -> Deployment {
    let mut b = DeploymentBuilder::new(r.to_vec(), s.to_vec())
        .with_buffer(800)
        .with_space(default_space())
        .with_net(NetConfig::default().with_retry(RETRY))
        .live();
    b = match topo {
        Topology::Flat => b,
        Topology::Fleet4 => b.with_shards(4, 4),
        Topology::Cached => b.with_client_cache(true),
    };
    if let Some(plan) = fault {
        b = b.with_faults(plan);
    }
    b.build()
}

/// Precomputed update stream: every batch and every post-batch mirror
/// state is known before the writer starts, so the oracle set is fixed
/// up front and the join thread can race the writer freely.
struct Timeline {
    batches: Vec<Vec<Update>>,
    /// `states[t]` is the side's dataset after `t` batches (so
    /// `states[0]` is the initial data).
    states: Vec<Vec<SpatialObject>>,
    /// Ids that ever move — their pairs may transiently vanish on a
    /// fleet (a cross-shard move is not atomic across shards).
    movers: std::collections::HashSet<u32>,
}

fn timeline(initial: &[SpatialObject], seed: u64, ticks: usize) -> Timeline {
    let spec = TrajectorySpec {
        step: 250.0,
        ..TrajectorySpec::default()
    };
    let mut traj = TrajectoryStream::new(initial, spec, seed);
    let mut states = vec![initial.to_vec()];
    let mut batches = Vec::new();
    let mut movers = std::collections::HashSet::new();
    for _ in 0..ticks {
        let batch: Vec<Update> = traj
            .tick()
            .into_iter()
            .map(|o| {
                movers.insert(o.id);
                Update::Move {
                    id: o.id,
                    to: o.mbr,
                }
            })
            .collect();
        let mut next = states.last().expect("seeded").clone();
        asj_server::apply_updates_to(&mut next, &batch);
        states.push(next);
        batches.push(batch);
    }
    Timeline {
        batches,
        states,
        movers,
    }
}

/// The chaos matrix: 3 pinned seeds × 3 fault kinds × 3 topologies, a
/// concurrent writer per run. See the module docs for the laws asserted.
#[test]
fn chaos_matrix_joins_race_writer_over_faulted_fleets() {
    let r0 = clusters(4, 200, 7);
    let s0 = clusters(8, 200, 1007);
    let spec = JoinSpec::distance_join(150.0);
    let eps = 150.0;
    const TICKS: usize = 3;

    for seed in [3u64, 17, 29] {
        for kind in [FaultKind::Drop, FaultKind::Garble, FaultKind::CrashRestart] {
            for topo in [Topology::Flat, Topology::Fleet4, Topology::Cached] {
                let label = format!("seed {seed} {kind:?} {topo:?}");
                let tl_r = timeline(&r0, seed, TICKS);
                let tl_s = timeline(&s0, seed + 1000, TICKS);
                let live = build_live(&r0, &s0, topo, Some(kind.plan(seed)));

                // Oracles, fixed before any concurrency starts.
                let exact: Vec<Vec<Vec<(u32, u32)>>> = tl_r
                    .states
                    .iter()
                    .map(|r| tl_s.states.iter().map(|s| brute_pairs(r, s, eps)).collect())
                    .collect();
                let union: std::collections::HashSet<(u32, u32)> =
                    exact.iter().flatten().flatten().copied().collect();
                let stable: Vec<(u32, u32)> = exact[0][0]
                    .iter()
                    .filter(|(a, b)| !tl_r.movers.contains(a) && !tl_s.movers.contains(b))
                    .filter(|p| exact.iter().flatten().all(|o| o.binary_search(p).is_ok()))
                    .copied()
                    .collect();
                assert!(!union.is_empty(), "{label}: vacuous workload");

                let reports: Vec<JoinReport> = std::thread::scope(|scope| {
                    let writer = scope.spawn(|| {
                        for t in 0..TICKS {
                            for (side, tl) in [(Side::R, &tl_r), (Side::S, &tl_s)] {
                                match live.try_apply_updates(side, tl.batches[t].clone()) {
                                    Response::Ack { .. } => {}
                                    other => panic!(
                                        "writer tick {t}: update must be acked \
                                         within the retry budget, got {other:?}"
                                    ),
                                }
                            }
                            std::thread::sleep(std::time::Duration::from_micros(300));
                        }
                    });
                    let mut reports = Vec::new();
                    loop {
                        for alg in [
                            Box::new(NaiveJoin) as Box<dyn DistributedJoin>,
                            Box::new(SrJoin::default()),
                        ] {
                            reports.push(alg.run(&live, &spec).unwrap_or_else(|e| {
                                panic!("{label}: {} failed mid-chaos: {e}", alg.name())
                            }));
                        }
                        if writer.is_finished() {
                            break;
                        }
                    }
                    writer.join().expect("writer thread");
                    // One more pass after the writer is done: the final
                    // state is always an observed generation.
                    reports.push(NaiveJoin.run(&live, &spec).expect("final run"));
                    reports
                });

                let (mut collapsed, mut replayed) = (0, 0);
                let mut last_fleet_gens: Vec<u64> = Vec::new();
                for rep in &reports {
                    let got = sorted_pairs(rep);
                    // Never wrong: every pair justified by some observed
                    // state, every stable always-qualifying pair present.
                    for p in &got {
                        assert!(
                            union.contains(p),
                            "{label}: {} reported pair {p:?} that exists at \
                             no observed generation",
                            rep.algorithm
                        );
                    }
                    for p in &stable {
                        assert!(
                            got.binary_search(p).is_ok(),
                            "{label}: {} lost stable pair {p:?}",
                            rep.algorithm
                        );
                    }
                    // Exact replay where a single-state read is shown
                    // (flat, one generation per side) or guaranteed
                    // (flat, single-download join).
                    let one = |(lowest, highest): (u64, u64)| {
                        (lowest == highest).then_some(lowest as usize)
                    };
                    let single = match (one(rep.generations_r), one(rep.generations_s)) {
                        (Some(g_r), Some(g_s)) if topo != Topology::Fleet4 => Some((g_r, g_s)),
                        _ => None,
                    };
                    if let Some((g_r, g_s)) = single {
                        assert_eq!(
                            got, exact[g_r][g_s],
                            "{label}: {} read generation {g_r} of R and {g_s} of S \
                             only, yet differs from their replay",
                            rep.algorithm
                        );
                        replayed += 1;
                    }
                    if topo != Topology::Fleet4 && rep.algorithm == "naive" {
                        assert!(
                            exact.iter().flatten().any(|want| *want == got),
                            "{label}: naive pairs match no (gen R, gen S) replay"
                        );
                    }
                    // The pass ran exactly where the argument does not hold.
                    assert_eq!(
                        rep.stats.collapsed_pairs.is_none(),
                        single.is_some(),
                        "{label}: {} windows R {:?} S {:?}",
                        rep.algorithm,
                        rep.generations_r,
                        rep.generations_s
                    );
                    collapsed += usize::from(rep.stats.collapsed_pairs.is_some());
                    // Fleet generation vectors never regress across
                    // reports, and no shard may have been abandoned.
                    if let Some(fleet) = &rep.fleet_r {
                        assert!(
                            fleet.failed_shards.is_empty(),
                            "{label}: retry budget must mask every injected fault"
                        );
                        if !last_fleet_gens.is_empty() {
                            for (shard, (now, before)) in
                                fleet.generations.iter().zip(&last_fleet_gens).enumerate()
                            {
                                assert!(
                                    now >= before,
                                    "{label}: shard {shard} generation regressed \
                                     {before} -> {now}"
                                );
                            }
                        }
                        last_fleet_gens = fleet.generations.clone();
                    }
                }
                println!(
                    "{label}: {} reports, {collapsed} took the duplicate pass, \
                     {replayed} replayed exactly",
                    reports.len()
                );

                // Cache tiers never cross generations, even after chaos:
                // a stale plant is invisible, a current plant is served.
                if topo == Topology::Cached {
                    let (cache, _) = live.caches();
                    let cache = cache.expect("cached topology");
                    let w = default_space();
                    let current = cache.generation();
                    assert!(current >= TICKS as u64, "{label}: acks must be heard");
                    cache.observe_count(&w, 999_999, current - 1);
                    let (link, _) = live.connect();
                    assert_eq!(
                        link.request(&Request::Count(w)).into_count(),
                        r0.len() as u64,
                        "{label}: a stale-generation entry was served"
                    );
                    cache.observe_count(&w, 777_777, cache.generation());
                    let (link2, _) = live.connect();
                    assert_eq!(
                        link2.request(&Request::Count(w)).into_count(),
                        777_777,
                        "{label}: current-generation plant must hit (non-vacuity)"
                    );
                }
            }
        }
    }
}

/// Replica-topology chaos cell: a cached 4-shard fleet with two
/// replicas per shard rides out scripted crash-restart outages while a
/// writer races. Replication must *mask* the outages entirely — every
/// join completes (zero `Unavailable` surfaced), no shard is ever
/// marked failed, every report carries full coverage — and a replica
/// that stayed dark through acked batches resynchronizes at its
/// restart hook, so per-shard generations never regress.
#[test]
fn replicated_cached_fleet_rides_out_crash_restarts() {
    let r0 = clusters(4, 200, 7);
    let s0 = clusters(8, 200, 1007);
    let spec = JoinSpec::distance_join(150.0);
    let eps = 150.0;
    const TICKS: usize = 3;

    for seed in [5u64, 23] {
        let label = format!("replicated seed {seed}");
        let tl_r = timeline(&r0, seed, TICKS);
        let tl_s = timeline(&s0, seed + 1000, TICKS);
        let live = DeploymentBuilder::new(r0.clone(), s0.clone())
            .with_buffer(800)
            .with_space(default_space())
            .with_net(NetConfig::default().with_retry(RETRY))
            .with_shards(4, 4)
            .with_replicas(2)
            .with_client_cache(true)
            .live()
            .with_faults(FaultKind::CrashRestart.plan(seed))
            .build();

        let exact: Vec<Vec<Vec<(u32, u32)>>> = tl_r
            .states
            .iter()
            .map(|r| tl_s.states.iter().map(|s| brute_pairs(r, s, eps)).collect())
            .collect();
        let union: std::collections::HashSet<(u32, u32)> =
            exact.iter().flatten().flatten().copied().collect();
        let stable: Vec<(u32, u32)> = exact[0][0]
            .iter()
            .filter(|(a, b)| !tl_r.movers.contains(a) && !tl_s.movers.contains(b))
            .filter(|p| exact.iter().flatten().all(|o| o.binary_search(p).is_ok()))
            .copied()
            .collect();
        assert!(!union.is_empty(), "{label}: vacuous workload");

        let reports: Vec<JoinReport> = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for t in 0..TICKS {
                    for (side, tl) in [(Side::R, &tl_r), (Side::S, &tl_s)] {
                        match live.try_apply_updates(side, tl.batches[t].clone()) {
                            Response::Ack { .. } => {}
                            other => panic!(
                                "{label} writer tick {t}: one surviving replica \
                                 must ack the broadcast, got {other:?}"
                            ),
                        }
                    }
                    std::thread::sleep(std::time::Duration::from_micros(300));
                }
            });
            let mut reports = Vec::new();
            loop {
                for alg in [
                    Box::new(NaiveJoin) as Box<dyn DistributedJoin>,
                    Box::new(SrJoin::default()),
                ] {
                    reports.push(alg.run(&live, &spec).unwrap_or_else(|e| {
                        panic!("{label}: {} failed despite replication: {e}", alg.name())
                    }));
                }
                if writer.is_finished() {
                    break;
                }
            }
            writer.join().expect("writer thread");
            reports.push(NaiveJoin.run(&live, &spec).expect("final run"));
            reports
        });

        let mut last_fleet_gens: Vec<u64> = Vec::new();
        for rep in &reports {
            let got = sorted_pairs(rep);
            for p in &got {
                assert!(
                    union.contains(p),
                    "{label}: {} reported pair {p:?} that exists at no \
                     observed generation",
                    rep.algorithm
                );
            }
            for p in &stable {
                assert!(
                    got.binary_search(p).is_ok(),
                    "{label}: {} lost stable pair {p:?}",
                    rep.algorithm
                );
            }
            assert_eq!(
                rep.coverage, 1.0,
                "{label}: {} must report full coverage — a dark replica \
                 covered by its sibling is not a failed shard",
                rep.algorithm
            );
            for fleet in [&rep.fleet_r, &rep.fleet_s].into_iter().flatten() {
                assert!(
                    fleet.failed_shards.is_empty(),
                    "{label}: failover plus retries must mask every outage"
                );
            }
            if let Some(fleet) = &rep.fleet_r {
                if !last_fleet_gens.is_empty() {
                    for (shard, (now, before)) in
                        fleet.generations.iter().zip(&last_fleet_gens).enumerate()
                    {
                        assert!(
                            now >= before,
                            "{label}: shard {shard} generation regressed \
                             {before} -> {now}"
                        );
                    }
                }
                last_fleet_gens = fleet.generations.clone();
            }
        }
    }
}

/// `RetryPolicy::default()` = off ⇒ the fault/retry machinery is
/// byte-transparent: all six algorithms, on flat / 4-shard / cached
/// frozen deployments, report identical pairs and identical link
/// snapshots through a no-op-plan wrapped deployment as through a plain
/// one. The wrapped deployment additionally pins `with_replicas(1)`
/// byte-identical: a single-replica fleet must be indistinguishable
/// from an unreplicated one.
#[test]
fn retry_off_and_noop_plan_are_byte_identical_on_all_six_algorithms() {
    let r = clusters(4, 200, 7);
    let s = clusters(8, 200, 1007);
    let spec = JoinSpec::distance_join(150.0);
    let build = |wrapped: bool, shards: Option<usize>, cache: bool| {
        let mut b = DeploymentBuilder::new(r.clone(), s.clone())
            .with_buffer(800)
            .with_space(default_space())
            .with_client_cache(cache)
            .cooperative();
        if let Some(n) = shards {
            b = b.with_shards(n, n);
        }
        if wrapped {
            // A seeded but fault-free plan: the layer is stacked on every
            // edge yet must never be observable. `with_replicas(1)` rides
            // along — a group of one must route exactly like no group.
            b = b.with_faults(FaultPlan::seeded(42)).with_replicas(1);
        }
        b.build()
    };
    for (shards, cache) in [(None, false), (Some(4), false), (None, true)] {
        let plain = build(false, shards, cache);
        let wrapped = build(true, shards, cache);
        assert_eq!(plain.net().retry, RetryPolicy::default());
        for alg in algorithms() {
            let want = match alg.run(&plain, &spec) {
                Ok(rep) => rep,
                Err(_) => continue, // buffer-bound config: skip both sides
            };
            let got = alg
                .run(&wrapped, &spec)
                .unwrap_or_else(|e| panic!("{} failed through the no-op layer: {e}", alg.name()));
            assert_eq!(
                sorted_pairs(&got),
                sorted_pairs(&want),
                "{} shards={shards:?} cache={cache}: pairs diverged",
                alg.name()
            );
            assert_eq!(
                (got.link_r, got.link_s),
                (want.link_r, want.link_s),
                "{} shards={shards:?} cache={cache}: wire traffic diverged \
                 under the no-op fault layer",
                alg.name()
            );
        }
    }
}
