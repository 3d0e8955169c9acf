//! Differential oracles for generational snapshots (live updates).
//!
//! Three laws pin the live-update extension end to end:
//!
//! * **Byte identity when idle** — a live deployment that never receives
//!   an update serves generation 0 and is *bit-for-bit* the frozen wire
//!   format: for every algorithm, flat / 4-shard / cached, the link
//!   snapshots (not just the pairs) equal the frozen deployment's.
//! * **Replay identity** — with updates flowing, every join's pairs
//!   exactly equal a replay against an offline store rebuilt frozen at
//!   the observed generation (the same `apply_updates_to` fold the
//!   server runs), and the byte-conservation law survives.
//! * **Staleness** — a cache entry planted at a generation other than the
//!   store's content generation is never served; the same plant at the
//!   content generation *is* served, and one planted before an update is
//!   carried over it by the change list, so the check is not vacuous.
//! * **A tick costs its delta** — on a flat cached deployment the join
//!   after an update tick still equals brute force and pays for the
//!   `Changes` frames plus a stated multiple of the moved objects' own
//!   traffic, not for the cold join again; a cached fleet, which has no
//!   change list to ask for, pays what it paid before this existed.
//! * **Exactly once across a raced seam** — a join whose windows read two
//!   generations reports a pair derived in both once, and says so
//!   (`ExecStats::collapsed_pairs`, `JoinReport::generations_*`); one that
//!   read one generation per flat side skips the pass.

use adhoc_spatial_joins::prelude::*;
use asj_core::{DeploymentBuilder, ExecCtx, Side};
use asj_geom::{sweep::nested_loop_join, Point, Rect, SpatialObject};
use asj_net::codec::{
    CHANGES_HEADER_BYTES, CHANGES_QUERY_BYTES, CHANGE_OP_BYTES, EPS_QUERY_BYTES, GEN_STAMP_BYTES,
    OBJECTS_HEADER_BYTES, OBJ_BYTES,
};
use asj_net::{PacketModel, Request, Update};
use asj_server::apply_updates_to;
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

fn sorted_pairs(rep: &JoinReport) -> Vec<(u32, u32)> {
    let mut pairs = rep.pairs.clone();
    pairs.sort_unstable();
    pairs
}

fn build(
    r: &[SpatialObject],
    s: &[SpatialObject],
    shards: Option<usize>,
    cache: bool,
    live: bool,
) -> Deployment {
    let mut b = DeploymentBuilder::new(r.to_vec(), s.to_vec())
        .with_buffer(800)
        .with_space(default_space())
        .with_client_cache(cache)
        .cooperative(); // SemiJoin runs too; others ignore the extension
    if let Some(n) = shards {
        b = b.with_shards(n, n);
    }
    if live {
        b = b.live();
    }
    b.build()
}

/// A live deployment with zero updates serves generation 0, and
/// generation 0 emits no stamp: every algorithm must produce identical
/// pairs *and identical link snapshots* — the same bytes in the same
/// messages — as a frozen deployment, flat, sharded and cached.
#[test]
fn idle_live_deployment_is_byte_identical_to_frozen() {
    let r = clusters(4, 200, 7);
    let s = clusters(8, 200, 1007);
    let spec = JoinSpec::distance_join(150.0);
    for (shards, cache) in [(None, false), (Some(4), false), (None, true)] {
        let frozen = build(&r, &s, shards, cache, false);
        let live = build(&r, &s, shards, cache, true);
        assert!(live.is_live() && !frozen.is_live());
        for alg in algorithms() {
            let want = match alg.run(&frozen, &spec) {
                Ok(rep) => rep,
                Err(_) => continue, // buffer-bound config: skip both sides
            };
            let got = alg.run(&live, &spec).unwrap_or_else(|e| {
                panic!("{} failed on the idle live deployment: {e}", alg.name())
            });
            assert_eq!(
                sorted_pairs(&got),
                sorted_pairs(&want),
                "{} shards={shards:?} cache={cache}: pairs diverged",
                alg.name()
            );
            assert_eq!(
                (got.link_r, got.link_s),
                (want.link_r, want.link_s),
                "{} shards={shards:?} cache={cache}: wire traffic diverged",
                alg.name()
            );
        }
    }
}

/// With updates flowing, each join must equal a replay against an
/// offline mirror folded with the *same* `apply_updates_to` the server
/// runs, frozen at the observed generation — exact pair identity, and
/// the byte-conservation law holds on the live reports.
#[test]
fn live_joins_replay_exactly_at_the_observed_generation() {
    let r0 = clusters(4, 200, 31);
    let s0 = clusters(8, 200, 1031);
    let spec = JoinSpec::distance_join(150.0);
    let tspec = TrajectorySpec {
        step: 250.0,
        ..TrajectorySpec::default()
    };
    for shards in [None, Some(3)] {
        let live = build(&r0, &s0, shards, false, true);
        let mut traj_r = TrajectoryStream::new(&r0, tspec, 5);
        let mut traj_s = TrajectoryStream::new(&s0, tspec, 1005);
        let (mut mirror_r, mut mirror_s) = (r0.clone(), s0.clone());
        let mut last_gen = 0;
        for tick in 0..3 {
            let moves = |t: &mut TrajectoryStream| -> Vec<Update> {
                t.tick()
                    .into_iter()
                    .map(|o| Update::Move {
                        id: o.id,
                        to: o.mbr,
                    })
                    .collect()
            };
            let (batch_r, batch_s) = (moves(&mut traj_r), moves(&mut traj_s));
            apply_updates_to(&mut mirror_r, &batch_r);
            apply_updates_to(&mut mirror_s, &batch_s);
            let gen_r = live.apply_updates(Side::R, batch_r);
            let gen_s = live.apply_updates(Side::S, batch_s);
            assert!(gen_r > last_gen, "tick {tick}: generation must advance");
            last_gen = gen_r;
            assert_eq!(gen_r, gen_s, "symmetric ticks reach the same generation");

            // The oracle: a frozen deployment rebuilt from the mirrors at
            // exactly this generation's state.
            let oracle = build(&mirror_r, &mirror_s, shards, false, false);
            for alg in [
                Box::new(MobiJoin) as Box<dyn DistributedJoin>,
                Box::new(SrJoin::default()),
                Box::new(NaiveJoin),
            ] {
                let got = alg
                    .run(&live, &spec)
                    .unwrap_or_else(|e| panic!("{} failed live at tick {tick}: {e}", alg.name()));
                let want = alg.run(&oracle, &spec).unwrap();
                assert_eq!(
                    sorted_pairs(&got),
                    sorted_pairs(&want),
                    "{} shards={shards:?} tick {tick} (generation {gen_r}): \
                     live join diverged from the frozen replay",
                    alg.name()
                );
                assert!(!want.pairs.is_empty(), "vacuous tick");
                // Meters conserved: the report total is exactly the sum
                // of its per-link snapshots, stamps included.
                assert_eq!(
                    got.total_bytes(),
                    got.link_r.total_bytes() + got.link_s.total_bytes()
                );
            }
        }
    }
}

/// Staleness proof: an entry planted at any generation but the store's
/// content generation is never served — and the identical plant at the
/// content generation is, so the generation check (not luck) is what
/// protects the results. A plant made *before* an update is an entry like
/// any other: the change list carries it over.
#[test]
fn stale_cache_entries_are_never_served() {
    let r = clusters(4, 200, 51);
    let s = clusters(8, 200, 1051);
    let live = build(&r, &s, None, true, true);
    let w = default_space();
    let (cache_r, _) = live.caches();
    let cache_r = cache_r.expect("cache enabled");

    // Tick once so the servers sit at generation 1; the first lookup
    // brings the (empty) store there.
    let gen = live.apply_updates(Side::R, vec![Update::Delete(r[0].id)]);
    assert_eq!(gen, 1);
    let (link_r, _) = live.connect();
    let truth = link_r.request(&Request::Count(w)).into_count();
    assert_eq!(truth, r.len() as u64 - 1, "fresh download after the delete");
    assert_eq!(cache_r.content_generation(), gen);

    // Plant a poisoned count at the *stale* generation 0: dropped.
    cache_r.observe_count(&w, 999_999, 0);
    let (link_r, _) = live.connect();
    assert_eq!(link_r.request(&Request::Count(w)).into_count(), truth);
    assert_eq!(
        link_r.meter().snapshot().total_bytes(),
        0,
        "the honest entry"
    );

    // Non-vacuity: the same plant at the *content* generation is served.
    cache_r.observe_count(&w, 777_777, gen);
    let (link2, _) = live.connect();
    assert_eq!(
        link2.request(&Request::Count(w)).into_count(),
        777_777,
        "a content-generation entry must be served — otherwise the stale \
         check above proves nothing"
    );
    assert_eq!(link2.cache().unwrap().snapshot().stats_hits, 1);

    // And it lives through the next tick as what it is — a count of the
    // window, one lower for the object the batch took out of it — once
    // the store holds enough for the change list to be worth asking for.
    link2.request(&Request::Window(w));
    live.apply_updates(Side::R, vec![Update::Delete(r[1].id)]);
    let (link3, _) = live.connect();
    assert_eq!(link3.request(&Request::Count(w)).into_count(), 777_776);
    assert_eq!(cache_r.content_generation(), 2);
}

fn moves(stream: &mut TrajectoryStream) -> Vec<Update> {
    let moved = stream.tick().into_iter();
    moved
        .map(|o| Update::Move {
            id: o.id,
            to: o.mbr,
        })
        .collect()
}

/// After a tick that moved *k* objects, the join over a flat cached
/// deployment equals brute force on the moved data and costs at most the
/// two `Changes` exchanges plus two ε-probe round trips per moved object
/// — whatever the moved objects themselves make the plan re-ask — and
/// nowhere near the cold join. SemiJoin's cooperative traffic is never
/// cached: it is held to the answer, not to the bound.
#[test]
fn a_tick_costs_its_delta_not_the_cold_join() {
    let r0 = clusters(4, 1000, 7);
    let s0 = clusters(8, 1000, 1007);
    let spec = JoinSpec::distance_join(150.0);
    let tspec = TrajectorySpec {
        move_fraction: 0.01,
        ..TrajectorySpec::default()
    };
    let tb = |payload| PacketModel::default().tb(payload);
    for alg in algorithms() {
        // Small enough to split and probe; NaiveJoin needs it all.
        let buffer = if alg.name() == "naive" { 4000 } else { 200 };
        let live = DeploymentBuilder::new(r0.clone(), s0.clone())
            .with_buffer(buffer)
            .with_space(default_space())
            .with_client_cache(true)
            .cooperative()
            .live()
            .build();
        let cold = alg.run(&live, &spec).expect("cold join").total_bytes();
        // Hit rates feed the planner's prices, so a warm plan is not the
        // cold plan: let the session settle on what it asks for.
        alg.run(&live, &spec).expect("warm join");
        let mut traj_r = TrajectoryStream::new(&r0, tspec, 5);
        let mut traj_s = TrajectoryStream::new(&s0, tspec, 1005);
        let (mut mirror_r, mut mirror_s) = (r0.clone(), s0.clone());
        for tick in 0..3 {
            let (batch_r, batch_s) = (moves(&mut traj_r), moves(&mut traj_s));
            let moved = (batch_r.len() + batch_s.len()) as u64;
            assert!(moved > 0, "vacuous tick");
            apply_updates_to(&mut mirror_r, &batch_r);
            apply_updates_to(&mut mirror_s, &batch_s);
            // One request and one stamped list of a remove and an add
            // per move, on each side.
            let changes: u64 = [&batch_r, &batch_s]
                .iter()
                .map(|b| {
                    let ops = 2 * b.len() as u64 * CHANGE_OP_BYTES;
                    tb(CHANGES_QUERY_BYTES) + tb(GEN_STAMP_BYTES + CHANGES_HEADER_BYTES + ops)
                })
                .sum();
            live.apply_updates(Side::R, batch_r);
            live.apply_updates(Side::S, batch_s);
            let rep = alg.run(&live, &spec).expect("join after the tick");
            let mut want = nested_loop_join(&mirror_r, &mirror_s, &spec.predicate);
            want.sort_unstable();
            assert_eq!(sorted_pairs(&rep), want, "{} tick {tick}", alg.name());
            assert!(!want.is_empty(), "vacuous join");
            if alg.name() == "semijoin" {
                continue;
            }
            let probe =
                tb(EPS_QUERY_BYTES) + tb(GEN_STAMP_BYTES + OBJECTS_HEADER_BYTES + OBJ_BYTES);
            let bound = changes + 2 * moved * probe;
            assert!(
                changes <= rep.total_bytes() && rep.total_bytes() <= bound,
                "{} tick {tick}: {} B for {moved} moved objects, {changes} B of change lists, \
                 bound {bound}",
                alg.name(),
                rep.total_bytes()
            );
            assert!(2 * bound < cold, "{}: the bound is no bound", alg.name());
        }
    }
}

/// A fleet's generation is a sum over its shards, so the router refuses
/// `Changes` without sending anything and the cache starts over after
/// every tick — which is what it did before there was a change list. The
/// byte totals are the parent commit's on this very scenario, per
/// algorithm: cold, warm, and after each of three ticks.
#[test]
fn a_cached_fleet_pays_what_it_paid_before_change_lists() {
    let r0 = clusters(4, 200, 7);
    let s0 = clusters(8, 200, 1007);
    let spec = JoinSpec::distance_join(150.0);
    let tspec = TrajectorySpec {
        move_fraction: 0.05,
        ..TrajectorySpec::default()
    };
    let parents: [(&str, [u64; 5]); 6] = [
        ("naive", [9704, 0, 9848, 9848, 9848]),
        ("grid", [5900, 0, 6242, 6242, 6242]),
        ("mobijoin", [9704, 0, 9848, 9848, 9848]),
        ("upjoin", [11612, 0, 11918, 11918, 11918]),
        ("srjoin", [12072, 0, 12378, 12378, 12378]),
        ("semijoin", [8960, 8112, 9168, 9144, 9152]),
    ];
    for (alg, (name, want)) in algorithms().iter().zip(parents) {
        assert_eq!(alg.name(), name);
        let live = build(&r0, &s0, Some(4), true, true);
        let mut traj_r = TrajectoryStream::new(&r0, tspec, 5);
        let mut traj_s = TrajectoryStream::new(&s0, tspec, 1005);
        let mut got = Vec::new();
        for round in 0..5 {
            if round >= 2 {
                live.apply_updates(Side::R, moves(&mut traj_r));
                live.apply_updates(Side::S, moves(&mut traj_s));
            }
            got.push(alg.run(&live, &spec).expect("fleet join").total_bytes());
        }
        assert_eq!(got, want, "{name}");
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Topology {
    Flat,
    Cached,
    Fleet2,
}

/// A writer racing one join, scripted by hand: HBSJ on the left half of
/// the space, then — with `moved` — a tick that carries R object 1 across
/// the seam, then HBSJ on the right half. Object 1 is within ε of S
/// object 101 before and after, and the pair's reference point (the
/// midpoint) moves with it from the left half into the right: each leaf
/// derives the pair once, at its own generation. Returns the generation
/// the join started at and its report.
fn race_one_seam(topology: Topology, moved: bool) -> (u64, JoinReport) {
    let space = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
    let r = vec![
        SpatialObject::point(1, 46.0, 50.0),
        SpatialObject::point(2, 10.0, 10.0),
        SpatialObject::point(3, 90.0, 90.0),
    ];
    let s = vec![
        SpatialObject::point(101, 50.0, 50.0),
        SpatialObject::point(102, 10.0, 12.0),
        SpatialObject::point(103, 90.0, 88.0),
    ];
    let b = DeploymentBuilder::new(r, s).with_space(space).live();
    let dep = match topology {
        Topology::Flat => b,
        Topology::Cached => b.with_client_cache(true),
        Topology::Fleet2 => b.with_shards(2, 2),
    }
    .build();
    // One tick first, so the join starts at a stamped generation.
    let far = SpatialObject::point(4, 20.0, 80.0);
    let start = dep.apply_updates(Side::R, vec![Update::Insert(far)]);
    let spec = JoinSpec::distance_join(10.0);
    let mut ctx = ExecCtx::new(&dep, &spec);
    ctx.hbsj_leaf(&Rect::from_coords(0.0, 0.0, 50.0, 100.0), None)
        .expect("fits");
    if moved {
        let to = Rect::point(Point::new(54.0, 50.0));
        dep.apply_updates(Side::R, vec![Update::Move { id: 1, to }]);
    }
    ctx.hbsj_leaf(&Rect::from_coords(50.0, 0.0, 100.0, 100.0), None)
        .expect("fits");
    assert_eq!(
        ctx.out.len(),
        3 + usize::from(moved),
        "the race plants one duplicate"
    );
    (start, ctx.finish("by hand"))
}

#[test]
fn a_pair_derived_on_both_sides_of_a_raced_seam_is_reported_once() {
    let want = vec![(1, 101), (2, 102), (3, 103)];
    for topology in [Topology::Flat, Topology::Cached] {
        let (g, raced) = race_one_seam(topology, true);
        assert_eq!(raced.pairs.len(), 3, "{topology:?}: {:?}", raced.pairs);
        assert_eq!(sorted_pairs(&raced), want, "{topology:?}");
        assert_eq!(raced.stats.collapsed_pairs, Some(1), "{topology:?}");
        assert_eq!(raced.generations_r, (g, g + 1), "{topology:?}");
        assert_eq!(
            raced.generations_s,
            (0, 0),
            "{topology:?}: S was never written"
        );

        // Without the move the join read one state per side: the
        // reference-point test alone is exact, and the pass is skipped.
        let (g, calm) = race_one_seam(topology, false);
        assert_eq!(sorted_pairs(&calm), want, "{topology:?}");
        assert_eq!(calm.stats.collapsed_pairs, None, "{topology:?}");
        assert_eq!(calm.generations_r, (g, g), "{topology:?}");
    }
    // A fleet's summed generation cannot show an inconsistent cut, so
    // its joins take the pass whatever they observed.
    let (g, calm) = race_one_seam(Topology::Fleet2, false);
    assert_eq!((g, calm.generations_r), (2, (2, 2)), "two shards, one tick");
    assert_eq!(sorted_pairs(&calm), want);
    assert_eq!(calm.stats.collapsed_pairs, Some(0));
    let (_, raced) = race_one_seam(Topology::Fleet2, true);
    assert_eq!(sorted_pairs(&raced), want);
    assert_eq!(raced.stats.collapsed_pairs, Some(1));
}
