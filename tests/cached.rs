//! Differential oracles for the client-side statistics/window cache.
//!
//! The cache is a transparency layer: it must be invisible in every join
//! result and only ever *delete* wire traffic. This suite pins that:
//!
//! * **Result identity** — for pinned seeds and every algorithm
//!   (NaiveJoin, GridJoin, MobiJoin, UpJoin, SrJoin, SemiJoin), a cached
//!   deployment yields exactly the pairs of an uncached one — flat and
//!   stacked over a 4-shard fleet, with a roomy and a small buffer.
//! * **Byte identity when off** — `client_cache` disabled builds no layer
//!   at all: link snapshots equal the plain deployment's bit for bit.
//! * **Session savings** — a split-heavy MobiJoin session (3 identical
//!   joins) sends fewer messages and at least 20 % fewer aggregate bytes
//!   than the uncached session, with identical pairs every time.
//! * **Non-vacuity** — the mutant `tools/mutants/cache-exact-count-flipped.diff`,
//!   which serves the one largest cached count flipped, fails this suite
//!   (`tools/mutants.py` re-plants it): a single bad count is caught.

use adhoc_spatial_joins::prelude::*;
use asj_core::DeploymentBuilder;
use asj_geom::SpatialObject;
use asj_workloads::{default_space, gaussian_clusters, SyntheticSpec};

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

struct Config {
    buffer: usize,
    bucket: bool,
    shards: Option<usize>,
}

fn build(r: &[SpatialObject], s: &[SpatialObject], cfg: &Config, cache: bool) -> Deployment {
    let mut b = DeploymentBuilder::new(r.to_vec(), s.to_vec())
        .with_buffer(cfg.buffer)
        .with_space(default_space())
        .with_client_cache(cache)
        .cooperative(); // SemiJoin runs too; others ignore the extension
    if let Some(n) = cfg.shards {
        b = b.with_shards(n, n);
    }
    b.build()
}

fn sorted_pairs(rep: &JoinReport) -> Vec<(u32, u32)> {
    let mut pairs = rep.pairs.clone();
    pairs.sort_unstable();
    pairs
}

/// Every algorithm: a cached deployment (fresh per run, so the cache is
/// cold) produces exactly the uncached pairs, and the report carries
/// cache accounting.
fn assert_cache_invisible(r: &[SpatialObject], s: &[SpatialObject], cfg: &Config, eps: f64) {
    let spec = JoinSpec::distance_join(eps).with_bucket_nlsj(cfg.bucket);
    let plain = build(r, s, cfg, false);
    for alg in algorithms() {
        match alg.run(&plain, &spec) {
            Ok(plain_rep) => {
                let cached = build(r, s, cfg, true);
                let rep = alg
                    .run(&cached, &spec)
                    .unwrap_or_else(|e| panic!("{} failed with cache on: {e}", alg.name()));
                assert_eq!(
                    sorted_pairs(&rep),
                    sorted_pairs(&plain_rep),
                    "{} diverged (buffer={}, bucket={}, shards={:?})",
                    alg.name(),
                    cfg.buffer,
                    cfg.bucket,
                    cfg.shards
                );
                assert!(
                    rep.cache_r.is_some() && rep.cache_s.is_some(),
                    "cached reports must carry cache accounting"
                );
                assert!(
                    rep.total_bytes() <= plain_rep.total_bytes(),
                    "{}: the cache must never add wire bytes ({} vs {})",
                    alg.name(),
                    rep.total_bytes(),
                    plain_rep.total_bytes()
                );
                assert!(
                    rep.total_queries() <= plain_rep.total_queries(),
                    "{}: the cache must never add messages",
                    alg.name()
                );
                if cfg.shards.is_some() {
                    assert!(
                        rep.fleet_r.is_some() && rep.fleet_s.is_some(),
                        "stacked cache-over-fleet must keep per-shard accounting"
                    );
                }
            }
            Err(plain_err) => {
                // Infeasible (e.g. NaiveJoin with a tiny buffer): the
                // cache must not change the verdict.
                let err = alg
                    .run(&build(r, s, cfg, true), &spec)
                    .expect_err("the cache must not make an infeasible join feasible");
                assert_eq!(
                    std::mem::discriminant(&err),
                    std::mem::discriminant(&plain_err),
                    "{}: error kind must match the uncached run",
                    alg.name()
                );
            }
        }
    }
}

#[test]
fn cached_joins_identical_flat() {
    for seed in [11, 42] {
        assert_cache_invisible(
            &clusters(4, 180, seed),
            &clusters(4, 180, seed + 100),
            &Config {
                buffer: 800,
                bucket: false,
                shards: None,
            },
            150.0,
        );
    }
}

#[test]
fn cached_joins_identical_flat_small_buffer() {
    // Buffer 100 forces splits (repeated quadrant COUNTs) and NLSJ
    // (ε-RANGE containment lookups).
    assert_cache_invisible(
        &clusters(2, 180, 7),
        &clusters(8, 180, 107),
        &Config {
            buffer: 100,
            bucket: false,
            shards: None,
        },
        150.0,
    );
}

#[test]
fn cached_joins_identical_stacked_over_fleet() {
    // The acceptance configuration: cache stacked over a 4-shard fleet.
    assert_cache_invisible(
        &clusters(4, 180, 3),
        &clusters(16, 180, 103),
        &Config {
            buffer: 800,
            bucket: false,
            shards: Some(4),
        },
        150.0,
    );
}

#[test]
fn cached_joins_identical_fleet_bucket() {
    assert_cache_invisible(
        &clusters(1, 150, 5),
        &clusters(1, 150, 105),
        &Config {
            buffer: 100,
            bucket: true,
            shards: Some(4),
        },
        120.0,
    );
}

/// With the cache disabled no layer exists at all: every meter total is
/// bit-identical to a deployment built before the extension existed
/// (i.e. a plain default build).
#[test]
fn cache_off_is_byte_identical_to_seed() {
    let r = clusters(4, 180, 21);
    let s = clusters(8, 180, 121);
    let spec = JoinSpec::distance_join(150.0);
    let baseline = DeploymentBuilder::new(r.clone(), s.clone())
        .with_space(default_space())
        .build();
    let explicit_off = DeploymentBuilder::new(r, s)
        .with_space(default_space())
        .with_client_cache(false)
        .build();
    for alg in [
        Box::new(SrJoin::default()) as Box<dyn DistributedJoin>,
        Box::new(MobiJoin),
    ] {
        let a = alg.run(&baseline, &spec).unwrap();
        let b = alg.run(&explicit_off, &spec).unwrap();
        assert_eq!(
            (a.link_r, a.link_s),
            (b.link_r, b.link_s),
            "{}: cache-off must be byte-identical on the wire",
            alg.name()
        );
        assert!(b.cache_r.is_none() && b.cache_s.is_none());
    }
}

/// The headline saving: a split-heavy MobiJoin session (3 identical
/// joins against one deployment) never sends more messages and cuts
/// aggregate bytes by at least 20 %, flat and stacked over a fleet.
#[test]
fn mobijoin_session_cuts_aggregate_bytes_and_messages() {
    let r = clusters(4, 200, 31);
    let s = clusters(4, 200, 131);
    let spec = JoinSpec::distance_join(150.0);
    for shards in [None, Some(4)] {
        let cfg = Config {
            buffer: 100, // split-heavy: every join repartitions
            bucket: false,
            shards,
        };
        let run_session = |dep: &Deployment| {
            let (mut bytes, mut agg, mut msgs) = (0u64, 0u64, 0u64);
            let mut pairs = None;
            for _ in 0..3 {
                let rep = MobiJoin.run(dep, &spec).unwrap();
                bytes += rep.total_bytes();
                agg += rep.link_r.aggregate_bytes() + rep.link_s.aggregate_bytes();
                msgs += rep.total_queries();
                let sorted = sorted_pairs(&rep);
                if let Some(prev) = &pairs {
                    assert_eq!(prev, &sorted, "session joins must agree");
                }
                pairs = Some(sorted);
            }
            (bytes, agg, msgs, pairs.unwrap())
        };
        let (plain_bytes, plain_agg, plain_msgs, plain_pairs) =
            run_session(&build(&r, &s, &cfg, false));
        let (cached_bytes, cached_agg, cached_msgs, cached_pairs) =
            run_session(&build(&r, &s, &cfg, true));
        assert_eq!(cached_pairs, plain_pairs, "shards={shards:?}");
        assert!(!plain_pairs.is_empty(), "vacuous workload");
        assert!(
            cached_msgs < plain_msgs,
            "shards={shards:?}: cached session sent {cached_msgs} messages vs {plain_msgs}"
        );
        assert!(
            cached_agg * 5 <= plain_agg * 4,
            "shards={shards:?}: cached {cached_agg} vs plain {plain_agg} aggregate bytes — \
             less than the required 20% saving"
        );
        assert!(
            cached_bytes < plain_bytes,
            "shards={shards:?}: total bytes must drop too"
        );
    }
}
