//! Differential oracles for sharded server fleets.
//!
//! Sharding is a deployment concern: it must be invisible in the join
//! result and fully accounted on the wire. This suite pins that:
//!
//! * **Result identity** — for pinned seeds and every algorithm
//!   (NaiveJoin, GridJoin, MobiJoin, UpJoin, SrJoin, SemiJoin), a
//!   deployment sharded `N ∈ {1, 2, 4, 7}` ways per side yields exactly
//!   the pairs of the single-server deployment, with roomy and small
//!   buffers, with per-probe and bucket NLSJ.
//! * **Wire identity at N = 1** — a 1-shard fleet's link snapshots are
//!   byte-identical to the flat deployment's: the router adds zero
//!   traffic when there is nothing to scatter.
//! * **Meter conservation** — a threaded fleet under many interleaved
//!   client threads loses no packet: the sum of per-shard meters equals
//!   the router's aggregate, field by field.

use adhoc_spatial_joins::prelude::*;
use asj_core::DeploymentBuilder;
use asj_geom::{Rect, SpatialObject};
use asj_net::{Request, Response};
use asj_server::{ScanStore, SpatialStore};
use asj_workloads::{default_space, gaussian_clusters, SyntheticSpec};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

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
}

fn build(
    r: &[SpatialObject],
    s: &[SpatialObject],
    cfg: &Config,
    shards: Option<usize>,
) -> Deployment {
    let mut b = DeploymentBuilder::new(r.to_vec(), s.to_vec())
        .with_buffer(cfg.buffer)
        .with_space(default_space())
        .cooperative(); // SemiJoin runs too; others ignore the extension
    if let Some(n) = shards {
        b = b.with_shards(n, n);
    }
    b.build()
}

fn sorted_pairs(rep: &JoinReport) -> Vec<(u32, u32)> {
    let mut pairs = rep.pairs.clone();
    pairs.sort_unstable();
    pairs
}

/// Every algorithm, every shard count: identical pairs to the flat
/// deployment; at N = 1 additionally identical wire bytes.
fn assert_sharding_invisible(r: &[SpatialObject], s: &[SpatialObject], cfg: &Config, eps: f64) {
    let spec = JoinSpec::distance_join(eps).with_bucket_nlsj(cfg.bucket);
    let flat = build(r, s, cfg, None);
    for alg in algorithms() {
        let flat_run = alg.run(&flat, &spec);
        let flat_rep = match flat_run {
            Ok(rep) => rep,
            Err(ref flat_err) => {
                // Infeasible on this configuration (e.g. NaiveJoin with a
                // tiny buffer): sharding must not change that verdict.
                for n in SHARD_COUNTS {
                    let err = alg
                        .run(&build(r, s, cfg, Some(n)), &spec)
                        .expect_err("sharding must not make an infeasible join feasible");
                    assert_eq!(
                        std::mem::discriminant(&err),
                        std::mem::discriminant(flat_err),
                        "{}: error kind must match flat at N={n}",
                        alg.name()
                    );
                }
                continue;
            }
        };
        let want = sorted_pairs(&flat_rep);
        for n in SHARD_COUNTS {
            let fleet = build(r, s, cfg, Some(n));
            let rep = alg
                .run(&fleet, &spec)
                .unwrap_or_else(|e| panic!("{} (N={n}) failed: {e}", alg.name()));
            assert_eq!(
                sorted_pairs(&rep),
                want,
                "{} diverged at N={n} (buffer={}, bucket={})",
                alg.name(),
                cfg.buffer,
                cfg.bucket
            );
            assert!(
                rep.fleet_r.is_some() && rep.fleet_s.is_some(),
                "fleet reports must carry per-shard accounting"
            );
            if n == 1 {
                assert_eq!(
                    (rep.link_r, rep.link_s),
                    (flat_rep.link_r, flat_rep.link_s),
                    "{}: a 1-shard fleet must be byte-identical on the wire",
                    alg.name()
                );
            }
        }
    }
}

#[test]
fn sharded_joins_identical_skewed_data() {
    for seed in [11, 42] {
        assert_sharding_invisible(
            &clusters(4, 180, seed),
            &clusters(4, 180, seed + 100),
            &Config {
                buffer: 800,
                bucket: false,
            },
            150.0,
        );
    }
}

#[test]
fn sharded_joins_identical_two_against_eight_clusters() {
    assert_sharding_invisible(
        &clusters(2, 180, 7),
        &clusters(8, 180, 107),
        &Config {
            buffer: 800,
            bucket: false,
        },
        150.0,
    );
}

#[test]
fn sharded_joins_identical_small_buffer_bucket_nlsj() {
    // Buffer 100 forces splits and NLSJ; bucket mode exercises the
    // router's per-probe sub-batching of `BucketEpsRange`.
    assert_sharding_invisible(
        &clusters(1, 180, 3),
        &clusters(1, 180, 103),
        &Config {
            buffer: 100,
            bucket: true,
        },
        150.0,
    );
}

#[test]
fn sharded_joins_identical_small_buffer_per_probe_nlsj() {
    assert_sharding_invisible(
        &clusters(16, 150, 5),
        &clusters(16, 150, 105),
        &Config {
            buffer: 100,
            bucket: false,
        },
        120.0,
    );
}

/// Satellite: threaded fleets under interleaved load conserve meter
/// accounting — no lost or double-counted packets, per-shard sums equal
/// the aggregate exactly.
#[test]
fn threaded_fleet_conserves_meter_accounting_under_stress() {
    let r = clusters(4, 300, 21);
    let s = clusters(8, 300, 121);
    let dep = DeploymentBuilder::new(r.clone(), s.clone())
        .with_space(default_space())
        .with_shards(4, 3)
        .threaded()
        .build();
    let oracle_r = ScanStore::new(r);
    let oracle_s = ScanStore::new(s);
    let (link_r, link_s) = dep.connect();
    let space = default_space();
    let threads = 8;
    let per_thread = 30;

    std::thread::scope(|scope| {
        for t in 0..threads {
            let (link_r, link_s) = (&link_r, &link_s);
            let (oracle_r, oracle_s) = (&oracle_r, &oracle_s);
            scope.spawn(move || {
                for i in 0..per_thread {
                    // Deterministic pseudo-random windows per (t, i).
                    let a = ((t * 131 + i * 37) % 97) as f64 / 97.0;
                    let b = ((t * 61 + i * 17) % 89) as f64 / 89.0;
                    let w = Rect::from_coords(
                        a * 8000.0,
                        b * 8000.0,
                        a * 8000.0 + 2500.0,
                        b * 8000.0 + 2500.0,
                    );
                    assert_eq!(
                        link_r.request(&Request::Count(w)).into_count(),
                        oracle_r.count(&w),
                        "fleet COUNT diverged under concurrency"
                    );
                    let mut got: Vec<u32> = link_s
                        .request(&Request::Window(w))
                        .into_objects()
                        .iter()
                        .map(|o| o.id)
                        .collect();
                    got.sort_unstable();
                    let mut want: Vec<u32> = oracle_s.window(&w).iter().map(|o| o.id).collect();
                    want.sort_unstable();
                    assert_eq!(got, want, "fleet WINDOW diverged under concurrency");
                    // A sub-batched kind races too: each shard gets the
                    // cut of the two probes that reach it.
                    let probes = vec![SpatialObject::new(0, w), SpatialObject::new(1, space)];
                    let eps = 40.0;
                    let buckets = link_r
                        .request(&Request::BucketEpsRange { probes, eps })
                        .into_buckets();
                    for (bucket, q) in buckets.iter().zip([w, space]) {
                        let mut got: Vec<u32> = bucket.iter().map(|o| o.id).collect();
                        got.sort_unstable();
                        let want = oracle_r.eps_range(&q, eps).into_iter().map(|o| o.id);
                        let mut want: Vec<u32> = want.collect();
                        want.sort_unstable();
                        assert_eq!(got, want, "fleet bucket diverged under concurrency");
                    }
                }
            });
        }
    });

    for (link, shards) in [(&link_r, 4u64), (&link_s, 3u64)] {
        let fleet = link.fleet().expect("sharded link").snapshot();
        let aggregate = link.meter().snapshot();
        assert_eq!(
            fleet.summed(),
            aggregate,
            "per-shard meters must sum exactly to the aggregate"
        );
        // Every logical request produced exactly `shards` scatter slots.
        let requests = match shards {
            4 => (threads * per_thread * 2) as u64, // Count + bucket on R
            _ => (threads * per_thread) as u64,     // Window on S
        };
        assert_eq!(
            fleet.scattered + fleet.pruned,
            requests * shards,
            "scatter slots must be conserved"
        );
        assert!(fleet.scattered > 0);
    }
}

/// The cooperative forest level: a fleet's `CoopLevelMbrs` concatenates
/// every shard's published level, and SemiJoin still produces exact pairs
/// through it (pinned in `assert_sharding_invisible`); here we pin the
/// shape of the answer itself.
#[test]
fn fleet_level_mbrs_concatenate_per_shard_forests() {
    let objects = clusters(4, 200, 9);
    let flat = DeploymentBuilder::new(objects.clone(), Vec::new())
        .with_space(default_space())
        .cooperative()
        .build();
    let fleet = DeploymentBuilder::new(objects, Vec::new())
        .with_space(default_space())
        .with_shards(4, 1)
        .cooperative()
        .build();
    let (fl, _) = flat.connect();
    let (sl, _) = fleet.connect();
    let flat_leaves = fl.request(&Request::CoopLevelMbrs(0)).into_rects();
    let fleet_leaves = sl.request(&Request::CoopLevelMbrs(0)).into_rects();
    assert!(!fleet_leaves.is_empty());
    // Four smaller R-trees publish at least as many leaf MBRs as one big
    // tree over the same data, and every object is under some leaf in
    // both answers (checked indirectly: SemiJoin exactness above).
    assert!(fleet_leaves.len() >= flat_leaves.len().min(4));
}

/// Sorts what a fleet merges in shard order, so answers compare as sets.
fn canonical(resp: Response) -> Response {
    let sorted = |mut objects: Vec<SpatialObject>| {
        objects.sort_by_key(|o| o.id);
        objects
    };
    match resp {
        Response::Objects(objects) => Response::Objects(sorted(objects)),
        Response::Buckets(buckets) => Response::Buckets(buckets.into_iter().map(sorted).collect()),
        Response::Pairs(mut pairs) => {
            pairs.sort_unstable();
            Response::Pairs(pairs)
        }
        other => panic!("not an answer: {other:?}"),
    }
}

/// Every ε-kind request at every ε a device can send — negative, signed
/// zero, NaN, small, past the space — answers through a 1/2/4/7-shard
/// fleet what the flat server answers. A shard filters by `dx² + dy² ≤
/// ε²`, so a probe reaches |ε| whatever ε's sign, and `CoopJoinPush` as
/// far as the ε it joins at (`eps > 0`, else 0) — the router must not
/// prune by a window a negative ε shrinks. The probes are boxes
/// centred between lattice columns, so a shard seam can pass between a
/// probe's centre and every point it reaches.
#[test]
fn fleets_answer_every_eps_as_the_flat_server_does() {
    let lattice: Vec<SpatialObject> = (0..400)
        .map(|i| SpatialObject::point(i, f64::from(i % 20) * 10.0, f64::from(i / 20) * 10.0))
        .collect();
    let probes: Vec<SpatialObject> = (0..19)
        .map(|k| {
            let (x, y) = (
                f64::from(k) * 10.0 + 5.0,
                f64::from(k * 7 % 19) * 10.0 + 5.0,
            );
            SpatialObject::new(
                1000 + k,
                Rect::from_coords(x - 6.0, y - 6.0, x + 6.0, y + 6.0),
            )
        })
        .collect();
    let mbrs: Vec<Rect> = probes.iter().map(|p| p.mbr).collect();
    let build = |shards: Option<usize>| {
        let b = DeploymentBuilder::new(lattice.clone(), lattice.clone())
            .with_space(Rect::from_coords(0.0, 0.0, 190.0, 190.0))
            .cooperative();
        match shards {
            Some(n) => b.with_shards(n, n),
            None => b,
        }
        .build()
    };
    let flat = build(None);
    let fleets: Vec<(usize, Deployment)> = SHARD_COUNTS.map(|n| (n, build(Some(n)))).into();
    let mut reached_at_negative_eps = 0;
    for eps in [-50.0, -1.0, -0.0, 0.0, f64::NAN, 2.5, 300.0] {
        let mut requests: Vec<Request> = probes
            .iter()
            .map(|p| Request::EpsRange { q: p.mbr, eps })
            .collect();
        requests.extend([
            Request::BucketEpsRange {
                probes: probes.clone(),
                eps,
            },
            Request::CoopFilterByMbrs {
                mbrs: mbrs.clone(),
                eps,
            },
            Request::CoopJoinPush {
                objects: probes.clone(),
                eps,
            },
        ]);
        let (flat_link, _) = flat.connect();
        for req in &requests {
            let want = canonical(flat_link.request(req));
            if eps == -50.0 && matches!(&want, Response::Objects(o) if !o.is_empty()) {
                reached_at_negative_eps += 1;
            }
            for (n, fleet) in &fleets {
                let (link, _) = fleet.connect();
                assert_eq!(
                    canonical(link.request(req)),
                    want,
                    "{n} shards, eps {eps}: {req:?}"
                );
            }
        }
    }
    assert!(reached_at_negative_eps > probes.len(), "vacuous at ε = −50");
}
