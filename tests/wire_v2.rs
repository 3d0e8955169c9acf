//! Differential oracles for wire protocol v2.
//!
//! Protocol v2 is a per-deployment wire version (`NetConfig::wire_v2`):
//! compact object frames (delta-varint ids, window-quantized u16
//! coordinates with exact-f32 escapes) and varint scalar and generation
//! frames, spoken by every physical link of the deployment from its first
//! frame. This suite pins the two contracts that make it deployable:
//!
//! * **Result identity** — for every algorithm (NaiveJoin, GridJoin,
//!   MobiJoin, UpJoin, SrJoin, SemiJoin) on flat, 4-shard and cached
//!   deployments, a v2 fleet returns exactly the pairs of the v1 run.
//!   The codec guarantees this structurally: a v2 decode is bit-equal
//!   to the v1 decode of the same objects (verify-else-escape
//!   quantization), so plans may differ — the v2 cost model prices the
//!   denser frames — but results cannot.
//! * **Off means off** — with `wire_v2` disabled (the default), every
//!   link speaks v1 byte-identically: link meters match a default-config
//!   run field by field.
//!
//! Plus the fleet-mix contract: a v2 link that meets a peer which cannot
//! read v2 fails typed — its answers are `Malformed`, charged and
//! retried, never a value — while the shards that read v2 answer as the
//! scan does.

use adhoc_spatial_joins::prelude::*;
use asj_core::DeploymentBuilder;
use asj_geom::{Rect, SpatialObject};
use asj_net::transport::InProcExchange;
use asj_net::{
    Link, NetConfig, RawExchange, Request, Response, RetryPolicy, ShardEndpoint, ShardRouter,
};
use asj_server::{ScanStore, SpatialService, SpatialStore};
use asj_workloads::{default_space, gaussian_clusters, SyntheticSpec};
use bytes::Bytes;
use std::sync::Arc;

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

/// Deployment shapes the sweep crosses with v2 on/off.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Flat,
    Sharded(usize),
    Cached,
}

fn build(r: &[SpatialObject], s: &[SpatialObject], shape: Shape, net: NetConfig) -> Deployment {
    let mut b = DeploymentBuilder::new(r.to_vec(), s.to_vec())
        .with_space(default_space())
        .with_net(net)
        .cooperative(); // SemiJoin runs too; others ignore the extension
    match shape {
        Shape::Flat => {}
        Shape::Sharded(n) => b = b.with_shards(n, n),
        Shape::Cached => b = b.with_client_cache(true),
    }
    b.build()
}

fn sorted_pairs(rep: &JoinReport) -> Vec<(u32, u32)> {
    let mut pairs = rep.pairs.clone();
    pairs.sort_unstable();
    pairs
}

/// Every algorithm, every shape: the v2 run returns exactly the v1 pairs.
#[test]
fn v2_joins_identical_across_flat_sharded_cached() {
    for seed in [11, 42] {
        let r = clusters(4, 180, seed);
        let s = clusters(4, 180, seed + 100);
        let spec = JoinSpec::distance_join(150.0);
        for shape in [Shape::Flat, Shape::Sharded(4), Shape::Cached] {
            let v1 = build(&r, &s, shape, NetConfig::default());
            let v2 = build(&r, &s, shape, NetConfig::default().with_wire_v2(true));
            for alg in algorithms() {
                match (alg.run(&v1, &spec), alg.run(&v2, &spec)) {
                    (Ok(rep1), Ok(rep2)) => assert_eq!(
                        sorted_pairs(&rep1),
                        sorted_pairs(&rep2),
                        "{} diverged under v2 on {shape:?}",
                        alg.name()
                    ),
                    (Err(e1), Err(e2)) => assert_eq!(
                        std::mem::discriminant(&e1),
                        std::mem::discriminant(&e2),
                        "{}: v2 must not change the infeasibility verdict on {shape:?}",
                        alg.name()
                    ),
                    (a, b) => panic!(
                        "{} on {shape:?}: feasibility diverged under v2 ({a:?} vs {b:?})",
                        alg.name()
                    ),
                }
            }
        }
    }
}

/// With the flag off — explicitly or by default — every link speaks v1
/// byte-identically: meters agree field by field with a default run.
#[test]
fn v2_off_is_byte_identical_to_default() {
    let r = clusters(2, 180, 7);
    let s = clusters(8, 180, 107);
    let spec = JoinSpec::distance_join(150.0);
    for shape in [Shape::Flat, Shape::Sharded(4), Shape::Cached] {
        let default_net = build(&r, &s, shape, NetConfig::default());
        let explicit_off = build(&r, &s, shape, NetConfig::default().with_wire_v2(false));
        for alg in algorithms() {
            let (Ok(a), Ok(b)) = (alg.run(&default_net, &spec), alg.run(&explicit_off, &spec))
            else {
                continue; // infeasibility equality is pinned above
            };
            assert_eq!(sorted_pairs(&a), sorted_pairs(&b));
            assert_eq!(
                (a.link_r, a.link_s),
                (b.link_r, b.link_s),
                "{} on {shape:?}: wire_v2=false must be byte-identical to default",
                alg.name()
            );
        }
    }
}

/// The compact frames actually pay: the download-dominated NaiveJoin
/// moves strictly fewer bytes under v2 (non-vacuousness for the identity
/// tests above).
#[test]
fn v2_saves_bytes_on_download_heavy_plans() {
    let r = clusters(4, 180, 11);
    let s = clusters(4, 180, 111);
    let spec = JoinSpec::distance_join(150.0);
    let v1 = NaiveJoin.run(&build(&r, &s, Shape::Flat, NetConfig::default()), &spec);
    let v2 = NaiveJoin.run(
        &build(&r, &s, Shape::Flat, NetConfig::default().with_wire_v2(true)),
        &spec,
    );
    let (v1, v2) = (v1.unwrap(), v2.unwrap());
    assert_eq!(sorted_pairs(&v1), sorted_pairs(&v2));
    assert!(
        (v2.total_bytes() as f64) < 0.75 * v1.total_bytes() as f64,
        "v2 {} vs v1 {} bytes — the object frames did not compact",
        v2.total_bytes(),
        v1.total_bytes()
    );
}

/// A pre-v2 server: its decoder has never seen the v2 marker `0x71`, so
/// a v2 request is an unknown frame to it and is answered with the typed
/// `Malformed` error, like any other it cannot read.
struct V1OnlyShard(InProcExchange<SpatialService<ScanStore>>);

impl RawExchange for V1OnlyShard {
    fn exchange(&self, request: Bytes) -> Bytes {
        if request.first() == Some(&0x71) {
            return asj_net::codec::encode_response(&Response::Malformed);
        }
        self.0.exchange(request)
    }
}

/// A two-shard fleet, one shard behind a v1-only server. At v2 the
/// requests the router sends to that shard fail typed: `Malformed`,
/// charged, retried within the budget and abandoned, never decoded into a
/// value. Requests pruned to the other shard still equal the scan. At v1
/// the whole fleet does.
#[test]
fn a_v2_fleet_with_a_v1_only_shard_fails_typed_there() {
    let all = clusters(4, 200, 13);
    let (left, right): (Vec<_>, Vec<_>) = all
        .iter()
        .copied()
        .partition(|o| o.mbr.center().x < default_space().center().x);
    let right_bounds = Rect::union_of(right.iter().map(|o| o.mbr)).unwrap();
    let oracle = ScanStore::new(all.clone());
    let net = NetConfig::default().with_retry(RetryPolicy::attempts(3));
    let fleet = |v2: bool| {
        let shard = |objs: &[SpatialObject]| {
            let bounds = Rect::union_of(objs.iter().map(|o| o.mbr));
            let service = Arc::new(SpatialService::new(ScanStore::new(objs.to_vec())));
            (bounds, InProcExchange::new(service))
        };
        let ((lb, l), (rb, r)) = (shard(&left), shard(&right));
        let router = ShardRouter::new(
            vec![
                ShardEndpoint::new(lb, Box::new(l)),
                ShardEndpoint::new(rb, Box::new(V1OnlyShard(r))),
            ],
            &net.with_wire_v2(v2),
        );
        Link::routed(router, net.tariff_r)
    };
    let ids = |resp: Response| {
        let mut ids: Vec<u32> = resp.into_objects().iter().map(|o| o.id).collect();
        ids.sort_unstable();
        ids
    };
    let scan = |w: &Rect| ids(Response::Objects(oracle.window(w)));
    let windows = [
        Rect::from_coords(0.0, 0.0, 10_000.0, 10_000.0),
        Rect::from_coords(2_000.0, 1_000.0, 7_500.0, 8_000.0),
        Rect::from_coords(4_900.0, 0.0, 5_100.0, 10_000.0), // straddles the split
        Rect::from_coords(0.0, 0.0, 4_000.0, 10_000.0),     // left shard only
        Rect::from_coords(500.0, 2_000.0, 3_000.0, 6_000.0), // left shard only
    ];
    let left_only = windows.iter().filter(|w| !right_bounds.intersects(w));
    assert_eq!(left_only.count(), 2, "both sides of the fleet are asked");
    let (v1, v2) = (fleet(false), fleet(true));
    for w in windows {
        assert_eq!(
            v1.request(&Request::Count(w)).into_count(),
            oracle.count(&w)
        );
        assert_eq!(ids(v1.request(&Request::Window(w))), scan(&w));
        let before = v2.meter().snapshot();
        let (count, window) = (
            v2.request(&Request::Count(w)),
            v2.request(&Request::Window(w)),
        );
        let after = v2.meter().snapshot();
        if right_bounds.intersects(&w) {
            assert_eq!((count, window), (Response::Malformed, Response::Malformed));
            assert_eq!(after.retried - before.retried, 4, "two retries a request");
            assert_eq!(after.abandoned - before.abandoned, 2, "budget spent");
            assert!(
                after.down_bytes > before.down_bytes,
                "the refusals were charged"
            );
        } else {
            assert_eq!(count.into_count(), oracle.count(&w), "{w:?}");
            assert_eq!(ids(window), scan(&w), "{w:?}");
            assert_eq!(after.retried, before.retried, "{w:?}");
        }
    }
    assert_eq!(v1.meter().snapshot().retried, 0);
    assert_eq!(v2.meter().snapshot().abandoned, 6, "three windows reach it");
}
