//! Differential oracles for wire protocol v2.
//!
//! Protocol v2 is a per-link negotiated capability: compact object
//! frames (delta-varint ids, window-quantized u16 coordinates with
//! exact-f32 escapes), varint scalar and generation frames, negotiated
//! by a HELLO/ACCEPT handshake on each physical link. This suite pins
//! the two contracts that make it deployable:
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
//!   run field by field, and no handshake frame is ever sent.
//!
//! Plus the fleet-mix contract: a v2-capable client negotiating against
//! a fleet with one pre-v2 shard falls back to v1 *on that link only*,
//! without error — versions are per physical edge, not per deployment.

use adhoc_spatial_joins::prelude::*;
use asj_core::DeploymentBuilder;
use asj_geom::{Rect, SpatialObject};
use asj_net::codec::WireVersion;
use asj_net::transport::InProcExchange;
use asj_net::{Link, NetConfig, RawExchange, Request, ShardEndpoint, ShardRouter};
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
    // And the negotiated version is observable on a flat link: off stays
    // v1 (no handshake is even attempted), on upgrades to v2.
    let (off_r, _) = build(&r, &s, Shape::Flat, NetConfig::default()).connect();
    assert_eq!(off_r.wire(), WireVersion::V1);
    let (on_r, _) = build(&r, &s, Shape::Flat, NetConfig::default().with_wire_v2(true)).connect();
    assert_eq!(on_r.wire(), WireVersion::V2);
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

/// A pre-v2 server: no HELLO intercept in its transport adapter, so a
/// version probe falls through to the request decoder and gets refused
/// like any unknown frame.
struct V1OnlyShard(InProcExchange<SpatialService<ScanStore>>);

impl RawExchange for V1OnlyShard {
    fn exchange(&self, request: Bytes) -> Bytes {
        if request.first() == Some(&0x70) {
            // An old server has no idea what 0x70 is; whatever it sends
            // back (an error byte here), it is not a valid ACCEPT.
            return Bytes::from_static(&[0x00]);
        }
        self.0.exchange(request)
    }
}

/// A mixed fleet — one v2-capable shard, one v1-only shard — negotiates
/// per physical link: the capable link upgrades, the old one falls back,
/// and every query merges correctly across the version boundary.
#[test]
fn mixed_version_fleet_falls_back_per_link() {
    let all = clusters(4, 200, 13);
    let (left, right): (Vec<_>, Vec<_>) = all
        .iter()
        .copied()
        .partition(|o| o.mbr.center().x < default_space().center().x);
    let oracle = ScanStore::new(all.clone());

    let shard =
        |objs: &[SpatialObject]| Arc::new(SpatialService::new(ScanStore::new(objs.to_vec())));
    let net = NetConfig::default().with_wire_v2(true);
    // Both shards advertise the whole space: the router scatters every
    // query to both, so merging really crosses the version boundary.
    let router = ShardRouter::new(
        vec![
            ShardEndpoint::new(
                Some(default_space()),
                Box::new(InProcExchange::new(shard(&left))),
            ),
            ShardEndpoint::new(
                Some(default_space()),
                Box::new(V1OnlyShard(InProcExchange::new(shard(&right)))),
            ),
        ],
        net.packet,
    );
    let link = Link::routed(router, net.tariff_r).negotiate();
    assert_eq!(
        link.edge_wires(),
        [WireVersion::V2, WireVersion::V1],
        "negotiation must settle per link, not per fleet"
    );

    for w in [
        Rect::from_coords(0.0, 0.0, 10_000.0, 10_000.0),
        Rect::from_coords(2_000.0, 1_000.0, 7_500.0, 8_000.0),
        Rect::from_coords(4_900.0, 0.0, 5_100.0, 10_000.0), // straddles the split
    ] {
        assert_eq!(
            link.request(&Request::Count(w)).into_count(),
            oracle.count(&w),
            "mixed-version COUNT diverged"
        );
        let mut got: Vec<u32> = link
            .request(&Request::Window(w))
            .into_objects()
            .iter()
            .map(|o| o.id)
            .collect();
        got.sort_unstable();
        let mut want: Vec<u32> = oracle.window(&w).iter().map(|o| o.id).collect();
        want.sort_unstable();
        assert_eq!(got, want, "mixed-version WINDOW diverged");
    }
}

/// Concurrent negotiation: 64 devices race their `HELLO`/`ACCEPT`
/// handshakes over one shared reactor (plus a crowd of v1 holdouts that
/// never probe). Versions are per physical edge, and the reactor is the
/// only writer of each connection's state — so every negotiating link
/// must land on v2, every holdout must stay v1, and each connection's
/// recorded state must agree with what its link speaks. Queries issued
/// through the racing links afterwards must all decode to the same
/// answers.
#[test]
fn concurrent_negotiation_settles_every_edge_consistently() {
    use asj_net::{EventLoop, PacketModel};

    let objs = clusters(4, 250, 17);
    let oracle = ScanStore::new(objs.clone());
    let reactor = EventLoop::spawn("nego-race");
    let endpoint = reactor.serve(Arc::new(SpatialService::new(ScanStore::new(objs))));
    let w = Rect::from_coords(1_500.0, 1_500.0, 6_000.0, 6_000.0);
    let want = oracle.count(&w);

    const RACERS: usize = 64;
    const HOLDOUTS: usize = 16;
    let outcomes: Vec<(WireVersion, WireVersion, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..RACERS + HOLDOUTS)
            .map(|i| {
                let conn = endpoint.connect();
                scope.spawn(move || {
                    let state = Arc::clone(conn.state());
                    let mut link = Link::new(Box::new(conn), PacketModel::default(), 1.0);
                    if i < RACERS {
                        link = link.negotiate();
                    }
                    let count = link.request(&Request::Count(w)).into_count();
                    (link.wire(), state.negotiated(), count)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, (spoken, recorded, count)) in outcomes.iter().enumerate() {
        let expected = if i < RACERS {
            WireVersion::V2
        } else {
            WireVersion::V1
        };
        assert_eq!(
            *spoken, expected,
            "link {i}: negotiation raced to the wrong version"
        );
        assert_eq!(
            *recorded, *spoken,
            "link {i}: reactor-owned connection state disagrees with the link"
        );
        assert_eq!(*count, want, "link {i}: answer diverged after the race");
    }
    reactor.shutdown();
}
