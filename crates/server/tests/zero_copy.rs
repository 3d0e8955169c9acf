//! Differential proof that the zero-copy serving path is byte-identical
//! to the materializing one.
//!
//! `SpatialService::handle_into` streams WINDOW/ε-RANGE answers straight
//! into the wire buffer (visitor stores + exact-capacity frame reserve);
//! `handle` materializes a `Response` that the codec then encodes. The two
//! must produce the same bytes for every request on every backend — this
//! is the invariant that lets the transports switch to the streaming path
//! without any differential suite noticing.

use asj_geom::{Point, Rect, SpatialObject};
use asj_net::codec::{encode_response, encode_response_into, WireVersion};
use asj_net::{QueryHandler, Request};
use asj_server::{RTreeStore, ScanStore, ServicePolicy, SpatialService, SpatialStore};
use bytes::BytesMut;

/// Deterministic pseudo-random mix of points and boxes.
fn dataset(n: u32, seed: u64) -> Vec<SpatialObject> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / u32::MAX as f64) * 1000.0
    };
    (0..n)
        .map(|i| {
            let (x, y) = (next(), next());
            if i % 3 == 0 {
                SpatialObject::new(
                    i,
                    Rect::from_coords(x, y, x + next() * 0.05, y + next() * 0.05),
                )
            } else {
                SpatialObject::point(i, x, y)
            }
        })
        .collect()
}

fn requests(objs: &[SpatialObject]) -> Vec<Request> {
    let mut reqs = vec![
        Request::Window(Rect::from_coords(100.0, 100.0, 400.0, 700.0)),
        Request::Window(Rect::from_coords(-50.0, -50.0, 1100.0, 1100.0)), // everything
        Request::Window(Rect::from_coords(2000.0, 2000.0, 2100.0, 2100.0)), // nothing
        Request::Count(Rect::from_coords(0.0, 0.0, 500.0, 500.0)),
        Request::MultiCount(vec![
            Rect::from_coords(0.0, 0.0, 100.0, 100.0),
            Rect::from_coords(500.0, 500.0, 900.0, 900.0),
        ]),
        Request::CoopLevelMbrs(0),
        Request::CoopFilterByMbrs {
            mbrs: vec![Rect::from_coords(200.0, 200.0, 300.0, 300.0)],
            eps: 25.0,
        },
        Request::CoopJoinPush {
            objects: objs.iter().take(20).copied().collect(),
            eps: 40.0,
        },
    ];
    for eps in [0.0, 30.0, 400.0] {
        reqs.push(Request::EpsRange {
            q: Rect::point(Point::new(450.0, 450.0)),
            eps,
        });
    }
    reqs.push(Request::BucketEpsRange {
        probes: objs.iter().take(15).copied().collect(),
        eps: 60.0,
    });
    reqs
}

fn assert_paths_identical<S: SpatialStore>(svc: &SpatialService<S>, objs: &[SpatialObject]) {
    for req in requests(objs) {
        let materialized = encode_response(&svc.handle(req.clone()));
        let mut buf = BytesMut::new();
        svc.handle_into(req.clone(), WireVersion::V1, &mut buf);
        assert_eq!(
            materialized.as_slice(),
            &buf[..],
            "zero-copy bytes diverged for {req:?}"
        );
    }
}

#[test]
fn zero_copy_serving_is_byte_identical_on_every_backend() {
    for seed in [1, 7, 23] {
        let objs = dataset(300, seed);
        for policy in [ServicePolicy::NonCooperative, ServicePolicy::Cooperative] {
            assert_paths_identical(
                &SpatialService::new(ScanStore::new(objs.clone())).with_policy(policy),
                &objs,
            );
            assert_paths_identical(
                &SpatialService::new(RTreeStore::with_fanout(objs.clone(), 8)).with_policy(policy),
                &objs,
            );
        }
    }
}

#[test]
fn zero_copy_appends_like_the_materializing_encoder() {
    // Servers reuse one buffer across requests; appending after existing
    // content must frame exactly like a fresh encode.
    let objs = dataset(100, 5);
    let svc = SpatialService::new(RTreeStore::new(objs.clone()));
    let w = Rect::from_coords(0.0, 0.0, 600.0, 600.0);
    let mut buf = BytesMut::new();
    svc.handle_into(Request::Count(w), WireVersion::V1, &mut buf);
    let count_len = buf.len();
    svc.handle_into(Request::Window(w), WireVersion::V1, &mut buf);
    let fresh = {
        let mut b = BytesMut::new();
        svc.handle_into(Request::Window(w), WireVersion::V1, &mut b);
        b
    };
    assert_eq!(&buf[count_len..], &fresh[..]);
    // And an explicit materializing append agrees too.
    let mut mat = BytesMut::new();
    encode_response_into(&svc.handle(Request::Count(w)), &mut mat);
    encode_response_into(&svc.handle(Request::Window(w)), &mut mat);
    assert_eq!(&buf[..], &mat[..]);
}

#[test]
fn visitor_queries_match_materialized_order_on_every_backend() {
    // window()/eps_range() are provided *on top of* the visitors, so this
    // pins the canonical-order contract end to end per backend.
    let objs = dataset(250, 11);
    let stores: Vec<Box<dyn SpatialStore>> = vec![
        Box::new(ScanStore::new(objs.clone())),
        Box::new(RTreeStore::with_fanout(objs, 8)),
    ];
    let w = Rect::from_coords(50.0, 50.0, 650.0, 800.0);
    let q = Rect::point(Point::new(500.0, 500.0));
    for store in &stores {
        let mut visited = Vec::new();
        store.for_each_in_window(&w, &mut |o| visited.push(*o));
        assert_eq!(visited, store.window(&w));
        assert_eq!(visited.len() as u64, store.count(&w));
        let mut ranged = Vec::new();
        store.for_each_eps_range(&q, 120.0, &mut |o| ranged.push(*o));
        assert_eq!(ranged, store.eps_range(&q, 120.0));
        assert_eq!(ranged.len() as u64, store.eps_count(&q, 120.0));
        assert!(!visited.is_empty() && !ranged.is_empty(), "non-vacuous");
    }
}
