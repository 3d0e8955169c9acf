//! Differential proof that the zero-copy serving path is byte-identical
//! to the materializing one.
//!
//! `SpatialService::handle_into` streams WINDOW/ε-RANGE answers straight
//! into the wire buffer (one visit of the store, the frame's count patched
//! in afterwards, no COUNT); `handle` materializes a `Response` that the
//! codec then encodes. The two must produce the same bytes for every
//! request on every backend — this is the invariant that lets the
//! transports switch to the streaming path without any differential suite
//! noticing.

use std::sync::atomic::{AtomicU64, Ordering};

use asj_geom::{Point, Rect, SpatialObject};
use asj_net::codec::{
    encode_response, encode_response_into, encode_response_versioned, QuantCtx, WireVersion,
};
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
        assert!(!visited.is_empty() && !ranged.is_empty(), "non-vacuous");
    }
}

/// A store that tallies the COUNTs and window visits it answers.
struct Counting<S> {
    inner: S,
    counts: AtomicU64,
    window_visits: AtomicU64,
}

impl<S: SpatialStore> SpatialStore for Counting<S> {
    fn for_each_in_window(&self, w: &Rect, f: &mut dyn FnMut(&SpatialObject)) {
        self.window_visits.fetch_add(1, Ordering::Relaxed);
        self.inner.for_each_in_window(w, f)
    }

    fn for_each_eps_range(&self, q: &Rect, eps: f64, f: &mut dyn FnMut(&SpatialObject)) {
        self.inner.for_each_eps_range(q, eps, f)
    }

    fn count(&self, w: &Rect) -> u64 {
        self.counts.fetch_add(1, Ordering::Relaxed);
        self.inner.count(w)
    }

    fn level_mbrs(&self, levels_above_leaves: usize) -> Option<Vec<Rect>> {
        self.inner.level_mbrs(levels_above_leaves)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn bounds(&self) -> Option<Rect> {
        self.inner.bounds()
    }
}

/// A served WINDOW walks the store once and never asks it to COUNT, and its
/// bytes on either wire equal the materialised answer's. The COUNT half
/// guards against a future `count` call on the serving path; it does not
/// tell this serving path from one that pre-sized through an optional hint,
/// since a wrapper that does not forward a hint reads as "no hint" too.
#[test]
fn a_served_window_visits_once_and_counts_never() {
    fn check<S: SpatialStore>(inner: S) {
        let svc = SpatialService::new(Counting {
            inner,
            counts: AtomicU64::new(0),
            window_visits: AtomicU64::new(0),
        });
        let tally = |svc: &SpatialService<Counting<S>>| {
            let store = svc.store();
            (
                store.counts.swap(0, Ordering::Relaxed),
                store.window_visits.swap(0, Ordering::Relaxed),
            )
        };
        for w in [
            Rect::from_coords(100.0, 100.0, 400.0, 700.0),
            Rect::from_coords(-50.0, -50.0, 1100.0, 1100.0),
            Rect::from_coords(2000.0, 2000.0, 2100.0, 2100.0),
        ] {
            for wire in [WireVersion::V1, WireVersion::V2] {
                let req = Request::Window(w);
                let mut buf = BytesMut::new();
                svc.handle_into(req.clone(), wire, &mut buf);
                assert_eq!(tally(&svc), (0, 1), "COUNTs, visits: {w:?} {wire:?}");
                let resp = svc.handle(req.clone());
                let want = match wire {
                    WireVersion::V1 => encode_response(&resp),
                    WireVersion::V2 => {
                        let mut b = BytesMut::new();
                        let ctx = QuantCtx::for_request(&req);
                        encode_response_versioned(&resp, wire, ctx.as_ref(), &mut b);
                        b.freeze()
                    }
                };
                assert_eq!(&buf[..], want.as_slice(), "bytes for {w:?} on {wire:?}");
                tally(&svc);
            }
        }
    }
    check(RTreeStore::new(dataset(300, 3)));
    check(ScanStore::new(dataset(300, 3)));
}
