//! Property tests for the cache's containment index: for random
//! window/query workloads, locally-filtered answers from a cached
//! superset window must equal a fresh server download (dedup-normalized),
//! including ε/2-extension derivations and degenerate (point) rectangles.
//! A second suite interleaves update batches — sent through the cached
//! link, and by a third party through a link of its own — with the
//! queries against the real live server, and proves that every cached
//! answer is the server's answer at the generation it reports: entries
//! patched by a change list, entries dropped by a purge and answers
//! handed back beside a racing bump alike. A third holds the run index of a window entry
//! to the linear filter it replaced — same objects, same order — on a fresh
//! download and after every change list.
//!
//! Non-vacuity: a store that skips a count's decrements, keeps a probe
//! answer's removed objects or leaves a patched window's runs stale fails
//! these tests. The kept removal fails the live property by itself, on
//! its step that re-asks an ε-RANGE after deleting an object of its
//! answer, and the racing-bump test's probe pins it by hand. Those
//! three bugs are the mutants
//! `cache-count-decrements-skipped`, `cache-probe-removes-skipped` and
//! `cache-runs-left-stale` in `tools/mutants/`, which `tools/mutants.py`
//! re-plants. A read issued after a write in the same batch is served
//! from the store caught up to the write, as when the two are issued one
//! by one, which the last test here holds.

use std::sync::Arc;

use asj_geom::{Point, Rect, SpatialObject};
use asj_net::cache::{CacheLayer, ClientCache};
use asj_net::testutil::ScanHandler as Scan;
use asj_net::transport::InProcExchange;
use asj_net::{Link, NetConfig, QueryHandler, Request, Response, Update};
use asj_server::{apply_updates_to, RTreeStore, SpatialService, VersionedStore};
use proptest::prelude::*;

/// f32-representable coordinates on a coarse grid, so random rectangles
/// overlap, nest and share edges often.
fn coord() -> impl Strategy<Value = f64> {
    (-16i32..=16).prop_map(|v| (v as f32 * 0.5) as f64)
}

fn rect() -> impl Strategy<Value = Rect> {
    (coord(), coord(), coord(), coord())
        .prop_map(|(a, b, c, d)| Rect::new(Point::new(a, b), Point::new(c, d)))
}

fn object() -> impl Strategy<Value = SpatialObject> {
    (0u32..1000, rect()).prop_map(|(id, r)| SpatialObject::new(id, r))
}

/// ε anywhere in [−50, 300), mostly near the coordinates' own scale: a
/// negative ε answers as |ε| does, whoever answers.
fn eps() -> impl Strategy<Value = f64> {
    let quarters = |v: i32| (v as f32 * 0.25) as f64;
    prop_oneof![
        (-8i32..16).prop_map(quarters),
        (-8i32..16).prop_map(quarters),
        (-200i32..1200).prop_map(quarters),
    ]
}

/// How a query window is derived from a base rectangle — designed to
/// produce containment relations against earlier queries.
#[derive(Debug, Clone, Copy)]
enum Derive {
    /// The base rectangle itself.
    Identity,
    /// Grown by ε/2 on every side (the executor's window extension).
    ExtendHalfEps,
    /// Shrunk by ε/2 (clamps to the center point when too small).
    ShrinkHalfEps,
    /// Collapsed to its center — a degenerate rectangle.
    Degenerate,
}

fn derive() -> impl Strategy<Value = Derive> {
    prop_oneof![
        Just(Derive::Identity),
        Just(Derive::ExtendHalfEps),
        Just(Derive::ShrinkHalfEps),
        Just(Derive::Degenerate),
    ]
}

fn apply(base: &Rect, how: Derive, eps: f64) -> Rect {
    match how {
        Derive::Identity => *base,
        Derive::ExtendHalfEps => base.expand(eps * 0.5),
        Derive::ShrinkHalfEps => base.expand(-eps * 0.5),
        Derive::Degenerate => Rect::point(base.center()),
    }
}

/// One query against both links: 0 = WINDOW, 1 = COUNT, 2 = ε-RANGE,
/// 3 = a bucket ε-RANGE probing at every base window derived the same
/// way (never cached: it passes through beside the kinds that are).
type Op = (u8, usize, Derive, f64);

fn op(bases: usize) -> impl Strategy<Value = Op> {
    (0u8..4, 0..bases, derive(), eps())
}

fn ids(mut objects: Vec<SpatialObject>) -> Vec<u32> {
    objects.sort_unstable_by_key(|o| o.id);
    objects.dedup_by_key(|o| o.id);
    objects.into_iter().map(|o| o.id).collect()
}

proptest! {
    #[test]
    fn cached_answers_equal_fresh_downloads(
        objects in prop::collection::vec(object(), 0..60),
        bases in prop::collection::vec(rect(), 1..8),
        ops in prop::collection::vec(op(8), 1..30),
        budget in prop_oneof![Just(400u64), Just(4_000u64), Just(1u64 << 20)],
    ) {
        let cached = Link::cached(
            CacheLayer::new(
                Box::new(InProcExchange::new(Arc::new(Scan(objects.clone())))),
                &NetConfig::default(),
                Arc::new(ClientCache::new(budget)),
            ),
            1.0,
        );
        let plain = Link::in_process(Arc::new(Scan(objects)), &NetConfig::default(), 1.0);
        for &(kind, base, how, e) in &ops {
            let w = apply(&bases[base % bases.len()], how, e);
            match kind {
                0 => {
                    let got = cached.request(&Request::Window(w)).into_objects();
                    let want = plain.request(&Request::Window(w)).into_objects();
                    prop_assert_eq!(ids(got), ids(want), "WINDOW({:?})", w);
                }
                1 => prop_assert_eq!(
                    cached.request(&Request::Count(w)).into_count(),
                    plain.request(&Request::Count(w)).into_count(),
                    "COUNT({:?})", w
                ),
                2 => {
                    let got = cached.request(&Request::EpsRange { q: w, eps: e }).into_objects();
                    let want = plain.request(&Request::EpsRange { q: w, eps: e }).into_objects();
                    prop_assert_eq!(ids(got), ids(want), "EPS({:?}, {})", w, e);
                }
                _ => {
                    let req = request((kind, base, how, e), &bases);
                    prop_assert_eq!(cached.request(&req), plain.request(&req), "{:?}", req);
                }
            }
        }
        // The cache may only ever delete traffic.
        prop_assert!(
            cached.meter().snapshot().total_bytes() <= plain.meter().snapshot().total_bytes()
        );
    }
}

/// One step of the live workload.
#[derive(Debug, Clone)]
enum Step {
    /// One query through the cached link.
    Query(Op),
    /// Several queries in one `request_many`: hits and misses side by side.
    Batch(Vec<Op>),
    /// An update batch sent through the cached link, which hears its Ack …
    Update(Vec<Update>),
    /// … or by somebody else through a link of their own: the cache can
    /// only learn of it from the stamp of a later reply.
    ThirdParty(Vec<Update>),
    /// An ε-RANGE asked, then the deletion of one object of its answer
    /// (the `pick`-th, modulo its length; by a third party when the flag
    /// is set), then the same ε-RANGE asked again: a probe-tier hit whose
    /// change list removes an object inside the probe.
    Reprobe(Op, usize, bool),
}

fn update() -> impl Strategy<Value = Update> {
    prop_oneof![
        object().prop_map(Update::Insert),
        (0u32..1000).prop_map(Update::Delete),
        (0u32..1000, rect()).prop_map(|(id, to)| Update::Move { id, to }),
    ]
}

/// Queries drawn from few enough windows and ε values that a script asks
/// the same one again after an update: only a repeat can be a stale hit.
fn live_op() -> impl Strategy<Value = Op> {
    const EPS: [f64; 8] = [-50.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 299.5];
    (
        0u8..4,
        0..3usize,
        derive(),
        (0..EPS.len()).prop_map(|i| EPS[i]),
    )
}

fn step() -> impl Strategy<Value = Step> {
    let batch = || prop::collection::vec(update(), 1..8);
    prop_oneof![
        live_op().prop_map(Step::Query),
        live_op().prop_map(Step::Query),
        live_op().prop_map(Step::Query),
        prop::collection::vec(live_op(), 2..6).prop_map(Step::Batch),
        batch().prop_map(Step::Update),
        batch().prop_map(Step::ThirdParty),
        (live_op(), 0..64usize, any::<bool>()).prop_map(|((_, base, how, e), pick, third)| {
            Step::Reprobe((2, base, how, e), pick, third)
        }),
    ]
}

/// Objects (ids made unique — the live store's contract), base windows,
/// the script, and the cache's window budget.
type LiveCase = (Vec<SpatialObject>, Vec<Rect>, Vec<Step>, u64);

fn live_case() -> impl Strategy<Value = LiveCase> {
    let objects = prop::collection::vec(object(), 0..40).prop_map(|mut objects| {
        objects.sort_unstable_by_key(|o| o.id);
        objects.dedup_by_key(|o| o.id);
        objects
    });
    (
        objects,
        prop::collection::vec(rect(), 1..4),
        prop::collection::vec(step(), 1..40),
        prop_oneof![Just(400u64), Just(1u64 << 20)],
    )
}

fn request((kind, base, how, e): Op, bases: &[Rect]) -> Request {
    let w = apply(&bases[base % bases.len()], how, e);
    match kind {
        0 => Request::Window(w),
        1 => Request::Count(w),
        2 => Request::EpsRange { q: w, eps: e },
        _ => Request::BucketEpsRange {
            probes: (0..)
                .zip(bases)
                .map(|(id, b)| SpatialObject::new(id, apply(b, how, e)))
                .collect(),
            eps: e,
        },
    }
}

/// Order-free form of an answer: the cache answers as a set.
fn normalized(resp: Response) -> Response {
    let sorted = |mut objects: Vec<SpatialObject>| {
        objects.sort_unstable_by_key(|o| o.id);
        objects
    };
    match resp {
        Response::Objects(objects) => Response::Objects(sorted(objects)),
        Response::Buckets(buckets) => Response::Buckets(buckets.into_iter().map(sorted).collect()),
        other => other,
    }
}

type LiveServer = Arc<SpatialService<VersionedStore<RTreeStore>>>;

fn live_server(objects: &[SpatialObject]) -> LiveServer {
    let store = VersionedStore::new(objects.to_vec(), RTreeStore::new);
    Arc::new(SpatialService::new(store))
}

fn cached_link(server: &LiveServer, store: &Arc<ClientCache>) -> Link {
    let carrier = Box::new(InProcExchange::new(Arc::clone(server)));
    let layer = CacheLayer::new(carrier, &NetConfig::default(), Arc::clone(store));
    Link::cached(layer, 1.0)
}

/// The property: whatever the interleaving, every answer the cached link
/// hands back is — as a set — what the server answers at the generation
/// the link reports for it, which is never behind a generation the link
/// itself was acknowledged; each answer of a batch is checked at the
/// generation the link reports as it is handed back.
fn cached_answers_are_the_servers(
    (objects, bases, steps, budget): LiveCase,
) -> Result<(), TestCaseError> {
    let server = live_server(&objects);
    let store = Arc::new(ClientCache::new(budget));
    let cached = cached_link(&server, &store);
    let uncached = Link::in_process(Arc::clone(&server), &NetConfig::default(), 1.0);
    // The dataset at every generation so far, and the newest generation
    // the cached link was itself told of.
    let mut states = vec![objects];
    let mut heard = 0;
    // Each answer, with the generation the link reported once it was
    // handed back.
    let check =
        |reqs: &[Request], got: Vec<(Response, u64)>, states: &[Vec<SpatialObject>], heard| {
            for (req, (got, at)) in reqs.iter().zip(got) {
                prop_assert!(
                    heard <= at && (at as usize) < states.len(),
                    "reported {}",
                    at
                );
                let got = normalized(got);
                let want = normalized(Scan(states[at as usize].clone()).handle(req.clone()));
                prop_assert_eq!(&got, &want, "{:?} at generation {}", req, at);
                if at as usize == states.len() - 1 {
                    // Current: the server itself, asked without a cache, agrees.
                    prop_assert_eq!(&got, &normalized(uncached.request(req)), "{:?}", req);
                }
            }
            Ok(())
        };
    let mut steps = std::collections::VecDeque::from(steps);
    while let Some(step) = steps.pop_front() {
        let through_cache = matches!(step, Step::Update(_));
        match step {
            Step::Reprobe(op, pick, third) => {
                let req = request(op, &bases);
                let got = cached.request(&req);
                let held = got.clone().into_objects();
                let got = vec![(got, cached.last_generation())];
                check(std::slice::from_ref(&req), got, &states, heard)?;
                if let Some(victim) = held.get(pick % held.len().max(1)) {
                    let delete = vec![Update::Delete(victim.id)];
                    steps.push_front(Step::Query(op));
                    steps.push_front(match third {
                        true => Step::ThirdParty(delete),
                        false => Step::Update(delete),
                    });
                }
            }
            Step::Query(op) => {
                let req = request(op, &bases);
                let got = cached.request(&req);
                let got = vec![(got, cached.last_generation())];
                check(std::slice::from_ref(&req), got, &states, heard)?;
            }
            Step::Batch(ops) => {
                let reqs: Vec<Request> = ops.into_iter().map(|op| request(op, &bases)).collect();
                let mut got = Vec::new();
                cached.request_many(&reqs, |resp| got.push((resp, cached.last_generation())));
                check(&reqs, got, &states, heard)?;
            }
            Step::Update(batch) | Step::ThirdParty(batch) => {
                let generation = states.len() as u64;
                let link = if through_cache { &cached } else { &uncached };
                let ack = link.request(&Request::ApplyUpdates(batch.clone()));
                prop_assert_eq!(ack, Response::Ack { generation });
                let mut next = states[states.len() - 1].clone();
                apply_updates_to(&mut next, &batch);
                states.push(next);
                if through_cache {
                    heard = generation;
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn cached_answers_equal_the_servers_at_the_generation_they_report(case in live_case()) {
        cached_answers_are_the_servers(case)?;
    }
}

/// What a window entry holds: points, rectangles — some sticking out of
/// the window that downloads them — and segments across the whole space,
/// longer than any run's extent; on `coord`'s grid, so with duplicates.
fn held_mbr() -> impl Strategy<Value = Rect> {
    prop_oneof![
        (coord(), coord()).prop_map(|(x, y)| Rect::point(Point::new(x, y))),
        (coord(), coord()).prop_map(|(x, y)| Rect::point(Point::new(x, y))),
        rect(),
        coord().prop_map(|y| Rect::from_coords(-8.0, y, 8.0, y)),
        coord().prop_map(|x| Rect::from_coords(x, -8.0, x, 8.0)),
    ]
}

/// Updates over the ids `indexed_case` hands out and a few more, so
/// that most of them hit an object a window holds.
fn held_update() -> impl Strategy<Value = Update> {
    prop_oneof![
        (0u32..200, held_mbr()).prop_map(|(id, r)| Update::Insert(SpatialObject::new(id, r))),
        (0u32..160).prop_map(Update::Delete),
        (0u32..160, held_mbr()).prop_map(|(id, to)| Update::Move { id, to }),
    ]
}

/// The MBRs of the dataset (ids are their positions), the one window
/// downloaded, the probes — a rectangle and an ε each — asked of it after
/// every round, and the update batch that ends each round but the last.
type IndexedCase = (Vec<Rect>, Rect, Vec<(Rect, f64)>, Vec<Vec<Update>>);

fn indexed_case() -> impl Strategy<Value = IndexedCase> {
    (
        prop::collection::vec(held_mbr(), 0..160),
        rect(),
        prop::collection::vec((rect(), eps()), 1..10),
        prop::collection::vec(prop::collection::vec(held_update(), 1..12), 0..4),
    )
}

/// The property: `count` / `window` / `eps_range` of an indexed window
/// entry are the linear filter over what the entry holds — **as vectors,
/// order included** — which is the server's own answer, order and all,
/// until the first change list and its set from then on (patched and
/// re-packed; or purged and downloaded again, where the list would have
/// cost more).
fn indexed_lookups_are_the_linear_filter(
    (mbrs, window, probes, batches): IndexedCase,
) -> Result<(), TestCaseError> {
    let objects: Vec<SpatialObject> = (0..)
        .zip(mbrs)
        .map(|(id, r)| SpatialObject::new(id, r))
        .collect();
    let server = live_server(&objects);
    let store = Arc::new(ClientCache::new(1 << 20));
    let cached = cached_link(&server, &store);
    let uncached = Link::in_process(Arc::clone(&server), &NetConfig::default(), 1.0);
    let filtered = |held: &[SpatialObject], pred: &dyn Fn(&Rect) -> bool| -> Vec<SpatialObject> {
        held.iter().filter(|o| pred(&o.mbr)).copied().collect()
    };
    let by_id = |mut objects: Vec<SpatialObject>| {
        objects.sort_unstable_by_key(|o| o.id);
        objects
    };
    let mut batches = batches.into_iter();
    for round in 0.. {
        // Miss (round 0, or after a purge) or hit, the answer is what the
        // entry holds, in the order it holds it.
        let got = cached.request(&Request::Window(window)).into_objects();
        let at = store.content_generation();
        let held = store.window(&window, at).expect("admitted or resident");
        prop_assert_eq!(&got, &held, "round {}", round);
        let fresh = uncached.request(&Request::Window(window)).into_objects();
        if round == 0 {
            prop_assert_eq!(&held, &fresh, "a fresh entry is in the server's order");
        }
        prop_assert_eq!(by_id(held.clone()), by_id(fresh), "round {}", round);
        for &(q, eps) in &probes {
            let Some(q) = window.intersection(&q) else {
                continue;
            };
            let inside = filtered(&held, &|mbr| mbr.intersects(&q));
            prop_assert_eq!(
                store.count(&q, at),
                Some(inside.len() as u64),
                "COUNT({:?})",
                q
            );
            prop_assert_eq!(store.window(&q, at), Some(inside), "WINDOW({:?})", q);
            // A probe whose reach sticks out of the window is no hit.
            for q in [q, Rect::point(q.center())] {
                if let Some(near) = store.eps_range(&q, eps, at) {
                    let want = filtered(&held, &|mbr| mbr.within_distance(&q, eps));
                    prop_assert_eq!(near, want, "EPS({:?}, {})", q, eps);
                }
            }
        }
        let Some(batch) = batches.next() else {
            break;
        };
        let ack = cached.request(&Request::ApplyUpdates(batch));
        prop_assert!(matches!(ack, Response::Ack { .. }), "{:?}", ack);
    }
    Ok(())
}

proptest! {
    #[test]
    fn indexed_lookups_equal_the_linear_filter_order_included(case in indexed_case()) {
        indexed_lookups_are_the_linear_filter(case)?;
    }
}

/// Sixteen points on a 4 × 4 lattice: the live store's log keeps two ops.
fn lattice() -> Vec<SpatialObject> {
    (0..16)
        .map(|i| SpatialObject::point(i, (i % 4) as f64, (i / 4) as f64))
        .collect()
}

fn shift(ids: std::ops::Range<u32>, by: f64) -> Request {
    let moved = ids.map(|id| Update::Move {
        id,
        to: Rect::point(Point::new((id % 4) as f64 + by, (id / 4) as f64 + by)),
    });
    Request::ApplyUpdates(moved.collect())
}

/// The three ways a store gets from one generation to the next, pinned on
/// the wire: a change list where the log reaches, a purge where it does
/// not, and nothing at all for a store that holds nothing.
#[test]
fn a_bump_costs_a_change_list_a_purge_or_nothing() {
    let server = live_server(&lattice());
    let store = Arc::new(ClientCache::new(1 << 20));
    let cached = cached_link(&server, &store);
    let third_party = Link::in_process(Arc::clone(&server), &NetConfig::default(), 1.0);
    let all = Rect::from_coords(-1.0, -1.0, 9.0, 9.0);
    let corner = Request::Count(Rect::from_coords(-1.0, -1.0, 1.25, 1.25));
    // Nothing held: the first reply's stamp re-stamps the empty store.
    third_party.request(&shift(0..1, 0.5));
    assert_eq!(
        cached.request(&Request::Window(all)).into_objects().len(),
        16
    );
    assert_eq!(
        cached.request(&corner).into_count(),
        4,
        "derived from the window"
    );
    let primed = cached.meter().snapshot();
    assert_eq!((primed.total_queries(), store.content_generation()), (1, 1));
    // One batch behind: two moves are four ops, and the newest batch is
    // always in the log. The window and what derives from it stay.
    cached.request(&shift(0..2, 2.0));
    assert_eq!(
        cached.request(&corner).into_count(),
        2,
        "objects 0 and 1 left"
    );
    let caught_up = cached.meter().snapshot().since(&primed);
    assert_eq!((caught_up.window_queries, caught_up.count_queries), (1, 0));
    assert_eq!(caught_up.objects_received, 4);
    assert_eq!(store.content_generation(), 2);
    // Two batches behind: the log has dropped the older one, the server
    // refuses, and the store starts over with a fresh download.
    third_party.request(&shift(4..6, 0.25));
    cached.request(&shift(8..10, 0.25));
    let before = cached.meter().snapshot();
    assert_eq!(cached.request(&corner), third_party.request(&corner));
    let purged = cached.meter().snapshot().since(&before);
    assert_eq!((purged.window_queries, purged.count_queries), (1, 1));
    assert_eq!((purged.objects_received, store.resident_bytes()), (0, 0));
    assert_eq!(store.content_generation(), 4);
}

/// An update lands between a batch's hit and its miss. A batch is its
/// requests, so the hit answers at the generation it was looked up at and
/// the miss at the one it was served at; the store catches up before the
/// miss is admitted.
#[test]
fn a_bump_racing_a_batch_answers_each_request_at_its_own_generation() {
    let server = live_server(&lattice());
    let store = Arc::new(ClientCache::new(1 << 20));
    let cached = cached_link(&server, &store);
    let third_party = Link::in_process(Arc::clone(&server), &NetConfig::default(), 1.0);
    let low = Request::Count(Rect::from_coords(-1.0, -1.0, 9.0, 1.5));
    let high = Request::Count(Rect::from_coords(-1.0, 1.5, 9.0, 9.0));
    assert_eq!(cached.request(&low).into_count(), 8);
    let origin = Request::EpsRange {
        q: Rect::point(Point::new(0.0, 0.0)),
        eps: 0.5,
    };
    assert_eq!(cached.request(&origin).into_objects().len(), 1);
    // Object 0 jumps from the low band to the high one behind the cache's
    // back: `low` hits at generation 0, `high` is answered at 1.
    third_party.request(&shift(0..1, 3.0));
    let mut counts = Vec::new();
    cached.request_many(&[low.clone(), high.clone()], |resp| {
        counts.push(resp.into_count())
    });
    assert_eq!(counts, [8, 9], "each at the generation it was served at");
    assert_eq!(cached.generations(), (0, 1));
    assert_eq!(store.content_generation(), 1);
    let before = cached.meter().snapshot();
    assert_eq!(cached.request(&low).into_count(), 7);
    // The probe tier is patched too: the moved object is taken out.
    assert_eq!(cached.request(&origin), Response::Objects(Vec::new()));
    assert_eq!(cached.meter().snapshot(), before, "and both are held at 1");
}

/// A read asked after a write in the same `request_many` is looked up in
/// the store caught up to the write, as when the two are asked one by
/// one, never answered from the store as it was before the write and
/// then asked again.
#[test]
fn a_read_after_a_write_in_one_batch_is_served_as_one_by_one() {
    let all = Request::Window(Rect::from_coords(-1.0, -1.0, 9.0, 9.0));
    let corner = Request::Count(Rect::from_coords(-1.0, -1.0, 1.25, 1.25));
    let script = [shift(0..2, 2.0), corner];
    let warm = || {
        let server = live_server(&lattice());
        let cached = cached_link(&server, &Arc::new(ClientCache::new(1 << 20)));
        cached.request(&all);
        cached
    };
    let (serial, batched) = (warm(), warm());
    let one_by_one: Vec<Response> = script.iter().map(|req| serial.request(req)).collect();
    let mut together = Vec::new();
    batched.request_many(&script, |resp| together.push(resp));
    assert_eq!(one_by_one[1], Response::Count(2), "objects 0 and 1 left");
    assert_eq!(together, one_by_one);
    assert_eq!(batched.meter().snapshot(), serial.meter().snapshot());
}
