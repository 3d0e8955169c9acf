//! The allocation budget of the link stack: above the edge a request
//! allocates its frames and its answer, nothing else.
//!
//! A counting `#[global_allocator]` tallies the calling thread's heap
//! allocations; every carrier here serves on the calling thread (a
//! gauged one too), so a request's whole
//! trip — link, cache, router, fault layer, server — runs on that
//! thread. After warm-up, a COUNT and a single-shard WINDOW through a
//! 4-shard × 2-replica fleet with no-op fault layers, retry and breakers
//! on allocate exactly as often as through a flat link; so do they
//! through a 1 × 1 fleet; a WINDOW all four shards answer allocates
//! their replies and the merged answer's growth, and its merge nothing;
//! a cache hit allocates nothing for a COUNT, nor does a batch of COUNT
//! hits, and only its answer for a WINDOW or an ε-RANGE, whether a cached window
//! contains the probe or the probe tier holds it. A flat exchange costs
//! the same whatever its answer's size, in either wire version: the
//! server streams into a reused buffer and ships one copy. A lying count
//! prefix reserves nothing.
//! These are the numbers the stack reaches,
//! pinned: a `Vec` that creeps back into a per-request path fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use asj_geom::{Rect, SpatialObject};
use asj_net::cache::{CacheLayer, ClientCache};
use asj_net::codec::{decode_response, encode_response, CodecError, OBJ_BYTES};
use asj_net::testutil::ScanHandler;
use asj_net::transport::InProcExchange;
use asj_net::{
    BreakerConfig, FaultLayer, FaultPlan, Link, NetConfig, RawExchange, Request, Response,
    RetryPolicy, ShardEndpoint, ShardMeta, ShardRouter,
};
use asj_server::{RTreeStore, SpatialService};
use bytes::Bytes;

struct Counting;

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: defers to `System` unchanged; the tally touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations one call of `ask` makes, after a warm-up that lets
/// every lazily grown structure below reach its size.
fn allocations_of(ask: impl Fn()) -> u64 {
    for _ in 0..8 {
        ask();
    }
    let before = ALLOCATIONS.with(Cell::get);
    ask();
    ALLOCATIONS.with(Cell::get) - before
}

/// Heap allocations `link.request(req)` makes, after the warm-up.
fn allocations(link: &Link, req: &Request) -> u64 {
    allocations_of(|| {
        std::hint::black_box(link.request(req));
    })
}

/// 400 points on a 20 × 20 lattice over `[0, 200)²`.
fn lattice() -> Vec<SpatialObject> {
    (0..400)
        .map(|i| SpatialObject::point(i, (i % 20) as f64 * 10.0, (i / 20) as f64 * 10.0))
        .collect()
}

fn server(objects: Vec<SpatialObject>, faulted: bool) -> Box<dyn RawExchange> {
    let carrier = Box::new(InProcExchange::new(Arc::new(ScanHandler(objects))));
    if faulted {
        Box::new(FaultLayer::new(carrier, FaultPlan::seeded(7)))
    } else {
        carrier
    }
}

/// `shards` vertical strips of the lattice, `replicas` servers each,
/// every edge under a no-op fault layer, retry and breakers on.
fn fleet(shards: usize, replicas: usize) -> Link {
    let width = 200.0 / shards as f64;
    let endpoints = (0..shards)
        .map(|s| {
            let (x0, x1) = (s as f64 * width, (s + 1) as f64 * width);
            let members: Vec<SpatialObject> = lattice()
                .into_iter()
                .filter(|o| (x0..x1).contains(&o.mbr.min.x))
                .collect();
            let meta = ShardMeta::with_cell(
                Rect::union_of(members.iter().map(|o| o.mbr)),
                Some(Rect::from_coords(x0, -1e6, x1, 1e6)),
            );
            let carriers = (0..replicas)
                .map(|_| server(members.clone(), true))
                .collect();
            ShardEndpoint::with_replicas(Arc::new(meta), carriers)
        })
        .collect();
    let net = NetConfig::default()
        .with_retry(RetryPolicy::attempts(4))
        .with_breakers(BreakerConfig::enabled());
    Link::routed(ShardRouter::new(endpoints, &net), 1.0)
}

/// A COUNT over the whole first strip and a WINDOW inside it: both touch
/// shard 0 of a 4-shard fleet only.
fn requests() -> [Request; 2] {
    [
        Request::Count(Rect::from_coords(-1.0, -1.0, 45.0, 300.0)),
        Request::Window(Rect::from_coords(5.0, 5.0, 25.0, 25.0)),
    ]
}

#[test]
fn a_fleet_exchange_allocates_what_a_flat_one_does() {
    let flat = Link::new(server(lattice(), false), &NetConfig::default(), 1.0);
    let (sole, wide) = (fleet(1, 1), fleet(4, 2));
    for req in requests() {
        let base = allocations(&flat, &req);
        assert!(base > 0, "the counting allocator is not installed");
        assert_eq!(allocations(&sole, &req), base, "1x1 fleet, {req:?}");
        assert_eq!(allocations(&wide, &req), base, "4x2 fleet, {req:?}");
        let snap = wide.fleet().unwrap().snapshot();
        assert!(snap.pruned > 0 && snap.per_shard[1].total_bytes() == 0);
    }
}

/// A WINDOW merged from four shards allocates its four replies and the
/// merged answer's growth, and the merge itself nothing: no sort, no
/// scratch list, no table per merge. The four shards answer 8, 10, 10
/// and 10 objects. Each reply costs its request frame (two), the scan
/// handler's growing answer (two or three), the reply frame and the
/// decoded list: 6 + 7 + 7 + 7. The router settles and merges one shard
/// at a time, so it keeps no list of them. Folding 10, 10 and 10 objects
/// into the first shard's 8 grows the merged list three times.
#[test]
fn a_merged_window_allocates_its_replies_and_the_answers_growth() {
    let (flat, wide) = (
        Link::new(server(lattice(), false), &NetConfig::default(), 1.0),
        fleet(4, 2),
    );
    // Across all four strips: every shard answers.
    let req = Request::Window(Rect::from_coords(5.0, 5.0, 195.0, 25.0));
    let ids = |link: &Link| {
        let mut ids: Vec<u32> = link
            .request(&req)
            .into_objects()
            .iter()
            .map(|o| o.id)
            .collect();
        ids.sort_unstable();
        ids
    };
    let merged = ids(&wide);
    assert_eq!(merged, ids(&flat), "one store's answer, strip by strip");
    assert_eq!(merged.len(), 2 * 19, "two lattice rows across all strips");
    let snap = wide.fleet().unwrap().snapshot();
    assert!(
        snap.per_shard.iter().all(|s| s.window_queries == 1),
        "{snap:?}"
    );
    assert_eq!(allocations(&wide, &req), 27 + 3);
}

#[test]
fn a_cache_hit_allocates_only_its_answer() {
    let store = Arc::new(ClientCache::new(1 << 20));
    let layer = CacheLayer::new(server(lattice(), false), &NetConfig::default(), store);
    let cached = Link::cached(layer, 1.0);
    let [_, window] = requests();
    let count = Request::Count(Rect::from_coords(10.0, 10.0, 20.0, 20.0));
    // Warm: the window download answers both from here on.
    cached.request(&window);
    assert_eq!(allocations(&cached, &count), 0, "COUNT hit");
    // The four quadrant COUNTs of the window held, as one batch: each is
    // issued in turn, so there is no batch to plan and nothing to hold.
    let quadrants = Rect::from_coords(5.0, 5.0, 25.0, 25.0)
        .quadrants()
        .map(Request::Count);
    let batch = allocations_of(|| {
        cached.request_many(&quadrants, |resp| {
            std::hint::black_box(resp);
        })
    });
    assert_eq!(batch, 0, "a batch of COUNT hits");
    // The four objects of the answer, in one `Vec`; nothing else.
    assert_eq!(allocations(&cached, &window), 1, "WINDOW hit");
    // An ε-RANGE: derived from the window, and — reaching past it — from
    // the probe tier's copy of the server's own answer.
    let probe = |eps| Request::EpsRange {
        q: Rect::from_coords(15.0, 15.0, 15.0, 15.0),
        eps,
    };
    assert_eq!(
        allocations(&cached, &probe(8.0)),
        1,
        "contained ε-RANGE hit"
    );
    assert_eq!(allocations(&cached, &probe(40.0)), 1, "probe-tier hit");
    let snap = cached.cache().unwrap().snapshot();
    assert!(snap.stats_hits >= 9 && snap.window_hits >= 9, "{snap:?}");
    assert_eq!((snap.probe_hits, snap.probe_misses), (17, 1), "{snap:?}");
    let wire = cached.meter().snapshot();
    assert_eq!((wire.window_queries, wire.range_queries), (1, 1));
}

/// A WINDOW and an ε-RANGE answering 1 × 1, 4 × 4 and 10 × 20 lattice
/// points, with their answer sizes.
fn sized_reads() -> Vec<(Request, usize)> {
    let windows = [
        (Rect::from_coords(5.0, 5.0, 15.0, 15.0), 1),
        (Rect::from_coords(5.0, 5.0, 45.0, 45.0), 16),
        (Rect::from_coords(-1.0, -1.0, 95.0, 195.0), 200),
    ];
    let reads = windows.into_iter().flat_map(|(w, n)| {
        [
            (Request::Window(w), n),
            (Request::EpsRange { q: w, eps: 0.5 }, n),
        ]
    });
    reads.collect()
}

/// A flat in-process link to the real server, which streams objects into
/// the thread's reused reply buffer, speaking `net`'s wire version.
fn served(net: &NetConfig) -> Link {
    let service = SpatialService::new(RTreeStore::new(lattice()));
    Link::in_process(Arc::new(service), net, 1.0)
}

/// An answer's size is not an allocation: a WINDOW and an ε-RANGE
/// answering 1, 16 or 200 objects each allocate their request frame
/// (built, then frozen: two), one reply frame and one answer `Vec`. A
/// reply that grows by reallocation again fails here.
#[test]
fn a_reply_allocates_once_whatever_its_size() {
    let flat = served(&NetConfig::default());
    for (req, n) in sized_reads() {
        assert_eq!(flat.request(&req).into_objects().len(), n, "{req:?}");
        assert_eq!(allocations(&flat, &req), 4, "{req:?}");
    }
}

/// A compact reply costs what a plain one does: on a link that speaks
/// wire v2 the server writes each object's record into the reused reply
/// buffer and the client reads it from the frame in place, so the same
/// reads allocate the same 4 times.
#[test]
fn a_v2_reply_allocates_what_a_v1_reply_does() {
    let compact = served(&NetConfig::default().with_wire_v2(true));
    for (req, n) in sized_reads() {
        assert_eq!(compact.request(&req).into_objects().len(), n, "{req:?}");
        assert_eq!(allocations(&compact, &req), 4, "{req:?}");
    }
    // Compact on the wire: a lattice point's record is shorter than a v1
    // record, frame headers included.
    let wire = compact.meter().snapshot();
    assert!(
        wire.down_bytes < wire.objects_received * OBJ_BYTES,
        "{wire:?}"
    );
}

/// A count prefix is input: one claiming more objects than its frame
/// holds — `u32::MAX` of them — is truncated before a byte is reserved
/// for the claim.
#[test]
fn a_raised_object_count_reserves_nothing() {
    let objects = Response::Objects(lattice()[..3].to_vec());
    let mut frame = encode_response(&objects).to_vec();
    frame[1..5].copy_from_slice(&u32::MAX.to_be_bytes());
    let frame = Bytes::from(frame);
    let before = ALLOCATIONS.with(Cell::get);
    let decoded = decode_response(frame);
    assert_eq!(ALLOCATIONS.with(Cell::get) - before, 0);
    assert_eq!(decoded, Err(CodecError::Truncated));
}

/// A flat link over a gauged carrier: it serves at the call, on the
/// calling thread, into that thread's reused reply buffer, as a bare
/// in-process exchange does — so the whole exchange is counted here and
/// it allocates exactly what the bare one does: 3 for the COUNT, 5 for
/// the WINDOW, whose scan handler collects its answer. The endpoint's
/// gauges allocate nothing.
#[test]
fn a_reactor_exchange_allocates_what_an_in_process_one_does() {
    let carrier = InProcExchange::gauged(Arc::new(ScanHandler(lattice())), Arc::default());
    let gauged = Link::new(Box::new(carrier), &NetConfig::default(), 1.0);
    let flat = Link::new(server(lattice(), false), &NetConfig::default(), 1.0);
    for (req, exact) in requests().into_iter().zip([3, 5]) {
        assert_eq!(allocations(&gauged, &req), exact, "{req:?}");
        assert_eq!(allocations(&flat, &req), exact, "{req:?}");
    }
}
