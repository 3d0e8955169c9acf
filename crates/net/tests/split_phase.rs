//! A link is split-phase: `Link::begin` ships what the stack can ship
//! now, and `Begun::finish` waits, judges, retries and merges.
//! `request_many` is the two back to back.
//!
//! * Two links whose batches are begun together answer what they answer
//!   one after the other, reply for reply, and leave equal meters behind.
//!   This holds on a flat link, on a 4×2 fleet of gauged carriers with faults,
//!   retry and breakers on, and on a cached link; on the flat and cached
//!   links a write in a batch ends its first run.
//! * A fleet batch dropped unfinished leaves its meters equal to the
//!   frames that crossed, failed ones included, and re-sends nothing.
//! * A deferring stack (flat or cached) ships nothing at `begin`, so a
//!   batch it drops unfinished never reaches the server.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use asj_geom::{Rect, SpatialObject};
use asj_net::cache::{CacheLayer, ClientCache};
use asj_net::testutil::ScanHandler as Scan;
use asj_net::transport::InProcExchange;
use asj_net::{
    BreakerConfig, FaultLayer, FaultPlan, Link, LinkSnapshot, PacketModel, RawExchange, Request,
    Response, RetryPolicy, ShardEndpoint, ShardMeta, ShardRouter, Update,
};
use bytes::Bytes;

/// 100 points on a 10 × 10 lattice over `[0, 40)²`, shifted by `dx`.
fn lattice(dx: f64) -> Vec<SpatialObject> {
    (0..100)
        .map(|i| SpatialObject::point(i, dx + (i % 10) as f64 * 4.0, (i / 10) as f64 * 4.0))
        .collect()
}

/// A script of every read kind, with a write in its middle (a frozen
/// server refuses it) that ends the first run of its batch.
fn script() -> Vec<Request> {
    let rect = |i: u32| {
        let x = f64::from(i % 6) * 6.0;
        Rect::from_coords(x, x * 0.5, x + 9.0 + f64::from(i) * 0.1, x * 0.5 + 11.0)
    };
    (0..18)
        .map(|i| match i % 6 {
            0 => Request::Count(rect(i)),
            1 => Request::Window(rect(i)),
            2 => Request::EpsRange {
                q: rect(i),
                eps: 1.5,
            },
            3 => Request::BucketEpsRange {
                probes: (0..3).map(|k| SpatialObject::new(k, rect(i + k))).collect(),
                eps: 1.0,
            },
            4 if i == 10 => Request::ApplyUpdates(vec![Update::Delete(3)]),
            _ => Request::Count(rect(i + 100)),
        })
        .collect()
}

/// Counts what crosses it: the request frames it carries to the server
/// and the reply frames it carries back.
#[derive(Default)]
struct Tally {
    exchanges: AtomicU64,
    up_bytes: AtomicU64,
    down_bytes: AtomicU64,
}

/// An in-process server behind a [`Tally`].
struct Tap {
    inner: InProcExchange<Scan>,
    tally: Arc<Tally>,
}

impl RawExchange for Tap {
    fn exchange(&self, request: Bytes) -> Bytes {
        let packet = PacketModel::default();
        let t = &self.tally;
        t.exchanges.fetch_add(1, Ordering::Relaxed);
        t.up_bytes
            .fetch_add(packet.tb(request.len() as u64), Ordering::Relaxed);
        let reply = self.inner.exchange(request);
        t.down_bytes
            .fetch_add(packet.tb(reply.len() as u64), Ordering::Relaxed);
        reply
    }
}

fn tap(objects: Vec<SpatialObject>, tally: &Arc<Tally>) -> Box<dyn RawExchange> {
    Box::new(Tap {
        inner: InProcExchange::new(Arc::new(Scan(objects))),
        tally: Arc::clone(tally),
    })
}

/// Four shards cut at x = 10, 20 and 30, two replicas each, every
/// replica's server made by `server` and put under its own copy of the
/// plan; retry and breakers on.
fn fleet_4x2(
    objects: &[SpatialObject],
    plan: FaultPlan,
    mut server: impl FnMut(Vec<SpatialObject>) -> Box<dyn RawExchange>,
) -> Link {
    let dx = objects.iter().map(|o| o.mbr.min.x).fold(f64::MAX, f64::min);
    let shards = (0..4u64)
        .map(|s| {
            let x0 = dx + s as f64 * 10.0;
            let members: Vec<SpatialObject> = objects
                .iter()
                .filter(|o| (x0..x0 + 10.0).contains(&o.mbr.min.x))
                .copied()
                .collect();
            let meta = ShardMeta::with_cell(
                Rect::union_of(members.iter().map(|o| o.mbr)),
                Some(Rect::from_coords(x0, -1e6, x0 + 10.0, 1e6)),
            );
            let replicas = (0..2u64)
                .map(|r| {
                    let mut own = plan;
                    own.seed ^= (2 * s + r).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    Box::new(FaultLayer::new(server(members.clone()), own)) as Box<dyn RawExchange>
                })
                .collect();
            ShardEndpoint::with_replicas(Arc::new(meta), replicas)
        })
        .collect();
    let router =
        ShardRouter::new(shards, PacketModel::default()).with_breakers(BreakerConfig::enabled());
    Link::routed(router, 1.0).with_retry(RetryPolicy::attempts(3))
}

#[derive(Clone, Copy, Debug)]
enum Shape {
    Flat,
    Fleet,
    Cached,
}

fn link(shape: Shape, objects: Vec<SpatialObject>) -> Link {
    let packet = PacketModel::default();
    match shape {
        Shape::Flat => Link::in_process(Arc::new(Scan(objects)), packet, 1.0),
        Shape::Fleet => {
            let plan = FaultPlan::seeded(11).with_drops(0.2).with_garbles(0.1);
            fleet_4x2(&objects, plan, |members| {
                Box::new(InProcExchange::gauged(
                    Arc::new(Scan(members)),
                    Arc::default(),
                ))
            })
        }
        Shape::Cached => {
            let server = Box::new(InProcExchange::new(Arc::new(Scan(objects))));
            let cache = Arc::new(ClientCache::new(1 << 20));
            Link::cached(CacheLayer::new(server, packet, cache), 1.0)
        }
    }
}

/// Every meter a link exposes: its own, and its fleet's per-shard rows.
fn meters(link: &Link) -> (LinkSnapshot, Option<Vec<LinkSnapshot>>) {
    let fleet = link.fleet().map(|t| t.snapshot().per_shard);
    (link.meter().snapshot(), fleet)
}

#[test]
fn batches_begun_together_answer_what_they_answer_one_after_the_other() {
    for shape in [Shape::Flat, Shape::Fleet, Shape::Cached] {
        let mut script = script();
        if let Shape::Fleet = shape {
            // A write's dedup tag holds a process-unique sender nonce, so
            // two fleets frame it apart and their fault rolls part ways.
            script.retain(|req| !matches!(req, Request::ApplyUpdates(_)));
        }
        let one_by_one = [link(shape, lattice(0.0)), link(shape, lattice(1.0))];
        let together = [link(shape, lattice(0.0)), link(shape, lattice(1.0))];
        // Twice over, so the cached shape answers its second pass locally.
        for batch in script.chunks(7).chain(script.chunks(5)) {
            let mut want: [Vec<Response>; 2] = Default::default();
            for (link, want) in one_by_one.iter().zip(&mut want) {
                link.request_many(batch, |resp| want.push(resp));
            }
            let begun = together.each_ref().map(|link| link.begin(batch));
            let mut got: [Vec<Response>; 2] = Default::default();
            for (batch, got) in begun.into_iter().zip(&mut got) {
                batch.finish(|resp| got.push(resp));
            }
            assert_eq!(got, want, "{shape:?}");
        }
        for (a, b) in one_by_one.iter().zip(&together) {
            assert_eq!(meters(b), meters(a), "{shape:?}");
            assert_eq!(b.generations(), a.generations(), "{shape:?}");
        }
        let wire = one_by_one[0].meter().snapshot();
        assert!(wire.total_bytes() > 0, "{shape:?}: vacuous");
        if let Shape::Fleet = shape {
            assert!(
                wire.retried > 0 && wire.failovers > 0,
                "no fault struck: {wire:?}"
            );
        }
        if let Some(cache) = one_by_one[0].cache() {
            assert!(cache.snapshot().stats_hits > 0, "the cache never answered");
        }
    }
}

#[test]
fn a_dropped_fleet_batch_charges_the_frames_that_crossed() {
    let script = script();
    let reads: Vec<Request> = script
        .into_iter()
        .filter(|req| !matches!(req, Request::ApplyUpdates(_)))
        .collect();
    let tally = Arc::new(Tally::default());
    let plan = FaultPlan::seeded(3).with_drops(0.25).with_garbles(0.25);
    let link = fleet_4x2(&lattice(0.0), plan, |members| tap(members, &tally));
    drop(link.begin(&reads));
    let wire = link.meter().snapshot();
    let crossed = tally.exchanges.load(Ordering::Relaxed);
    assert!(crossed > 0, "nothing was shipped at begin");
    assert_eq!(wire.up_bytes, tally.up_bytes.load(Ordering::Relaxed));
    assert_eq!(wire.down_bytes, tally.down_bytes.load(Ordering::Relaxed));
    assert_eq!(
        (wire.retried, wire.failovers, wire.abandoned),
        (0, 0, 0),
        "a dropped batch re-sends nothing"
    );
    assert_eq!(wire.total_queries(), crossed);
    // The faults struck: without them, more of the batch crosses.
    let calm = Arc::new(Tally::default());
    let clear = fleet_4x2(&lattice(0.0), FaultPlan::seeded(3), |members| {
        tap(members, &calm)
    });
    drop(clear.begin(&reads));
    assert!(calm.exchanges.load(Ordering::Relaxed) > crossed);
    // The link still works, and the next batch is charged on top.
    assert!(link.request(&reads[0]).into_count() > 0);
    assert!(tally.exchanges.load(Ordering::Relaxed) > crossed);
}

#[test]
fn a_deferring_stack_ships_nothing_for_a_dropped_batch() {
    let script = script();
    for cached in [false, true] {
        let tally = Arc::new(Tally::default());
        let server = tap(lattice(0.0), &tally);
        let link = if cached {
            let cache = Arc::new(ClientCache::new(1 << 20));
            Link::cached(CacheLayer::new(server, PacketModel::default(), cache), 1.0)
        } else {
            Link::new(server, PacketModel::default(), 1.0)
        };
        drop(link.begin(&script));
        assert_eq!(
            tally.exchanges.load(Ordering::Relaxed),
            0,
            "cached={cached}"
        );
        assert_eq!(link.meter().snapshot(), LinkSnapshot::default());
        if let Some(cache) = link.cache() {
            let snap = cache.snapshot();
            assert_eq!(
                snap.stats_misses + snap.window_misses,
                0,
                "looked up at begin"
            );
        }
        // Finished, the same batch ships.
        link.begin(&script).finish(|_| ());
        assert!(
            tally.exchanges.load(Ordering::Relaxed) > 0,
            "cached={cached}"
        );
    }
}
