//! One differential over stack shapes: whatever is stacked above the
//! physical edge — nothing, a cache that never hits, a 1×1 fleet router —
//! the same requests put the same frames on the wire, so under the same
//! seeded faults every shape returns the same responses and charges the
//! same meter values. A 3×2 fleet under the same plans keeps its three
//! meter levels conserved.
//!
//! And one over *how* the requests are issued: a batch is its requests.
//! On every shape, `request_many(script)` hands back what
//! `script.map(request)` returns, in the same order, and leaves the same
//! meters behind.
//!
//! And one over a damaged reply: a frame with a byte behind it is
//! `Malformed` — charged, retried — never the value in front of the byte.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use asj_geom::{Point, Rect, SpatialObject};
use asj_net::cache::{CacheLayer, ClientCache};
use asj_net::codec::{encode_response_versioned, stamp_generation_versioned, WireVersion};
use asj_net::testutil::ScanHandler as Scan;
use asj_net::transport::InProcExchange;
use asj_net::{
    BreakerConfig, FaultLayer, FaultPlan, Link, LinkSnapshot, PacketModel, QueryHandler,
    RawExchange, Request, Response, RetryPolicy, ShardEndpoint, ShardMeta, ShardRouter, Update,
};
use bytes::{Bytes, BytesMut};
use proptest::prelude::*;

/// Live scan server: applies update batches, bumps its generation per
/// batch and stamps every query response with it.
struct LiveScan {
    objects: Mutex<Vec<SpatialObject>>,
    generation: AtomicU64,
}

impl LiveScan {
    fn new(objects: Vec<SpatialObject>) -> Arc<Self> {
        Arc::new(LiveScan {
            objects: Mutex::new(objects),
            generation: AtomicU64::new(0),
        })
    }
}

impl QueryHandler for LiveScan {
    fn handle(&self, req: Request) -> Response {
        let mut objects = self.objects.lock().unwrap();
        let Request::ApplyUpdates(batch) = req else {
            return Scan(objects.clone()).handle(req);
        };
        for u in batch {
            let (id, put) = match u {
                Update::Insert(o) => (o.id, Some(o)),
                Update::Move { id, to } => (id, Some(SpatialObject::new(id, to))),
                Update::Delete(id) => (id, None),
            };
            objects.retain(|o| o.id != id);
            objects.extend(put);
        }
        Response::Ack {
            generation: self.generation.fetch_add(1, Ordering::AcqRel) + 1,
        }
    }

    fn handle_into(&self, req: Request, wire: WireVersion, buf: &mut BytesMut) {
        if !matches!(req, Request::ApplyUpdates(_)) {
            stamp_generation_versioned(self.generation.load(Ordering::Acquire), wire, buf);
        }
        // No quantization context: v2 objects ship as exact-f32 escapes,
        // which decode bit-equal to v1 without the window grid.
        encode_response_versioned(&self.handle(req), wire, None, buf);
    }
}

/// 60 points on a 10 × 6 lattice over `[0, 30) × [0, 18)`.
fn lattice() -> Vec<SpatialObject> {
    (0..60)
        .map(|i| SpatialObject::point(i, (i % 10) as f64 * 3.0, (i / 10) as f64 * 3.0))
        .collect()
}

/// A fresh live server over `objects` behind its own fault layer.
fn faulted(objects: Vec<SpatialObject>, plan: FaultPlan) -> Box<dyn RawExchange> {
    let server = Box::new(InProcExchange::new(LiveScan::new(objects)));
    Box::new(FaultLayer::new(server, plan))
}

/// [`faulted`], with the server gauged.
fn faulted_gauged(objects: Vec<SpatialObject>, plan: FaultPlan) -> Box<dyn RawExchange> {
    let server = Box::new(InProcExchange::gauged(
        LiveScan::new(objects),
        Arc::default(),
    ));
    Box::new(FaultLayer::new(server, plan))
}

/// A carrier that appends a byte to replies: to every one, or — `flaky` —
/// only to the first delivery of a frame, so its retry gets through.
struct Padded {
    inner: InProcExchange<LiveScan>,
    flaky: bool,
    last: Mutex<Option<Bytes>>,
}

impl RawExchange for Padded {
    fn exchange(&self, request: Bytes) -> Bytes {
        let reply = self.inner.exchange(request.clone());
        let again = self.last.lock().unwrap().replace(request.clone()) == Some(request);
        if self.flaky && again {
            return reply;
        }
        Bytes::from([reply.as_slice(), &[0]].concat())
    }
}

fn padded(flaky: bool) -> Link {
    let carrier = Padded {
        inner: InProcExchange::new(LiveScan::new(lattice())),
        flaky,
        last: Mutex::new(None),
    };
    Link::new(Box::new(carrier), PacketModel::default(), 1.0)
}

/// Three shards cut at x = 10 and x = 20, two replicas each, every
/// replica edge under its own decorrelated copy of the plan.
fn shards_3x2(plan: FaultPlan) -> Vec<ShardEndpoint> {
    (0..3u64)
        .map(|s| {
            let x0 = s as f64 * 10.0;
            let members: Vec<SpatialObject> = lattice()
                .into_iter()
                .filter(|o| (x0..x0 + 10.0).contains(&o.mbr.min.x))
                .collect();
            let meta = ShardMeta::with_cell(
                Rect::union_of(members.iter().map(|o| o.mbr)),
                Some(Rect::from_coords(x0, -1e6, x0 + 10.0, 1e6)),
            );
            let replicas = (0..2u64)
                .map(|r| {
                    let mut own = plan;
                    own.seed ^= (3 * s + r).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    faulted(members.clone(), own)
                })
                .collect();
            ShardEndpoint::with_replicas(Arc::new(meta), replicas)
        })
        .collect()
}

/// One step of a script: `(kind, x, y, h)`; kinds 5 and up are update
/// batches.
type Step = (u8, i32, i32, u32);

/// The `i`-th request of a script. Every rectangle is `1 + n/32` wide
/// for a script-unique `n`, so no two windows are ever equal and no
/// window is asked twice — a cache over the script never hits.
fn request(i: usize, (kind, x, y, h): Step) -> Request {
    let rect = |n: usize| {
        let min = Point::new(x as f64 * 0.5, y as f64 * 0.5);
        let max = Point::new(min.x + 1.0 + n as f64 / 32.0, min.y + h as f64 * 0.5);
        Rect::new(min, max)
    };
    let id = 1000 + i as u32;
    match kind {
        0 => Request::Count(rect(4 * i)),
        1 => Request::BucketEpsRange {
            probes: (0..4)
                .map(|k| SpatialObject::new(id, rect(4 * i + k)))
                .collect(),
            eps: 0.0,
        },
        2 => Request::Window(rect(4 * i)),
        3 => Request::EpsRange {
            q: rect(4 * i),
            eps: h as f64 * 0.25,
        },
        4 => Request::BucketEpsRange {
            probes: (0..3)
                .map(|k| SpatialObject::new(id, rect(4 * i + k)))
                .collect(),
            eps: h as f64 * 0.25,
        },
        _ => Request::ApplyUpdates(vec![
            Update::Insert(SpatialObject::new(id, rect(4 * i))),
            Update::Move {
                id: (x + 8) as u32,
                to: rect(4 * i + 1),
            },
            Update::Delete((y + 40) as u32),
        ]),
    }
}

/// Order-free form of a response (a fleet merges in shard order).
fn normalized(resp: Response) -> Response {
    let by_id = |mut v: Vec<SpatialObject>| {
        v.sort_unstable_by_key(|o| o.id);
        v
    };
    match resp {
        Response::Objects(v) => Response::Objects(by_id(v)),
        Response::Buckets(b) => Response::Buckets(b.into_iter().map(by_id).collect()),
        other => other,
    }
}

fn summed(snaps: &[LinkSnapshot]) -> LinkSnapshot {
    snaps
        .iter()
        .fold(LinkSnapshot::default(), |acc, s| acc.plus(s))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // A reply that is a valid frame plus one byte is not that frame. On
    // every kind of read, in either wire version (a v2 link's padded
    // replies are v2 frames): with no retry the answer is `Malformed` and the exchange is charged like any other; with a
    // retry that gets a clean reply, the answer is the clean link's and
    // the damaged attempt shows as one retry. (Before decoders checked
    // that they consumed their frame, the value decoded and was used.)
    #[test]
    fn a_reply_with_a_byte_appended_is_malformed_never_a_value(
        steps in prop::collection::vec((0u8..5, -8i32..48, -8i32..28, 1u32..12), 1..10),
        v2 in any::<bool>(),
    ) {
        let wire = if v2 { WireVersion::V2 } else { WireVersion::V1 };
        let clean = faulted(lattice(), FaultPlan::default());
        let clean = Link::new(clean, PacketModel::default(), 1.0).with_wire(wire);
        let always = padded(false).with_wire(wire);
        let flaky = padded(true).with_retry(RetryPolicy::attempts(2)).with_wire(wire);
        for (i, &step) in steps.iter().enumerate() {
            let req = request(i, step);
            let want = clean.request(&req);
            prop_assert_eq!(always.request(&req), Response::Malformed, "step {}: {:?}", i, req);
            prop_assert_eq!(flaky.request(&req), want, "step {}: {:?}", i, req);
        }
        let (charged, retried) = (always.meter().snapshot(), flaky.meter().snapshot());
        prop_assert!(charged.down_bytes > 0 && charged.up_bytes > 0, "a damaged reply crossed the wire");
        prop_assert_eq!(charged.retried, 0);
        prop_assert_eq!(retried.retried, steps.len() as u64);
    }

    #[test]
    fn stack_shapes_agree_on_responses_and_meters(
        steps in prop::collection::vec((0u8..6, -8i32..48, -8i32..28, 1u32..12), 1..14),
        seed in any::<u64>(),
        drops in prop_oneof![Just(0.0), Just(0.15), Just(0.35)],
        garbles in prop_oneof![Just(0.0), Just(0.2)],
        retrying in any::<bool>(),
        v2 in any::<bool>(),
    ) {
        let clean = drops == 0.0 && garbles == 0.0;
        let plan = FaultPlan::seeded(seed).with_drops(drops).with_garbles(garbles);
        let packet = PacketModel::default();
        let tune = |link: Link| {
            let retry = if retrying { RetryPolicy::attempts(3) } else { RetryPolicy::default() };
            let wire = if v2 { WireVersion::V2 } else { WireVersion::V1 };
            link.with_retry(retry).with_wire(wire)
        };
        let bounds = Rect::union_of(lattice().iter().map(|o| o.mbr));
        let flat = tune(Link::new(faulted(lattice(), plan), packet, 1.0));
        let cached = tune(Link::cached(
            CacheLayer::new(faulted(lattice(), plan), packet, Arc::new(ClientCache::new(0))),
            1.0,
        ));
        let sole = tune(Link::routed(
            ShardRouter::new(vec![ShardEndpoint::new(bounds, faulted(lattice(), plan))], packet),
            1.0,
        ));
        let fleet = tune(Link::routed(ShardRouter::new(shards_3x2(plan), packet), 1.0));

        let mut batches = 0;
        for (i, &step) in steps.iter().enumerate() {
            let req = request(i, step);
            if matches!(req, Request::ApplyUpdates(_)) {
                // The envelope nonce is per sender, so fault rolls on
                // tagged frames legitimately differ between shapes.
                if !clean {
                    continue;
                }
                batches += 1;
            }
            let want = flat.request(&req);
            prop_assert_eq!(&cached.request(&req), &want, "cache, step {}: {:?}", i, req);
            prop_assert_eq!(&sole.request(&req), &want, "1x1 fleet, step {}: {:?}", i, req);
            let merged = fleet.request(&req);
            if clean {
                let want = match want {
                    // Every shard bumps once per batch; the fleet Ack sums.
                    Response::Ack { generation } => Response::Ack { generation: 3 * generation },
                    other => normalized(other),
                };
                prop_assert_eq!(normalized(merged), want, "3x2 fleet, step {}: {:?}", i, req);
            }
        }

        let meter = flat.meter().snapshot();
        prop_assert_eq!(cached.meter().snapshot(), meter);
        prop_assert_eq!(sole.meter().snapshot(), meter);
        prop_assert_eq!(cached.cache().unwrap().snapshot().hit_rate(), 0.0);
        if clean {
            prop_assert_eq!(flat.last_generation(), batches);
            prop_assert_eq!(cached.last_generation(), batches);
            prop_assert_eq!(sole.last_generation(), batches);
            prop_assert_eq!(fleet.last_generation(), 3 * batches);
        }
        for routed in [&sole, &fleet] {
            let snap = routed.fleet().unwrap().snapshot();
            prop_assert_eq!(snap.summed(), routed.meter().snapshot());
            for (shard, replicas) in snap.per_shard.iter().zip(&snap.per_replica) {
                prop_assert_eq!(*shard, summed(replicas));
            }
        }
    }

    // A batch is its requests. The requests of a script are independent
    // of one another — every rectangle is unique, so no request can be
    // answered out of an earlier one's reply — which is the contract
    // `request_many` is offered under; a write is a barrier inside it.
    // Fault rolls are a pure function of (seed, frame bytes, attempt),
    // so with breakers off both ways of issuing draw the same faults and
    // every counter must agree. Breakers route on the *order* failures
    // were observed in, which pipelining legitimately changes: there the
    // answers and the bytes must agree whenever the budget lets every
    // exchange through (drops only, retry on).
    #[test]
    fn a_batch_is_its_requests(
        steps in prop::collection::vec((0u8..8, -8i32..48, -8i32..28, 1u32..12), 1..14),
        seed in any::<u64>(),
        drops in prop_oneof![Just(0.0), Just(0.15), Just(0.35)],
        garbles in prop_oneof![Just(0.0), Just(0.2)],
        retrying in any::<bool>(),
        v2 in any::<bool>(),
    ) {
        let clean = drops == 0.0 && garbles == 0.0;
        let plan = FaultPlan::seeded(seed).with_drops(drops).with_garbles(garbles);
        let packet = PacketModel::default();
        let tune = |link: Link| {
            let retry = if retrying { RetryPolicy::attempts(3) } else { RetryPolicy::default() };
            let wire = if v2 { WireVersion::V2 } else { WireVersion::V1 };
            link.with_retry(retry).with_wire(wire)
        };
        // Updates only on clean plans (the envelope nonce is per sender,
        // so fault rolls on tagged frames differ between any two links).
        let script: Vec<Request> = steps
            .iter()
            .enumerate()
            .map(|(i, &step)| request(i, step))
            .filter(|req| clean || !matches!(req, Request::ApplyUpdates(_)))
            .collect();
        // A store warmed, through a clean link, with the left part of the
        // space: requests inside it hit, the others miss, batches that
        // straddle it hit partially. Reads only, and no window that would
        // miss: a window admitted mid-script answers later requests it
        // contains, which makes them depend on it.
        let warm = Rect::from_coords(-4.0, -4.0, 14.0, 14.0);
        let warmed = || {
            let store = Arc::new(ClientCache::new(1 << 20));
            let clean = FaultPlan::default();
            let primer = CacheLayer::new(faulted(lattice(), clean), packet, Arc::clone(&store));
            Link::cached(primer, 1.0).request(&Request::Window(warm));
            store
        };
        let reads: Vec<Request> = script
            .iter()
            .filter(|req| !matches!(req, Request::ApplyUpdates(_)))
            .map(|req| match req {
                Request::Window(w) if !warm.contains_rect(w) => Request::Count(*w),
                other => other.clone(),
            })
            .collect();
        let bounds = Rect::union_of(lattice().iter().map(|o| o.mbr));
        let fleet = |breaker: BreakerConfig| {
            let router = ShardRouter::new(shards_3x2(plan), packet).with_breakers(breaker);
            tune(Link::routed(router, 1.0))
        };
        type Shape<'a> = (&'a str, &'a [Request], Box<dyn Fn() -> Link + 'a>, bool);
        let shapes: Vec<Shape> = vec![
            ("flat", &script, Box::new(|| tune(Link::new(faulted(lattice(), plan), packet, 1.0))), true),
            ("flat, gauged", &script, Box::new(|| {
                tune(Link::new(faulted_gauged(lattice(), plan), packet, 1.0))
            }), true),
            ("cold cache", &script, Box::new(|| {
                let store = Arc::new(ClientCache::new(0));
                tune(Link::cached(CacheLayer::new(faulted(lattice(), plan), packet, store), 1.0))
            }), true),
            ("warm cache", &reads, Box::new(|| {
                tune(Link::cached(CacheLayer::new(faulted(lattice(), plan), packet, warmed()), 1.0))
            }), true),
            ("1x1 fleet", &script, Box::new(|| {
                let shard = ShardEndpoint::new(bounds, faulted(lattice(), plan));
                tune(Link::routed(ShardRouter::new(vec![shard], packet), 1.0))
            }), true),
            ("3x2 fleet", &script, Box::new(|| fleet(BreakerConfig::disabled())), true),
            ("3x2 fleet, breakers", &script, Box::new(|| fleet(BreakerConfig::enabled())), false),
        ];
        for (shape, script, build, exact) in shapes {
            let (serial, batched) = (build(), build());
            let want: Vec<Response> = script.iter().map(|req| serial.request(req)).collect();
            let mut got = Vec::with_capacity(script.len());
            batched.request_many(script, |resp| got.push(resp));
            let (want_meter, got_meter) = (serial.meter().snapshot(), batched.meter().snapshot());
            if exact {
                prop_assert_eq!(&got, &want, "{}: responses", shape);
                prop_assert_eq!(got_meter, want_meter, "{}: link meter", shape);
                prop_assert_eq!(batched.last_generation(), serial.last_generation());
            } else if retrying && garbles == 0.0 && drops < 0.2 {
                prop_assert_eq!(&got, &want, "{}: responses", shape);
                prop_assert_eq!(got_meter.total_bytes(), want_meter.total_bytes());
            }
            if let Some(cache) = batched.cache() {
                prop_assert_eq!(cache.snapshot(), serial.cache().unwrap().snapshot());
            }
            if let Some(fleet) = batched.fleet() {
                let snap = fleet.snapshot();
                prop_assert_eq!(snap.summed(), got_meter, "{}: aggregate == Σ shard", shape);
                for (shard, replicas) in snap.per_shard.iter().zip(&snap.per_replica) {
                    prop_assert_eq!(*shard, summed(replicas), "{}: shard == Σ replica", shape);
                }
                if exact {
                    let serial = serial.fleet().unwrap().snapshot();
                    prop_assert_eq!(&snap.per_replica, &serial.per_replica);
                    prop_assert_eq!((snap.scattered, snap.pruned), (serial.scattered, serial.pruned));
                }
            }
        }
    }
}
