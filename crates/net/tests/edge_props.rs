//! One differential over stack shapes: whatever is stacked above the
//! physical edge — nothing, a cache that never hits, a 1×1 fleet router —
//! the same requests put the same frames on the wire, so under the same
//! seeded faults every shape returns the same responses and charges the
//! same meter values. A 3×2 fleet under the same plans keeps its three
//! meter levels conserved.
//!
//! And one over *how* the requests are issued: a batch is its requests.
//! On a flat, cached or routed link, under every fault plan — crash
//! windows included, and scripts that ask one request twice —
//! `request_many(script)` hands back what `script.map(request)` returns,
//! in the same order, and leaves the same meters behind.
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
    BreakerConfig, FaultLayer, FaultPlan, Link, LinkSnapshot, NetConfig, QueryHandler, RawExchange,
    Request, Response, RetryPolicy, ShardEndpoint, ShardMeta, ShardRouter, Update,
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

fn padded(flaky: bool, net: &NetConfig) -> Link {
    let carrier = Padded {
        inner: InProcExchange::new(LiveScan::new(lattice())),
        flaky,
        last: Mutex::new(None),
    };
    Link::new(Box::new(carrier), net, 1.0)
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
        let net = NetConfig::default().with_wire_v2(v2);
        let clean = Link::new(faulted(lattice(), FaultPlan::default()), &net, 1.0);
        let always = padded(false, &net);
        let flaky = padded(true, &net.with_retry(RetryPolicy::attempts(2)));
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
        let net = tuned(retrying, v2);
        let bounds = Rect::union_of(lattice().iter().map(|o| o.mbr));
        let flat = Link::new(faulted(lattice(), plan), &net, 1.0);
        let cold = Arc::new(ClientCache::new(0));
        let cached = Link::cached(CacheLayer::new(faulted(lattice(), plan), &net, cold), 1.0);
        let sole = Link::routed(
            ShardRouter::new(vec![ShardEndpoint::new(bounds, faulted(lattice(), plan))], &net),
            1.0,
        );
        let fleet = Link::routed(ShardRouter::new(shards_3x2(plan), &net), 1.0);

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

    // A batch is its requests; see `batch_is_its_requests`. Kinds 8 and
    // 9 ask an earlier request of the script again.
    #[test]
    fn a_batch_is_its_requests(
        steps in prop::collection::vec((0u8..10, -8i32..48, -8i32..28, 1u32..12), 1..14),
        seed in any::<u64>(),
        drops in prop_oneof![Just(0.0), Just(0.15), Just(0.35)],
        garbles in prop_oneof![Just(0.0), Just(0.2)],
        crash in (
            any::<bool>(),
            0u64..10,
            prop_oneof![Just(1u64), Just(2), Just(5), Just(u64::MAX)],
        ),
        retrying in any::<bool>(),
        v2 in any::<bool>(),
    ) {
        let plan = FaultPlan::seeded(seed).with_drops(drops).with_garbles(garbles);
        let plan = match crash {
            (true, at, dark) => plan.with_crash(at, dark),
            _ => plan,
        };
        batch_is_its_requests(&steps, plan, tuned(retrying, v2))?;
    }
}

/// Two inputs on which a link that ships a whole batch before it settles
/// any of it — so a retry goes out after the later requests' first
/// attempts — answers otherwise than the same requests one by one: two
/// COUNTs under a crash window that swallows both attempts of the first,
/// and three identical COUNTs under heavy drops (the attempt counter is
/// keyed on the request's bytes). A fleet that shipped a batch's first
/// tries before it settled any answered the first pair
/// `[Count(4), Count(4)]` as a batch.
#[test]
fn a_batch_is_its_requests_on_the_known_counterexamples() {
    let count = (0, 0, 0, 20);
    let twice = NetConfig::default().with_retry(RetryPolicy::attempts(2));
    let crashed = FaultPlan::seeded(0).with_crash(0, 2);
    batch_is_its_requests(&[count, (0, 10, 4, 20)], crashed, twice).unwrap();
    let flat = Link::new(faulted(lattice(), crashed), &twice, 1.0);
    let first = flat.request(&request(0, count));
    assert_eq!(
        first,
        Response::Unavailable,
        "both attempts fall in the window"
    );
    let pair = [request(0, count), request(1, (0, 10, 4, 20))];
    let serial = sole_fleet(crashed, twice);
    let one_by_one: Vec<Response> = pair.iter().map(|req| serial.request(req)).collect();
    let mut batched = Vec::new();
    sole_fleet(crashed, twice).request_many(&pair, |resp| batched.push(resp));
    let want = [Response::Unavailable, Response::Count(4)];
    assert_eq!(one_by_one, want, "1x1 fleet, one by one");
    assert_eq!(batched, want, "1x1 fleet, as a batch");
    let thrice = [count, (8, 0, 0, 0), (8, 0, 0, 0)];
    for seed in 0..200 {
        let lossy = FaultPlan::seeded(seed).with_drops(0.5);
        batch_is_its_requests(&thrice, lossy, tuned(true, false)).unwrap();
    }
}

/// A fleet of one shard of one replica over the lattice, under `plan`.
fn sole_fleet(plan: FaultPlan, net: NetConfig) -> Link {
    let bounds = Rect::union_of(lattice().iter().map(|o| o.mbr));
    let shard = ShardEndpoint::new(bounds, faulted(lattice(), plan));
    Link::routed(ShardRouter::new(vec![shard], &net), 1.0)
}

/// The link configuration of the properties: 3 attempts when
/// `retrying`, wire v2 when `v2`.
fn tuned(retrying: bool, v2: bool) -> NetConfig {
    let retry = if retrying {
        RetryPolicy::attempts(3)
    } else {
        RetryPolicy::default()
    };
    NetConfig::default().with_retry(retry).with_wire_v2(v2)
}

/// A batch is its requests. Step `i` of a script is `request(i, step)`,
/// or, for kinds 8 and 9, the `x`-th earlier request asked again (none
/// when there is none yet).
///
/// `request_many` issues each request through `request`, and every layer
/// answers one request per call, so under every plan — crash windows and
/// repeated requests included, breakers on or off, a cache cold or warm
/// — every batch must equal its requests exactly: responses, meters,
/// generations, cache tallies. Every shape runs the whole script.
///
/// Updates ride only clean plans (the envelope nonce is per sender, so
/// fault rolls on tagged frames differ between any two links).
fn batch_is_its_requests(
    steps: &[Step],
    plan: FaultPlan,
    net: NetConfig,
) -> Result<(), TestCaseError> {
    let clean = plan.drop_rate == 0.0 && plan.garble_rate == 0.0;
    let mut script: Vec<Request> = Vec::new();
    for (i, &step) in steps.iter().enumerate() {
        let req = match step.0 {
            8.. if script.is_empty() => continue,
            8.. => script[step.1.unsigned_abs() as usize % script.len()].clone(),
            _ => request(i, step),
        };
        if clean || !matches!(req, Request::ApplyUpdates(_)) {
            script.push(req);
        }
    }
    // A store warmed, through a clean link, with the left part of the
    // space: requests inside it hit, the others miss, batches that
    // straddle it hit partially.
    let warm = Rect::from_coords(-4.0, -4.0, 14.0, 14.0);
    let warmed = || {
        let store = Arc::new(ClientCache::new(1 << 20));
        let clean = FaultPlan::default();
        let primer = CacheLayer::new(
            faulted(lattice(), clean),
            &NetConfig::default(),
            Arc::clone(&store),
        );
        Link::cached(primer, 1.0).request(&Request::Window(warm));
        store
    };
    let fleet = |breaker: BreakerConfig| {
        let router = ShardRouter::new(shards_3x2(plan), &net.with_breakers(breaker));
        Link::routed(router, 1.0)
    };
    type Shape<'a> = (&'a str, Box<dyn Fn() -> Link + 'a>);
    let shapes: Vec<Shape> = vec![
        (
            "flat",
            Box::new(|| Link::new(faulted(lattice(), plan), &net, 1.0)),
        ),
        (
            "flat, gauged",
            Box::new(|| Link::new(faulted_gauged(lattice(), plan), &net, 1.0)),
        ),
        (
            "cold cache",
            Box::new(|| {
                let store = Arc::new(ClientCache::new(0));
                Link::cached(CacheLayer::new(faulted(lattice(), plan), &net, store), 1.0)
            }),
        ),
        (
            "warm cache",
            Box::new(|| {
                Link::cached(
                    CacheLayer::new(faulted(lattice(), plan), &net, warmed()),
                    1.0,
                )
            }),
        ),
        ("1x1 fleet", Box::new(|| sole_fleet(plan, net))),
        ("3x2 fleet", Box::new(|| fleet(BreakerConfig::disabled()))),
        (
            "3x2 fleet, breakers",
            Box::new(|| fleet(BreakerConfig::enabled())),
        ),
    ];
    for (shape, build) in shapes {
        let (serial, batched) = (build(), build());
        let want: Vec<Response> = script.iter().map(|req| serial.request(req)).collect();
        let mut got = Vec::with_capacity(script.len());
        batched.request_many(&script, |resp| got.push(resp));
        let (want_meter, got_meter) = (serial.meter().snapshot(), batched.meter().snapshot());
        prop_assert_eq!(&got, &want, "{}: responses", shape);
        prop_assert_eq!(got_meter, want_meter, "{}: link meter", shape);
        prop_assert_eq!(batched.generations(), serial.generations());
        if let Some(cache) = batched.cache() {
            prop_assert_eq!(cache.snapshot(), serial.cache().unwrap().snapshot());
        }
        if let Some(fleet) = batched.fleet() {
            let snap = fleet.snapshot();
            prop_assert_eq!(snap.summed(), got_meter, "{}: aggregate == Σ shard", shape);
            for (shard, replicas) in snap.per_shard.iter().zip(&snap.per_replica) {
                prop_assert_eq!(*shard, summed(replicas), "{}: shard == Σ replica", shape);
            }
            let serial = serial.fleet().unwrap().snapshot();
            prop_assert_eq!(&snap.per_replica, &serial.per_replica);
            prop_assert_eq!(
                (snap.scattered, snap.pruned),
                (serial.scattered, serial.pruned)
            );
        }
    }
    Ok(())
}
