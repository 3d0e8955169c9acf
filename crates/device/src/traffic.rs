//! Many-device traffic harness: N scripted devices over a shared carrier.
//!
//! The paper's deployment is *many* resource-constrained devices querying
//! shared spatial servers; `tests/concurrent.rs` seeded that axis with a
//! handful of client threads. This module scales it to thousands of
//! simulated devices without a thread per device: devices are
//! deterministic request scripts, executed by a small **worker pool**
//! (each worker runs one device to completion, then pulls the next), and
//! the server side is whatever carrier the caller's `connect` factory
//! wires up — gauged endpoints for the scaling benchmarks, gauged or
//! in-process deployments for differential replays.
//!
//! Determinism is the whole point: a device's script depends only on its
//! index, every request is issued in script order on that device's own
//! links, and the servers are immutable during a run. So a run with any
//! worker count must produce, per device, **identical** response digests,
//! join pairs, and meter snapshots to a serial replay (`workers = 1`) —
//! the [`TrafficReport::determinism_digest`] folds all of that (and
//! nothing wall-clock-dependent) into one comparable number. Latencies
//! are collected alongside for the scaling benchmarks' p50/p95/p99 and
//! fairness columns, and deliberately excluded from the digest.
//!
//! The script's requests are what a run measures, so the device's own
//! bookkeeping is kept to a few instructions per object:
//!
//! * Every digest is a chain of one word mix (`fold`: the state xored
//!   with a `u64` word, multiplied 64×64→128 by an odd constant, the two
//!   halves xored), started from `FNV_OFFSET`. A per-word multiply that
//!   keeps only the low half would let two flipped sign bits cancel (a
//!   point at `y = -0.0` against `y = 0.0`); the folded high half does
//!   not.
//! * [`DeviceOutcome::digest`] folds each response in issue order: a
//!   variant tag, then ids, counts and `f64::to_bits` of every coordinate
//!   (`min.x`, `min.y`, `max.x`, `max.y`), lengths before lists.
//! * The local joins' pairs are unioned without sorting: each step's
//!   nested loop offers its `(r_id, s_id)` keys to one hash set, and a key
//!   the set had not seen adds its mix to [`DeviceOutcome::pair_digest`],
//!   a wrapping sum, so the digest is of the set and not of any order.
//! * The report digests fold each device's numbers and then, for
//!   [`TrafficReport::determinism_digest`], every field of both meter
//!   snapshots through their `Hash` impls, so no field can be left out.
//!
//! Digests are only ever compared between runs of one binary
//! (`same_outcome` in the benchmark, `tests/device_scaling.rs`), never
//! against a recorded value, so the encoding is free to change with the
//! code.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use asj_geom::{Rect, SpatialObject};
use asj_net::{Link, LinkSnapshot, Request, Response};

/// Shape of one traffic run.
#[derive(Debug, Clone, Copy)]
pub struct TrafficConfig {
    /// Simulated device count.
    pub devices: usize,
    /// Scripted rounds per device (each round issues a COUNT and two
    /// WINDOW downloads and joins the windows locally).
    pub steps: usize,
    /// Worker threads executing devices. `1` is the serial replay every
    /// other worker count must match exactly.
    pub workers: usize,
    /// The data space device windows are scripted inside.
    pub space: Rect,
    /// Join distance for the local window join.
    pub eps: f64,
}

impl TrafficConfig {
    /// A config over `space` with harness defaults (4 steps, ε = 2 % of
    /// the space width).
    pub fn new(devices: usize, workers: usize, space: Rect) -> Self {
        TrafficConfig {
            devices,
            steps: 4,
            workers,
            space,
            eps: (space.max.x - space.min.x) * 0.02,
        }
    }
}

/// What one device produced. Everything except `latencies_us` is
/// deterministic in (device index, deployment).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceOutcome {
    /// Device index.
    pub device: usize,
    /// Order-sensitive digest over every decoded response, in issue
    /// order (per step: the COUNT, the R window, the S window), each
    /// folded as the module docs say.
    pub digest: u64,
    /// Distinct qualifying `(r_id, s_id)` pairs over all the local window
    /// joins: the size of the union of the steps' pair sets.
    pub pairs: u64,
    /// Order-independent digest of that union: the wrapping sum of each
    /// distinct pair's mixed key `r_id << 32 | s_id`.
    pub pair_digest: u64,
    /// Final meter snapshot of the device's R link.
    pub r_meter: LinkSnapshot,
    /// Final meter snapshot of the device's S link.
    pub s_meter: LinkSnapshot,
    /// Wall-clock per request, in issue order. Excluded from all
    /// determinism digests.
    pub latencies_us: Vec<u64>,
}

/// All devices' outcomes plus the aggregate views the benchmarks report.
#[derive(Debug)]
pub struct TrafficReport {
    /// Outcomes indexed by device.
    pub outcomes: Vec<DeviceOutcome>,
}

/// The state every digest starts from (FNV-1a's offset basis). It is not
/// zero, so that leading zero words still move the state.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The odd multiplier of `fold` (2⁶⁴ over the golden ratio).
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Folds one word into `hash`: `(hash ^ word) × MIX` as a 128-bit
/// product, its high half xored onto its low half.
#[inline]
fn fold(hash: u64, word: u64) -> u64 {
    let p = u128::from(hash ^ word) * u128::from(MIX);
    p as u64 ^ (p >> 64) as u64
}

/// A [`Hasher`] over `fold`: each integer it is fed is one word. It
/// digests the meter snapshots (their derived `Hash` feeds every field in
/// declaration order) and keys the pair union's set.
struct WordHasher(u64);

impl Default for WordHasher {
    fn default() -> Self {
        WordHasher(FNV_OFFSET)
    }
}

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = fold(self.0, word);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
}

/// The union of a device's step pairs, taken without sorting: a key set
/// plus the running digest of the keys it admitted. Each worker keeps
/// one and clears it per device, so its table grows once, not per device.
#[derive(Default)]
struct PairUnion {
    seen: HashSet<u64, BuildHasherDefault<WordHasher>>,
    digest: u64,
}

impl PairUnion {
    /// Adds the nested-loop pairs of two downloaded windows: every
    /// `(r, s)` within `eps`. Buffer-sized inputs, so the quadratic scan
    /// is exact and cheap.
    fn join(&mut self, r: &[SpatialObject], s: &[SpatialObject], eps: f64) {
        for a in r {
            for b in s {
                if a.mbr.within_distance(&b.mbr, eps) {
                    let key = u64::from(a.id) << 32 | u64::from(b.id);
                    if self.seen.insert(key) {
                        self.digest = self.digest.wrapping_add(fold(FNV_OFFSET, key));
                    }
                }
            }
        }
    }

    /// Empties the union for the next device, keeping the table.
    fn clear(&mut self) {
        self.seen.clear();
        self.digest = 0;
    }

    /// Distinct pairs admitted so far.
    fn len(&self) -> u64 {
        self.seen.len() as u64
    }
}

/// The deterministic window script: device `i`, round `k`, side salt
/// `s`. Same arithmetic family as `tests/concurrent.rs`, spread over the
/// device index so 1000 devices exercise 1000 distinct-but-reproducible
/// query mixes.
fn scripted_window(space: Rect, i: usize, k: usize, s: usize) -> Rect {
    let span_x = space.max.x - space.min.x;
    let span_y = space.max.y - space.min.y;
    let u = ((i * 37 + k * 61 + s * 17) % 97) as f64 / 97.0;
    let v = ((i * 53 + k * 29 + s * 41) % 89) as f64 / 89.0;
    let w = 0.05 + ((i * 13 + k * 7) % 11) as f64 / 11.0 * 0.15;
    let x0 = space.min.x + u * span_x * (1.0 - w);
    let y0 = space.min.y + v * span_y * (1.0 - w);
    Rect::from_coords(x0, y0, x0 + w * span_x, y0 + w * span_y)
}

/// Folds every field of `resp` into `hash`: a variant tag, then ids,
/// counts and `f64::to_bits` of each coordinate, lengths before lists.
/// The `match` has no `_` arm: a new `Response` variant fails to compile
/// here instead of silently digesting to nothing.
fn digest_response(hash: &mut u64, resp: &Response) {
    fn word(hash: &mut u64, v: u64) {
        *hash = fold(*hash, v);
    }
    fn rect(hash: &mut u64, r: &Rect) {
        for v in [r.min.x, r.min.y, r.max.x, r.max.y] {
            word(hash, v.to_bits());
        }
    }
    fn objects(hash: &mut u64, objs: &[SpatialObject]) {
        word(hash, objs.len() as u64);
        for o in objs {
            word(hash, u64::from(o.id));
            rect(hash, &o.mbr);
        }
    }
    match resp {
        Response::Objects(objs) => {
            word(hash, 0);
            objects(hash, objs);
        }
        Response::Count(c) => [1, *c].iter().for_each(|&v| word(hash, v)),
        Response::Buckets(buckets) => {
            word(hash, 4);
            word(hash, buckets.len() as u64);
            buckets.iter().for_each(|b| objects(hash, b));
        }
        Response::Rects(rects) => {
            word(hash, 5);
            word(hash, rects.len() as u64);
            rects.iter().for_each(|r| rect(hash, r));
        }
        Response::Pairs(pairs) => {
            word(hash, 6);
            word(hash, pairs.len() as u64);
            for &(a, b) in pairs {
                word(hash, u64::from(a) << 32 | u64::from(b));
            }
        }
        Response::Refused => word(hash, 7),
        Response::Ack { generation } => [8, *generation].iter().for_each(|&v| word(hash, v)),
        Response::Malformed => word(hash, 9),
        Response::Unavailable => word(hash, 10),
        Response::Changes(ops) => {
            word(hash, 11);
            word(hash, ops.len() as u64);
            for op in ops {
                let (tag, id, mbr) = match op {
                    asj_net::DeltaOp::Remove { id, mbr } => (0, *id, mbr),
                    asj_net::DeltaOp::Add(o) => (1, o.id, &o.mbr),
                };
                word(hash, tag << 32 | u64::from(id));
                rect(hash, mbr);
            }
        }
    }
}

/// Runs one device's script over fresh links from `connect`, joining
/// its windows into the worker's `union`.
fn run_device(
    cfg: &TrafficConfig,
    device: usize,
    links: (Link, Link),
    union: &mut PairUnion,
) -> DeviceOutcome {
    let (r_link, s_link) = links;
    let mut digest = FNV_OFFSET;
    union.clear();
    let mut latencies_us = Vec::with_capacity(cfg.steps * 3);
    let timed = |link: &Link, req: &Request, lat: &mut Vec<u64>| -> Response {
        let t0 = Instant::now();
        let resp = link.request(req);
        lat.push(t0.elapsed().as_micros() as u64);
        resp
    };
    for k in 0..cfg.steps {
        let stat_w = scripted_window(cfg.space, device, k, 0);
        let join_w = scripted_window(cfg.space, device, k, 1);
        let count = timed(&r_link, &Request::Count(stat_w), &mut latencies_us);
        digest_response(&mut digest, &count);
        let r_objs = timed(&r_link, &Request::Window(join_w), &mut latencies_us);
        digest_response(&mut digest, &r_objs);
        let s_objs = timed(&s_link, &Request::Window(join_w), &mut latencies_us);
        digest_response(&mut digest, &s_objs);
        if let (Response::Objects(r), Response::Objects(s)) = (&r_objs, &s_objs) {
            union.join(r, s, cfg.eps);
        }
    }
    DeviceOutcome {
        device,
        digest,
        pairs: union.len(),
        pair_digest: union.digest,
        r_meter: r_link.meter().snapshot(),
        s_meter: s_link.meter().snapshot(),
        latencies_us,
    }
}

/// Drives `cfg.devices` scripted devices through the pool of
/// `cfg.workers` threads. `connect` maps a device index to its fresh
/// `(R, S)` links — typically `|_| deployment.connect()` — and may be
/// called concurrently from the workers.
pub fn run_traffic<F>(cfg: &TrafficConfig, connect: F) -> TrafficReport
where
    F: Fn(usize) -> (Link, Link) + Sync,
{
    assert!(cfg.workers >= 1, "need at least one worker");
    let next = AtomicUsize::new(0);
    let outcomes: Mutex<Vec<Option<DeviceOutcome>>> = Mutex::new(vec![None; cfg.devices]);
    std::thread::scope(|scope| {
        for _ in 0..cfg.workers.min(cfg.devices.max(1)) {
            scope.spawn(|| {
                let mut union = PairUnion::default();
                loop {
                    let device = next.fetch_add(1, Ordering::Relaxed);
                    if device >= cfg.devices {
                        break;
                    }
                    let outcome = run_device(cfg, device, connect(device), &mut union);
                    outcomes.lock().expect("outcome lock")[device] = Some(outcome);
                }
            });
        }
    });
    let outcomes = outcomes
        .into_inner()
        .expect("outcome lock")
        .into_iter()
        .map(|o| o.expect("every device completes"))
        .collect();
    TrafficReport { outcomes }
}

impl TrafficReport {
    /// One number covering every deterministic field of every device:
    /// response digests, pair digests and counts, and both meter
    /// snapshots. Two runs over the same deployment agree iff this
    /// agrees (latencies are excluded by construction).
    pub fn determinism_digest(&self) -> u64 {
        self.fold_outcomes(true)
    }

    /// Like [`determinism_digest`](Self::determinism_digest) but over the
    /// query *answers* only (response digests, pair counts and digests),
    /// excluding meter snapshots. This is the identity a **shared**
    /// client cache can still guarantee: which device warms the cache —
    /// and therefore who pays the miss bytes — depends on scheduling, but
    /// the answers every device decodes must not.
    pub fn result_digest(&self) -> u64 {
        self.fold_outcomes(false)
    }

    /// Folds, device by device, the index, `digest`, `pairs` and
    /// `pair_digest`, then (with `meters`) every field of the R and then
    /// the S snapshot, in declaration order.
    fn fold_outcomes(&self, meters: bool) -> u64 {
        let mut hash = WordHasher::default();
        for o in &self.outcomes {
            (o.device, o.digest, o.pairs, o.pair_digest).hash(&mut hash);
            if meters {
                (o.r_meter, o.s_meter).hash(&mut hash);
            }
        }
        hash.finish()
    }

    /// Total qualifying pairs across all devices.
    pub fn total_pairs(&self) -> u64 {
        self.outcomes.iter().map(|o| o.pairs).sum()
    }

    /// `(p50, p95, p99)` over every request latency, in microseconds.
    pub fn latency_percentiles_us(&self) -> (u64, u64, u64) {
        let mut all: Vec<u64> = self
            .outcomes
            .iter()
            .flat_map(|o| o.latencies_us.iter().copied())
            .collect();
        if all.is_empty() {
            return (0, 0, 0);
        }
        all.sort_unstable();
        let pick = |p: f64| all[((all.len() - 1) as f64 * p) as usize];
        (pick(0.50), pick(0.95), pick(0.99))
    }

    /// Starvation check: the slowest device's mean request latency over
    /// the fastest's. 1.0 is perfectly fair; the scaling suite asserts
    /// the ratio stays finite and every device completed its script.
    pub fn fairness_ratio(&self) -> f64 {
        let means: Vec<f64> = self
            .outcomes
            .iter()
            .filter(|o| !o.latencies_us.is_empty())
            .map(|o| o.latencies_us.iter().sum::<u64>() as f64 / o.latencies_us.len() as f64)
            .collect();
        let max = means.iter().cloned().fold(f64::MIN, f64::max);
        let min = means.iter().cloned().fold(f64::MAX, f64::min);
        if means.is_empty() || min <= 0.0 {
            return 1.0;
        }
        max / min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_windows_are_deterministic_and_inside_space() {
        let space = Rect::from_coords(0.0, 0.0, 100.0, 50.0);
        for i in [0usize, 7, 999] {
            for k in 0..4 {
                let a = scripted_window(space, i, k, 0);
                let b = scripted_window(space, i, k, 0);
                assert_eq!(a, b);
                assert!(a.min.x >= space.min.x && a.max.x <= space.max.x + 1e-9);
                assert!(a.min.y >= space.min.y && a.max.y <= space.max.y + 1e-9);
            }
        }
        assert_ne!(
            scripted_window(space, 1, 0, 0),
            scripted_window(space, 2, 0, 0)
        );
    }

    #[test]
    fn response_digest_sees_every_field_and_the_order() {
        let digest = |resps: &[Response]| {
            let mut hash = FNV_OFFSET;
            resps.iter().for_each(|r| digest_response(&mut hash, r));
            hash
        };
        let objs = |y: f64| Response::Objects(vec![SpatialObject::point(1, 0.5, y)]);
        let distinct = [
            vec![objs(0.0)],
            vec![objs(-0.0)],
            vec![objs(f64::from(0.1f32))],
            vec![Response::Buckets(vec![vec![SpatialObject::point(
                1, 0.5, 0.0,
            )]])],
            vec![Response::Buckets(vec![vec![], vec![]])],
            vec![Response::Buckets(vec![vec![]])],
            vec![Response::Count(1), Response::Count(2)],
            vec![Response::Count(2), Response::Count(1)],
            vec![Response::Ack { generation: 1 }],
            vec![Response::Refused],
            vec![Response::Malformed],
            vec![Response::Unavailable],
        ];
        for (i, a) in distinct.iter().enumerate() {
            assert_eq!(digest(a), digest(&a.clone()));
            for b in &distinct[i + 1..] {
                assert_ne!(digest(a), digest(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn response_digest_separates_near_twins() {
        let digest = |objs: &[SpatialObject]| {
            let mut hash = FNV_OFFSET;
            digest_response(&mut hash, &Response::Objects(objs.to_vec()));
            hash
        };
        // (a) Only `max.x` differs. Every case above is a point, so a
        // digest that dropped the max corner would pass them all.
        let boxed = |max_x| SpatialObject::new(1, Rect::from_coords(0.0, 0.0, max_x, 1.0));
        assert_ne!(digest(&[boxed(2.0)]), digest(&[boxed(3.0)]));
        // (b) `min.y` and `max.y` both flip their sign bit. A per-word
        // `(h ^ w) * prime` keeps only the low half of each product, so
        // bit 63 never leaves bit 63 and the second flip cancels the first.
        let point = |y: f64| SpatialObject::new(1, Rect::from_coords(0.5, y, 0.5, y));
        assert_ne!(digest(&[point(0.0)]), digest(&[point(-0.0)]));
        // (c) Two objects swapped within one list.
        let (p, q) = (
            SpatialObject::point(1, 1.0, 2.0),
            SpatialObject::point(2, 3.0, 4.0),
        );
        assert_ne!(digest(&[p, q]), digest(&[q, p]));
    }

    #[test]
    fn a_pair_found_in_two_steps_counts_once_in_either_order() {
        let r = vec![
            SpatialObject::point(1, 0.0, 0.0),
            SpatialObject::point(2, 10.0, 0.0),
        ];
        let s = vec![
            SpatialObject::point(7, 0.5, 0.0),
            SpatialObject::point(8, 50.0, 0.0),
        ];
        let union = |steps: &[f64]| {
            let mut union = PairUnion::default();
            steps.iter().for_each(|&eps| union.join(&r, &s, eps));
            (union.len(), union.digest)
        };
        let once = union(&[1.0]);
        assert_eq!(once.0, 1);
        assert_eq!(union(&[1.0, 1.0]), once, "a repeat adds nothing");
        let all = union(&[1.0, 100.0]);
        assert_eq!(all.0, 4);
        assert_eq!(union(&[100.0, 1.0]), all, "the digest is of the set");
        assert_ne!(all.1, once.1);
    }

    /// The pair union held to its old definition, on real servers.
    mod union_oracle {
        use std::sync::Arc;

        use asj_net::transport::InProcExchange;
        use asj_net::{FaultLayer, FaultPlan, NetConfig, RawExchange, ShardEndpoint, ShardRouter};
        use asj_server::{partition_objects, RTreeStore, SpatialService};

        use super::*;

        type Server = Arc<SpatialService<RTreeStore>>;

        const SPACE: Rect = Rect {
            min: asj_geom::Point { x: 0.0, y: 0.0 },
            max: asj_geom::Point { x: 100.0, y: 100.0 },
        };

        /// `n` points spread over `SPACE` by a seeded LCG.
        fn uniform(n: u32, seed: u64) -> Vec<SpatialObject> {
            let mut state = seed;
            let mut next = || {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0
            };
            (0..n)
                .map(|id| SpatialObject::point(id, next(), next()))
                .collect()
        }

        fn server(objects: Vec<SpatialObject>) -> Server {
            Arc::new(SpatialService::new(RTreeStore::new(objects)))
        }

        fn carrier(server: &Server) -> Box<dyn RawExchange> {
            Box::new(InProcExchange::new(Arc::clone(server)))
        }

        fn flat(server: &Server) -> Link {
            Link::new(carrier(server), &NetConfig::default(), 1.0)
        }

        /// One side split over three shards, of which `dark` (if any)
        /// never answers.
        struct Fleet {
            shards: Vec<(Option<Rect>, Server)>,
            dark: Option<usize>,
            net: NetConfig,
        }

        impl Fleet {
            fn new(objects: Vec<SpatialObject>, dark: Option<usize>, net: NetConfig) -> Self {
                let part = partition_objects(&SPACE, 3, objects);
                let bounds = part.bounds();
                let shards = bounds.into_iter().zip(part.members.into_iter().map(server));
                let shards = shards.collect();
                Fleet { shards, dark, net }
            }

            fn link(&self) -> Link {
                let endpoints = (self.shards.iter().enumerate())
                    .map(|(i, (bounds, server))| {
                        let mut c = carrier(server);
                        if self.dark == Some(i) {
                            let plan = FaultPlan::default().with_crash(0, u64::MAX);
                            c = Box::new(FaultLayer::new(c, plan));
                        }
                        ShardEndpoint::new(*bounds, c)
                    })
                    .collect();
                Link::routed(ShardRouter::new(endpoints, &self.net), 1.0)
            }
        }

        /// The union's old definition, kept here only. Replays `device`'s
        /// whole script on `links` (so a fault plan counting requests
        /// fails the same ones) and returns each step's nested-loop
        /// pairs, unioned, sorted and deduplicated, plus how many pairs
        /// the steps found before deduplication.
        fn reference_pairs(
            cfg: &TrafficConfig,
            device: usize,
            (r_link, s_link): (Link, Link),
        ) -> (Vec<(u32, u32)>, usize) {
            let mut all = Vec::new();
            for k in 0..cfg.steps {
                let join_w = scripted_window(cfg.space, device, k, 1);
                r_link.request(&Request::Count(scripted_window(cfg.space, device, k, 0)));
                let r = r_link.request(&Request::Window(join_w));
                let s = s_link.request(&Request::Window(join_w));
                if let (Response::Objects(r), Response::Objects(s)) = (r, s) {
                    for a in &r {
                        for b in &s {
                            if a.mbr.within_distance(&b.mbr, cfg.eps) {
                                all.push((a.id, b.id));
                            }
                        }
                    }
                }
            }
            let found = all.len();
            all.sort_unstable();
            all.dedup();
            (all, found)
        }

        /// Runs the script on 16 devices and holds every device's `pairs`
        /// and `pair_digest` to [`reference_pairs`] over fresh links. The
        /// windows of a device's steps overlap, so some pair is found by
        /// two steps: the deployments must exercise the deduplication.
        fn assert_union_is_the_reference(
            connect: impl Fn(usize) -> (Link, Link) + Sync,
        ) -> TrafficReport {
            let cfg = TrafficConfig::new(16, 2, SPACE);
            let report = run_traffic(&cfg, &connect);
            let mut repeats = 0;
            for o in &report.outcomes {
                let (reference, found) = reference_pairs(&cfg, o.device, connect(o.device));
                let digest = reference.iter().fold(0u64, |d, &(a, b)| {
                    d.wrapping_add(fold(FNV_OFFSET, u64::from(a) << 32 | u64::from(b)))
                });
                assert_eq!(
                    (o.pairs, o.pair_digest),
                    (reference.len() as u64, digest),
                    "device {}: the union is not the steps' sorted, deduplicated pairs",
                    o.device
                );
                repeats += found - reference.len();
            }
            assert!(repeats > 0, "no pair was found by two steps");
            report
        }

        #[test]
        fn flat_links() {
            let (r, s) = (server(uniform(2000, 1)), server(uniform(2000, 2)));
            assert_union_is_the_reference(|_| (flat(&r), flat(&s)));
        }

        #[test]
        fn a_three_shard_fleet() {
            let net = NetConfig::default();
            let r = Fleet::new(uniform(2000, 1), None, net);
            let s = Fleet::new(uniform(2000, 2), None, net);
            assert_union_is_the_reference(|_| (r.link(), s.link()));
        }

        #[test]
        fn a_step_whose_download_fails() {
            // The R link's requests are COUNT, WINDOW per step: its 4th
            // (step 1's download) goes dark, later ones are answered.
            let (r, s) = (server(uniform(2000, 1)), server(uniform(2000, 2)));
            let plan = FaultPlan::default().with_crash(3, 1);
            let report = assert_union_is_the_reference(|_| {
                let r = Box::new(FaultLayer::new(carrier(&r), plan));
                (Link::new(r, &NetConfig::default(), 1.0), flat(&s))
            });
            for o in &report.outcomes {
                assert_eq!(o.r_meter.window_queries, 3, "one download failed");
            }
        }

        #[test]
        fn an_allow_partial_fleet_with_a_shard_down() {
            let net = NetConfig::default().with_allow_partial(true);
            let s = Fleet::new(uniform(2000, 2), None, net);
            let [partial, whole] = [Some(1), None].map(|dark| {
                let r = Fleet::new(uniform(2000, 1), dark, net);
                assert_union_is_the_reference(|_| (r.link(), s.link())).total_pairs()
            });
            assert!(
                partial < whole,
                "the dark shard's objects are missing from partial answers"
            );
        }
    }
}
