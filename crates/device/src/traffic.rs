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
    /// Order-sensitive FNV-1a digest over every decoded response.
    pub digest: u64,
    /// Qualifying `(r_id, s_id)` pairs found by the local window joins.
    pub pairs: u64,
    /// FNV-1a digest over the sorted pair list.
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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
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

/// Plane-pair scan over two downloaded windows: every `(r, s)` pair
/// within `eps`, deduplicated by id pair. Buffer-sized inputs, so the
/// quadratic scan is exact and cheap.
fn window_pairs(r: &[SpatialObject], s: &[SpatialObject], eps: f64) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for a in r {
        for b in s {
            if a.mbr.within_distance(&b.mbr, eps) {
                out.push((a.id, b.id));
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Folds every field of `resp` into `hash`: a variant tag, then ids,
/// counts and `f64::to_bits` of each coordinate, lengths before lists.
/// Digests are only ever compared between runs of one binary
/// (`same_outcome` in the benchmark, `tests/device_scaling.rs`), never
/// against a recorded value, so the encoding is free to change with the
/// code. The `match` has no `_` arm: a new `Response` variant fails to
/// compile here instead of silently digesting to nothing.
fn digest_response(hash: &mut u64, resp: &Response) {
    fn word(hash: &mut u64, v: u64) {
        fnv1a(hash, &v.to_be_bytes());
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

/// Runs one device's script over fresh links from `connect`.
fn run_device(cfg: &TrafficConfig, device: usize, links: (Link, Link)) -> DeviceOutcome {
    let (r_link, s_link) = links;
    let mut digest = FNV_OFFSET;
    let mut all_pairs: Vec<(u32, u32)> = Vec::new();
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
            all_pairs.extend(window_pairs(r, s, cfg.eps));
        }
    }
    all_pairs.sort_unstable();
    all_pairs.dedup();
    let mut pair_digest = FNV_OFFSET;
    for (a, b) in &all_pairs {
        fnv1a(&mut pair_digest, &a.to_be_bytes());
        fnv1a(&mut pair_digest, &b.to_be_bytes());
    }
    DeviceOutcome {
        device,
        digest,
        pairs: all_pairs.len() as u64,
        pair_digest,
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
            scope.spawn(|| loop {
                let device = next.fetch_add(1, Ordering::Relaxed);
                if device >= cfg.devices {
                    break;
                }
                let outcome = run_device(cfg, device, connect(device));
                outcomes.lock().expect("outcome lock")[device] = Some(outcome);
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
        let mut hash = FNV_OFFSET;
        for o in &self.outcomes {
            fnv1a(&mut hash, &(o.device as u64).to_be_bytes());
            fnv1a(&mut hash, &o.digest.to_be_bytes());
            fnv1a(&mut hash, &o.pairs.to_be_bytes());
            fnv1a(&mut hash, &o.pair_digest.to_be_bytes());
            fnv1a(
                &mut hash,
                format!("{:?}{:?}", o.r_meter, o.s_meter).as_bytes(),
            );
        }
        hash
    }

    /// Like [`determinism_digest`](Self::determinism_digest) but over the
    /// query *answers* only (response digests, pair counts and digests),
    /// excluding meter snapshots. This is the identity a **shared**
    /// client cache can still guarantee: which device warms the cache —
    /// and therefore who pays the miss bytes — depends on scheduling, but
    /// the answers every device decodes must not.
    pub fn result_digest(&self) -> u64 {
        let mut hash = FNV_OFFSET;
        for o in &self.outcomes {
            fnv1a(&mut hash, &(o.device as u64).to_be_bytes());
            fnv1a(&mut hash, &o.digest.to_be_bytes());
            fnv1a(&mut hash, &o.pairs.to_be_bytes());
            fnv1a(&mut hash, &o.pair_digest.to_be_bytes());
        }
        hash
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
    fn window_pairs_dedups_and_orders() {
        let r = vec![
            SpatialObject::point(1, 0.0, 0.0),
            SpatialObject::point(2, 10.0, 0.0),
        ];
        let s = vec![
            SpatialObject::point(7, 0.5, 0.0),
            SpatialObject::point(8, 50.0, 0.0),
        ];
        assert_eq!(window_pairs(&r, &s, 1.0), vec![(1, 7)]);
        assert_eq!(window_pairs(&r, &s, 100.0).len(), 4);
    }
}
