//! Transport robustness — a garbled frame must never kill a shared server.
//!
//! A gauged server is shared by every device connected to it, and its
//! handler serves them all, so the failure modes this suite pins are the
//! ones that take *other* clients down with them:
//!
//! * **Garbled frames** (fuzz-ish: empty, truncated, bit-flipped, alien
//!   opcodes, absurd length prefixes) get a typed `R_MALFORMED` error
//!   frame back — the server answering them must survive every one, and
//!   every *healthy* client's run must stay byte-identical (meters) and
//!   pair-identical (local joins) to an uncontended replay.
//! * **Dead servers** (a `FaultLayer` crash window that never ends): a
//!   client outliving its server sees `Response::Unavailable`, never a
//!   panic — and the failed exchange charges **no** meter bytes in either
//!   direction (meters record completed exchanges only).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use adhoc_spatial_joins::prelude::*;
use asj_device::{run_traffic, TrafficConfig};
use asj_geom::SpatialObject;
use asj_net::codec;
use asj_net::transport::InProcExchange;
use asj_net::{
    EndpointStats, FaultLayer, FaultPlan, Link, LinkSnapshot, NetConfig, RawExchange, Request,
    Response,
};
use asj_server::{RTreeStore, SpatialService};
use asj_workloads::{default_space, gaussian_clusters, SyntheticSpec};
use bytes::Bytes;

fn clusters(k: usize, n: usize, seed: u64) -> Vec<SpatialObject> {
    gaussian_clusters(&SyntheticSpec::new(default_space(), n, k), seed)
}

fn service(seed: u64) -> Arc<SpatialService<RTreeStore>> {
    Arc::new(SpatialService::new(RTreeStore::new(clusters(4, 300, seed))))
}

/// One gauged endpoint: `connect` opens a carrier to it.
struct Endpoint {
    service: Arc<SpatialService<RTreeStore>>,
    stats: Arc<EndpointStats>,
}

impl Endpoint {
    fn new(seed: u64) -> Self {
        Endpoint {
            service: service(seed),
            stats: Arc::default(),
        }
    }

    fn connect(&self) -> InProcExchange<SpatialService<RTreeStore>> {
        InProcExchange::gauged(Arc::clone(&self.service), Arc::clone(&self.stats))
    }
}

/// A link to a server that answers its first `k` exchanges, then goes
/// dark for good: a crash window that never ends, and no restart hook.
fn dead_after(k: u64, seed: u64) -> Link {
    let server = Box::new(InProcExchange::new(service(seed)));
    let plan = FaultPlan::default().with_crash(k, u64::MAX);
    Link::new(
        Box::new(FaultLayer::new(server, plan)),
        &NetConfig::default(),
        1.0,
    )
}

/// Deterministic fuzz-ish garbage: empty frames, truncated valid
/// opcodes, alien and retired opcodes, absurd length prefixes, and LCG
/// noise. None of these decode as a request. Opcode bytes are written
/// literally here; the suite deliberately speaks raw
/// wire bytes, not the codec's vocabulary.
fn garbage_frames() -> Vec<Bytes> {
    let mut frames: Vec<Vec<u8>> = vec![
        vec![],
        vec![0xff],
        vec![0x02],                                     // COUNT with no window
        vec![0x01, 1, 2, 3],                            // truncated WINDOW
        vec![0x04, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff], // bucket claiming 4 G probes
        vec![0x06, 0, 0, 0, 0],                         // the retired batched COUNT, of no windows
        vec![0x70, 0x02],                               // the retired handshake probe
        vec![0x00; 64],
        vec![0x91], // the R_MALFORMED *response* opcode as a request
    ];
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    for len in [3usize, 5, 17, 33] {
        let mut f = Vec::with_capacity(len);
        for _ in 0..len {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            f.push((x >> 33) as u8);
        }
        frames.push(f);
    }
    frames
        .into_iter()
        .map(|f| Bytes::copy_from_slice(&f))
        .collect()
}

/// The healthy-client script every client replays.
fn scripted_requests() -> Vec<Request> {
    (0..20)
        .map(|i| {
            let a = (i * 37 % 97) as f64 / 97.0 * 8000.0;
            let b = (i * 17 % 89) as f64 / 89.0 * 8000.0;
            let w = Rect::from_coords(a, b, a + 1500.0, b + 1500.0);
            match i % 3 {
                0 => Request::Window(w),
                1 => Request::Count(w),
                _ => Request::EpsRange { q: w, eps: 90.0 },
            }
        })
        .collect()
}

/// One gauged server: an attacker connection spraying garbage
/// concurrently with healthy clients. Every garbage frame gets the typed
/// error frame; every healthy client's meter equals the uncontended
/// replay; the served count excludes the garbage.
#[test]
fn garbled_frames_leave_healthy_channel_clients_byte_identical() {
    let handle = Endpoint::new(29);
    let sequence = scripted_requests();
    let run = |carrier: Box<dyn RawExchange>| {
        let link = Link::new(carrier, &NetConfig::default(), 1.0);
        let responses: Vec<Response> = sequence.iter().map(|r| link.request(r)).collect();
        (responses, link.meter().snapshot())
    };

    // Uncontended replay: the baseline every healthy client must match.
    let (baseline_responses, baseline_meter) = run(Box::new(handle.connect()));
    assert!(baseline_meter.total_bytes() > 0);

    const HEALTHY: usize = 4;
    let stop = AtomicBool::new(false);
    let results: Vec<_> = std::thread::scope(|scope| {
        let attacker = {
            let conn = handle.connect();
            let stop = &stop;
            scope.spawn(move || {
                let mut sprayed = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for g in garbage_frames() {
                        let reply = conn.exchange(g);
                        assert_eq!(
                            reply,
                            codec::encode_response(&Response::Malformed),
                            "garbage must get the typed error frame"
                        );
                        sprayed += 1;
                    }
                }
                sprayed
            })
        };
        let healthy: Vec<_> = (0..HEALTHY)
            .map(|_| {
                let conn = handle.connect();
                scope.spawn(move || run(Box::new(conn)))
            })
            .collect();
        let results: Vec<_> = healthy.into_iter().map(|h| h.join().unwrap()).collect();
        stop.store(true, Ordering::Relaxed);
        assert!(attacker.join().unwrap() > 0, "attacker must have sprayed");
        results
    });

    for (client, (responses, meter)) in results.iter().enumerate() {
        assert_eq!(
            responses, &baseline_responses,
            "client {client}: answers diverged under garbage contention"
        );
        assert_eq!(
            meter, &baseline_meter,
            "client {client}: wire bytes diverged under garbage contention"
        );
    }
    assert_eq!(
        handle.stats.served(),
        ((HEALTHY + 1) * sequence.len()) as u64,
        "garbage must not count as served queries"
    );
}

/// Two endpoints: same contract, plus the per-endpoint gauges. The
/// healthy side here is the traffic harness running real local joins, so
/// "byte-identical" extends to the join pairs themselves.
#[test]
fn garbled_frames_leave_event_loop_joins_pair_identical() {
    let endpoint_r = Endpoint::new(31);
    let endpoint_s = Endpoint::new(131);
    let space = default_space();
    let cfg = TrafficConfig::new(48, 4, space);
    let connect = |_| {
        (
            Link::new(Box::new(endpoint_r.connect()), &NetConfig::default(), 1.0),
            Link::new(Box::new(endpoint_s.connect()), &NetConfig::default(), 1.0),
        )
    };

    // Uncontended replay first…
    let baseline = run_traffic(&cfg, connect);
    assert!(baseline.total_pairs() > 0, "non-vacuous workload");
    let malformed_before = endpoint_r.stats.malformed();

    // …then the same traffic with an attacker spraying both endpoints.
    let stop = AtomicBool::new(false);
    let contended = std::thread::scope(|scope| {
        let attacker = {
            let (atk_r, atk_s) = (endpoint_r.connect(), endpoint_s.connect());
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for g in garbage_frames() {
                        let malformed = codec::encode_response(&Response::Malformed);
                        assert_eq!(atk_r.exchange(g.clone()), malformed);
                        assert_eq!(atk_s.exchange(g), malformed);
                    }
                }
            })
        };
        let report = run_traffic(&cfg, connect);
        stop.store(true, Ordering::Relaxed);
        attacker.join().unwrap();
        report
    });

    assert_eq!(
        contended.determinism_digest(),
        baseline.determinism_digest(),
        "garbage into the shared endpoints perturbed healthy devices"
    );
    assert!(
        endpoint_r.stats.malformed() > malformed_before,
        "the endpoint must have seen (and gauged) the garbage"
    );
    assert!(endpoint_r.stats.served() > 0 && endpoint_s.stats.served() > 0);
}

/// A client outliving a dead server sees `Unavailable` — and the failed
/// exchange charges no bytes in either direction (meters record
/// completed exchanges only).
#[test]
fn dead_server_yields_unavailable_and_charges_no_bytes() {
    let link = dead_after(1, 43);
    let w = Rect::from_coords(1000.0, 1000.0, 4000.0, 4000.0);
    assert!(matches!(
        link.request(&Request::Window(w)),
        Response::Objects(_)
    ));
    let before = link.meter().snapshot();
    assert!(before.up_bytes > 0 && before.down_bytes > 0);

    for _ in 0..3 {
        assert_eq!(
            link.request(&Request::Window(w)),
            Response::Unavailable,
            "a dead server surfaces as a typed response, never a panic"
        );
    }
    assert_eq!(
        link.meter().snapshot(),
        before,
        "failed exchanges must not move the meter in either direction"
    );
}

/// The traffic harness over a lossy fleet: with a retry budget every
/// device's answers equal the fault-free serial replay; with the budget
/// exhausted the dark devices report typed outcomes (and charge no
/// bytes) while the healthy devices' digests are untouched.
#[test]
fn lossy_traffic_with_retries_matches_fault_free_replay() {
    use asj_net::{FaultLayer, FaultPlan, RetryPolicy};
    let endpoint_r = Endpoint::new(31);
    let endpoint_s = Endpoint::new(131);
    let space = default_space();
    let clean = |_device: usize| {
        (
            Link::new(Box::new(endpoint_r.connect()), &NetConfig::default(), 1.0),
            Link::new(Box::new(endpoint_s.connect()), &NetConfig::default(), 1.0),
        )
    };
    // Fault-free serial replay: the oracle digests.
    let baseline = run_traffic(&TrafficConfig::new(24, 1, space), clean);
    assert!(baseline.total_pairs() > 0, "non-vacuous workload");

    // Lossy links, one seeded plan per device, retry budget 6: the
    // answers (and therefore the local joins) must all be recovered.
    let cfg = TrafficConfig::new(24, 4, space);
    let lossy = |device: usize| {
        let plan = FaultPlan::seeded(device as u64)
            .with_drops(0.3)
            .with_garbles(0.15);
        let faulted = |conn: Box<dyn RawExchange>| -> Box<dyn RawExchange> {
            Box::new(FaultLayer::new(conn, plan))
        };
        (
            Link::new(
                faulted(Box::new(endpoint_r.connect())),
                &NetConfig::default().with_retry(RetryPolicy::attempts(6)),
                1.0,
            ),
            Link::new(
                faulted(Box::new(endpoint_s.connect())),
                &NetConfig::default().with_retry(RetryPolicy::attempts(6)),
                1.0,
            ),
        )
    };
    let recovered = run_traffic(&cfg, lossy);
    assert_eq!(
        recovered.result_digest(),
        baseline.result_digest(),
        "retries must recover every scripted answer bit-for-bit"
    );
    let sum = (recovered.outcomes.iter()).fold(LinkSnapshot::default(), |acc, o| {
        acc.plus(&o.r_meter).plus(&o.s_meter)
    });
    assert!(sum.retried > 0, "the plans must fire");
    assert_eq!(sum.abandoned, 0, "budget 6 must suffice at these seeds");

    // Exhausted budget: every fifth device sits behind a totally dark
    // link with no retry budget at all.
    let dark = |device: usize| {
        if device % 5 == 0 {
            let plan = FaultPlan::seeded(device as u64).with_drops(1.0);
            (
                Link::new(
                    Box::new(FaultLayer::new(Box::new(endpoint_r.connect()), plan)),
                    &NetConfig::default(),
                    1.0,
                ),
                Link::new(
                    Box::new(FaultLayer::new(Box::new(endpoint_s.connect()), plan)),
                    &NetConfig::default(),
                    1.0,
                ),
            )
        } else {
            clean(device)
        }
    };
    let partial = run_traffic(&cfg, dark);
    for (o, b) in partial.outcomes.iter().zip(&baseline.outcomes) {
        if o.device % 5 == 0 {
            assert_eq!(o.pairs, 0, "device {}: dark links join nothing", o.device);
            assert_eq!(
                o.r_meter.total_bytes(),
                0,
                "dropped exchanges must not charge the meter"
            );
            assert_ne!(
                o.digest, b.digest,
                "dark devices decode typed Unavailable, not the real answers"
            );
        } else {
            assert_eq!(
                (o.digest, o.pairs, o.pair_digest),
                (b.digest, b.pairs, b.pair_digest),
                "device {}: a healthy device was perturbed",
                o.device
            );
            assert_eq!(o.r_meter, b.r_meter, "device {}: bytes diverged", o.device);
        }
    }
    // Every dark device decoded the identical all-Unavailable script —
    // the typed outcome is uniform, not device-dependent garbage.
    let dark_digests: Vec<u64> = partial
        .outcomes
        .iter()
        .filter(|o| o.device % 5 == 0)
        .map(|o| o.digest)
        .collect();
    assert!(dark_digests.windows(2).all(|w| w[0] == w[1]));
}

/// Ships each of `requests` in turn, one frame per exchange, and
/// collects the replies in order.
fn exchange_each(carrier: &dyn RawExchange, requests: &[Request]) -> Vec<Bytes> {
    let frames = requests.iter().map(codec::encode_request);
    frames.map(|frame| carrier.exchange(frame)).collect()
}

/// Every member of a batch sent to a dead server degrades to
/// `Unavailable`, in order, and none of them moves the meter.
#[test]
fn dead_server_fails_every_member_of_a_batch_and_charges_nothing() {
    let script = scripted_requests();
    let link = dead_after(script.len() as u64, 47);
    let mut answered = 0;
    link.request_many(&script, |resp| answered += usize::from(!resp.is_failure()));
    assert_eq!(answered, script.len(), "the live server answers the batch");
    let before = link.meter().snapshot();
    let mut replies = Vec::new();
    link.request_many(&script, |resp| replies.push(resp));
    assert_eq!(replies, vec![Response::Unavailable; script.len()]);
    assert_eq!(link.meter().snapshot(), before, "nothing crossed the wire");
}

/// Eight threads share one connection and ship their requests through
/// it at once: every thread gets the replies to its own requests, in its
/// own order.
#[test]
fn threads_sharing_one_carrier_each_get_their_own_replies() {
    let connection = Endpoint::new(53).connect();
    let oracle = service(53);
    std::thread::scope(|scope| {
        for t in 0..8u32 {
            let (carrier, oracle) = (&connection, Arc::clone(&oracle));
            scope.spawn(move || {
                for round in 0..50u32 {
                    // Windows unique to (thread, round, member), so a
                    // reply delivered to the wrong thread is caught.
                    let batch: Vec<Request> = (0..16u32)
                        .map(|k| {
                            let x = 100.0 * f64::from(t) + 7.0 * f64::from(round);
                            let side = 500.0 + 90.0 * f64::from(k);
                            Request::Count(Rect::from_coords(x, x, x + side, x + 2.0 * side))
                        })
                        .collect();
                    for (req, raw) in batch.iter().zip(exchange_each(carrier, &batch)) {
                        let want = asj_net::QueryHandler::handle(&*oracle, req.clone());
                        assert_eq!(codec::decode_response(raw).unwrap(), want);
                    }
                }
            });
        }
    });
}
