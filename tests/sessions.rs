//! One handshake per deployment.
//!
//! A physical edge's negotiated wire version is a property of the edge —
//! its endpoint and, under a fault plan, its fault seed — not of the
//! session that happens to open it. A deployment therefore negotiates on
//! its first link to each side and opens every later link at what that
//! settled on: no `HELLO` is sent again, and — because every link gets
//! fresh fault layers whose script resumes past the handshake it skipped
//! — nothing else about a join changes either.

use adhoc_spatial_joins::prelude::*;
use asj_core::{DeploymentBuilder, Side};
use asj_geom::SpatialObject;
use asj_net::codec::WireVersion;
use asj_net::{BreakerConfig, FaultPlan, NetConfig, RetryPolicy};
use asj_workloads::{default_space, uniform};

fn points(seed: u64) -> Vec<SpatialObject> {
    uniform(&default_space(), 600, seed)
}

/// Wire v2, 4 shards × 2 replicas a side on reactor threads of their
/// own, retry and breakers on, every edge dropping a fifth of its frames
/// — handshakes included. Replica `j` of every shard rolls from the same
/// seed, so a seed drops the `HELLO`s of all the fleet's `j`-th replicas
/// or of none: seed 5 loses replica 1's (no set is unanimous, every edge
/// stays at v1), seed 9 loses none (every edge speaks v2).
fn faulted_fleet(seed: u64) -> Deployment {
    let net = NetConfig::default()
        .with_wire_v2(true)
        .with_retry(RetryPolicy::attempts(6))
        .with_breakers(BreakerConfig::enabled());
    DeploymentBuilder::new(points(11), points(111))
        .with_space(default_space())
        .with_buffer(100)
        .with_net(net)
        .threaded()
        .with_shards(4, 4)
        .with_replicas(2)
        .with_faults(FaultPlan::seeded(seed).with_drops(0.2))
        .build()
}

fn handshakes(d: &Deployment) -> u64 {
    let stats = [Side::R, Side::S].map(|side| d.event_stats(side));
    stats.iter().flatten().map(|s| s.handshakes()).sum()
}

#[test]
fn only_the_first_connect_of_a_deployment_handshakes() {
    for (seed, arrived, spoken) in [(5, 8, WireVersion::V1), (9, 16, WireVersion::V2)] {
        let d = faulted_fleet(seed);
        assert_eq!(handshakes(&d), 0, "a built deployment has sent nothing yet");
        let (r1, s1) = d.connect();
        assert_eq!(
            handshakes(&d),
            arrived,
            "seed {seed}: HELLOs of 16 that arrived"
        );
        assert_eq!([r1.edge_wires(), s1.edge_wires()].concat(), [spoken; 16]);
        let (r2, s2) = d.connect();
        assert_eq!(
            handshakes(&d),
            arrived,
            "later links resume, they do not ask"
        );
        assert_eq!(
            (r2.edge_wires(), s2.edge_wires()),
            (r1.edge_wires(), s1.edge_wires())
        );
        assert_eq!((r2.wire(), s2.wire()), (spoken, spoken));
    }
}

#[test]
fn a_resumed_join_reports_what_a_negotiating_one_does() {
    let spec = JoinSpec::distance_join(150.0);
    for alg in [
        Box::new(SrJoin::default()) as Box<dyn DistributedJoin>,
        Box::new(UpJoin::default()),
    ] {
        for seed in [5, 9] {
            let d = faulted_fleet(seed);
            let run = |d: &Deployment| alg.run(d, &spec).expect("join runs");
            let first = run(&d);
            assert!(
                !first.pairs.is_empty() && first.link_r.failovers > 0,
                "vacuous"
            );
            let first = format!("{first:?}");
            let name = alg.name();
            assert_eq!(
                format!("{:?}", run(&d)),
                first,
                "{name}: join 2, seed {seed}"
            );
            let fresh = faulted_fleet(seed);
            assert_eq!(
                format!("{:?}", run(&fresh)),
                first,
                "{name}: fresh, seed {seed}"
            );
        }
    }
}

#[test]
fn racing_first_connects_all_speak_the_same_versions() {
    let d = faulted_fleet(13);
    let barrier = std::sync::Barrier::new(8);
    let spoken: Vec<Vec<WireVersion>> = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    let (r, s) = d.connect();
                    [r.edge_wires(), s.edge_wires()].concat()
                })
            })
            .collect();
        racers.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(spoken.iter().all(|wires| wires == &spoken[0]), "{spoken:?}");
    let (r, s) = d.connect();
    assert_eq!([r.edge_wires(), s.edge_wires()].concat(), spoken[0]);
}

#[test]
fn a_resumed_link_meets_a_scripted_crash_on_the_same_requests() {
    // Exchange 0 of a negotiating link is its `HELLO`; a resumed link
    // sends none, and its fault layer counts from 1 to keep the script
    // where it was: the window `2..4` swallows requests 2 and 3 of both.
    let d = DeploymentBuilder::new(points(11), points(111))
        .with_net(NetConfig::default().with_wire_v2(true))
        .with_faults(FaultPlan::seeded(1).with_crash(2, 2))
        .build();
    let outcomes = |link: &asj_net::Link| -> Vec<bool> {
        let count = asj_net::Request::Count(default_space());
        (0..5).map(|_| link.request(&count).is_failure()).collect()
    };
    let (negotiated, _) = d.connect();
    let (resumed, _) = d.connect();
    assert_eq!(resumed.wire(), WireVersion::V2);
    assert_eq!(outcomes(&negotiated), [false, true, true, false, false]);
    assert_eq!(outcomes(&resumed), [false, true, true, false, false]);
}

#[test]
fn scripted_fault_rolls_land_where_they_did() {
    // A fault roll is a pure function of (seed, request bytes, attempt):
    // a change that moves one — a reordered derivation, a request that
    // frames differently, a retry that re-rolls — moves these four
    // counters, and has to say so by editing the literals.
    let net = NetConfig::default()
        .with_wire_v2(true)
        .with_retry(RetryPolicy::attempts(4))
        .with_breakers(BreakerConfig::new(2, 8));
    let d = DeploymentBuilder::new(points(11), points(111))
        .with_space(default_space())
        .with_buffer(100)
        .with_net(net)
        .with_shards(2, 2)
        .with_replicas(2)
        .with_faults(FaultPlan::seeded(21).with_drops(0.01).with_garbles(0.2))
        .build();
    let report = SrJoin::default()
        .run(&d, &JoinSpec::distance_join(150.0))
        .expect("join runs");
    assert_eq!(report.pairs.len(), 259);
    let pin = |l: &asj_net::LinkSnapshot| (l.retried, l.failovers, l.breaker_open, l.total_bytes());
    assert_eq!(pin(&report.link_r), (3, 14, 2, 17885));
    assert_eq!(pin(&report.link_s), (3, 14, 2, 17395));
}
