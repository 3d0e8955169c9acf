//! A session is its joins.
//!
//! A deployment fixes its wire version when it is built
//! (`NetConfig::wire_v2`), so a link carries nothing over from an earlier
//! one: every link speaks that version from its first frame, and every
//! link gets fresh fault layers whose scripts restart from their seeds.
//! A second join in a session, or the first on a fresh deployment,
//! therefore reports exactly what the first join did, and a scripted
//! crash swallows the same requests of every link.

use adhoc_spatial_joins::prelude::*;
use asj_core::DeploymentBuilder;
use asj_geom::SpatialObject;
use asj_net::{BreakerConfig, FaultPlan, NetConfig, RetryPolicy};
use asj_workloads::{default_space, uniform};

fn points(seed: u64) -> Vec<SpatialObject> {
    uniform(&default_space(), 600, seed)
}

/// Wire v2, 4 shards × 2 replicas a side as gauged endpoints,
/// retry and breakers on, every edge dropping a fifth of its frames.
/// Every edge speaks v2 from its first frame, whatever the seed.
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

#[test]
fn a_second_join_and_a_fresh_deployment_report_what_the_first_join_did() {
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
fn every_link_meets_a_scripted_crash_on_the_same_requests() {
    // Every frame a link sends is a request, so a fault layer's exchange
    // index is its link's request index: the window `2..4` swallows
    // requests 2 and 3 of the first link and of every later one.
    let d = DeploymentBuilder::new(points(11), points(111))
        .with_net(NetConfig::default().with_wire_v2(true))
        .with_faults(FaultPlan::seeded(1).with_crash(2, 2))
        .build();
    let outcomes = |link: &asj_net::Link| -> Vec<bool> {
        let count = asj_net::Request::Count(default_space());
        (0..5).map(|_| link.request(&count).is_failure()).collect()
    };
    let (first, _) = d.connect();
    let (later, _) = d.connect();
    assert_eq!(outcomes(&first), [false, false, true, true, false]);
    assert_eq!(outcomes(&later), [false, false, true, true, false]);
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
    // One trip per link, not two: the router settles each request before
    // it frames the next, so the breakers see each request's failures
    // before the next request's first try.
    assert_eq!(pin(&report.link_r), (3, 14, 1, 17885));
    assert_eq!(pin(&report.link_s), (3, 14, 1, 17395));
}
