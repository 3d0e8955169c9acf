//! Many-device determinism on gauged endpoints.
//!
//! A deployment built `.event_loop()` serves every simulated device
//! through gauged endpoints, and the pool's workers call its handlers
//! concurrently, each serving the device it is running at the moment. So the property that makes it trustworthy is
//! *unobservability*: at a thousand devices, any worker-pool schedule
//! must produce, per device, exactly the answers, join pairs and meter
//! bytes of a serial replay — and on a sharded fleet every device's
//! per-shard meters must keep summing exactly to its aggregate meter
//! (conservation).

use asj_core::{DeploymentBuilder, Side};
use asj_device::{run_traffic, TrafficConfig};
use asj_geom::{Rect, SpatialObject};
use asj_net::Request;
use asj_workloads::{default_space, uniform};

fn data(seed: u64) -> Vec<SpatialObject> {
    uniform(&default_space(), 200, seed)
}

/// 1024 devices, pooled vs serial replay, flat and 3-shard fleets:
/// device-for-device identical outcomes, and nobody starves.
#[test]
fn a_thousand_devices_replay_identically_on_the_event_loop() {
    for shards in [1usize, 3] {
        let dep = DeploymentBuilder::new(data(7), data(1007))
            .with_space(default_space())
            .with_shards(shards, shards)
            .event_loop()
            .build();

        let space = default_space();
        let pooled_cfg = TrafficConfig::new(1024, 8, space);
        let pooled = run_traffic(&pooled_cfg, |_| dep.connect());
        let serial_cfg = TrafficConfig {
            workers: 1,
            ..pooled_cfg
        };
        let serial = run_traffic(&serial_cfg, |_| dep.connect());

        // Whole-run digest first (covers meters), then device-for-device
        // so a failure names the diverging device.
        assert_eq!(
            pooled.determinism_digest(),
            serial.determinism_digest(),
            "{shards}-shard: pooled run diverged from serial replay"
        );
        assert_eq!(pooled.outcomes.len(), 1024);
        for (p, s) in pooled.outcomes.iter().zip(serial.outcomes.iter()) {
            assert_eq!(p.device, s.device);
            assert_eq!(p.digest, s.digest, "device {}: answers diverged", p.device);
            assert_eq!(
                (p.pairs, p.pair_digest),
                (s.pairs, s.pair_digest),
                "device {}: join pairs diverged",
                p.device
            );
            assert_eq!(
                (p.r_meter, p.s_meter),
                (s.r_meter, s.s_meter),
                "device {}: wire bytes diverged",
                p.device
            );
        }
        assert!(pooled.total_pairs() > 0, "non-vacuous workload");
        assert!(pooled.fairness_ratio().is_finite(), "a device starved");

        // The gauged endpoints carried the traffic: per-shard served
        // counts are positive and the endpoint gauges saw real depth.
        for side in [Side::R, Side::S] {
            let stats = dep.event_stats(side);
            assert_eq!(stats.len(), shards);
            assert!(stats.iter().all(|g| g.served() > 0));
        }
    }
}

/// Meter conservation per device on a sharded event-loop fleet: each
/// link's per-shard meters sum exactly to its aggregate meter, request
/// by request.
#[test]
fn per_shard_meters_sum_to_each_devices_aggregate() {
    let dep = DeploymentBuilder::new(data(11), data(1011))
        .with_space(default_space())
        .with_shards(3, 2)
        .event_loop()
        .build();
    let space = default_space();
    for device in 0..16usize {
        let (r_link, s_link) = dep.connect();
        for k in 0..4 {
            let a = ((device * 37 + k * 61) % 97) as f64 / 97.0;
            let b = ((device * 53 + k * 29) % 89) as f64 / 89.0;
            let w = Rect::from_coords(
                space.min.x + a * 7000.0,
                space.min.y + b * 7000.0,
                space.min.x + a * 7000.0 + 1800.0,
                space.min.y + b * 7000.0 + 1800.0,
            );
            r_link.request(&Request::Count(w));
            r_link.request(&Request::Window(w));
            s_link.request(&Request::Window(w));
            for (side, link) in [("R", &r_link), ("S", &s_link)] {
                let fleet = link.fleet().expect("sharded link has fleet telemetry");
                assert_eq!(
                    fleet.snapshot().summed(),
                    link.meter().snapshot(),
                    "device {device}, side {side}, step {k}: \
                     per-shard meters must sum exactly to the aggregate"
                );
            }
        }
    }
}

/// Cache sharing: with a per-side session cache, *who* pays the miss is
/// scheduling-dependent but the decoded answers (and local join pairs)
/// must still match the serial replay device for device.
#[test]
fn shared_cache_answers_match_serial_replay() {
    let dep = DeploymentBuilder::new(data(13), data(1013))
        .with_space(default_space())
        .with_client_cache(true)
        .event_loop()
        .build();
    let space = default_space();
    let pooled_cfg = TrafficConfig::new(256, 8, space);
    let pooled = run_traffic(&pooled_cfg, |_| dep.connect());
    let serial_cfg = TrafficConfig {
        workers: 1,
        ..pooled_cfg
    };
    let serial = run_traffic(&serial_cfg, |_| dep.connect());
    assert_eq!(
        pooled.result_digest(),
        serial.result_digest(),
        "shared cache changed some device's decoded answers"
    );
    assert!(pooled.total_pairs() > 0);
}
