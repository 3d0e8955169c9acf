//! Live updates: joins racing a moving fleet of objects.
//!
//! The servers are built *live* — each store is a generational snapshot
//! that applies batched insert/delete/move updates copy-on-write and
//! publishes the result atomically as the next generation. Responses are
//! stamped with the serving generation, and the client-side cache holds
//! every entry at one content generation: after an update tick the first
//! join asks each server once what changed since, and patches what it
//! holds instead of downloading it again. Run with:
//!
//! ```text
//! cargo run --release --example live_update
//! ```

use adhoc_spatial_joins::prelude::*;
use asj_core::{DeploymentBuilder, Side};
use asj_net::Update;
use asj_workloads::{TrajectorySpec, TrajectoryStream};

fn main() {
    // A 10 km × 10 km city: delivery vans (moving) and restaurants
    // (fixed). The vans drift each tick; the join is re-evaluated live.
    let space = Rect::from_coords(0.0, 0.0, 10_000.0, 10_000.0);
    let vans = gaussian_clusters(&SyntheticSpec::new(space, 400, 4), 7);
    let restaurants = gaussian_clusters(&SyntheticSpec::new(space, 800, 8), 1007);

    let deployment = DeploymentBuilder::new(vans.clone(), restaurants)
        .with_space(space)
        .with_client_cache(true)
        .live()
        .build();

    // A pinned-seed trajectory: 20 % of the vans move up to 200 m per
    // tick. The stream emits the movers at their new positions; each
    // batch becomes one ApplyUpdates message on the metered link.
    let mut traffic = TrajectoryStream::new(
        &vans,
        TrajectorySpec {
            space,
            step: 200.0,
            move_fraction: 0.2,
        },
        42,
    );

    let spec = JoinSpec::distance_join(500.0);
    println!("tick   generation   moved   pairs   bytes   cache-hit-rate");
    for tick in 0..5u32 {
        let (generation, moved) = if tick == 0 {
            (0, 0) // first join runs against the pristine stores
        } else {
            let batch: Vec<Update> = traffic
                .tick()
                .into_iter()
                .map(|o| Update::Move {
                    id: o.id,
                    to: o.mbr,
                })
                .collect();
            assert!(!batch.is_empty(), "the fleet never sits entirely still");
            let moved = batch.len();
            (deployment.apply_updates(Side::R, batch), moved)
        };
        let report = SrJoin::default()
            .run(&deployment, &spec)
            .expect("join failed");
        println!(
            "{:>4} {:>12} {:>7} {:>7} {:>7} {:>16.2}",
            tick,
            generation,
            moved,
            report.pairs.len(),
            report.total_bytes(),
            report.cache_hit_rate(),
        );
    }

    // Later joins hit the cache for everything an earlier one paid for,
    // the moved objects patched in from the change list — and only ever
    // at the content generation: an answer served at another one is never
    // stored, so stale objects are never served (the differential suites
    // prove it).
}
