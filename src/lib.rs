//! # adhoc-spatial-joins
//!
//! Facade crate for the reproduction of *Ad-hoc Distributed Spatial Joins on
//! Mobile Devices* (Kalnis, Mamoulis, Bakiras, Li — IPDPS 2006).
//!
//! A mobile device evaluates a spatial join between two datasets hosted on
//! **non-cooperative** servers that only answer `WINDOW`, `COUNT` and
//! `ε-RANGE` queries, minimizing *transferred bytes* under the device's
//! memory constraint. This crate re-exports the whole system:
//!
//! * [`geom`] — geometry kernel (rectangles, grids, duplicate avoidance,
//!   plane sweep);
//! * [`rtree`] — from-scratch aggregate R-tree (server indexes, SemiJoin);
//! * [`net`] — the simulated wireless link: MTU/TCP packet cost model,
//!   wire codec, metered transports, the scatter-gather shard router and
//!   the client-side statistics/window cache;
//! * [`server`] — the two remote spatial services;
//! * [`device`] — the PDA runtime: bounded buffer, HBSJ/NLSJ physical
//!   operators;
//! * [`core`] — the paper's contribution: the cost model and the MobiJoin,
//!   **UpJoin**, **SrJoin** and SemiJoin algorithms;
//! * [`workloads`] — Gaussian-cluster / uniform / synthetic-rail dataset
//!   generators.
//!
//! ## Fault tolerance
//!
//! Real fleets are lossy, so every physical edge can be wrapped in a
//! deterministic, seeded fault layer (`net::FaultLayer`) injecting
//! drops, garbled reply frames and crash-then-restart windows
//! from a replayable `net::FaultPlan` —
//! `Deployment` builders stack it with `with_faults`. Recovery rides on
//! `net::RetryPolicy` (`NetConfig::with_retry`): bounded immediate
//! attempts, split by idempotency class —
//! read-only queries retry freely, while `ApplyUpdates` batches retry
//! only under a sequence-numbered dedup envelope, so a duplicated
//! delivery can never double-bump a generation. A sharded scatter
//! retries failed shards *individually*; when one exhausts its budget
//! the client gets a typed `Unavailable` (never a panic, never a torn
//! result), the failing shard is recorded in the fleet snapshot, and
//! per-shard generation vectors never regress. Retries are **off by
//! default**, and off means off: with `RetryPolicy::default()` and a
//! no-op plan the whole machinery is byte-identical to an unwrapped
//! deployment — proven for all six algorithms in `tests/chaos.rs`,
//! which also races joins against a live writer over faulted fleets
//! across pinned seeds. At a fixed fault seed, whether a request is
//! answered is exactly monotone in the retry budget and in the replica
//! count: `tests/prop_end_to_end.rs` holds both laws per request on
//! generated scripts, deployments and drop rates
//! (`success_is_monotone_in_the_retry_budget`,
//! `success_is_monotone_in_the_replica_count`).
//!
//! ## Replication & failover
//!
//! `DeploymentBuilder::with_replicas(n)` replicates every shard server
//! `n`-fold behind the same scatter-gather router. Reads are spread
//! across a shard's replica set by request hash; a lost exchange fails
//! over to the next sibling *before* any retry budget is spent, and a
//! per-endpoint circuit breaker (`net::BreakerConfig`, set via
//! `NetConfig::with_breakers`) trips after K consecutive failures so
//! later scatters route around a dead sibling until a half-open probe —
//! scheduled by exchange count, never wall clock — reclaims it. Update
//! batches broadcast to **all** replicas under the dedup envelope (one
//! surviving ack carries the batch), a per-shard generation floor
//! rejects replies from a lagging replica (the read refetches from a
//! sibling), and a replica that stayed dark resynchronizes from its
//! freshest sibling at its crash-restart hook. For degraded reads,
//! `NetConfig::with_allow_partial` (off by default, and refused when
//! the client cache is on) lets a scatter complete when a whole replica
//! set is exhausted: the uncovered shards land in
//! `FleetSnapshot::failed_shards` and every `JoinReport` carries a
//! `coverage` fraction. `with_replicas(1)` is byte-identical to an
//! unreplicated deployment, and the fault matrix's replica axis asserts
//! in CI that success is exactly monotone in the replica count:
//!
//! ```
//! use adhoc_spatial_joins::prelude::*;
//! use asj_core::DeploymentBuilder;
//!
//! let space = Rect::from_coords(0.0, 0.0, 10_000.0, 10_000.0);
//! let hotels = gaussian_clusters(&SyntheticSpec::new(space, 200, 4), 7);
//! let restaurants = gaussian_clusters(&SyntheticSpec::new(space, 300, 8), 8);
//! let deployment = DeploymentBuilder::new(hotels, restaurants)
//!     .with_shards(4, 4)
//!     .with_replicas(2) // two servers per shard, sharing its one R-tree
//!     .live()
//!     .build();
//! let report = SrJoin::default()
//!     .run(&deployment, &JoinSpec::distance_join(500.0))
//!     .unwrap();
//! assert_eq!(report.coverage, 1.0); // every shard served
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use adhoc_spatial_joins::prelude::*;
//!
//! // Two "remote" datasets: hotels and restaurants.
//! let space = Rect::from_coords(0.0, 0.0, 10_000.0, 10_000.0);
//! let hotels = gaussian_clusters(&SyntheticSpec::new(space, 200, 4), 7);
//! let restaurants = gaussian_clusters(&SyntheticSpec::new(space, 300, 8), 8);
//!
//! // Stand up the two non-cooperative servers and a metered deployment.
//! let deployment = Deployment::in_process(hotels, restaurants, NetConfig::default());
//!
//! // "Hotels within 500 units of a restaurant", minimizing transfer bytes.
//! let spec = JoinSpec::distance_join(500.0);
//! let report = SrJoin::default().run(&deployment, &spec).unwrap();
//! println!(
//!     "pairs: {} | transferred: {} bytes",
//!     report.pairs.len(),
//!     report.total_bytes()
//! );
//! ```

pub use asj_core as core;
pub use asj_device as device;
pub use asj_geom as geom;
pub use asj_net as net;
pub use asj_rtree as rtree;
pub use asj_server as server;
pub use asj_workloads as workloads;

/// Convenience prelude used by the examples.
pub mod prelude {
    pub use asj_core::{
        CostModel, Deployment, DistributedJoin, GridJoin, JoinReport, JoinSpec, MobiJoin,
        NaiveJoin, SemiJoin, SrJoin, UpJoin,
    };
    pub use asj_geom::{JoinPredicate, Point, Rect, SpatialObject};
    pub use asj_net::NetConfig;
    pub use asj_workloads::{gaussian_clusters, germany_rail, uniform, SyntheticSpec};
}
