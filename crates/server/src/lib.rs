//! # asj-server — the two remote spatial services
//!
//! Each dataset of the join lives on its own server. Servers are
//! **primitive and non-cooperative** (paper, Section 1): they answer only
//! `WINDOW`, `COUNT` and `ε-RANGE` (plus the bucket form) through a
//! standard interface, publish no index internals, and refuse anything
//! else.
//!
//! * [`store`] — storage backends: a linear [`store::ScanStore`] (ground
//!   truth for tests) and the production [`store::RTreeStore`] (aR-tree:
//!   `COUNT` is answered from aggregate node counts, as footnote 2 of the
//!   paper prescribes);
//! * [`service`] — [`SpatialService`], the [`asj_net::QueryHandler`] that
//!   dispatches protocol requests onto a store, a bucket query one probe
//!   at a time on the calling thread;
//! * [`versioned`] — generational snapshots: [`versioned::VersionedStore`]
//!   wraps any frozen backend, applies batched updates copy-on-write into
//!   a fresh generation — path-copied into the served aR-tree, rebuilt for
//!   the other backends — and atomically publishes it (`RwLock` + `Arc`
//!   swap — readers always see one consistent frozen snapshot, never
//!   in-place mutation);
//! * [`partition`] — the spatial partitioner behind **sharded fleets**:
//!   splits the space into `n` cells (recursive longest-axis cuts, any
//!   `n`), assigns each object wholly to the cell holding its MBR center,
//!   and advertises per-shard bounds that cover boundary straddlers so the
//!   client-side `asj_net::ShardRouter` can prune without losing answers;
//! * cooperative extension — `CoopLevelMbrs` / `CoopFilterByMbrs` /
//!   `CoopJoinPush` are enabled only when the service is built with
//!   [`ServicePolicy::Cooperative`]; the default non-cooperative policy
//!   answers them with `Refused`, exactly how the paper argues real
//!   services behave (SemiJoin "cannot be applied in our problem").

pub mod partition;
pub mod service;
pub mod store;
pub mod versioned;

pub use partition::{partition_objects, split_space, Partition};
pub use service::{ServicePolicy, SpatialService};
pub use store::{DeltaOp, RTreeStore, ScanStore, SpatialStore};
pub use versioned::{apply_updates_to, VersionedStore};
