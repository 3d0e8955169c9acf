//! # asj-core — ad-hoc distributed spatial joins (the paper's contribution)
//!
//! Implements Sections 3–4 of *Ad-hoc Distributed Spatial Joins on Mobile
//! Devices* (IPDPS 2006): the transfer-cost model and the client-side join
//! algorithms that drive two non-cooperative spatial servers from a
//! memory-constrained device while minimizing transferred bytes.
//!
//! ## Algorithms
//!
//! | Type | Paper | Strategy |
//! |------|-------|----------|
//! | [`NaiveJoin`] | §3 strawman | download both datasets, join on device |
//! | [`GridJoin`] | §3 strawman | fixed grid, COUNT-prune, per-cell HBSJ |
//! | [`MobiJoin`] | §3.2, \[9\] | recursive 2×2, cost-based operator choice under a uniformity heuristic |
//! | [`UpJoin`] | §4.1, Fig. 3 | per-dataset uniformity tests decide *when statistics stop paying* |
//! | [`SrJoin`] | §4.2, Fig. 5 | density-bitmap similarity of the two datasets decides repartitioning |
//! | [`SemiJoin`] | §5.3, \[16\] | R-tree level MBR semi-join via cooperative servers (baseline) |
//!
//! All algorithms speak only `WINDOW`/`COUNT`/`ε-RANGE` (+ bucket) through
//! metered links; every byte they report comes from the wire meters, not
//! from the cost model. The cost model ([`CostModel`]) is used for
//! *decisions* — exactly the separation the real prototype had.
//!
//! ## One recursion
//!
//! MobiJoin, UpJoin and SrJoin are three decision rules over one
//! recursion. Each is a [`Policy`]: shown a window and its counts, it
//! returns a [`Decision`] — HBSJ, NLSJ, a forced operator at the
//! recursion floor, or a 2×2 split carrying each quadrant's counts and a
//! note of the policy's own (UpJoin's uniformity labels, SrJoin's bitmap
//! verdict). Every `Policy` is a [`DistributedJoin`]. The driver in
//! [`exec`] prunes empty windows, and its one `apply` function is where
//! a `Decision` takes effect and [`ExecStats`] is counted; HBSJ's own
//! decomposition of a window too big for the buffer (GridJoin's cells
//! included) is a split applied there too.
//!
//! ## Statistics rounds
//!
//! The quadrant COUNTs of a repartitioning round are independent, so
//! each server's four travel together, one pipelined batch of plain
//! COUNTs, and neither side's batch depends on the other's answer
//! (one round trip; see [`exec`]); the cost model's split-cost helpers
//! ([`CostModel::stats_round`], [`CostModel::split_stats_cost`]) price
//! them as the paper's `2k²·Taq`, which is what the meters measure.
//!
//! ## Sharded server fleets (opt-in)
//!
//! [`DeploymentBuilder::with_shards`] partitions each side across a fleet
//! of shard servers (space-split assignment, boundary straddlers covered
//! by advertised bounds) reached through a client-side scatter-gather
//! router that presents the same `Link` the single-server deployment
//! uses — `ExecCtx` and every algorithm work unchanged. The
//! router prunes shards whose bounds miss the query window, sub-batches
//! bucket probes, merges and deduplicates answers, and
//! meters per shard and in aggregate; [`CostModel::with_fanout`] teaches
//! operator decisions the per-round fan-out factor the meters will
//! measure. A fleet of one is byte-identical on the wire to a flat
//! deployment, and the `tests/sharded.rs` differential suite proves every
//! algorithm returns identical pairs at any shard count.
//!
//! ## Join semantics
//!
//! MBR intersection joins, ε-distance joins, and the iceberg distance
//! semi-join (objects of R with ≥ m partners in S) — see [`JoinSpec`].
//! Output pairs are exactly-once via reference-point duplicate avoidance;
//! integration tests verify every algorithm against a brute-force oracle.

pub mod cost;
pub mod deploy;
pub mod exec;
pub mod gridjoin;
pub mod mobijoin;
pub mod naive;
pub mod report;
pub mod semijoin;
pub mod spec;
pub mod srjoin;
pub mod upjoin;

pub use cost::CostModel;
pub use deploy::{Deployment, DeploymentBuilder};
pub use exec::{Decision, ExecCtx, ExecStats, Policy, Side, Window};
pub use gridjoin::GridJoin;
pub use mobijoin::MobiJoin;
pub use naive::NaiveJoin;
pub use report::{JoinError, JoinReport};
pub use semijoin::SemiJoin;
pub use spec::{JoinSpec, OutputKind};
pub use srjoin::SrJoin;
pub use upjoin::UpJoin;

/// A distributed spatial join algorithm runnable against a deployment.
pub trait DistributedJoin {
    /// Short identifier used in reports and experiment tables.
    fn name(&self) -> &'static str;

    /// Executes the join, returning the result pairs and the full byte
    /// accounting.
    fn run(&self, deployment: &Deployment, spec: &JoinSpec) -> Result<JoinReport, JoinError>;
}
