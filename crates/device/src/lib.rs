//! # asj-device — the PDA runtime
//!
//! Models the resource-constrained side of the system: the paper's HP iPAQ
//! with a small join buffer (measured in objects, e.g. 100 or 800 points in
//! Section 5). Four pieces:
//!
//! * [`DeviceBuffer`] — the bounded object buffer. `HBSJ` is infeasible for
//!   a window when `|Rw| + |Sw|` exceeds the capacity (`c1 = ∞` in the cost
//!   model); the buffer enforces that and tracks peak usage so tests can
//!   assert the constraint was never violated.
//! * [`ResultCollector`] — accumulates qualifying pairs, verifies the
//!   exactly-once discipline (duplicate avoidance) in debug builds, and
//!   counts matches per object on demand for the **iceberg distance
//!   semi-join** ("objects of R joining at least m objects of S").
//! * [`memjoin`] — the in-memory join kernel behind the paper's Hash-Based
//!   Spatial Join ([`memjoin::grid_hash_join`]): a one-sided ε-grid. Each R
//!   object is hashed to the one cell of its MBR centre, each S object to
//!   the cells a partner's centre can lie in, so a pair is examined in
//!   exactly one cell and only the caller's reference-point filter runs —
//!   not even that for an R object deep enough inside the window to own
//!   every pair it qualifies in.
//! * [`traffic`] — the **many-device traffic harness**: thousands of
//!   deterministic scripted devices driven by a small worker pool over a
//!   shared carrier, with per-device outcome digests (responses, pairs,
//!   meters) proven identical to a serial replay, plus the latency
//!   percentiles and fairness gauges the scaling benchmarks report.

pub mod buffer;
pub mod collect;
pub mod memjoin;
pub mod traffic;

pub use buffer::{BufferExceeded, DeviceBuffer};
pub use collect::{IcebergResult, ResultCollector};
pub use traffic::{run_traffic, DeviceOutcome, TrafficConfig, TrafficReport};
