//! # asj-geom — geometry kernel
//!
//! Substrate for the IPDPS 2006 *Ad-hoc Distributed Spatial Joins on Mobile
//! Devices* reproduction. Provides the 2-D primitives every other crate
//! builds on:
//!
//! * [`Point`] and [`Rect`] (axis-aligned rectangles / MBRs) with the
//!   intersection, containment and minimum-distance predicates spatial join
//!   processing needs;
//! * [`SpatialObject`] — an identified MBR, the unit of transfer between the
//!   servers and the device (points are degenerate MBRs);
//! * [`Grid`] — the regular `k × k` decomposition used by the partitioning
//!   algorithms, including the 2×2 quadrant split and ε/2 window extension
//!   of the paper;
//! * [`JoinPredicate`] — MBR intersection or ε-distance;
//! * duplicate avoidance via *reference points* ([`dedup`]), so that a pair
//!   found in overlapping extended windows is reported exactly once;
//! * an in-memory [`sweep`] (plane-sweep) join: a reference kernel for the
//!   test suites and the benchmark, called by no library path.
//!
//! Everything here is pure computational geometry: no I/O, no randomness.

pub mod dedup;
pub mod grid;
pub mod object;
pub mod point;
pub mod predicate;
pub mod rect;
pub mod sweep;

pub use dedup::{pair_reference_point, reference_point_in};
pub use grid::Grid;
pub use object::{IdMix, ObjectId, SpatialObject};
pub use point::Point;
pub use predicate::JoinPredicate;
pub use rect::Rect;
pub use sweep::{plane_sweep_join, plane_sweep_join_parallel, plane_sweep_pairs};
