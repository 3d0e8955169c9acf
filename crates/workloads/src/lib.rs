//! # asj-workloads — dataset generators
//!
//! Reproduces the paper's experimental inputs (Section 5):
//!
//! * [`gaussian_clusters`] — "synthetic datasets consisting of 1000 points
//!   … clustered around k randomly selected centers, and for each cluster
//!   the distribution of objects was Gaussian. In order to achieve
//!   different skew levels, we varied k from 1 to 128."
//! * [`uniform`] — the uniform limit (and a sanity baseline).
//! * [`germany_rail`] — a synthetic substitute for the "real dataset (with
//!   around 35 K objects) representing the railway segments of Germany":
//!   a deterministic rail network of hub cities joined by jittered
//!   polylines, subdivided into ~35 000 short segment MBRs. The [`rail`]
//!   module docs say why the substitution preserves the experiment's
//!   behaviour.
//!
//! **Invariant**: every generated coordinate is snapped through `f32`
//! ([`snap`]), so the 20-byte wire encoding of `asj-net` round-trips
//! losslessly and brute-force ground truth computed on the generator
//! output matches what the device computes on downloaded objects.

pub mod rail;
pub mod synthetic;

pub use rail::{germany_rail, RailSpec, TrajectorySpec, TrajectoryStream};
pub use synthetic::{gaussian_clusters, uniform, SyntheticSpec};

/// Snaps a coordinate to the nearest `f32`-representable value.
#[inline]
pub fn snap(x: f64) -> f64 {
    x as f32 as f64
}

/// The experiment space used throughout the reproduction:
/// `10 000 × 10 000` units (think meters over a metropolitan map).
pub fn default_space() -> asj_geom::Rect {
    asj_geom::Rect::from_coords(0.0, 0.0, 10_000.0, 10_000.0)
}
