//! Synthetic point datasets: Gaussian clusters and uniform.

use asj_geom::{Point, Rect, SpatialObject};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::snap;

/// Parameters of a synthetic clustered dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticSpec {
    /// The data space; points are clamped into it.
    pub space: Rect,
    /// Total number of points (the paper uses 1000).
    pub n: usize,
    /// Number of Gaussian clusters, `k ∈ {1 … 128}` in the paper.
    pub clusters: usize,
    /// Cluster standard deviation as a fraction of the space width.
    /// Default 0.025 (250 units in the 10 000-unit space): tight enough
    /// that low-k datasets leave most of the space empty (pruning pays,
    /// and MobiJoin's coarse HBSJ windows overshoot — Fig. 2), while
    /// k = 128 blankets the space (the paper's "uniform dataset").
    pub sigma_fraction: f64,
}

impl SyntheticSpec {
    /// Spec with the default sigma.
    pub fn new(space: Rect, n: usize, clusters: usize) -> Self {
        SyntheticSpec {
            space,
            n,
            clusters,
            sigma_fraction: 0.025,
        }
    }

    /// Overrides the cluster spread.
    pub fn with_sigma_fraction(mut self, f: f64) -> Self {
        self.sigma_fraction = f;
        self
    }
}

/// Generates a clustered point dataset, deterministic in `seed`.
///
/// Cluster centers are uniform in the space; each point picks a cluster
/// uniformly and offsets from its center by a 2-D Gaussian (Box–Muller).
pub fn gaussian_clusters(spec: &SyntheticSpec, seed: u64) -> Vec<SpatialObject> {
    assert!(spec.clusters >= 1, "need at least one cluster");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let sigma = spec.space.width() * spec.sigma_fraction;

    let centers: Vec<Point> = (0..spec.clusters)
        .map(|_| {
            Point::new(
                rng.random_range(spec.space.min.x..spec.space.max.x),
                rng.random_range(spec.space.min.y..spec.space.max.y),
            )
        })
        .collect();

    (0..spec.n)
        .map(|i| {
            let c = centers[rng.random_range(0..centers.len())];
            // Truncate at 2.5 sigma: unbounded tails would sprinkle stray
            // points into every grid cell, making no window prunable and
            // erasing the skew the experiment is about.
            let (gx, gy) = loop {
                let (gx, gy) = box_muller(&mut rng);
                if gx * gx + gy * gy <= 2.5 * 2.5 {
                    break (gx, gy);
                }
            };
            let x = (c.x + gx * sigma).clamp(spec.space.min.x, spec.space.max.x);
            let y = (c.y + gy * sigma).clamp(spec.space.min.y, spec.space.max.y);
            SpatialObject::point(i as u32, snap(x), snap(y))
        })
        .collect()
}

/// Uniform point dataset over the space, deterministic in `seed`.
pub fn uniform(space: &Rect, n: usize, seed: u64) -> Vec<SpatialObject> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            SpatialObject::point(
                i as u32,
                snap(rng.random_range(space.min.x..space.max.x)),
                snap(rng.random_range(space.min.y..space.max.y)),
            )
        })
        .collect()
}

/// One pair of independent standard normals via Box–Muller (avoids a
/// `rand_distr` dependency).
fn box_muller<R: Rng>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_space;

    #[test]
    fn deterministic_in_seed() {
        let spec = SyntheticSpec::new(default_space(), 500, 4);
        assert_eq!(gaussian_clusters(&spec, 42), gaussian_clusters(&spec, 42));
        assert_ne!(gaussian_clusters(&spec, 42), gaussian_clusters(&spec, 43));
    }

    #[test]
    fn respects_cardinality_and_space() {
        let spec = SyntheticSpec::new(default_space(), 1000, 8);
        let pts = gaussian_clusters(&spec, 7);
        assert_eq!(pts.len(), 1000);
        for p in &pts {
            assert!(default_space().contains(&p.center()));
            assert_eq!(p.mbr.min, p.mbr.max);
        }
        // Ids are unique and dense.
        let mut ids: Vec<u32> = pts.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 1000);
    }

    #[test]
    fn coordinates_are_f32_snapped() {
        let spec = SyntheticSpec::new(default_space(), 200, 2);
        for p in gaussian_clusters(&spec, 1) {
            assert_eq!(p.center().x, snap(p.center().x));
            assert_eq!(p.center().y, snap(p.center().y));
        }
        for p in uniform(&default_space(), 200, 1) {
            assert_eq!(p.center().x, snap(p.center().x));
        }
    }

    #[test]
    fn skew_decreases_with_clusters() {
        // Measure skew as the fraction of a 16×16 grid left empty: k = 1
        // leaves most cells empty, k = 128 covers most of them.
        let occupancy = |k: usize| {
            let spec = SyntheticSpec::new(default_space(), 1000, k);
            let pts = gaussian_clusters(&spec, 11);
            let g = asj_geom::Grid::square(default_space(), 16);
            let mut occupied = vec![false; g.len()];
            for p in &pts {
                if let Some((i, j)) = g.cell_of(&p.center()) {
                    occupied[(j * 16 + i) as usize] = true;
                }
            }
            occupied.iter().filter(|&&o| o).count()
        };
        let k1 = occupancy(1);
        let k16 = occupancy(16);
        let k128 = occupancy(128);
        assert!(k1 < k16 && k16 < k128, "occupancy {k1} {k16} {k128}");
        assert!(k1 < 60, "k=1 should be clustered, got {k1}");
        assert!(k128 > 180, "k=128 should blanket the space, got {k128}");
    }

    #[test]
    fn uniform_fills_space_evenly() {
        let pts = uniform(&default_space(), 4000, 3);
        let g = asj_geom::Grid::square(default_space(), 4);
        let mut counts = [0usize; 16];
        for p in &pts {
            let (i, j) = g.cell_of(&p.center()).unwrap();
            counts[(j * 4 + i) as usize] += 1;
        }
        // Each of the 16 cells expects 250; allow generous slack.
        for (i, &c) in counts.iter().enumerate() {
            assert!((150..350).contains(&c), "cell {i} has {c} points");
        }
    }

    #[test]
    fn box_muller_moments() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let n = 20_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let (a, b) = box_muller(&mut rng);
            sum += a + b;
            sumsq += a * a + b * b;
        }
        let mean = sum / (2.0 * n as f64);
        let var = sumsq / (2.0 * n as f64) - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
