//! Synthetic substitute for the Germany railway-segments dataset.
//!
//! The paper's Figure 8 joins a "real dataset (with around 35 K objects)
//! representing the railway segments of Germany" against a 1000-point
//! synthetic dataset. The original file is not redistributable, so this
//! module builds the closest synthetic equivalent:
//!
//! 1. place `cities` hub points — a few metropolitan hubs plus
//!    uniformly scattered towns (population-like skew);
//! 2. connect every city to its `degree` nearest neighbours (a crude but
//!    effective proxy for a national rail graph: corridors + local spurs);
//! 3. subdivide each line into short segments with smooth lateral jitter
//!    (tracks curve), until ~`target_segments` **thin, elongated MBRs**
//!    exist.
//!
//! What Figure 8 actually exercises is *a large, strongly skewed dataset of
//! small line-segment MBRs with big empty regions between corridors* — all
//! properties this generator reproduces deterministically.

use asj_geom::{Point, Rect, SpatialObject};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::snap;

/// Parameters of the synthetic rail network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RailSpec {
    pub space: Rect,
    /// Total number of hub cities (default 64).
    pub cities: usize,
    /// Nearest-neighbour connections per city (default 3).
    pub degree: usize,
    /// Approximate number of output segments (default 35 000).
    pub target_segments: usize,
    /// Maximum lateral jitter of the track as a fraction of segment
    /// length (tracks are curvy but locally smooth).
    pub jitter: f64,
}

impl Default for RailSpec {
    fn default() -> Self {
        RailSpec {
            space: crate::default_space(),
            cities: 64,
            degree: 3,
            target_segments: 35_000,
            jitter: 0.4,
        }
    }
}

/// Generates the rail dataset (deterministic in `seed`).
pub fn germany_rail(spec: &RailSpec, seed: u64) -> Vec<SpatialObject> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5261_696c); // "Rail"
    let cities = place_cities(spec, &mut rng);
    let edges = connect_nearest(&cities, spec.degree);

    // Total network length decides the segment length that yields the
    // requested cardinality.
    let total_len: f64 = edges
        .iter()
        .map(|&(a, b)| cities[a].distance(&cities[b]))
        .sum();
    let seg_len = (total_len / spec.target_segments as f64).max(1e-6);

    let mut out = Vec::with_capacity(spec.target_segments + 1024);
    let mut id = 0u32;
    for &(a, b) in &edges {
        subdivide_edge(
            cities[a], cities[b], seg_len, spec, &mut rng, &mut id, &mut out,
        );
    }
    out
}

fn place_cities(spec: &RailSpec, rng: &mut ChaCha8Rng) -> Vec<Point> {
    let hubs = (spec.cities / 8).max(1);
    let mut cities = Vec::with_capacity(spec.cities);
    // Metropolitan hubs anywhere.
    let hub_points: Vec<Point> = (0..hubs)
        .map(|_| {
            Point::new(
                rng.random_range(spec.space.min.x..spec.space.max.x),
                rng.random_range(spec.space.min.y..spec.space.max.y),
            )
        })
        .collect();
    cities.extend(hub_points.iter().copied());
    // Towns cluster loosely around hubs (population skew) with a uniform
    // background.
    let sigma = spec.space.width() * 0.12;
    while cities.len() < spec.cities {
        if rng.random_range(0.0..1.0) < 0.7 {
            let h = hub_points[rng.random_range(0..hub_points.len())];
            let x =
                (h.x + rng.random_range(-sigma..sigma)).clamp(spec.space.min.x, spec.space.max.x);
            let y =
                (h.y + rng.random_range(-sigma..sigma)).clamp(spec.space.min.y, spec.space.max.y);
            cities.push(Point::new(x, y));
        } else {
            cities.push(Point::new(
                rng.random_range(spec.space.min.x..spec.space.max.x),
                rng.random_range(spec.space.min.y..spec.space.max.y),
            ));
        }
    }
    cities
}

/// Undirected nearest-neighbour edges, deduplicated.
fn connect_nearest(cities: &[Point], degree: usize) -> Vec<(usize, usize)> {
    let mut edges = std::collections::BTreeSet::new();
    for (i, c) in cities.iter().enumerate() {
        let mut dists: Vec<(f64, usize)> = cities
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(j, p)| (c.distance(p), j))
            .collect();
        dists.sort_by(|a, b| a.0.total_cmp(&b.0));
        for &(_, j) in dists.iter().take(degree) {
            edges.insert((i.min(j), i.max(j)));
        }
    }
    edges.into_iter().collect()
}

/// Walks the edge emitting jittered sub-segments of ~`seg_len`.
fn subdivide_edge(
    a: Point,
    b: Point,
    seg_len: f64,
    spec: &RailSpec,
    rng: &mut ChaCha8Rng,
    id: &mut u32,
    out: &mut Vec<SpatialObject>,
) {
    let len = a.distance(&b);
    if len == 0.0 {
        return;
    }
    let steps = (len / seg_len).ceil().max(1.0) as usize;
    let (dx, dy) = ((b.x - a.x) / steps as f64, (b.y - a.y) / steps as f64);
    // Perpendicular unit vector for lateral jitter.
    let norm = (dx * dx + dy * dy).sqrt();
    let (px, py) = (-dy / norm, dx / norm);
    let amp = seg_len * spec.jitter;

    // Smooth random-walk offset so consecutive segments connect.
    let mut offset = 0.0f64;
    let mut prev = a;
    for step in 1..=steps {
        offset = (offset + rng.random_range(-amp..amp)).clamp(-3.0 * amp, 3.0 * amp);
        let t = step as f64;
        let raw = Point::new(a.x + dx * t + px * offset, a.y + dy * t + py * offset);
        let next = Point::new(
            raw.x.clamp(spec.space.min.x, spec.space.max.x),
            raw.y.clamp(spec.space.min.y, spec.space.max.y),
        );
        let mbr = Rect::new(
            Point::new(snap(prev.x), snap(prev.y)),
            Point::new(snap(next.x), snap(next.y)),
        );
        out.push(SpatialObject::new(*id, mbr));
        *id += 1;
        prev = next;
    }
}

/// Parameters of a [`TrajectoryStream`]: how far objects drift per tick
/// and how many of them move at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectorySpec {
    /// The space objects are confined to; drifting objects clamp at its
    /// edges (trains do not leave the map).
    pub space: Rect,
    /// Maximum per-axis displacement per tick.
    pub step: f64,
    /// Fraction of the fleet that moves each tick (the rest idles).
    pub move_fraction: f64,
}

impl Default for TrajectorySpec {
    fn default() -> Self {
        let space = crate::default_space();
        TrajectorySpec {
            space,
            step: space.width() * 0.01,
            move_fraction: 0.2,
        }
    }
}

/// A pinned-seed stream of stepwise movement over a fleet of objects —
/// the update workload of the live-update experiments.
///
/// Each [`tick`](TrajectoryStream::tick) picks a deterministic random
/// subset of the fleet, drifts every picked object's MBR by an
/// independent random-walk step (extent preserved, clamped to the space,
/// coordinates f32-snapped like all generators in this crate), and
/// returns the objects that moved *at their new position*. Callers map
/// them onto wire updates (`Update::Move { id, to: o.mbr }`); keeping
/// the stream free of any protocol dependency lets oracles replay the
/// same batches against offline stores.
///
/// Deterministic in `(initial objects, spec, seed)`: two streams built
/// alike produce identical tick sequences forever.
pub struct TrajectoryStream {
    spec: TrajectorySpec,
    rng: ChaCha8Rng,
    fleet: Vec<SpatialObject>,
}

impl TrajectoryStream {
    pub fn new(objects: &[SpatialObject], spec: TrajectorySpec, seed: u64) -> Self {
        TrajectoryStream {
            spec,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x5452_414a), // "TRAJ"
            fleet: objects.to_vec(),
        }
    }

    /// The fleet at its current (post-tick) positions.
    pub fn objects(&self) -> &[SpatialObject] {
        &self.fleet
    }

    /// Advances every object one step; returns the movers.
    pub fn tick(&mut self) -> Vec<SpatialObject> {
        let space = self.spec.space;
        let step = self.spec.step;
        let mut moved = Vec::new();
        for o in &mut self.fleet {
            if self.rng.random_range(0.0..1.0) >= self.spec.move_fraction {
                continue;
            }
            let (dx, dy) = (
                self.rng.random_range(-step..=step),
                self.rng.random_range(-step..=step),
            );
            // Translate the MBR, keeping its extent, then clamp the whole
            // box back into the space before snapping.
            let (w, h) = (o.mbr.width(), o.mbr.height());
            let min_x = (o.mbr.min.x + dx).clamp(space.min.x, space.max.x - w);
            let min_y = (o.mbr.min.y + dy).clamp(space.min.y, space.max.y - h);
            o.mbr = Rect::new(
                Point::new(snap(min_x), snap(min_y)),
                Point::new(snap(min_x + w), snap(min_y + h)),
            );
            moved.push(*o);
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_near_target_cardinality() {
        let spec = RailSpec {
            target_segments: 5_000,
            ..RailSpec::default()
        };
        let a = germany_rail(&spec, 1);
        let b = germany_rail(&spec, 1);
        assert_eq!(a, b);
        // Ceil-per-edge overshoots a little; stay within 15 %.
        assert!(
            (a.len() as f64) > 5_000.0 * 0.85 && (a.len() as f64) < 5_000.0 * 1.15,
            "got {} segments",
            a.len()
        );
    }

    #[test]
    fn default_spec_is_35k_scale() {
        let rail = germany_rail(&RailSpec::default(), 2);
        assert!(
            (30_000..42_000).contains(&rail.len()),
            "got {} segments",
            rail.len()
        );
    }

    #[test]
    fn segments_are_small_and_in_space() {
        let spec = RailSpec {
            target_segments: 3_000,
            ..RailSpec::default()
        };
        let rail = germany_rail(&spec, 3);
        let space = spec.space;
        let diag = (space.width().powi(2) + space.height().powi(2)).sqrt();
        for s in &rail {
            assert!(space.contains_rect(&s.mbr), "segment escapes space");
            let d = (s.mbr.width().powi(2) + s.mbr.height().powi(2)).sqrt();
            assert!(d < diag * 0.05, "segment too long: {d}");
        }
    }

    #[test]
    fn dataset_is_skewed_corridors() {
        // A rail map leaves large parts of the space empty.
        let rail = germany_rail(&RailSpec::default(), 4);
        let g = asj_geom::Grid::square(crate::default_space(), 32);
        let mut occupied = vec![false; g.len()];
        for s in &rail {
            if let Some((i, j)) = g.cell_of(&s.mbr.center()) {
                occupied[(j * 32 + i) as usize] = true;
            }
        }
        let frac = occupied.iter().filter(|&&o| o).count() as f64 / g.len() as f64;
        assert!(
            frac > 0.15 && frac < 0.85,
            "corridor structure expected, occupancy {frac}"
        );
    }

    #[test]
    fn coordinates_are_f32_snapped() {
        let spec = RailSpec {
            target_segments: 500,
            ..RailSpec::default()
        };
        for s in germany_rail(&spec, 5) {
            assert_eq!(s.mbr.min.x, snap(s.mbr.min.x));
            assert_eq!(s.mbr.max.y, snap(s.mbr.max.y));
        }
    }

    #[test]
    fn trajectory_ticks_are_deterministic() {
        let spec = RailSpec {
            target_segments: 400,
            ..RailSpec::default()
        };
        let rail = germany_rail(&spec, 7);
        let tspec = TrajectorySpec::default();
        let mut a = TrajectoryStream::new(&rail, tspec, 11);
        let mut b = TrajectoryStream::new(&rail, tspec, 11);
        for _ in 0..5 {
            assert_eq!(a.tick(), b.tick());
        }
        assert_eq!(a.objects(), b.objects());
        // A different seed diverges.
        let mut c = TrajectoryStream::new(&rail, tspec, 12);
        assert_ne!(a.tick(), c.tick());
    }

    #[test]
    fn trajectory_moves_a_fraction_and_stays_in_space() {
        let spec = RailSpec {
            target_segments: 2_000,
            ..RailSpec::default()
        };
        let rail = germany_rail(&spec, 8);
        let tspec = TrajectorySpec::default();
        let mut s = TrajectoryStream::new(&rail, tspec, 13);
        for _ in 0..3 {
            let moved = s.tick();
            let frac = moved.len() as f64 / rail.len() as f64;
            assert!((0.1..0.3).contains(&frac), "move fraction {frac}");
            for o in &moved {
                assert!(tspec.space.contains_rect(&o.mbr), "object left the space");
                assert_eq!(o.mbr.min.x, snap(o.mbr.min.x), "coordinates must snap");
            }
        }
        // The stream's fleet reflects the accumulated drift: movers in
        // its `objects()` view sit exactly where the last tick put them.
        let moved = s.tick();
        for o in &moved {
            let cur = s.objects().iter().find(|f| f.id == o.id).unwrap();
            assert_eq!(cur.mbr, o.mbr);
        }
    }

    #[test]
    fn ids_unique() {
        let spec = RailSpec {
            target_segments: 2_000,
            ..RailSpec::default()
        };
        let rail = germany_rail(&spec, 6);
        let mut ids: Vec<u32> = rail.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), rail.len());
    }
}
