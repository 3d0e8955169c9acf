//! The device's in-memory join kernel: a one-sided ε-grid.
//!
//! HBSJ — the paper's `c1` operator — ends every window in a join of two
//! downloaded object lists. PBSM \[13\] hashes *both* lists into a grid with
//! replication, finds a qualifying pair in every cell its copies share and
//! throws all but one finding away. This kernel replicates one side only:
//! every R object has exactly **one home cell**, that of its MBR centre, and
//! every S object is entered into each cell a partner's centre can lie in —
//! its MBR grown per axis by `reach = ε + the largest R half-extent` (the
//! MBRs of a qualifying pair are at most ε apart on each axis, and a centre
//! is a half-extent inside its MBR's edge). A pair is thus examined exactly
//! once, in R's home cell: the grid needs no ownership test of its own and
//! does no duplicate work. Cells are at least `reach` wide (an S point
//! lands in about 3 × 3) and otherwise sized for about one object each; S is
//! held as counting-sorted `u32` index ranges over the borrowed input and R
//! is walked in input order — no object is copied, nothing is sorted or
//! allocated per cell.
//!
//! The one filter every emitted pair passes is the caller's: the *global*
//! reference-point test \[3\] against `(report_cell, space)`, so
//! exactly-once reporting across windows holds unchanged.
//!
//! **Ownership is settled per R object where it can be.** The reference
//! point of a distance pair is the midpoint of the two centres. On each
//! axis the centres of a qualifying pair are at most `|ε| + ha + hb` apart,
//! `ha` and `hb` their half-extents: `cb − ca = (b.min − a.max) + ha + hb`
//! exactly, and `b.min − a.max` is at most the gap the predicate bounds by
//! `|ε|` (the same holds mirrored, and for an inverted box, whose negative
//! half-extent only helps). So the midpoint lies within the **margin**
//! `m = ½(|ε| + max R half-extent + max S half-extent)` of `ca` per axis,
//! and an R object whose centre is at least `m` inside every edge of the
//! report cell owns every pair it qualifies in, whichever edges are closed.
//! The kernel widens `m` by `1e-12 · (|cell edge| + 3m) + 1e-150`. Fewer
//! than twenty roundings lie between the inputs and the verdict (the
//! centres, the midpoint, the gap and the squares of the ε test, the
//! margin and the shrunk cell), each off by at most 2⁻⁵³ of a magnitude
//! below `|cell edge| + 3m`: together under 3·10⁻¹⁵ of it. The ε test's
//! squares add an absolute error only by underflowing, for gaps below
//! 2⁻⁵⁰⁸ (about 3·10⁻¹⁵³). So the widening dominates every rounding by
//! orders of magnitude. The margin is taken per leaf, from the
//! half-extents `Axis::over` already folds over R and `bucket`'s block
//! pass folds over S, and only when it is provable: the predicate is a
//! distance, `ε²` is finite (no NaN, no ε whose square saturates the test),
//! and every centre and half-extent of both inputs is finite — a NaN
//! centre makes the largest half-extent infinite, where `f64::max` would
//! drop it. The cell shrunk by the margin is built field by field, so an
//! empty one simply contains no centre.
//!
//! **The inner loops have no data-dependent branch.** About one candidate
//! in three qualifies, which is the worst case for a predictor, so a pass
//! over R's home-cell run *compacts* instead of branching
//! (`hits[n] = pair; n += usize::from(test)`). An **interior** R object — a
//! centre inside the shrunk cell — takes its run in one pass that writes
//! `(a.id, b.id)` straight into the slice the collector gets. A
//! **boundary** R object takes two: [`Rect::within_distance`] over the
//! whole run, then the ownership of the pair's reference point over the
//! survivors only. Hoisted out of both: the R object's MBR and centre, and
//! the window's edges with their two closed-far-edge flags — the ownership
//! test is [`asj_geom::grid::owns_reference_point`] term for term, with `&`
//! / `|` on `bool`s where that one short-circuits and returns early (a NaN
//! keeps its verdict: `!(p < min)` admits it, `p < max` and `p <= max` both
//! refuse it). The midpoint stays `(ca + cb) * 0.5` with
//! `c = (min + max) * 0.5`, as `Rect::center` and `Point::midpoint` compute
//! it, and is never rearranged into comparing `cb` with `2·edge − ca`: the
//! windows either side of a seam judge the same pair from the same bits,
//! and exactly one of them must claim it. An intersection join judges every
//! R object in one pass with the scalar [`reference_point_in`]. S is
//! indexed in place (`s[j]`): a cell-ordered copy of it, replicated about
//! nine times, measured no faster and added 11 % to the device's peak
//! memory on a 6000 × 6000 leaf.
//!
//! **Point form.** When every object of both inputs is a finite point
//! (`max − min` is `0` exactly on both axes, which no NaN or infinity
//! passes), the ε test is `dx * dx + dy * dy <= ε * ε` on the coordinates'
//! differences. On a degenerate rectangle `within_distance`'s
//! `max(a − b, 0, b − a)` is exactly `|a − b|`, whose square is the square
//! of `a − b`, so every verdict is the same bit for bit. The check costs
//! nothing extra: it rides on the same two folds as the margin. On
//! `dense_device`, whose leaves are all points and where about half the R
//! objects of a leaf are interior, the two took `op_ms` from 2.51 to 1.95
//! (seed 7, 10 alternating pairs on 2 CPUs).
//!
//! Coordinates arrive off the wire unvalidated. Cell indices are clamped in
//! the `f64` domain before any cast (a NaN casts to cell 0), and an R centre
//! that is not finite makes `reach` infinite — one cell, a nested loop. An
//! object with a NaN coordinate can still pass the ε test — `f64::max`
//! drops a NaN gap, so an S box with a NaN `min.x` and a finite `max.x`
//! qualifies by its `max.x` alone — but its centre is NaN, so is the
//! midpoint, and every ownership test refuses it. Its NaN centre also
//! switches the margin off for its leaf, so no R object skips that test:
//! it is never reported. Hostile input costs time, never a panic or a
//! lost pair.

use asj_geom::{reference_point_in, JoinPredicate, ObjectId, Point, Rect, SpatialObject};

use crate::collect::ResultCollector;

/// Input size (|R| + |S|) below which the kernel stays on the calling
/// thread whatever its worker count: thread spawn overhead exceeds the win
/// on small windows.
pub const PARALLEL_JOIN_THRESHOLD: usize = 4096;

/// Most cells per axis, whatever the input size.
const MAX_CELLS_PER_AXIS: f64 = 256.0;

/// Widening, in cells, of an S object's cell range: it absorbs the rounding
/// between a coordinate and its cell index, so a pair at distance exactly ε
/// is never lost to a cell boundary.
const RANGE_SLACK: f64 = 1e-3;

/// Relative and absolute widening of the interior margin: they dominate
/// the rounding of the centres, the midpoint and the ε test (module docs).
const MARGIN_SLACK: (f64, f64) = (1e-12, 1e-150);

type Pairs = [(ObjectId, ObjectId)];

/// What one pass over a side learns of one axis: its largest half-extent
/// (infinite once a centre is not finite) and whether every extent is one
/// finite coordinate.
#[derive(Clone, Copy)]
struct Spread {
    half: f64,
    points: bool,
}

impl Spread {
    const NONE: Spread = Spread {
        half: 0.0,
        points: true,
    };

    /// Folds in the extent `min..=max`; returns its centre.
    fn add(&mut self, min: f64, max: f64) -> f64 {
        let (centre, width) = ((min + max) * 0.5, max - min);
        self.points &= width == 0.0;
        self.half = if centre.is_finite() {
            self.half.max(width * 0.5)
        } else {
            f64::INFINITY // no home cell and no margin is right
        };
        centre
    }
}

/// One axis of the grid: cells `0..=last`, `1 / scale` wide, from `origin`.
struct Axis {
    origin: f64,
    scale: f64,
    last: f64,
    reach: f64,
    spread: Spread,
}

impl Axis {
    /// Grids the finite centres of R's `(min, max)` extents on one axis:
    /// about `want` cells, none narrower than `reach`.
    fn over(extents: impl Iterator<Item = (f64, f64)>, eps: f64, want: f64) -> Axis {
        let (mut lo, mut hi, mut spread) = (f64::INFINITY, f64::NEG_INFINITY, Spread::NONE);
        for (min, max) in extents {
            let centre = spread.add(min, max);
            if centre.is_finite() {
                lo = lo.min(centre);
                hi = hi.max(centre);
            }
        }
        let (reach, span) = (eps + spread.half, hi - lo);
        let side = reach.max(span / want);
        let (cells, scale) = if side > 0.0 && side.is_finite() {
            let cells = (span / side).ceil().clamp(1.0, MAX_CELLS_PER_AXIS);
            (cells, (1.0 / side).min(cells / span))
        } else {
            (1.0, 0.0) // nothing to grid on: every S object is a candidate
        };
        let last = cells - 1.0;
        Axis {
            origin: lo,
            scale,
            last,
            reach,
            spread,
        }
    }

    /// The cell of an R centre at `v`, clamped into the grid.
    fn home(&self, v: f64) -> usize {
        ((v - self.origin) * self.scale).clamp(0.0, self.last) as usize
    }

    /// The cells `lo..hi` whose R centres can be partners of an S object
    /// spanning `min..=max`: empty when it lies clear of the grid, or when
    /// `min` exceeds `max` by more than the reach.
    fn covering(&self, min: f64, max: f64) -> (u32, u32) {
        let lo = (min - self.reach - self.origin) * self.scale - RANGE_SLACK;
        let hi = (max + self.reach - self.origin) * self.scale + RANGE_SLACK;
        if hi < 0.0 || lo >= self.last + 1.0 {
            return (0, 0);
        }
        let lo = lo.clamp(0.0, self.last) as u32;
        (lo, lo.max(hi.clamp(0.0, self.last) as u32 + 1))
    }
}

/// S bucketed into R's grid.
struct Grid<'a> {
    s: &'a [SpatialObject],
    ax: Axis,
    ay: Axis,
    /// Cell `c` (row `c / nx`) holds `partners[starts[c]..starts[c + 1]]`.
    starts: Vec<usize>,
    partners: Vec<u32>,
    longest: usize,
}

impl Grid<'_> {
    /// The candidates of an R object centred at `c`: its home cell's run.
    fn run(&self, c: Point) -> &[u32] {
        let home = self.ay.home(c.y) * (self.ax.last as usize + 1) + self.ax.home(c.x);
        &self.partners[self.starts[home]..self.starts[home + 1]]
    }

    /// Joins `r` into `emit`, one slice per R object: R's input order,
    /// then S's within the home cell. `near` is the pair test; an R centre
    /// `settled` approves keeps every pair `near` keeps, any other only
    /// those whose reference point `window` owns.
    fn join(
        &self,
        r: &[SpatialObject],
        near: impl Fn(&SpatialObject, &SpatialObject) -> bool,
        settled: impl Fn(Point) -> bool,
        window: &Window,
        emit: &mut dyn FnMut(&Pairs),
    ) {
        let mut hits = vec![(0, 0); self.longest];
        for a in r {
            let ac = a.center(); // the `(min + max) * 0.5` the axes gridded
            let run = self.run(ac);
            let mut n = 0;
            if settled(ac) {
                for &j in run {
                    let b = &self.s[j as usize];
                    hits[n] = (a.id, b.id);
                    n += usize::from(near(a, b));
                }
            } else {
                for &j in run {
                    hits[n] = (a.id, j);
                    n += usize::from(near(a, &self.s[j as usize]));
                }
                let mut owned = 0;
                for i in 0..n {
                    let b = &self.s[hits[i].1 as usize];
                    hits[owned] = (a.id, b.id);
                    owned += usize::from(window.owns(ac.midpoint(&b.center())));
                }
                n = owned;
            }
            emit(&hits[..n]);
        }
    }
}

/// Counting sort of S into the grid of `(ax, ay)`, in input order. An
/// object's block of cells is computed once, for both passes of the sort,
/// in the pass that also folds S's extents.
fn bucket<'a>(s: &'a [SpatialObject], ax: Axis, ay: Axis) -> (Grid<'a>, [Spread; 2]) {
    let nx = ax.last as usize + 1;
    let cells = nx * (ay.last as usize + 1);
    let mut spread = [Spread::NONE; 2];
    let blocks: Vec<[u32; 4]> = s
        .iter()
        .map(|o| {
            spread[0].add(o.mbr.min.x, o.mbr.max.x);
            spread[1].add(o.mbr.min.y, o.mbr.max.y);
            let (x0, x1) = ax.covering(o.mbr.min.x, o.mbr.max.x);
            let (y0, y1) = ay.covering(o.mbr.min.y, o.mbr.max.y);
            [x0, x1, y0, y1]
        })
        .collect();
    let mut starts = vec![0usize; cells + 1];
    for block in &blocks {
        let [x0, x1, y0, y1] = block.map(|v| v as usize);
        for y in y0..y1 {
            starts[y * nx + x0 + 1..=y * nx + x1]
                .iter_mut()
                .for_each(|n| *n += 1);
        }
    }
    for c in 0..cells {
        starts[c + 1] += starts[c];
    }
    let (mut next, mut partners) = (starts.clone(), vec![0u32; starts[cells]]);
    for (j, block) in blocks.iter().enumerate() {
        let [x0, x1, y0, y1] = block.map(|v| v as usize);
        for y in y0..y1 {
            for c in y * nx + x0..y * nx + x1 {
                partners[next[c]] = j as u32;
                next[c] += 1;
            }
        }
    }
    let longest = starts.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
    let grid = Grid {
        s,
        ax,
        ay,
        starts,
        partners,
        longest,
    };
    (grid, spread)
}

/// The report cell as the kernel tests it: `owns` is
/// `owns_reference_point(cell, space, p)` with its edge flags hoisted, and
/// `inner` the cell shrunk by the interior margin (NaN, containing
/// nothing, where no margin is provable).
#[derive(Clone, Copy)]
struct Window {
    cell: Rect,
    closed_x: bool,
    closed_y: bool,
    inner: Rect,
}

impl Window {
    fn new(cell: &Rect, space: &Rect, eps: Option<f64>, r: [Spread; 2], s: [Spread; 2]) -> Window {
        let nowhere = Rect::point(Point::new(f64::NAN, f64::NAN));
        let inner = match eps {
            Some(eps) if (eps * eps).is_finite() => {
                let pad = |r: Spread, s: Spread, lo: f64, hi: f64| {
                    let m = 0.5 * (eps + r.half + s.half);
                    let (rel, abs) = MARGIN_SLACK;
                    m + rel * (lo.abs().max(hi.abs()) + 3.0 * m) + abs
                };
                let px = pad(r[0], s[0], cell.min.x, cell.max.x);
                let py = pad(r[1], s[1], cell.min.y, cell.max.y);
                if px.is_finite() & py.is_finite() {
                    Rect {
                        min: Point::new(cell.min.x + px, cell.min.y + py),
                        max: Point::new(cell.max.x - px, cell.max.y - py),
                    }
                } else {
                    nowhere
                }
            }
            _ => nowhere,
        };
        Window {
            cell: *cell,
            closed_x: cell.max.x >= space.max.x,
            closed_y: cell.max.y >= space.max.y,
            inner,
        }
    }

    fn owns(&self, p: Point) -> bool {
        let c = &self.cell;
        let below = (p.x < c.min.x) | (p.y < c.min.y);
        let x_ok = (p.x < c.max.x) | (self.closed_x & (p.x <= c.max.x));
        let y_ok = (p.y < c.max.y) | (self.closed_y & (p.y <= c.max.y));
        !below & x_ok & y_ok
    }

    /// `true` when the cell owns every pair an R object centred at `c`
    /// qualifies in.
    fn settles(&self, c: Point) -> bool {
        let i = &self.inner;
        (c.x >= i.min.x) & (c.x < i.max.x) & (c.y >= i.min.y) & (c.y < i.max.y)
    }
}

/// [`grid_hash_join_with_workers`] on the calling thread.
pub fn grid_hash_join(
    r: &[SpatialObject],
    s: &[SpatialObject],
    pred: &JoinPredicate,
    report_cell: &Rect,
    space: &Rect,
    out: &mut ResultCollector,
) {
    grid_hash_join_with_workers(r, s, pred, report_cell, space, 1, out);
}

/// Joins `r × s` under `pred`, reporting into `out` the pairs whose
/// reference point lies in `report_cell` (w.r.t. the global `space`).
///
/// At or above [`PARALLEL_JOIN_THRESHOLD`] R fans out over `workers` scoped
/// threads in equal contiguous runs, outputs appended in run order, so the
/// result is identical — same pairs, same order — at every worker count.
/// A join's HBSJ leaves pass the machine's available parallelism, which a
/// deployment reads once when it is built.
pub fn grid_hash_join_with_workers(
    r: &[SpatialObject],
    s: &[SpatialObject],
    pred: &JoinPredicate,
    report_cell: &Rect,
    space: &Rect,
    workers: usize,
    out: &mut ResultCollector,
) {
    if r.is_empty() || s.is_empty() {
        return;
    }
    let (eps, want) = (pred.epsilon(), ((r.len() + s.len()) as f64).sqrt().ceil());
    let ax = Axis::over(r.iter().map(|o| (o.mbr.min.x, o.mbr.max.x)), eps, want);
    let ay = Axis::over(r.iter().map(|o| (o.mbr.min.y, o.mbr.max.y)), eps, want);
    let r_spread = [ax.spread, ay.spread];
    let (grid, s_spread) = bucket(s, ax, ay);
    let within = match *pred {
        JoinPredicate::WithinDistance(_) => Some(eps),
        JoinPredicate::Intersects => None,
    };
    let window = Window::new(report_cell, space, within, r_spread, s_spread);
    let points = r_spread.iter().chain(&s_spread).all(|a| a.points);
    let join = |run: &[SpatialObject], emit: &mut dyn FnMut(&Pairs)| {
        let (g, w) = (&grid, &window);
        let settled = |c| w.settles(c);
        match within {
            None => g.join(
                run,
                |a, b| reference_point_in(a, b, pred, report_cell, space),
                |_| true,
                w,
                emit,
            ),
            Some(eps) if points => {
                let e2 = eps * eps;
                let near = |a: &SpatialObject, b: &SpatialObject| {
                    let (dx, dy) = (a.mbr.min.x - b.mbr.min.x, a.mbr.min.y - b.mbr.min.y);
                    dx * dx + dy * dy <= e2
                };
                g.join(run, near, settled, w, emit)
            }
            Some(eps) => g.join(
                run,
                |a, b| a.mbr.within_distance(&b.mbr, eps),
                settled,
                w,
                emit,
            ),
        }
    };
    if workers <= 1 || r.len() + s.len() < PARALLEL_JOIN_THRESHOLD {
        return join(r, &mut |pairs| out.extend(pairs));
    }
    // The calling thread takes the first run straight into `out`; the
    // others collect theirs, appended in run order once it is done.
    let mut runs = r.chunks(r.len().div_ceil(workers));
    let (first, join) = (runs.next().expect("r is not empty"), &join);
    std::thread::scope(|scope| {
        let spawn = |run| {
            scope.spawn(move || {
                let mut pairs = Vec::new();
                join(run, &mut |hits| pairs.extend_from_slice(hits));
                pairs
            })
        };
        let handles: Vec<_> = runs.map(spawn).collect();
        join(first, &mut |pairs| out.extend(pairs));
        for h in handles {
            out.extend(&h.join().expect("join worker panicked"));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use asj_geom::sweep::{nested_loop_join, plane_sweep_join};

    fn pt(id: u32, x: f64, y: f64) -> SpatialObject {
        SpatialObject::point(id, x, y)
    }

    fn boxed(id: u32, x: f64, y: f64, w: f64, h: f64) -> SpatialObject {
        SpatialObject::new(id, Rect::from_coords(x, y, x + w, y + h))
    }

    /// Deterministic pseudo-random points in [0, 100)².
    fn cloud(n: u32, seed: u64, id_base: u32) -> Vec<SpatialObject> {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / u32::MAX as f64) * 100.0
        };
        (0..n).map(|i| pt(id_base + i, next(), next())).collect()
    }

    /// Deterministic boxes up to 6 × 6 scattered over [0, 100)².
    fn boxes(n: u32, seed: u64, id_base: u32) -> Vec<SpatialObject> {
        let (at, size) = (cloud(n, seed, 0), cloud(n, seed + 2, 0));
        at.iter()
            .zip(&size)
            .enumerate()
            .map(|(i, (p, q))| {
                let (w, h) = (q.mbr.min.x * 0.06, q.mbr.min.y * 0.06);
                boxed(id_base + i as u32, p.mbr.min.x, p.mbr.min.y, w, h)
            })
            .collect()
    }

    fn ground_truth(
        r: &[SpatialObject],
        s: &[SpatialObject],
        pred: &JoinPredicate,
    ) -> Vec<(u32, u32)> {
        let mut v = nested_loop_join(r, s, pred);
        v.sort_unstable();
        v
    }

    /// The kernel's contract, spelled out independently of it: nested loop,
    /// then the reference-point filter against `(cell, space)`.
    fn filtered_truth(
        r: &[SpatialObject],
        s: &[SpatialObject],
        pred: &JoinPredicate,
        cell: &Rect,
        space: &Rect,
    ) -> Vec<(u32, u32)> {
        let mut v = Vec::new();
        for a in r {
            for b in s {
                if pred.matches_objects(a, b) && reference_point_in(a, b, pred, cell, space) {
                    v.push((a.id, b.id));
                }
            }
        }
        v.sort_unstable();
        v
    }

    fn joined(
        r: &[SpatialObject],
        s: &[SpatialObject],
        pred: &JoinPredicate,
        cell: &Rect,
        space: &Rect,
        workers: usize,
    ) -> Vec<(u32, u32)> {
        let mut c = ResultCollector::new();
        grid_hash_join_with_workers(r, s, pred, cell, space, workers, &mut c);
        let mut got = c.into_pairs();
        got.sort_unstable();
        got
    }

    #[test]
    fn grid_hash_filters_by_cell() {
        let space = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        let pred = JoinPredicate::WithinDistance(2.0);
        let r = vec![pt(1, 4.0, 5.0)];
        let s = vec![pt(2, 5.0, 5.0)]; // midpoint (4.5, 5.0) → left half
        let left = Rect::from_coords(0.0, 0.0, 5.0, 10.0);
        let right = Rect::from_coords(5.0, 0.0, 10.0, 10.0);

        let mut c = ResultCollector::new();
        grid_hash_join(&r, &s, &pred, &left, &space, &mut c);
        assert_eq!(c.len(), 1);

        let mut c = ResultCollector::new();
        grid_hash_join(&r, &s, &pred, &right, &space, &mut c);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn grid_hash_matches_ground_truth() {
        let space = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
        let r = cloud(300, 7, 0);
        let s = cloud(400, 13, 10_000);
        for eps in [0.5, 2.0, 8.0] {
            let pred = JoinPredicate::WithinDistance(eps);
            let got = joined(&r, &s, &pred, &space, &space, 1);
            assert_eq!(got, ground_truth(&r, &s, &pred), "eps={eps}");
        }
    }

    #[test]
    fn grid_hash_intersection_join_on_mbrs() {
        let space = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
        // Overlapping boxes scattered deterministically.
        let mut r = Vec::new();
        let mut s = Vec::new();
        for i in 0..120u32 {
            let f = i as f64;
            r.push(boxed(i, (f * 13.7) % 90.0, (f * 7.3) % 90.0, 3.0, 3.0));
            s.push(boxed(
                i + 1000,
                (f * 11.1) % 90.0,
                (f * 5.9) % 90.0,
                4.0,
                4.0,
            ));
        }
        let pred = JoinPredicate::Intersects;
        let got = joined(&r, &s, &pred, &space, &space, 1);
        assert_eq!(got, ground_truth(&r, &s, &pred));
    }

    #[test]
    fn extended_mbrs_under_every_predicate_and_window() {
        // Boxes on both sides; ε from touching to larger than the space;
        // report cells that leave R centres outside (as ε/2-extended
        // downloads do), one of zero area, and the whole space.
        let space = Rect::from_coords(0.0, 0.0, 106.0, 106.0);
        let r = boxes(150, 41, 0);
        let s = boxes(170, 43, 10_000);
        let preds = [
            JoinPredicate::Intersects,
            JoinPredicate::WithinDistance(0.0),
            JoinPredicate::WithinDistance(1.0),
            JoinPredicate::WithinDistance(17.5),
            JoinPredicate::WithinDistance(300.0),
        ];
        let cells = [
            space,
            Rect::from_coords(20.0, 30.0, 55.0, 45.0),
            Rect::from_coords(53.0, 0.0, 106.0, 106.0),
            Rect::from_coords(40.0, 10.0, 40.0, 90.0), // zero area: owns nothing
        ];
        let mut seen = 0;
        for pred in &preds {
            for cell in &cells {
                let want = filtered_truth(&r, &s, pred, cell, &space);
                seen += want.len();
                assert_eq!(
                    joined(&r, &s, pred, cell, &space, 1),
                    want,
                    "{pred:?} {cell:?}"
                );
            }
        }
        assert!(seen > 1000, "non-vacuous");
        assert!(joined(&r, &s, &preds[3], &cells[3], &space, 1).is_empty());
    }

    #[test]
    fn degenerate_inputs() {
        let space = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
        let many = cloud(200, 9, 10_000);
        // |R| = 1 and |S| = 1: a zero-width grid on the R side.
        for pred in [
            JoinPredicate::WithinDistance(15.0),
            JoinPredicate::Intersects,
        ] {
            let one = [pt(1, 50.0, 50.0)];
            assert_eq!(
                joined(&one, &many, &pred, &space, &space, 1),
                ground_truth(&one, &many, &pred)
            );
            assert_eq!(
                joined(&many, &one, &pred, &space, &space, 1),
                ground_truth(&many, &one, &pred)
            );
        }
        // Every object at the same spot: all pairs, under either predicate.
        let r: Vec<_> = (0..20).map(|i| pt(i, 7.0, 7.0)).collect();
        let s: Vec<_> = (0..30).map(|i| pt(100 + i, 7.0, 7.0)).collect();
        for pred in [
            JoinPredicate::Intersects,
            JoinPredicate::WithinDistance(0.0),
        ] {
            assert_eq!(joined(&r, &s, &pred, &space, &space, 1).len(), 600);
        }
    }

    #[test]
    fn cells_per_axis_are_capped_and_reach_wide() {
        let r = [(0.0, 0.0), (1000.0, 1000.0)];
        // 1000 cells wanted: the cap holds and the far centre stays inside.
        let ax = Axis::over(r.into_iter(), 0.0, 1000.0);
        assert_eq!(ax.last, 255.0);
        assert_eq!((ax.home(0.0), ax.home(1000.0)), (0, 255));
        // ε = 300 allows only three cells, each at least ε wide.
        let ax = Axis::over(r.into_iter(), 300.0, 1000.0);
        assert_eq!(ax.last, 3.0);
        assert!(1.0 / ax.scale >= 300.0 - 1e-9);
        // A whole-kernel run above the cap (⌈√n⌉ = 265), against the sweep.
        let space = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
        let (r, s) = (cloud(35_000, 5, 0), cloud(35_000, 6, 100_000));
        let pred = JoinPredicate::WithinDistance(0.05);
        let mut want = plane_sweep_join(&r, &s, &pred);
        want.sort_unstable();
        assert!(!want.is_empty(), "non-vacuous");
        assert_eq!(joined(&r, &s, &pred, &space, &space, 1), want);
    }

    #[test]
    fn hostile_coordinates_never_panic_and_stay_exact() {
        // `codec` accepts any f64 bit pattern, so a garbled or hostile
        // server can hand the kernel these. Whatever the predicate makes
        // of them, the kernel must agree with nested loop + filter.
        let space = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
        let (nan, inf, huge) = (f64::NAN, f64::INFINITY, 1e308);
        let raw = |id, a, b, c, d| SpatialObject {
            id,
            mbr: Rect {
                min: asj_geom::Point::new(a, b),
                max: asj_geom::Point::new(c, d),
            },
        };
        let wild = |base: u32| {
            vec![
                raw(base, nan, nan, nan, nan),
                raw(base + 1, nan, 10.0, 20.0, 20.0),
                raw(base + 2, 10.0, 10.0, nan, 20.0),
                raw(base + 3, -inf, 40.0, inf, 60.0), // a band across the space
                raw(base + 4, -inf, -inf, inf, inf),
                raw(base + 5, inf, inf, inf, inf),
                raw(base + 6, -inf, 5.0, 30.0, 6.0),
                raw(base + 7, -huge, -huge, huge, huge),
                raw(base + 8, huge, 50.0, huge, 50.0),
                raw(base + 9, 50.0, -huge, 51.0, huge),
                raw(base + 10, 30.0, 30.0, 20.0, 20.0), // min > max
            ]
        };
        let cells = [space, Rect::from_coords(0.0, 0.0, 50.0, 50.0)];
        let preds = [
            JoinPredicate::Intersects,
            JoinPredicate::WithinDistance(4.0),
            JoinPredicate::WithinDistance(nan),
            JoinPredicate::WithinDistance(inf),
        ];
        // Each hostile object on its own (together they mask one another:
        // one infinite extent collapses the grid for all), in R, in S and
        // in both, under every predicate and window.
        let (r, s) = (cloud(60, 21, 0), cloud(60, 22, 100_000));
        let mut reported = 0;
        for k in 0..wild(0).len() {
            let r_wild = [&r[..], &wild(50_000)[k..=k]].concat();
            let s_wild = [&s[..], &wild(150_000)[k..=k]].concat();
            for (r, s) in [(&r_wild, &s), (&r, &s_wild), (&r_wild, &s_wild)] {
                for pred in &preds {
                    for cell in &cells {
                        let want = filtered_truth(r, s, pred, cell, &space);
                        reported += want
                            .iter()
                            .filter(|(a, b)| *a >= 50_000 || *b >= 150_000)
                            .count();
                        assert_eq!(
                            joined(r, s, pred, cell, &space, 1),
                            want,
                            "object {k} {pred:?} {cell:?}"
                        );
                    }
                }
            }
        }
        assert!(reported > 100, "hostile objects do qualify");
        // The same above the parallel threshold, on one and three workers.
        let (r, s) = (cloud(2050, 23, 0), cloud(2050, 24, 100_000));
        let (r_wild, s_wild) = (
            [&r[..], &wild(50_000)[..4]].concat(), // NaNs and the band
            [&s[..], &wild(150_000)[..]].concat(),
        );
        assert!(r.len() + s.len() >= PARALLEL_JOIN_THRESHOLD);
        for (r, s, pred, cell) in [
            (&r_wild, &s, &preds[1], &cells[1]),
            (&r, &s_wild, &preds[0], &cells[0]),
            (&r_wild, &s_wild, &preds[1], &cells[0]),
        ] {
            let want = filtered_truth(r, s, pred, cell, &space);
            for workers in [1, 3] {
                assert_eq!(
                    joined(r, s, pred, cell, &space, workers),
                    want,
                    "{pred:?} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn a_nan_min_x_partner_qualifies_and_is_never_reported() {
        // `within_distance` drops the NaN gap a NaN `min.x` makes
        // (`f64::max` ignores a NaN), so this S box qualifies by its
        // `max.x` alone; its centre, and so every midpoint, is NaN.
        let space = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
        let cell = Rect::from_coords(0.0, 0.0, 50.0, 50.0);
        let eps = 4.0;
        let pred = JoinPredicate::WithinDistance(eps);
        let nan_box = SpatialObject {
            id: 900,
            mbr: Rect {
                min: Point::new(f64::NAN, 20.0),
                max: Point::new(50.0, 22.0),
            },
        };
        // R 1 lies deep inside the cell, R 2 within the margin of its edge.
        let r = [pt(1, 24.0, 21.0), pt(2, 49.0, 21.0)];
        let finite = [pt(10, 25.0, 21.0), pt(11, 47.0, 21.0)];
        let s = [finite[0], nan_box, finite[1]];
        // The kernel's grid and window for one leaf, built as it builds them.
        fn leaf<'a>(
            r: &[SpatialObject],
            s: &'a [SpatialObject],
            cell: &Rect,
        ) -> (Grid<'a>, Window) {
            let space = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
            let ax = Axis::over(r.iter().map(|o| (o.mbr.min.x, o.mbr.max.x)), 4.0, 2.0);
            let ay = Axis::over(r.iter().map(|o| (o.mbr.min.y, o.mbr.max.y)), 4.0, 2.0);
            let spread = [ax.spread, ay.spread];
            let (grid, s_spread) = bucket(s, ax, ay);
            (grid, Window::new(cell, &space, Some(4.0), spread, s_spread))
        }
        let (_, w) = leaf(&r, &finite, &cell);
        assert!(w.settles(r[0].center()) && !w.settles(r[1].center()));
        let (grid, w) = leaf(&r, &s, &cell);
        for a in &r {
            assert!(a.mbr.within_distance(&nan_box.mbr, eps), "qualifies");
            assert!(grid.run(a.center()).contains(&1), "is a candidate");
            assert!(
                !w.settles(a.center()),
                "its NaN centre turns the margin off"
            );
        }
        let want = vec![(1, 10), (2, 11)];
        assert_eq!(filtered_truth(&r, &s, &pred, &cell, &space), want);
        assert_eq!(joined(&r, &s, &pred, &cell, &space, 1), want);
    }

    #[test]
    fn partitioned_reporting_is_exactly_once() {
        // Join the same data once over the whole space and once per
        // quadrant; totals must agree (no dups, no losses at seams).
        let space = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
        let r = cloud(200, 3, 0);
        let s = cloud(200, 5, 10_000);
        let pred = JoinPredicate::WithinDistance(4.0);
        let want = joined(&r, &s, &pred, &space, &space, 1);

        let mut per_quadrant = ResultCollector::new();
        for q in space.quadrants() {
            // Simulate window downloads: only objects near the quadrant,
            // by the ε/2 rule of `JoinSpec::extension` for points.
            let ext = pred.epsilon() * 0.5;
            let rq: Vec<_> = r
                .iter()
                .filter(|o| o.mbr.expand(ext).intersects(&q))
                .copied()
                .collect();
            let sq: Vec<_> = s
                .iter()
                .filter(|o| o.mbr.expand(ext).intersects(&q))
                .copied()
                .collect();
            grid_hash_join(&rq, &sq, &pred, &q, &space, &mut per_quadrant);
        }
        let mut got = per_quadrant.into_pairs();
        got.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn workers_do_not_change_output_above_threshold() {
        // 5 200 objects clears PARALLEL_JOIN_THRESHOLD, so workers > 1
        // really fan the cells out; output must be identical — same pairs,
        // same order — to the serial run, for points and for boxes.
        let space = Rect::from_coords(0.0, 0.0, 106.0, 106.0);
        for (r, s, pred) in [
            (
                cloud(2600, 17, 0),
                cloud(2600, 29, 100_000),
                JoinPredicate::WithinDistance(0.8),
            ),
            (
                boxes(2600, 17, 0),
                boxes(2600, 29, 100_000),
                JoinPredicate::Intersects,
            ),
        ] {
            assert!(r.len() + s.len() >= PARALLEL_JOIN_THRESHOLD);
            let mut serial = ResultCollector::new();
            grid_hash_join(&r, &s, &pred, &space, &space, &mut serial);
            let serial = serial.into_pairs();
            assert!(!serial.is_empty(), "non-vacuous");
            for workers in [1, 2, 5, 9] {
                let mut par = ResultCollector::new();
                grid_hash_join_with_workers(&r, &s, &pred, &space, &space, workers, &mut par);
                assert_eq!(par.into_pairs(), serial, "{pred:?} workers={workers}");
            }
        }
    }

    #[test]
    fn more_workers_than_r_objects() {
        let space = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
        let r = cloud(3, 31, 0);
        let s = cloud(4200, 37, 10_000);
        assert!(r.len() + s.len() >= PARALLEL_JOIN_THRESHOLD);
        let pred = JoinPredicate::WithinDistance(9.0);
        let want = ground_truth(&r, &s, &pred);
        assert!(!want.is_empty(), "non-vacuous");
        assert_eq!(joined(&r, &s, &pred, &space, &space, 9), want);
    }

    #[test]
    fn workers_knob_is_inert_below_threshold() {
        // Small inputs stay on the calling thread; the knob must be a
        // no-op on both output and the exactly-once discipline.
        let space = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
        let r = cloud(120, 3, 0);
        let s = cloud(120, 5, 10_000);
        let pred = JoinPredicate::WithinDistance(4.0);
        let mut a = ResultCollector::new();
        grid_hash_join(&r, &s, &pred, &space, &space, &mut a);
        let mut b = ResultCollector::new();
        grid_hash_join_with_workers(&r, &s, &pred, &space, &space, 8, &mut b);
        assert_eq!(a.into_pairs(), b.into_pairs());
    }

    #[test]
    fn empty_inputs_no_output() {
        let space = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        let mut c = ResultCollector::new();
        grid_hash_join(
            &[],
            &[pt(1, 1.0, 1.0)],
            &JoinPredicate::Intersects,
            &space,
            &space,
            &mut c,
        );
        assert!(c.is_empty());
    }
}
