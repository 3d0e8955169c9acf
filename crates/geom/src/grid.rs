//! Regular grids over a window — the partitioning backbone.

use crate::{Point, Rect};

/// A regular `kx × ky` grid imposed on a rectangular window.
///
/// Cell `(i, j)` covers
/// `[min.x + i·cw, min.x + (i+1)·cw) × [min.y + j·ch, min.y + (j+1)·ch)`
/// with half-open semantics, except that cells on the far edge of the
/// window are closed so that the grid exactly tiles the (closed) window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grid {
    window: Rect,
    kx: u32,
    ky: u32,
}

impl Grid {
    /// Creates a grid; `kx`, `ky` must be ≥ 1.
    pub fn new(window: Rect, kx: u32, ky: u32) -> Self {
        assert!(kx >= 1 && ky >= 1, "grid must have at least one cell");
        Grid { window, kx, ky }
    }

    /// Square `k × k` grid, the shape used by the algorithms (k = 2).
    pub fn square(window: Rect, k: u32) -> Self {
        Grid::new(window, k, k)
    }

    /// The gridded window.
    #[inline]
    pub fn window(&self) -> Rect {
        self.window
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        (self.kx as usize) * (self.ky as usize)
    }

    /// `true` when the grid has no cells (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Cell width.
    #[inline]
    pub fn cell_width(&self) -> f64 {
        self.window.width() / self.kx as f64
    }

    /// Cell height.
    #[inline]
    pub fn cell_height(&self) -> f64 {
        self.window.height() / self.ky as f64
    }

    /// The rectangle of cell `(i, j)`; panics when out of range.
    pub fn cell(&self, i: u32, j: u32) -> Rect {
        assert!(i < self.kx && j < self.ky, "cell index out of range");
        let cw = self.cell_width();
        let ch = self.cell_height();
        Rect::from_coords(
            self.window.min.x + i as f64 * cw,
            self.window.min.y + j as f64 * ch,
            // Compute far edges from the window to avoid FP drift: the last
            // cell must end exactly at the window boundary.
            if i + 1 == self.kx {
                self.window.max.x
            } else {
                self.window.min.x + (i + 1) as f64 * cw
            },
            if j + 1 == self.ky {
                self.window.max.y
            } else {
                self.window.min.y + (j + 1) as f64 * ch
            },
        )
    }

    /// Iterator over all cells in row-major order (j outer, i inner).
    pub fn cells(&self) -> impl Iterator<Item = Rect> + '_ {
        (0..self.ky).flat_map(move |j| (0..self.kx).map(move |i| self.cell(i, j)))
    }

    /// The cell indices owning point `p` under the half-open discipline
    /// (far-edge closed), or `None` when `p` is outside the window.
    pub fn cell_of(&self, p: &Point) -> Option<(u32, u32)> {
        if !self.window.contains(p) {
            return None;
        }
        let fx = (p.x - self.window.min.x) / self.cell_width();
        let fy = (p.y - self.window.min.y) / self.cell_height();
        let i = (fx as u32).min(self.kx - 1);
        let j = (fy as u32).min(self.ky - 1);
        Some((i, j))
    }

    /// The inclusive cell index ranges `(i0..=i1, j0..=j1)` whose (closed)
    /// cells can intersect `r`, or `None` when `r` lies strictly outside
    /// the window. A superset under FP drift: every returned index range
    /// is padded by one cell on each side, so callers re-checking
    /// `cell(i, j).intersects(r)` see exactly the cells a full scan would
    /// — in O(covered cells) instead of O(kx·ky).
    pub fn covering(
        &self,
        r: &Rect,
    ) -> Option<(std::ops::RangeInclusive<u32>, std::ops::RangeInclusive<u32>)> {
        if r.max.x < self.window.min.x
            || r.min.x > self.window.max.x
            || r.max.y < self.window.min.y
            || r.min.y > self.window.max.y
        {
            return None;
        }
        // Clamp in the f64 domain: a rect reaching (say) 1e308 past the
        // window would overflow the ±1 padding after an i64 cast, and an
        // `as` cast of an out-of-range float saturates differently in
        // debug and release. `clamp` also maps the inf/NaN of degenerate
        // divisions onto valid indices.
        let span = |lo: f64, hi: f64, wmin: f64, cell: f64, k: u32| {
            let last = (k - 1) as f64;
            let a = (((lo - wmin) / cell).floor() - 1.0).clamp(0.0, last) as u32;
            let b = (((hi - wmin) / cell).floor() + 1.0).clamp(0.0, last) as u32;
            a..=b
        };
        Some((
            span(
                r.min.x,
                r.max.x,
                self.window.min.x,
                self.cell_width(),
                self.kx,
            ),
            span(
                r.min.y,
                r.max.y,
                self.window.min.y,
                self.cell_height(),
                self.ky,
            ),
        ))
    }
}

/// Ownership test used during recursive 2×2 partitioning, where sub-windows
/// come from [`Rect::quadrants`] rather than a persistent [`Grid`]:
/// half-open membership in `cell`, except closed on the sides where `cell`
/// touches the far edges of `space` (the global data space). Guarantees each
/// reference point is owned by exactly one cell of any partition of `space`.
#[inline]
pub fn owns_reference_point(cell: &Rect, space: &Rect, p: &Point) -> bool {
    if p.x < cell.min.x || p.y < cell.min.y {
        return false;
    }
    let x_ok = p.x < cell.max.x || (cell.max.x >= space.max.x && p.x <= cell.max.x);
    let y_ok = p.y < cell.max.y || (cell.max.y >= space.max.y && p.y <= cell.max.y);
    x_ok && y_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: f64, b: f64, c: f64, d: f64) -> Rect {
        Rect::from_coords(a, b, c, d)
    }

    #[test]
    fn cells_tile_window() {
        let g = Grid::square(r(0.0, 0.0, 10.0, 10.0), 4);
        assert_eq!(g.len(), 16);
        let total: f64 = g.cells().map(|c| c.area()).sum();
        assert!((total - 100.0).abs() < 1e-9);
        // Last cell ends exactly at the window edge.
        assert_eq!(g.cell(3, 3).max, Point::new(10.0, 10.0));
    }

    #[test]
    fn rectangular_grid() {
        let g = Grid::new(r(0.0, 0.0, 10.0, 4.0), 5, 2);
        assert_eq!(g.cell_width(), 2.0);
        assert_eq!(g.cell_height(), 2.0);
        assert_eq!(g.cell(0, 1), r(0.0, 2.0, 2.0, 4.0));
    }

    #[test]
    fn cell_of_interior_and_boundary() {
        let g = Grid::square(r(0.0, 0.0, 4.0, 4.0), 2);
        assert_eq!(g.cell_of(&Point::new(1.0, 1.0)), Some((0, 0)));
        // Shared boundary goes to the upper cell (half-open).
        assert_eq!(g.cell_of(&Point::new(2.0, 2.0)), Some((1, 1)));
        // Far edge is closed and owned by the last cell.
        assert_eq!(g.cell_of(&Point::new(4.0, 4.0)), Some((1, 1)));
        assert_eq!(g.cell_of(&Point::new(4.1, 0.0)), None);
    }

    #[test]
    fn every_point_owned_by_exactly_one_cell() {
        let g = Grid::square(r(0.0, 0.0, 9.0, 9.0), 3);
        for &p in &[
            Point::new(0.0, 0.0),
            Point::new(3.0, 3.0),
            Point::new(9.0, 9.0),
            Point::new(4.5, 8.9999),
            Point::new(9.0, 0.0),
        ] {
            let owners = (0..3)
                .flat_map(|j| (0..3).map(move |i| (i, j)))
                .filter(|&(i, j)| g.cell_of(&p) == Some((i, j)))
                .count();
            assert_eq!(owners, 1, "point {p:?} owned by {owners} cells");
        }
    }

    #[test]
    fn owns_reference_point_partitions_space() {
        let space = r(0.0, 0.0, 8.0, 8.0);
        let quads = space.quadrants();
        for &p in &[
            Point::new(4.0, 4.0),
            Point::new(0.0, 0.0),
            Point::new(8.0, 8.0),
            Point::new(4.0, 0.0),
            Point::new(8.0, 3.0),
            Point::new(2.0, 8.0),
        ] {
            let owners = quads
                .iter()
                .filter(|q| owns_reference_point(q, &space, &p))
                .count();
            assert_eq!(owners, 1, "point {p:?}");
        }
    }

    #[test]
    fn owns_reference_point_nested_quadrants() {
        // Recursive split: the property must hold at deeper levels too.
        let space = r(0.0, 0.0, 8.0, 8.0);
        let q = space.quadrants()[3]; // NE = [4,8]x[4,8]
        let subs = q.quadrants();
        for &p in &[
            Point::new(6.0, 6.0),
            Point::new(8.0, 8.0),
            Point::new(8.0, 5.0),
            Point::new(4.0, 4.0),
            Point::new(6.0, 8.0),
        ] {
            let owners = subs
                .iter()
                .filter(|s| owns_reference_point(s, &space, &p))
                .count();
            assert_eq!(owners, 1, "point {p:?}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cell_out_of_range_panics() {
        Grid::square(r(0.0, 0.0, 1.0, 1.0), 2).cell(2, 0);
    }

    #[test]
    fn covering_is_a_superset_of_intersecting_cells() {
        let g = Grid::new(r(0.0, 0.0, 10.0, 7.0), 10, 7);
        let probes = [
            r(0.0, 0.0, 10.0, 7.0),  // whole window
            r(2.5, 1.5, 3.5, 2.5),   // interior
            r(3.0, 2.0, 4.0, 3.0),   // boundary-aligned
            r(-5.0, -5.0, 0.0, 0.0), // touches the corner
            r(9.5, 6.5, 20.0, 20.0), // reaches past the far edge
            r(4.0, 4.0, 4.0, 4.0),   // degenerate point
        ];
        for probe in probes {
            let (is, js) = g.covering(&probe).expect("intersects the window");
            for j in 0..7u32 {
                for i in 0..10u32 {
                    if g.cell(i, j).intersects(&probe) {
                        assert!(
                            is.contains(&i) && js.contains(&j),
                            "cell ({i},{j}) intersects {probe:?} but not covered"
                        );
                    }
                }
            }
        }
        assert!(g.covering(&r(11.0, 0.0, 12.0, 1.0)).is_none());
        assert!(g.covering(&r(0.0, -3.0, 1.0, -0.1)).is_none());
    }

    #[test]
    fn covering_survives_extreme_rects() {
        // Rects reaching astronomically past the window must not overflow
        // the index arithmetic (debug panic / release wraparound) and must
        // still return the full covered range.
        let g = Grid::new(r(0.0, 0.0, 1.0, 1.0), 4, 4);
        for probe in [
            r(0.0, 0.0, 1e308, 0.5),
            r(-1e308, 0.0, 1e308, 1e308),
            r(f64::MIN, f64::MIN, f64::MAX, f64::MAX),
        ] {
            let (is, js) = g.covering(&probe).expect("intersects the window");
            for j in 0..4u32 {
                for i in 0..4u32 {
                    if g.cell(i, j).intersects(&probe) {
                        assert!(
                            is.contains(&i) && js.contains(&j),
                            "cell ({i},{j}) intersects {probe:?} but not covered"
                        );
                    }
                }
            }
        }
    }
}
