//! Axis-aligned rectangles (MBRs).

use crate::point::Point;

/// An axis-aligned rectangle, `min ≤ max` on both axes.
///
/// Doubles as the minimum bounding rectangle (MBR) of a spatial object and
/// as a query window. Degenerate rectangles (`min == max`) represent points.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rect {
    pub min: Point,
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two corner points, normalizing the corner
    /// order so that `min ≤ max` holds on both axes.
    #[inline]
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates a rectangle from `(min_x, min_y, max_x, max_y)` without
    /// reordering; debug-asserts the invariant.
    #[inline]
    pub fn from_coords(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        debug_assert!(min_x <= max_x && min_y <= max_y, "invalid rect");
        Rect {
            min: Point::new(min_x, min_y),
            max: Point::new(max_x, max_y),
        }
    }

    /// A degenerate rectangle covering exactly one point.
    #[inline]
    pub fn point(p: Point) -> Self {
        Rect { min: p, max: p }
    }

    /// The smallest rectangle containing every rectangle of `iter`, or
    /// `None` when `iter` is empty.
    pub fn union_of<I: IntoIterator<Item = Rect>>(iter: I) -> Option<Rect> {
        iter.into_iter().reduce(|a, b| a.union(&b))
    }

    /// Width (x extent).
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (y extent).
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area; zero for degenerate rectangles.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Half-perimeter (margin), used by R-tree split heuristics.
    #[inline]
    pub fn margin(&self) -> f64 {
        self.width() + self.height()
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min.x + self.max.x) * 0.5,
            (self.min.y + self.max.y) * 0.5,
        )
    }

    /// Closed-set intersection test (shared boundaries intersect; a NaN
    /// coordinate on either side intersects nothing). Branch-free: the four
    /// compares are joined with `&`, so a filter over many rectangles —
    /// an R-tree node, a cached run, a shard list — does not mispredict.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        (self.min.x <= other.max.x)
            & (other.min.x <= self.max.x)
            & (self.min.y <= other.max.y)
            & (other.min.y <= self.max.y)
    }

    /// Intersection rectangle, or `None` when disjoint.
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            min: Point::new(self.min.x.max(other.min.x), self.min.y.max(other.min.y)),
            max: Point::new(self.max.x.min(other.max.x), self.max.y.min(other.max.y)),
        })
    }

    /// `true` when `other` lies entirely inside `self` (closed).
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.min.x <= other.min.x
            && self.min.y <= other.min.y
            && other.max.x <= self.max.x
            && other.max.y <= self.max.y
    }

    /// Closed containment test for a point.
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        self.min.x <= p.x && p.x <= self.max.x && self.min.y <= p.y && p.y <= self.max.y
    }

    /// Half-open containment: `min ≤ p < max` on both axes.
    ///
    /// Half-open membership partitions space among grid cells so that a
    /// reference point belongs to exactly one cell — the backbone of
    /// duplicate avoidance. The global space rectangle is treated as closed
    /// on its far edges by the callers that need it ([`crate::Grid`]).
    #[inline]
    pub fn contains_half_open(&self, p: &Point) -> bool {
        self.min.x <= p.x && p.x < self.max.x && self.min.y <= p.y && p.y < self.max.y
    }

    /// Smallest rectangle covering both operands.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// Area increase needed to include `other` — the R-tree insertion
    /// heuristic ("least enlargement").
    #[inline]
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Rectangle grown by `delta` on every side (clamped to be valid when
    /// `delta` is negative).
    #[inline]
    pub fn expand(&self, delta: f64) -> Rect {
        let min = Point::new(self.min.x - delta, self.min.y - delta);
        let max = Point::new(self.max.x + delta, self.max.y + delta);
        if min.x <= max.x && min.y <= max.y {
            Rect { min, max }
        } else {
            Rect::point(self.center())
        }
    }

    /// Minimum Euclidean distance between two rectangles (zero when they
    /// intersect).
    #[inline]
    pub fn min_dist(&self, other: &Rect) -> f64 {
        let dx = (self.min.x - other.max.x)
            .max(0.0)
            .max(other.min.x - self.max.x);
        let dy = (self.min.y - other.max.y)
            .max(0.0)
            .max(other.min.y - self.max.y);
        (dx * dx + dy * dy).sqrt()
    }

    /// `true` when the two rectangles are within distance `eps` of each
    /// other — the ε-distance join predicate on MBRs.
    #[inline]
    pub fn within_distance(&self, other: &Rect, eps: f64) -> bool {
        // Compare squared distances to skip the sqrt.
        let dx = (self.min.x - other.max.x)
            .max(0.0)
            .max(other.min.x - self.max.x);
        let dy = (self.min.y - other.max.y)
            .max(0.0)
            .max(other.min.y - self.max.y);
        dx * dx + dy * dy <= eps * eps
    }

    /// Splits into four equal quadrants, ordered `[SW, SE, NW, NE]`.
    ///
    /// This is the regular 2×2 grid every algorithm in the paper uses for
    /// repartitioning (`k = 2`).
    pub fn quadrants(&self) -> [Rect; 4] {
        let c = self.center();
        [
            Rect::from_coords(self.min.x, self.min.y, c.x, c.y),
            Rect::from_coords(c.x, self.min.y, self.max.x, c.y),
            Rect::from_coords(self.min.x, c.y, c.x, self.max.y),
            Rect::from_coords(c.x, c.y, self.max.x, self.max.y),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: f64, b: f64, c: f64, d: f64) -> Rect {
        Rect::from_coords(a, b, c, d)
    }

    #[test]
    fn new_normalizes_corners() {
        let rect = Rect::new(Point::new(5.0, 1.0), Point::new(2.0, 4.0));
        assert_eq!(rect, r(2.0, 1.0, 5.0, 4.0));
    }

    #[test]
    fn area_width_height() {
        let rect = r(1.0, 2.0, 4.0, 8.0);
        assert_eq!(rect.width(), 3.0);
        assert_eq!(rect.height(), 6.0);
        assert_eq!(rect.area(), 18.0);
        assert_eq!(rect.margin(), 9.0);
    }

    #[test]
    fn degenerate_point_rect() {
        let rect = Rect::point(Point::new(3.0, 3.0));
        assert_eq!(rect.area(), 0.0);
        assert!(rect.contains(&Point::new(3.0, 3.0)));
        assert!(!rect.contains_half_open(&Point::new(3.0, 3.0)));
    }

    #[test]
    fn intersects_overlapping_and_touching() {
        assert!(r(0.0, 0.0, 2.0, 2.0).intersects(&r(1.0, 1.0, 3.0, 3.0)));
        // Shared edge counts as intersection (closed semantics).
        assert!(r(0.0, 0.0, 2.0, 2.0).intersects(&r(2.0, 0.0, 4.0, 2.0)));
        assert!(!r(0.0, 0.0, 2.0, 2.0).intersects(&r(2.1, 0.0, 4.0, 2.0)));
    }

    #[test]
    fn intersection_rect() {
        let i = r(0.0, 0.0, 2.0, 2.0).intersection(&r(1.0, 1.0, 3.0, 3.0));
        assert_eq!(i, Some(r(1.0, 1.0, 2.0, 2.0)));
        assert_eq!(
            r(0.0, 0.0, 1.0, 1.0).intersection(&r(5.0, 5.0, 6.0, 6.0)),
            None
        );
    }

    #[test]
    fn union_covers_both() {
        let u = r(0.0, 0.0, 1.0, 1.0).union(&r(2.0, -1.0, 3.0, 0.5));
        assert_eq!(u, r(0.0, -1.0, 3.0, 1.0));
        assert!(u.contains_rect(&r(0.0, 0.0, 1.0, 1.0)));
        assert!(u.contains_rect(&r(2.0, -1.0, 3.0, 0.5)));
    }

    #[test]
    fn union_of_iter() {
        assert_eq!(Rect::union_of(std::iter::empty()), None);
        let u = Rect::union_of(vec![r(0.0, 0.0, 1.0, 1.0), r(3.0, 3.0, 4.0, 4.0)]).unwrap();
        assert_eq!(u, r(0.0, 0.0, 4.0, 4.0));
    }

    #[test]
    fn enlargement_zero_when_contained() {
        let big = r(0.0, 0.0, 10.0, 10.0);
        assert_eq!(big.enlargement(&r(1.0, 1.0, 2.0, 2.0)), 0.0);
        assert!(big.enlargement(&r(9.0, 9.0, 12.0, 12.0)) > 0.0);
    }

    #[test]
    fn expand_grows_every_side() {
        let e = r(1.0, 1.0, 2.0, 2.0).expand(0.5);
        assert_eq!(e, r(0.5, 0.5, 2.5, 2.5));
    }

    #[test]
    fn expand_negative_clamps() {
        let e = r(0.0, 0.0, 1.0, 1.0).expand(-2.0);
        assert_eq!(e.area(), 0.0);
    }

    #[test]
    fn min_dist_rects() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert_eq!(a.min_dist(&r(0.5, 0.5, 2.0, 2.0)), 0.0);
        assert_eq!(a.min_dist(&r(4.0, 0.0, 5.0, 1.0)), 3.0);
        assert_eq!(a.min_dist(&r(4.0, 5.0, 6.0, 7.0)), 5.0);
    }

    #[test]
    fn within_distance_matches_min_dist() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(4.0, 0.0, 5.0, 1.0);
        assert!(a.within_distance(&b, 3.0));
        assert!(!a.within_distance(&b, 2.999));
    }

    #[test]
    fn quadrants_partition_area() {
        let rect = r(0.0, 0.0, 4.0, 8.0);
        let q = rect.quadrants();
        let total: f64 = q.iter().map(|x| x.area()).sum();
        assert_eq!(total, rect.area());
        assert_eq!(q[0], r(0.0, 0.0, 2.0, 4.0));
        assert_eq!(q[3], r(2.0, 4.0, 4.0, 8.0));
        for sub in &q {
            assert!(rect.contains_rect(sub));
        }
    }
}
