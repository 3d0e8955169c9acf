//! Join predicates.

use crate::{Rect, SpatialObject};

/// The spatial predicate θ of the join `R ⋈_θ S`.
///
/// The paper evaluates MBR **intersection** joins and **ε-distance** joins
/// (qualifying pairs within distance ε). The iceberg distance semi-join is a
/// post-aggregation on top of a distance join and therefore reuses
/// [`JoinPredicate::WithinDistance`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JoinPredicate {
    /// MBRs intersect (ε = 0 special case).
    Intersects,
    /// MBRs within Euclidean distance ε.
    WithinDistance(f64),
}

impl JoinPredicate {
    /// Evaluates the predicate on two MBRs.
    #[inline]
    pub fn matches(&self, a: &Rect, b: &Rect) -> bool {
        match *self {
            JoinPredicate::Intersects => a.intersects(b),
            JoinPredicate::WithinDistance(eps) => a.within_distance(b, eps),
        }
    }

    /// Evaluates the predicate on two objects.
    #[inline]
    pub fn matches_objects(&self, a: &SpatialObject, b: &SpatialObject) -> bool {
        self.matches(&a.mbr, &b.mbr)
    }

    /// The ε of the predicate as a distance, |ε|, whatever sign it is
    /// written with (zero for intersection). Every reader of a
    /// predicate's ε goes through here, so a negative ε means one thing.
    #[inline]
    pub fn epsilon(&self) -> f64 {
        match *self {
            JoinPredicate::Intersects => 0.0,
            JoinPredicate::WithinDistance(eps) => eps.abs(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point;

    fn r(a: f64, b: f64, c: f64, d: f64) -> Rect {
        Rect::from_coords(a, b, c, d)
    }

    #[test]
    fn intersects_predicate() {
        let p = JoinPredicate::Intersects;
        assert!(p.matches(&r(0.0, 0.0, 2.0, 2.0), &r(1.0, 1.0, 3.0, 3.0)));
        assert!(!p.matches(&r(0.0, 0.0, 1.0, 1.0), &r(2.0, 2.0, 3.0, 3.0)));
        assert_eq!(p.epsilon(), 0.0);
    }

    #[test]
    fn distance_predicate() {
        let p = JoinPredicate::WithinDistance(1.5);
        assert!(p.matches(&r(0.0, 0.0, 1.0, 1.0), &r(2.0, 0.0, 3.0, 1.0))); // gap 1.0
        assert!(!p.matches(&r(0.0, 0.0, 1.0, 1.0), &r(3.0, 0.0, 4.0, 1.0))); // gap 2.0
    }

    #[test]
    fn distance_predicate_on_points() {
        let p = JoinPredicate::WithinDistance(5.0);
        let a = Rect::point(Point::new(0.0, 0.0));
        let b = Rect::point(Point::new(3.0, 4.0));
        assert!(p.matches(&a, &b));
        let c = Rect::point(Point::new(3.0, 4.1));
        assert!(!p.matches(&a, &c));
    }

    #[test]
    fn zero_distance_equals_intersection_for_touching() {
        let p = JoinPredicate::WithinDistance(0.0);
        assert!(p.matches(&r(0.0, 0.0, 1.0, 1.0), &r(1.0, 0.0, 2.0, 1.0)));
        assert!(!p.matches(&r(0.0, 0.0, 1.0, 1.0), &r(1.001, 0.0, 2.0, 1.0)));
    }
}
