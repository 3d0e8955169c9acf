//! Duplicate avoidance via reference points (Dittrich & Seeger [3]).
//!
//! Partition-based join processing downloads each window with an ε/2
//! extension, so the same qualifying pair can be discovered in several
//! windows. The classical fix assigns every pair a unique *reference point*
//! and reports the pair only in the partition that owns that point.
//!
//! * **Distance joins**: the midpoint of the two MBR centers. If the pair
//!   qualifies (`mindist ≤ ε`) both MBRs are within ε/2 of the midpoint
//!   *in the point case*; for extended MBRs the centers may be farther, so
//!   windows are extended by ε/2 **plus** the maximum object half-extent
//!   (see `asj-core`'s executor, which learns the extent from aggregate
//!   queries). For the paper's workloads (points joined with points or thin
//!   segments) the ε/2 rule of Section 3 applies essentially unchanged.
//! * **Intersection joins**: the lower-left corner of the MBR intersection,
//!   which both objects cover.
//!
//! Ownership uses half-open cells (far edge of the global space closed),
//! implemented by [`crate::grid::owns_reference_point`].

use crate::grid::owns_reference_point;
use crate::{JoinPredicate, Point, Rect, SpatialObject};

/// The reference point of a qualifying pair under `pred`.
///
/// Returns `None` when the pair does not satisfy the predicate (callers
/// should have filtered already; this keeps the function total).
#[inline]
pub fn pair_reference_point(
    a: &SpatialObject,
    b: &SpatialObject,
    pred: &JoinPredicate,
) -> Option<Point> {
    match pred {
        JoinPredicate::Intersects => a.mbr.intersection(&b.mbr).map(|i| i.min),
        JoinPredicate::WithinDistance(eps) => {
            if a.mbr.within_distance(&b.mbr, *eps) {
                Some(a.center().midpoint(&b.center()))
            } else {
                None
            }
        }
    }
}

/// `true` when the pair qualifies under `pred` *and* its reference point is
/// owned by `cell` (with respect to the global `space`), i.e. when the
/// current partition is the one that must report the pair. The predicate is
/// evaluated once, inside [`pair_reference_point`], so join kernels call
/// this on raw candidates instead of testing the predicate first.
#[inline]
pub fn reference_point_in(
    a: &SpatialObject,
    b: &SpatialObject,
    pred: &JoinPredicate,
    cell: &Rect,
    space: &Rect,
) -> bool {
    match pair_reference_point(a, b, pred) {
        Some(p) => owns_reference_point(cell, space, &p),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(id: u32, x: f64, y: f64) -> SpatialObject {
        SpatialObject::point(id, x, y)
    }

    #[test]
    fn distance_refpoint_is_midpoint() {
        let a = pt(1, 0.0, 0.0);
        let b = pt(2, 2.0, 2.0);
        let p = pair_reference_point(&a, &b, &JoinPredicate::WithinDistance(5.0)).unwrap();
        assert_eq!(p, Point::new(1.0, 1.0));
    }

    #[test]
    fn distance_refpoint_none_when_far() {
        let a = pt(1, 0.0, 0.0);
        let b = pt(2, 10.0, 0.0);
        assert!(pair_reference_point(&a, &b, &JoinPredicate::WithinDistance(5.0)).is_none());
    }

    #[test]
    fn intersection_refpoint_is_lower_left_of_overlap() {
        let a = SpatialObject::new(1, Rect::from_coords(0.0, 0.0, 2.0, 2.0));
        let b = SpatialObject::new(2, Rect::from_coords(1.0, 1.0, 3.0, 3.0));
        let p = pair_reference_point(&a, &b, &JoinPredicate::Intersects).unwrap();
        assert_eq!(p, Point::new(1.0, 1.0));
    }

    #[test]
    fn refpoint_symmetric_for_distance() {
        let a = pt(1, 0.0, 0.0);
        let b = pt(2, 3.0, 1.0);
        let pred = JoinPredicate::WithinDistance(10.0);
        assert_eq!(
            pair_reference_point(&a, &b, &pred),
            pair_reference_point(&b, &a, &pred)
        );
    }

    #[test]
    fn exactly_one_quadrant_reports_each_pair() {
        let space = Rect::from_coords(0.0, 0.0, 8.0, 8.0);
        let pred = JoinPredicate::WithinDistance(2.0);
        // Pair straddling the vertical center line.
        let a = pt(1, 3.8, 2.0);
        let b = pt(2, 4.4, 2.0);
        let owners = space
            .quadrants()
            .iter()
            .filter(|q| reference_point_in(&a, &b, &pred, q, &space))
            .count();
        assert_eq!(owners, 1);
    }
}
