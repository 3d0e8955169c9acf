//! Property tests for the geometry kernel: the invariants every other
//! crate silently relies on.

use asj_geom::grid::owns_reference_point;
use asj_geom::sweep::nested_loop_join;
use asj_geom::{
    pair_reference_point, plane_sweep_join, Grid, JoinPredicate, Point, Rect, SpatialObject,
};
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    (-1000i32..=1000).prop_map(|v| v as f64 * 0.5)
}

fn point() -> impl Strategy<Value = Point> {
    (coord(), coord()).prop_map(|(x, y)| Point::new(x, y))
}

fn rect() -> impl Strategy<Value = Rect> {
    (point(), point()).prop_map(|(a, b)| Rect::new(a, b))
}

fn objects(max: usize) -> impl Strategy<Value = Vec<SpatialObject>> {
    prop::collection::vec(rect(), 0..max).prop_map(|rects| {
        rects
            .into_iter()
            .enumerate()
            .map(|(i, r)| SpatialObject::new(i as u32, r))
            .collect()
    })
}

proptest! {
    #[test]
    fn union_contains_operands(a in rect(), b in rect()) {
        let u = a.union(&b);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
        // Union is commutative.
        prop_assert_eq!(u, b.union(&a));
    }

    #[test]
    fn intersection_inside_both(a in rect(), b in rect()) {
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains_rect(&i));
            prop_assert!(b.contains_rect(&i));
            prop_assert!(a.intersects(&b));
        } else {
            prop_assert!(!a.intersects(&b));
        }
    }

    #[test]
    fn min_dist_symmetric_and_zero_iff_intersecting(a in rect(), b in rect()) {
        let d = a.min_dist(&b);
        prop_assert_eq!(d, b.min_dist(&a));
        prop_assert!(d >= 0.0);
        prop_assert_eq!(d == 0.0, a.intersects(&b));
    }

    #[test]
    fn within_distance_consistent_with_min_dist(a in rect(), b in rect(), eps in 0.0f64..100.0) {
        prop_assert_eq!(a.within_distance(&b, eps), a.min_dist(&b) <= eps);
    }

    #[test]
    fn expand_monotone(r in rect(), d in 0.0f64..50.0) {
        let e = r.expand(d);
        prop_assert!(e.contains_rect(&r));
        prop_assert!(e.width() >= r.width());
    }

    #[test]
    fn quadrants_tile_without_gaps(r in rect(), p in point()) {
        prop_assume!(r.width() > 0.0 && r.height() > 0.0);
        let quads = r.quadrants();
        let area: f64 = quads.iter().map(|q| q.area()).sum();
        prop_assert!((area - r.area()).abs() <= 1e-9 * r.area().max(1.0));
        // Any point of the closed rect is owned by exactly one quadrant
        // under the reference-point discipline.
        if r.contains(&p) {
            let owners = quads
                .iter()
                .filter(|q| owns_reference_point(q, &r, &p))
                .count();
            prop_assert_eq!(owners, 1);
        }
    }

    #[test]
    fn grid_cell_ownership_unique(p in point(), k in 1u32..6) {
        let space = Rect::from_coords(-500.0, -500.0, 500.0, 500.0);
        let g = Grid::square(space, k);
        if space.contains(&p) {
            let owners = (0..k)
                .flat_map(|j| (0..k).map(move |i| (i, j)))
                .filter(|&(i, j)| g.cell_of(&p) == Some((i, j)))
                .count();
            prop_assert_eq!(owners, 1);
        } else {
            prop_assert!(g.cell_of(&p).is_none());
        }
    }

    #[test]
    fn plane_sweep_equals_nested_loop(
        r in objects(30),
        s in objects(30),
        eps in prop_oneof![Just(0.0), 0.1f64..200.0],
    ) {
        let pred = if eps == 0.0 {
            JoinPredicate::Intersects
        } else {
            JoinPredicate::WithinDistance(eps)
        };
        let mut got = plane_sweep_join(&r, &s, &pred);
        let mut want = nested_loop_join(&r, &s, &pred);
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn reference_point_exists_iff_pair_qualifies(
        a in rect(),
        b in rect(),
        eps in 0.0f64..100.0,
    ) {
        let oa = SpatialObject::new(1, a);
        let ob = SpatialObject::new(2, b);
        let pred = JoinPredicate::WithinDistance(eps);
        let rp = pair_reference_point(&oa, &ob, &pred);
        prop_assert_eq!(rp.is_some(), pred.matches(&a, &b));
        if let Some(p) = rp {
            // The midpoint is within eps/2 of both centers.
            prop_assert!(p.distance(&a.center()) <= a.center().distance(&b.center()) / 2.0 + 1e-9);
        }
    }

    #[test]
    fn intersection_reference_point_covered_by_both(a in rect(), b in rect()) {
        let oa = SpatialObject::new(1, a);
        let ob = SpatialObject::new(2, b);
        if let Some(p) = pair_reference_point(&oa, &ob, &JoinPredicate::Intersects) {
            prop_assert!(a.contains(&p));
            prop_assert!(b.contains(&p));
        }
    }
}
