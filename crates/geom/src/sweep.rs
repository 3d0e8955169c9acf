//! In-memory plane-sweep spatial join.
//!
//! No library path calls it any more: HBSJ's leaf on the device is
//! `asj_device::memjoin`'s ε-grid and SemiJoin's final join on the server
//! probes the store's index. It stays as an independent join the test suites
//! compare against, and because [`plane_sweep_join`] and
//! [`plane_sweep_join_parallel`] are on the benchmark's frozen API surface
//! (its `geom.sweep_*` rows). Classic forward plane sweep over the x
//! axis (Brinkhoff et al. \[2\], adapted to ε-distance): both inputs are
//! sorted by `mbr.min.x`; for each object the other list is scanned forward
//! while `min.x ≤ current.max.x + ε`, and surviving candidates are tested on
//! the full predicate.
//!
//! The sweep is serial. The sort operates on **packed `(f64 key, u32 idx)`
//! pairs**, not bare indices with an indirect comparator — both the sort and
//! the forward candidate scan read keys sequentially from a dense array
//! instead of chasing into the object array, and ties break on the original
//! index so the order is a total order (deterministic even with duplicated
//! coordinates). No workload runs a sweep, so nothing pays for splitting one
//! across threads: [`plane_sweep_join_parallel`] is the serial kernel under
//! the name the benchmark's frozen API calls.
//!
//! Complexity `O(n log n + k)` for k tested candidate pairs — in contrast to
//! the `O(n·m)` nested loop.

use crate::{JoinPredicate, ObjectId, SpatialObject};

/// Computes all pairs `(r.id, s.id)` with `pred(r, s)` via plane sweep.
///
/// Allocates two sorted key vectors; inputs are borrowed unsorted.
pub fn plane_sweep_join(
    r: &[SpatialObject],
    s: &[SpatialObject],
    pred: &JoinPredicate,
) -> Vec<(ObjectId, ObjectId)> {
    let mut out = Vec::new();
    plane_sweep_pairs(r, s, pred, |a, b| out.push((a.id, b.id)));
    out
}

/// Plane-sweep join driving a callback for every qualifying pair `(r, s)`.
///
/// The callback form lets callers apply duplicate-avoidance filters or
/// iceberg counters without materializing the pair list.
pub fn plane_sweep_pairs<F: FnMut(&SpatialObject, &SpatialObject)>(
    r: &[SpatialObject],
    s: &[SpatialObject],
    pred: &JoinPredicate,
    mut emit: F,
) {
    if r.is_empty() || s.is_empty() {
        return;
    }
    let eps = pred.epsilon();
    let (rk, sk) = (packed_keys(r), packed_keys(s));
    let (mut i, mut j) = (0, 0);
    // Heads merge by key, R first on ties; once either side runs out, the
    // other's remaining heads have no candidates left.
    while i < rk.len() && j < sk.len() {
        if rk[i].0 <= sk[j].0 {
            // An R head: scan S forward while it can still be within eps
            // on the x axis.
            let ro = &r[rk[i].1 as usize];
            let limit = ro.mbr.max.x + eps;
            for &(key, sj) in &sk[j..] {
                if key > limit {
                    break;
                }
                let cand = &s[sj as usize];
                if pred.matches(&ro.mbr, &cand.mbr) {
                    emit(ro, cand);
                }
            }
            i += 1;
        } else {
            let so = &s[sk[j].1 as usize];
            let limit = so.mbr.max.x + eps;
            for &(key, rj) in &rk[i..] {
                if key > limit {
                    break;
                }
                let cand = &r[rj as usize];
                if pred.matches(&cand.mbr, &so.mbr) {
                    emit(cand, so);
                }
            }
            j += 1;
        }
    }
}

/// [`plane_sweep_join`] under the benchmark's frozen parallel name;
/// `workers` is ignored.
pub fn plane_sweep_join_parallel(
    r: &[SpatialObject],
    s: &[SpatialObject],
    pred: &JoinPredicate,
    _workers: usize,
) -> Vec<(ObjectId, ObjectId)> {
    plane_sweep_join(r, s, pred)
}

/// Packed sort keys `(min.x, original index)`, ordered by key then index —
/// a total order, so duplicated coordinates cannot make the emission order
/// depend on sort internals.
fn packed_keys(objs: &[SpatialObject]) -> Vec<(f64, u32)> {
    let mut keys: Vec<(f64, u32)> = objs
        .iter()
        .enumerate()
        .map(|(i, o)| (o.mbr.min.x, i as u32))
        .collect();
    keys.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    keys
}

/// Reference `O(n·m)` nested-loop join; used by tests and as the ground
/// truth the property tests compare against.
pub fn nested_loop_join(
    r: &[SpatialObject],
    s: &[SpatialObject],
    pred: &JoinPredicate,
) -> Vec<(ObjectId, ObjectId)> {
    let mut out = Vec::new();
    for a in r {
        for b in s {
            if pred.matches_objects(a, b) {
                out.push((a.id, b.id));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rect;

    fn pt(id: u32, x: f64, y: f64) -> SpatialObject {
        SpatialObject::point(id, x, y)
    }

    fn sorted(mut v: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_inputs_produce_nothing() {
        let pred = JoinPredicate::WithinDistance(1.0);
        assert!(plane_sweep_join(&[], &[pt(1, 0.0, 0.0)], &pred).is_empty());
        assert!(plane_sweep_join(&[pt(1, 0.0, 0.0)], &[], &pred).is_empty());
        assert!(plane_sweep_join_parallel(&[], &[pt(1, 0.0, 0.0)], &pred, 4).is_empty());
    }

    #[test]
    fn distance_join_small() {
        let r = vec![pt(1, 0.0, 0.0), pt(2, 10.0, 10.0)];
        let s = vec![pt(1, 0.5, 0.0), pt(2, 10.0, 10.4), pt(3, 50.0, 50.0)];
        let pred = JoinPredicate::WithinDistance(1.0);
        let got = sorted(plane_sweep_join(&r, &s, &pred));
        assert_eq!(got, vec![(1, 1), (2, 2)]);
    }

    #[test]
    fn intersection_join_mbrs() {
        let r = vec![
            SpatialObject::new(1, Rect::from_coords(0.0, 0.0, 2.0, 2.0)),
            SpatialObject::new(2, Rect::from_coords(5.0, 5.0, 6.0, 6.0)),
        ];
        let s = vec![
            SpatialObject::new(9, Rect::from_coords(1.0, 1.0, 3.0, 3.0)),
            SpatialObject::new(8, Rect::from_coords(5.5, 0.0, 7.0, 5.5)),
        ];
        let got = sorted(plane_sweep_join(&r, &s, &JoinPredicate::Intersects));
        assert_eq!(got, vec![(1, 9), (2, 8)]);
    }

    #[test]
    fn matches_nested_loop_on_grid_cluster() {
        // Deterministic pseudo-random-ish layouts exercising many overlaps;
        // the larger one gives every tenth S object an R object's min.x, so
        // ties between the two sides are swept too.
        for (n, shared) in [(40u32, false), (150, true)] {
            let mut r = Vec::new();
            let mut s = Vec::new();
            for i in 0..n {
                let f = i as f64;
                r.push(pt(i, (f * 7.3) % 13.0, (f * 3.1) % 11.0));
                s.push(pt(1000 + i, (f * 5.7) % 13.0, (f * 2.9) % 11.0));
                if shared && i % 10 == 0 {
                    s.push(pt(2000 + i, (f * 7.3) % 13.0, (f * 2.9) % 11.0));
                }
            }
            for eps in [0.0, 0.5, 2.0, 20.0].into_iter().flat_map(|e| [e, -e]) {
                let pred = JoinPredicate::WithinDistance(eps);
                assert_eq!(
                    sorted(plane_sweep_join(&r, &s, &pred)),
                    sorted(nested_loop_join(&r, &s, &pred)),
                    "n={n} eps={eps}"
                );
            }
        }
    }

    #[test]
    fn duplicate_coordinates_handled() {
        let r = vec![pt(1, 1.0, 1.0), pt(2, 1.0, 1.0)];
        let s = vec![pt(7, 1.0, 1.0)];
        let pred = JoinPredicate::WithinDistance(0.0);
        assert_eq!(
            sorted(plane_sweep_join(&r, &s, &pred)),
            vec![(1, 7), (2, 7)]
        );
    }

    #[test]
    fn duplicate_keys_emit_in_input_order() {
        // The packed keys break ties on the original index, so objects
        // sharing min.x sweep in input order — pinned here so the order
        // is a contract, not an accident of the sort.
        let r = vec![pt(5, 2.0, 0.0), pt(3, 2.0, 1.0), pt(9, 2.0, 2.0)];
        let s = vec![pt(1, 2.0, 0.0)];
        let pred = JoinPredicate::WithinDistance(5.0);
        assert_eq!(
            plane_sweep_join(&r, &s, &pred),
            vec![(5, 1), (3, 1), (9, 1)]
        );
    }

    #[test]
    fn callback_sees_objects_not_just_ids() {
        let r = vec![pt(3, 0.0, 0.0)];
        let s = vec![pt(4, 0.1, 0.0)];
        let mut hits = 0;
        plane_sweep_pairs(&r, &s, &JoinPredicate::WithinDistance(1.0), |a, b| {
            assert_eq!((a.id, b.id), (3, 4));
            hits += 1;
        });
        assert_eq!(hits, 1);
    }
}
