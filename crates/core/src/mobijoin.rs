//! MobiJoin — the prior art the paper improves on (Section 3.2, \[9\]).

use crate::exec::{Decision, ExecCtx, Policy, Window};

/// MobiJoin: COUNT both datasets for the current window, prune if either
/// is empty, otherwise estimate `c1…c4` and follow the cheapest action;
/// `c4` (repartition into a fixed 2×2 grid) is estimated under the
/// **uniformity heuristic** — "MobiJoin assumes that w is uniform and small
/// enough so that every subwindow will be processed by HBSJ after only one
/// partitioning".
///
/// That heuristic is the point: it reproduces the pathologies of Figure 2
/// (choosing NLSJ where one more split would prune everything; choosing a
/// barely-feasible HBSJ that downloads two overlapping clusters wholesale
/// when more memory is available), which Figures 7–8 then quantify.
/// The repartitioning grid is fixed at `k = 2` as in the paper: "each
/// recursive step (action c4) divides the space into a regular k × k grid,
/// where k is fixed to 2" (larger `k` inflates the aggregate-query
/// overhead, as Section 3.2 notes).
#[derive(Debug, Clone, Copy, Default)]
pub struct MobiJoin;

impl Policy for MobiJoin {
    const NAME: &'static str = "mobijoin";
    type Note = ();

    fn decide(&self, ctx: &mut ExecCtx, w: &mut Window<()>) -> Decision<()> {
        let costs = ctx.costs(&w.rect, w.count_r, w.count_s);
        let (nlsj_side, nlsj_cost) = costs.cheaper_nlsj();
        let c4 = if ctx.at_limit(&w.rect, w.depth) {
            f64::INFINITY // cannot repartition further
        } else {
            c4(ctx, w.count_r, w.count_s)
        };
        let best_known = costs.c1.map_or(nlsj_cost, |c1| c1.min(nlsj_cost));
        if c4 < best_known {
            Decision::Split(ctx.quadrant_split(&w.rect, ()))
        } else if costs.c1.is_some_and(|c1| c1 <= nlsj_cost) {
            Decision::Hbsj
        } else {
            Decision::Nlsj(nlsj_side)
        }
    }
}

/// MobiJoin's `c4(w)` — Equation (8) evaluated entirely under the
/// uniformity assumption (Section 3.2): quadrant counts are `|Dw|/4` at
/// every level, the space is split until those estimated quarters fit the
/// device buffer, and **every** resulting subwindow is assumed to finish
/// with one HBSJ. No queries are issued; the estimate is pure arithmetic.
///
/// This optimistic heuristic is the flaw Figures 2, 7 and 8 dissect: it
/// never anticipates pruning (so on a skewed-but-co-located pair it gladly
/// stops early and downloads everything the buffer can hold), and on a
/// huge inner dataset it prices repartitioning at full-download cost,
/// pushing MobiJoin into NLSJ "most of the time" (Fig. 8a).
fn c4(ctx: &ExecCtx, count_r: f64, count_s: f64) -> f64 {
    let capacity = ctx.buffer.capacity() as f64;
    let cost = ctx.decision_cost();
    let mut stats = 0.0;
    let mut windows_prev = 1.0; // windows being split at this level
    for level in 1..=12u32 {
        stats += cost.split_stats_cost() * windows_prev;
        let cells = 4f64.powi(level as i32);
        let (qr, qs) = (count_r / cells, count_s / cells);
        if qr + qs <= capacity || level == 12 {
            return stats + cells * cost.c1_unchecked(qr, qs);
        }
        windows_prev = cells;
    }
    unreachable!("loop always returns by level 12")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::DeploymentBuilder;
    use crate::naive::NaiveJoin;
    use crate::spec::JoinSpec;
    use crate::DistributedJoin;
    use asj_geom::{Rect, SpatialObject};

    fn cluster(n: u32, cx: f64, cy: f64, id0: u32, spread: f64) -> Vec<SpatialObject> {
        (0..n)
            .map(|i| {
                SpatialObject::point(
                    id0 + i,
                    cx + (i % 10) as f64 * spread,
                    cy + (i / 10) as f64 * spread,
                )
            })
            .collect()
    }

    fn space() -> Rect {
        Rect::from_coords(0.0, 0.0, 1000.0, 1000.0)
    }

    #[test]
    fn correct_on_overlapping_clusters() {
        let r = cluster(100, 500.0, 500.0, 0, 1.0);
        let s = cluster(100, 502.0, 500.0, 1000, 1.0);
        let dep = DeploymentBuilder::new(r, s)
            .with_buffer(800)
            .with_space(space())
            .build();
        let spec = JoinSpec::distance_join(4.0);
        let mut want = NaiveJoin.run(&dep, &spec).unwrap().pairs;
        let mut got = MobiJoin.run(&dep, &spec).unwrap().pairs;
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want);
        assert!(!want.is_empty());
    }

    #[test]
    fn prunes_disjoint_clusters() {
        let r = cluster(100, 100.0, 100.0, 0, 1.0);
        let s = cluster(100, 900.0, 900.0, 1000, 1.0);
        let dep = DeploymentBuilder::new(r, s)
            .with_buffer(150) // HBSJ on the whole space infeasible
            .with_space(space())
            .build();
        let rep = MobiJoin.run(&dep, &JoinSpec::distance_join(4.0)).unwrap();
        assert!(rep.pairs.is_empty());
        assert!(rep.stats.splits >= 1, "should have repartitioned");
        assert_eq!(rep.objects_downloaded(), 0, "everything prunable");
    }

    #[test]
    fn figure_2b_pathology_more_memory_more_bytes() {
        // Figure 2(b): R clusters in SW+NE, S clusters in SE+NE — only the
        // NE quadrant has both. With buffer 1200 MobiJoin must split, the
        // three single-sided quadrants prune, and only NE (500+500) is
        // downloaded. With buffer 2000 the whole space fits HBSJ and
        // MobiJoin downloads *everything*: more memory, more bytes.
        let mk_r = |id0: u32| {
            let mut v = cluster(500, 100.0, 100.0, id0, 0.5);
            v.extend(cluster(500, 850.0, 850.0, id0 + 500, 0.5));
            v
        };
        let mk_s = |id0: u32| {
            let mut v = cluster(500, 850.0, 100.0, id0, 0.5);
            v.extend(cluster(500, 851.0, 850.0, id0 + 500, 0.5));
            v
        };
        let spec = JoinSpec::distance_join(2.0);
        let small = DeploymentBuilder::new(mk_r(0), mk_s(10_000))
            .with_buffer(1200)
            .with_space(space())
            .build();
        let big = DeploymentBuilder::new(mk_r(0), mk_s(10_000))
            .with_buffer(2000)
            .with_space(space())
            .build();
        let rep_small = MobiJoin.run(&small, &spec).unwrap();
        let rep_big = MobiJoin.run(&big, &spec).unwrap();
        let mut a = rep_small.pairs.clone();
        let mut b = rep_big.pairs.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "results must agree regardless of buffer");
        assert!(
            rep_big.total_bytes() >= rep_small.total_bytes(),
            "the paper's 2(b) pathology: more memory should not help MobiJoin here \
             (small={}, big={})",
            rep_small.total_bytes(),
            rep_big.total_bytes()
        );
    }

    #[test]
    fn identical_tiny_datasets_single_hbsj() {
        let r = cluster(20, 500.0, 500.0, 0, 1.0);
        let dep = DeploymentBuilder::new(r.clone(), r)
            .with_buffer(800)
            .with_space(space())
            .build();
        let rep = MobiJoin.run(&dep, &JoinSpec::distance_join(2.0)).unwrap();
        assert_eq!(rep.stats.hbsj_runs, 1);
        assert_eq!(rep.stats.splits, 0, "tiny data: no repartitioning pays");
    }
}
