//! SrJoin — Similarity Related Join (Section 4.2, Figure 5).

use crate::cost::CostModel;
use crate::exec::{Decision, ExecCtx, Policy, Window};

/// SrJoin compares the distributions of the **two datasets against each
/// other** instead of judging each in isolation (UpJoin's blind spot,
/// Figure 4: two equally-skewed but co-located datasets repartition
/// forever without pruning anything).
///
/// Per window (Fig. 5): COUNT the four quadrants of both datasets and
/// build two 4-bit *density bitmaps* — bit `i` set iff
/// `|Dwi| > ρ·(|Dw|/|Aw|)·|Awi|` (Eq. 11, density above a ρ-fraction of
/// the window average).
///
/// * **Bitmaps equal** → the distributions are similar; repartitioning
///   would not prune. Apply the cheaper of HBSJ/NLSJ per non-empty
///   quadrant (HBSJ decomposing recursively, with pruning, when the
///   buffer overflows).
/// * **Bitmaps differ** → expect more divergence below; recurse, unless
///   the quadrant is already cheap to finish (`< 3·Taq`, Fig. 5 line 16) —
///   the aggressive "repartitioning costs only its aggregate queries"
///   estimate.
#[derive(Debug, Clone, Copy)]
pub struct SrJoin {
    /// Density threshold ρ of Eq. (11) as a fraction of the window's
    /// average density. The paper tunes it in Fig. 6(b) and uses 30 %.
    pub rho: f64,
}

impl Default for SrJoin {
    fn default() -> Self {
        SrJoin { rho: 0.30 }
    }
}

impl SrJoin {
    /// SrJoin with a specific ρ (as a fraction, e.g. 0.3 for 30 %).
    pub fn with_rho(rho: f64) -> Self {
        assert!(rho > 0.0, "ρ must be positive");
        SrJoin { rho }
    }

    /// Density bitmap of one dataset over equal-area quadrants:
    /// `|Dwi| > ρ·|Dw|/4`.
    fn bitmap(&self, quadrant_counts: [f64; 4], total: f64) -> [bool; 4] {
        let threshold = self.rho * total / 4.0;
        quadrant_counts.map(|c| c > threshold)
    }
}

/// The bitmap verdict of the round that split a window's parent.
#[derive(Debug, Clone, Copy, Default)]
pub enum Verdict {
    /// The root: no round yet.
    #[default]
    Unjudged,
    /// Equal bitmaps: operate on the window.
    Similar,
    /// Different bitmaps: recurse unless the window is already cheap, by
    /// the discounted model the round was priced with.
    Divergent(CostModel),
}

impl Policy for SrJoin {
    const NAME: &'static str = "srjoin";
    type Note = Verdict;

    fn decide(&self, ctx: &mut ExecCtx, w: &mut Window<Verdict>) -> Decision<Verdict> {
        let (nlsj_side, nlsj_cost) = ctx.costs(&w.rect, w.count_r, w.count_s).cheaper_nlsj();
        let operate = match w.note {
            Verdict::Unjudged => false,
            // Similar distributions: no repartitioning (Fig. 5 lines 6–11).
            Verdict::Similar => true,
            // Divergent distributions: recurse hoping to prune, unless the
            // window is already cheap (Fig. 5 lines 12–19).
            Verdict::Divergent(cost) => {
                let cheap = cost.cheap_threshold();
                cost.c1_decomposed(w.count_r, w.count_s) < cheap || nlsj_cost < cheap
            }
        };
        if operate {
            // The cheaper of NLSJ and HBSJ, which decomposes recursively,
            // with pruning, when the window overflows the buffer.
            let c1d = ctx.decision_cost().c1_decomposed(w.count_r, w.count_s);
            return if c1d <= nlsj_cost {
                Decision::Hbsj
            } else {
                Decision::Nlsj(nlsj_side)
            };
        }
        if ctx.at_limit(&w.rect, w.depth) {
            return Decision::Forced;
        }
        let mut quadrants = ctx.quadrant_split(&w.rect, Verdict::Similar);
        let bit_r = self.bitmap(quadrants.map(|q| q.0), w.count_r);
        let bit_s = self.bitmap(quadrants.map(|q| q.1), w.count_s);
        if bit_r != bit_s {
            // One discounted-model snapshot prices the whole round.
            let divergent = Verdict::Divergent(ctx.decision_cost());
            for q in &mut quadrants {
                q.2 = divergent;
            }
        }
        Decision::Split(quadrants)
    }
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

    fn lattice(n: u32, step: f64, id0: u32) -> Vec<SpatialObject> {
        (0..n * n)
            .map(|i| {
                SpatialObject::point(
                    id0 + i,
                    (i % n) as f64 * step + 3.0,
                    (i / n) as f64 * step + 3.0,
                )
            })
            .collect()
    }

    fn space() -> Rect {
        Rect::from_coords(0.0, 0.0, 1000.0, 1000.0)
    }

    #[test]
    fn bitmap_thresholding() {
        let sr = SrJoin::default();
        // 1000 objects, ρ = 0.3 → threshold 75.
        assert_eq!(
            sr.bitmap([1000.0, 74.0, 76.0, 0.0], 1000.0),
            [true, false, true, false]
        );
        // All-equal quadrants of a uniform window are all dense.
        assert_eq!(sr.bitmap([250.0; 4], 1000.0), [true; 4]);
    }

    #[test]
    fn correct_on_clusters() {
        let r = cluster(120, 480.0, 500.0, 0, 1.5);
        let s = cluster(120, 490.0, 505.0, 5000, 1.5);
        let dep = DeploymentBuilder::new(r, s)
            .with_buffer(800)
            .with_space(space())
            .build();
        let spec = JoinSpec::distance_join(6.0);
        let mut want = NaiveJoin.run(&dep, &spec).unwrap().pairs;
        let mut got = SrJoin::default().run(&dep, &spec).unwrap().pairs;
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want);
        assert!(!want.is_empty());
    }

    #[test]
    fn correct_on_uniformish_data_small_buffer() {
        let r = lattice(20, 48.0, 0);
        let s = lattice(20, 48.0, 10_000);
        let dep = DeploymentBuilder::new(r, s)
            .with_buffer(100) // forces HBSJ decomposition
            .with_space(space())
            .build();
        let spec = JoinSpec::distance_join(10.0);
        let mut want: Vec<_> = {
            // Brute-force oracle (naive can't run with buffer 100).
            let r = lattice(20, 48.0, 0);
            let s = lattice(20, 48.0, 10_000);
            asj_geom::sweep::nested_loop_join(&r, &s, &spec.predicate)
        };
        let rep = SrJoin::default().run(&dep, &spec).unwrap();
        let mut got = rep.pairs.clone();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want);
        assert!(
            rep.peak_buffer <= 100,
            "buffer violated: {}",
            rep.peak_buffer
        );
    }

    #[test]
    fn disjoint_divergent_clusters_prune_immediately() {
        let r = cluster(500, 100.0, 100.0, 0, 0.5);
        let s = cluster(500, 900.0, 900.0, 5000, 0.5);
        let dep = DeploymentBuilder::new(r, s)
            .with_buffer(800)
            .with_space(space())
            .build();
        let rep = SrJoin::default()
            .run(&dep, &JoinSpec::distance_join(5.0))
            .unwrap();
        assert!(rep.pairs.is_empty());
        assert_eq!(rep.objects_downloaded(), 0);
        // 2 global + 8 quadrant counts, nothing else.
        assert_eq!(rep.aggregate_queries(), 10);
    }

    #[test]
    fn similar_co_located_clusters_do_not_recurse_forever() {
        // Figure 4's trap: both datasets clustered identically. Bitmaps
        // are equal at the top, so after that one round SrJoin must apply
        // operators instead of recursing.
        let r = cluster(400, 480.0, 480.0, 0, 2.0);
        let s = cluster(400, 482.0, 481.0, 5000, 2.0);
        let dep = DeploymentBuilder::new(r, s)
            .with_buffer(900)
            .with_space(space())
            .build();
        let spec = JoinSpec::distance_join(5.0);
        let rep = SrJoin::default().run(&dep, &spec).unwrap();
        assert_eq!(
            rep.stats.splits, 1,
            "similar distributions: one round at the root, none below"
        );
        let mut want = NaiveJoin.run(&dep, &spec).unwrap().pairs;
        let mut got = rep.pairs.clone();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want);
    }
}
