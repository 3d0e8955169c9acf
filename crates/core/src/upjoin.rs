//! UpJoin — Uniform Partition Join (Section 4.1, Figure 3).

use asj_geom::Rect;
use rand::Rng;

use crate::deploy::Deployment;
use crate::exec::{ExecCtx, Side};
use crate::report::{JoinError, JoinReport};
use crate::spec::JoinSpec;
use crate::DistributedJoin;

/// UpJoin identifies regions where each dataset's distribution is
/// *relatively uniform* — there the cost model is accurate and a physical
/// operator can be chosen safely, without knowing future recursive steps.
///
/// Per window (Fig. 3):
/// 1. prune if either side is empty;
/// 2. for each dataset not already labelled uniform and worth more
///    statistics (inequality 10), COUNT the four quadrants and test
///    Eq. (9): every quadrant within `α·|Dw|` of `|Dw|/4`;
/// 3. a dataset passing the test is *confirmed* with one extra COUNT on a
///    quadrant-sized window at a random position (guards against, e.g., a
///    centered Gaussian masquerading as uniform);
/// 4. if HBSJ is cheapest: execute it when **both** datasets are uniform
///    and memory suffices, else repartition;
/// 5. if NLSJ is cheapest: execute it when the **inner** (larger) relation
///    is uniform — a skewed outer cannot prune anything from a uniform
///    inner — else repartition.
///
/// Datasets labelled uniform keep estimated `|Dw|/4` quadrant counts in
/// recursion instead of buying more aggregate queries.
#[derive(Debug, Clone, Copy)]
pub struct UpJoin {
    /// Uniformity tolerance α of Eq. (9). The paper tunes it in
    /// Fig. 6(a) and settles on 0.25.
    pub alpha: f64,
    /// Issue the confirming random COUNT (Fig. 3 line 6). On by default;
    /// the ablation bench switches it off.
    pub confirm_random: bool,
}

impl Default for UpJoin {
    fn default() -> Self {
        UpJoin {
            alpha: 0.25,
            confirm_random: true,
        }
    }
}

impl UpJoin {
    /// Examines one dataset over `w`: returns the quadrant views (real or
    /// estimated) and whether the dataset is (now) considered uniform.
    fn examine(
        &self,
        ctx: &mut ExecCtx<'_>,
        w: &Rect,
        quads: &[Rect; 4],
        side: Side,
        ds: DsView,
    ) -> ([DsView; 4], bool) {
        // Fig. 3 lines 3 & 7: small or previously-uniform datasets are
        // assumed uniform; quadrant counts are estimated, not queried.
        if ds.uniform || !ctx.decision_cost().worth_more_stats(ds.count) {
            let est = DsView {
                count: ds.count / 4.0,
                uniform: true,
                estimated: true,
            };
            return ([est; 4], true);
        }
        let real = ctx.quadrant_counts(side, quads);
        let quarter = ds.count / 4.0;
        // Eq. (9) tolerance. Two readings are possible from the paper
        // (α·|Dw| as printed, or α·|Dw|/4 relative to the expected quarter
        // count); we use the relative form — the printed one never lets
        // any α in Fig. 6(a)'s swept range change a verdict. On top of it
        // sits a 3·√|Dw| sampling-noise floor: a few hundred points
        // Poisson-fluctuate by more than α/4 of a quarter, and without
        // the floor every false "skewed" verdict triggers a cascade of
        // useless repartitioning on uniform data (the k = 128 regime).
        // The floor is capped just below the quarter so a (nearly) empty
        // quadrant — the actual pruning opportunity — always reads as
        // skewed.
        let tolerance = (self.alpha * ds.count / 4.0)
            .max(3.0 * ds.count.sqrt())
            .min(quarter * (1.0 - 1e-9));
        let passes_eq9 = real.iter().all(|&c| (quarter - c as f64).abs() < tolerance);
        let uniform = if !passes_eq9 {
            false
        } else if !self.confirm_random {
            true
        } else {
            // Fig. 3 line 6: one quadrant-sized COUNT at a random location.
            let probe = random_subwindow(ctx, w);
            let c = ctx.count(side, &probe) as f64;
            (quarter - c).abs() < tolerance
        };
        let views = real.map(|c| DsView {
            count: c as f64,
            uniform,
            estimated: false,
        });
        (views, uniform)
    }

    /// "Additional aggregate queries … only when accuracy is crucial,
    /// i.e., when applying the physical operators": replaces an estimated
    /// count with a real COUNT right before an operator fires.
    fn refresh(&self, ctx: &mut ExecCtx<'_>, w: &Rect, side: Side, ds: DsView) -> DsView {
        if !ds.estimated {
            return ds;
        }
        DsView {
            count: ctx.count(side, w) as f64,
            uniform: ds.uniform,
            estimated: false,
        }
    }

    fn step(&self, ctx: &mut ExecCtx<'_>, w: &Rect, r: DsView, s: DsView, depth: u32) {
        if r.count <= 0.0 || s.count <= 0.0 {
            ctx.stats.pruned_windows += 1;
            return;
        }
        if ctx.at_limit(w, depth) {
            let r = self.refresh(ctx, w, Side::R, r);
            let s = self.refresh(ctx, w, Side::S, s);
            if r.count > 0.0 && s.count > 0.0 {
                ctx.forced(w, r.count.round() as u64, s.count.round() as u64);
            }
            return;
        }
        let quads = w.quadrants();
        let (qr, r_uni) = self.examine(ctx, w, &quads, Side::R, r);
        let (qs, s_uni) = self.examine(ctx, w, &quads, Side::S, s);

        let costs = ctx.costs(w, r.count, s.count);
        let (nlsj_side, nlsj_cost) = costs.cheaper_nlsj();
        // Fig. 3 line 9 compares the *cost formulas*; the memory check is
        // a separate condition on line 10 ("…and there is enough memory").
        let hbsj_chosen = ctx.decision_cost().c1_unchecked(r.count, s.count) < nlsj_cost;
        // Don't buy another round of statistics (8 COUNTs ≈ one split)
        // when the chosen operator is already cheaper than two such
        // rounds — the Eq. (10) philosophy applied to repartitioning.
        let cheap_gate = 2.0 * ctx.stats_cost_per_split();

        // Stopping decision (on the possibly-estimated counts):
        // * HBSJ chosen → stop on doubly-uniform (or trivially cheap)
        //   windows — Fig. 3 lines 9–11;
        // * NLSJ chosen → stop unless the inner relation is skewed (a
        //   skewed inner means repartitioning may prune the probe space)
        //   — Fig. 3 lines 12–14; also stop when NLSJ already costs less
        //   than the statistics another round would buy.
        // Repartitioning is only worth its statistics when some quadrant
        // of either dataset is (nearly) empty — those are the "areas
        // which cannot possibly participate in the result" the paper
        // prunes. A skewed-but-everywhere-dense window (e.g. the rail
        // network under a uniform probe set) has nothing to prune, and
        // recursing over it would buy quadtrees of COUNTs for no savings.
        let prunable = (0..4).any(|i| {
            // Near-empty quadrant: pruning available right now; or strong
            // mass concentration (a quadrant 50 % above its share): the
            // complementary quadrants are draining, so emptiness is
            // likely one level down.
            qr[i].count <= 0.05 * (r.count / 4.0)
                || qs[i].count <= 0.05 * (s.count / 4.0)
                || qr[i].count >= 1.5 * (r.count / 4.0)
                || qs[i].count >= 1.5 * (s.count / 4.0)
        });
        let stop = if hbsj_chosen {
            (r_uni && s_uni) || costs.c1.is_some_and(|c1| c1 < cheap_gate) || !prunable
        } else {
            let inner_uniform = match nlsj_side {
                Side::R => s_uni,
                Side::S => r_uni,
            };
            inner_uniform || nlsj_cost < cheap_gate || !prunable
        };

        if stop {
            // "Accuracy is crucial" now: resolve estimates, then pick the
            // physical operator from the *real* costs.
            let r = self.refresh(ctx, w, Side::R, r);
            let s = self.refresh(ctx, w, Side::S, s);
            if r.count <= 0.0 || s.count <= 0.0 {
                ctx.stats.pruned_windows += 1;
                return;
            }
            let real = ctx.costs(w, r.count, s.count);
            let (real_side, real_nlsj) = real.cheaper_nlsj();
            if real.hbsj_wins()
                && ctx
                    .hbsj_leaf_counted(w, Some(s.count.round() as u64))
                    .is_ok()
            {
                return;
            }
            if ctx.decision_cost().c1_decomposed(r.count, s.count) < real_nlsj {
                // The window overflows the device but downloading it in
                // buffer-sized pieces still beats NLSJ: decompose with
                // plain COUNT-pruned HBSJ (real counts at every level) —
                // further uniformity analysis has nothing left to add.
                ctx.hbsj(w, r.count.round() as u64, s.count.round() as u64, depth);
                return;
            }
            ctx.nlsj(w, real_side);
            return;
        }
        // Repartition.
        ctx.stats.splits += 1;
        for i in 0..4 {
            self.step(ctx, &quads[i], qr[i], qs[i], depth + 1);
        }
    }
}

/// One dataset's view at the current window: its count (possibly an
/// estimate derived from an ancestor's count under the uniformity
/// assumption), whether it is labelled uniform, and whether the count is
/// estimated.
#[derive(Debug, Clone, Copy)]
struct DsView {
    count: f64,
    uniform: bool,
    estimated: bool,
}

/// A quadrant-sized window at a uniformly random position inside `w`.
fn random_subwindow(ctx: &mut ExecCtx<'_>, w: &Rect) -> Rect {
    let hw = w.width() * 0.5;
    let hh = w.height() * 0.5;
    let x = ctx.rng.random_range(w.min.x..=w.min.x + hw);
    let y = ctx.rng.random_range(w.min.y..=w.min.y + hh);
    Rect::from_coords(x, y, x + hw, y + hh)
}

impl DistributedJoin for UpJoin {
    fn name(&self) -> &'static str {
        "upjoin"
    }

    fn run(&self, deployment: &Deployment, spec: &JoinSpec) -> Result<JoinReport, JoinError> {
        let mut ctx = ExecCtx::new(deployment, spec);
        let space = ctx.space;
        let (count_r, count_s) = ctx.counts(&space);
        let view = |count: u64| DsView {
            count: count as f64,
            uniform: false,
            estimated: false,
        };
        self.step(&mut ctx, &space, view(count_r), view(count_s), 0);
        Ok(ctx.finish(self.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::DeploymentBuilder;
    use crate::naive::NaiveJoin;
    use asj_geom::SpatialObject;

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
    fn correct_on_clusters() {
        let r = cluster(120, 480.0, 500.0, 0, 1.5);
        let s = cluster(120, 490.0, 505.0, 5000, 1.5);
        let dep = DeploymentBuilder::new(r, s)
            .with_buffer(800)
            .with_space(space())
            .build();
        let spec = JoinSpec::distance_join(6.0);
        let mut want = NaiveJoin.run(&dep, &spec).unwrap().pairs;
        let mut got = UpJoin::default().run(&dep, &spec).unwrap().pairs;
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want);
        assert!(!want.is_empty());
    }

    #[test]
    fn correct_on_uniformish_data() {
        let r = lattice(20, 48.0, 0); // 400 points
        let s = lattice(20, 48.0, 10_000);
        let dep = DeploymentBuilder::new(r, s)
            .with_buffer(900)
            .with_space(space())
            .build();
        let spec = JoinSpec::distance_join(10.0);
        let mut want = NaiveJoin.run(&dep, &spec).unwrap().pairs;
        let mut got = UpJoin::default().run(&dep, &spec).unwrap().pairs;
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn prunes_disjoint_clusters_cheaply() {
        let r = cluster(500, 100.0, 100.0, 0, 0.5);
        let s = cluster(500, 900.0, 900.0, 5000, 0.5);
        let dep = DeploymentBuilder::new(r, s)
            .with_buffer(800)
            .with_space(space())
            .build();
        let rep = UpJoin::default()
            .run(&dep, &JoinSpec::distance_join(5.0))
            .unwrap();
        assert!(rep.pairs.is_empty());
        assert_eq!(rep.objects_downloaded(), 0);
        // 2 global + ≤ a few rounds of quadrant counts.
        assert!(
            rep.aggregate_queries() <= 30,
            "queries: {}",
            rep.aggregate_queries()
        );
    }

    #[test]
    fn uniform_dataset_detected_and_not_overpartitioned() {
        // A regular lattice passes Eq. (9) at the top level: UpJoin should
        // label both sides uniform, pick HBSJ (fits: 2×400 ≤ 900) and stop.
        let r = lattice(20, 48.0, 0);
        let s = lattice(20, 48.0, 10_000);
        let dep = DeploymentBuilder::new(r, s)
            .with_buffer(900)
            .with_space(space())
            .build();
        let rep = UpJoin::default()
            .run(&dep, &JoinSpec::distance_join(10.0))
            .unwrap();
        assert_eq!(rep.stats.hbsj_runs, 1);
        assert_eq!(rep.stats.splits, 0);
        // 2 global counts + 8 quadrant counts + 2 random confirms.
        assert_eq!(rep.aggregate_queries(), 12);
    }

    #[test]
    fn small_windows_assumed_uniform_without_stats() {
        // Tiny datasets (< the Eq. 10 threshold) must not trigger quadrant
        // counting: 2 global counts and then a physical operator.
        let r = cluster(10, 500.0, 500.0, 0, 1.0);
        let s = cluster(10, 502.0, 500.0, 100, 1.0);
        let dep = DeploymentBuilder::new(r, s)
            .with_buffer(800)
            .with_space(space())
            .build();
        let rep = UpJoin::default()
            .run(&dep, &JoinSpec::distance_join(4.0))
            .unwrap();
        assert_eq!(
            rep.aggregate_queries(),
            2,
            "no quadrant stats for tiny data"
        );
        assert!(!rep.pairs.is_empty());
    }
}
