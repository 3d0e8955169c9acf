//! UpJoin — Uniform Partition Join (Section 4.1, Figure 3).

use asj_geom::Rect;
use rand::Rng;

use crate::exec::{Decision, ExecCtx, Policy, Side, Window};

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

/// UpJoin's labels of one window's two sides, handed down by the split
/// that made the window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Labels {
    r: Label,
    s: Label,
}

/// One side's label: judged uniform (Eq. 9, or too small to be worth
/// more statistics), and whether the window's count is an `|Dw|/4`
/// estimate rather than a COUNT.
#[derive(Debug, Clone, Copy, Default)]
struct Label {
    uniform: bool,
    estimated: bool,
}

impl UpJoin {
    /// Examines one side over `w`: its quadrant counts (real or estimated)
    /// and its label below `w`.
    fn examine(
        &self,
        ctx: &mut ExecCtx,
        w: &Rect,
        side: Side,
        count: f64,
        label: Label,
    ) -> ([f64; 4], Label) {
        // Fig. 3 lines 3 & 7: small or previously-uniform datasets are
        // assumed uniform; quadrant counts are estimated, not queried.
        if label.uniform || !ctx.decision_cost().worth_more_stats(count) {
            let estimated = Label {
                uniform: true,
                estimated: true,
            };
            return ([count / 4.0; 4], estimated);
        }
        let real = ctx.quadrant_counts(side, &w.quadrants());
        let quarter = count / 4.0;
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
        let tolerance = (self.alpha * count / 4.0)
            .max(3.0 * count.sqrt())
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
        let label = Label {
            uniform,
            estimated: false,
        };
        (real.map(|c| c as f64), label)
    }
}

/// "Additional aggregate queries … only when accuracy is crucial, i.e.,
/// when applying the physical operators": replaces each estimated count
/// with a real COUNT right before an operator fires — both in one round
/// trip when both are estimates.
fn refresh(ctx: &ExecCtx, w: &mut Window<Labels>) {
    let (r, s) = (w.note.r.estimated, w.note.s.estimated);
    if r && s {
        let (count_r, count_s) = ctx.counts(&w.rect);
        (w.count_r, w.count_s) = (count_r as f64, count_s as f64);
    } else if r {
        w.count_r = ctx.count(Side::R, &w.rect) as f64;
    } else if s {
        w.count_s = ctx.count(Side::S, &w.rect) as f64;
    }
}

impl Policy for UpJoin {
    const NAME: &'static str = "upjoin";
    type Note = Labels;

    fn decide(&self, ctx: &mut ExecCtx, w: &mut Window<Labels>) -> Decision<Labels> {
        if ctx.at_limit(&w.rect, w.depth) {
            refresh(ctx, w);
            return Decision::Forced;
        }
        let (qr, r) = self.examine(ctx, &w.rect, Side::R, w.count_r, w.note.r);
        let (qs, s) = self.examine(ctx, &w.rect, Side::S, w.count_s, w.note.s);

        let costs = ctx.costs(&w.rect, w.count_r, w.count_s);
        let (nlsj_side, nlsj_cost) = costs.cheaper_nlsj();
        let cost = ctx.decision_cost();
        // Fig. 3 line 9 compares the *cost formulas*; the memory check is
        // a separate condition on line 10 ("…and there is enough memory").
        let hbsj_chosen = cost.c1_unchecked(w.count_r, w.count_s) < nlsj_cost;
        // Don't buy another round of statistics (8 COUNTs ≈ one split)
        // when the chosen operator is already cheaper than two such
        // rounds — the Eq. (10) philosophy applied to repartitioning.
        let cheap_gate = 2.0 * cost.split_stats_cost();

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
            qr[i] <= 0.05 * (w.count_r / 4.0)
                || qs[i] <= 0.05 * (w.count_s / 4.0)
                || qr[i] >= 1.5 * (w.count_r / 4.0)
                || qs[i] >= 1.5 * (w.count_s / 4.0)
        });
        let stop = if hbsj_chosen {
            (r.uniform && s.uniform) || costs.c1.is_some_and(|c1| c1 < cheap_gate) || !prunable
        } else {
            let inner_uniform = match nlsj_side {
                Side::R => s.uniform,
                Side::S => r.uniform,
            };
            inner_uniform || nlsj_cost < cheap_gate || !prunable
        };
        if !stop {
            return Decision::Split([0, 1, 2, 3].map(|i| (qr[i], qs[i], Labels { r, s })));
        }
        // "Accuracy is crucial" now: resolve estimates (a side refreshed
        // to zero prunes the window), then pick the physical operator
        // from the *real* costs. A window that overflows the device but
        // whose buffer-sized pieces still beat NLSJ is decomposed with
        // plain COUNT-pruned HBSJ — further uniformity analysis has
        // nothing left to add.
        refresh(ctx, w);
        let real = ctx.costs(&w.rect, w.count_r, w.count_s);
        let (real_side, real_nlsj) = real.cheaper_nlsj();
        if real.hbsj_wins() || ctx.decision_cost().c1_decomposed(w.count_r, w.count_s) < real_nlsj {
            Decision::Hbsj
        } else {
            Decision::Nlsj(real_side)
        }
    }
}

/// A quadrant-sized window at a uniformly random position inside `w`.
fn random_subwindow(ctx: &mut ExecCtx, w: &Rect) -> Rect {
    let hw = w.width() * 0.5;
    let hh = w.height() * 0.5;
    let x = ctx.rng.random_range(w.min.x..=w.min.x + hw);
    let y = ctx.rng.random_range(w.min.y..=w.min.y + hh);
    Rect::from_coords(x, y, x + hw, y + hh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::DeploymentBuilder;
    use crate::naive::NaiveJoin;
    use crate::spec::JoinSpec;
    use crate::DistributedJoin;
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
