//! Fixed-grid partition join with COUNT pruning.

use asj_geom::Grid;

use crate::deploy::Deployment;
use crate::exec::{ExecCtx, Side};
use crate::report::{JoinError, JoinReport};
use crate::spec::JoinSpec;
use crate::DistributedJoin;

/// The divide-and-conquer strawman of Section 3: impose a regular `k × k`
/// grid, COUNT both datasets per cell, skip cells where either side is
/// empty, and HBSJ the rest (recursively decomposing cells that overflow
/// the buffer).
///
/// Downloads every object in every non-prunable cell — "a drawback of the
/// partition-based technique is that it downloads all objects from both
/// datasets" — which is exactly why it makes a good ablation baseline for
/// the adaptive algorithms.
#[derive(Debug, Clone, Copy)]
pub struct GridJoin {
    /// Grid resolution per axis.
    pub k: u32,
}

impl Default for GridJoin {
    fn default() -> Self {
        GridJoin { k: 8 }
    }
}

impl GridJoin {
    pub fn new(k: u32) -> Self {
        assert!(k >= 1);
        GridJoin { k }
    }
}

impl DistributedJoin for GridJoin {
    fn name(&self) -> &'static str {
        "grid"
    }

    fn run(&self, deployment: &Deployment, spec: &JoinSpec) -> Result<JoinReport, JoinError> {
        let mut ctx = ExecCtx::new(deployment, spec);
        let grid = Grid::square(ctx.space, self.k);
        let cells: Vec<_> = grid.cells().collect();
        // All cells on R, then only the R-occupied cells on S: the 2k²
        // cell COUNTs are independent, so each server's travel together.
        let counts_r = ctx.window_counts(Side::R, &cells);
        let occupied: Vec<_> = cells
            .iter()
            .zip(&counts_r)
            .filter_map(|(cell, &count_r)| (count_r > 0).then_some(*cell))
            .collect();
        let mut counts_s = ctx.window_counts(Side::S, &occupied).into_iter();
        for (cell, count_r) in cells.iter().zip(counts_r) {
            // `hbsj` prunes a cell either side of which is empty; S is not
            // asked about a cell R left empty.
            let count_s = match count_r {
                0 => 0,
                _ => counts_s.next().expect("one S count per occupied cell"),
            };
            ctx.hbsj(cell, count_r, count_s, 0);
        }
        Ok(ctx.finish(self.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::DeploymentBuilder;
    use crate::naive::NaiveJoin;
    use asj_geom::{Rect, SpatialObject};

    fn cluster(n: u32, cx: f64, cy: f64, id0: u32) -> Vec<SpatialObject> {
        (0..n)
            .map(|i| SpatialObject::point(id0 + i, cx + (i % 10) as f64, cy + (i / 10) as f64))
            .collect()
    }

    fn space() -> Rect {
        Rect::from_coords(0.0, 0.0, 1000.0, 1000.0)
    }

    #[test]
    fn matches_naive_result() {
        let r = cluster(100, 100.0, 100.0, 0);
        let s = cluster(100, 103.0, 100.0, 1000);
        let dep = DeploymentBuilder::new(r, s)
            .with_buffer(800)
            .with_space(space())
            .build();
        let spec = JoinSpec::distance_join(5.0);
        let mut naive = NaiveJoin.run(&dep, &spec).unwrap().pairs;
        let mut grid = GridJoin::default().run(&dep, &spec).unwrap().pairs;
        naive.sort_unstable();
        grid.sort_unstable();
        assert_eq!(naive, grid);
        assert!(!naive.is_empty());
    }

    #[test]
    fn prunes_empty_regions() {
        // Clusters in opposite corners: almost every cell prunable.
        let r = cluster(100, 50.0, 50.0, 0);
        let s = cluster(100, 900.0, 900.0, 1000);
        let dep = DeploymentBuilder::new(r, s)
            .with_buffer(800)
            .with_space(space())
            .build();
        let rep = GridJoin::new(4)
            .run(&dep, &JoinSpec::distance_join(5.0))
            .unwrap();
        assert!(rep.pairs.is_empty());
        assert_eq!(
            rep.objects_downloaded(),
            0,
            "disjoint data → zero downloads"
        );
        assert!(rep.stats.pruned_windows >= 15);
    }

    #[test]
    fn grid_cheaper_than_naive_on_skewed_data() {
        let r = cluster(100, 50.0, 50.0, 0);
        let mut s = cluster(50, 52.0, 50.0, 1000);
        s.extend(cluster(50, 900.0, 900.0, 2000));
        let dep = DeploymentBuilder::new(r, s)
            .with_buffer(800)
            .with_space(space())
            .build();
        let spec = JoinSpec::distance_join(5.0);
        let naive = NaiveJoin.run(&dep, &spec).unwrap();
        let grid = GridJoin::default().run(&dep, &spec).unwrap();
        let mut a = naive.pairs.clone();
        let mut b = grid.pairs.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // Grid skips the lonely S cluster at (900,900).
        assert!(grid.objects_downloaded() < naive.objects_downloaded());
    }

    #[test]
    fn k1_degenerates_to_single_window() {
        let r = cluster(20, 100.0, 100.0, 0);
        let s = cluster(20, 100.0, 100.0, 1000);
        let dep = DeploymentBuilder::new(r, s)
            .with_buffer(800)
            .with_space(space())
            .build();
        let rep = GridJoin::new(1)
            .run(&dep, &JoinSpec::distance_join(2.0))
            .unwrap();
        assert_eq!(rep.stats.hbsj_runs, 1);
    }
}
