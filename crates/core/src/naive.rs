//! The download-everything strawman.

use crate::deploy::Deployment;
use crate::exec::ExecCtx;
use crate::report::{JoinError, JoinReport};
use crate::spec::JoinSpec;
use crate::DistributedJoin;

/// "The simplest way to execute the spatial join is to download both
/// datasets to the PDA and perform the join there. In general, this is an
/// infeasible solution, since mobile devices have limited storage
/// capability." (Section 3.)
///
/// Faithfully infeasible: errors with [`JoinError::Buffer`] when the two
/// datasets exceed the device buffer instead of silently partitioning.
/// Two COUNT queries check feasibility before any download.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveJoin;

impl DistributedJoin for NaiveJoin {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn run(&self, deployment: &Deployment, spec: &JoinSpec) -> Result<JoinReport, JoinError> {
        let mut ctx = ExecCtx::new(deployment, spec);
        let space = ctx.space;
        let (count_r, count_s) = ctx.counts(&space);
        let total = (count_r + count_s) as usize;
        if total > ctx.buffer.capacity() {
            return Err(JoinError::Buffer(asj_device::BufferExceeded {
                requested: total,
                capacity: ctx.buffer.capacity(),
            }));
        }
        if count_r > 0 && count_s > 0 {
            ctx.hbsj_leaf(&space, None)?;
        }
        Ok(ctx.finish(self.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::DeploymentBuilder;
    use asj_geom::{Rect, SpatialObject};

    fn pts(n: u32, id0: u32) -> Vec<SpatialObject> {
        (0..n)
            .map(|i| SpatialObject::point(id0 + i, (i * 7 % 100) as f64, (i * 13 % 100) as f64))
            .collect()
    }

    #[test]
    fn joins_when_everything_fits() {
        let dep = DeploymentBuilder::new(pts(50, 0), pts(50, 0))
            .with_buffer(200)
            .with_space(Rect::from_coords(0.0, 0.0, 100.0, 100.0))
            .build();
        let rep = NaiveJoin.run(&dep, &JoinSpec::distance_join(0.0)).unwrap();
        assert_eq!(rep.pairs.len(), 50, "each point matches itself");
        // Exactly 2 COUNTs + 2 WINDOWs.
        assert_eq!(rep.aggregate_queries(), 2);
        assert_eq!(rep.link_r.window_queries + rep.link_s.window_queries, 2);
        assert_eq!(rep.objects_downloaded(), 100);
    }

    #[test]
    fn errors_when_buffer_too_small() {
        let dep = DeploymentBuilder::new(pts(50, 0), pts(50, 0))
            .with_buffer(99)
            .build();
        let err = NaiveJoin
            .run(&dep, &JoinSpec::distance_join(1.0))
            .unwrap_err();
        assert!(matches!(err, JoinError::Buffer(_)));
    }

    #[test]
    fn empty_side_short_circuits() {
        let dep = DeploymentBuilder::new(pts(50, 0), vec![])
            .with_buffer(200)
            .build();
        let rep = NaiveJoin.run(&dep, &JoinSpec::distance_join(1.0)).unwrap();
        assert!(rep.pairs.is_empty());
        assert_eq!(rep.objects_downloaded(), 0, "nothing downloaded");
    }
}
