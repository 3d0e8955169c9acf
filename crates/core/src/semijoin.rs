//! SemiJoin — the indexed, cooperative baseline (Section 5.3, Tan et
//! al. \[16\]).

use crate::deploy::Deployment;
use crate::exec::{ExecCtx, Side};
use crate::report::{JoinError, JoinReport};
use crate::spec::JoinSpec;
use crate::DistributedJoin;
use asj_net::Request;

/// Distributed semi-join over published R-tree levels, with the PDA acting
/// as the mediator between two *cooperative* servers:
///
/// 1. identify the smaller dataset (one COUNT to each server);
/// 2. download one level of the **larger** dataset's R-tree MBRs (the
///    paper ships "the MBRs of the second to last level", i.e. the leaf
///    nodes) — through the device;
/// 3. upload those MBRs to the smaller server, which returns its objects
///    within ε of any MBR (the semi-join filter) — through the device;
/// 4. upload the filtered objects to the larger server, which performs
///    the final join — one ε-RANGE descent of its own R-tree per pushed
///    object, no copy of its dataset and no sort — and returns the
///    qualifying id pairs.
///
/// "In practice, SemiJoin cannot be applied in our problem, because the
/// servers are unlikely to publish the internal structures of their
/// indexes" — running it against a non-cooperative deployment returns
/// [`JoinError::Unsupported`]. It exists as the Figure 8(b) comparator.
#[derive(Debug, Clone, Copy, Default)]
pub struct SemiJoin {
    /// Which R-tree level to ship, in levels above the leaves
    /// (0 = leaf nodes, the paper's choice).
    pub level: u8,
}

impl DistributedJoin for SemiJoin {
    fn name(&self) -> &'static str {
        "semijoin"
    }

    fn run(&self, deployment: &Deployment, spec: &JoinSpec) -> Result<JoinReport, JoinError> {
        if !deployment.is_cooperative() {
            return Err(JoinError::Unsupported(
                "SemiJoin needs cooperative servers (deployment built without .cooperative())"
                    .into(),
            ));
        }
        let mut ctx = ExecCtx::new(deployment, spec);
        let space = ctx.space;
        let eps = ctx.spec.predicate.epsilon();

        // Step 1: sizes.
        let (count_r, count_s) = ctx.counts(&space);
        if count_r == 0 || count_s == 0 {
            return Ok(ctx.finish(self.name()));
        }
        let (small, large) = if count_r <= count_s {
            (Side::R, Side::S)
        } else {
            (Side::S, Side::R)
        };

        // Step 2: one R-tree level of the large dataset, via the device.
        let mbrs = ctx
            .request(large, &Request::CoopLevelMbrs(self.level))
            .into_rects();

        // Step 3: semi-join filter at the small server.
        let filtered = ctx
            .request(small, &Request::CoopFilterByMbrs { mbrs, eps })
            .into_objects();

        // Step 4: final join at the large server. Pairs come back as
        // (pushed_id, local_id) = (small, large), in pushed order.
        let pairs = ctx
            .request(
                large,
                &Request::CoopJoinPush {
                    objects: filtered,
                    eps,
                },
            )
            .into_pairs();
        for (small_id, large_id) in pairs {
            let (r, s) = match small {
                Side::R => (small_id, large_id),
                Side::S => (large_id, small_id),
            };
            ctx.out.push(r, s);
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
    fn refused_without_cooperation() {
        let dep = DeploymentBuilder::new(lattice(5, 10.0, 0), lattice(5, 10.0, 100))
            .with_space(space())
            .build();
        let err = SemiJoin::default()
            .run(&dep, &JoinSpec::distance_join(5.0))
            .unwrap_err();
        assert!(matches!(err, JoinError::Unsupported(_)));
    }

    #[test]
    fn matches_naive_result() {
        let r = lattice(8, 20.0, 0); // 64 points (small side)
        let s = lattice(20, 48.0, 10_000); // 400 points (large side)
        let dep = DeploymentBuilder::new(r, s)
            .with_buffer(2000)
            .with_space(space())
            .cooperative()
            .build();
        let spec = JoinSpec::distance_join(15.0);
        let mut want = NaiveJoin.run(&dep, &spec).unwrap().pairs;
        let mut got = SemiJoin::default().run(&dep, &spec).unwrap().pairs;
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want);
        assert!(!want.is_empty());
    }

    #[test]
    fn orientation_preserved_when_s_is_small() {
        let r = lattice(20, 48.0, 0); // large
        let s = lattice(8, 20.0, 10_000); // small
        let dep = DeploymentBuilder::new(r, s)
            .with_buffer(2000)
            .with_space(space())
            .cooperative()
            .build();
        let spec = JoinSpec::distance_join(15.0);
        let mut want = NaiveJoin.run(&dep, &spec).unwrap().pairs;
        let mut got = SemiJoin::default().run(&dep, &spec).unwrap().pairs;
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_side_cheap_exit() {
        let dep = DeploymentBuilder::new(lattice(5, 10.0, 0), vec![])
            .with_space(space())
            .cooperative()
            .build();
        let rep = SemiJoin::default()
            .run(&dep, &JoinSpec::distance_join(5.0))
            .unwrap();
        assert!(rep.pairs.is_empty());
        assert_eq!(rep.total_queries(), 2, "just the two COUNTs");
    }

    #[test]
    fn ships_mbrs_not_objects_of_large_side() {
        let r = lattice(4, 10.0, 0); // 16 points, small
        let s = lattice(30, 32.0, 10_000); // 900 points, large
        let dep = DeploymentBuilder::new(r, s)
            .with_buffer(5000)
            .with_space(space())
            .cooperative()
            .build();
        let rep = SemiJoin::default()
            .run(&dep, &JoinSpec::distance_join(10.0))
            .unwrap();
        // The large server never ships raw objects — only MBRs and pairs.
        assert_eq!(rep.link_s.objects_received, 0);
        assert!(rep.link_s.coop_queries >= 2); // level-MBRs + join-push
        assert!(rep.link_r.coop_queries == 1); // filter
    }
}
