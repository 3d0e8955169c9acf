//! Edge-case integration tests: degenerate workloads and extreme
//! parameters that the sweeps never hit.

use adhoc_spatial_joins::prelude::*;
use asj_core::DeploymentBuilder;
use asj_geom::sweep::nested_loop_join;
use asj_workloads::default_space;

fn oracle(r: &[SpatialObject], s: &[SpatialObject], pred: &JoinPredicate) -> Vec<(u32, u32)> {
    let mut v = nested_loop_join(r, s, pred);
    v.sort_unstable();
    v
}

fn adaptive() -> Vec<Box<dyn DistributedJoin>> {
    vec![
        Box::new(MobiJoin),
        Box::new(UpJoin::default()),
        Box::new(SrJoin::default()),
        Box::new(GridJoin::default()),
    ]
}

fn check(r: Vec<SpatialObject>, s: Vec<SpatialObject>, buffer: usize, spec: &JoinSpec) {
    let want = oracle(&r, &s, &spec.predicate);
    let dep = DeploymentBuilder::new(r, s)
        .with_buffer(buffer)
        .with_space(default_space())
        .build();
    for alg in adaptive() {
        let rep = alg.run(&dep, spec).unwrap();
        let mut got = rep.pairs.clone();
        got.sort_unstable();
        assert_eq!(got, want, "{}", alg.name());
    }
}

#[test]
fn single_object_each_side() {
    let r = vec![SpatialObject::point(0, 5000.0, 5000.0)];
    let s = vec![SpatialObject::point(0, 5050.0, 5000.0)];
    check(r, s, 10, &JoinSpec::distance_join(100.0));
}

#[test]
fn single_objects_just_out_of_range() {
    let r = vec![SpatialObject::point(0, 5000.0, 5000.0)];
    let s = vec![SpatialObject::point(0, 5101.0, 5000.0)];
    check(r, s, 10, &JoinSpec::distance_join(100.0));
}

#[test]
fn an_empty_side_prunes_the_root_window_and_says_so() {
    // The two global COUNTs settle it: every adaptive algorithm prunes the
    // whole space on them and reports that one pruned window.
    let r: Vec<_> = (0..30)
        .map(|i| SpatialObject::point(i, 100.0 + i as f64 * 300.0, 4000.0))
        .collect();
    for (r, s) in [(r.clone(), Vec::new()), (Vec::new(), r)] {
        let dep = DeploymentBuilder::new(r, s)
            .with_space(default_space())
            .build();
        let algorithms: [Box<dyn DistributedJoin>; 3] = [
            Box::new(MobiJoin),
            Box::new(UpJoin::default()),
            Box::new(SrJoin::default()),
        ];
        for alg in algorithms {
            let rep = alg.run(&dep, &JoinSpec::distance_join(100.0)).unwrap();
            assert!(rep.pairs.is_empty(), "{}", alg.name());
            assert_eq!(rep.stats.pruned_windows, 1, "{}", alg.name());
            assert_eq!(rep.total_queries(), 2, "{}", alg.name());
            assert_eq!(rep.objects_downloaded(), 0, "{}", alg.name());
        }
    }
}

#[test]
fn eps_spanning_the_whole_space_is_a_cross_product() {
    // ε larger than the space diagonal: every pair qualifies.
    let r: Vec<_> = (0..20)
        .map(|i| SpatialObject::point(i, 100.0 + i as f64 * 400.0, 300.0))
        .collect();
    let s: Vec<_> = (0..15)
        .map(|i| SpatialObject::point(i, 200.0 + i as f64 * 600.0, 9000.0))
        .collect();
    let spec = JoinSpec::distance_join(20_000.0);
    let want = oracle(&r, &s, &spec.predicate);
    assert_eq!(want.len(), 300);
    check(r, s, 200, &spec);
}

#[test]
fn all_points_identical_position() {
    // Degenerate cluster at one spot, counts never shrink under
    // splitting — exercises the recursion-limit fallback.
    let r: Vec<_> = (0..150)
        .map(|i| SpatialObject::point(i, 4000.0, 4000.0))
        .collect();
    let s: Vec<_> = (0..150)
        .map(|i| SpatialObject::point(i, 4000.5, 4000.0))
        .collect();
    let spec = JoinSpec::distance_join(10.0);
    // Buffer smaller than the co-located mass: HBSJ can never fit.
    check(r, s, 100, &spec);
}

#[test]
fn zero_eps_distance_join_is_exact_touch() {
    let r = vec![
        SpatialObject::point(0, 1000.0, 1000.0),
        SpatialObject::point(1, 2000.0, 2000.0),
    ];
    let s = vec![
        SpatialObject::point(7, 1000.0, 1000.0), // exact coincidence
        SpatialObject::point(8, 2000.0, 2000.5),
    ];
    let spec = JoinSpec::distance_join(0.0);
    let want = oracle(&r, &s, &spec.predicate);
    assert_eq!(want, vec![(0, 7)]);
    check(r, s, 50, &spec);
}

#[test]
fn ids_may_collide_across_datasets() {
    // R and S id spaces are independent; pairs are (r_id, s_id).
    let r = vec![SpatialObject::point(42, 100.0, 100.0)];
    let s = vec![SpatialObject::point(42, 110.0, 100.0)];
    let spec = JoinSpec::distance_join(50.0);
    check(r, s, 10, &spec);
}

#[test]
fn objects_on_the_space_boundary() {
    let r = vec![
        SpatialObject::point(0, 0.0, 0.0),
        SpatialObject::point(1, 10_000.0, 10_000.0),
        SpatialObject::point(2, 0.0, 10_000.0),
    ];
    let s = vec![
        SpatialObject::point(0, 30.0, 0.0),
        SpatialObject::point(1, 10_000.0, 9950.0),
        SpatialObject::point(2, 40.0, 9980.0),
    ];
    check(r, s, 4, &JoinSpec::distance_join(100.0));
}

#[test]
fn iceberg_threshold_above_any_count_is_empty() {
    let r = vec![SpatialObject::point(0, 500.0, 500.0)];
    let s = vec![SpatialObject::point(0, 510.0, 500.0)];
    let dep = DeploymentBuilder::new(r, s)
        .with_buffer(100)
        .with_space(default_space())
        .build();
    let rep = SrJoin::default()
        .run(&dep, &JoinSpec::iceberg(100.0, 99))
        .unwrap();
    assert_eq!(rep.pairs.len(), 1);
    assert!(rep.iceberg.unwrap().qualifying.is_empty());
}

#[test]
fn intersection_join_of_nested_boxes() {
    let r = vec![
        SpatialObject::new(0, Rect::from_coords(1000.0, 1000.0, 5000.0, 5000.0)),
        SpatialObject::new(1, Rect::from_coords(6000.0, 6000.0, 6100.0, 6100.0)),
    ];
    let s = vec![
        SpatialObject::new(0, Rect::from_coords(2000.0, 2000.0, 3000.0, 3000.0)), // inside r0
        SpatialObject::new(1, Rect::from_coords(4999.0, 1000.0, 7000.0, 7000.0)), // overlaps both
        SpatialObject::new(2, Rect::from_coords(9000.0, 9000.0, 9100.0, 9100.0)), // disjoint
    ];
    check(r, s, 100, &JoinSpec::intersection_join());
}

#[test]
fn dialup_network_still_correct() {
    let r: Vec<_> = (0..60)
        .map(|i| {
            SpatialObject::point(
                i,
                100.0 + (i as f64 * 37.0) % 2000.0,
                150.0 + (i as f64 * 53.0) % 2000.0,
            )
        })
        .collect();
    let s: Vec<_> = (0..60)
        .map(|i| {
            SpatialObject::point(
                i,
                100.0 + (i as f64 * 29.0) % 2000.0,
                150.0 + (i as f64 * 41.0) % 2000.0,
            )
        })
        .collect();
    let spec = JoinSpec::distance_join(120.0);
    let want = oracle(&r, &s, &spec.predicate);
    let dep = DeploymentBuilder::new(r, s)
        .with_buffer(80)
        .with_space(default_space())
        .with_net(NetConfig::dialup())
        .build();
    for alg in adaptive() {
        let rep = alg.run(&dep, &spec).unwrap();
        let mut got = rep.pairs.clone();
        got.sort_unstable();
        assert_eq!(got, want, "{}", alg.name());
    }
}

#[test]
fn buffer_of_one_object_still_completes() {
    // HBSJ can never run; everything must go through streaming NLSJ.
    let r: Vec<_> = (0..25)
        .map(|i| SpatialObject::point(i, 4900.0 + i as f64 * 8.0, 5000.0))
        .collect();
    let s: Vec<_> = (0..25)
        .map(|i| SpatialObject::point(i, 4904.0 + i as f64 * 8.0, 5000.0))
        .collect();
    let spec = JoinSpec::distance_join(5.0);
    let want = oracle(&r, &s, &spec.predicate);
    let dep = DeploymentBuilder::new(r, s)
        .with_buffer(1)
        .with_space(default_space())
        .build();
    for alg in adaptive() {
        let rep = alg.run(&dep, &spec).unwrap();
        let mut got = rep.pairs.clone();
        got.sort_unstable();
        assert_eq!(got, want, "{}", alg.name());
        assert!(rep.peak_buffer <= 1, "{}", alg.name());
    }
}

#[test]
fn naive_reports_buffer_error_with_exact_numbers() {
    let r: Vec<_> = (0..30)
        .map(|i| SpatialObject::point(i, i as f64, 0.0))
        .collect();
    let dep = DeploymentBuilder::new(r.clone(), r)
        .with_buffer(59)
        .with_space(default_space())
        .build();
    match NaiveJoin.run(&dep, &JoinSpec::distance_join(1.0)) {
        Err(asj_core::JoinError::Buffer(b)) => {
            assert_eq!(b.requested, 60);
            assert_eq!(b.capacity, 59);
        }
        other => panic!("expected buffer error, got {other:?}"),
    }
}

/// A negative ε joins like its absolute value (the one meaning of ε in
/// `asj_core::spec`): 50 R points at x = 10 + 1.5·i and 50 S points half
/// a step to their right, all at y = 50, give the nested-loop reference's
/// 196 pairs at ε = −3 on all six algorithms, bucket NLSJ off and on.
#[test]
fn negative_eps_joins_like_its_absolute_value() {
    let row = |x0: f64| -> Vec<SpatialObject> {
        (0..50)
            .map(|i| SpatialObject::point(i, x0 + 1.5 * f64::from(i), 50.0))
            .collect()
    };
    let (r, s) = (row(10.0), row(10.75));
    let spec = JoinSpec::distance_join(-3.0);
    let want = oracle(&r, &s, &spec.predicate);
    assert_eq!(want.len(), 196);
    let dep = DeploymentBuilder::new(r, s)
        .with_space(Rect::from_coords(0.0, 0.0, 100.0, 100.0))
        .with_buffer(200)
        .cooperative()
        .build();
    let mut algorithms = adaptive();
    algorithms.push(Box::new(NaiveJoin));
    algorithms.push(Box::new(SemiJoin::default()));
    for bucket in [false, true] {
        for alg in &algorithms {
            let rep = alg.run(&dep, &spec.with_bucket_nlsj(bucket)).unwrap();
            let mut got = rep.pairs.clone();
            got.sort_unstable();
            assert_eq!(got, want, "{}, bucket NLSJ {bucket}", alg.name());
        }
    }
}
