//! Cross-crate correctness: every distributed algorithm must produce
//! exactly the brute-force join result on every workload shape, buffer
//! size, predicate and NLSJ mode — the distributed machinery (grids,
//! extensions, pruning, duplicate avoidance, codecs, cost-driven operator
//! switching) must be invisible in the output.

use adhoc_spatial_joins::prelude::*;
use asj_core::DeploymentBuilder;
use asj_geom::sweep::nested_loop_join;
use asj_workloads::{default_space, RailSpec};

fn oracle(r: &[SpatialObject], s: &[SpatialObject], pred: &JoinPredicate) -> Vec<(u32, u32)> {
    let mut v = nested_loop_join(r, s, pred);
    v.sort_unstable();
    v
}

fn algorithms() -> Vec<Box<dyn DistributedJoin>> {
    vec![
        Box::new(GridJoin::default()),
        Box::new(MobiJoin),
        Box::new(UpJoin::default()),
        Box::new(SrJoin::default()),
    ]
}

/// Runs every algorithm on the given deployment and asserts the oracle
/// result. Returns total bytes per algorithm for sanity assertions.
fn assert_all_correct(
    r: Vec<SpatialObject>,
    s: Vec<SpatialObject>,
    buffer: usize,
    spec: &JoinSpec,
) -> Vec<(String, u64)> {
    let want = oracle(&r, &s, &spec.predicate);
    let dep = DeploymentBuilder::new(r, s)
        .with_buffer(buffer)
        .with_space(default_space())
        .build();
    let mut out = Vec::new();
    for alg in algorithms() {
        let rep = alg.run(&dep, spec).unwrap_or_else(|e| {
            panic!("{} failed: {e}", alg.name());
        });
        let mut got = rep.pairs.clone();
        got.sort_unstable();
        assert_eq!(
            got,
            want,
            "{} diverged from oracle (buffer={buffer}, spec={spec:?})",
            alg.name()
        );
        assert!(
            rep.peak_buffer <= buffer,
            "{} violated the device buffer: {} > {buffer}",
            alg.name(),
            rep.peak_buffer
        );
        out.push((alg.name().to_string(), rep.total_bytes()));
    }
    out
}

fn clusters(k: usize, n: usize, seed: u64) -> Vec<SpatialObject> {
    gaussian_clusters(&SyntheticSpec::new(default_space(), n, k), seed)
}

#[test]
fn skewed_distance_join_all_algorithms() {
    for seed in [1, 2] {
        let spec = JoinSpec::distance_join(100.0);
        assert_all_correct(
            clusters(1, 400, seed),
            clusters(1, 400, seed + 100),
            800,
            &spec,
        );
    }
}

#[test]
fn moderate_skew_all_algorithms() {
    let spec = JoinSpec::distance_join(100.0);
    assert_all_correct(clusters(8, 500, 3), clusters(8, 500, 103), 800, &spec);
}

#[test]
fn uniform_distance_join_all_algorithms() {
    let spec = JoinSpec::distance_join(100.0);
    assert_all_correct(clusters(128, 500, 4), clusters(128, 500, 104), 800, &spec);
}

#[test]
fn tiny_buffer_forces_decomposition() {
    let spec = JoinSpec::distance_join(100.0);
    assert_all_correct(clusters(4, 400, 5), clusters(4, 400, 105), 100, &spec);
}

#[test]
fn bucket_nlsj_mode() {
    let spec = JoinSpec::distance_join(100.0).with_bucket_nlsj(true);
    assert_all_correct(clusters(2, 400, 6), clusters(16, 400, 106), 300, &spec);
}

#[test]
fn asymmetric_cardinalities() {
    let spec = JoinSpec::distance_join(80.0);
    // |R| ≪ |S|: NLSJ with R outer should dominate; result must not care.
    assert_all_correct(clusters(2, 50, 7), clusters(32, 1000, 107), 600, &spec);
}

#[test]
fn uniform_datasets() {
    let spec = JoinSpec::distance_join(60.0);
    let r = uniform(&default_space(), 500, 8);
    let s = uniform(&default_space(), 500, 108);
    assert_all_correct(r, s, 800, &spec);
}

#[test]
fn identical_datasets_self_join_shape() {
    let spec = JoinSpec::distance_join(50.0);
    let d = clusters(4, 300, 9);
    assert_all_correct(d.clone(), d, 700, &spec);
}

#[test]
fn empty_and_disjoint_datasets() {
    let spec = JoinSpec::distance_join(100.0);
    // One side empty.
    let outcomes = assert_all_correct(clusters(2, 300, 10), Vec::new(), 800, &spec);
    for (name, bytes) in outcomes {
        // The fixed-grid baseline pays one COUNT per cell by construction;
        // the adaptive algorithms must bail out after the global COUNTs.
        let limit = if name == "grid" { 10_000 } else { 1000 };
        assert!(
            bytes < limit,
            "{name} wasted {bytes} bytes on an empty join"
        );
    }
}

#[test]
fn intersection_join_on_segment_mbrs() {
    let rail_small = germany_rail(
        &RailSpec {
            target_segments: 800,
            ..RailSpec::default()
        },
        11,
    );
    let boxes: Vec<SpatialObject> = clusters(8, 300, 12)
        .into_iter()
        .map(|o| {
            let c = o.center();
            SpatialObject::new(
                o.id,
                Rect::from_coords(
                    c.x,
                    c.y,
                    (c.x + 150.0).min(10_000.0),
                    (c.y + 150.0).min(10_000.0),
                ),
            )
        })
        .collect();
    let spec = JoinSpec::intersection_join();
    assert_all_correct(boxes, rail_small, 900, &spec);
}

#[test]
fn distance_join_on_segment_mbrs_with_hint() {
    let rail = germany_rail(
        &RailSpec {
            target_segments: 600,
            ..RailSpec::default()
        },
        13,
    );
    // Hint must cover the largest half-diagonal of the segment MBRs.
    let max_half = rail
        .iter()
        .map(|o| ((o.mbr.width().powi(2) + o.mbr.height().powi(2)).sqrt()) * 0.5)
        .fold(0.0f64, f64::max);
    let spec = JoinSpec::distance_join(100.0).with_mbr_half_extent(max_half);
    assert_all_correct(clusters(8, 400, 14), rail, 900, &spec);
}

#[test]
fn iceberg_semi_join_matches_oracle_counts() {
    let r = clusters(4, 300, 15);
    let s = clusters(8, 600, 115);
    let spec = JoinSpec::iceberg(150.0, 5);
    let want_pairs = oracle(&r, &s, &spec.predicate);
    let mut want_counts = std::collections::HashMap::new();
    for &(rid, _) in &want_pairs {
        *want_counts.entry(rid).or_insert(0u32) += 1;
    }
    let mut want: Vec<(u32, u32)> = want_counts.into_iter().filter(|&(_, c)| c >= 5).collect();
    want.sort_unstable();

    let dep = DeploymentBuilder::new(r, s)
        .with_buffer(800)
        .with_space(default_space())
        .build();
    for alg in algorithms() {
        let rep = alg.run(&dep, &spec).unwrap();
        let ice = rep.iceberg.expect("iceberg output requested");
        assert_eq!(ice.qualifying, want, "{} iceberg diverged", alg.name());
    }
}

#[test]
fn semijoin_against_cooperative_deployment() {
    let r = clusters(4, 200, 16);
    let s = clusters(16, 800, 116);
    let spec = JoinSpec::distance_join(100.0);
    let want = oracle(&r, &s, &spec.predicate);
    let dep = DeploymentBuilder::new(r, s)
        .with_buffer(5000)
        .with_space(default_space())
        .cooperative()
        .build();
    let rep = SemiJoin::default().run(&dep, &spec).unwrap();
    let mut got = rep.pairs.clone();
    got.sort_unstable();
    assert_eq!(got, want);
}

#[test]
fn naive_join_when_it_fits() {
    let r = clusters(4, 300, 17);
    let s = clusters(4, 300, 117);
    let spec = JoinSpec::distance_join(100.0);
    let want = oracle(&r, &s, &spec.predicate);
    let dep = DeploymentBuilder::new(r, s)
        .with_buffer(600)
        .with_space(default_space())
        .build();
    let mut got = NaiveJoin.run(&dep, &spec).unwrap().pairs;
    got.sort_unstable();
    assert_eq!(got, want);
}
