//! The device's ε-grid kernel fans out over threads on large windows, one
//! run of R per available core, a count each deployment reads from the
//! machine once when it is built. Fanned out or not, a join's answer is the
//! nested-loop reference's. That the worker count changes neither the pairs
//! nor their order is pinned at the kernel (`asj_device::memjoin`'s unit
//! tests and `workers_keep_pairs_and_order_above_threshold` in
//! `crates/device/tests/proptests.rs`).

use adhoc_spatial_joins::prelude::*;
use asj_core::DeploymentBuilder;
use asj_geom::sweep::nested_loop_join;
use asj_workloads::default_space;

/// Large single-window joins actually engage the parallel kernel (the
/// input clears `PARALLEL_JOIN_THRESHOLD`), and the result is still exact.
#[test]
fn parallel_kernels_engage_on_large_windows_and_stay_exact() {
    let r = uniform(&default_space(), 2600, 3);
    let s = gaussian_clusters(&SyntheticSpec::new(default_space(), 2600, 4), 103);
    assert!(r.len() + s.len() >= asj_device::memjoin::PARALLEL_JOIN_THRESHOLD);
    let spec = JoinSpec::distance_join(60.0);
    let mut want = nested_loop_join(&r, &s, &spec.predicate);
    // Buffer 8000 lets NaiveJoin run one HBSJ over everything — a single
    // 5 200-object kernel invocation, well above the parallel threshold.
    let deployment = DeploymentBuilder::new(r, s)
        .with_buffer(8000)
        .with_space(default_space())
        .build();
    let mut got = NaiveJoin.run(&deployment, &spec).unwrap().pairs;
    assert!(!want.is_empty(), "non-vacuous");
    want.sort_unstable();
    got.sort_unstable();
    assert_eq!(got, want);
}
