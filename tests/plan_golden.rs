//! Every planner's plan, pinned by data.
//!
//! `plans.golden` holds one line per (case, algorithm) for GridJoin,
//! MobiJoin, UpJoin and SrJoin: the FNV-1a digest of the pairs in the
//! order they were emitted, both links' meters (non-zero fields only),
//! the peak buffer, the cost units, both generation windows and every
//! `ExecStats` field. A planner refactor that keeps every choice keeps
//! every line; one that moves a choice shows which case, which planner
//! and which number moved. `ASJ_WRITE_GOLDEN=1 cargo test --test
//! plan_golden` rewrites the file; do that only when a plan is meant to
//! change, and say which fields moved.
//!
//! The corpus is seeded: three dataset pairs (4 vs 4 Gaussian clusters,
//! uniform vs 16 clusters, two co-located tight clusters), buffers 60 and
//! 3000, ε 5 and 80, each run flat, with bucket NLSJ, and on 2 shards per
//! side with the client cache on. ε = 80 on the tight clusters is where
//! windows reach the recursion floor, so forced fallbacks (and UpJoin's
//! refreshes at the limit) are covered.

use adhoc_spatial_joins::prelude::*;
use asj_core::{DeploymentBuilder, ExecStats};
use asj_geom::sweep::nested_loop_join;
use asj_net::LinkSnapshot;
use asj_workloads::default_space;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/plans.golden");

/// Points per side.
const N: usize = 250;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `name=value` for every non-zero field of a snapshot's `Debug` form.
fn meter(snap: &LinkSnapshot) -> String {
    let debug = format!("{snap:?}");
    let body = debug
        .split_once('{')
        .and_then(|(_, rest)| rest.rsplit_once('}'))
        .map_or("", |(body, _)| body);
    body.split(',')
        .filter_map(|field| field.split_once(':'))
        .map(|(name, value)| (name.trim(), value.trim()))
        .filter(|&(_, value)| value != "0")
        .map(|(name, value)| format!("{name}={value}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn stats(s: &ExecStats) -> String {
    format!(
        "splits={} hbsj_runs={} nlsj_runs={} pruned_windows={} forced_fallbacks={} collapsed_pairs={:?} round_trips={}",
        s.splits,
        s.hbsj_runs,
        s.nlsj_runs,
        s.pruned_windows,
        s.forced_fallbacks,
        s.collapsed_pairs,
        s.round_trips
    )
}

fn datasets() -> Vec<(&'static str, Vec<SpatialObject>, Vec<SpatialObject>)> {
    let space = default_space();
    let clusters = |k: usize, seed: u64| gaussian_clusters(&SyntheticSpec::new(space, N, k), seed);
    // One tight cluster of 2N points, dealt out alternately: two datasets
    // at the same place with the same shape, and no shared point.
    let tight = gaussian_clusters(
        &SyntheticSpec::new(space, 2 * N, 1).with_sigma_fraction(0.002),
        5,
    );
    let deal = |parity: usize| -> Vec<SpatialObject> {
        tight
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(i, o)| SpatialObject {
                id: i as u32 / 2,
                ..*o
            })
            .collect()
    };
    vec![
        ("clusters4v4", clusters(4, 51), clusters(4, 52)),
        ("uniform_v16", uniform(&space, N, 3), clusters(16, 4)),
        ("colocated", deal(0), deal(1)),
    ]
}

fn algorithms() -> Vec<Box<dyn DistributedJoin>> {
    vec![
        Box::new(GridJoin::default()),
        Box::new(MobiJoin),
        Box::new(UpJoin::default()),
        Box::new(SrJoin::default()),
    ]
}

/// Runs the corpus; returns the golden lines and, per algorithm, the
/// `ExecStats` fields that were non-zero in some case.
fn corpus() -> (Vec<String>, Vec<(&'static str, [bool; 5])>) {
    let algorithms = algorithms();
    let mut lines = Vec::new();
    let mut seen: Vec<(&'static str, [bool; 5])> =
        algorithms.iter().map(|a| (a.name(), [false; 5])).collect();
    for (data, r, s) in datasets() {
        for eps in [5.0, 80.0] {
            let mut want = nested_loop_join(&r, &s, &JoinPredicate::WithinDistance(eps));
            want.sort_unstable();
            for buffer in [60, 3000] {
                for mode in ["flat", "bucket", "shards2_cache"] {
                    let mut builder = DeploymentBuilder::new(r.clone(), s.clone())
                        .with_buffer(buffer)
                        .with_space(default_space());
                    if mode == "shards2_cache" {
                        builder = builder.with_shards(2, 2).with_client_cache(true);
                    }
                    let dep = builder.build();
                    let spec = JoinSpec::distance_join(eps).with_bucket_nlsj(mode == "bucket");
                    for (alg, seen) in algorithms.iter().zip(seen.iter_mut()) {
                        let case = format!("{data} eps={eps} buffer={buffer} {mode}");
                        let rep = alg.run(&dep, &spec).expect("planners always run");
                        let mut got = rep.pairs.clone();
                        got.sort_unstable();
                        assert_eq!(
                            got,
                            want,
                            "{case} {}: pairs differ from the oracle",
                            alg.name()
                        );
                        let st = rep.stats;
                        let fields = [
                            st.splits,
                            st.pruned_windows,
                            st.forced_fallbacks,
                            st.nlsj_runs,
                            st.hbsj_runs,
                        ];
                        for (seen, n) in seen.1.iter_mut().zip(fields) {
                            *seen |= n > 0;
                        }
                        let digest = fnv1a(rep.pairs.iter().flat_map(|&(r, s)| {
                            r.to_le_bytes().into_iter().chain(s.to_le_bytes())
                        }));
                        lines.push(format!(
                            "{case} {} pairs={}:{digest:016x} r=[{}] s=[{}] peak={} cost={:?} gen={:?}/{:?} {}",
                            alg.name(),
                            rep.pairs.len(),
                            meter(&rep.link_r),
                            meter(&rep.link_s),
                            rep.peak_buffer,
                            rep.cost_units,
                            rep.generations_r,
                            rep.generations_s,
                            stats(&st),
                        ));
                    }
                }
            }
        }
    }
    (lines, seen)
}

#[test]
fn every_planner_report_equals_the_golden_file() {
    let (lines, seen) = corpus();
    let labels = [
        "splits",
        "pruned_windows",
        "forced_fallbacks",
        "nlsj_runs",
        "hbsj_runs",
    ];
    // MobiJoin forces only when the buffer refuses a leaf its counts said
    // fits, which exact counts on a frozen deployment never do: at the
    // recursion floor its `c4` is infinite and it picks HBSJ or NLSJ.
    let missing: Vec<String> = seen
        .iter()
        .flat_map(|(name, fields)| {
            labels
                .iter()
                .zip(fields)
                .filter(|(_, hit)| !**hit)
                .map(move |(label, _)| format!("{name} {label}"))
        })
        .filter(|missing| missing != "mobijoin forced_fallbacks")
        .collect();
    assert!(
        missing.is_empty(),
        "no case of the corpus has non-zero {missing:?}"
    );
    let text = lines.join("\n") + "\n";
    if std::env::var_os("ASJ_WRITE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &text).expect("write the golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("read the golden file");
    for (i, (want, got)) in golden.lines().zip(&lines).enumerate() {
        assert_eq!(got, want, "line {} of plans.golden", i + 1);
    }
    assert_eq!(
        golden.lines().count(),
        lines.len(),
        "plans.golden has another number of lines"
    );
}
