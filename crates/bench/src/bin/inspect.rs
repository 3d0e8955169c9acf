//! Debug/inspection tool: run every algorithm once on a chosen workload
//! and print the full report breakdown (bytes by direction, query mix,
//! operator statistics; `dups` is what a live join's duplicate pass
//! removed, `-` where it did not run). Usage:
//!
//! ```text
//! inspect [--clusters K] [--seed N] [--buffer B] [--eps E] [--bucket]
//!         [--rail] [--sigma F]
//! ```

use asj_bench::runner::max_half_extent;
use asj_core::{DeploymentBuilder, DistributedJoin, JoinSpec, MobiJoin, SemiJoin, SrJoin, UpJoin};
use asj_workloads::{default_space, gaussian_clusters, germany_rail, RailSpec, SyntheticSpec};

fn main() {
    let mut clusters = 1usize;
    let mut seed = 7u64;
    let mut buffer = 800usize;
    let mut eps = 100.0f64;
    let mut bucket = false;
    let mut rail = false;
    let mut sigma = 0.025f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--clusters" => clusters = args.next().unwrap().parse().unwrap(),
            "--seed" => seed = args.next().unwrap().parse().unwrap(),
            "--buffer" => buffer = args.next().unwrap().parse().unwrap(),
            "--eps" => eps = args.next().unwrap().parse().unwrap(),
            "--sigma" => sigma = args.next().unwrap().parse().unwrap(),
            "--bucket" => bucket = true,
            "--rail" => rail = true,
            other => panic!("unknown arg {other}"),
        }
    }
    let space = default_space();
    let r = gaussian_clusters(
        &SyntheticSpec::new(space, 1000, clusters).with_sigma_fraction(sigma),
        seed,
    );
    let (s, hint) = if rail {
        let s = germany_rail(&RailSpec::default(), seed);
        let h = max_half_extent(&s);
        (s, h)
    } else {
        (
            gaussian_clusters(
                &SyntheticSpec::new(space, 1000, clusters).with_sigma_fraction(sigma),
                seed + 1000,
            ),
            0.0,
        )
    };
    let dep = DeploymentBuilder::new(r, s)
        .with_buffer(buffer)
        .with_space(space)
        .cooperative()
        .build();
    let spec = JoinSpec::distance_join(eps)
        .with_bucket_nlsj(bucket)
        .with_mbr_half_extent(hint);

    let algos: Vec<Box<dyn DistributedJoin>> = vec![
        Box::new(MobiJoin),
        Box::new(UpJoin::default()),
        Box::new(SrJoin::default()),
        Box::new(SemiJoin::default()),
    ];
    println!(
        "workload: clusters={clusters} seed={seed} buffer={buffer} eps={eps} bucket={bucket} rail={rail} sigma={sigma}"
    );
    println!(
        "{:>9} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "algo",
        "bytes",
        "pairs",
        "objs",
        "counts",
        "windows",
        "ranges",
        "splits",
        "hbsj",
        "dups",
        "nlsj",
        "pruned"
    );
    for a in algos {
        match a.run(&dep, &spec) {
            Ok(rep) => {
                let both = rep.link_r.plus(&rep.link_s);
                println!(
                    "{:>9} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
                    rep.algorithm,
                    rep.total_bytes(),
                    rep.pairs.len(),
                    rep.objects_downloaded(),
                    rep.aggregate_queries(),
                    both.window_queries,
                    both.range_queries + both.bucket_queries,
                    rep.stats.splits,
                    rep.stats.hbsj_runs,
                    rep.stats
                        .collapsed_pairs
                        .map_or_else(|| "-".to_string(), |n| n.to_string()),
                    rep.stats.nlsj_runs,
                    rep.stats.pruned_windows,
                )
            }
            Err(e) => println!("{:>9} error: {e}", a.name()),
        }
    }
}
