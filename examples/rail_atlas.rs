//! The paper's Figure 8 workload: join a large "real" dataset (the
//! ~35 000-segment synthetic stand-in for the German railway map) with a
//! small clustered point set — e.g. "find rail segments within 100 units
//! of a point of interest", with the servers deployed on their own
//! threads (the distributed topology of the prototype).
//!
//! ```text
//! cargo run --release --example rail_atlas
//! ```

use adhoc_spatial_joins::prelude::*;
use asj_core::DeploymentBuilder;
use asj_workloads::RailSpec;

fn main() {
    let space = Rect::from_coords(0.0, 0.0, 10_000.0, 10_000.0);
    let pois = gaussian_clusters(&SyntheticSpec::new(space, 1000, 4), 11);
    let rail = germany_rail(&RailSpec::default(), 11);
    println!(
        "datasets: {} points of interest, {} rail segments",
        pois.len(),
        rail.len()
    );

    // Window extension must cover the largest segment half-diagonal so
    // duplicate avoidance stays exact on MBR objects (see
    // `JoinSpec::with_mbr_half_extent`).
    let hint = rail
        .iter()
        .map(|o| o.mbr.width().hypot(o.mbr.height()) * 0.5)
        .fold(0.0f64, f64::max);

    // Servers as gauged endpoints (the in-process serve path with
    // per-endpoint gauges), cooperative so SemiJoin can run too.
    let dep = DeploymentBuilder::new(pois, rail)
        .with_space(space)
        .with_buffer(800)
        .cooperative()
        .threaded()
        .build();

    // Bucket ε-RANGE submission, as the paper uses for the real data.
    let spec = JoinSpec::distance_join(100.0)
        .with_bucket_nlsj(true)
        .with_mbr_half_extent(hint);

    println!("\nalgorithm   pairs    bytes  aggregate-queries  objects");
    let mut baseline_pairs: Option<usize> = None;
    for algo in [
        Box::new(SrJoin::default()) as Box<dyn DistributedJoin>,
        Box::new(UpJoin::default()),
        Box::new(MobiJoin),
        Box::new(SemiJoin::default()),
    ] {
        let rep = algo.run(&dep, &spec).expect("join failed");
        println!(
            "{:<10} {:>6} {:>8} {:>14} {:>10}",
            rep.algorithm,
            rep.pairs.len(),
            rep.total_bytes(),
            rep.aggregate_queries(),
            rep.objects_downloaded()
        );
        if let Some(p) = baseline_pairs {
            assert_eq!(p, rep.pairs.len(), "all algorithms must agree");
        }
        baseline_pairs = Some(rep.pairs.len());
    }
    println!(
        "\nNote: SemiJoin needs the cooperative extension the paper argues real\n\
         services refuse; it is shown as the Figure 8(b) comparator."
    );
}
