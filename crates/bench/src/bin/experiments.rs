//! CLI: regenerate the paper's figures.
//!
//! ```text
//! experiments [all | fig6a | fig6b | fig7a | fig7b | fig8a | fig8b |
//!              ablation-baselines | ablation-bucket | ablation-confirm |
//!              ablation-mtu | shard-scaling | cache-ablation | live-update |
//!              codec-v2]
//!             [--seeds N] [--points N] [--out DIR]
//! ```
//!
//! Tables print to stdout; CSVs land in `--out` (default `results/`).

use asj_bench::{all_experiments, experiment_by_name, Experiment};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut seeds: u64 = 10;
    let mut points: Option<usize> = None;
    let mut out_dir = String::from("results");
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => {
                seeds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seeds needs a number"));
            }
            "--points" => {
                points = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--points needs a number")),
                );
            }
            "--out" => {
                out_dir = it.next().unwrap_or_else(|| usage("--out needs a path"));
            }
            "--help" | "-h" => usage(""),
            other => which.push(other.to_string()),
        }
    }
    if which.is_empty() || which.iter().any(|w| w == "all") {
        which = all_experiments().iter().map(|e| e.id.to_string()).collect();
    }

    std::fs::create_dir_all(&out_dir).expect("cannot create output dir");
    for id in which {
        let exp: Experiment =
            experiment_by_name(&id).unwrap_or_else(|| usage(&format!("unknown experiment {id}")));
        eprintln!("running {id} ({seeds} seeds)…");
        let start = std::time::Instant::now();
        let table = exp.run_sized(seeds, points);
        println!("{}", table.render());
        println!("expected shape: {}\n", exp.expectation);
        let csv_path = format!("{out_dir}/{id}.csv");
        std::fs::write(&csv_path, table.to_csv()).expect("cannot write CSV");
        eprintln!(
            "{id} done in {:.1}s → {csv_path}",
            start.elapsed().as_secs_f64()
        );
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: experiments [all|fig6a|fig6b|fig7a|fig7b|fig8a|fig8b|ablation-*|shard-scaling|cache-ablation|live-update|codec-v2] \
         [--seeds N] [--points N] [--out DIR]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
