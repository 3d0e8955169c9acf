//! The repository's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! asj-benchmark [--seed N] [--seconds S | --quick] [--trace [0|1]] [--selfcheck | --spread RUNS]
//! asj-benchmark --workload W [--seed N] [--seconds S] [--trace [0|1]]
//! ```
//!
//! Without `--workload` every workload runs in a child process of its own
//! and the results are printed and written to `out/result.json`. With it,
//! this process runs the one workload and ends its standard output with
//! the one-line JSON result.

mod check;
mod data;
mod host;
mod measure;
mod metrics;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use check::Tally;
use measure::{Block, Recorder, Summary};
use report::Metric;
use workloads::WORKLOADS;

/// Set-ups timed per untraced run, at least; `setup_s` is their median.
/// A set-up that takes milliseconds is repeated until [`SETUP_MIN_S`] have
/// gone by, or its median would be mostly scheduling noise.
const SETUPS: usize = 5;
const SETUP_MIN_S: f64 = 0.5;
const SETUPS_MAX: usize = 100;
/// Blocks of a traced run's op loop: odd ones record spans, even ones do
/// not.
const TRACED_BLOCKS: usize = 8;
/// The seed reserved for held-out validation of later claims.
const DEFAULT_SEED: u64 = 7;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
    /// Set by the all-workloads parent on its children: the trace file is
    /// appended to, not started over, so one file holds the whole set.
    child: bool,
    /// Runs per workload of `--spread`, each with the next seed.
    spread: Option<usize>,
    benchmark_json: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(metrics::RUN_SECONDS),
        trace: false,
        selfcheck: false,
        child: false,
        spread: None,
        benchmark_json: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|w| w.0 == name) {
                    return Err(format!("unknown workload {name}"));
                }
                out.workload = Some(name);
            }
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--quick" => out.seconds = 1.0,
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--selfcheck" => out.selfcheck = true,
            "--child" => out.child = true,
            "--spread" => {
                let runs: usize = value("a number of runs")?
                    .parse()
                    .map_err(|e| format!("--spread: {e}"))?;
                if runs < 2 {
                    return Err("--spread needs at least 2 runs".into());
                }
                out.spread = Some(runs);
            }
            "--benchmark-json" => out.benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Builds the workload several times (once when tracing) and returns the
/// last build with the host-normalised median set-up time in seconds:
/// generate the inputs, `DeploymentBuilder::build`, first `connect()`, one
/// operation of every kind. A calibration run before and after every
/// set-up normalises it.
fn set_up(
    name: &str,
    seed: u64,
    plan: workloads::Plan,
    repeat: bool,
) -> (Box<dyn workloads::Workload>, f64) {
    let mut calib = host::Calibrator::new();
    let mut before = calib.read_ms(3);
    let mut seconds = Vec::new();
    let mut spent = 0.0;
    loop {
        let t0 = Instant::now();
        let mut w = workloads::build(name, seed, plan);
        w.warm();
        let took = t0.elapsed().as_secs_f64();
        let after = calib.read_ms(3);
        seconds.push(took * host::normalisation_scale(before, after));
        before = after;
        spent += took;
        let enough = seconds.len() >= SETUPS && spent >= SETUP_MIN_S;
        if !repeat || enough || seconds.len() == SETUPS_MAX {
            return (w, stats::median(&seconds));
        }
        // `w` drops here: its server threads and memory must not sit
        // beside the next build.
    }
}

fn end_to_end(summary: &Summary, setup_s: f64) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("op_ms", summary.op_ms, "ms"),
        Metric::new("ops_per_s", summary.ops_per_s, "1/s"),
        Metric::new("cpu_ms_per_op", summary.cpu_ms_per_op, "ms"),
        Metric::new("wire_bytes_per_op", summary.wire_bytes_per_op, "B"),
        Metric::new("peak_rss_mb", host::peak_rss_mib(), "MiB"),
    ]
}

/// The per-layer metrics of a traced run: the probes' unit costs, the op
/// loop's exact counters, and the attribution of op time to layers.
fn per_layer(
    name: &str,
    traced: &Summary,
    untraced: &Summary,
    costs: &probes::Costs,
    calib_ms: &[f64],
    timed_s: f64,
    tally: Tally,
) -> Vec<Metric> {
    let mut values: BTreeMap<String, f64> = costs.clone();
    let mut put = |k: &str, v: f64| {
        values.insert(k.to_string(), v);
    };
    let s = traced;
    put("update_ms", s.update_ms.unwrap_or(0.0));
    put("failed_op_share", tally.failed_share());
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    put(
        "net.router.scatter_width",
        ratio(s.counter("router.scattered"), s.counter("router.requests")),
    );
    put(
        "net.router.pruning_rate",
        ratio(
            s.counter("router.pruned"),
            s.counter("router.scattered") + s.counter("router.pruned"),
        ),
    );
    put("net.fault.retries_per_op", s.per_op("link.retried"));
    put("net.fault.failovers_per_op", s.per_op("link.failovers"));
    put(
        "net.health.breaker_trips_per_op",
        s.per_op("link.breaker_open"),
    );
    put(
        "net.cache.hit_rate",
        ratio(
            s.counter("cache.hits"),
            s.counter("cache.hits") + s.counter("cache.misses"),
        ),
    );
    put(
        "net.cache.bytes_saved_per_op",
        s.per_op("cache.bytes_saved"),
    );
    put("net.cache.evictions_per_op", s.per_op("cache.evictions"));
    for gauge in ["max_queue_depth", "fairness_ratio", "request_p99_us"] {
        put(
            &format!("net.event_loop.{gauge}"),
            s.observed(&format!("event_loop.{gauge}")),
        );
    }
    let kinds = workloads::kinds(name);
    for algo in metrics::ALGOS {
        // `live_session` runs each algorithm cold and warm: both count.
        let p50s: Vec<f64> = kinds
            .iter()
            .zip(&s.kind_p50_ms)
            .filter(|(k, _)| k.split('.').next() == Some(algo))
            .map(|(_, &ms)| ms)
            .collect();
        put(
            &format!("core.{algo}.join_ms"),
            if p50s.is_empty() {
                0.0
            } else {
                stats::geomean(&p50s)
            },
        );
        let ops = s.counter(&format!("core.{algo}.ops"));
        put(
            &format!("core.{algo}.queries_per_op"),
            ratio(s.counter(&format!("core.{algo}.queries")), ops),
        );
        put(
            &format!("core.{algo}.hbsj_runs_per_op"),
            ratio(s.counter(&format!("core.{algo}.hbsj_runs")), ops),
        );
    }
    put("host.calib_ms", stats::median(calib_ms));
    put(
        "host.calib_spread",
        (stats::percentile(calib_ms, 0.9) - stats::percentile(calib_ms, 0.1))
            / stats::median(calib_ms),
    );
    put("host.op_p90_ms", s.op_p90_ms);
    put("host.op_p99_ms_raw", s.op_p99_ms_raw);
    put(
        "host.trace_overhead_share",
        traced.op_ms / untraced.op_ms - 1.0,
    );
    put("host.timed_s", timed_s);
    for (share, v) in attribution(name, s, costs) {
        values.insert(format!("share.{share}"), v);
    }
    metrics::per_layer()
        .iter()
        .map(|m| Metric::new(m.name, values.get(m.name).copied().unwrap_or(0.0), m.unit))
        .collect()
}

/// Splits the mean operation time over the layers: exact per-op counts
/// from the meters times the probes' unit costs, the planner (`core`)
/// taking what is left.
fn attribution(name: &str, s: &Summary, costs: &probes::Costs) -> Vec<(&'static str, f64)> {
    let cost = |k: &str| costs.get(k).copied().unwrap_or(0.0);
    let stack = workloads::stack(name);
    let exchanges = s.per_op("link.count_queries") + s.per_op("link.object_queries");
    let objects = s.per_op("link.objects");
    let fleet = stack.full_fleet;
    let carrier = stack.carrier;
    let wire = if fleet { "v2" } else { "v1" };
    let server = exchanges * cost("server.handle_count_ns")
        + objects * cost("server.handle_window_ns_per_obj");
    let codec = exchanges * cost("net.codec.request_roundtrip_ns")
        + objects
            * (cost(&format!("net.codec.{wire}_encode_ns_per_obj"))
                + cost(&format!("net.codec.{wire}_decode_ns_per_obj")));
    let attempts = exchanges + s.per_op("link.retried") + s.per_op("link.failovers");
    let mut transport = attempts * cost(&format!("net.transport.{carrier}_exchange_ns"));
    if fleet {
        // Every join opens its links with a HELLO per physical edge.
        transport += cost("net.transport.connect_us") * 1e3;
    }
    let mut rungs = vec!["net.router.x1_added_ns", "net.router.x4_added_ns"];
    if fleet {
        rungs.extend([
            "net.router.x4r2_added_ns",
            "net.fault.noop_added_ns",
            "net.fault.retry_armed_added_ns",
            "net.fault.drops_added_ns",
            "net.health.breaker_added_ns",
        ]);
    }
    let router = s.per_op("router.requests") * rungs.iter().map(|r| cost(r)).sum::<f64>().max(0.0);
    let cache = s.per_op("cache.hits") * cost("net.cache.hit_ns")
        + s.per_op("cache.misses") * cost("net.cache.miss_added_ns").max(0.0);
    let device = if stack.device_in_op {
        objects * cost("device.leaf_ns_per_object")
            + s.per_op("join.pairs") * cost("device.leaf_ns_per_pair")
    } else {
        0.0
    };
    // Mean latency, not the median: the counts are means too.
    let op_ns = s.mean_op_ms * 1e6;
    let parts = [server, codec, transport, router, cache, device];
    let mut out: Vec<(&'static str, f64)> = metrics::SHARES
        .iter()
        .zip(parts)
        .map(|(&n, ns)| (n, ns / op_ns))
        .collect();
    let modelled: f64 = out.iter().map(|p| p.1).sum();
    out.push(("core", 1.0 - modelled));
    out
}

fn summarise_where(blocks: &[Block], traced: bool) -> Summary {
    let picked: Vec<&Block> = blocks.iter().filter(|b| b.traced == traced).collect();
    measure::summarise(&picked)
}

/// Runs one workload in this process.
fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    append: bool,
) -> (Tally, Vec<Metric>) {
    let plan = workloads::plan(name, seconds);
    let mut tracer = trace.then(|| trace::Tracer::new(name));
    let mut early = None;
    if let Some(t) = tracer.as_mut() {
        let mut p = probes::Probes::new(t);
        p.parallel_kernels(seed);
        early = Some((p.costs, p.big_leaf));
    }
    if workloads::pinned(name) {
        host::pin_or_warn();
    }
    let (mut workload, setup_s) = set_up(name, seed, plan, !trace);
    let mut tally = workload.verify();
    let blocks = if trace { TRACED_BLOCKS } else { plan.blocks };
    let mut rec = Recorder::new(workloads::kinds(name).len(), tracer);
    let t0 = Instant::now();
    let (blocks, calib) =
        measure::run_blocks(&mut rec, blocks, |rec| workload.run_block(rec, plan.passes));
    let timed_s = t0.elapsed().as_secs_f64();
    drop(workload);
    let all: Vec<&Block> = blocks.iter().collect();
    let summary = measure::summarise(&all);
    tally.absorb(summary.tally);
    if summary.min_samples_beyond_p90 < 10 {
        eprintln!(
            "warning: only {} samples beyond p90 on {name}; host.op_p90_ms is not a tail at this run length",
            summary.min_samples_beyond_p90
        );
    }
    let Some(mut tracer) = rec.tracer.take() else {
        return (tally, end_to_end(&summary, setup_s));
    };
    // The layer probes time single threads handing work to each other:
    // always on one CPU, whatever the workload's own rule.
    host::pin_or_warn();
    let mut p = probes::Probes::new(&mut tracer);
    (p.costs, p.big_leaf) = early.expect("a traced run ran the parallel probes");
    p.layers(seed);
    let costs = p.costs;
    let calib_ms: Vec<f64> = calib.iter().map(|c| c.ms).collect();
    let metrics = per_layer(
        name,
        &summarise_where(&blocks, true),
        &summarise_where(&blocks, false),
        &costs,
        &calib_ms,
        timed_s,
        tally,
    );
    let path = out_dir().join("trace.jsonl");
    if let Err(e) = tracer.write_jsonl(&path, append) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    (tally, metrics)
}

/// Runs `workload` in a child process and parses its result line.
fn run_child(workload: &str, args: &Args, trace: bool) -> Result<(Tally, Vec<Metric>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let child = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }, "--child"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    if !child.status.success() {
        return Err(format!("{workload} exited with {}", child.status));
    }
    let stdout = String::from_utf8_lossy(&child.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{workload} printed nothing"))?;
    report::parse_result_line(line).ok_or(format!("{workload} printed no result line"))
}

/// One full set of runs: every workload untraced and, with `trace`,
/// traced as well.
struct Set {
    end_to_end: Vec<(String, Tally, Vec<Metric>)>,
    per_layer: Vec<(String, Vec<Metric>)>,
}

fn run_set(args: &Args) -> Result<Set, String> {
    let mut set = Set {
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };
    if args.trace {
        // The children append their spans: start the file over.
        let _ = std::fs::remove_file(out_dir().join("trace.jsonl"));
    }
    for (name, _) in WORKLOADS {
        let (tally, metrics) = run_child(name, args, false)?;
        set.end_to_end.push((name.to_string(), tally, metrics));
        if args.trace {
            let (_, metrics) = run_child(name, args, true)?;
            set.per_layer.push((name.to_string(), metrics));
        }
    }
    Ok(set)
}

fn result_json(args: &Args, set: &Set) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"host\": {{\"seed\": {}, \"seconds\": {}, \"cpus\": {}, \"calib_ref_ms\": {}}},\n",
        args.seed,
        report::json_number(args.seconds),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        report::json_number(host::CALIB_REF_MS)
    ));
    out.push_str("  \"workloads\": {\n");
    let rows: Vec<String> = set
        .end_to_end
        .iter()
        .map(|(name, tally, metrics)| {
            let layers = set
                .per_layer
                .iter()
                .find(|(n, _)| n == name)
                .map_or("{}".to_string(), |(_, m)| report::metrics_object(m));
            format!(
                "    {}: {{\"attempted\": {}, \"failed\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
                report::json_string(name),
                tally.attempted,
                tally.failed,
                report::metrics_object(metrics),
                layers
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

/// `--selfcheck`: two sets of runs of this binary, every end-to-end
/// metric of every workload held against its bound.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let first = run_set(args)?;
    let second = run_set(args)?;
    let mut ok = true;
    println!("\nselfcheck: two sets of runs, seed {}", args.seed);
    for ((name, ta, a), (_, tb, b)) in first.end_to_end.iter().zip(&second.end_to_end) {
        println!(
            "{name}: failed {} of {} and {} of {}",
            ta.failed, ta.attempted, tb.failed, tb.attempted
        );
        ok &= ta.failed == 0 && tb.failed == 0 && ta.attempted == tb.attempted;
        for (ma, mb) in a.iter().zip(b) {
            let spec = metrics::END_TO_END
                .iter()
                .find(|m| m.name == ma.name)
                .expect("end-to-end metric");
            let diff = (mb.value - ma.value).abs() / ma.value;
            let within = diff <= spec.bound;
            ok &= within;
            println!(
                "  {:<18} {:>14.4} {:>14.4} {:<4} diff {:>6.2} %  bound {:>4.0} %  {}",
                ma.name,
                ma.value,
                mb.value,
                ma.unit,
                diff * 100.0,
                spec.bound * 100.0,
                if within { "ok" } else { "EXCEEDED" }
            );
        }
    }
    Ok(ok)
}

/// `--spread RUNS`: every workload `RUNS` times, each time with the next
/// seed, and for each end-to-end metric the distance between the first
/// and third quartile as a share of the median — the figure the acceptance
/// rule holds against a third of the metric's bound.
fn spread(args: &Args, runs: usize) -> Result<bool, String> {
    let mut ok = true;
    let only: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|w| w.0).collect(),
    };
    for name in only {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); metrics::END_TO_END.len()];
        for i in 0..runs {
            let seeded = Args {
                seed: args.seed + i as u64,
                ..args.clone()
            };
            let (tally, metrics) = run_child(name, &seeded, false)?;
            ok &= tally.failed == 0;
            for (slot, m) in values.iter_mut().zip(&metrics) {
                slot.push(m.value);
            }
        }
        println!(
            "{name}: {runs} runs, seeds {}..{}",
            args.seed,
            args.seed + runs as u64 - 1
        );
        for (spec, v) in metrics::END_TO_END.iter().zip(&values) {
            let spread = stats::quartile_spread(v);
            // The spread of `setup_s` is not held against its bound.
            let steady = spread <= spec.bound / 3.0 || spec.name == "setup_s";
            ok &= spread <= spec.bound || spec.name == "setup_s";
            println!(
                "  {:<18} median {:>14.4} {:<4} spread {:>5.2} %  bound {:>4.0} %  {}",
                spec.name,
                stats::median(v),
                spec.unit,
                spread * 100.0,
                spec.bound * 100.0,
                if steady {
                    "ok"
                } else {
                    "above a third of the bound"
                }
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: asj-benchmark [--workload W] [--seed N] [--seconds S | --quick] [--trace [0|1]] [--selfcheck | --spread RUNS]"
            );
            return ExitCode::from(2);
        }
    };
    if args.benchmark_json {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let (Some(name), None) = (&args.workload, args.spread) {
        let (tally, metrics) = run_workload(name, args.seed, args.seconds, args.trace, args.child);
        eprintln!(
            "{name}  seed {}  {}  failed {} of {}",
            args.seed,
            if args.trace { "traced" } else { "untraced" },
            tally.failed,
            tally.attempted
        );
        let layers = metrics::per_layer();
        let note = |metric: &str| {
            layers
                .iter()
                .find(|m| m.name == metric)
                .map_or("", |m| m.moves)
        };
        eprint!("{}", report::table(&metrics, note));
        println!("{}", report::result_line(tally, &metrics));
        return ExitCode::SUCCESS;
    }
    let outcome = if let Some(runs) = args.spread {
        spread(&args, runs)
    } else if args.selfcheck {
        selfcheck(&args)
    } else {
        run_set(&args).map(|set| {
            let path = out_dir().join("result.json");
            let written = std::fs::create_dir_all(out_dir())
                .and_then(|()| std::fs::write(&path, result_json(&args, &set)));
            match written {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
            }
            set.end_to_end.iter().all(|(_, tally, _)| tally.failed == 0)
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let a = args(&[
            "--workload",
            "rail_fleet",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("rail_fleet"), 42, 10.0, true)
        );
        assert!(
            !args(&["--workload", "rail_fleet", "--trace", "0"])
                .unwrap()
                .trace
        );
        // The flag form of the all-workloads command.
        let b = args(&["--trace", "--quick", "--seed", "1007"]).unwrap();
        assert_eq!(
            (b.trace, b.seconds, b.seed, b.workload),
            (true, 1.0, 1007, None)
        );
        assert_eq!(args(&[]).unwrap().seed, DEFAULT_SEED);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    #[test]
    fn result_json_holds_host_block_and_every_workload() {
        let set = Set {
            end_to_end: vec![(
                "rail_inproc".into(),
                Tally {
                    attempted: 10,
                    failed: 0,
                },
                vec![Metric::new("op_ms", 2.5, "ms")],
            )],
            per_layer: vec![(
                "rail_inproc".into(),
                vec![Metric::new("share.core", 0.25, "share")],
            )],
        };
        let json = result_json(&args(&[]).unwrap(), &set);
        assert!(json.starts_with("{\n  \"host\": {\"seed\": 7, \"seconds\": 10.0, \"cpus\": "));
        assert!(json.contains(
            "\"rail_inproc\": {\"attempted\": 10, \"failed\": 0, \
             \"end_to_end\": {\"op_ms\": {\"value\": 2.5, \"unit\": \"ms\"}}, \
             \"per_layer\": {\"share.core\": {\"value\": 0.25, \"unit\": \"share\"}}}"
        ));
    }
}
