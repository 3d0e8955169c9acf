//! `wallclock` — the repository's wall-clock performance trajectory.
//!
//! The experiment binary measures *transferred bytes* (the paper's
//! metric); this one measures *CPU time* on the hot paths the byte
//! optimizations ride on: store backends (scan vs grid vs aR-tree), the
//! wire codec, the serial vs partitioned-parallel plane sweep, the
//! zero-copy window-serving path, the wire-v2 object codec, and
//! end-to-end join throughput against a threaded server. Results are
//! written as JSON (`BENCH_pr7.json` at the repo root by convention) so
//! later PRs have a baseline to regress against; the v2 codec entries
//! also carry the `BENCH_pr5.json` v1 anchors for cross-machine context.
//!
//! ```text
//! wallclock [--quick] [--out PATH]
//! ```
//!
//! `--quick` shrinks datasets and timing windows for CI; the **identity
//! check** (parallel sweep output ≡ serial sweep output, same pairs, same
//! order) runs in every mode and fails the process on divergence.
//!
//! Each `*_seedpath` benchmark re-implements the pre-optimization code
//! shape (materialize + growth-encode, window-materializing AvgArea) so
//! the reported speedups compare the shipped fast paths against what the
//! repository actually did before, measured on the same machine and data.

use std::time::{Duration, Instant};

use asj_bench::runner::max_half_extent;
use asj_core::{DeploymentBuilder, DistributedJoin, JoinSpec, SrJoin};
use asj_geom::{plane_sweep_join, plane_sweep_join_parallel, JoinPredicate, Rect};
use asj_net::codec::{self, encode_response};
use asj_net::{QueryHandler, Request, Response, Update};
use asj_server::{GridStore, RTreeStore, ScanStore, SpatialService, SpatialStore, VersionedStore};
use asj_workloads::{default_space, gaussian_clusters, uniform, SyntheticSpec};
use bytes::{BufMut, Bytes, BytesMut};
use criterion::{Criterion, Measurement};

struct Config {
    quick: bool,
    /// Objects per store backend.
    store_n: usize,
    /// Objects per sweep input side.
    sweep_n: usize,
    /// Sweep join distance.
    sweep_eps: f64,
    warmup: Duration,
    measure: Duration,
}

impl Config {
    fn new(quick: bool) -> Self {
        if quick {
            Config {
                quick,
                store_n: 8_000,
                sweep_n: 15_000,
                sweep_eps: 100.0,
                warmup: Duration::from_millis(20),
                measure: Duration::from_millis(80),
            }
        } else {
            Config {
                quick,
                store_n: 35_000,
                sweep_n: 26_000,
                sweep_eps: 100.0,
                warmup: Duration::from_millis(100),
                measure: Duration::from_millis(300),
            }
        }
    }
}

fn main() {
    let mut quick = false;
    let mut out = String::from("BENCH_pr7.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().unwrap_or_else(|| usage("--out needs a path")),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let cfg = Config::new(quick);
    let mut c = Criterion::default().with_windows(cfg.warmup, cfg.measure);

    eprintln!(
        "wallclock ({} mode): stores n={}, sweep n={}×{}",
        if quick { "quick" } else { "full" },
        cfg.store_n,
        cfg.sweep_n,
        cfg.sweep_n
    );
    let started = Instant::now();
    let sweep_pairs = bench_sweep(&mut c, &cfg);
    bench_stores(&mut c, &cfg);
    let codec_sizes = bench_codec(&mut c);
    bench_serving(&mut c, &cfg);
    bench_updates(&mut c, &cfg);
    bench_end_to_end(&mut c, &cfg);

    let speedups = speedups(c.measurements());
    for (label, baseline, fast, factor) in &speedups {
        println!("speedup {label:<28} {factor:>7.2}×   ({baseline} vs {fast})");
    }
    let json = render_json(&cfg, c.measurements(), &speedups, sweep_pairs, codec_sizes);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("cannot create the output directory");
    }
    std::fs::write(&out, json).expect("cannot write JSON output");
    eprintln!(
        "wallclock done in {:.1}s → {out}",
        started.elapsed().as_secs_f64()
    );
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("usage: wallclock [--quick] [--out PATH]");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Serial vs partitioned-parallel plane sweep on a ≥ 50 k-pair input.
/// Returns the pair count after asserting the identity check at several
/// worker counts — the hook CI relies on.
fn bench_sweep(c: &mut Criterion, cfg: &Config) -> usize {
    let space = default_space();
    let r = uniform(&space, cfg.sweep_n, 7);
    let s = uniform(&space, cfg.sweep_n, 1007);
    let pred = JoinPredicate::WithinDistance(cfg.sweep_eps);

    let serial = plane_sweep_join(&r, &s, &pred);
    assert!(
        serial.len() >= 50_000,
        "sweep workload too small to be meaningful: {} pairs",
        serial.len()
    );
    // The check hook: parallel output must be identical — same pairs,
    // same order — at every sampled worker count, in quick mode too.
    for workers in [2, 4, 8] {
        assert_eq!(
            plane_sweep_join_parallel(&r, &s, &pred, workers),
            serial,
            "parallel sweep diverged from serial at {workers} workers"
        );
    }
    eprintln!(
        "check: parallel sweep ≡ serial sweep ({} pairs) at 2/4/8 workers",
        serial.len()
    );

    c.bench_function("sweep/serial", |b| {
        b.iter(|| std::hint::black_box(plane_sweep_join(&r, &s, &pred)))
    });
    for workers in [2usize, 4] {
        c.bench_function(&format!("sweep/parallel_w{workers}"), |b| {
            b.iter(|| std::hint::black_box(plane_sweep_join_parallel(&r, &s, &pred, workers)))
        });
    }
    serial.len()
}

/// Store backends under the primitive query set.
fn bench_stores(c: &mut Criterion, cfg: &Config) {
    let space = default_space();
    let objs = uniform(&space, cfg.store_n, 1);
    let scan = ScanStore::new(objs.clone());
    let grid = GridStore::new(objs.clone());
    let tree = RTreeStore::new(objs.clone());
    // ~1 % of the space; clustered data would make this noisier.
    let w = Rect::from_coords(2000.0, 2000.0, 3000.0, 3000.0);
    let big = Rect::from_coords(500.0, 500.0, 9500.0, 9500.0);

    c.bench_function("store/scan_window_1pct", |b| {
        b.iter(|| std::hint::black_box(scan.window(&w)))
    });
    c.bench_function("store/grid_window_1pct", |b| {
        b.iter(|| std::hint::black_box(grid.window(&w)))
    });
    c.bench_function("store/rtree_window_1pct", |b| {
        b.iter(|| std::hint::black_box(tree.window(&w)))
    });
    c.bench_function("store/scan_count", |b| {
        b.iter(|| std::hint::black_box(scan.count(&big)))
    });
    c.bench_function("store/rtree_count_aggregate", |b| {
        b.iter(|| std::hint::black_box(tree.count(&big)))
    });
    // AvgArea: the seed path materialized the whole window just to fold
    // areas; the aR store now answers from (count, area_sum) aggregates.
    let inner = tree.tree();
    c.bench_function("store/rtree_avg_area_seedpath", |b| {
        b.iter(|| {
            let objs = inner.window(&big);
            std::hint::black_box(if objs.is_empty() {
                0.0
            } else {
                objs.iter().map(|o| o.mbr.area()).sum::<f64>() / objs.len() as f64
            })
        })
    });
    c.bench_function("store/rtree_avg_area_aggregate", |b| {
        b.iter(|| std::hint::black_box(tree.avg_area(&big)))
    });
}

/// The pre-PR response encoder: growth-allocated buffer, no exact
/// reserve — byte-identical output, different allocation behavior.
fn encode_response_seedpath(resp: &Response) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    match resp {
        Response::Objects(objs) => {
            buf.put_u8(0x81);
            buf.put_u32(objs.len() as u32);
            for o in objs {
                buf.put_u32(o.id);
                buf.put_f32(o.mbr.min.x as f32);
                buf.put_f32(o.mbr.min.y as f32);
                buf.put_f32(o.mbr.max.x as f32);
                buf.put_f32(o.mbr.max.y as f32);
            }
        }
        other => return encode_response(other),
    }
    buf.freeze()
}

/// Codec throughput: exact-reserve encode vs the seed growth encode, plus
/// the wire-v2 frame (delta-varint ids, window-quantized coordinates).
/// Returns `(v1_bytes, v2_bytes)` of the 1 k-object frame so the report
/// can state the measured density ratio next to the ns/object numbers.
fn bench_codec(c: &mut Criterion) -> (usize, usize) {
    let space = default_space();
    let objs = uniform(&space, 1000, 4);
    let resp = Response::Objects(objs.clone());
    assert_eq!(
        encode_response_seedpath(&resp),
        encode_response(&resp),
        "seed-path replica must stay byte-identical"
    );
    c.bench_function("codec/encode_1k_objects_seedpath", |b| {
        b.iter(|| std::hint::black_box(encode_response_seedpath(&resp)))
    });
    c.bench_function("codec/encode_1k_objects_exact_reserve", |b| {
        b.iter(|| std::hint::black_box(encode_response(&resp)))
    });
    let encoded = encode_response(&resp);
    c.bench_function("codec/decode_1k_objects", |b| {
        b.iter(|| std::hint::black_box(codec::decode_response(encoded.clone()).unwrap()))
    });

    // v2: every benched object sits inside the quantization window (the
    // whole space), mirroring a WINDOW download — the density headline.
    let ctx = codec::QuantCtx::new(space);
    let encode_v2 = || {
        let mut buf = BytesMut::new();
        codec::encode_response_versioned(&resp, codec::WireVersion::V2, ctx.as_ref(), &mut buf);
        buf.freeze()
    };
    let encoded_v2 = encode_v2();
    assert_eq!(
        codec::decode_response(encoded.clone()).unwrap(),
        codec::decode_response_ctx(encoded_v2.clone(), ctx.as_ref()).unwrap(),
        "v2 decode must be bit-equal to v1"
    );
    eprintln!(
        "check: v2 objects frame decodes bit-equal to v1 ({} B vs {} B, {:.2}× denser)",
        encoded_v2.len(),
        encoded.len(),
        encoded.len() as f64 / encoded_v2.len() as f64
    );
    c.bench_function("codec/codec_v2_encode_1k_objects", |b| {
        b.iter(|| std::hint::black_box(encode_v2()))
    });
    c.bench_function("codec/codec_v2_decode_1k_objects", |b| {
        b.iter(|| {
            std::hint::black_box(
                codec::decode_response_ctx(encoded_v2.clone(), ctx.as_ref()).unwrap(),
            )
        })
    });
    (encoded.len(), encoded_v2.len())
}

/// The window-serving allocations path: materialize-then-encode (seed)
/// vs the visitor zero-copy path with a reused buffer (what the channel
/// server now runs per request).
fn bench_serving(c: &mut Criterion, cfg: &Config) {
    let space = default_space();
    let objs = uniform(&space, cfg.store_n, 2);
    let svc = SpatialService::new(RTreeStore::new(objs));
    // A hot window: ~55 % of the dataset qualifies.
    let w = Rect::from_coords(1000.0, 1000.0, 8500.0, 8500.0);
    let req = Request::Window(w);
    {
        // Sanity: both paths produce the same bytes (the differential
        // suite proves it exhaustively; this pins the benched inputs).
        let mut buf = BytesMut::new();
        svc.handle_into(req.clone(), codec::WireVersion::V1, &mut buf);
        assert_eq!(
            &buf[..],
            encode_response(&svc.handle(req.clone())).as_slice()
        );
    }
    c.bench_function("serve/window_seedpath_materialize", |b| {
        b.iter(|| std::hint::black_box(encode_response_seedpath(&svc.handle(req.clone()))))
    });
    let mut buf = BytesMut::new();
    c.bench_function("serve/window_zerocopy_reused_buffer", |b| {
        b.iter(|| {
            buf.clear();
            svc.handle_into(req.clone(), codec::WireVersion::V1, &mut buf);
            std::hint::black_box(Bytes::copy_from_slice(&buf))
        })
    });
}

/// Generational stores: window serving through a `VersionedStore`
/// snapshot vs the frozen R-tree it wraps (the target is ≤ 5 % overhead —
/// a lock-free read plus two `Arc` bumps per query), and update-apply
/// throughput batched vs one-at-a-time (each apply is a copy-on-write
/// rebuild, so batching amortizes the rebuild across the batch).
fn bench_updates(c: &mut Criterion, cfg: &Config) {
    let space = default_space();
    let objs = uniform(&space, cfg.store_n, 3);
    let frozen = RTreeStore::new(objs.clone());
    let versioned = VersionedStore::new(objs.clone(), RTreeStore::new);
    let w = Rect::from_coords(2000.0, 2000.0, 3000.0, 3000.0);
    assert_eq!(
        frozen.window(&w),
        versioned.window(&w),
        "generation 0 must answer exactly like the frozen store"
    );

    c.bench_function("store/window_frozen_rtree", |b| {
        b.iter(|| std::hint::black_box(frozen.window(&w)))
    });
    c.bench_function("store/window_versioned_rtree", |b| {
        b.iter(|| std::hint::black_box(versioned.window(&w)))
    });

    // The same 32 moves applied as one tick vs 32 separate ticks.
    let batch: Vec<Update> = objs
        .iter()
        .take(32)
        .map(|o| Update::Move {
            id: o.id,
            to: o.mbr.expand(1.0),
        })
        .collect();
    c.bench_function("versioned/apply_batch32", |b| {
        b.iter(|| std::hint::black_box(versioned.apply(&batch)))
    });
    c.bench_function("versioned/apply_32_singly", |b| {
        b.iter(|| {
            for u in &batch {
                std::hint::black_box(versioned.apply(std::slice::from_ref(u)));
            }
        })
    });
}

/// End-to-end join throughput against a threaded server deployment.
fn bench_end_to_end(c: &mut Criterion, cfg: &Config) {
    let space = default_space();
    let n = if cfg.quick { 400 } else { 1000 };
    let r = gaussian_clusters(&SyntheticSpec::new(space, n, 4), 7);
    let s = gaussian_clusters(&SyntheticSpec::new(space, n, 4), 1007);
    let hint = max_half_extent(&s);
    let dep = DeploymentBuilder::new(r, s)
        .with_space(space)
        .with_buffer(800)
        .threaded()
        .build();
    let spec = JoinSpec::distance_join(100.0).with_mbr_half_extent(hint);
    c.bench_function("e2e/srjoin_threaded_server", |b| {
        b.iter(|| std::hint::black_box(SrJoin::default().run(&dep, &spec).unwrap().total_bytes()))
    });

    // The same join over the event-loop carrier: every request now rides
    // the shared reactor thread instead of a per-server thread pair. The
    // byte totals must agree — the carrier is unobservable in the
    // protocol — and the ns ratio says what the multiplexing costs.
    let (r2, s2) = {
        let r = gaussian_clusters(&SyntheticSpec::new(space, n, 4), 7);
        let s = gaussian_clusters(&SyntheticSpec::new(space, n, 4), 1007);
        (r, s)
    };
    let dep_ev = DeploymentBuilder::new(r2, s2)
        .with_space(space)
        .with_buffer(800)
        .event_loop()
        .build();
    let threaded_bytes = SrJoin::default().run(&dep, &spec).unwrap().total_bytes();
    let event_bytes = SrJoin::default().run(&dep_ev, &spec).unwrap().total_bytes();
    assert_eq!(
        threaded_bytes, event_bytes,
        "event-loop carrier changed the metered byte total"
    );
    eprintln!("check: event-loop e2e join ≡ threaded join ({event_bytes} bytes)");
    c.bench_function("e2e/srjoin_event_loop", |b| {
        b.iter(|| {
            std::hint::black_box(SrJoin::default().run(&dep_ev, &spec).unwrap().total_bytes())
        })
    });
}

/// The headline ratios later PRs regress against.
fn speedups(ms: &[Measurement]) -> Vec<(String, String, String, f64)> {
    let mean = |name: &str| -> Option<f64> {
        ms.iter()
            .find(|m| m.name == name)
            .map(|m| m.mean_ns)
            .filter(|&ns| ns > 0.0)
    };
    let pairs = [
        (
            "window_serving_zero_copy",
            "serve/window_seedpath_materialize",
            "serve/window_zerocopy_reused_buffer",
        ),
        (
            "avg_area_aggregates",
            "store/rtree_avg_area_seedpath",
            "store/rtree_avg_area_aggregate",
        ),
        (
            "count_aggregates_vs_scan",
            "store/scan_count",
            "store/rtree_count_aggregate",
        ),
        (
            "codec_exact_reserve",
            "codec/encode_1k_objects_seedpath",
            "codec/encode_1k_objects_exact_reserve",
        ),
        // The v2 frame trades CPU for wire density; these ratios say how
        // much. < 1.0 means v2 costs more CPU per 1 k objects than v1.
        (
            "codec_v2_encode",
            "codec/encode_1k_objects_exact_reserve",
            "codec/codec_v2_encode_1k_objects",
        ),
        (
            "codec_v2_decode",
            "codec/decode_1k_objects",
            "codec/codec_v2_decode_1k_objects",
        ),
        ("parallel_sweep_w4", "sweep/serial", "sweep/parallel_w4"),
        // ~1.0 expected: the reactor multiplexes instead of dedicating a
        // thread per server; per-request overhead should stay in the
        // channel-hop noise.
        (
            "threaded_vs_event_loop_e2e",
            "e2e/srjoin_event_loop",
            "e2e/srjoin_threaded_server",
        ),
        // ~1.0 expected: the versioned wrapper must stay within ~5 % of
        // the frozen store on the window-serving hot path.
        (
            "frozen_vs_versioned_window",
            "store/window_versioned_rtree",
            "store/window_frozen_rtree",
        ),
        (
            "update_apply_throughput",
            "versioned/apply_32_singly",
            "versioned/apply_batch32",
        ),
    ];
    pairs
        .iter()
        .filter_map(|(label, base, fast)| {
            Some((
                label.to_string(),
                base.to_string(),
                fast.to_string(),
                mean(base)? / mean(fast)?,
            ))
        })
        .collect()
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn render_json(
    cfg: &Config,
    ms: &[Measurement],
    speedups: &[(String, String, String, f64)],
    sweep_pairs: usize,
    codec_sizes: (usize, usize),
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"wallclock\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if cfg.quick { "quick" } else { "full" }
    ));
    out.push_str(&format!(
        "  \"config\": {{\"store_n\": {}, \"sweep_n\": {}, \"sweep_eps\": {}, \"measure_ms\": {}}},\n",
        cfg.store_n,
        cfg.sweep_n,
        cfg.sweep_eps,
        cfg.measure.as_millis()
    ));
    out.push_str(&format!(
        "  \"checks\": {{\"parallel_sweep_identical_to_serial\": true, \"sweep_pairs\": {sweep_pairs}}},\n"
    ));
    // The pr5 anchors let a reader compare the v2 codec's ns/object
    // against the recorded v1 trajectory even across machines.
    let (v1_bytes, v2_bytes) = codec_sizes;
    out.push_str(&format!(
        "  \"codec_v2\": {{\"objects\": 1000, \"v1_bytes\": {v1_bytes}, \"v2_bytes\": {v2_bytes}, \
         \"density_ratio\": {:.3}, \"pr5_v1_anchors_ns\": {{\
         \"encode_1k_objects_seedpath\": 30712.2, \
         \"encode_1k_objects_exact_reserve\": 30557.5, \
         \"decode_1k_objects\": 36197.4}}}},\n",
        v2_bytes as f64 / v1_bytes as f64
    ));
    out.push_str("  \"entries\": [\n");
    for (i, m) in ms.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"mean_ns\": {:.1}, \"iterations\": {}}}{}\n",
            json_escape(&m.name),
            m.mean_ns,
            m.iterations,
            if i + 1 == ms.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"speedups\": [\n");
    for (i, (label, base, fast, factor)) in speedups.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"baseline\": \"{}\", \"fast\": \"{}\", \"speedup\": {:.3}}}{}\n",
            json_escape(label),
            json_escape(base),
            json_escape(fast),
            factor,
            if i + 1 == speedups.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
