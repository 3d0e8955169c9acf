//! The measurement protocol: blocks of operations with calibration-kernel
//! runs interleaved, host-normalised samples, and the reduction of those
//! samples to the end-to-end metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::check::Tally;
use crate::host::{self, Calibrator};
use crate::stats;
use crate::trace::Tracer;

/// One kernel run is interleaved whenever this much time has been spent
/// inside operations since the last one. On the shared reference host the
/// speed of everything shifts by a quarter for seconds at a time and
/// jitters in between; samples every 100 ms follow that, samples at block
/// boundaries only (every 650 ms) left twice the run-to-run spread.
const CALIB_EVERY_MS: f64 = 100.0;
/// A timed interval is normalised by the median of this many kernel runs
/// either side of it.
const CALIB_NEIGHBOURS: usize = 2;

/// A calibration kernel run: when it started (seconds since the recorder's
/// epoch) and how long it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibSample {
    pub at_s: f64,
    pub ms: f64,
}

/// Factor for a time measured at `at_s`: the reference kernel time over
/// the median of the kernel runs nearest to it.
pub fn scale_at(samples: &[CalibSample], at_s: f64) -> f64 {
    let i = samples.partition_point(|s| s.at_s <= at_s);
    let lo = i.saturating_sub(CALIB_NEIGHBOURS);
    let hi = (i + CALIB_NEIGHBOURS).min(samples.len());
    let near: Vec<f64> = samples[lo..hi].iter().map(|s| s.ms).collect();
    host::CALIB_REF_MS / stats::median(&near)
}

/// What [`Recorder::timed`] measured around one closure.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub at_s: f64,
    pub wall_ms: f64,
    pub cpu_ms: f64,
}

/// A latency sample: when the operation started, its raw duration, and
/// the *cell* it belongs to — the join instance or device script it ran,
/// so that repetitions of the same operation can be told from different
/// operations of the same kind.
#[derive(Debug, Clone, Copy)]
struct Sample {
    at_s: f64,
    ms: f64,
    cell: usize,
}

/// Raw measurements of one block.
#[derive(Default)]
struct RawBlock {
    /// Per op kind.
    latencies: Vec<Vec<Sample>>,
    ticks: Vec<Timed>,
    /// Every timed interval: the block's busy and CPU time.
    intervals: Vec<Timed>,
    wire_bytes: u64,
    tally: Tally,
    counters: BTreeMap<String, f64>,
    observations: BTreeMap<String, Vec<f64>>,
    traced: bool,
}

/// Collects the measurements of a run. Workloads time operations through
/// [`Recorder::timed`] and account for them — after checking the answer,
/// outside the timed interval — with [`Recorder::finish_op`].
pub struct Recorder {
    epoch: Instant,
    calib: Calibrator,
    calib_log: Vec<CalibSample>,
    busy_since_calib_ms: f64,
    block: RawBlock,
    pub tracer: Option<Tracer>,
}

impl Recorder {
    pub fn new(kinds: usize, tracer: Option<Tracer>) -> Self {
        Recorder {
            epoch: Instant::now(),
            calib: Calibrator::new(),
            calib_log: Vec::new(),
            busy_since_calib_ms: 0.0,
            block: RawBlock {
                latencies: vec![Vec::new(); kinds],
                ..RawBlock::default()
            },
            tracer,
        }
    }

    fn calibrate(&mut self) {
        let at_s = self.epoch.elapsed().as_secs_f64();
        let ms = self.calib.run_ms();
        self.calib_log.push(CalibSample { at_s, ms });
        self.busy_since_calib_ms = 0.0;
    }

    fn active_tracer(&mut self) -> Option<&mut Tracer> {
        self.tracer.as_mut().filter(|_| self.block.traced)
    }

    /// Runs `f` between a CPU-time and a wall-clock sample (wall innermost
    /// so the CPU syscalls are not in it) and, in a traced block, records a
    /// span around it. The interval counts towards the block's busy and
    /// CPU time. A calibration run is slipped in first when one is due.
    pub fn timed<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> (T, Timed) {
        if self.busy_since_calib_ms >= CALIB_EVERY_MS {
            self.calibrate();
        }
        let span = self.active_tracer().map(|t| t.open(layer, name));
        let at_s = self.epoch.elapsed().as_secs_f64();
        let cpu0 = host::process_cpu_ms();
        let t0 = Instant::now();
        let out = f();
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let cpu_ms = host::process_cpu_ms() - cpu0;
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), span) {
            t.close(id, 1);
        }
        let timed = Timed {
            at_s,
            wall_ms,
            cpu_ms,
        };
        self.busy_since_calib_ms += wall_ms;
        self.block.intervals.push(timed);
        (out, timed)
    }

    /// Accounts for one finished operation of `kind` on `cell` that
    /// started at `at_s` and took `wall_ms`.
    pub fn finish_op(
        &mut self,
        kind: usize,
        cell: usize,
        at_s: f64,
        wall_ms: f64,
        ok: bool,
        wire_bytes: u64,
    ) {
        self.block.latencies[kind].push(Sample {
            at_s,
            ms: wall_ms,
            cell,
        });
        self.block.wire_bytes += wire_bytes;
        self.block.tally.record(ok);
    }

    /// Accounts for one update tick (timed with [`Recorder::timed`]).
    pub fn finish_tick(&mut self, t: Timed) {
        self.block.ticks.push(t);
    }

    /// Operations attempted and failed in the current block.
    pub fn tally(&self) -> Tally {
        self.block.tally
    }

    pub fn count(&mut self, counter: &str, by: f64) {
        match self.block.counters.get_mut(counter) {
            Some(slot) => *slot += by,
            None => {
                self.block.counters.insert(counter.to_string(), by);
            }
        }
    }

    /// A per-call reading (a fairness ratio, a request p99) that is
    /// reduced by a median, not a sum.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.block
            .observations
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    fn take_block(&mut self) -> RawBlock {
        let kinds = self.block.latencies.len();
        std::mem::replace(
            &mut self.block,
            RawBlock {
                latencies: vec![Vec::new(); kinds],
                ..RawBlock::default()
            },
        )
    }
}

/// One finished block; every time in it is host-normalised.
pub struct Block {
    pub latencies: Vec<Vec<f64>>,
    /// The cell of each sample in `latencies`.
    pub cells: Vec<Vec<usize>>,
    /// The same samples with the normalisation undone.
    pub raw_latencies: Vec<Vec<f64>>,
    pub ticks: Vec<f64>,
    pub busy_ms: f64,
    pub cpu_ms: f64,
    pub wire_bytes: u64,
    pub tally: Tally,
    pub counters: BTreeMap<String, f64>,
    pub observations: BTreeMap<String, Vec<f64>>,
    /// Whether spans were recorded around this block's operations.
    pub traced: bool,
    pub ops: u64,
}

impl Block {
    fn normalised(raw: RawBlock, calib: &[CalibSample]) -> Block {
        let per_kind = |f: &dyn Fn(&Sample) -> f64| -> Vec<Vec<f64>> {
            raw.latencies
                .iter()
                .map(|l| l.iter().map(f).collect())
                .collect()
        };
        Block {
            latencies: per_kind(&|s| s.ms * scale_at(calib, s.at_s)),
            cells: raw
                .latencies
                .iter()
                .map(|l| l.iter().map(|s| s.cell).collect())
                .collect(),
            raw_latencies: per_kind(&|s| s.ms),
            ticks: raw
                .ticks
                .iter()
                .map(|t| t.wall_ms * scale_at(calib, t.at_s))
                .collect(),
            busy_ms: raw
                .intervals
                .iter()
                .map(|t| t.wall_ms * scale_at(calib, t.at_s))
                .sum(),
            cpu_ms: raw
                .intervals
                .iter()
                .map(|t| t.cpu_ms * scale_at(calib, t.at_s))
                .sum(),
            wire_bytes: raw.wire_bytes,
            ops: raw.tally.attempted,
            tally: raw.tally,
            counters: raw.counters,
            observations: raw.observations,
            traced: raw.traced,
        }
    }
}

/// Runs one warm-up block and `blocks` timed ones and returns the timed
/// blocks, normalised, with the run's calibration samples. When the
/// recorder carries a tracer, odd blocks record spans and even ones do
/// not, so the traced and the untraced op loop a traced run compares saw
/// the same data during the same host minutes.
pub fn run_blocks(
    rec: &mut Recorder,
    blocks: usize,
    mut run_block: impl FnMut(&mut Recorder),
) -> (Vec<Block>, Vec<CalibSample>) {
    let mut raw = Vec::with_capacity(blocks);
    for _ in 0..CALIB_NEIGHBOURS {
        rec.calibrate();
    }
    // Block 0 is the warm-up; it is measured like the others and dropped.
    for index in 0..=blocks {
        rec.block.traced = rec.tracer.is_some() && index % 2 == 1;
        let span = rec.active_tracer().map(|t| t.open("bench", "block"));
        run_block(rec);
        if let (Some(t), Some(id)) = (rec.tracer.as_mut(), span) {
            t.close(id, 1);
        }
        let block = rec.take_block();
        if index > 0 {
            raw.push(block);
        }
    }
    for _ in 0..CALIB_NEIGHBOURS {
        rec.calibrate();
    }
    let calib = std::mem::take(&mut rec.calib_log);
    let blocks = raw
        .into_iter()
        .map(|b| Block::normalised(b, &calib))
        .collect();
    (blocks, calib)
}

/// The end-to-end view of a run's timed blocks.
pub struct Summary {
    /// Per op kind: median over blocks of the block's p50 latency, ms.
    pub kind_p50_ms: Vec<f64>,
    pub op_ms: f64,
    pub op_p90_ms: f64,
    /// Mean latency over every operation, ms: what per-op counts are held
    /// against when op time is attributed to layers.
    pub mean_op_ms: f64,
    pub ops_per_s: f64,
    pub cpu_ms_per_op: f64,
    pub wire_bytes_per_op: f64,
    /// Block-median latency of an update tick, ms; `None` on workloads
    /// without updates.
    pub update_ms: Option<f64>,
    /// p99 over every sample with the normalisation undone: a host
    /// diagnostic, too noisy to gate.
    pub op_p99_ms_raw: f64,
    pub tally: Tally,
    /// Fewest samples any kind has beyond its p90.
    pub min_samples_beyond_p90: usize,
    /// Counters summed over the blocks.
    pub counters: BTreeMap<String, f64>,
    /// Observations of the blocks, concatenated.
    pub observations: BTreeMap<String, Vec<f64>>,
    pub ops: u64,
}

impl Summary {
    /// A counter's total divided by the number of operations.
    pub fn per_op(&self, counter: &str) -> f64 {
        self.counter(counter) / self.ops as f64
    }

    pub fn counter(&self, counter: &str) -> f64 {
        self.counters.get(counter).copied().unwrap_or(0.0)
    }

    /// Median of an observation (0 when it was never taken).
    pub fn observed(&self, name: &str) -> f64 {
        self.observations
            .get(name)
            .map_or(0.0, |v| stats::median(v))
    }
}

pub fn summarise(blocks: &[&Block]) -> Summary {
    assert!(!blocks.is_empty(), "a run needs at least one timed block");
    let kinds = blocks[0].latencies.len();
    let mut kind_p50_ms = Vec::with_capacity(kinds);
    let mut kind_p90_ms = Vec::with_capacity(kinds);
    let mut min_beyond = usize::MAX;
    let mut raw = Vec::new();
    for k in 0..kinds {
        let per_block: Vec<f64> = blocks
            .iter()
            .filter(|b| !b.latencies[k].is_empty())
            .map(|b| stats::median(&b.latencies[k]))
            .collect();
        let p50 = stats::median(&per_block);
        kind_p50_ms.push(p50);
        // The tail: how much slower than its own median the slowest tenth
        // of operations ran. A kind's operations differ (each join
        // instance has its own cost), so every sample is first divided by
        // the median of its cell — the repetitions of that very
        // operation — and the p90 of those slowdowns scales the kind's p50.
        let mut by_cell: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for b in blocks {
            for (&ms, &cell) in b.latencies[k].iter().zip(&b.cells[k]) {
                by_cell.entry(cell).or_default().push(ms);
            }
        }
        let slowdowns: Vec<f64> = by_cell
            .values()
            .flat_map(|v| {
                let typical = stats::median(v);
                v.iter().map(move |ms| ms / typical)
            })
            .collect();
        kind_p90_ms.push(p50 * stats::percentile(&slowdowns, 0.9));
        min_beyond = min_beyond.min(slowdowns.len() / 10);
        raw.extend(
            blocks
                .iter()
                .flat_map(|b| b.raw_latencies[k].iter().copied()),
        );
    }
    let per_block = |f: &dyn Fn(&Block) -> f64| -> f64 {
        stats::median(&blocks.iter().map(|b| f(b)).collect::<Vec<f64>>())
    };
    let ticks: Vec<f64> = blocks
        .iter()
        .filter(|b| !b.ticks.is_empty())
        .map(|b| stats::median(&b.ticks))
        .collect();
    let mut tally = Tally::default();
    let mut counters: BTreeMap<String, f64> = BTreeMap::new();
    let mut observations: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for b in blocks {
        tally.absorb(b.tally);
        for (name, v) in &b.counters {
            *counters.entry(name.clone()).or_insert(0.0) += v;
        }
        for (name, v) in &b.observations {
            observations.entry(name.clone()).or_default().extend(v);
        }
    }
    let ops: u64 = blocks.iter().map(|b| b.ops).sum();
    Summary {
        op_ms: stats::geomean(&kind_p50_ms),
        op_p90_ms: stats::geomean(&kind_p90_ms),
        mean_op_ms: blocks
            .iter()
            .flat_map(|b| b.latencies.iter().flatten())
            .sum::<f64>()
            / ops as f64,
        kind_p50_ms,
        ops_per_s: per_block(&|b| b.ops as f64 / (b.busy_ms / 1e3)),
        cpu_ms_per_op: per_block(&|b| b.cpu_ms / b.ops as f64),
        wire_bytes_per_op: blocks.iter().map(|b| b.wire_bytes).sum::<u64>() as f64 / ops as f64,
        update_ms: (!ticks.is_empty()).then(|| stats::median(&ticks)),
        op_p99_ms_raw: stats::percentile(&raw, 0.99),
        tally,
        min_samples_beyond_p90: min_beyond,
        counters,
        observations,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(lat: Vec<Vec<f64>>, busy_ms: f64, cpu_ms: f64, bytes: u64) -> Block {
        let ops = lat.iter().map(Vec::len).sum::<usize>() as u64;
        Block {
            raw_latencies: lat
                .iter()
                .map(|l| l.iter().map(|x| x * 2.0).collect())
                .collect(),
            // Every sample a cell of its own kind-wide: one operation.
            cells: lat.iter().map(|l| vec![0; l.len()]).collect(),
            latencies: lat,
            ticks: vec![],
            busy_ms,
            cpu_ms,
            wire_bytes: bytes,
            tally: Tally {
                attempted: ops,
                failed: 0,
            },
            counters: BTreeMap::new(),
            observations: BTreeMap::new(),
            traced: false,
            ops,
        }
    }

    #[test]
    fn op_ms_is_the_geomean_of_block_median_p50s() {
        // Kind 0: block p50s 1, 2, 30 → median 2. Kind 1: 8, 8, 8 → 8.
        let blocks = [
            block(vec![vec![1.0; 3], vec![8.0; 3]], 27.0, 27.0, 600),
            block(vec![vec![2.0; 3], vec![8.0; 3]], 30.0, 15.0, 600),
            block(vec![vec![30.0; 3], vec![8.0; 3]], 114.0, 114.0, 600),
        ];
        let s = summarise(&blocks.iter().collect::<Vec<_>>());
        assert_eq!(s.kind_p50_ms, vec![2.0, 8.0]);
        assert!((s.op_ms - 4.0).abs() < 1e-12);
        assert!((s.mean_op_ms - (3.0 * 33.0 + 9.0 * 8.0) / 18.0).abs() < 1e-12);
        // Block medians: one disturbed block moves neither rate nor CPU.
        assert!((s.ops_per_s - 6.0 / 0.030).abs() < 1e-9);
        assert!((s.cpu_ms_per_op - 27.0 / 6.0).abs() < 1e-12);
        assert_eq!(s.wire_bytes_per_op, 100.0);
        assert_eq!(s.update_ms, None);
        assert_eq!(s.tally.attempted, 18);
        // The raw diagnostic reads the un-normalised samples.
        assert_eq!(s.op_p99_ms_raw, 60.0);
        assert_eq!(s.min_samples_beyond_p90, 0);
    }

    #[test]
    fn p90_is_the_tail_of_each_operations_own_slowdown() {
        // Two operations of one kind: a cheap one (1 ms) and a dear one
        // (10 ms), ten repetitions each, one repetition in ten 50 % slow.
        let mut b = block(vec![vec![]], 0.0, 0.0, 0);
        for rep in 0..20 {
            let slow = if rep % 10 == 9 { 1.5 } else { 1.0 };
            b.latencies[0].extend([1.0 * slow, 10.0 * slow]);
            b.raw_latencies[0].extend([1.0, 10.0]);
            b.cells[0].extend([0, 1]);
        }
        b.ops = 40;
        let s = summarise(&[&b]);
        // The middle of 18 × 1, 2 × 1.5, 18 × 10, 2 × 15.
        assert_eq!(s.kind_p50_ms, vec![5.75]);
        // Pooled, the p90 would be the dear operation's ordinary 10 ms;
        // per cell it is the 10 % of repetitions that ran slow.
        let p90_slowdown = stats::percentile(&[vec![1.0; 36], vec![1.5; 4]].concat(), 0.9);
        assert!((s.op_p90_ms - 5.75 * p90_slowdown).abs() < 1e-12);
        assert!(s.op_p90_ms < 10.0);
        assert_eq!(s.min_samples_beyond_p90, 4);
    }

    #[test]
    fn a_time_is_scaled_by_the_kernel_runs_around_it() {
        let at = |at_s: f64, ms: f64| CalibSample { at_s, ms };
        // The host slows down by half between t = 2 and t = 3.
        let log = [
            at(0.0, 12.0),
            at(1.0, 12.0),
            at(2.0, 12.0),
            at(3.0, 24.0),
            at(4.0, 24.0),
            at(5.0, 24.0),
        ];
        assert_eq!(scale_at(&log, 1.5), 1.0);
        assert_eq!(scale_at(&log, 4.5), 0.5);
        // Across the change: median of 12, 12, 24, 24.
        assert!((scale_at(&log, 2.5) - 12.0 / 18.0).abs() < 1e-12);
        // Before the first and after the last run, the nearest ones.
        assert_eq!(scale_at(&log, -1.0), 1.0);
        assert_eq!(scale_at(&log, 9.0), 0.5);
        // One kernel run that took a scheduling hit moves nothing.
        let hiccup = [at(0.0, 12.0), at(1.0, 40.0), at(2.0, 12.0), at(3.0, 12.0)];
        assert_eq!(scale_at(&hiccup, 1.5), 1.0);
    }

    #[test]
    fn blocks_come_back_normalised_and_the_warm_up_is_dropped() {
        let mut rec = Recorder::new(1, None);
        let mut calls = 0;
        let (blocks, calib) = run_blocks(&mut rec, 2, |rec| {
            calls += 1;
            let ((), t) = rec.timed("core", "op", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            rec.finish_op(0, 0, t.at_s, t.wall_ms, calls != 2, 500);
            rec.count("x", 2.0);
            rec.observe("y", calls as f64);
        });
        assert_eq!((calls, blocks.len()), (3, 2));
        assert!(calib.len() >= 2 * CALIB_NEIGHBOURS);
        let b = &blocks[0];
        assert_eq!((b.ops, b.wire_bytes, b.tally.failed), (1, 500, 1));
        assert_eq!((b.counters["x"], &b.observations["y"]), (2.0, &vec![2.0]));
        assert!(b.raw_latencies[0][0] >= 2.0);
        let scale = b.latencies[0][0] / b.raw_latencies[0][0];
        assert!((b.busy_ms / b.raw_latencies[0][0] / scale - 1.0).abs() < 1e-9);
        assert_eq!(blocks[1].tally.failed, 0);
        assert!(!b.traced);
    }
}
