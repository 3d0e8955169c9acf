//! Execution context: metered links, device resources, and the two
//! physical join operators every algorithm composes.
//!
//! * **HBSJ** (`c1`) — download both windows, join in device memory
//!   ([`ExecCtx::hbsj_leaf`]); [`ExecCtx::hbsj`] adds the recursive
//!   quadrant decomposition with COUNT pruning used when a window
//!   overflows the buffer.
//! * **NLSJ** (`c2`/`c3`) — download the outer window, probe the inner
//!   server with one ε-RANGE per object or one bucket request
//!   ([`ExecCtx::nlsj`]). The outer side streams and the probes travel
//!   [`PROBE_WINDOW`] at a time ([`Link::request_many`]): at most that
//!   many small probe replies sit in the link's receive window, and no
//!   operator holds one — each is paired off as it is handed over — so
//!   NLSJ has no buffer constraint (as the paper assumes) and
//!   [`DeviceBuffer`]/`peak_buffer` are unchanged. The window is a
//!   constant, not a `NetConfig` field: requests, bytes, pairs and their
//!   order are the same at every size — only the waiting changes, and a
//!   few dozen probes already amortise a round trip.
//!
//! Every server interaction uses the ε/2-extended window
//! ([`ExecCtx::ext`]) and every emitted pair passes the reference-point
//! filter against the *core* window, so COUNT-based pruning is sound and
//! output is exactly-once regardless of how algorithms partition space.
//!
//! # Exactly once on a live deployment
//!
//! The reference-point test is exact on *one* dataset state. A frozen
//! deployment has only one, so its collector only appends. A live one
//! may be written to while the join runs, and then two windows can read
//! two states: an object that moves across a seam between the reads
//! honestly qualifies in both, and its pair is derived twice. The join's
//! links say whether that can have happened. Each [`Link`] records the
//! window of serving generations its replies reported
//! ([`Link::generations`]). A flat live server stamps every reply with
//! the generation of the one snapshot that answered it, and a client
//! cache hit reports its content generation, at which it equals the
//! server's answer (`asj-net`'s `cache_props` suite proves that). So
//! when every reply of a side reported one generation, the side was read
//! in one state, and the frozen argument holds as it is. Two exclusions:
//!
//! * **fleets** — a router reports the *sum* of its shards' generations,
//!   and a batch that has landed on some shards but not on others is an
//!   inconsistent cut no sum shows;
//! * **failed exchanges** — they report generation 0, so a join that had
//!   one beside stamped replies counts as raced.
//!
//! Otherwise [`ExecCtx::finish`] runs
//! [`ResultCollector::collapse_duplicates`] — one pass, before anything
//! reads the pairs — and reports what it removed in
//! [`ExecStats::collapsed_pairs`]. Debug builds run the pass on the
//! one-snapshot joins too and assert it removes nothing, so every live
//! join a debug test suite runs checks this argument.

use asj_device::{memjoin, BufferExceeded, DeviceBuffer, ResultCollector};
use asj_geom::{reference_point_in, Rect, SpatialObject};
use asj_net::{Link, Request};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::cost::CostModel;
use crate::deploy::Deployment;
use crate::report::JoinReport;
use crate::spec::{JoinSpec, OutputKind};

/// ε-RANGE probes NLSJ keeps in flight together (see the module docs for
/// why this is not configurable).
const PROBE_WINDOW: usize = 32;

/// Which server a request goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    R,
    S,
}

impl Side {
    /// The opposite side.
    pub fn other(self) -> Side {
        match self {
            Side::R => Side::S,
            Side::S => Side::R,
        }
    }
}

/// Operator and recursion statistics of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Repartitioning (2×2 split) steps.
    pub splits: u32,
    /// In-memory HBSJ executions.
    pub hbsj_runs: u32,
    /// NLSJ executions (windows, not probes).
    pub nlsj_runs: u32,
    /// Windows pruned because one side counted zero.
    pub pruned_windows: u32,
    /// Recursion-limit fallbacks (degenerate inputs only).
    pub forced_fallbacks: u32,
    /// Pairs the duplicate pass removed, when it ran: `None` on a frozen
    /// deployment and on a live join that read one generation per flat
    /// side (see the module docs).
    pub collapsed_pairs: Option<usize>,
}

/// Costs of the three physical choices on one window.
#[derive(Debug, Clone, Copy)]
pub struct OperatorCosts {
    /// HBSJ; `None` when the buffer cannot hold the window.
    pub c1: Option<f64>,
    /// NLSJ with R as outer.
    pub c2: f64,
    /// NLSJ with S as outer.
    pub c3: f64,
}

impl OperatorCosts {
    /// The cheaper NLSJ orientation: `(outer side, cost)`.
    pub fn cheaper_nlsj(&self) -> (Side, f64) {
        if self.c2 <= self.c3 {
            (Side::R, self.c2)
        } else {
            (Side::S, self.c3)
        }
    }

    /// `true` when HBSJ is feasible and beats both NLSJ orientations.
    pub fn hbsj_wins(&self) -> bool {
        match self.c1 {
            Some(c1) => c1 < self.cheaper_nlsj().1,
            None => false,
        }
    }
}

/// Everything one algorithm run needs.
pub struct ExecCtx<'a> {
    link_r: Link,
    link_s: Link,
    /// The device's bounded buffer.
    pub buffer: DeviceBuffer,
    /// Result accumulation: strict on a frozen deployment, append-only
    /// on a live one until [`ExecCtx::finish`] (see the module docs).
    pub out: ResultCollector,
    /// The join being executed.
    pub spec: &'a JoinSpec,
    /// The global data space.
    pub space: Rect,
    /// The decision cost model.
    pub cost: CostModel,
    /// Device-local randomness (UpJoin's confirming COUNT placement).
    pub rng: ChaCha8Rng,
    /// Run statistics.
    pub stats: ExecStats,
    max_depth: u32,
    min_window: f64,
    /// Worker count of the device's ε-grid kernel: the machine's available
    /// parallelism, read once when the deployment was built. The kernel's
    /// output is identical at every count.
    workers: usize,
    /// The deployment takes updates, so a writer may race this join.
    live: bool,
}

impl<'a> ExecCtx<'a> {
    /// Opens fresh links against the deployment.
    pub fn new(deployment: &Deployment, spec: &'a JoinSpec) -> Self {
        let (link_r, link_s) = deployment.connect();
        let space = deployment.space();
        let (shards_r, shards_s) = deployment.shard_counts();
        // The recursion floor must use the same scale as both guards in
        // `at_limit`: on an elongated space, deriving it from the width
        // alone leaves the height guard with the wrong scale.
        let max_dim = space.width().max(space.height());
        let min_window = (4.0 * spec.extension()).max(max_dim * 1e-7);
        ExecCtx {
            link_r,
            link_s,
            buffer: DeviceBuffer::new(deployment.buffer_capacity()),
            out: if deployment.is_live() {
                ResultCollector::deduplicating()
            } else {
                ResultCollector::new()
            },
            spec,
            space,
            cost: CostModel::new(deployment.net(), deployment.buffer_capacity())
                .with_fanout(shards_r as f64, shards_s as f64),
            rng: ChaCha8Rng::seed_from_u64(spec.seed),
            stats: ExecStats::default(),
            max_depth: 24,
            min_window,
            workers: deployment.workers,
            live: deployment.is_live(),
        }
    }

    /// The link to one server.
    pub fn link(&self, side: Side) -> &Link {
        match side {
            Side::R => &self.link_r,
            Side::S => &self.link_s,
        }
    }

    fn tariff(&self, side: Side) -> f64 {
        match side {
            Side::R => self.cost.tariff_r,
            Side::S => self.cost.tariff_s,
        }
    }

    fn fanout(&self, side: Side) -> f64 {
        match side {
            Side::R => self.cost.fanout_r,
            Side::S => self.cost.fanout_s,
        }
    }

    /// The cost model operator decisions should use *right now*: the base
    /// model with the client cache's observed hit rates applied as price
    /// discounts, so decisions track what the meters will measure. The
    /// rates are Laplace-smoothed — `(misses + 1) / (hits + misses + 1)`
    /// never reaches zero, so no operator ever looks free — and pooled
    /// over both links (one device, one cache policy). Without a cache
    /// this returns the base model unchanged (multipliers exactly `1.0`),
    /// keeping every decision bit-identical to an uncached build.
    pub fn decision_cost(&self) -> CostModel {
        let caches = [&self.link_r, &self.link_s]
            .into_iter()
            .filter_map(Link::cache);
        let Some(c) = caches.map(|view| view.snapshot()).reduce(|a, b| a.plus(&b)) else {
            return self.cost;
        };
        let discount = |hits: u64, misses: u64| (misses + 1) as f64 / (hits + misses + 1) as f64;
        self.cost.with_cache_discount(
            discount(c.stats_hits, c.stats_misses),
            discount(c.window_hits, c.window_misses),
        )
    }

    /// The window actually sent to servers for `w`: extended by ε/2 (plus
    /// the MBR hint) per side, clipped to nothing — servers tolerate
    /// windows reaching outside the space.
    pub fn ext(&self, w: &Rect) -> Rect {
        w.expand(self.spec.extension())
    }

    /// `COUNT` on the extended window.
    pub fn count(&self, side: Side, w: &Rect) -> u64 {
        self.link(side)
            .request(&Request::Count(self.ext(w)))
            .into_count()
    }

    /// Counts on both sides: `(|Rw|, |Sw|)`.
    pub fn counts(&self, w: &Rect) -> (u64, u64) {
        (self.count(Side::R, w), self.count(Side::S, w))
    }

    /// Batched `COUNT` on many windows in one `MultiCount` message:
    /// answers in probe order, same ε/2-extended windows as
    /// [`ExecCtx::count`]. Callers gate on
    /// [`CostModel::batched_stats`](crate::CostModel) — or go through
    /// [`ExecCtx::window_counts`], which in per-query mode issues
    /// individual COUNTs instead.
    ///
    /// The reply length is validated in every build (not just debug):
    /// quadrant counts feed pruning decisions, so a short or long
    /// `Counts` vector from a buggy server or cache layer must surface as
    /// a protocol error rather than silently misindex.
    pub fn multi_count(&self, side: Side, windows: &[Rect]) -> Vec<u64> {
        let ext: Vec<Rect> = windows.iter().map(|w| self.ext(w)).collect();
        let counts = self
            .link(side)
            .request(&Request::MultiCount(ext))
            .into_counts();
        validated_counts(windows.len(), counts)
    }

    /// `COUNT` of every window on one side, in window order: one batched
    /// `MultiCount` when the deployment's
    /// [`NetConfig::batched_stats`](asj_net::NetConfig) capability is on,
    /// otherwise one COUNT query each, all sent together. Same extended
    /// windows, same answers — only the framing differs.
    pub fn window_counts(&self, side: Side, windows: &[Rect]) -> Vec<u64> {
        if self.cost.batched_stats {
            return self.multi_count(side, windows);
        }
        let reqs: Vec<Request> = windows
            .iter()
            .map(|w| Request::Count(self.ext(w)))
            .collect();
        let mut counts = Vec::with_capacity(reqs.len());
        self.link(side)
            .request_many(&reqs, |resp| counts.push(resp.into_count()));
        counts
    }

    /// Counts of the four quadrants of `w` on one side — one batch, so
    /// every algorithm that repartitions benefits without changes.
    /// [`ExecCtx::window_counts`] without its vectors: a split is the
    /// device's hottest statistics path.
    pub fn quadrant_counts(&self, side: Side, quads: &[Rect; 4]) -> [u64; 4] {
        let mut counts = [0; 4];
        if self.cost.batched_stats {
            counts.copy_from_slice(&self.multi_count(side, quads));
            return counts;
        }
        let reqs = quads.map(|q| Request::Count(self.ext(&q)));
        let mut slots = counts.iter_mut();
        self.link(side).request_many(&reqs, |resp| {
            *slots.next().expect("one reply per request") = resp.into_count();
        });
        counts
    }

    /// `WINDOW` download of the extended window.
    pub fn download(&self, side: Side, w: &Rect) -> Vec<SpatialObject> {
        self.link(side)
            .request(&Request::Window(self.ext(w)))
            .into_objects()
    }

    /// Operator costs on `w` given (possibly estimated) counts. Dimensions
    /// for the ε-selectivity estimate come from the extended window —
    /// consistent with where probes actually land. Prices come from
    /// [`ExecCtx::decision_cost`], i.e. they carry the live cache-hit
    /// discount when a client cache is in play.
    pub fn costs(&self, w: &Rect, count_r: f64, count_s: f64) -> OperatorCosts {
        let ext = self.ext(w);
        let eps = self.spec.predicate.epsilon();
        let bucket = self.spec.bucket_nlsj;
        let cost = self.decision_cost();
        // NLSJ with `outer` downloaded and the other side probed — both
        // orientations are this one call, so they cannot be priced by
        // different models or with mismatched tariffs and fan-outs.
        let nlsj = |outer: Side, count_outer: f64, count_inner: f64| {
            let inner = outer.other();
            cost.nlsj(
                &ext,
                count_outer,
                count_inner,
                self.tariff(outer),
                self.tariff(inner),
                self.fanout(outer),
                self.fanout(inner),
                eps,
                bucket,
            )
        };
        OperatorCosts {
            c1: cost.c1(count_r, count_s),
            c2: nlsj(Side::R, count_r, count_s),
            c3: nlsj(Side::S, count_s, count_r),
        }
    }

    /// `true` when recursion must stop (window shrunk to the ε scale or
    /// depth bound hit) and a physical operator must be forced.
    pub fn at_limit(&self, w: &Rect, depth: u32) -> bool {
        depth >= self.max_depth || w.width() <= self.min_window || w.height() <= self.min_window
    }

    /// The wire cost of one 2×2 repartitioning round of statistics:
    /// `2k² · Taq` with `k = 2` — four COUNTs to each server, or one
    /// batched `MultiCount` each when the capability is on. Delegates to
    /// the (cache-discounted) decision model so decisions price what
    /// [`ExecCtx::quadrant_counts`] will actually put on the wire.
    pub fn stats_cost_per_split(&self) -> f64 {
        self.decision_cost().split_stats_cost()
    }

    /// MobiJoin's `c4(w)` — Equation (8) evaluated entirely under the
    /// uniformity assumption (Section 3.2): quadrant counts are `|Dw|/4`
    /// at every level, the space is split until those estimated quarters
    /// fit the device buffer, and **every** resulting subwindow is assumed
    /// to finish with one HBSJ. No queries are issued; the estimate is
    /// pure arithmetic.
    ///
    /// This optimistic heuristic is the flaw Figures 2, 7 and 8 dissect:
    /// it never anticipates pruning (so on a skewed-but-co-located pair it
    /// gladly stops early and downloads everything the buffer can hold),
    /// and on a huge inner dataset it prices repartitioning at
    /// full-download cost, pushing MobiJoin into NLSJ "most of the time"
    /// (Fig. 8a).
    pub fn c4_mobijoin(&self, count_r: f64, count_s: f64) -> f64 {
        let capacity = self.buffer.capacity() as f64;
        let cost = self.decision_cost();
        let mut stats = 0.0;
        let mut windows_prev = 1.0; // windows being split at this level
        for level in 1..=12u32 {
            stats += cost.split_stats_cost() * windows_prev;
            let cells = 4f64.powi(level as i32);
            let (qr, qs) = (count_r / cells, count_s / cells);
            if qr + qs <= capacity || level == 12 {
                return stats + cells * cost.c1_unchecked(qr, qs);
            }
            windows_prev = cells;
        }
        unreachable!("loop always returns by level 12")
    }

    /// Reports a qualifying pair found while processing window `w`,
    /// applying the reference-point filter. `outer` tells which side
    /// `outer_obj` came from so the pair lands as `(r, s)`. Takes the
    /// context's fields apart so it can run while a link is borrowed.
    fn report_pair(
        out: &mut ResultCollector,
        spec: &JoinSpec,
        space: &Rect,
        outer: Side,
        outer_obj: &SpatialObject,
        inner_obj: &SpatialObject,
        w: &Rect,
    ) {
        let (r, s) = match outer {
            Side::R => (outer_obj, inner_obj),
            Side::S => (inner_obj, outer_obj),
        };
        if reference_point_in(r, s, &spec.predicate, w, space) {
            out.push(r.id, s.id);
        }
    }

    /// HBSJ on one window that fits the buffer: download both sides, join
    /// in memory. Without a count hint the S side must be downloaded
    /// before its size is known; prefer [`ExecCtx::hbsj_leaf_counted`]
    /// when `|Sw|` is already known so the failure path never pays for S.
    pub fn hbsj_leaf(&mut self, w: &Rect) -> Result<(), BufferExceeded> {
        self.hbsj_leaf_counted(w, None)
    }

    /// HBSJ with the caller's known `|Sw|` (the extended-window COUNT).
    /// Fails without downloading — or paying for — the second side when
    /// `|Rw| + |Sw|` exceeds the buffer: the R window is downloaded and
    /// reserved, the hint is checked against the remaining capacity, and
    /// only then is S downloaded (and reserved incrementally, which also
    /// covers a hint that undershoots). Callers fall back to splitting.
    pub fn hbsj_leaf_counted(
        &mut self,
        w: &Rect,
        known_count_s: Option<u64>,
    ) -> Result<(), BufferExceeded> {
        let r_objs = self.download(Side::R, w);
        let r_hold = self.buffer.reserve(r_objs.len())?;
        if let Some(count_s) = known_count_s {
            if !self.buffer.fits(count_s as usize) {
                return Err(BufferExceeded {
                    requested: count_s as usize,
                    capacity: self.buffer.capacity(),
                });
            }
        }
        let s_objs = self.download(Side::S, w);
        let s_hold = self.buffer.reserve(s_objs.len())?;
        memjoin::grid_hash_join_with_workers(
            &r_objs,
            &s_objs,
            &self.spec.predicate,
            w,
            &self.space,
            self.workers,
            &mut self.out,
        );
        drop(s_hold);
        drop(r_hold);
        self.stats.hbsj_runs += 1;
        Ok(())
    }

    /// HBSJ with recursive quadrant decomposition: windows that overflow
    /// the buffer are split 2×2, children are COUNT-pruned and recursed —
    /// "if the data do not fit in memory, the cell can be recursively
    /// partitioned (e.g., PBSM)" plus SrJoin's "pruning can also be
    /// applied at each recursion level".
    pub fn hbsj(&mut self, w: &Rect, count_r: u64, count_s: u64, depth: u32) {
        if count_r == 0 || count_s == 0 {
            self.stats.pruned_windows += 1;
            return;
        }
        if (count_r + count_s) as usize <= self.buffer.capacity()
            && self.hbsj_leaf_counted(w, Some(count_s)).is_ok()
        {
            return;
        }
        if self.at_limit(w, depth) {
            self.forced(w, count_r, count_s);
            return;
        }
        self.stats.splits += 1;
        let quads = w.quadrants();
        let qr = self.quadrant_counts(Side::R, &quads);
        let qs = self.quadrant_counts(Side::S, &quads);
        for i in 0..4 {
            self.hbsj(&quads[i], qr[i], qs[i], depth + 1);
        }
    }

    /// NLSJ over `w` with the given outer side. Streams the outer window
    /// and probes the inner server per object (or in one bucket when the
    /// spec enables it).
    pub fn nlsj(&mut self, w: &Rect, outer: Side) {
        let outer_objs = self.download(outer, w);
        if outer_objs.is_empty() {
            return;
        }
        let eps = self.spec.predicate.epsilon();
        let inner = outer.other();
        if self.spec.bucket_nlsj {
            // Frame the bucket request around the downloaded window
            // without copying it — a hot path that used to clone the
            // entire outer window just to build the message — then take
            // the objects back out to pair them with the reply.
            let req = Request::BucketEpsRange {
                probes: outer_objs,
                eps,
            };
            let buckets = self.link(inner).request(&req).into_buckets();
            let Request::BucketEpsRange {
                probes: outer_objs, ..
            } = req
            else {
                unreachable!("request variant is fixed above")
            };
            // Validated in release too: zip would silently drop the
            // unmatched outer objects on a short reply (same defect
            // class `validated_counts` closes for `MultiCount`).
            if buckets.len() != outer_objs.len() {
                panic!(
                    "protocol mismatch: BucketEpsRange({}) answered with {} buckets",
                    outer_objs.len(),
                    buckets.len()
                );
            }
            for (o, matches) in outer_objs.iter().zip(buckets) {
                for m in matches {
                    Self::report_pair(&mut self.out, self.spec, &self.space, outer, o, &m, w);
                }
            }
        } else {
            // One ε-RANGE per outer object, a window of them in flight
            // together; replies are handed over in probe order, so pairs
            // are reported exactly as one probe at a time would.
            let link = match inner {
                Side::R => &self.link_r,
                Side::S => &self.link_s,
            };
            let (out, spec, space) = (&mut self.out, self.spec, &self.space);
            let mut probes = Vec::with_capacity(PROBE_WINDOW);
            for window in outer_objs.chunks(PROBE_WINDOW) {
                probes.clear();
                probes.extend(window.iter().map(|o| Request::EpsRange { q: o.mbr, eps }));
                let mut probing = window.iter();
                link.request_many(&probes, |resp| {
                    let o = probing.next().expect("one reply per probe");
                    for m in resp.into_objects() {
                        Self::report_pair(out, spec, space, outer, o, &m, w);
                    }
                });
            }
        }
        self.stats.nlsj_runs += 1;
    }

    /// Forces the cheapest feasible operator on `w` — the recursion-limit
    /// escape hatch (degenerate clustered data at the ε scale). NLSJ is
    /// always feasible because it streams.
    pub fn forced(&mut self, w: &Rect, count_r: u64, count_s: u64) {
        self.stats.forced_fallbacks += 1;
        let costs = self.costs(w, count_r as f64, count_s as f64);
        if costs.hbsj_wins() && self.hbsj_leaf_counted(w, Some(count_s)).is_ok() {
            return;
        }
        let (side, _) = costs.cheaper_nlsj();
        self.nlsj(w, side);
    }

    /// Closes the run into a report. On a live deployment the pair list
    /// is made exactly-once first: by the one-snapshot argument of the
    /// module docs where both sides are flat and each reported one
    /// generation, by [`ResultCollector::collapse_duplicates`] otherwise.
    pub fn finish(mut self, algorithm: &'static str) -> JoinReport {
        let (generations_r, generations_s) = (self.link_r.generations(), self.link_s.generations());
        if self.live {
            let one_snapshot =
                |link: &Link, (lowest, highest)| link.fleet().is_none() && lowest == highest;
            let raced = !(one_snapshot(&self.link_r, generations_r)
                && one_snapshot(&self.link_s, generations_s));
            if raced || cfg!(debug_assertions) {
                let removed = self.out.collapse_duplicates();
                assert!(
                    raced || removed == 0,
                    "one generation per flat side, yet {removed} pairs were derived twice"
                );
                self.stats.collapsed_pairs = raced.then_some(removed);
            }
        }
        let link_r = self.link_r.meter().snapshot();
        let link_s = self.link_s.meter().snapshot();
        let fleet_r = self.link_r.fleet().map(|t| t.snapshot());
        let fleet_s = self.link_s.fleet().map(|t| t.snapshot());
        let cache_r = self.link_r.cache().map(|v| v.snapshot());
        let cache_s = self.link_s.cache().map(|v| v.snapshot());
        let cost_units = self.cost.tariff_r * link_r.total_bytes() as f64
            + self.cost.tariff_s * link_s.total_bytes() as f64;
        let peak_buffer = self.buffer.peak();
        let iceberg = match self.spec.output {
            OutputKind::Pairs => None,
            OutputKind::Iceberg { min_matches } => Some(self.out.iceberg(min_matches)),
        };
        // Worst case over both sides: a single uncovered shard on either
        // fleet already makes the pair list a subset.
        let coverage = [&fleet_r, &fleet_s]
            .into_iter()
            .flatten()
            .map(|f| f.coverage())
            .fold(1.0f64, f64::min);
        JoinReport {
            algorithm,
            pairs: self.out.into_pairs(),
            iceberg,
            link_r,
            link_s,
            fleet_r,
            fleet_s,
            cache_r,
            cache_s,
            coverage,
            generations_r,
            generations_s,
            cost_units,
            peak_buffer,
            stats: self.stats,
        }
    }
}

/// Validates a `Counts` reply against the number of probe windows sent,
/// panicking with the protocol-mismatch convention of
/// [`Response::into_counts`](asj_net::Response) — a named violation in
/// release builds too, instead of a short reply's opaque index panic or a
/// long reply's silently dropped entries.
fn validated_counts(want: usize, counts: Vec<u64>) -> Vec<u64> {
    if counts.len() != want {
        panic!(
            "protocol mismatch: MultiCount({want}) answered with {} counts",
            counts.len()
        );
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n: u32, step: f64, id0: u32) -> Vec<SpatialObject> {
        (0..n * n)
            .map(|i| SpatialObject::point(id0 + i, (i % n) as f64 * step, (i / n) as f64 * step))
            .collect()
    }

    fn deployment(buffer: usize) -> Deployment {
        crate::deploy::DeploymentBuilder::new(grid_points(10, 10.0, 0), grid_points(10, 10.0, 0))
            .with_buffer(buffer)
            .with_space(Rect::from_coords(0.0, 0.0, 90.0, 90.0))
            .build()
    }

    #[test]
    fn counts_and_download_use_extended_windows() {
        let dep = deployment(800);
        let spec = JoinSpec::distance_join(10.0); // extension 5
        let ctx = ExecCtx::new(&dep, &spec);
        // Core window holds exactly one lattice point, the extension pulls
        // in the four neighbours at distance 10… extension is 5, so only
        // the point itself.
        let w = Rect::from_coords(48.0, 48.0, 52.0, 52.0);
        assert_eq!(ctx.count(Side::R, &w), 1);
        // Extension 5 on a ±2 window reaches ±7: still one point.
        assert_eq!(ctx.download(Side::R, &w).len(), 1);
        let w2 = Rect::from_coords(45.0, 45.0, 55.0, 55.0); // ±5 ext → [40,60]²
        assert_eq!(ctx.count(Side::R, &w2), 9);
    }

    #[test]
    fn hbsj_leaf_joins_and_respects_buffer() {
        let dep = deployment(800);
        let spec = JoinSpec::distance_join(0.5);
        let mut ctx = ExecCtx::new(&dep, &spec);
        let w = dep.space();
        ctx.hbsj_leaf(&w).unwrap();
        // Identical datasets: every point pairs with itself only (ε=0.5 <
        // lattice step 10).
        assert_eq!(ctx.out.len(), 100);
        assert_eq!(ctx.buffer.peak(), 200);
        assert_eq!(ctx.stats.hbsj_runs, 1);
    }

    #[test]
    fn hbsj_leaf_fails_cleanly_when_buffer_small() {
        let dep = deployment(50);
        let spec = JoinSpec::distance_join(0.5);
        let mut ctx = ExecCtx::new(&dep, &spec);
        assert!(ctx.hbsj_leaf(&dep.space()).is_err());
        assert_eq!(ctx.out.len(), 0);
    }

    #[test]
    fn hbsj_recursive_equals_leaf_result() {
        let spec = JoinSpec::distance_join(12.0);
        // Big buffer: single leaf.
        let dep_big = deployment(800);
        let mut big = ExecCtx::new(&dep_big, &spec);
        let (cr, cs) = big.counts(&dep_big.space());
        big.hbsj(&dep_big.space(), cr, cs, 0);
        let mut want = big.out.into_pairs();
        want.sort_unstable();

        // Tiny buffer: forced to decompose.
        let dep_small = deployment(60);
        let mut small = ExecCtx::new(&dep_small, &spec);
        let (cr, cs) = small.counts(&dep_small.space());
        small.hbsj(&dep_small.space(), cr, cs, 0);
        assert!(small.stats.splits > 0, "expected decomposition");
        assert!(small.buffer.peak() <= 60);
        let mut got = small.out.into_pairs();
        got.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn nlsj_matches_hbsj_both_orientations_and_bucket() {
        let spec0 = JoinSpec::distance_join(12.0);
        let dep = deployment(800);
        let mut h = ExecCtx::new(&dep, &spec0);
        h.hbsj_leaf(&dep.space()).unwrap();
        let mut want = h.out.into_pairs();
        want.sort_unstable();

        for (outer, bucket) in [
            (Side::R, false),
            (Side::S, false),
            (Side::R, true),
            (Side::S, true),
        ] {
            let spec = JoinSpec::distance_join(12.0).with_bucket_nlsj(bucket);
            let mut ctx = ExecCtx::new(&dep, &spec);
            ctx.nlsj(&dep.space(), outer);
            let mut got = ctx.out.into_pairs();
            got.sort_unstable();
            assert_eq!(got, want, "outer={outer:?} bucket={bucket}");
        }
    }

    #[test]
    fn operator_costs_orientation() {
        let dep = deployment(800);
        let spec = JoinSpec::distance_join(10.0);
        let ctx = ExecCtx::new(&dep, &spec);
        let c = ctx.costs(&dep.space(), 10.0, 1000.0);
        let (side, _) = c.cheaper_nlsj();
        assert_eq!(side, Side::R, "few outers should win");
        assert!(c.c1.is_none(), "1010 > 800 buffer");
        let c_fit = ctx.costs(&dep.space(), 10.0, 20.0);
        assert!(c_fit.c1.is_some());
        assert!(c_fit.hbsj_wins());
    }

    #[test]
    fn finish_produces_consistent_report() {
        let dep = deployment(800);
        let spec = JoinSpec::distance_join(0.5);
        let mut ctx = ExecCtx::new(&dep, &spec);
        ctx.hbsj_leaf(&dep.space()).unwrap();
        let rep = ctx.finish("test");
        assert_eq!(rep.pairs.len(), 100);
        assert_eq!(rep.algorithm, "test");
        assert!(rep.total_bytes() > 0);
        assert_eq!(
            rep.cost_units,
            rep.total_bytes() as f64,
            "unit tariffs: cost == bytes"
        );
        assert_eq!(rep.objects_downloaded(), 200);
        assert!(rep.iceberg.is_none());
    }

    #[test]
    fn iceberg_output() {
        let dep = deployment(800);
        let spec = JoinSpec::iceberg(12.0, 3);
        let mut ctx = ExecCtx::new(&dep, &spec);
        ctx.hbsj_leaf(&dep.space()).unwrap();
        let rep = ctx.finish("test");
        let ice = rep.iceberg.unwrap();
        // Interior lattice points have 5 partners (self + 4 neighbours at
        // distance 10 ≤ 12); corners have 3.
        assert!(!ice.qualifying.is_empty());
        assert!(ice.qualifying.iter().all(|&(_, c)| c >= 3));
    }

    #[test]
    fn hbsj_leaf_counted_fails_before_paying_for_s() {
        // Buffer 150: R (100 objects) fits, R+S (200) does not. With the
        // count hint the failure must cost zero S-side window traffic —
        // the doc's "fails without downloading the second side".
        let dep = deployment(150);
        let spec = JoinSpec::distance_join(0.5);
        let mut ctx = ExecCtx::new(&dep, &spec);
        let w = dep.space();
        assert!(ctx.hbsj_leaf_counted(&w, Some(100)).is_err());
        let s_meter = ctx.link(Side::S).meter().snapshot();
        assert_eq!(s_meter.window_queries, 0, "S window must not be paid for");
        assert_eq!(s_meter.objects_received, 0);
        assert_eq!(s_meter.total_bytes(), 0);
        let r_meter = ctx.link(Side::R).meter().snapshot();
        assert_eq!(r_meter.window_queries, 1);
        assert_eq!(r_meter.objects_received, 100);
        assert_eq!(ctx.buffer.in_use(), 0, "reservation released on failure");
        // The un-hinted form must still fail — after the fact.
        assert!(ctx.hbsj_leaf(&w).is_err());
        assert!(ctx.link(Side::S).meter().snapshot().window_queries > 0);
    }

    #[test]
    fn batched_quadrant_counts_match_per_query() {
        let pts = grid_points(10, 10.0, 0);
        let space = Rect::from_coords(0.0, 0.0, 90.0, 90.0);
        let build = |batched: bool| {
            crate::deploy::DeploymentBuilder::new(pts.clone(), pts.clone())
                .with_buffer(800)
                .with_space(space)
                .with_net(asj_net::NetConfig::default().with_batched_stats(batched))
                .build()
        };
        let spec = JoinSpec::distance_join(10.0);
        let dep_single = build(false);
        let dep_batched = build(true);
        let single = ExecCtx::new(&dep_single, &spec);
        let batched = ExecCtx::new(&dep_batched, &spec);
        let quads = space.quadrants();
        for side in [Side::R, Side::S] {
            assert_eq!(
                single.quadrant_counts(side, &quads),
                batched.quadrant_counts(side, &quads)
            );
        }
        // One MultiCount message vs four COUNTs, strictly fewer bytes.
        let sm = single.link(Side::R).meter().snapshot();
        let bm = batched.link(Side::R).meter().snapshot();
        assert_eq!(sm.count_queries, 4);
        assert_eq!(bm.count_queries, 1);
        assert!(bm.up_packets < sm.up_packets);
        assert!(bm.aggregate_bytes() < sm.aggregate_bytes());
        // And the cost model prices exactly what the meter measured.
        assert_eq!(sm.aggregate_bytes() as f64, single.cost.stats_round(4));
        assert_eq!(bm.aggregate_bytes() as f64, batched.cost.stats_round(4));
    }

    #[test]
    fn fleet_stats_meter_matches_fanout_priced_cost() {
        // Two clusters in opposite corners → each of the 2 shards holds
        // one. A full-space COUNT survives pruning on both shards, so the
        // meter must record exactly the fan-out-priced statistics round —
        // the cost model and the wire agree on what a fleet costs.
        let mut objs = grid_points(5, 2.0, 0);
        objs.extend(
            (0..25).map(|i| {
                SpatialObject::point(100 + i, 80.0 + (i % 5) as f64, 80.0 + (i / 5) as f64)
            }),
        );
        let dep = crate::deploy::DeploymentBuilder::new(objs.clone(), objs)
            .with_space(Rect::from_coords(0.0, 0.0, 90.0, 90.0))
            .with_shards(2, 2)
            .build();
        let spec = JoinSpec::distance_join(1.0);
        let ctx = ExecCtx::new(&dep, &spec);
        assert_eq!(ctx.cost.fanout_r, 2.0);
        assert_eq!(ctx.count(Side::R, &dep.space()), 50);
        let m = ctx.link(Side::R).meter().snapshot();
        assert_eq!(
            m.aggregate_bytes() as f64,
            ctx.cost.fanout_r * ctx.cost.stats_round(1),
            "meter and fan-out-priced model must agree on a full-scatter COUNT"
        );
        // A corner window reaches one shard only: the meter then shows
        // half the full-scatter price (this is why the factor is an upper
        // bound).
        let corner = Rect::from_coords(0.0, 0.0, 5.0, 5.0);
        let before = ctx.link(Side::R).meter().snapshot();
        assert_eq!(ctx.count(Side::R, &corner), 9);
        let delta = ctx.link(Side::R).meter().snapshot().since(&before);
        assert_eq!(delta.aggregate_bytes() as f64, ctx.cost.stats_round(1));
    }

    #[test]
    fn min_window_uses_max_space_dimension() {
        // Intersection join (extension 0) on a 10 × 4000 space: the floor
        // must come from the max dimension (4000·1e-7 = 4e-4), not the
        // width (10·1e-7 = 1e-6). A flat window of height 3e-4 sits
        // between the two formulas, so only the fixed one stops there.
        let pts = vec![SpatialObject::point(0, 1.0, 1.0)];
        let dep = crate::deploy::DeploymentBuilder::new(pts.clone(), pts)
            .with_space(Rect::from_coords(0.0, 0.0, 10.0, 4000.0))
            .build();
        let spec = JoinSpec::intersection_join();
        let ctx = ExecCtx::new(&dep, &spec);
        assert_eq!(ctx.min_window, 4000.0 * 1e-7);
        assert!(
            ctx.at_limit(&Rect::from_coords(0.0, 0.0, 5.0, 3e-4), 0),
            "height guard must fire at the max-dimension scale"
        );
        assert!(!ctx.at_limit(&Rect::from_coords(0.0, 0.0, 5.0, 1.0), 0));
    }

    #[test]
    fn non_square_space_recursion_terminates_and_is_exact() {
        // Elongated space (1 : 400): identical clustered datasets with a
        // tiny buffer force deep decomposition along the long axis; the
        // recursion must terminate and reproduce the oracle result.
        let pts: Vec<SpatialObject> = (0..200)
            .map(|i| SpatialObject::point(i, (i % 5) as f64 * 2.0, (i / 5) as f64 * 90.0))
            .collect();
        let space = Rect::from_coords(0.0, 0.0, 10.0, 4000.0);
        let dep = crate::deploy::DeploymentBuilder::new(pts.clone(), pts.clone())
            .with_buffer(60)
            .with_space(space)
            .build();
        let spec = JoinSpec::distance_join(3.0); // extension 1.5 → floor 6
        let mut ctx = ExecCtx::new(&dep, &spec);
        assert_eq!(ctx.min_window, 6.0);
        // Height guard now fires at the same scale as the width guard.
        assert!(ctx.at_limit(&Rect::from_coords(0.0, 0.0, 9.0, 5.0), 0));
        let (cr, cs) = ctx.counts(&space);
        ctx.hbsj(&space, cr, cs, 0);
        assert!(ctx.stats.splits > 0, "expected decomposition");
        assert!(ctx.buffer.peak() <= 60);
        let mut got = ctx.out.into_pairs();
        got.sort_unstable();
        let mut want = asj_geom::sweep::nested_loop_join(&pts, &pts, &spec.predicate);
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn validated_counts_accepts_exact_length() {
        assert_eq!(validated_counts(3, vec![1, 2, 3]), vec![1, 2, 3]);
        assert_eq!(validated_counts(0, vec![]), Vec::<u64>::new());
    }

    #[test]
    #[should_panic(expected = "protocol mismatch: MultiCount(4) answered with 5 counts")]
    fn validated_counts_rejects_long_reply() {
        validated_counts(4, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "protocol mismatch: MultiCount(4) answered with 2 counts")]
    fn validated_counts_rejects_short_reply() {
        validated_counts(4, vec![1, 2]);
    }

    #[test]
    fn decision_cost_without_cache_is_the_base_model() {
        let dep = deployment(800);
        let spec = JoinSpec::distance_join(10.0);
        let ctx = ExecCtx::new(&dep, &spec);
        assert_eq!(ctx.decision_cost().stats_discount, 1.0);
        assert_eq!(
            ctx.decision_cost().split_stats_cost(),
            ctx.cost.split_stats_cost()
        );
    }

    #[test]
    fn decision_cost_discounts_follow_observed_hit_rate() {
        let dep = crate::deploy::DeploymentBuilder::new(
            grid_points(10, 10.0, 0),
            grid_points(10, 10.0, 0),
        )
        .with_buffer(800)
        .with_space(Rect::from_coords(0.0, 0.0, 90.0, 90.0))
        .with_client_cache(true)
        .build();
        let spec = JoinSpec::distance_join(10.0);
        let ctx = ExecCtx::new(&dep, &spec);
        // Cache present, nothing observed: Laplace smoothing keeps the
        // multipliers at exactly 1.
        assert_eq!(ctx.decision_cost().stats_discount, 1.0);
        let w = dep.space();
        ctx.count(Side::R, &w); // miss
        ctx.count(Side::R, &w); // hit
        ctx.count(Side::R, &w); // hit
                                // 2 hits, 1 miss → stats price multiplier (1+1)/(3+1) = 0.5.
        let cost = ctx.decision_cost();
        assert_eq!(cost.stats_discount, 0.5);
        assert_eq!(cost.window_discount, 1.0, "no window lookups yet");
        assert_eq!(cost.split_stats_cost(), 0.5 * ctx.cost.split_stats_cost());
        // The report carries the cache snapshots.
        let rep = ctx.finish("test");
        let cache = rep.cache_r.expect("cached link");
        assert_eq!((cache.stats_hits, cache.stats_misses), (2, 1));
        assert!(rep.cache_bytes_saved() > 0);
        assert!(rep.cache_hit_rate() > 0.0);
    }

    #[test]
    fn swapping_the_sides_mirrors_the_operator_costs() {
        let dep = crate::deploy::DeploymentBuilder::new(
            grid_points(10, 10.0, 0),
            grid_points(10, 10.0, 0),
        )
        .with_buffer(800)
        .with_space(Rect::from_coords(0.0, 0.0, 90.0, 90.0))
        .with_client_cache(true)
        .build();
        let spec = JoinSpec::distance_join(10.0);
        let ctx = ExecCtx::new(&dep, &spec);
        let w = dep.space();
        for _ in 0..3 {
            ctx.count(Side::R, &w);
            ctx.download(Side::S, &w);
        }
        let cost = ctx.decision_cost();
        assert!(
            cost.stats_discount < 1.0 && cost.window_discount < 1.0,
            "vacuous"
        );
        // Equal tariffs and fan-outs: NLSJ with R outer on (a, b) is the
        // operator NLSJ with S outer is on (b, a), and costs what it does.
        for (a, b) in [(10.0, 1000.0), (1000.0, 10.0), (37.5, 412.25)] {
            let (fwd, rev) = (ctx.costs(&w, a, b), ctx.costs(&w, b, a));
            assert_eq!(fwd.c2.to_bits(), rev.c3.to_bits(), "c2/c3 at ({a}, {b})");
            assert_eq!(fwd.c3.to_bits(), rev.c2.to_bits(), "c3/c2 at ({a}, {b})");
            assert_eq!(fwd.c1, rev.c1, "c1 at ({a}, {b})");
        }
    }

    #[test]
    fn at_limit_guards() {
        let dep = deployment(800);
        let spec = JoinSpec::distance_join(10.0); // extension 5 → min_window 20
        let ctx = ExecCtx::new(&dep, &spec);
        assert!(ctx.at_limit(&Rect::from_coords(0.0, 0.0, 19.0, 19.0), 0));
        assert!(!ctx.at_limit(&Rect::from_coords(0.0, 0.0, 30.0, 30.0), 0));
        assert!(ctx.at_limit(&Rect::from_coords(0.0, 0.0, 30.0, 30.0), 24));
    }
}
