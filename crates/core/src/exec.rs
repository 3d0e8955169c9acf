//! Execution context: metered links, device resources, the two physical
//! join operators every algorithm composes, and the one recursion every
//! adaptive planner runs.
//!
//! * **HBSJ** (`c1`) — download both windows, join in device memory
//!   ([`ExecCtx::hbsj_leaf`]); [`ExecCtx::hbsj`] adds the recursive
//!   quadrant decomposition with COUNT pruning used when a window
//!   overflows the buffer.
//! * **NLSJ** (`c2`/`c3`) — download the outer window, probe the inner
//!   server with one ε-RANGE per object or one bucket request
//!   ([`ExecCtx::nlsj`]). The outer side streams and the probes travel
//!   `PROBE_WINDOW` at a time ([`Link::request_many`]): at most that
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
//! # One recursion
//!
//! MobiJoin, UpJoin and SrJoin differ only in how they decide a window:
//! prune, HBSJ, NLSJ, or a COUNT-pruned 2×2 split. Each is a [`Policy`],
//! and every `Policy` is a [`DistributedJoin`]: the root window gets two
//! COUNTs, and from there one private `visit`/`apply` pair runs the
//! recursion for all of them. `visit` drops a window one of whose sides is
//! empty, before the policy decides and again after it (an estimated count
//! may have been refreshed to zero), and `apply` is the one place a
//! [`Decision`] takes effect:
//!
//! * [`Decision::Hbsj`] joins one leaf when the counts fit the buffer, and
//!   otherwise runs HBSJ's own decomposition: a split whose windows are all
//!   HBSJ again, forced at the recursion floor. A leaf the buffer refuses
//!   (its counts understated it, because a writer grew it after its COUNT)
//!   is treated as an overflowing one: decomposed, not downloaded again.
//! * [`Decision::Nlsj`] runs NLSJ with the given outer side.
//! * [`Decision::Forced`] runs the cheaper feasible operator on a window
//!   that may not split further.
//! * [`Decision::Split`] visits the four quadrants with the counts and the
//!   [`Policy::Note`]s the policy bought or estimated for them.
//!
//! [`ExecStats`] is written only here, so each counter has one definition.
//!
//! # Both sides in one round trip
//!
//! A link answers each batch before the call returns
//! ([`Link::request_many`]). Where the join needs both sides and neither
//! side's requests depend on the other's answer, it asks R, then S, and
//! [`ExecStats::round_trips`] counts the pair as one wait: the root
//! `counts`, every quadrant split, UpJoin's refresh of two estimated
//! counts, and an HBSJ leaf of [`Decision::Hbsj`] or [`Decision::Forced`]
//! whose two counts are exact and fit the buffer together. The counter is
//! a property of the plan, not of the carrier: it counts the waits a
//! device that overlaps independent requests would make. A leaf whose
//! counts may understate its window is two round trips, because S's
//! window waits for R's reservation and a leaf the buffer refuses must
//! not have paid for S. That is a live deployment's leaf (a writer can
//! grow a window after its COUNT) and a leaf under
//! `NetConfig::allow_partial` (a COUNT can leave out a shard that a later
//! WINDOW reads). So is the public [`ExecCtx::hbsj_leaf`]. Every leaf asks
//! S after R's reservation, so requests per link and their order, bytes,
//! pairs and plans do not depend on how the pair is counted.
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

use std::cell::Cell;

use asj_device::{memjoin, BufferExceeded, DeviceBuffer, ResultCollector};
use asj_geom::{reference_point_in, Rect, SpatialObject};
use asj_net::{Link, Request, Response};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::cost::CostModel;
use crate::deploy::Deployment;
use crate::report::{JoinError, JoinReport};
use crate::spec::{JoinSpec, OutputKind};
use crate::DistributedJoin;

/// ε-RANGE probes NLSJ keeps in flight together (see the module docs for
/// why this is not configurable).
const PROBE_WINDOW: usize = 32;

/// Splits between the root and the deepest window a recursion visits;
/// a window this deep is finished by a physical operator.
const MAX_DEPTH: u32 = 24;

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

/// Operator and recursion statistics of one run. Only this module writes
/// them, and each counter has one definition for every algorithm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// One per [`Decision::Split`] applied: a planner's repartitioning
    /// round, or one step of HBSJ's decomposition.
    pub splits: u32,
    /// One per HBSJ leaf joined in device memory.
    pub hbsj_runs: u32,
    /// One per NLSJ run (a window, not a probe).
    pub nlsj_runs: u32,
    /// One per window the recursion drops because a side's count is zero,
    /// or an estimated count (UpJoin's) refreshed to zero.
    pub pruned_windows: u32,
    /// One per [`Decision::Forced`] applied: a window at the recursion
    /// floor (degenerate inputs only).
    pub forced_fallbacks: u32,
    /// Pairs the duplicate pass removed, when it ran: `None` on a frozen
    /// deployment and on a live join that read one generation per flat
    /// side (see the module docs).
    pub collapsed_pairs: Option<usize>,
    /// One per non-empty [`Link`] call, and one per R and S pair of
    /// batches neither of whose answers the other depends on: the waits
    /// a device that overlaps independent requests would make (see the
    /// module docs). A property of the plan, the same on every carrier.
    pub round_trips: u32,
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

/// One window of the recursion, as a [`Policy`] sees it.
#[derive(Debug, Clone, Copy)]
pub struct Window<N> {
    /// The core window.
    pub rect: Rect,
    /// `|Rw|`: an extended-window COUNT, or the policy's estimate of one.
    pub count_r: f64,
    /// `|Sw|`, likewise.
    pub count_s: f64,
    /// Splits between the root and this window.
    pub depth: u32,
    /// What the decision that split the parent handed down.
    pub note: N,
}

impl<N> Window<N> {
    fn at(rect: Rect, (count_r, count_s, note): (f64, f64, N), depth: u32) -> Self {
        Window {
            rect,
            count_r,
            count_s,
            depth,
            note,
        }
    }
}

/// What a [`Policy`] decides for one window (see the module docs for
/// what each does).
#[derive(Debug, Clone, Copy)]
pub enum Decision<N> {
    /// HBSJ: one leaf, or HBSJ's decomposition when the window overflows
    /// the buffer.
    Hbsj,
    /// NLSJ with this side as the outer.
    Nlsj(Side),
    /// The cheaper feasible operator, at the recursion floor.
    Forced,
    /// A 2×2 split: each quadrant's `(|Rw|, |Sw|, note)`, in
    /// [`Rect::quadrants`] order.
    Split([(f64, f64, N); 4]),
}

/// A planner: the rule that decides each window of the one recursion.
pub trait Policy {
    /// The name reports and experiment tables use.
    const NAME: &'static str;
    /// What a split hands down to each of its windows.
    type Note: Copy + Default;

    /// Decides `w`, whose counts are both non-zero. The policy may buy
    /// statistics, and may replace an estimated count in `w` with a real
    /// one (the window is dropped if that one is zero).
    fn decide(&self, ctx: &mut ExecCtx, w: &mut Window<Self::Note>) -> Decision<Self::Note>;
}

impl<P: Policy> DistributedJoin for P {
    fn name(&self) -> &'static str {
        P::NAME
    }

    fn run(&self, deployment: &Deployment, spec: &JoinSpec) -> Result<JoinReport, JoinError> {
        let mut ctx = ExecCtx::new(deployment, spec);
        let rect = ctx.space;
        let (count_r, count_s) = ctx.counts(&rect);
        let root = (count_r as f64, count_s as f64, P::Note::default());
        visit(self, &mut ctx, Window::at(rect, root, 0));
        Ok(ctx.finish(P::NAME))
    }
}

/// HBSJ's decomposition as a policy: every window of it is HBSJ again.
struct Decompose;

impl Policy for Decompose {
    const NAME: &'static str = "hbsj";
    type Note = ();

    fn decide(&self, _: &mut ExecCtx, _: &mut Window<()>) -> Decision<()> {
        Decision::Hbsj
    }
}

/// Decides and applies `w`, unless a side is empty before the policy
/// decides or after (a refreshed estimate can be zero): then it is pruned.
fn visit<P: Policy>(policy: &P, ctx: &mut ExecCtx, mut w: Window<P::Note>) {
    let empty = |w: &Window<P::Note>| w.count_r <= 0.0 || w.count_s <= 0.0;
    if !empty(&w) {
        let decision = policy.decide(ctx, &mut w);
        if !empty(&w) {
            return apply(policy, ctx, w, decision);
        }
    }
    ctx.stats.pruned_windows += 1;
}

/// The one place a [`Decision`] takes effect.
fn apply<P: Policy>(
    policy: &P,
    ctx: &mut ExecCtx,
    w: Window<P::Note>,
    decision: Decision<P::Note>,
) {
    let (count_r, count_s) = (w.count_r.round() as u64, w.count_s.round() as u64);
    match decision {
        Decision::Nlsj(outer) => ctx.nlsj(&w.rect, outer),
        Decision::Forced => ctx.forced(&w.rect, count_r, count_s),
        Decision::Hbsj => {
            if (count_r + count_s) as usize <= ctx.buffer.capacity()
                && ctx.counted_leaf(&w.rect, count_r, count_s).is_ok()
            {
                return;
            }
            // Too big for one leaf, or refused by the buffer although the
            // counts fit (they understate the window): decompose rather
            // than download the same leaf again.
            let decision = if ctx.at_limit(&w.rect, w.depth) {
                Decision::Forced
            } else {
                Decision::Split(ctx.quadrant_split(&w.rect, ()))
            };
            let w = Window::at(w.rect, (w.count_r, w.count_s, ()), w.depth);
            apply(&Decompose, ctx, w, decision);
        }
        Decision::Split(quadrants) => {
            debug_assert!(
                !ctx.at_limit(&w.rect, w.depth),
                "a split at the recursion floor"
            );
            ctx.stats.splits += 1;
            for (rect, quadrant) in w.rect.quadrants().into_iter().zip(quadrants) {
                visit(policy, ctx, Window::at(rect, quadrant, w.depth + 1));
            }
        }
    }
}

/// The join's two links, and the round trips it has waited on them.
struct Links {
    r: Link,
    s: Link,
    /// [`ExecStats::round_trips`] so far. It lives beside the links, not
    /// in the context's stats, so that a reply can be paired off into the
    /// context's other fields while a link is borrowed.
    round_trips: Cell<u32>,
}

impl Links {
    fn side(&self, side: Side) -> &Link {
        match side {
            Side::R => &self.r,
            Side::S => &self.s,
        }
    }

    /// One side's batch, waited on: one round trip, unless it is empty.
    fn request_many(&self, side: Side, reqs: &[Request], reply: impl FnMut(Response)) {
        if !reqs.is_empty() {
            self.round_trips.set(self.round_trips.get() + 1);
        }
        self.side(side).request_many(reqs, reply);
    }

    /// One request, waited on: one round trip.
    fn request(&self, side: Side, req: &Request) -> Response {
        let mut answer = None;
        self.request_many(side, std::slice::from_ref(req), |resp| answer = Some(resp));
        answer.expect("one reply per request")
    }

    /// R's link and S's for a pair of batches neither of whose answers
    /// the other depends on: one round trip for the two, counted here.
    /// The caller asks R, then S.
    fn both(&self) -> (&Link, &Link) {
        self.round_trips.set(self.round_trips.get() + 1);
        (&self.r, &self.s)
    }
}

/// The counts a batch of `N` COUNTs answers, in request order: `ask`
/// sends the batch and hands each reply to the callback it is given.
fn fill_counts<const N: usize>(ask: impl FnOnce(&mut dyn FnMut(Response))) -> [u64; N] {
    let mut counts = [0; N];
    let mut slots = counts.iter_mut();
    ask(&mut |resp| *slots.next().expect("one reply per request") = resp.into_count());
    counts
}

/// Everything one algorithm run needs.
pub struct ExecCtx {
    links: Links,
    /// The device's bounded buffer.
    pub buffer: DeviceBuffer,
    /// Result accumulation: strict on a frozen deployment, append-only
    /// on a live one until [`ExecCtx::finish`] (see the module docs).
    pub out: ResultCollector,
    /// The join being executed, its half-extent hint read as its absolute
    /// value; ε is read through
    /// [`JoinPredicate::epsilon`](asj_geom::JoinPredicate::epsilon), which
    /// is |ε| (the `spec` module's one meaning of ε).
    pub spec: JoinSpec,
    /// The global data space.
    pub space: Rect,
    /// The decision cost model.
    pub cost: CostModel,
    /// Device-local randomness (UpJoin's confirming COUNT placement).
    pub rng: ChaCha8Rng,
    /// Run statistics.
    pub stats: ExecStats,
    min_window: f64,
    /// Worker count of the device's ε-grid kernel: the machine's available
    /// parallelism, read once when the deployment was built. The kernel's
    /// output is identical at every count.
    workers: usize,
    /// The deployment takes updates, so a writer may race this join.
    live: bool,
    /// Every COUNT is exact: the deployment is frozen, and no read may
    /// leave out a shard whose replicas were exhausted
    /// ([`NetConfig::allow_partial`] is off).
    ///
    /// [`NetConfig::allow_partial`]: asj_net::NetConfig::allow_partial
    exact_counts: bool,
}

impl ExecCtx {
    /// Opens fresh links against the deployment.
    pub fn new(deployment: &Deployment, spec: &JoinSpec) -> Self {
        let mut spec = *spec;
        spec.mbr_half_extent_hint = spec.mbr_half_extent_hint.abs();
        let (link_r, link_s) = deployment.connect();
        let space = deployment.space();
        let (shards_r, shards_s) = deployment.shard_counts();
        // The recursion floor must use the same scale as both guards in
        // `at_limit`: on an elongated space, deriving it from the width
        // alone leaves the height guard with the wrong scale.
        let max_dim = space.width().max(space.height());
        let min_window = (4.0 * spec.extension()).max(max_dim * 1e-7);
        ExecCtx {
            links: Links {
                r: link_r,
                s: link_s,
                round_trips: Cell::new(0),
            },
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
            min_window,
            workers: deployment.workers,
            live: deployment.is_live(),
            exact_counts: !deployment.is_live() && !deployment.net().allow_partial,
        }
    }

    /// The link to one server.
    pub fn link(&self, side: Side) -> &Link {
        self.links.side(side)
    }

    /// One request to one server, waited on.
    pub(crate) fn request(&self, side: Side, req: &Request) -> Response {
        self.links.request(side, req)
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
        let caches = [&self.links.r, &self.links.s]
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
        self.request(side, &Request::Count(self.ext(w)))
            .into_count()
    }

    /// Counts on both sides: `(|Rw|, |Sw|)`, in one round trip.
    pub fn counts(&self, w: &Rect) -> (u64, u64) {
        let ([count_r], [count_s]) = self.counts_of(&[*w]);
        (count_r, count_s)
    }

    /// `COUNT` of every window on both sides, R's batch, then S's: one
    /// round trip.
    fn counts_of<const N: usize>(&self, windows: &[Rect; N]) -> ([u64; N], [u64; N]) {
        let reqs = windows.map(|w| Request::Count(self.ext(&w)));
        let (r, s) = self.links.both();
        (
            fill_counts(|reply| r.request_many(&reqs, reply)),
            fill_counts(|reply| s.request_many(&reqs, reply)),
        )
    }

    /// `COUNT` of every window on one side, in window order: one COUNT
    /// query each, on the extended windows, all sent together.
    pub fn window_counts(&self, side: Side, windows: &[Rect]) -> Vec<u64> {
        let reqs: Vec<Request> = windows
            .iter()
            .map(|w| Request::Count(self.ext(w)))
            .collect();
        let mut counts = Vec::with_capacity(reqs.len());
        self.links
            .request_many(side, &reqs, |resp| counts.push(resp.into_count()));
        counts
    }

    /// Counts of the four quadrants of `w` on one side — one batch, so
    /// every algorithm that repartitions benefits without changes.
    /// [`ExecCtx::window_counts`] without its vectors: a split is the
    /// device's hottest statistics path.
    pub fn quadrant_counts(&self, side: Side, quads: &[Rect; 4]) -> [u64; 4] {
        let reqs = quads.map(|q| Request::Count(self.ext(&q)));
        fill_counts(|reply| self.links.request_many(side, &reqs, reply))
    }

    /// Buys the COUNTs of `w`'s four quadrants, R's four and S's four in
    /// one round trip, as the quadrants of a [`Decision::Split`], each
    /// carrying `note`.
    pub(crate) fn quadrant_split<N: Copy>(&self, w: &Rect, note: N) -> [(f64, f64, N); 4] {
        let (counts_r, counts_s) = self.counts_of(&w.quadrants());
        [0, 1, 2, 3].map(|i| (counts_r[i] as f64, counts_s[i] as f64, note))
    }

    /// `WINDOW` download of the extended window.
    pub fn download(&self, side: Side, w: &Rect) -> Vec<SpatialObject> {
        self.request(side, &Request::Window(self.ext(w)))
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
        depth >= MAX_DEPTH || w.width() <= self.min_window || w.height() <= self.min_window
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

    /// HBSJ on one window: download both sides, join in memory. With the
    /// caller's known `|Sw|` (the extended-window COUNT) it fails without
    /// downloading — or paying for — the second side when `|Rw| + |Sw|`
    /// exceeds the buffer: the R window is downloaded and reserved, the
    /// hint is checked against the remaining capacity, and only then is S
    /// downloaded (and reserved incrementally, which also covers a hint
    /// that undershoots). Without one, S is downloaded before its size is
    /// known.
    pub fn hbsj_leaf(
        &mut self,
        w: &Rect,
        known_count_s: Option<u64>,
    ) -> Result<(), BufferExceeded> {
        self.leaf(w, known_count_s, false)
    }

    /// HBSJ on one window whose two counts are known, as [`Decision::Hbsj`]
    /// and [`Decision::Forced`] run it: [`ExecCtx::hbsj_leaf`] with
    /// `|Sw|`, counted as one round trip where the counts are exact and
    /// fit the buffer together. Exact counts cannot understate a window,
    /// so S's window does not depend on R's reservation there. Elsewhere
    /// it does: on a live deployment a writer can grow a window after its
    /// COUNT, and under
    /// [`NetConfig::allow_partial`](asj_net::NetConfig::allow_partial) a
    /// COUNT can leave out a shard that a later WINDOW reads again.
    fn counted_leaf(&mut self, w: &Rect, count_r: u64, count_s: u64) -> Result<(), BufferExceeded> {
        let together = self.exact_counts && self.buffer.fits((count_r + count_s) as usize);
        self.leaf(w, Some(count_s), together)
    }

    /// [`ExecCtx::hbsj_leaf`]: R's window, its reservation, then S's
    /// window, counted as one round trip for the two when `together`
    /// holds.
    fn leaf(
        &mut self,
        w: &Rect,
        known_count_s: Option<u64>,
        together: bool,
    ) -> Result<(), BufferExceeded> {
        let window = Request::Window(self.ext(w));
        let links = &self.links;
        let (r_objs, s_link) = if together {
            let (r, s) = links.both();
            (r.request(&window).into_objects(), Some(s))
        } else {
            (links.request(Side::R, &window).into_objects(), None)
        };
        let r_hold = self.buffer.reserve(r_objs.len())?;
        if let Some(count_s) = known_count_s {
            if !self.buffer.fits(count_s as usize) {
                return Err(BufferExceeded {
                    requested: count_s as usize,
                    capacity: self.buffer.capacity(),
                });
            }
        }
        let s_objs = match s_link {
            Some(s) => s.request(&window),
            None => links.request(Side::S, &window),
        }
        .into_objects();
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

    /// HBSJ with recursive quadrant decomposition: [`Decision::Hbsj`]
    /// applied to `w`. Windows that overflow the buffer are split 2×2,
    /// children are COUNT-pruned and recursed — "if the data do not fit in
    /// memory, the cell can be recursively partitioned (e.g., PBSM)" plus
    /// SrJoin's "pruning can also be applied at each recursion level".
    pub fn hbsj(&mut self, w: &Rect, count_r: u64, count_s: u64, depth: u32) {
        let counts = (count_r as f64, count_s as f64, ());
        visit(&Decompose, self, Window::at(*w, counts, depth));
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
            let buckets = self.request(inner, &req).into_buckets();
            let Request::BucketEpsRange {
                probes: outer_objs, ..
            } = req
            else {
                unreachable!("request variant is fixed above")
            };
            // Validated in release too: zip would silently drop the
            // unmatched outer objects on a short reply.
            if buckets.len() != outer_objs.len() {
                panic!(
                    "protocol mismatch: BucketEpsRange({}) answered with {} buckets",
                    outer_objs.len(),
                    buckets.len()
                );
            }
            for (o, matches) in outer_objs.iter().zip(buckets) {
                for m in matches {
                    Self::report_pair(&mut self.out, &self.spec, &self.space, outer, o, &m, w);
                }
            }
        } else {
            // One ε-RANGE per outer object, a window of them in flight
            // together; replies are handed over in probe order, so pairs
            // are reported exactly as one probe at a time would.
            let (links, out) = (&self.links, &mut self.out);
            let (spec, space) = (&self.spec, &self.space);
            let mut probes = Vec::with_capacity(PROBE_WINDOW);
            for window in outer_objs.chunks(PROBE_WINDOW) {
                probes.clear();
                probes.extend(window.iter().map(|o| Request::EpsRange { q: o.mbr, eps }));
                let mut probing = window.iter();
                links.request_many(inner, &probes, |resp| {
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
    fn forced(&mut self, w: &Rect, count_r: u64, count_s: u64) {
        self.stats.forced_fallbacks += 1;
        let costs = self.costs(w, count_r as f64, count_s as f64);
        if costs.hbsj_wins() && self.counted_leaf(w, count_r, count_s).is_ok() {
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
        let (link_r, link_s) = (&self.links.r, &self.links.s);
        let (generations_r, generations_s) = (link_r.generations(), link_s.generations());
        if self.live {
            let one_snapshot =
                |link: &Link, (lowest, highest)| link.fleet().is_none() && lowest == highest;
            let raced =
                !(one_snapshot(link_r, generations_r) && one_snapshot(link_s, generations_s));
            if raced || cfg!(debug_assertions) {
                let removed = self.out.collapse_duplicates();
                assert!(
                    raced || removed == 0,
                    "one generation per flat side, yet {removed} pairs were derived twice"
                );
                self.stats.collapsed_pairs = raced.then_some(removed);
            }
        }
        self.stats.round_trips = self.links.round_trips.get();
        let fleet_r = link_r.fleet().map(|t| t.snapshot());
        let fleet_s = link_s.fleet().map(|t| t.snapshot());
        let cache_r = link_r.cache().map(|v| v.snapshot());
        let cache_s = link_s.cache().map(|v| v.snapshot());
        let (link_r, link_s) = (link_r.meter().snapshot(), link_s.meter().snapshot());
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
        ctx.hbsj_leaf(&w, None).unwrap();
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
        assert!(ctx.hbsj_leaf(&dep.space(), None).is_err());
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
        h.hbsj_leaf(&dep.space(), None).unwrap();
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
        ctx.hbsj_leaf(&dep.space(), None).unwrap();
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
        ctx.hbsj_leaf(&dep.space(), None).unwrap();
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
        assert!(ctx.hbsj_leaf(&w, Some(100)).is_err());
        let s_meter = ctx.link(Side::S).meter().snapshot();
        assert_eq!(s_meter.window_queries, 0, "S window must not be paid for");
        assert_eq!(s_meter.objects_received, 0);
        assert_eq!(s_meter.total_bytes(), 0);
        let r_meter = ctx.link(Side::R).meter().snapshot();
        assert_eq!(r_meter.window_queries, 1);
        assert_eq!(r_meter.objects_received, 100);
        assert_eq!(ctx.buffer.in_use(), 0, "reservation released on failure");
        // The un-hinted form must still fail — after the fact.
        assert!(ctx.hbsj_leaf(&w, None).is_err());
        assert!(ctx.link(Side::S).meter().snapshot().window_queries > 0);
    }

    #[test]
    fn a_refused_leaf_is_decomposed_and_never_downloaded_again() {
        // Counts of 50 + 50 understate the 100 + 100 lattice points, as a
        // writer growing the window after its COUNT would make them: the
        // leaf fits on paper, and the buffer refuses it once R is in. The
        // fallback splits and joins four leaves of 25 + 25, so R's window
        // is read once whole and once in quarters, and nothing is forced.
        // S's whole window is asked only after R's reservation, so the
        // refused leaf never sent it.
        let dep = deployment(120);
        let spec = JoinSpec::distance_join(0.5);
        let pts = grid_points(10, 10.0, 0);
        let mut want = asj_geom::sweep::nested_loop_join(&pts, &pts, &spec.predicate);
        want.sort_unstable();
        for planner in ["mobijoin", "hbsj"] {
            let mut ctx = ExecCtx::new(&dep, &spec);
            let rect = dep.space();
            match planner {
                "mobijoin" => visit(
                    &crate::MobiJoin,
                    &mut ctx,
                    Window::at(rect, (50.0, 50.0, ()), 0),
                ),
                _ => ctx.hbsj(&rect, 50, 50, 0),
            }
            let rep = ctx.finish(planner);
            assert_eq!(rep.stats.forced_fallbacks, 0, "{planner}");
            assert_eq!((rep.stats.splits, rep.stats.hbsj_runs), (1, 4), "{planner}");
            assert_eq!(rep.link_r.objects_received, 200, "{planner}");
            assert_eq!(rep.link_s.objects_received, 100, "{planner}");
            assert!(
                rep.peak_buffer <= 120,
                "{planner}: peak {}",
                rep.peak_buffer
            );
            let mut got = rep.pairs;
            got.sort_unstable();
            assert_eq!(got, want, "{planner}");
        }
    }

    #[test]
    fn both_sides_share_a_round_trip_where_neither_waits_on_the_other() {
        let spec = JoinSpec::distance_join(0.5);
        let frozen = deployment(800);
        let live = crate::deploy::DeploymentBuilder::new(
            grid_points(10, 10.0, 0),
            grid_points(10, 10.0, 0),
        )
        .with_buffer(800)
        .with_space(Rect::from_coords(0.0, 0.0, 90.0, 90.0))
        .live()
        .build();
        let w = frozen.space();
        let ctx = ExecCtx::new(&frozen, &spec);
        let trips = |ctx: &ExecCtx| ctx.links.round_trips.get();
        assert_eq!(ctx.counts(&w), (100, 100));
        assert_eq!(trips(&ctx), 1);
        let split = ctx.quadrant_split(&w, ());
        assert_eq!(trips(&ctx), 2);
        let one_by_one = w
            .quadrants()
            .map(|q| (ctx.count(Side::R, &q), ctx.count(Side::S, &q)));
        assert_eq!(split.map(|(r, s, ())| (r as u64, s as u64)), one_by_one);
        // A frozen leaf whose counts fit: one round trip, and the bytes,
        // pairs and peak of the sequential leaf.
        let mut together = ExecCtx::new(&frozen, &spec);
        together.counted_leaf(&w, 100, 100).unwrap();
        assert_eq!(trips(&together), 1);
        let mut sequential = ExecCtx::new(&frozen, &spec);
        sequential.hbsj_leaf(&w, Some(100)).unwrap();
        assert_eq!(trips(&sequential), 2);
        let (a, b) = (together.finish("t"), sequential.finish("s"));
        assert_eq!((a.link_r, a.link_s), (b.link_r, b.link_s));
        assert_eq!((a.pairs, a.peak_buffer), (b.pairs, b.peak_buffer));
        assert_eq!((a.stats.round_trips, b.stats.round_trips), (1, 2));
        // Live, S waits for R's reservation.
        let mut ctx = ExecCtx::new(&live, &spec);
        ctx.counted_leaf(&w, 100, 100).unwrap();
        assert_eq!(trips(&ctx), 2);
    }

    #[test]
    fn a_refused_partial_leaf_never_pays_for_s() {
        // Two shards a side, cut at x = 45, and replica 0 of every shard
        // dark for its third exchange. Two COUNTs of a corner reach R's
        // left shard only, so the root COUNT loses that shard on R (50 of
        // 100) and none on S. The leaf's counts fit a buffer of 160 on
        // paper; R's window reads both shards again, and the buffer
        // refuses the leaf once R is in. S's window must not cross the
        // wire, and the leaf is two round trips, not one: its counts are
        // not exact.
        let dep = crate::deploy::DeploymentBuilder::new(
            grid_points(10, 10.0, 0),
            grid_points(10, 10.0, 0),
        )
        .with_buffer(160)
        .with_space(Rect::from_coords(0.0, 0.0, 90.0, 90.0))
        .with_net(asj_net::NetConfig::default().with_allow_partial(true))
        .with_shards(2, 2)
        .with_faults(asj_net::FaultPlan::seeded(0).with_crash(2, 1))
        .build();
        let spec = JoinSpec::distance_join(0.5);
        let mut ctx = ExecCtx::new(&dep, &spec);
        let corner = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        assert_eq!(
            [ctx.count(Side::R, &corner), ctx.count(Side::R, &corner)],
            [4, 4]
        );
        let w = dep.space();
        assert_eq!(ctx.counts(&w), (50, 100), "R's COUNT lost its left shard");
        let s_before = ctx.link(Side::S).meter().snapshot();
        assert!(ctx.counted_leaf(&w, 50, 100).is_err());
        assert_eq!(ctx.link(Side::R).meter().snapshot().objects_received, 100);
        assert_eq!(
            ctx.link(Side::S).meter().snapshot(),
            s_before,
            "S's window must not be paid for"
        );
        assert_eq!(ctx.links.round_trips.get(), 4);
    }

    #[test]
    fn batched_quadrant_counts_match_per_query() {
        let dep = deployment(800);
        let spec = JoinSpec::distance_join(10.0);
        let ctx = ExecCtx::new(&dep, &spec);
        let quads = Rect::from_coords(0.0, 0.0, 90.0, 90.0).quadrants();
        // A split's four COUNTs travel as one pipelined batch and answer
        // as four single COUNTs do.
        for side in [Side::R, Side::S] {
            let one_by_one = quads.map(|q| ctx.count(side, &q));
            assert_eq!(ctx.quadrant_counts(side, &quads), one_by_one);
            assert_eq!(ctx.window_counts(side, &quads), one_by_one);
        }
        // Four COUNTs a round, and the cost model prices exactly what
        // the meter measured.
        let before = ctx.link(Side::R).meter().snapshot();
        ctx.quadrant_counts(Side::R, &quads);
        let round = ctx.link(Side::R).meter().snapshot().since(&before);
        assert_eq!(round.count_queries, 4);
        assert_eq!(round.aggregate_bytes() as f64, ctx.cost.stats_round(4));
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
