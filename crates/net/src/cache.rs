//! Client-side semantic statistics/window/probe cache in the link stack.
//!
//! The paper's premise is that wireless transfer dominates join cost —
//! yet the device keeps re-paying for the same bytes: quadrant recursion
//! re-COUNTs windows an earlier round already priced, a failed HBSJ
//! attempt re-downloads its outer window for the NLSJ fallback, NLSJ sends
//! the same ε-RANGE probe for the same outer object join after join, and a
//! session of joins against the same servers repeats whole query streams.
//! The cache holds **what the device has paid for until the server says it
//! changed**.
//!
//! A [`CacheLayer`] sits between a [`Link`](crate::Link) and whatever
//! reaches the server — one physical edge, *or* a whole shard fleet
//! behind a [`ShardRouter`](crate::router::ShardRouter) — so every join
//! algorithm benefits unchanged. Three tiers:
//!
//! * **Exact statistics tier** — `COUNT` answers keyed by the bit-exact
//!   query rectangle (a total-order `f64::to_bits` key, so `-0.0 ≠ 0.0`
//!   and NaN-free wire rects never alias).
//! * **Semantic window tier** — a byte-budgeted LRU of downloaded
//!   windows. A `WINDOW` (or ε-RANGE) request whose reach is contained in
//!   a cached window is answered locally by filtering that window's
//!   objects; a covered `COUNT` is derived the same way. An entry keeps,
//!   beside its objects, the MBR of every 16 consecutive ones (a *run*),
//!   and a lookup tests runs before objects: a hit costs about what its
//!   answer holds, not what its window does.
//! * **Exact probe tier** — ε-RANGE answers keyed by the bit-exact
//!   `(q, ε)`, for the probes no cached window contains. Its entry cap is
//!   its own, not a share of the window budget: a join's windows plus its
//!   probes are one cyclic working set, and an LRU they shared would evict
//!   it whole.
//!
//! # One content generation
//!
//! Servers serve **generational snapshots** and stamp every reply with
//! the generation it was answered from. Every entry of a [`ClientCache`]
//! is an answer at one and the same generation — the *content generation*
//! — and **every local answer equals, as a set, what the server would
//! answer at that generation**. Lookups and admissions name a generation:
//! a lookup at any other matches nothing, an answer served at any other is
//! not stored.
//!
//! The cache learns that the servers moved on only from what crosses the
//! link anyway — the `Ack` of an update sent through it, or the stamp of a
//! reply to a miss ([`ClientCache::note_generation`]). The next request
//! that consults the cache — or the miss itself, before its answer is
//! admitted — then asks **once** what changed
//! ([`Request::Changes`]) and patches every entry with the ordered
//! remove/add list it gets back: a window drops the removed id and takes
//! in an added object that intersects it, an exact count moves by one per
//! op whose MBR intersects its rectangle, a probe answer is patched under
//! `within_distance` — each the very predicate the server would evaluate,
//! so the invariant carries over to the generation the list reaches.
//!
//! The list is bought only where it can pay: its most is what the content
//! would cost to download again, so a list *known* to cost that much —
//! every bump since the content generation was an update acknowledged
//! through this store, at most two ops an update — is not asked for, and
//! an empty store asks for none. Then, and where no list is to be had —
//! `Refused` by a frozen store, by a log that no longer reaches back, by a
//! fleet router (a summed fleet generation names no shard's `since`), or
//! a failed exchange — the cache is **purged** and starts over at the new
//! generation. Against a frozen (generation-0) server none of this ever
//! runs: every hit simply deletes a round trip and its wire bytes.
//!
//! # Containment invariant
//!
//! Every object the server would return for a probe intersects the
//! probe's *reach*, the protocol's law the shard router prunes by too: a
//! window reaches itself, an ε-RANGE reaches `q` grown by |ε| (ε enters
//! the predicate squared). For a probe whose reach lies inside a cached
//! window `W`, every such object intersects `W`, hence was in the `W`
//! download; filtering the cached objects with the *server's own
//! predicate* (`intersects` for `WINDOW`/`COUNT`, `within_distance` for
//! ε-RANGE) therefore reproduces the server's answer exactly, as a set.
//! All checks
//! run on the request's [`wire_exact`] form, i.e. after the codec's f32
//! rounding — the very rectangle the server would evaluate — so float
//! rounding can never make a local answer diverge from a remote one.
//!
//! The filter skips a run whose MBR fails the *very predicate its objects
//! are filtered by*, and that is exact for the reason the server's R-tree
//! may prune: an object's MBR lies inside its run's, and both predicates
//! are comparisons over float operations monotone in every coordinate, so
//! an object that passes has a run that passes — no grid arithmetic, no
//! padding, no epsilon. A `COUNT` adds a run's length unvisited when the
//! window contains the run's MBR, hence every MBR in it.
//!
//! # Order of a local answer
//!
//! A containment hit lists the matching objects **in the order the entry
//! holds them**, as the plain filter it replaces did. An entry is admitted
//! in the order the server sent it, so until a change list first touches
//! it a local answer is the server's own answer element for element —
//! `tests/device_scaling.rs::shared_cache_answers_match_serial_replay`
//! digests answers order-sensitively and holds that. A change list that
//! touches an entry drops, appends and then re-orders it for locality
//! (`WindowEntry::repack`); from then on the contract is the set, and the
//! order merely one every lookup of that entry agrees on.
//!
//! # Eviction invariant
//!
//! Eviction only ever *forgets*: the LRU drops whole window entries until
//! the tier fits its byte budget, so a hit is always served from a
//! complete server download (patched, if the servers have moved since).
//! Admission keeps the index canonical: a window covered by an existing
//! entry is not admitted (it is derivable), and admitting a window drops
//! any cached entries it covers. The two exact tiers are capped at the
//! window budget's scale in entries and replace their oldest entry at the
//! cap (forgetting an answer is always safe — it just re-pays one round
//! trip).
//!
//! # Accounting
//!
//! Locally answered requests touch no meter — they are not messages —
//! and are instead tallied per link as a [`CacheSnapshot`]'s hits, misses
//! and saved wire bytes, priced at the logical-request seam (the v1 frame
//! sizes the codec publishes). Misses, and the `Changes` exchange, are
//! metered where every exchange is: at the physical edges below.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use asj_geom::{IdMix, Point, Rect, SpatialObject};

use crate::codec::{
    request_wire_bytes, response_wire_bytes, wire_exact, ANSWER_BYTES, CHANGES_HEADER_BYTES,
    CHANGES_QUERY_BYTES, CHANGE_OP_BYTES, EPS_QUERY_BYTES, GEN_STAMP_BYTES, OBJECTS_HEADER_BYTES,
    OBJ_BYTES, QUERY_BYTES,
};
use crate::edge::{Edge, Layer};
use crate::meter::{CacheSnapshot, CacheTelemetry, LinkMeter};
use crate::packet::{NetConfig, PacketModel};
use crate::proto::{DeltaOp, Request, Response, Update};
use crate::transport::RawExchange;

/// Bit-exact total-order key of a query rectangle. `Ord` so victim
/// selection can break ties deterministically (std `HashMap` iteration
/// order is process-random).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct RectKey([u64; 4]);

impl RectKey {
    fn of(r: &Rect) -> Self {
        RectKey([
            r.min.x.to_bits(),
            r.min.y.to_bits(),
            r.max.x.to_bits(),
            r.max.y.to_bits(),
        ])
    }

    /// The rectangle this is the key of.
    fn rect(&self) -> Rect {
        let [x0, y0, x1, y1] = self.0.map(f64::from_bits);
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }
}

/// Probe-tier key: the bit-exact probe rectangle and ε.
type ProbeKey = (RectKey, u64);

/// Objects per run of a window entry's index.
const RUN: usize = 16;

/// Byte budget (wire-format bytes) of the window tier of a deployment's
/// stores, [`ClientCache::default`].
const WINDOW_BUDGET_BYTES: u64 = 256 * 1024;

/// One cached window download.
struct WindowEntry {
    window: Rect,
    /// In held order: the server's, until a change list touches the entry.
    objects: Vec<SpatialObject>,
    /// The MBR of every `RUN` consecutive objects, the last run the
    /// shorter one: a one-level packed R-tree over the held order.
    runs: Vec<Rect>,
    /// LRU recency tick (bumped on every hit).
    last_used: u64,
}

impl WindowEntry {
    /// The download `objects` of `window`, indexed in the order it came.
    fn new(window: Rect, objects: &[SpatialObject], last_used: u64) -> Self {
        let mut entry = WindowEntry {
            window,
            objects: objects.to_vec(),
            runs: Vec::with_capacity(objects.len().div_ceil(RUN)),
            last_used,
        };
        entry.index();
        entry
    }

    /// Wire-format size charged against the budget.
    fn bytes(&self) -> u64 {
        OBJECTS_HEADER_BYTES + self.objects.len() as u64 * OBJ_BYTES
    }

    /// Recomputes the run MBRs from the objects as they are held.
    fn index(&mut self) {
        let mbr = |run: &[SpatialObject]| {
            Rect::union_of(run.iter().map(|o| o.mbr)).expect("a chunk is never empty")
        };
        self.runs.clear();
        self.runs.extend(self.objects.chunks(RUN).map(mbr));
    }

    /// The runs whose MBR satisfies `pred`, each with its MBR. An object
    /// satisfying one of the two lookup predicates lies in such a run.
    fn runs_where<'a>(
        &'a self,
        pred: impl Fn(&Rect) -> bool + 'a,
    ) -> impl Iterator<Item = (&'a Rect, &'a [SpatialObject])> {
        let runs = self.runs.iter().zip(self.objects.chunks(RUN));
        runs.filter(move |(mbr, _)| pred(mbr))
    }

    /// The held objects whose MBR satisfies `pred`, in held order, in a
    /// `Vec` allocated once: the passing runs bound its length.
    fn select(&self, pred: impl Fn(&Rect) -> bool) -> Vec<SpatialObject> {
        let reserve = self.runs_where(&pred).map(|(_, run)| run.len()).sum();
        let mut out = Vec::with_capacity(reserve);
        for (_, run) in self.runs_where(&pred) {
            out.extend(run.iter().filter(|o| pred(&o.mbr)));
        }
        out
    }

    /// How many held objects intersect `w`. A run `w` contains is counted
    /// unvisited — the aR-tree shortcut of `asj-rtree`, on the device.
    fn count(&self, w: &Rect) -> u64 {
        let hits = |(mbr, run): (&Rect, &[SpatialObject])| {
            if w.contains_rect(mbr) {
                return run.len();
            }
            run.iter().filter(|o| o.mbr.intersects(w)).count()
        };
        self.runs_where(|mbr| mbr.intersects(w))
            .map(hits)
            .sum::<usize>() as u64
    }

    /// Re-orders the objects for locality after a patch appended to them
    /// — one stable counting sort, cell-major over a ⌈√(n / RUN)⌉² grid
    /// of the window by MBR centre — and indexes the new order. Which
    /// order is a locality choice only: a patched entry answers as a set.
    fn repack(&mut self) {
        let runs = self.objects.len().div_ceil(RUN);
        let k = ((runs as f64).sqrt().ceil() as usize).max(1);
        let (lo, kx, ky) = (
            self.window.min,
            k as f64 / self.window.width(),
            k as f64 / self.window.height(),
        );
        // `as usize` saturates and sends NaN — a centre on a zero-extent
        // axis, `0.0 * inf` — to 0: every centre, in the window or out of
        // it, gets a cell.
        let axis = |c: f64, lo: f64, per: f64| (((c - lo) * per) as usize).min(k - 1);
        let cell = |o: &SpatialObject| {
            let c = o.mbr.center();
            axis(c.y, lo.y, ky) * k + axis(c.x, lo.x, kx)
        };
        let mut next = vec![0; k * k + 1];
        for o in &self.objects {
            next[cell(o) + 1] += 1;
        }
        for c in 0..k * k {
            next[c + 1] += next[c];
        }
        let mut packed = self.objects.clone();
        for o in &self.objects {
            let slot = &mut next[cell(o)];
            packed[*slot] = *o;
            *slot += 1;
        }
        self.objects = packed;
        self.index();
    }
}

/// An exact tier: answers by key, the oldest replaced at the cap. The
/// insertion-order queue makes the victim deterministic (std `HashMap`
/// iteration order is process-randomized, which would break the repo's
/// bit-identical pinned-seed reproducibility once the cap is hit).
struct ExactTier<K, V> {
    /// Keyed by the device's own requests, bit for bit: one keyed 64-bit
    /// mix a word instead of SipHash.
    entries: HashMap<K, V, IdMix>,
    order: VecDeque<K>,
}

impl<K, V> Default for ExactTier<K, V> {
    fn default() -> Self {
        ExactTier {
            entries: HashMap::default(),
            order: VecDeque::new(),
        }
    }
}

impl<K: Copy + Eq + Hash, V> ExactTier<K, V> {
    /// Records an authoritative answer. Replacing the oldest entry at the
    /// cap is correctness-safe — forgetting an answer only re-pays one
    /// round trip — and keeps a long-lived session store bounded.
    fn put(&mut self, key: K, value: V, cap: usize) {
        if let Some(resident) = self.entries.get_mut(&key) {
            *resident = value;
            return;
        }
        if self.entries.len() >= cap {
            let Some(victim) = self.order.pop_front() else {
                return; // a cap of zero holds nothing
            };
            self.entries.remove(&victim);
        }
        self.entries.insert(key, value);
        self.order.push_back(key);
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }
}

#[derive(Default)]
struct CacheState {
    /// The content generation: every entry below is an answer at it.
    content: u64,
    /// Highest serving generation heard of from the server(s) behind this
    /// cache; ahead of `content` between a bump being heard of and the
    /// next request catching up with it.
    noted: u64,
    /// While `noted` is ahead: an upper bound on the ops of the change
    /// list between the two, kept as long as every bump in between was an
    /// update acknowledged through a link to this store; `None` once one
    /// was not — learnt from a stamp, its size anybody's guess.
    owed_ops: Option<u64>,
    counts: ExactTier<RectKey, u64>,
    windows: Vec<WindowEntry>,
    probes: ExactTier<ProbeKey, Vec<SpatialObject>>,
    tick: u64,
}

/// What stands between a store's content and the newest generation it has
/// heard of.
struct Lag {
    /// The content generation.
    since: u64,
    noted: u64,
    /// Wire bytes it would take to buy the content again, entry by entry.
    worth: u64,
    /// See [`CacheState::owed_ops`].
    owed_ops: Option<u64>,
}

impl CacheState {
    /// What the entries held would cost to download again, one round trip
    /// each at the content generation.
    fn worth(&self, packet: &PacketModel) -> u64 {
        let stamp = if self.content > 0 { GEN_STAMP_BYTES } else { 0 };
        let trip = |req: u64, resp: u64| packet.tb(req) + packet.tb(stamp + resp);
        let objects = |n: usize| OBJECTS_HEADER_BYTES + n as u64 * OBJ_BYTES;
        let windows = self.windows.iter();
        let probes = self.probes.entries.values();
        self.counts.entries.len() as u64 * trip(QUERY_BYTES, ANSWER_BYTES)
            + windows.map(|e| trip(QUERY_BYTES, e.bytes())).sum::<u64>()
            + probes
                .map(|a| trip(EPS_QUERY_BYTES, objects(a.len())))
                .sum::<u64>()
    }

    /// Records that the servers reached `generation` — by an update of at
    /// most `ops` ops acknowledged through this store, or (`None`) as a
    /// reply's stamp tells.
    fn note(&mut self, generation: u64, ops: Option<u64>) {
        if generation <= self.noted {
            return;
        }
        let owed = if self.noted == self.content {
            Some(0)
        } else {
            self.owed_ops
        };
        // Only the very next generation is reached by that update alone.
        let next = generation == self.noted + 1;
        self.owed_ops = owed.zip(ops).filter(|_| next).map(|(owed, ops)| owed + ops);
        self.noted = generation;
    }

    /// The first cached window containing `reach`, marked used.
    fn containing(&mut self, reach: &Rect) -> Option<&WindowEntry> {
        let i = self
            .windows
            .iter()
            .position(|e| e.window.contains_rect(reach))?;
        self.tick += 1;
        self.windows[i].last_used = self.tick;
        Some(&self.windows[i])
    }
}

/// Applies `ops`, in order, to the answer `objects` of a query that holds
/// exactly the objects whose MBR satisfies `holds`.
fn patch(objects: &mut Vec<SpatialObject>, ops: &[DeltaOp], holds: impl Fn(&Rect) -> bool) {
    for op in ops {
        match *op {
            DeltaOp::Remove { id, mbr } if holds(&mbr) => objects.retain(|o| o.id != id),
            DeltaOp::Add(o) if holds(&o.mbr) => objects.push(o),
            _ => {}
        }
    }
}

/// The shared cache store behind one logical server (or fleet).
///
/// One `ClientCache` is created per *side* of a deployment and shared by
/// every link the deployment hands out, so a session of joins against the
/// same servers reuses earlier downloads across joins. All methods are
/// `&self` (internally locked): concurrent device threads may share one
/// cache.
pub struct ClientCache {
    state: Mutex<CacheState>,
    window_budget: u64,
    /// Entry cap of each exact tier, derived from the window budget (an
    /// exact count is ~40 bytes of device memory): the device the system
    /// models is memory-constrained, and a long-lived session store must
    /// not grow without bound.
    exact_cap: usize,
    /// Admissions, evictions and residency; its lookup counters stay 0
    /// (each link tallies its own).
    tally: CacheTelemetry,
}

impl ClientCache {
    /// An empty cache with the given window-tier byte budget. Each exact
    /// tier is capped at the same byte scale (`budget / 40` entries).
    pub fn new(window_budget_bytes: u64) -> Self {
        ClientCache {
            state: Mutex::new(CacheState::default()),
            window_budget: window_budget_bytes,
            exact_cap: (window_budget_bytes / 40) as usize,
            tally: CacheTelemetry::default(),
        }
    }

    /// The highest serving generation observed so far (0 until the
    /// servers go live — frozen responses carry no stamp).
    pub fn generation(&self) -> u64 {
        self.state.lock().expect("cache poisoned").noted
    }

    /// Records an observed serving generation (monotone max). Nothing
    /// changes hands here: the next cacheable request through a
    /// [`CacheLayer`] brings the content up to it.
    pub fn note_generation(&self, generation: u64) {
        // Frozen servers report 0 with every reply: nothing to lock for.
        if generation > 0 {
            self.state
                .lock()
                .expect("cache poisoned")
                .note(generation, None);
        }
    }

    /// Records the `Ack` of an update sent through a link to this store:
    /// the servers reached `generation` by a batch of at most `ops` ops.
    fn note_update(&self, generation: u64, ops: u64) {
        let mut state = self.state.lock().expect("cache poisoned");
        state.note(generation, Some(ops));
    }

    /// The content generation when it is the newest heard of, else what
    /// catching up would take.
    fn lag(&self, packet: &PacketModel) -> Result<u64, Lag> {
        let state = self.state.lock().expect("cache poisoned");
        if state.noted <= state.content {
            return Ok(state.content);
        }
        Err(Lag {
            since: state.content,
            noted: state.noted,
            worth: state.worth(packet),
            owed_ops: state.owed_ops,
        })
    }

    /// The generation every entry is an answer at — the only one lookups
    /// match and admissions are stored at.
    pub fn content_generation(&self) -> u64 {
        self.state.lock().expect("cache poisoned").content
    }

    /// The state, if `generation` is the content generation.
    fn at(&self, generation: u64) -> Option<std::sync::MutexGuard<'_, CacheState>> {
        let state = self.state.lock().expect("cache poisoned");
        (state.content == generation).then_some(state)
    }

    /// Looks up `COUNT(w)` at `generation`: the exact statistics tier
    /// first (bit-exact key; an exact entry wins over derivation, so a
    /// wrong one is served — `tests/cached.rs` must catch the mutant
    /// `tools/mutants/cache-exact-count-flipped.diff`, which flips the one
    /// largest cached count), then derivation from any cached window
    /// containing `w`.
    pub fn count(&self, w: &Rect, generation: u64) -> Option<u64> {
        let mut state = self.at(generation)?;
        if let Some(&c) = state.counts.entries.get(&RectKey::of(w)) {
            return Some(c);
        }
        Some(state.containing(w)?.count(w))
    }

    /// Records an authoritative `COUNT(w)` answer served at `generation`.
    pub fn observe_count(&self, w: &Rect, count: u64, generation: u64) {
        if let Some(mut state) = self.at(generation) {
            state.counts.put(RectKey::of(w), count, self.exact_cap);
        }
    }

    /// Looks up `WINDOW(w)` at `generation` via containment: filtered
    /// objects of a cached window containing `w`.
    pub fn window(&self, w: &Rect, generation: u64) -> Option<Vec<SpatialObject>> {
        let mut state = self.at(generation)?;
        Some(state.containing(w)?.select(|mbr| mbr.intersects(w)))
    }

    /// Looks up `ε-RANGE(q, eps)` at `generation`: the exact probe tier
    /// first, then containment — a qualifying object's MBR intersects the
    /// probe's reach, `q` grown by |ε|; any cached window containing that
    /// reach holds every answer.
    pub fn eps_range(&self, q: &Rect, eps: f64, generation: u64) -> Option<Vec<SpatialObject>> {
        let mut state = self.at(generation)?;
        if let Some(answer) = state.probes.entries.get(&(RectKey::of(q), eps.to_bits())) {
            return Some(answer.clone());
        }
        let held = state.containing(&Request::EpsRange { q: *q, eps }.reach(0))?;
        Some(held.select(|mbr| mbr.within_distance(q, eps)))
    }

    /// Records an authoritative `ε-RANGE(q, eps)` answer served at
    /// `generation`.
    pub(crate) fn admit_probe(
        &self,
        q: &Rect,
        eps: f64,
        objects: &[SpatialObject],
        generation: u64,
    ) {
        if let Some(mut state) = self.at(generation) {
            let key = (RectKey::of(q), eps.to_bits());
            state.probes.put(key, objects.to_vec(), self.exact_cap);
        }
    }

    /// Admits a `WINDOW(w)` download served at `generation`, evicting
    /// least-recently-used entries until the byte budget holds. Skipped
    /// when the window is already derivable from an entry or alone exceeds
    /// the budget; entries covered by `w` are dropped (they become
    /// derivable).
    pub fn admit_window(&self, w: &Rect, objects: &[SpatialObject], generation: u64) {
        if OBJECTS_HEADER_BYTES + objects.len() as u64 * OBJ_BYTES > self.window_budget {
            return;
        }
        let Some(mut state) = self.at(generation) else {
            return;
        };
        if state.windows.iter().any(|e| e.window.contains_rect(w)) {
            return;
        }
        state.windows.retain(|e| !w.contains_rect(&e.window));
        state.tick += 1;
        let entry = WindowEntry::new(*w, objects, state.tick);
        state.windows.push(entry);
        self.tally.insertions.fetch_add(1, Ordering::Relaxed);
        self.fit_budget(&mut state);
    }

    /// Evicts least-recently-used windows until the tier fits its budget,
    /// and publishes what is left as the resident gauge.
    fn fit_budget(&self, state: &mut CacheState) {
        let mut resident: u64 = state.windows.iter().map(WindowEntry::bytes).sum();
        while resident > self.window_budget {
            let oldest = state.windows.iter().enumerate();
            let (i, _) = oldest
                .min_by_key(|(_, e)| e.last_used)
                .expect("budget overflow with no entries");
            resident -= state.windows.remove(i).bytes();
            self.tally.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.tally.resident_bytes.store(resident, Ordering::Relaxed);
    }

    /// Carries every entry from generation `since` over to `reached` by
    /// the ordered change list between the two: each answer is patched
    /// under the predicate that defines it, so it stays what the server
    /// would answer. A no-op unless `since` is the content generation
    /// (another link sharing the store got there first).
    pub(crate) fn apply_changes(&self, since: u64, reached: u64, ops: &[DeltaOp]) {
        let Some(mut state) = self.at(since) else {
            return;
        };
        let state = &mut *state;
        // Only an entry some op's MBR touches changes; it is patched —
        // removes retained out, adds appended — and packed again.
        let touches = |w: &Rect| {
            ops.iter().any(|op| match op {
                DeltaOp::Remove { mbr, .. } | DeltaOp::Add(SpatialObject { mbr, .. }) => {
                    mbr.intersects(w)
                }
            })
        };
        for e in state.windows.iter_mut().filter(|e| touches(&e.window)) {
            patch(&mut e.objects, ops, |mbr| mbr.intersects(&e.window));
            e.repack();
        }
        for (key, count) in &mut state.counts.entries {
            let w = key.rect();
            for op in ops {
                match op {
                    DeltaOp::Remove { mbr, .. } if mbr.intersects(&w) => {
                        *count = count.saturating_sub(1)
                    }
                    DeltaOp::Add(o) if o.mbr.intersects(&w) => *count += 1,
                    _ => {}
                }
            }
        }
        for ((q, eps), answer) in &mut state.probes.entries {
            let (q, eps) = (q.rect(), f64::from_bits(*eps));
            patch(answer, ops, |mbr| mbr.within_distance(&q, eps));
        }
        state.content = reached;
        state.note(reached, None);
        self.fit_budget(state);
    }

    /// Forgets everything and starts over at `generation` (or stays where
    /// it is, if already past it): what is done when the servers moved on
    /// and no change list is to be had.
    pub(crate) fn purge(&self, generation: u64) {
        let mut state = self.state.lock().expect("cache poisoned");
        state.counts.clear();
        state.windows.clear();
        state.probes.clear();
        state.content = state.content.max(generation);
        state.note(generation, None);
        self.tally.resident_bytes.store(0, Ordering::Relaxed);
    }

    /// Bytes currently resident in the window tier.
    pub fn resident_bytes(&self) -> u64 {
        self.tally.resident_bytes.load(Ordering::Relaxed)
    }
}

impl Default for ClientCache {
    /// The store a deployment gives each side: a 256 KiB window tier.
    fn default() -> Self {
        ClientCache::new(WINDOW_BUDGET_BYTES)
    }
}

/// One link's view of its cache: the per-link telemetry plus the
/// (possibly session-shared) store. Snapshot at will.
#[derive(Clone)]
pub struct CacheView {
    cache: Arc<ClientCache>,
    telemetry: Arc<CacheTelemetry>,
}

impl CacheView {
    /// Point-in-time copy: this link's hit/miss/saved counters plus the
    /// shared store's admissions and residency. Each of the two tallies
    /// leaves the other's fields at 0, so the view is their sum.
    pub fn snapshot(&self) -> CacheSnapshot {
        self.telemetry.load().plus(&self.cache.tally.load())
    }

    /// The shared store (for session inspection).
    pub fn store(&self) -> &Arc<ClientCache> {
        &self.cache
    }
}

/// The caching layer. See the module docs for tiers and invariants.
pub struct CacheLayer {
    inner: Box<dyn Layer>,
    packet: PacketModel,
    /// The meter the physical edges below charge (the inner edge's own,
    /// or an inner router's aggregate) — what the fronting [`Link`]
    /// exposes.
    meter: Arc<LinkMeter>,
    fleet: Option<Arc<crate::router::ShardTelemetry>>,
    cache: Arc<ClientCache>,
    telemetry: Arc<CacheTelemetry>,
}

impl CacheLayer {
    /// A cache in front of one physical edge over `inner`, metered into
    /// a fresh link meter; the edge speaks `net`'s packet model, wire
    /// version and retry discipline.
    pub fn new(inner: Box<dyn RawExchange>, net: &NetConfig, cache: Arc<ClientCache>) -> Self {
        let meter = Arc::new(LinkMeter::new());
        let edge = Edge::new(inner, net, Arc::clone(&meter));
        CacheLayer::over(Box::new(edge), net.packet, meter, None, cache)
    }

    /// A cache stacked over a whole shard fleet: misses scatter as
    /// usual, and the fronting link adopts the router's aggregate meter
    /// and fleet telemetry unchanged.
    pub fn over_router(router: crate::router::ShardRouter, cache: Arc<ClientCache>) -> Self {
        let (packet, meter) = (router.packet, Arc::clone(router.aggregate_meter()));
        let fleet = Some(Arc::clone(router.telemetry()));
        CacheLayer::over(Box::new(router), packet, meter, fleet, cache)
    }

    fn over(
        inner: Box<dyn Layer>,
        packet: PacketModel,
        meter: Arc<LinkMeter>,
        fleet: Option<Arc<crate::router::ShardTelemetry>>,
        cache: Arc<ClientCache>,
    ) -> Self {
        CacheLayer {
            inner,
            packet,
            meter,
            fleet,
            cache,
            telemetry: Arc::default(),
        }
    }

    /// The meter the fronting [`Link`](crate::Link) should expose.
    pub fn meter(&self) -> &Arc<LinkMeter> {
        &self.meter
    }

    /// Per-shard telemetry when the inner layer is a fleet router.
    pub fn fleet(&self) -> Option<&Arc<crate::router::ShardTelemetry>> {
        self.fleet.as_ref()
    }

    /// This layer's cache view (telemetry + shared store).
    pub fn view(&self) -> CacheView {
        CacheView {
            cache: Arc::clone(&self.cache),
            telemetry: Arc::clone(&self.telemetry),
        }
    }

    /// Wire bytes (both directions, packetized) `req` and its answer at
    /// `generation` would have cost at the logical-request seam.
    fn priced(&self, req: &Request, resp: &Response, generation: u64) -> u64 {
        let stamp = if generation > 0 { GEN_STAMP_BYTES } else { 0 };
        self.packet.tb(request_wire_bytes(req)) + self.packet.tb(stamp + response_wire_bytes(resp))
    }

    /// Brings the store's content up to the newest generation heard of,
    /// and returns the content generation. Where the content is behind,
    /// one `Changes` exchange below buys the list that patches it —
    /// unless the list is known to cost more than everything it could
    /// save, the price of downloading the content again (nothing, for an
    /// empty store). Then, and on a refusal or a failure, the content is
    /// purged instead.
    fn catch_up(&self) -> u64 {
        let lag = match self.cache.lag(&self.packet) {
            Ok(current) => return current,
            Err(lag) => lag,
        };
        let list = |ops| GEN_STAMP_BYTES + CHANGES_HEADER_BYTES + ops * CHANGE_OP_BYTES;
        let price = |ops| self.packet.tb(CHANGES_QUERY_BYTES) + self.packet.tb(list(ops));
        if lag.worth <= lag.owed_ops.map_or(0, price) {
            self.cache.purge(lag.noted);
            return lag.noted;
        }
        match self.inner.call(&Request::Changes { since: lag.since }) {
            (Response::Changes(ops), reached) => self.cache.apply_changes(lag.since, reached, &ops),
            (_, refused_at) => self.cache.purge(lag.noted.max(refused_at)),
        }
        self.cache.content_generation()
    }

    /// The cache's answer to a cacheable `req` at `generation`, tallied as
    /// a hit or a miss.
    fn held(&self, req: &Request, generation: u64) -> Option<Response> {
        let t = &self.telemetry;
        match req {
            Request::Count(w) => {
                let hit = self.cache.count(w, generation);
                t.record_stats(hit.is_some());
                hit.map(Response::Count)
            }
            Request::Window(w) => {
                let hit = self.cache.window(w, generation);
                t.record_window(hit.is_some());
                hit.map(Response::Objects)
            }
            Request::EpsRange { q, eps } => {
                let hit = self.cache.eps_range(q, *eps, generation);
                t.record_probe(hit.is_some());
                hit.map(Response::Objects)
            }
            _ => None,
        }
    }

    /// Sends `req` to the layer below and notes the serving generation
    /// its reply reports into the shared store — an acknowledged
    /// update's with the most ops its batch can have made (a delete
    /// removes, an insert or a move may remove and add). (A failed
    /// exchange reports no generation a healthy one has not.)
    fn forward(&self, req: &Request) -> (Response, u64) {
        let (resp, generation) = self.inner.call(req);
        match (req, &resp) {
            (Request::ApplyUpdates(batch), Response::Ack { .. }) => {
                let ops = |u: &Update| if matches!(u, Update::Delete(_)) { 1 } else { 2 };
                self.cache
                    .note_update(generation, batch.iter().map(ops).sum());
            }
            _ => self.cache.note_generation(generation),
        }
        (resp, generation)
    }

    /// Admits `resp`, an authoritative answer to `req` served at
    /// `generation`, to the tier that holds its kind.
    fn admit(&self, req: &Request, resp: &Response, generation: u64) {
        match (req, resp) {
            (Request::Count(w), Response::Count(c)) => self.cache.observe_count(w, *c, generation),
            (Request::Window(w), Response::Objects(objects)) => {
                self.cache.admit_window(w, objects, generation)
            }
            (Request::EpsRange { q, eps }, Response::Objects(objects)) => {
                self.cache.admit_probe(q, *eps, objects, generation)
            }
            _ => {}
        }
    }
}

impl Layer for CacheLayer {
    /// A cacheable request (`COUNT`, `WINDOW`, `ε-RANGE`) catches up,
    /// takes its [`wire_exact`] form — the one every rectangle decision
    /// is taken on — and looks up at the content generation: a hit is
    /// priced as saved bytes, the whole round trip, and answered at that
    /// generation. A miss is forwarded; when its reply reports another
    /// generation than the lookup's — an update landed in between — the
    /// store catches up before the answer is admitted, so it is stored
    /// only if it was served at the content generation. (A failure
    /// reports generation 0, which is not "the servers advanced".)
    /// Everything else — bucket probes, the cooperative extension,
    /// writes — is forwarded as it came.
    fn call(&self, req: &Request) -> (Response, u64) {
        if !matches!(
            req,
            Request::Count(_) | Request::Window(_) | Request::EpsRange { .. }
        ) {
            return self.forward(req);
        }
        let at = self.catch_up();
        let req = wire_exact(req);
        if let Some(answer) = self.held(&req, at) {
            self.telemetry.record_saved(self.priced(&req, &answer, at));
            return (answer, at);
        }
        let (resp, generation) = self.forward(&req);
        if !resp.is_failure() && generation != at {
            self.catch_up();
        }
        self.admit(&req, &resp, generation);
        (resp, generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{
        decode_request, encode_request, encode_response, encode_response_into,
        stamp_generation_versioned, WireVersion,
    };
    use crate::packet::RetryPolicy;
    use crate::proto::QueryHandler;
    use crate::router::{ShardEndpoint, ShardRouter};
    use crate::testutil::ScanHandler as Scan;
    use crate::transport::{InProcExchange, Link};
    use bytes::{Bytes, BytesMut};
    use std::sync::atomic::AtomicU64;

    /// Inspection handles of the tests below: entries per tier.
    impl ClientCache {
        fn cached_windows(&self) -> usize {
            self.state.lock().expect("cache poisoned").windows.len()
        }

        fn cached_counts(&self) -> usize {
            let state = self.state.lock().expect("cache poisoned");
            state.counts.entries.len()
        }

        fn cached_probes(&self) -> usize {
            let state = self.state.lock().expect("cache poisoned");
            state.probes.entries.len()
        }
    }

    fn lattice(n: u32) -> Vec<SpatialObject> {
        (0..n * n)
            .map(|i| SpatialObject::point(i, (i % n) as f64, (i / n) as f64))
            .collect()
    }

    fn cached_link(objects: Vec<SpatialObject>, budget: u64) -> Link {
        let layer = CacheLayer::new(
            Box::new(InProcExchange::new(Arc::new(Scan(objects)))),
            &NetConfig::default(),
            Arc::new(ClientCache::new(budget)),
        );
        Link::cached(layer, 1.0)
    }

    fn plain_link(objects: Vec<SpatialObject>) -> Link {
        Link::in_process(Arc::new(Scan(objects)), &NetConfig::default(), 1.0)
    }

    fn w(a: f64, b: f64, c: f64, d: f64) -> Rect {
        Rect::from_coords(a, b, c, d)
    }

    #[test]
    fn entries_answer_and_are_admitted_only_at_the_content_generation() {
        let store = Arc::new(ClientCache::new(1 << 20));
        let objs = lattice(4);
        let big = w(0.0, 0.0, 4.0, 4.0);
        let origin = w(0.0, 0.0, 0.0, 0.0);
        store.admit_window(&big, &objs, 0);
        store.observe_count(&big, 16, 0);
        store.admit_probe(&origin, 1.0, &objs[..2], 0);
        assert_eq!(store.count(&big, 0), Some(16));
        assert!(store.window(&w(1.0, 1.0, 2.0, 2.0), 0).is_some());
        assert_eq!(store.eps_range(&origin, 1.0, 0).map(|v| v.len()), Some(2));
        // The servers are heard to advance: the content stays at 0 until a
        // request catches up, and matches no lookup at the new generation.
        store.note_generation(3);
        assert_eq!((store.generation(), store.content_generation()), (3, 0));
        assert_eq!(store.count(&big, 3), None, "stale count must not serve");
        assert!(store.window(&w(1.0, 1.0, 2.0, 2.0), 3).is_none());
        assert!(store.eps_range(&origin, 1.0, 3).is_none());
        // An answer served at any other generation is dropped, not stored
        // under a key of its own.
        store.observe_count(&big, 15, 3);
        store.admit_window(&w(10.0, 10.0, 11.0, 11.0), &[], 3);
        store.admit_probe(&origin, 2.0, &objs[..3], 3);
        assert_eq!(
            (
                store.cached_counts(),
                store.cached_windows(),
                store.cached_probes()
            ),
            (1, 1, 1)
        );
        assert_eq!(store.count(&big, 0), Some(16), "the content is intact");
        // A purge starts over at the new generation.
        store.purge(3);
        assert_eq!(
            (
                store.cached_counts(),
                store.cached_windows(),
                store.cached_probes()
            ),
            (0, 0, 0)
        );
        assert_eq!((store.content_generation(), store.resident_bytes()), (3, 0));
        store.observe_count(&big, 15, 3);
        assert_eq!(store.count(&big, 3), Some(15));
        assert_eq!(store.count(&big, 0), None);
        // Both generations are monotone: a late stamp cannot regress them.
        store.note_generation(1);
        store.purge(2);
        assert_eq!((store.generation(), store.content_generation()), (3, 3));
    }

    #[test]
    fn a_change_list_patches_every_tier_in_place() {
        let store = Arc::new(ClientCache::new(1 << 20));
        let objs = lattice(4);
        let (big, corner) = (w(0.0, 0.0, 4.0, 4.0), w(0.0, 0.0, 1.0, 1.0));
        let origin = w(0.0, 0.0, 0.0, 0.0);
        store.admit_window(&corner, &[objs[0], objs[1], objs[4], objs[5]], 0);
        store.observe_count(&big, 16, 0);
        store.observe_count(&w(2.0, 2.0, 3.0, 3.0), 4, 0);
        store.admit_probe(&origin, 1.0, &[objs[0], objs[1], objs[4]], 0);
        let resident = store.resident_bytes();
        // Object 0 leaves the corner for (3, 3); object 15 moves to where
        // it was; object 99 appears far away and is removed again.
        let ops = [
            DeltaOp::Remove {
                id: 0,
                mbr: objs[0].mbr,
            },
            DeltaOp::Add(SpatialObject::point(0, 3.0, 3.0)),
            DeltaOp::Remove {
                id: 15,
                mbr: objs[15].mbr,
            },
            DeltaOp::Add(SpatialObject::point(15, 0.0, 0.0)),
            DeltaOp::Add(SpatialObject::point(99, 50.0, 50.0)),
            DeltaOp::Remove {
                id: 99,
                mbr: SpatialObject::point(99, 50.0, 50.0).mbr,
            },
        ];
        store.apply_changes(0, 2, &ops);
        assert_eq!((store.content_generation(), store.generation()), (2, 2));
        let ids = |mut v: Vec<SpatialObject>| {
            v.sort_unstable_by_key(|o| o.id);
            v.into_iter()
                .map(|o| (o.id, o.mbr.min.x, o.mbr.min.y))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            ids(store.window(&corner, 2).unwrap()),
            [(1, 1.0, 0.0), (4, 0.0, 1.0), (5, 1.0, 1.0), (15, 0.0, 0.0)]
        );
        assert_eq!(
            ids(store.eps_range(&origin, 1.0, 2).unwrap()),
            [(1, 1.0, 0.0), (4, 0.0, 1.0), (15, 0.0, 0.0)]
        );
        assert_eq!(
            store.count(&big, 2),
            Some(16),
            "a move inside nets to nothing"
        );
        assert_eq!(
            store.count(&w(2.0, 2.0, 3.0, 3.0), 2),
            Some(4),
            "-15 at (3,3), +0 at (3,3)"
        );
        assert_eq!(store.resident_bytes(), resident, "one out, one in");
        // A list from any other generation than the content's is not for
        // this content: a second link sharing the store got there first.
        store.apply_changes(0, 3, &ops);
        assert_eq!(store.content_generation(), 2);
        assert_eq!(store.window(&corner, 2).unwrap().len(), 4);
    }

    /// `e`'s runs are the MBRs of its objects, sixteen at a time.
    fn assert_indexed(e: &WindowEntry) {
        let mbrs: Vec<Rect> = (e.objects.chunks(RUN))
            .map(|run| Rect::union_of(run.iter().map(|o| o.mbr)).unwrap())
            .collect();
        assert_eq!(e.runs, mbrs);
    }

    /// The three lookups of `e` against the linear filter they replaced,
    /// order included.
    fn assert_filters(e: &WindowEntry, q: &Rect, eps: f64) {
        let linear = |pred: &dyn Fn(&Rect) -> bool| -> Vec<SpatialObject> {
            e.objects.iter().filter(|o| pred(&o.mbr)).copied().collect()
        };
        let inside = linear(&|mbr| mbr.intersects(q));
        assert_eq!(e.count(q), inside.len() as u64, "{q:?}");
        assert_eq!(e.select(|mbr| mbr.intersects(q)), inside, "{q:?}");
        let near = linear(&|mbr| mbr.within_distance(q, eps));
        assert_eq!(e.select(|mbr| mbr.within_distance(q, eps)), near, "{q:?}");
    }

    #[test]
    fn an_entry_is_indexed_whatever_its_length() {
        let all = w(0.0, 0.0, 9.0, 9.0);
        // Nothing held: no run, and every lookup answers nothing.
        let empty = WindowEntry::new(all, &[], 0);
        assert!(empty.runs.is_empty());
        assert_filters(&empty, &all, 1.0);
        // 0 < n < RUN, n = RUN, and n % RUN != 0 with a run of one at the end.
        for n in [5, 16, 33, 100] {
            let e = WindowEntry::new(all, &lattice(10)[..n], 0);
            assert_eq!(e.runs.len(), n.div_ceil(RUN));
            assert_indexed(&e);
            assert_eq!(e.objects, &lattice(10)[..n], "admission keeps the order");
            for q in [
                all,
                w(2.0, 1.0, 5.0, 2.0),
                w(3.5, 3.5, 3.5, 3.5),
                w(9.0, 9.0, 9.0, 9.0),
            ] {
                assert_filters(&e, &q, 1.5);
                assert_filters(&e, &q, -1.5);
                assert_filters(&e, &q, f64::NAN);
            }
        }
        // A run the window contains is counted without a visit: every
        // lattice row of ten is inside [0, 9] × [0, 2], runs straddle rows.
        let e = WindowEntry::new(all, &lattice(10), 0);
        assert_eq!(e.count(&w(0.0, 0.0, 9.0, 2.0)), 30);
    }

    #[test]
    fn a_repack_gives_every_centre_a_cell() {
        // A point, a segment sticking out both ways, and 40 duplicates.
        let mut objects = vec![
            SpatialObject::point(0, 5.0, 5.0),
            SpatialObject::new(1, w(-20.0, 5.0, 30.0, 5.0)),
            SpatialObject::new(2, w(5.0, -20.0, 5.0, 90.0)),
        ];
        objects.extend((3..43).map(|id| SpatialObject::point(id, 5.0, 5.0)));
        let by_id = |mut v: Vec<SpatialObject>| {
            v.sort_unstable_by_key(|o| o.id);
            v
        };
        // Zero width, zero height, a point, and a window with room: `k /
        // 0.0` is infinite and `0.0 * inf` NaN, and each still names a cell.
        for window in [
            w(5.0, 0.0, 5.0, 10.0),
            w(0.0, 5.0, 10.0, 5.0),
            w(5.0, 5.0, 5.0, 5.0),
            w(0.0, 0.0, 10.0, 10.0),
        ] {
            let mut e = WindowEntry::new(window, &objects, 0);
            e.repack();
            assert_indexed(&e);
            assert_eq!(
                by_id(e.objects.clone()),
                objects,
                "{window:?}: a permutation"
            );
            assert_filters(&e, &window, 0.5);
        }
        // Everything in one cell: the sort is stable, the order stays.
        let stacked: Vec<SpatialObject> = (0..40)
            .map(|id| SpatialObject::point(id, 1.0, 1.0))
            .collect();
        let mut e = WindowEntry::new(w(0.0, 0.0, 10.0, 10.0), &stacked, 0);
        e.repack();
        assert_eq!(e.objects, stacked);
        // Nothing left to pack.
        let mut e = WindowEntry::new(w(0.0, 0.0, 10.0, 10.0), &[], 0);
        e.repack();
        assert!(e.objects.is_empty() && e.runs.is_empty());
        // What it is for: a lattice held in scattered order — every run
        // spans most of the window — packs into runs a cell or two wide.
        let scattered: Vec<SpatialObject> = (0..100).map(|i| lattice(10)[i * 37 % 100]).collect();
        let mut e = WindowEntry::new(w(0.0, 0.0, 9.0, 9.0), &scattered, 0);
        let covered = |e: &WindowEntry| e.runs.iter().map(Rect::area).sum::<f64>();
        let loose = covered(&e);
        e.repack();
        assert!(covered(&e) * 3.0 < loose, "{} from {loose}", covered(&e));
    }

    #[test]
    fn a_change_list_repacks_the_entries_it_touches_and_no_other() {
        let store = ClientCache::new(1 << 20);
        let (left, right) = (w(0.0, 0.0, 4.0, 4.0), w(10.0, 0.0, 14.0, 4.0));
        let shifted: Vec<SpatialObject> = (lattice(5).iter())
            .map(|o| SpatialObject::point(100 + o.id, o.mbr.min.x + 10.0, o.mbr.min.y))
            .collect();
        store.admit_window(&left, &lattice(5), 0);
        store.admit_window(&right, &shifted, 0);
        let buffers = |store: &ClientCache, i: usize| {
            let state = store.state.lock().unwrap();
            let e = &state.windows[i];
            (
                e.objects.as_ptr(),
                e.runs.as_ptr(),
                e.objects.clone(),
                e.runs.clone(),
            )
        };
        let before = buffers(&store, 1);
        // Two adds land in the left window, out of the runs held so far.
        let ops = [
            DeltaOp::Add(SpatialObject::point(50, 0.5, 0.5)),
            DeltaOp::Add(SpatialObject::point(51, 3.5, 3.5)),
        ];
        store.apply_changes(0, 1, &ops);
        assert_eq!(
            buffers(&store, 1),
            before,
            "the untouched entry's own buffers"
        );
        {
            let state = store.state.lock().unwrap();
            let e = &state.windows[0];
            assert_eq!(e.objects.len(), 27);
            assert_indexed(e);
            assert_filters(e, &w(0.0, 0.0, 1.0, 1.0), 0.75);
            assert_ne!(
                e.objects[..25],
                lattice(5)[..],
                "packed again, not appended to"
            );
        }
        assert_eq!(store.count(&w(0.25, 0.25, 0.75, 0.75), 1), Some(1));
        // A list that empties an entry leaves it resident, and empty.
        let gone: Vec<DeltaOp> = (shifted.iter())
            .map(|o| DeltaOp::Remove {
                id: o.id,
                mbr: o.mbr,
            })
            .collect();
        store.apply_changes(1, 2, &gone);
        assert_eq!(store.window(&right, 2), Some(vec![]));
        assert_eq!(store.count(&right, 2), Some(0));
        let state = store.state.lock().unwrap();
        assert!(state.windows[1].runs.is_empty());
        assert_eq!(state.windows[0].objects.len(), 27);
    }

    /// A live server double: applies update batches to a scan set, logs
    /// each batch's remove/add list, stamps every reply with its
    /// generation and answers `Changes` from the log — from `keeps`
    /// generations back at most.
    struct Live {
        state: Mutex<(Vec<SpatialObject>, Vec<Vec<DeltaOp>>)>,
        keeps: usize,
    }

    impl Live {
        fn new(objects: Vec<SpatialObject>, keeps: usize) -> Arc<Self> {
            let state = Mutex::new((objects, Vec::new()));
            Arc::new(Live { state, keeps })
        }
    }

    impl RawExchange for Arc<Live> {
        fn exchange(&self, raw: Bytes) -> Bytes {
            use crate::proto::Update;
            let mut state = self.state.lock().unwrap();
            let (objects, log) = &mut *state;
            let resp = match decode_request(raw).expect("malformed request") {
                Request::ApplyUpdates(batch) => {
                    let mut ops = Vec::new();
                    for u in batch {
                        let (id, to) = match u {
                            Update::Delete(id) => (id, None),
                            Update::Insert(o) => (o.id, Some(o)),
                            Update::Move { id, to } => (id, Some(SpatialObject::new(id, to))),
                        };
                        if let Some(at) = objects.iter().position(|o| o.id == id) {
                            let mbr = objects.remove(at).mbr;
                            ops.push(DeltaOp::Remove { id, mbr });
                        }
                        objects.extend(to);
                        ops.extend(to.map(DeltaOp::Add));
                    }
                    log.push(ops);
                    let generation = log.len() as u64;
                    return encode_response(&Response::Ack { generation });
                }
                Request::Changes { since } => match log.get(since as usize..) {
                    Some(later) if later.len() <= self.keeps => Response::Changes(later.concat()),
                    _ => Response::Refused,
                },
                other => Scan(objects.clone()).handle(other),
            };
            let mut buf = BytesMut::new();
            stamp_generation_versioned(log.len() as u64, WireVersion::V1, &mut buf);
            encode_response_into(&resp, &mut buf);
            buf.freeze()
        }
    }

    fn live_link(server: &Arc<Live>, budget: u64) -> Link {
        let store = Arc::new(ClientCache::new(budget));
        let carrier = Box::new(Arc::clone(server));
        Link::cached(CacheLayer::new(carrier, &NetConfig::default(), store), 1.0)
    }

    fn delete(id: u32) -> Request {
        Request::ApplyUpdates(vec![crate::proto::Update::Delete(id)])
    }

    #[test]
    fn layer_switches_generations_on_an_ack() {
        let server = Live::new(lattice(4), 8);
        let link = live_link(&server, 1 << 20);
        let big = w(0.0, 0.0, 4.0, 4.0);
        assert_eq!(link.request(&Request::Count(big)).into_count(), 16);
        assert_eq!(link.request(&Request::Count(big)).into_count(), 16, "hit");
        assert_eq!(link.cache().unwrap().snapshot().stats_hits, 1);
        assert_eq!(link.request(&Request::Window(big)).into_objects().len(), 16);
        // Delete one object through the cache layer: the Ack tells the
        // store the servers moved on — and nothing more is sent for it.
        let before = link.meter().snapshot();
        assert_eq!(link.request(&delete(0)), Response::Ack { generation: 1 });
        assert_eq!(link.last_generation(), 1);
        let store = Arc::clone(link.cache().unwrap().store());
        assert_eq!((store.generation(), store.content_generation()), (1, 0));
        let update = link.meter().snapshot().since(&before);
        assert_eq!(update.total_queries(), 0, "an update is not a query");
        // The next lookup buys the change list — one exchange, counted as
        // an object download — and the primed count answers, patched.
        let before = link.meter().snapshot();
        assert_eq!(
            link.request(&Request::Count(big)).into_count(),
            15,
            "a stale cached count must never be served after the bump"
        );
        let caught_up = link.meter().snapshot().since(&before);
        assert_eq!(
            (caught_up.window_queries, caught_up.total_queries()),
            (1, 1)
        );
        assert_eq!(caught_up.objects_received, 1, "one remove");
        assert_eq!(store.content_generation(), 1);
        assert_eq!(link.cache().unwrap().snapshot().stats_hits, 2);
        // And everything is hot again.
        let before = link.meter().snapshot();
        assert_eq!(link.request(&Request::Count(big)).into_count(), 15);
        assert_eq!(link.meter().snapshot(), before);
    }

    #[test]
    fn a_list_known_to_cost_more_than_the_content_is_not_bought() {
        let server = Live::new(lattice(4), 8);
        let link = live_link(&server, 1 << 20);
        let (big, corner) = (w(0.0, 0.0, 4.0, 4.0), w(0.0, 0.0, 1.0, 1.0));
        // One count: 57 + 49 bytes to ask again. The list of a delete
        // sent through this store is known to be one op: 49 + 75 bytes.
        assert_eq!(link.request(&Request::Count(big)).into_count(), 16);
        link.request(&delete(0));
        let before = link.meter().snapshot();
        assert_eq!(link.request(&Request::Count(big)).into_count(), 15);
        let asked = link.meter().snapshot().since(&before);
        assert_eq!((asked.count_queries, asked.total_queries()), (1, 1));
        // Two counts are worth it.
        assert_eq!(link.request(&Request::Count(corner)).into_count(), 3);
        link.request(&delete(1));
        let before = link.meter().snapshot();
        assert_eq!(link.request(&Request::Count(big)).into_count(), 14);
        assert_eq!(link.request(&Request::Count(corner)).into_count(), 2);
        let asked = link.meter().snapshot().since(&before);
        assert_eq!((asked.window_queries, asked.total_queries()), (1, 1));
        // A bump learnt from a stamp has no known size: the list is asked
        // for whatever the store holds, if it holds anything.
        server.exchange(encode_request(&delete(2)));
        assert_eq!(
            link.request(&Request::Count(w(9.0, 9.0, 9.5, 9.5)))
                .into_count(),
            0
        );
        let before = link.meter().snapshot();
        assert_eq!(link.request(&Request::Count(big)).into_count(), 13);
        assert_eq!(
            link.meter().snapshot(),
            before,
            "patched when the stamp was heard"
        );
    }

    #[test]
    fn a_log_that_no_longer_reaches_back_purges_the_store() {
        let server = Live::new(lattice(4), 1);
        let link = live_link(&server, 1 << 20);
        let big = w(0.0, 0.0, 4.0, 4.0);
        link.request(&Request::Window(big));
        link.request(&Request::EpsRange { q: big, eps: 9.0 });
        let store = Arc::clone(link.cache().unwrap().store());
        // Two batches with no read in between: the second is sent with
        // the store a generation behind, and asks nothing for it.
        link.request(&delete(0));
        let before = link.meter().snapshot();
        link.request(&delete(1));
        assert_eq!(link.meter().snapshot().since(&before).total_queries(), 0);
        assert_eq!((store.generation(), store.content_generation()), (2, 0));
        // The server keeps one batch: `since 0` is refused, everything
        // goes, and the answer is a fresh download at generation 2.
        assert_eq!(link.request(&Request::Count(big)).into_count(), 14);
        assert_eq!(store.content_generation(), 2);
        assert_eq!(
            (
                store.cached_windows(),
                store.cached_probes(),
                store.cached_counts()
            ),
            (0, 0, 1)
        );
        assert_eq!(store.resident_bytes(), 0);
        let snap = link.cache().unwrap().snapshot();
        assert_eq!(
            (snap.stats_hits, snap.evictions),
            (0, 0),
            "a purge is not an eviction"
        );
    }

    #[test]
    fn a_third_partys_update_is_learnt_from_a_stamp_and_patched_in() {
        let server = Live::new(lattice(4), 8);
        let link = live_link(&server, 1 << 20);
        let (big, corner) = (w(0.0, 0.0, 4.0, 4.0), w(-1.0, -1.0, 1.5, 1.5));
        let origin = w(0.0, 0.0, 0.0, 0.0);
        assert_eq!(link.request(&Request::Count(big)).into_count(), 16);
        let probe = Request::EpsRange {
            q: origin,
            eps: 1.0,
        };
        assert_eq!(link.request(&probe).into_objects().len(), 3);
        // Somebody else deletes object 0. This link has no way to know
        // until a reply says so: its hits stay at generation 0.
        server.exchange(encode_request(&delete(0)));
        assert_eq!(link.request(&Request::Count(big)).into_count(), 16);
        assert_eq!(link.last_generation(), 0);
        // A batch is its requests: `big` hits at generation 0, and the
        // miss `corner` hears the stamp, so the store catches up before
        // it admits the answer served at generation 1.
        let mut counts = Vec::new();
        link.request_many(&[Request::Count(big), Request::Count(corner)], |resp| {
            counts.push(resp.into_count())
        });
        assert_eq!(counts, [16, 3]);
        assert_eq!(link.last_generation(), 1);
        // The catch-up the miss bought patched the probe answer: it is
        // never re-sent.
        let before = link.meter().snapshot();
        assert_eq!(link.request(&probe).into_objects().len(), 2);
        assert_eq!(link.meter().snapshot(), before);
    }

    #[test]
    fn repeated_eps_range_is_answered_from_the_probe_tier() {
        let cached = cached_link(lattice(10), 1 << 20);
        let plain = plain_link(lattice(10));
        let probe = Request::EpsRange {
            q: Rect::point(asj_geom::Point::new(3.0, 3.0)),
            eps: 2.0,
        };
        let want = plain.request(&probe).into_objects();
        assert_eq!(cached.request(&probe).into_objects(), want);
        let before = cached.meter().snapshot();
        assert_eq!(cached.request(&probe).into_objects(), want);
        assert_eq!(
            cached.meter().snapshot(),
            before,
            "a probe hit is not a message"
        );
        // Bit-exact keys: the same probe at another ε is another probe.
        let wider = Request::EpsRange {
            q: Rect::point(asj_geom::Point::new(3.0, 3.0)),
            eps: 2.5,
        };
        assert_eq!(cached.request(&wider), plain.request(&wider));
        let snap = cached.cache().unwrap().snapshot();
        assert_eq!((snap.probe_hits, snap.probe_misses), (1, 2));
        assert_eq!(
            snap.resident_bytes, 0,
            "probes are not charged to the window budget"
        );
        assert_eq!(cached.cache().unwrap().store().cached_probes(), 2);
    }

    #[test]
    fn an_update_between_a_batchs_hit_and_miss_answers_each_at_its_own_generation() {
        /// A live server whose object 0 is deleted (generation 0 → 1)
        /// right before it serves the next request, once armed — i.e.
        /// between a batch's hit and its miss.
        struct Racing {
            armed: Arc<AtomicU64>,
            generation: AtomicU64,
        }
        impl RawExchange for Racing {
            fn exchange(&self, raw: Bytes) -> Bytes {
                self.generation
                    .fetch_add(self.armed.swap(0, Ordering::SeqCst), Ordering::SeqCst);
                let generation = self.generation.load(Ordering::SeqCst);
                let objects = lattice(4).split_off(generation.min(1) as usize);
                let resp = Scan(objects).handle(decode_request(raw).unwrap());
                let mut buf = BytesMut::new();
                stamp_generation_versioned(generation, WireVersion::V1, &mut buf);
                encode_response_into(&resp, &mut buf);
                buf.freeze()
            }
        }
        let armed = Arc::new(AtomicU64::new(0));
        let carrier = Racing {
            armed: Arc::clone(&armed),
            generation: AtomicU64::new(0),
        };
        let store = Arc::new(ClientCache::new(1 << 20));
        let link = Link::cached(
            CacheLayer::new(Box::new(carrier), &NetConfig::default(), store),
            1.0,
        );
        // Both windows hold object 0; the big one is primed at gen 0.
        let (big, corner) = (w(0.0, 0.0, 4.0, 4.0), w(-1.0, -1.0, 1.5, 1.5));
        assert_eq!(link.request(&Request::Count(big)).into_count(), 16);
        armed.store(1, Ordering::SeqCst);
        let mut counts = Vec::new();
        link.request_many(&[Request::Count(big), Request::Count(corner)], |resp| {
            counts.push(resp.into_count())
        });
        // A batch is its requests: `big` is a local hit at gen 0 (16),
        // `corner` a miss answered at gen 1 (3), each at the generation
        // the link reports for it.
        assert_eq!(counts, [16, 3]);
        assert_eq!(link.generations(), (0, 1));
        // The miss was admitted at the new generation (this server
        // refuses `Changes`, so catching up purged `big`).
        let before = link.meter().snapshot();
        assert_eq!(link.request(&Request::Count(corner)).into_count(), 3);
        assert_eq!(link.meter().snapshot(), before);
    }

    #[test]
    fn repeated_count_is_free_and_identical() {
        let cached = cached_link(lattice(10), 1 << 20);
        let plain = plain_link(lattice(10));
        let q = w(0.0, 0.0, 3.0, 3.0);
        assert_eq!(
            cached.request(&Request::Count(q)).into_count(),
            plain.request(&Request::Count(q)).into_count()
        );
        let before = cached.meter().snapshot();
        assert_eq!(cached.request(&Request::Count(q)).into_count(), 16);
        assert_eq!(
            cached.meter().snapshot(),
            before,
            "a stats hit must not touch the wire"
        );
        let snap = cached.cache().unwrap().snapshot();
        assert_eq!((snap.stats_hits, snap.stats_misses), (1, 1));
        assert!(snap.bytes_saved > 0);
    }

    #[test]
    fn contained_window_count_and_eps_range_answered_locally() {
        let cached = cached_link(lattice(10), 1 << 20);
        let plain = plain_link(lattice(10));
        let big = w(0.0, 0.0, 6.0, 6.0);
        // `small`'s corner travels as (3, 3) (f32), so the server's answers
        // hold the point there: a lookup must filter by what it decodes.
        let below = 3.0 - 1e-9;
        let small = w(1.0, 1.0, below, below);
        assert_eq!(
            cached.request(&Request::Window(big)).into_objects(),
            plain.request(&Request::Window(big)).into_objects()
        );
        let before = cached.meter().snapshot();
        // Contained WINDOW, derived COUNT, contained ε-RANGE: all local.
        assert_eq!(
            cached.request(&Request::Window(small)).into_objects(),
            plain.request(&Request::Window(small)).into_objects()
        );
        assert_eq!(
            cached.request(&Request::Count(small)).into_count(),
            plain.request(&Request::Count(small)).into_count()
        );
        let q = Rect::point(asj_geom::Point::new(3.0, 3.0));
        assert_eq!(
            cached
                .request(&Request::EpsRange { q, eps: 1.5 })
                .into_objects(),
            plain
                .request(&Request::EpsRange { q, eps: 1.5 })
                .into_objects()
        );
        assert_eq!(
            cached.meter().snapshot(),
            before,
            "contained lookups must not touch the wire"
        );
        let snap = cached.cache().unwrap().snapshot();
        assert_eq!(snap.window_hits, 1); // Window(small)
        assert_eq!(snap.probe_hits, 1); // EpsRange, counted apart
        assert_eq!(snap.stats_hits, 1); // derived Count(small)
    }

    #[test]
    fn uncontained_eps_range_passes_through() {
        let cached = cached_link(lattice(10), 1 << 20);
        cached.request(&Request::Window(w(0.0, 0.0, 4.0, 4.0)));
        // Reach [1,1]..[5,5] sticks out of the cached window.
        let q = Rect::point(asj_geom::Point::new(3.0, 3.0));
        let before = cached.meter().snapshot();
        let got = cached
            .request(&Request::EpsRange { q, eps: 2.0 })
            .into_objects();
        assert_eq!(got.len(), 13);
        assert!(cached.meter().snapshot().total_bytes() > before.total_bytes());
    }

    #[test]
    fn budget_lru_evicts_and_tracks_residency() {
        // The 100-object window is 5 + 2000 bytes; budget fits one.
        let cached = cached_link(lattice(10), 2200);
        let whole = w(0.0, 0.0, 9.0, 9.0);
        cached.request(&Request::Window(whole));
        let view = cached.cache().unwrap();
        assert_eq!(view.snapshot().resident_bytes, 2005);
        assert_eq!(view.store().cached_windows(), 1);
        // An overlapping (but not nested) window: 81 objects, 1625 bytes.
        // Both together overflow the budget, so the older entry goes.
        let shifted = w(0.5, 0.5, 9.5, 9.5);
        cached.request(&Request::Window(shifted));
        let snap = view.snapshot();
        assert_eq!(snap.resident_bytes, 1625);
        assert_eq!(snap.insertions, 2);
        assert_eq!(snap.evictions, 1);
        // The evicted window is a miss again — eviction only forgets.
        let before = cached.meter().snapshot();
        assert_eq!(
            cached.request(&Request::Window(whole)).into_objects().len(),
            100
        );
        assert!(cached.meter().snapshot().total_bytes() > before.total_bytes());
        let snap = view.snapshot();
        assert_eq!((snap.insertions, snap.evictions), (3, 2));
        assert_eq!(snap.resident_bytes, 2005);
    }

    #[test]
    fn admission_skips_derivable_and_oversized_windows() {
        let store = Arc::new(ClientCache::new(1000));
        let objs = lattice(4);
        store.admit_window(&w(0.0, 0.0, 4.0, 4.0), &objs, 0);
        assert_eq!(store.cached_windows(), 1);
        // Contained window: derivable, not admitted.
        store.admit_window(&w(1.0, 1.0, 2.0, 2.0), &objs[..2], 0);
        assert_eq!(store.cached_windows(), 1);
        // Covering window: admitted, covered entry dropped.
        store.admit_window(&w(-1.0, -1.0, 5.0, 5.0), &objs, 0);
        assert_eq!(store.cached_windows(), 1);
        assert_eq!(store.resident_bytes(), 5 + 16 * 20);
        // Oversized: silently skipped.
        let big = lattice(8);
        store.admit_window(&w(-2.0, -2.0, 9.0, 9.0), &big, 0);
        assert_eq!(store.cached_windows(), 1);
    }

    #[test]
    fn stats_tier_is_bounded_by_the_cap() {
        // Budget 10 240 → 256 exact entries.
        let store = Arc::new(ClientCache::new(10_240));
        for i in 0..1000 {
            store.observe_count(&w(i as f64, 0.0, i as f64 + 1.0, 1.0), i, 0);
        }
        assert_eq!(store.cached_counts(), 256, "cap must hold");
        // Further churn replaces entries one-for-one, never grows.
        let before = store.cached_counts();
        for i in 900..1000 {
            store.observe_count(&w(i as f64, 0.0, i as f64 + 1.0, 1.0), i, 0);
        }
        assert_eq!(store.cached_counts(), before);
        // The latest observation is always resident.
        assert_eq!(store.count(&w(999.0, 0.0, 1000.0, 1.0), 0), Some(999));
        // The probe tier has the same cap, and its own: oldest out first.
        for i in 0..300 {
            store.admit_probe(&w(i as f64, 0.0, i as f64, 0.0), 1.0, &[], 0);
        }
        assert_eq!((store.cached_probes(), store.cached_counts()), (256, 256));
        assert!(store.eps_range(&w(43.0, 0.0, 43.0, 0.0), 1.0, 0).is_none());
        assert!(store.eps_range(&w(44.0, 0.0, 44.0, 0.0), 1.0, 0).is_some());
        // A budget of nothing holds nothing, in any tier.
        let none = ClientCache::new(0);
        none.observe_count(&w(0.0, 0.0, 1.0, 1.0), 1, 0);
        none.admit_probe(&w(0.0, 0.0, 0.0, 0.0), 1.0, &[], 0);
        none.admit_window(&w(0.0, 0.0, 1.0, 1.0), &[], 0);
        let held = (
            none.cached_counts(),
            none.cached_probes(),
            none.cached_windows(),
        );
        assert_eq!(held, (0, 0, 0));
    }

    #[test]
    fn non_cached_requests_pass_through_byte_identically() {
        let cached = cached_link(lattice(6), 1 << 20);
        let plain = plain_link(lattice(6));
        for req in [
            Request::BucketEpsRange {
                probes: vec![SpatialObject::point(99, 2.0, 2.0)],
                eps: 1.0,
            },
            Request::CoopLevelMbrs(0),
        ] {
            assert_eq!(cached.request(&req), plain.request(&req));
            // Twice: no caching of these opcodes.
            assert_eq!(cached.request(&req), plain.request(&req));
        }
        assert_eq!(cached.meter().snapshot(), plain.meter().snapshot());
        let snap = cached.cache().unwrap().snapshot();
        assert_eq!(snap.hit_rate(), 0.0);
    }

    #[test]
    fn cache_over_fleet_reuses_router_metering() {
        let left: Vec<SpatialObject> = (0..8)
            .map(|i| SpatialObject::point(i, i as f64, 0.0))
            .collect();
        let right: Vec<SpatialObject> = (0..8)
            .map(|i| SpatialObject::point(100 + i, 100.0 + i as f64, 0.0))
            .collect();
        let endpoint = |objects: Vec<SpatialObject>| {
            let bounds = Rect::union_of(objects.iter().map(|o| o.mbr));
            ShardEndpoint::new(
                bounds,
                Box::new(InProcExchange::new(Arc::new(Scan(objects)))),
            )
        };
        let router = ShardRouter::new(vec![endpoint(left), endpoint(right)], &NetConfig::default());
        let layer = CacheLayer::over_router(router, Arc::new(ClientCache::new(1 << 20)));
        let link = Link::cached(layer, 1.0);
        let all = w(-1.0, -1.0, 200.0, 1.0);
        assert_eq!(link.request(&Request::Count(all)).into_count(), 16);
        let fleet = link.fleet().expect("fleet telemetry").snapshot();
        assert_eq!(fleet.scattered, 2, "both shards asked once");
        assert_eq!(
            fleet.summed(),
            link.meter().snapshot(),
            "conservation law holds under the cache"
        );
        // The repeat is a cache hit: no new scatter, meters frozen.
        let before = link.meter().snapshot();
        assert_eq!(link.request(&Request::Count(all)).into_count(), 16);
        assert_eq!(link.meter().snapshot(), before);
        assert_eq!(link.fleet().unwrap().snapshot().scattered, 2);
        assert_eq!(link.cache().unwrap().snapshot().stats_hits, 1);
    }

    #[test]
    fn shared_store_carries_hits_across_links() {
        // Two links (a "session") over one store: the second link's first
        // lookup hits what the first link downloaded.
        let store = Arc::new(ClientCache::new(1 << 20));
        let make = |store: &Arc<ClientCache>| {
            Link::cached(
                CacheLayer::new(
                    Box::new(InProcExchange::new(Arc::new(Scan(lattice(10))))),
                    &NetConfig::default(),
                    Arc::clone(store),
                ),
                1.0,
            )
        };
        let first = make(&store);
        first.request(&Request::Window(w(0.0, 0.0, 5.0, 5.0)));
        let second = make(&store);
        let got = second
            .request(&Request::Window(w(1.0, 1.0, 4.0, 4.0)))
            .into_objects();
        assert_eq!(got.len(), 16);
        assert_eq!(second.meter().snapshot().total_bytes(), 0);
        // Telemetry is per link; the store is shared.
        assert_eq!(second.cache().unwrap().snapshot().window_hits, 1);
        assert_eq!(first.cache().unwrap().snapshot().window_hits, 0);
    }

    /// Garbles the first `garble` replies on their way back, then
    /// forwards clean — a lossy edge whose payloads get corrupted.
    struct GarbleReplies {
        garble: AtomicU64,
        inner: Box<dyn RawExchange>,
    }

    impl RawExchange for GarbleReplies {
        fn exchange(&self, raw: Bytes) -> Bytes {
            let reply = self.inner.exchange(raw);
            if self.garble.load(Ordering::SeqCst) > 0 {
                self.garble.fetch_sub(1, Ordering::SeqCst);
                return crate::codec::garble_frame(&reply);
            }
            reply
        }
    }

    fn lossy_cached_link(garble: u64, retry: RetryPolicy, budget: u64) -> Link {
        let layer = CacheLayer::new(
            Box::new(GarbleReplies {
                garble: AtomicU64::new(garble),
                inner: Box::new(InProcExchange::new(Arc::new(Scan(lattice(10))))),
            }),
            &NetConfig::default().with_retry(retry),
            Arc::new(ClientCache::new(budget)),
        );
        Link::cached(layer, 1.0)
    }

    #[test]
    fn garbled_attempt_never_poisons_the_cache() {
        let cached = lossy_cached_link(1, RetryPolicy::attempts(3), 1 << 20);
        let q = w(0.0, 0.0, 3.0, 3.0);
        // Attempt 1 comes back garbled, attempt 2 succeeds: the answer is
        // authoritative and only that answer is keyed.
        assert_eq!(cached.request(&Request::Count(q)).into_count(), 16);
        let view = cached.cache().unwrap();
        assert_eq!(view.store().cached_counts(), 1);
        let m = cached.meter().snapshot();
        assert_eq!(m.retried, 1);
        assert_eq!(m.abandoned, 0);
        // The repeat serves the *correct* cached value, locally.
        let before = cached.meter().snapshot();
        assert_eq!(cached.request(&Request::Count(q)).into_count(), 16);
        assert_eq!(cached.meter().snapshot(), before);
    }

    #[test]
    fn error_replies_are_never_admitted_or_keyed() {
        // Every attempt garbled: the final outcome is typed Malformed and
        // the cache stays empty — nothing admitted, no generation noted.
        let cached = lossy_cached_link(u64::MAX, RetryPolicy::attempts(2), 1 << 20);
        let q = w(0.0, 0.0, 3.0, 3.0);
        assert_eq!(cached.request(&Request::Count(q)), Response::Malformed);
        assert_eq!(cached.request(&Request::Window(q)), Response::Malformed);
        let view = cached.cache().unwrap();
        assert_eq!(view.store().cached_counts(), 0, "no poisoned count keyed");
        assert_eq!(
            view.store().cached_windows(),
            0,
            "no poisoned window admitted"
        );
        assert_eq!(view.store().generation(), 0);
        let m = cached.meter().snapshot();
        assert_eq!(m.retried, 2);
        assert_eq!(m.abandoned, 2);
    }

    #[test]
    fn partial_hit_splice_failure_surfaces_typed_not_panicked() {
        let server = Box::new(InProcExchange::new(Arc::new(Scan(lattice(10)))));
        let garbler = Box::new(GarbleReplies {
            garble: AtomicU64::new(0),
            inner: server,
        });
        // Keep a raw pointer-free handle on the knob via Arc.
        struct Knob(Arc<AtomicU64>, Box<dyn RawExchange>);
        impl RawExchange for Knob {
            fn exchange(&self, raw: Bytes) -> Bytes {
                let reply = self.1.exchange(raw);
                if self.0.load(Ordering::SeqCst) > 0 {
                    self.0.fetch_sub(1, Ordering::SeqCst);
                    return crate::codec::garble_frame(&reply);
                }
                reply
            }
        }
        let knob = Arc::new(AtomicU64::new(0));
        let layer = CacheLayer::new(
            Box::new(Knob(Arc::clone(&knob), garbler)),
            &NetConfig::default(),
            Arc::new(ClientCache::new(1 << 20)),
        );
        let cached = Link::cached(layer, 1.0);
        let a = w(0.0, 0.0, 2.0, 2.0);
        let b = w(5.0, 5.0, 9.0, 9.0);
        cached.request(&Request::Count(a)); // prime a: the next batch hits, then misses
        knob.store(u64::MAX, Ordering::SeqCst);
        // Retries are off: the garbled reply to the miss must degrade
        // typed, in its place beside the hit.
        let mut replies = Vec::new();
        cached.request_many(&[Request::Count(a), Request::Count(b)], |r| replies.push(r));
        assert_eq!(replies, [Response::Count(9), Response::Malformed]);
        assert_eq!(
            cached.cache().unwrap().store().cached_counts(),
            1,
            "only the primed entry"
        );
    }

    #[test]
    fn exhausted_cache_edge_surfaces_unavailable_without_admission() {
        struct Dead;
        impl RawExchange for Dead {
            fn exchange(&self, _: Bytes) -> Bytes {
                crate::codec::unavailable_frame()
            }
        }
        let layer = CacheLayer::new(
            Box::new(Dead),
            &NetConfig::default().with_retry(RetryPolicy::attempts(3)),
            Arc::new(ClientCache::new(1 << 20)),
        );
        let cached = Link::cached(layer, 1.0);
        let q = w(0.0, 0.0, 3.0, 3.0);
        assert_eq!(cached.request(&Request::Count(q)), Response::Unavailable);
        let m = cached.meter().snapshot();
        assert_eq!(m.total_bytes(), 0, "nothing ever crossed");
        assert_eq!(m.retried, 2);
        assert_eq!(m.abandoned, 1);
        assert_eq!(cached.cache().unwrap().store().cached_counts(), 0);
    }

    #[test]
    fn partial_hit_on_a_live_server_spends_one_retry_budget_when_the_edge_dies() {
        // A live server at generation 1 behind a switch that kills the
        // edge: the exhausted miss of a partially hit batch reports
        // generation 0, which must read as a failure, not as "the
        // servers advanced" (that would buy a catch-up over the dead
        // edge and spend a second retry budget).
        struct Switch(Arc<AtomicU64>);
        impl RawExchange for Switch {
            fn exchange(&self, raw: Bytes) -> Bytes {
                if self.0.load(Ordering::SeqCst) > 0 {
                    return crate::codec::unavailable_frame();
                }
                let resp = Scan(lattice(10)).handle(decode_request(raw).unwrap());
                let mut buf = BytesMut::new();
                stamp_generation_versioned(1, WireVersion::V1, &mut buf);
                encode_response_into(&resp, &mut buf);
                buf.freeze()
            }
        }
        let dead = Arc::new(AtomicU64::new(0));
        let layer = CacheLayer::new(
            Box::new(Switch(Arc::clone(&dead))),
            &NetConfig::default().with_retry(RetryPolicy::attempts(2)),
            Arc::new(ClientCache::new(1 << 20)),
        );
        let cached = Link::cached(layer, 1.0);
        let a = w(0.0, 0.0, 2.0, 2.0);
        let b = w(5.0, 5.0, 9.0, 9.0);
        assert_eq!(cached.request(&Request::Count(a)).into_count(), 9);
        let store = Arc::clone(cached.cache().unwrap().store());
        assert_eq!(store.generation(), 1);
        dead.store(1, Ordering::SeqCst);
        let before = cached.meter().snapshot();
        let mut replies = Vec::new();
        cached.request_many(&[Request::Count(a), Request::Count(b)], |r| replies.push(r));
        assert_eq!(replies, [Response::Count(9), Response::Unavailable]);
        let delta = cached.meter().snapshot().since(&before);
        assert_eq!((delta.retried, delta.abandoned), (1, 1));
        assert_eq!(delta.total_bytes(), 0);
        assert_eq!(store.cached_counts(), 1, "only the primed entry");
    }
}
