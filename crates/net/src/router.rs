//! Client-side scatter-gather router for sharded server fleets.
//!
//! A production-scale deployment serves each logical dataset from a
//! *fleet* of shard servers, each holding a spatial partition of the
//! objects (see `asj_server::partition`). The [`ShardRouter`] is the
//! device-side library that makes a fleet look like one server: it slots
//! under an ordinary [`Link`](crate::Link) (see the stack in the crate
//! docs) and every join algorithm works unchanged.
//!
//! For each logical request — answered whole before the call returns,
//! as on a flat link — the router walks the shards in order and
//!
//! 1. **prunes** shards whose advertised bounds cannot contain an answer
//!    (a shard's bounds cover the full MBRs of all its objects, including
//!    boundary straddlers, so pruning never loses a result): per shard of
//!    the fleet, one bounds test per probe against the bounds as the walk
//!    reads them, without a lock, and one tally of the pruned shards per
//!    request;
//! 2. **settles** the request on each survivor before it frames the next:
//!    one frame ([`RawExchange::exchange`]) per try, a failed try failing
//!    over along the shard's replica rotation, then retrying up to the
//!    budget. Each shard receives the *cut* of the request to the probes
//!    whose *reach* touches its bounds — the request itself when that is
//!    all of them — both laws of the protocol (`proto.rs`), not of the
//!    router. Per reached shard this costs one frame, and a spread hash
//!    of it only where the shard has siblings to spread over; a `WINDOW`,
//!    `COUNT` or `ε-RANGE` has one probe, so its frame is the request
//!    itself;
//! 3. **merges** each reply as it lands, in shard order, by the
//!    protocol's *merge* law, from the request's empty answer: counts
//!    add, object lists and pairs keep the first occurrence of each key
//!    (a sole contributor's list is the answer as it came), level MBRs
//!    concatenate into the fleet's forest level, and bucket probes merge
//!    position by position. Per reached shard that is one fold, and one
//!    pass per merged object once a second list arrives: no sort;
//! 4. **meters** every physical exchange — once, at its edge — into a
//!    per-replica [`LinkMeter`]; the aggregate meter the fronting link
//!    exposes sums those, and a [`FleetSnapshot`] sums each shard's row:
//!    reported bytes are the scatter traffic that actually crossed the wire.
//!
//! A fleet of **one** edge has nothing to prune and nothing to merge:
//! it is sent the request itself, so a 1-shard deployment is
//! wire-identical to a flat one — the anchor of the differential test
//! suite — while going through the same settle loop as any fleet.
//!
//! **Live updates.** `ApplyUpdates` scatters to *owning* shards
//! (see `apply_updates`): every shard is contacted on every fleet-level
//! batch, so the **fleet generation** — the *sum* of the per-shard
//! generations — advances by exactly the shard count per batch. The
//! router learns shard generations from `Ack`s and response stamps,
//! tracks them in per-shard [`ShardMeta`]s, and reports the fleet
//! generation with every merged response (0 on a frozen fleet). Owner
//! routing needs a declared partition: a fleet whose shards carry no
//! cells refuses updates. `Changes` is refused here, with
//! nothing sent: a sum of generations names no shard's `since` (a fleet of
//! one edge passes it through like everything else).
//!
//! If any contacted shard answers [`Response::Refused`] (e.g. a
//! cooperative query against a non-cooperative fleet), the merged answer
//! is `Refused`. Cooperative requests are therefore never pruned-to-zero:
//! every shard is contacted (with a payload trimmed to its bounds) so the
//! policy refusal propagates exactly as it would from a flat server.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use asj_geom::{Point, Rect};
use bytes::Bytes;

use crate::codec::wire_exact;
use crate::edge::{Edge, Frame, Layer};
use crate::few::Few;
use crate::health::{spread_hash, BreakerConfig, HealthSnapshot, ReplicaSetHealth};
use crate::meter::{rate, LinkMeter, LinkSnapshot};
use crate::packet::{NetConfig, PacketModel, RetryPolicy};
use crate::proto::{Request, Response, Update};
use crate::transport::RawExchange;

/// Client-side knowledge about one shard, shared between the router and
/// whoever built the fleet (a `Deployment` keeps its own `Arc`s so update
/// routing and query routing always agree):
///
/// * **bounds** — the advertised union of the shard's objects' MBRs, the
///   pruning predicate. Updates only ever *grow* bounds (a delete never
///   shrinks them): over-covering bounds cost pruning efficiency, never
///   correctness. They are four coordinates that each only move outward,
///   read and grown without a lock (see [`ShardMeta::grow_bounds`]);
/// * **cell** — the shard's partition cell, the *ownership* predicate for
///   routing inserts and moves. `None` on fleets built without a declared
///   partition (such fleets refuse updates);
/// * **generation** — the highest snapshot generation observed from this
///   shard (monotone; fed by `Ack`s and response stamps).
pub struct ShardMeta {
    /// `[min.x, min.y, max.x, max.y]` of the bounds, each an `f64`'s bits.
    /// Empty while a min lies above its max: `+∞` and `−∞` at the start.
    bounds: [AtomicU64; 4],
    cell: Option<Rect>,
    generation: AtomicU64,
}

impl ShardMeta {
    /// Meta for a shard with no declared partition cell.
    pub fn new(bounds: Option<Rect>) -> Self {
        ShardMeta::with_cell(bounds, None)
    }

    /// Meta for a shard owning `cell` of the partitioned space.
    pub fn with_cell(bounds: Option<Rect>, cell: Option<Rect>) -> Self {
        let inf = f64::INFINITY;
        let corners = bounds.map_or([inf, inf, -inf, -inf], |r| {
            [r.min.x, r.min.y, r.max.x, r.max.y]
        });
        ShardMeta {
            bounds: corners.map(|c| AtomicU64::new(c.to_bits())),
            cell,
            generation: AtomicU64::new(0),
        }
    }

    /// Current advertised bounds (`None` = empty shard, always prunable).
    pub fn bounds(&self) -> Option<Rect> {
        let at = |i: usize| f64::from_bits(self.bounds[i].load(Ordering::Acquire));
        let (min, max) = (Point::new(at(0), at(1)), Point::new(at(2), at(3)));
        (!(min.x > max.x || min.y > max.y)).then_some(Rect { min, max })
    }

    /// The shard's partition cell, if the fleet declared one.
    pub fn cell(&self) -> Option<Rect> {
        self.cell
    }

    /// Highest generation observed from this shard so far.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Records an observed generation (monotone max).
    pub fn note_generation(&self, generation: u64) {
        self.generation.fetch_max(generation, Ordering::AcqRel);
    }

    /// Grows the advertised bounds to cover `r` (union; only-grow), one
    /// coordinate at a time. Sound without a lock: the router grows an
    /// owner's bounds before any frame of the update ships, and each
    /// coordinate only moves outward, so a read racing the growth — a
    /// read takes each shard's bounds as its walk reaches the shard —
    /// sees a rectangle between the old bounds and the new. Pruning by it
    /// loses nothing the old bounds would not, and the old bounds cover
    /// every object the shard held before the update: it is a cut that a
    /// read made just before the growth could see.
    pub fn grow_bounds(&self, r: &Rect) {
        let corners = [r.min.x, r.min.y, r.max.x, r.max.y];
        for (i, (coord, to)) in self.bounds.iter().zip(corners).enumerate() {
            let outward = if i < 2 { f64::min } else { f64::max };
            let grow = |bits| Some(outward(f64::from_bits(bits), to).to_bits());
            let _ = coord.fetch_update(Ordering::AcqRel, Ordering::Acquire, grow);
        }
    }
}

impl std::fmt::Debug for ShardMeta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardMeta")
            .field("bounds", &self.bounds())
            .field("cell", &self.cell)
            .field("generation", &self.generation())
            .finish()
    }
}

/// One shard of a fleet: its client-side meta (bounds, cell, observed
/// generation) and the replica carriers that reach it. Every replica
/// serves the same partition cell and member set; the router spreads
/// reads across them and broadcasts updates to all of them.
pub struct ShardEndpoint {
    meta: Arc<ShardMeta>,
    replicas: Vec<Box<dyn RawExchange>>,
}

impl ShardEndpoint {
    /// Endpoint with fresh meta and no partition cell (query routing
    /// only; a fleet of such endpoints refuses updates).
    pub fn new(bounds: Option<Rect>, carrier: Box<dyn RawExchange>) -> Self {
        ShardEndpoint::with_replicas(Arc::new(ShardMeta::new(bounds)), vec![carrier])
    }

    /// Endpoint over a replica set: `carriers[0]` is the primary edge,
    /// the rest (at most 63: a read's rotation is one bit per replica)
    /// are siblings serving the same data.
    pub fn with_replicas(meta: Arc<ShardMeta>, carriers: Vec<Box<dyn RawExchange>>) -> Self {
        assert!(!carriers.is_empty(), "a shard needs at least one replica");
        assert!(carriers.len() <= 64, "a shard has at most 64 replicas");
        ShardEndpoint {
            meta,
            replicas: carriers,
        }
    }

    /// Number of replica edges behind this shard.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }
}

/// Shared scatter accounting of one router: per-replica meters and
/// breaker health, plus the prune/scatter decision counters the bench
/// experiments report.
#[derive(Debug)]
pub struct ShardTelemetry {
    replica_meters: Vec<Vec<Arc<LinkMeter>>>,
    health: Vec<Arc<ReplicaSetHealth>>,
    breaker: BreakerConfig,
    metas: Vec<Arc<ShardMeta>>,
    scattered: AtomicU64,
    pruned: AtomicU64,
    /// Shards that actually failed to serve: a read whose entire replica
    /// set was exhausted (whether surfaced as `Unavailable` or skipped by
    /// a partial-tolerant router), or an update batch no replica acked.
    /// A dark replica whose *sibling* answered does not mark its shard —
    /// the shard served. Surfaced as [`FleetSnapshot::failed_shards`].
    failed: Mutex<BTreeSet<usize>>,
}

impl ShardTelemetry {
    fn new(metas: Vec<Arc<ShardMeta>>, replicas: Vec<usize>, breaker: BreakerConfig) -> Self {
        debug_assert_eq!(metas.len(), replicas.len());
        let replica_meters: Vec<Vec<_>> = replicas
            .iter()
            .map(|&n| (0..n).map(|_| Arc::new(LinkMeter::new())).collect())
            .collect();
        ShardTelemetry {
            replica_meters,
            health: replicas
                .iter()
                .map(|&n| Arc::new(ReplicaSetHealth::new(n)))
                .collect(),
            breaker,
            metas,
            scattered: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
            failed: Mutex::new(BTreeSet::new()),
        }
    }

    /// Number of shards in the fleet.
    pub fn shard_count(&self) -> usize {
        self.replica_meters.len()
    }

    /// The per-shard generation vector, in shard order — each entry the
    /// highest generation observed from that shard so far.
    pub fn generations(&self) -> Vec<u64> {
        self.metas.iter().map(|m| m.generation()).collect()
    }

    fn note_failed(&self, shard: usize) {
        self.failed
            .lock()
            .expect("failed-shard lock poisoned")
            .insert(shard);
    }

    /// Point-in-time copy of the whole fleet's accounting. Each replica
    /// meter is read once, and each shard's entry is the sum of its row
    /// as read, so `per_shard[i] == Σ per_replica[i]` holds in every
    /// snapshot, even one taken while the fleet serves.
    pub fn snapshot(&self) -> FleetSnapshot {
        let per_replica: Vec<Vec<LinkSnapshot>> = (self.replica_meters.iter())
            .map(|row| row.iter().map(|m| m.snapshot()).collect())
            .collect();
        let failed = self
            .failed
            .lock()
            .expect("failed-shard lock poisoned")
            .clone();
        FleetSnapshot {
            failed_shards: failed.into_iter().collect(),
            per_shard: per_replica.iter().map(|row| sum(row)).collect(),
            per_replica,
            health: self
                .health
                .iter()
                .map(|h| h.snapshot(&self.breaker))
                .collect(),
            generations: self.generations(),
            scattered: self.scattered.load(Ordering::Relaxed),
            pruned: self.pruned.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a fleet's scatter accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetSnapshot {
    /// Wire accounting per shard, in shard order.
    pub per_shard: Vec<LinkSnapshot>,
    /// Per-shard generation vector (highest observed, in shard order).
    /// All zeros on a frozen fleet.
    pub generations: Vec<u64>,
    /// Sub-requests actually sent to shards.
    pub scattered: u64,
    /// (request, shard) slots skipped because the shard could not
    /// contribute to the answer — a bounds miss.
    pub pruned: u64,
    /// Shards that failed to *serve* at least once, in shard order: a
    /// read exhausted the whole replica set (surfaced as `Unavailable`,
    /// or skipped under partial tolerance), or no replica acked an
    /// update batch. Empty on a healthy fleet. A dark replica covered by
    /// a sibling — failed over on a read, out-acked on an update — does
    /// not mark its shard: the shard still served.
    pub failed_shards: Vec<usize>,
    /// Wire accounting per replica edge, `per_replica[shard][replica]`.
    /// Each shard's entry in [`FleetSnapshot::per_shard`] is the
    /// field-wise sum of its row here. Rows of length 1 on a
    /// replica-less fleet.
    pub per_replica: Vec<Vec<LinkSnapshot>>,
    /// Circuit-breaker health per replica edge, `health[shard][replica]`:
    /// breaker state and consecutive failures. An edge's trips are its
    /// `per_replica` meter's `breaker_open`.
    pub health: Vec<Vec<HealthSnapshot>>,
}

impl FleetSnapshot {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.per_shard.len()
    }

    /// Field-wise sum of the per-shard snapshots. Equals the router's
    /// aggregate meter — the conservation law the stress tests pin.
    pub fn summed(&self) -> LinkSnapshot {
        sum(&self.per_shard)
    }

    /// Fraction of shards that answered: `1 - failed/total`. `1.0` on a
    /// healthy fleet; below it only when shards abandoned or a
    /// partial-tolerant read skipped an exhausted replica set.
    pub fn coverage(&self) -> f64 {
        if self.per_shard.is_empty() {
            return 1.0;
        }
        1.0 - self.failed_shards.len() as f64 / self.per_shard.len() as f64
    }

    /// Fraction of scatter slots avoided by bounds pruning.
    pub fn pruning_rate(&self) -> f64 {
        rate(self.pruned, self.scattered)
    }
}

/// Field-wise sum of `snapshots`.
fn sum(snapshots: &[LinkSnapshot]) -> LinkSnapshot {
    (snapshots.iter()).fold(LinkSnapshot::default(), |acc, s| acc.plus(s))
}

/// Scatter-gather layer over a fleet of shard servers. See the module
/// docs for the routing, merging and metering rules.
pub struct ShardRouter {
    /// The physical edges, `edges[shard][replica]`; each charges its own
    /// replica meter, which the aggregate sums. A shard's primary edge
    /// (`[0]`) frames for the whole replica set: one dedup identity per
    /// (router, shard), so every replica receives the *same* tagged
    /// bytes and one that sees a broadcast sub-batch twice (retry, or
    /// catch-up replay) applies it once.
    edges: Vec<Vec<Edge>>,
    /// The packet model sub-exchanges are metered under (a cache over the
    /// fleet prices its hits with it).
    pub(crate) packet: PacketModel,
    aggregate: Arc<LinkMeter>,
    telemetry: Arc<ShardTelemetry>,
    /// Retry discipline of the settle loop ([`NetConfig::retry`]). Each
    /// shard fails and recovers **individually**: a retried shard never
    /// causes healthy shards' replies to be re-fetched, and a shard that
    /// exhausts its budget surfaces as a typed [`Response::Unavailable`]
    /// with the shard recorded in [`FleetSnapshot::failed_shards`].
    retry: RetryPolicy,
    /// Partial-result tolerance ([`NetConfig::allow_partial`]): when on,
    /// a read whose entire replica set for some shard is exhausted
    /// completes without that shard's contribution instead of surfacing
    /// `Unavailable`, and records the shard as uncovered. Never applies
    /// to `ApplyUpdates`.
    allow_partial: bool,
}

impl ShardRouter {
    /// Builds a router over `shards` (at least one) with fresh meters,
    /// under `net`'s packet model, wire version, retry discipline,
    /// circuit breakers (see [`crate::health`]: replicas whose breaker is
    /// open are skipped when picking read targets) and partial-result
    /// tolerance.
    pub fn new(shards: Vec<ShardEndpoint>, net: &NetConfig) -> Self {
        assert!(!shards.is_empty(), "a fleet needs at least one shard");
        let telemetry = Arc::new(ShardTelemetry::new(
            shards.iter().map(|s| Arc::clone(&s.meta)).collect(),
            shards.iter().map(|s| s.replicas.len()).collect(),
            net.breaker,
        ));
        let replicas = telemetry.replica_meters.iter().flatten().cloned();
        let aggregate = Arc::new(LinkMeter::summing(replicas.collect()));
        let edge = |i: usize, j: usize, carrier| {
            Edge::new(carrier, net, Arc::clone(&telemetry.replica_meters[i][j]))
        };
        let edges = shards
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let carriers = s.replicas.into_iter().enumerate();
                carriers.map(|(j, c)| edge(i, j, c)).collect()
            })
            .collect();
        ShardRouter {
            edges,
            packet: net.packet,
            aggregate,
            telemetry,
            retry: net.retry,
            allow_partial: net.allow_partial,
        }
    }

    /// The aggregate meter: the sum over every physical exchange.
    pub fn aggregate_meter(&self) -> &Arc<LinkMeter> {
        &self.aggregate
    }

    /// Per-replica meters, breaker health and prune counters.
    pub fn telemetry(&self) -> &Arc<ShardTelemetry> {
        &self.telemetry
    }

    /// Notes a failed exchange on one replica edge's breaker; meters the
    /// trip when this failure is the one that opens (or re-opens) it.
    fn note_edge_failure(&self, shard: usize, replica: usize) {
        let set = &self.telemetry.health[shard];
        if set
            .edge(replica)
            .on_failure(&self.telemetry.breaker, set.now())
        {
            self.edges[shard][replica].tally(LinkMeter::record_breaker_open);
        }
    }

    /// Read rotation for one shard's replica set: the admitting replicas
    /// (breaker closed or half-open), started at the request-hash pick so
    /// independent requests spread across siblings, in failover order.
    /// When *every* breaker is open, routing around the whole set would
    /// guarantee failure, so the full set is used anyway (last resort).
    fn rotation(&self, shard: usize, hash: u64) -> Rotation {
        let n = self.edges[shard].len();
        if n == 1 {
            // Admitting or last resort, a sole replica is the rotation.
            return Rotation::only(0);
        }
        let set = &self.telemetry.health[shard];
        let cfg = &self.telemetry.breaker;
        let now = set.now();
        let admitting = (0..n).filter(|&j| set.edge(j).admits(cfg, now));
        let mut admitted = admitting.fold(0u64, |set, j| set | 1 << j);
        if admitted == 0 {
            admitted = u64::MAX >> (64 - n);
        }
        let len = admitted.count_ones();
        Rotation {
            admitted,
            start: (hash % u64::from(len)) as u32,
            len,
        }
    }

    /// Ships `frame` to one replica of `shard`, ticking the replica set's
    /// exchange clock (the breakers' deterministic cooldown time base)
    /// once per try.
    fn ship(&self, shard: usize, replica: usize, frame: &Frame) -> Bytes {
        self.telemetry.health[shard].tick();
        self.edges[shard][replica]
            .carrier
            .exchange(frame.bytes.clone())
    }

    /// The verdict on one judged reply from `replica` of `shard`: the
    /// reply and its generation when it serves, noted as the shard's
    /// observed generation and as a success on the replica's breaker;
    /// otherwise the failure it counts as, noted on the breaker.
    fn evaluate(
        &self,
        shard: usize,
        replica: usize,
        (resp, generation): (Response, u64),
    ) -> Result<(Response, u64), Response> {
        let meta = &self.telemetry.metas[shard];
        // The generation floor: a read reply stamped below the highest
        // generation already observed from this shard came from a
        // lagging replica. Serving it would hand the cache (and the
        // client) state known to be superseded, so it is
        // rejected like a lost exchange — metered, noted on the breaker,
        // re-fetched from a sibling. Only replica *sets* are floored: a
        // single-replica shard has no sibling to lag behind, its sole
        // edge is authoritative, and flooring it would make reads that
        // race a writer on a shared fleet view reject their own current
        // replies.
        let stale = self.edges[shard].len() > 1
            && !matches!(resp, Response::Ack { .. })
            && generation < meta.generation();
        if resp.is_failure() || stale {
            self.note_edge_failure(shard, replica);
            return Err(if stale { Response::Unavailable } else { resp });
        }
        if generation > 0 {
            meta.note_generation(generation);
        }
        self.telemetry.health[shard].edge(replica).on_success();
        Ok((resp, generation))
    }

    /// Settles `frame` on `shard` — the fleet's retry loop, over the
    /// edge's own frame / exchange / judge steps. A read tries its
    /// rotation first (a **failover** to the next sibling costs no retry
    /// budget); once the rotation is exhausted it re-picks the rotation,
    /// so breaker trips observed meanwhile are honored, and tries again,
    /// up to the budget. An update is `pin`ned to one replica and retries
    /// it in place. Observed shard generations only ever move through the
    /// monotone [`ShardMeta::note_generation`] max, and failed tries never
    /// note one, so a retry can never regress the generation vector. A frame
    /// that exhausts its budget answers its last typed failure, and a
    /// read that does marks the shard in [`FleetSnapshot::failed_shards`]
    /// (an update is judged per *batch* in `apply_updates`: a sibling's
    /// ack can still carry the shard). `scattered` counts the replies
    /// that came back at all.
    fn settle(
        &self,
        shard: usize,
        frame: &Frame,
        hash: u64,
        pin: Option<usize>,
        scattered: &mut u64,
    ) -> (Response, u64) {
        let group = &self.edges[shard];
        let pick = || pin.map_or_else(|| self.rotation(shard, hash), Rotation::only);
        let mut rotation = pick();
        // The first-picked replica: abandonment is attributed to it.
        let primary = rotation.at(0);
        let mut failure = Response::Unavailable;
        for attempt in 0..self.retry.max_attempts.max(1) {
            if attempt > 0 {
                rotation = pick();
                group[rotation.at(0)].tally(LinkMeter::record_retry);
            }
            for pos in 0..rotation.len {
                let replica = rotation.at(pos);
                if pos > 0 {
                    // Tallied on the edge failed *from*.
                    group[rotation.at(pos - 1)].tally(LinkMeter::record_failover);
                }
                let judged = group[replica].judge(frame, self.ship(shard, replica, frame));
                *scattered += u64::from(judged.0 != Response::Unavailable);
                match self.evaluate(shard, replica, judged) {
                    Ok(answer) => return answer,
                    Err(resp) => failure = resp,
                }
            }
        }
        if self.retry.enabled() {
            group[primary].tally(LinkMeter::record_abandon);
        }
        if pin.is_none() {
            // The whole replica set is exhausted: the shard failed to
            // serve this read.
            self.telemetry.note_failed(shard);
        }
        (failure, 0)
    }

    /// One read, scattered and gathered: walks the shards in order and
    /// settles on each, from its bounds as the walk reads them, the cut
    /// of `req` to the probes whose reach touches them — `req` itself,
    /// borrowed, where that is all of them — merging the reply in at the
    /// probes it carried ([`Response::merge`]) before the next shard is
    /// framed. Shards it reaches none on count as pruned, once per
    /// request. A cooperative request is never pruned: index structure is
    /// global, and a non-cooperative policy refusal must propagate from
    /// every shard. Every rectangle decision is taken on the request's
    /// [`wire_exact`] form.
    ///
    /// Per shard of the fleet its work is one bounds test per probe; per
    /// reached shard, one frame, a spread hash of it only where the shard
    /// has siblings, and one fold: a count adds, a sole contributor's
    /// list is moved in as it came, and each further one costs one pass
    /// per merged object, no sort. A `WINDOW`, `COUNT` or `ε-RANGE` has
    /// one probe, so every shard it reaches is sent the request itself.
    /// Every sub-reply reaching the merge is of the request's kind or a
    /// typed non-answer (`Edge::judge` saw to that); the first non-answer
    /// is the merged answer. It comes back with the fleet generation it
    /// was served at: per shard, the generation its reply reported or,
    /// where it contributed nothing, the highest observed from it.
    fn read(&self, req: &Request, scattered: &mut u64) -> (Response, u64) {
        let exact = wire_exact(req);
        let reaches: Few<Rect> = (0..exact.probes()).map(|i| exact.reach(i)).collect();
        let (reaches, cooperative) = (reaches.as_slice(), req.is_cooperative());
        let (mut merged, mut served_at, mut pruned) = (req.empty_answer(), 0, 0);
        for (shard, meta) in self.telemetry.metas.iter().enumerate() {
            let bounds = meta.bounds();
            let reached = |&i: &usize| bounds.is_some_and(|b| b.intersects(&reaches[i]));
            let picks: Few<usize> = (0..reaches.len()).filter(reached).collect();
            let sub = match picks.as_slice().len() {
                all if all == reaches.len() => Cow::Borrowed(req),
                0 if !cooperative => {
                    pruned += 1;
                    served_at += meta.generation();
                    continue;
                }
                _ => Cow::Owned(exact.cut(picks.as_slice())),
            };
            let frame = self.edges[shard][0].frame(sub);
            // Only a shard with siblings hashes the frame: a sole
            // replica's rotation is itself whatever the hash.
            let hash = match self.edges[shard].len() {
                1 => 0,
                _ => spread_hash(&frame.bytes),
            };
            let (resp, generation) = self.settle(shard, &frame, hash, None, scattered);
            if !resp.is_failure() {
                served_at += generation;
            } else {
                served_at += meta.generation();
                if self.allow_partial {
                    // Partial tolerance: the merge proceeds without this
                    // shard; the hole is recorded, never cached as truth
                    // (the deployment layer forbids the combination with
                    // a client cache).
                    continue;
                }
            }
            merged.merge(resp, picks.as_slice());
        }
        if pruned > 0 {
            self.telemetry.pruned.fetch_add(pruned, Ordering::Relaxed);
        }
        (merged, served_at)
    }

    /// Scattered `ApplyUpdates`: each insert/move goes to the shard whose
    /// partition cell owns the object's new center; **every other shard
    /// receives a `Delete` of that id** (upsert-by-id makes the delete a
    /// no-op where the object never lived, and the eviction that keeps
    /// the fleet disjoint where it did). Plain deletes broadcast. All
    /// shards are contacted on every batch — empty sub-batches included —
    /// so each shard's generation advances exactly once and the summed
    /// fleet generation stays injective in the batch count. The merged
    /// `Ack` carries that sum; a batch that fails carries the fleet
    /// generation from before it. Owners are picked, and bounds grown, on
    /// the batch's [`wire_exact`] form: the rectangles the shards store,
    /// which an `f32` rounding may have moved outward.
    fn apply_updates(&self, req: &Request, scattered: &mut u64) -> (Response, u64) {
        let Request::ApplyUpdates(batch) = wire_exact(req) else {
            unreachable!("an update batch rounds to an update batch")
        };
        let metas = &self.telemetry.metas;
        let before = metas.iter().map(|m| m.generation()).sum();
        let cells: Option<Vec<Rect>> = metas.iter().map(|m| m.cell()).collect();
        let Some(cells) = cells else {
            // No declared partition — the router cannot pick owners.
            return (Response::Refused, before);
        };
        let mut subs: Vec<Vec<Update>> = vec![Vec::new(); metas.len()];
        for u in &batch {
            let placed = match u {
                Update::Insert(o) => Some((o.id, o.mbr)),
                Update::Move { id, to } => Some((*id, *to)),
                Update::Delete(_) => None,
            };
            let owned = placed.map(|(id, mbr)| {
                let owner = owner_of(&cells, &mbr.center());
                metas[owner].grow_bounds(&mbr);
                (id, owner)
            });
            for (i, sub) in subs.iter_mut().enumerate() {
                sub.push(match owned {
                    Some((id, owner)) if i != owner => Update::Delete(id),
                    _ => u.clone(),
                });
            }
        }
        // One frame per shard, pinned on each of its replicas: every
        // replica gets the same tagged bytes (so the dedup envelope
        // collapses duplicate deliveries) and retries *in place* — an
        // update never fails over.
        let frames: Vec<Frame> = (subs.into_iter().enumerate())
            .map(|(i, sub)| self.edges[i][0].frame(Cow::Owned(Request::ApplyUpdates(sub))))
            .collect();
        // The batch is durable on a shard once *any* replica acks (the
        // shard generation fetch-maxes over the replica acks); a replica
        // that stayed dark catches up at its restart hook, and until
        // then the generation floor keeps its stale replies out of
        // reads. Only a shard with **no** acking replica fails the
        // batch, propagating its first typed failure.
        let replies: Vec<Vec<Response>> = (frames.iter().enumerate())
            .map(|(i, frame)| {
                let settle = |j| self.settle(i, frame, 0, Some(j), scattered);
                (0..self.edges[i].len())
                    .map(settle)
                    .map(|(resp, _)| resp)
                    .collect()
            })
            .collect();
        let mut sum = 0;
        for (i, replies) in replies.into_iter().enumerate() {
            let acks = replies.iter().filter_map(|resp| match resp {
                Response::Ack { generation } => Some(*generation),
                _ => None,
            });
            let Some(generation) = acks.max() else {
                self.telemetry.note_failed(i);
                return (replies[0].clone(), before);
            };
            sum += generation;
        }
        (Response::Ack { generation: sum }, sum)
    }
}

impl Layer for ShardRouter {
    /// Answers one request, as a flat edge does: a read is settled shard
    /// by shard ([`ShardRouter::read`], each shard's bounds read as the
    /// walk reaches it) and an update on every replica of every shard
    /// ([`ShardRouter::apply_updates`]) before the call returns. A merged
    /// answer carries the fleet generation it was served at (0 on a
    /// frozen fleet), an `Ack` its own.
    fn call(&self, req: &Request) -> (Response, u64) {
        // Tallied once per request, not once per shard.
        let mut scattered = 0;
        let sole = self.edges.len() == 1 && self.edges[0].len() == 1;
        let answer = match req {
            // A fleet of one edge has nothing to prune and nothing to
            // merge: the sole shard is sent the request itself, so it
            // sees exactly the frames a flat link would send it and its
            // reply (and the generation it reports) is the answer — a
            // 1×1 fleet is wire-identical to a flat deployment while the
            // settle loop still ticks its health, breaker and retry
            // accounting.
            _ if sole => {
                let frame = self.edges[0][0].frame(Cow::Borrowed(req));
                self.settle(0, &frame, 0, None, &mut scattered)
            }
            Request::ApplyUpdates(_) => self.apply_updates(req, &mut scattered),
            // The fleet generation is a sum over shards: no shard can be
            // asked for what changed since it. Refused here, nothing sent.
            Request::Changes { .. } => {
                let metas = self.telemetry.metas.iter();
                (Response::Refused, metas.map(|m| m.generation()).sum())
            }
            _ => self.read(req, &mut scattered),
        };
        if scattered > 0 {
            self.telemetry
                .scattered
                .fetch_add(scattered, Ordering::Relaxed);
        }
        answer
    }
}

/// Replica try order of one frame for one attempt, inline: a bit per
/// replica in it, tried in index order from the `start`-th, wrapping.
#[derive(Clone, Copy)]
struct Rotation {
    admitted: u64,
    start: u32,
    len: u32,
}

impl Rotation {
    /// The rotation of a frame that may only ever try `replica`.
    fn only(replica: usize) -> Self {
        Rotation {
            admitted: 1 << replica,
            start: 0,
            len: 1,
        }
    }

    /// The replica tried `pos`-th.
    fn at(&self, pos: u32) -> usize {
        let mut from = self.admitted;
        for _ in 0..(self.start + pos) % self.len {
            from &= from - 1;
        }
        from.trailing_zeros() as usize
    }
}

/// The shard owning point `p`: the first whose cell contains it
/// (half-open, matching the partitioner's assignment rule), else —
/// for points outside the partitioned space entirely — the shard with
/// the nearest cell center (lowest index on ties). Deterministic, so
/// every client routes the same object the same way.
fn owner_of(cells: &[Rect], p: &Point) -> usize {
    let off = |c: &Rect| (c.center().x - p.x).powi(2) + (c.center().y - p.y).powi(2);
    let inside = cells.iter().position(|c| c.contains_half_open(p));
    let nearest = || (0..cells.len()).min_by(|&a, &b| off(&cells[a]).total_cmp(&off(&cells[b])));
    inside.or_else(nearest).expect("a fleet has shards")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::QueryHandler;
    use crate::testutil::ScanHandler as Scan;
    use crate::transport::{InProcExchange, Link};
    use asj_geom::{Point, SpatialObject};

    fn endpoint(objects: Vec<SpatialObject>) -> ShardEndpoint {
        let bounds = Rect::union_of(objects.iter().map(|o| o.mbr));
        ShardEndpoint::new(
            bounds,
            Box::new(InProcExchange::new(Arc::new(Scan(objects)))),
        )
    }

    /// Two shards: ids 0..10 on the left (x ≈ 0..9), ids 100..110 on the
    /// right (x ≈ 100..109).
    fn two_shard_router() -> ShardRouter {
        let left: Vec<SpatialObject> = (0..10)
            .map(|i| SpatialObject::point(i, i as f64, 0.0))
            .collect();
        let right: Vec<SpatialObject> = (0..10)
            .map(|i| SpatialObject::point(100 + i, 100.0 + i as f64, 0.0))
            .collect();
        ShardRouter::new(vec![endpoint(left), endpoint(right)], &NetConfig::default())
    }

    fn link(router: ShardRouter) -> Link {
        Link::routed(router, 1.0)
    }

    #[test]
    fn count_sums_and_prunes() {
        let l = link(two_shard_router());
        // Window touching only the left shard.
        let w = Rect::from_coords(0.0, -1.0, 5.0, 1.0);
        assert_eq!(l.request(&Request::Count(w)).into_count(), 6);
        let fleet = l.fleet().unwrap().snapshot();
        assert_eq!(fleet.scattered, 1, "only the left shard was asked");
        assert_eq!(fleet.pruned, 1);
        assert_eq!(fleet.per_shard[1], LinkSnapshot::default());
        // Both shards.
        let all = Rect::from_coords(-1.0, -1.0, 200.0, 1.0);
        assert_eq!(l.request(&Request::Count(all)).into_count(), 20);
        // Aggregate meter equals the per-shard sum.
        let fleet = l.fleet().unwrap().snapshot();
        assert_eq!(fleet.summed(), l.meter().snapshot());
    }

    #[test]
    fn window_merges_in_shard_order() {
        let l = link(two_shard_router());
        let all = Rect::from_coords(-1.0, -1.0, 200.0, 1.0);
        let objs = l.request(&Request::Window(all)).into_objects();
        assert_eq!(objs.len(), 20);
        let ids: Vec<u32> = objs.iter().map(|o| o.id).collect();
        assert_eq!(&ids[..3], &[0, 1, 2], "left shard first");
        assert_eq!(ids[10], 100, "then the right shard");
    }

    /// A straddler (id 5, x = 9..11) replicated into both shards, plus
    /// one own object each: every object merge must keep the first
    /// occurrence, in shard order.
    fn straddled() -> (Vec<SpatialObject>, Vec<SpatialObject>) {
        let straddler = SpatialObject::new(5, Rect::from_coords(9.0, 0.0, 11.0, 1.0));
        let left = vec![SpatialObject::point(1, 8.0, 0.0), straddler];
        let right = vec![
            straddler,
            SpatialObject::point(7, 12.0, 0.0),
            SpatialObject::point(8, 13.0, 0.0),
        ];
        (left, right)
    }

    #[test]
    fn a_straddler_in_two_shards_is_returned_once_first_occurrence_in_shard_order() {
        let (left, right) = straddled();
        let l = link(ShardRouter::new(
            vec![endpoint(left), endpoint(right)],
            &NetConfig::default(),
        ));
        let ids = |objs: Vec<SpatialObject>| objs.iter().map(|o| o.id).collect::<Vec<_>>();
        let all = Rect::from_coords(0.0, -1.0, 20.0, 2.0);
        assert_eq!(
            ids(l.request(&Request::Window(all)).into_objects()),
            [1, 5, 7, 8]
        );
        let q = Rect::point(Point::new(10.0, 0.0));
        let near = l.request(&Request::EpsRange { q, eps: 2.5 });
        assert_eq!(ids(near.into_objects()), [1, 5, 7]);
        let probes = vec![
            SpatialObject::point(900, 10.0, 0.0), // both shards
            SpatialObject::point(901, 0.0, 0.0),  // nothing in reach
            SpatialObject::point(902, 13.5, 0.0), // right shard only
        ];
        let buckets = l
            .request(&Request::BucketEpsRange { probes, eps: 2.5 })
            .into_buckets();
        let buckets: Vec<Vec<u32>> = buckets.into_iter().map(ids).collect();
        assert_eq!(buckets, [vec![1, 5, 7], vec![], vec![5, 7, 8]]);
        assert_eq!(
            l.fleet().unwrap().snapshot().scattered,
            6,
            "all merged from two"
        );
    }

    #[test]
    fn a_sole_contributors_reply_is_the_merged_answer_object_for_object() {
        let (left, right) = straddled();
        let l = link(ShardRouter::new(
            vec![endpoint(left), endpoint(right.clone())],
            &NetConfig::default(),
        ));
        // Beyond the left shard's bounds: only the right one is asked, and
        // its reply is handed on as it came — in its order, nothing merged.
        let w = Rect::from_coords(11.5, -1.0, 20.0, 2.0);
        assert_eq!(
            l.request(&Request::Window(w)).into_objects(),
            Scan(right.clone())
                .handle(Request::Window(w))
                .into_objects()
        );
        let q = Rect::point(Point::new(14.0, 0.0));
        let probe = Request::EpsRange { q, eps: 2.0 };
        assert_eq!(
            l.request(&probe).into_objects(),
            Scan(right.clone()).handle(probe.clone()).into_objects()
        );
        let bucket = Request::BucketEpsRange {
            probes: vec![SpatialObject::point(900, 14.0, 0.0)],
            eps: 2.0,
        };
        assert_eq!(
            l.request(&bucket),
            Scan(right).handle(bucket.clone()),
            "one shard's buckets, verbatim"
        );
        let fleet = l.fleet().unwrap().snapshot();
        assert_eq!((fleet.scattered, fleet.pruned), (3, 3));
    }

    #[test]
    fn all_pruned_synthesizes_empty_answers_for_free() {
        let l = link(two_shard_router());
        let nowhere = Rect::from_coords(40.0, 40.0, 50.0, 50.0);
        assert_eq!(l.request(&Request::Count(nowhere)).into_count(), 0);
        assert_eq!(l.request(&Request::Window(nowhere)).into_objects(), vec![]);
        let s = l.meter().snapshot();
        assert_eq!(s.total_bytes(), 0, "pruned queries cost nothing");
        // Count 2 + Window 2.
        assert_eq!(l.fleet().unwrap().snapshot().pruned, 4);
    }

    #[test]
    fn eps_range_prunes_by_expanded_probe() {
        let l = link(two_shard_router());
        let q = Rect::point(Point::new(11.0, 0.0));
        // eps 2.5: reaches only the left shard (x ≤ 9 + 2.5 window).
        let near = l.request(&Request::EpsRange { q, eps: 2.5 }).into_objects();
        assert_eq!(near.len(), 1, "only the point at x=9");
        assert_eq!(l.fleet().unwrap().snapshot().scattered, 1);
        // eps 95: reaches both shards (left fully, right up to x = 106).
        let far = l
            .request(&Request::EpsRange { q, eps: 95.0 })
            .into_objects();
        assert_eq!(far.len(), 17);
    }

    #[test]
    fn bucket_probes_route_to_reachable_shards_only() {
        let l = link(two_shard_router());
        let probes = vec![
            SpatialObject::point(900, 5.0, 0.0),   // left shard
            SpatialObject::point(901, 105.0, 0.0), // right shard
            SpatialObject::point(902, 50.0, 0.0),  // neither
        ];
        let buckets = l
            .request(&Request::BucketEpsRange { probes, eps: 1.5 })
            .into_buckets();
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].len(), 3); // x ∈ {4,5,6}
        assert_eq!(buckets[1].len(), 3); // x ∈ {104,105,106}
        assert!(buckets[2].is_empty());
        let fleet = l.fleet().unwrap().snapshot();
        assert_eq!(fleet.per_shard[0].bucket_queries, 1);
        assert_eq!(fleet.per_shard[1].bucket_queries, 1);
    }

    #[test]
    fn refused_propagates_from_any_shard() {
        let l = link(two_shard_router());
        // Scan refuses cooperative queries; the fleet must too.
        assert_eq!(l.request(&Request::CoopLevelMbrs(0)), Response::Refused);
        assert_eq!(
            l.request(&Request::CoopJoinPush {
                objects: vec![SpatialObject::point(1, 5.0, 0.0)],
                eps: 1.0,
            }),
            Response::Refused
        );
    }

    #[test]
    fn single_shard_is_a_transparent_metered_proxy() {
        let data: Vec<SpatialObject> = (0..10)
            .map(|i| SpatialObject::point(i, i as f64, 0.0))
            .collect();
        let flat = Link::in_process(Arc::new(Scan(data.clone())), &NetConfig::default(), 1.0);
        let routed = link(ShardRouter::new(
            vec![endpoint(data)],
            &NetConfig::default(),
        ));
        // Include a window that misses the data: even that must cross the
        // wire (no pruning at fleet size 1 — byte-transparency).
        for w in [
            Rect::from_coords(0.0, -1.0, 4.0, 1.0),
            Rect::from_coords(50.0, 50.0, 60.0, 60.0),
        ] {
            assert_eq!(
                flat.request(&Request::Count(w)).into_count(),
                routed.request(&Request::Count(w)).into_count()
            );
            assert_eq!(
                flat.request(&Request::Window(w)).into_objects(),
                routed.request(&Request::Window(w)).into_objects()
            );
        }
        assert_eq!(flat.meter().snapshot(), routed.meter().snapshot());
        let fleet = routed.fleet().unwrap().snapshot();
        assert_eq!(fleet.pruned, 0);
        assert_eq!(fleet.summed(), routed.meter().snapshot());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn empty_fleet_rejected() {
        ShardRouter::new(Vec::new(), &NetConfig::default());
    }

    use crate::codec::{
        decode_request, decode_response_gen_ctx, encode_request, encode_response,
        encode_response_into, stamp_generation_versioned, WireVersion,
    };
    use bytes::BytesMut;
    use std::sync::Mutex;

    /// A live shard server double: upsert-by-id update semantics, a
    /// generation counter bumped per batch, and query replies stamped
    /// with the serving generation — the wire behaviour of a
    /// `SpatialService<VersionedStore<_>>` without depending on it.
    struct LiveShard {
        objects: Mutex<Vec<SpatialObject>>,
        generation: AtomicU64,
    }

    impl LiveShard {
        fn new(objects: Vec<SpatialObject>) -> Self {
            LiveShard {
                objects: Mutex::new(objects),
                generation: AtomicU64::new(0),
            }
        }
    }

    impl RawExchange for LiveShard {
        fn exchange(&self, raw: Bytes) -> Bytes {
            let req = decode_request(raw).expect("malformed request");
            let resp = match req {
                Request::ApplyUpdates(batch) => {
                    let mut objs = self.objects.lock().unwrap();
                    for u in &batch {
                        match u {
                            Update::Insert(o) => match objs.iter_mut().find(|x| x.id == o.id) {
                                Some(slot) => *slot = *o,
                                None => objs.push(*o),
                            },
                            Update::Delete(id) => objs.retain(|x| x.id != *id),
                            Update::Move { id, to } => {
                                let moved = SpatialObject::new(*id, *to);
                                match objs.iter_mut().find(|x| x.id == moved.id) {
                                    Some(slot) => *slot = moved,
                                    None => objs.push(moved),
                                }
                            }
                        }
                    }
                    let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
                    return encode_response(&Response::Ack { generation });
                }
                Request::Window(w) => {
                    let objs = self.objects.lock().unwrap();
                    Response::Objects(
                        objs.iter()
                            .filter(|o| o.mbr.intersects(&w))
                            .copied()
                            .collect(),
                    )
                }
                Request::Count(w) => {
                    let objs = self.objects.lock().unwrap();
                    Response::Count(objs.iter().filter(|o| o.mbr.intersects(&w)).count() as u64)
                }
                _ => Response::Refused,
            };
            let mut buf = BytesMut::new();
            stamp_generation_versioned(
                self.generation.load(Ordering::SeqCst),
                WireVersion::V1,
                &mut buf,
            );
            encode_response_into(&resp, &mut buf);
            buf.freeze()
        }
    }

    /// Two live shards partitioned at x = 50: left cell `[0, 50)`, right
    /// cell `[50, 110)`; same datasets as `two_shard_router`.
    fn live_fleet() -> ShardRouter {
        let left: Vec<SpatialObject> = (0..10)
            .map(|i| SpatialObject::point(i, i as f64, 0.0))
            .collect();
        let right: Vec<SpatialObject> = (0..10)
            .map(|i| SpatialObject::point(100 + i, 100.0 + i as f64, 0.0))
            .collect();
        let shard = |objects: Vec<SpatialObject>, cell: Rect| {
            let bounds = Rect::union_of(objects.iter().map(|o| o.mbr));
            ShardEndpoint::with_replicas(
                Arc::new(ShardMeta::with_cell(bounds, Some(cell))),
                vec![Box::new(LiveShard::new(objects))],
            )
        };
        ShardRouter::new(
            vec![
                shard(left, Rect::from_coords(0.0, -10.0, 50.0, 10.0)),
                shard(right, Rect::from_coords(50.0, -10.0, 110.0, 10.0)),
            ],
            &NetConfig::default(),
        )
    }

    /// The response and the serving generation it reports (an `Ack`'s
    /// own, otherwise the merged answer's fleet generation).
    fn roundtrip(router: &ShardRouter, req: &Request) -> (Response, u64) {
        router.call(req)
    }

    #[test]
    fn updates_scatter_to_owners_and_sum_generations() {
        let router = live_fleet();
        // Insert at x = 10: the left cell owns it.
        let (ack, stamp) = roundtrip(
            &router,
            &Request::ApplyUpdates(vec![Update::Insert(SpatialObject::point(900, 10.0, 0.0))]),
        );
        assert_eq!(stamp, 2, "an Ack reports the generation it carries");
        assert_eq!(ack, Response::Ack { generation: 2 }, "1 + 1 across shards");
        assert_eq!(router.telemetry().generations(), vec![1, 1]);
        assert_eq!(router.telemetry().snapshot().generations, vec![1, 1]);

        let everywhere = Rect::from_coords(-1.0, -1.0, 200.0, 1.0);
        let (resp, stamp) = roundtrip(&router, &Request::Window(everywhere));
        assert_eq!(stamp, 2, "merged replies carry the fleet generation");
        let ids: Vec<u32> = resp.into_objects().iter().map(|o| o.id).collect();
        assert_eq!(ids.iter().filter(|&&id| id == 900).count(), 1);
        assert_eq!(ids.len(), 21);

        // Move it across the boundary: the right cell takes ownership and
        // the left shard is told to forget it.
        let (ack, _) = roundtrip(
            &router,
            &Request::ApplyUpdates(vec![Update::Move {
                id: 900,
                to: Rect::point(Point::new(60.0, 0.0)),
            }]),
        );
        assert_eq!(ack, Response::Ack { generation: 4 });
        assert_eq!(router.telemetry().generations(), vec![2, 2]);
        let (resp, stamp) = roundtrip(&router, &Request::Window(everywhere));
        assert_eq!(stamp, 4);
        let objs = resp.into_objects();
        let at_900: Vec<_> = objs.iter().filter(|o| o.id == 900).collect();
        assert_eq!(at_900.len(), 1, "exactly one copy after migrating");
        assert_eq!(at_900[0].mbr, Rect::point(Point::new(60.0, 0.0)));

        // Delete broadcasts; cardinality drops back.
        let (ack, _) = roundtrip(&router, &Request::ApplyUpdates(vec![Update::Delete(900)]));
        assert_eq!(ack, Response::Ack { generation: 6 });
        let (resp, _) = roundtrip(&router, &Request::Window(everywhere));
        assert_eq!(resp.into_objects().len(), 20);
    }

    #[test]
    fn insert_outside_every_cell_routes_to_nearest_and_grows_bounds() {
        let router = live_fleet();
        // x = 200 is outside both cells: nearest cell center wins (the
        // right shard at x = 80), whose bounds must grow to cover it.
        let (ack, _) = roundtrip(
            &router,
            &Request::ApplyUpdates(vec![Update::Insert(SpatialObject::point(901, 200.0, 0.0))]),
        );
        assert_eq!(ack, Response::Ack { generation: 2 });
        let w = Rect::from_coords(199.0, -1.0, 201.0, 1.0);
        let (resp, stamp) = roundtrip(&router, &Request::Window(w));
        assert_eq!(stamp, 2);
        assert_eq!(
            resp.into_objects().iter().map(|o| o.id).collect::<Vec<_>>(),
            vec![901],
            "grown bounds keep the straddler reachable"
        );
    }

    /// An insert whose edge is no `f32`: the shard stores the rounded
    /// MBR (0.1 rounds up, to 0.100000001…), so the owner's bounds must
    /// grow to that, or a window starting at the rounded edge prunes the
    /// shard that holds the object.
    #[test]
    fn an_insert_grows_bounds_to_the_rectangle_its_shard_stores() {
        let shard = |xs: std::ops::Range<u32>, cell: Rect| {
            let objects: Vec<_> =
                (xs.map(|x| SpatialObject::point(x, -f64::from(x), 0.0))).collect();
            let bounds = Rect::union_of(objects.iter().map(|o| o.mbr));
            ShardEndpoint::with_replicas(
                Arc::new(ShardMeta::with_cell(bounds, Some(cell))),
                vec![Box::new(LiveShard::new(objects))],
            )
        };
        let router = ShardRouter::new(
            vec![
                shard(1..6, Rect::from_coords(-10.0, -10.0, 50.0, 10.0)),
                shard(100..110, Rect::from_coords(50.0, -10.0, 110.0, 10.0)),
            ],
            &NetConfig::default(),
        );
        let edge = SpatialObject::new(900, Rect::from_coords(-1.0, 0.0, 0.1, 0.0));
        let insert = Request::ApplyUpdates(vec![Update::Insert(edge)]);
        assert_eq!(
            roundtrip(&router, &insert).0,
            Response::Ack { generation: 2 }
        );
        let at_edge = Rect::from_coords(0.1, -1.0, 0.1, 1.0);
        let (resp, _) = roundtrip(&router, &Request::Window(at_edge));
        let ids: Vec<u32> = resp.into_objects().iter().map(|o| o.id).collect();
        assert_eq!(ids, [900], "the owner was asked, not pruned");
    }

    #[test]
    fn fleet_without_cells_refuses_updates() {
        let router = two_shard_router();
        let (resp, stamp) = roundtrip(&router, &Request::ApplyUpdates(Vec::new()));
        assert_eq!(resp, Response::Refused);
        assert_eq!(stamp, 0);
        assert_eq!(router.telemetry().generations(), vec![0, 0]);
    }

    #[test]
    fn frozen_fleet_replies_stay_unstamped() {
        let router = two_shard_router();
        let all = Rect::from_coords(-1.0, -1.0, 200.0, 1.0);
        let (resp, generation) = roundtrip(&router, &Request::Window(all));
        assert_eq!(resp.into_objects().len(), 20);
        assert_eq!(generation, 0, "a frozen fleet reports generation 0");
    }

    #[test]
    fn single_live_shard_is_transparent_and_notes_generations() {
        let data: Vec<SpatialObject> = (0..5)
            .map(|i| SpatialObject::point(i, i as f64, 0.0))
            .collect();
        let shard = Arc::new(LiveShard::new(data.clone()));
        let meta = Arc::new(ShardMeta::with_cell(
            Rect::union_of(data.iter().map(|o| o.mbr)),
            Some(Rect::from_coords(0.0, -10.0, 10.0, 10.0)),
        ));
        struct Shared(Arc<LiveShard>);
        impl RawExchange for Shared {
            fn exchange(&self, raw: Bytes) -> Bytes {
                self.0.exchange(raw)
            }
        }
        let router = ShardRouter::new(
            vec![ShardEndpoint::with_replicas(
                meta,
                vec![Box::new(Shared(Arc::clone(&shard)))],
            )],
            &NetConfig::default(),
        );
        let (ack, _) = roundtrip(&router, &Request::ApplyUpdates(vec![Update::Delete(0)]));
        assert_eq!(ack, Response::Ack { generation: 1 });
        assert_eq!(router.telemetry().generations(), vec![1]);
        // The sole shard's reply (stamp included) is the answer: exactly
        // what the shard itself produces.
        let w = Rect::from_coords(-1.0, -1.0, 10.0, 1.0);
        let via_router = roundtrip(&router, &Request::Window(w));
        let direct = shard.exchange(encode_request(&Request::Window(w)));
        assert_eq!(via_router, decode_response_gen_ctx(direct, None).unwrap());
        let (resp, stamp) = via_router;
        assert_eq!(stamp, 1);
        assert_eq!(resp.into_objects().len(), 4);
    }

    #[test]
    fn routed_link_tracks_the_fleet_generation() {
        let l = link(live_fleet());
        assert_eq!(l.last_generation(), 0);
        let ack = l.request(&Request::ApplyUpdates(vec![Update::Insert(
            SpatialObject::point(902, 20.0, 0.0),
        )]));
        assert_eq!(ack, Response::Ack { generation: 2 });
        assert_eq!(l.last_generation(), 2, "Ack generations are noted");
        let everywhere = Rect::from_coords(-1.0, -1.0, 200.0, 1.0);
        assert_eq!(l.request(&Request::Count(everywhere)).into_count(), 21);
        assert_eq!(l.last_generation(), 2, "stamps agree with the Ack");
        let fleet = l.fleet().unwrap().snapshot();
        assert_eq!(fleet.generations, vec![1, 1]);
        assert_eq!(fleet.summed(), l.meter().snapshot());
    }

    use crate::packet::RetryPolicy;
    use std::collections::HashMap;

    /// Fabricates `fails` unavailable replies before forwarding — a
    /// transiently-dead endpoint.
    struct FlakyExchange {
        fails: AtomicU64,
        inner: Box<dyn RawExchange>,
    }

    impl RawExchange for FlakyExchange {
        fn exchange(&self, raw: Bytes) -> Bytes {
            if self.fails.load(Ordering::SeqCst) > 0 {
                self.fails.fetch_sub(1, Ordering::SeqCst);
                return crate::codec::unavailable_frame();
            }
            self.inner.exchange(raw)
        }
    }

    /// Delivers to the inner endpoint but loses the first `lose` replies
    /// on the way back — the duplicated-delivery hazard: the server has
    /// already applied when the client decides to retry.
    struct LoseReplies {
        lose: AtomicU64,
        inner: Box<dyn RawExchange>,
    }

    impl RawExchange for LoseReplies {
        fn exchange(&self, raw: Bytes) -> Bytes {
            let reply = self.inner.exchange(raw);
            if self.lose.load(Ordering::SeqCst) > 0 {
                self.lose.fetch_sub(1, Ordering::SeqCst);
                return crate::codec::unavailable_frame();
            }
            reply
        }
    }

    /// A [`LiveShard`] behind the at-most-once dedup discipline of a real
    /// `SpatialService`: enveloped updates replay their recorded Ack
    /// instead of re-applying.
    struct DedupShard {
        inner: LiveShard,
        seen: Mutex<HashMap<u64, (u64, u64)>>,
    }

    impl DedupShard {
        fn new(objects: Vec<SpatialObject>) -> Self {
            DedupShard {
                inner: LiveShard::new(objects),
                seen: Mutex::new(HashMap::new()),
            }
        }
    }

    impl RawExchange for DedupShard {
        fn exchange(&self, raw: Bytes) -> Bytes {
            match crate::codec::peel_dedup(&raw) {
                Some((tag, body)) => {
                    let mut seen = self.seen.lock().unwrap();
                    if let Some(&(seq, generation)) = seen.get(&tag.nonce) {
                        if tag.seq == seq {
                            return encode_response(&Response::Ack { generation });
                        }
                    }
                    let reply = self.inner.exchange(body);
                    if let Ok((Response::Ack { generation }, _)) =
                        decode_response_gen_ctx(reply.clone(), None)
                    {
                        seen.insert(tag.nonce, (tag.seq, generation));
                    }
                    reply
                }
                None => self.inner.exchange(raw),
            }
        }
    }

    fn live_shard_endpoint(
        objects: Vec<SpatialObject>,
        cell: Rect,
        carrier: Box<dyn RawExchange>,
    ) -> ShardEndpoint {
        let bounds = Rect::union_of(objects.iter().map(|o| o.mbr));
        let meta = Arc::new(ShardMeta::with_cell(bounds, Some(cell)));
        ShardEndpoint::with_replicas(meta, vec![carrier])
    }

    #[test]
    fn scatter_retry_keeps_healthy_replies_and_meters_per_shard() {
        let left: Vec<SpatialObject> = (0..10)
            .map(|i| SpatialObject::point(i, i as f64, 0.0))
            .collect();
        let right: Vec<SpatialObject> = (0..10)
            .map(|i| SpatialObject::point(100 + i, 100.0 + i as f64, 0.0))
            .collect();
        let flaky_left = Box::new(FlakyExchange {
            fails: AtomicU64::new(2),
            inner: Box::new(InProcExchange::new(Arc::new(Scan(left.clone())))),
        });
        let router = ShardRouter::new(
            vec![
                ShardEndpoint::new(Rect::union_of(left.iter().map(|o| o.mbr)), flaky_left),
                endpoint(right),
            ],
            &NetConfig::default().with_retry(RetryPolicy::attempts(3)),
        );
        let all = Rect::from_coords(-1.0, -1.0, 200.0, 1.0);
        let (resp, _) = roundtrip(&router, &Request::Count(all));
        assert_eq!(
            resp,
            Response::Count(20),
            "healthy reply kept, flaky slot recovered"
        );
        let fleet = router.telemetry().snapshot();
        assert_eq!(
            fleet.per_shard[0].retried, 2,
            "only the failed slot re-sent"
        );
        assert_eq!(fleet.per_shard[1].retried, 0);
        assert_eq!(fleet.summed().retried, 2);
        assert_eq!(fleet.summed().abandoned, 0);
        assert!(fleet.failed_shards.is_empty());
        // The healthy shard crossed the wire exactly once; the flaky
        // slot's dropped attempts were never metered.
        assert_eq!(fleet.per_shard[0].count_queries, 1);
        assert_eq!(fleet.per_shard[1].count_queries, 1);
        assert_eq!(
            fleet.per_shard[0].total_bytes(),
            fleet.per_shard[1].total_bytes(),
            "a recovered slot costs the same as a clean one"
        );
    }

    #[test]
    fn exhausted_shard_surfaces_unavailable_and_is_recorded() {
        let left: Vec<SpatialObject> = (0..10)
            .map(|i| SpatialObject::point(i, i as f64, 0.0))
            .collect();
        let right: Vec<SpatialObject> = (0..10)
            .map(|i| SpatialObject::point(100 + i, 100.0 + i as f64, 0.0))
            .collect();
        let dead_left = Box::new(FlakyExchange {
            fails: AtomicU64::new(u64::MAX),
            inner: Box::new(InProcExchange::new(Arc::new(Scan(left.clone())))),
        });
        let router = ShardRouter::new(
            vec![
                ShardEndpoint::new(Rect::union_of(left.iter().map(|o| o.mbr)), dead_left),
                endpoint(right),
            ],
            &NetConfig::default().with_retry(RetryPolicy::attempts(2)),
        );
        let all = Rect::from_coords(-1.0, -1.0, 200.0, 1.0);
        let (resp, _) = roundtrip(&router, &Request::Count(all));
        assert_eq!(
            resp,
            Response::Unavailable,
            "exhaustion is typed, not panicked"
        );
        let fleet = router.telemetry().snapshot();
        assert_eq!(fleet.failed_shards, vec![0]);
        assert_eq!(fleet.per_shard[0].retried, 1);
        assert_eq!(fleet.per_shard[0].abandoned, 1);
        assert_eq!(fleet.per_shard[0].total_bytes(), 0, "nothing ever crossed");
        assert_eq!(
            fleet.per_shard[1].count_queries, 1,
            "healthy shard still served"
        );
        assert_eq!(fleet.generations, vec![0, 0], "generations never regress");
        assert_eq!(fleet.summed(), router.aggregate_meter().snapshot());
    }

    #[test]
    fn update_retries_replay_the_envelope_and_never_double_bump() {
        let left: Vec<SpatialObject> = (0..10)
            .map(|i| SpatialObject::point(i, i as f64, 0.0))
            .collect();
        let right: Vec<SpatialObject> = (0..10)
            .map(|i| SpatialObject::point(100 + i, 100.0 + i as f64, 0.0))
            .collect();
        // The left shard applies the batch, then its Ack is lost in
        // flight; the retried duplicate must replay, not re-apply.
        let lossy_left = Box::new(LoseReplies {
            lose: AtomicU64::new(1),
            inner: Box::new(DedupShard::new(left.clone())),
        });
        let router = ShardRouter::new(
            vec![
                live_shard_endpoint(left, Rect::from_coords(0.0, -10.0, 50.0, 10.0), lossy_left),
                live_shard_endpoint(
                    right.clone(),
                    Rect::from_coords(50.0, -10.0, 110.0, 10.0),
                    Box::new(DedupShard::new(right)),
                ),
            ],
            &NetConfig::default().with_retry(RetryPolicy::attempts(3)),
        );
        let (ack, _) = roundtrip(
            &router,
            &Request::ApplyUpdates(vec![Update::Insert(SpatialObject::point(900, 10.0, 0.0))]),
        );
        // Every shard is contacted per fleet batch (the non-owner gets
        // the disjointness Delete), so each bumps once: 1 + 1. A double
        // apply on the lossy left would have summed to 3.
        assert_eq!(
            ack,
            Response::Ack { generation: 2 },
            "duplicated delivery bumps the owner exactly once"
        );
        assert_eq!(router.telemetry().generations(), vec![1, 1]);
        let fleet = router.telemetry().snapshot();
        assert_eq!(fleet.per_shard[0].retried, 1);
        assert_eq!(fleet.summed().abandoned, 0);
        // The object landed exactly once.
        let (resp, stamp) = roundtrip(
            &router,
            &Request::Window(Rect::from_coords(-1.0, -1.0, 200.0, 1.0)),
        );
        assert_eq!(stamp, 2);
        let ids: Vec<u32> = resp.into_objects().iter().map(|o| o.id).collect();
        assert_eq!(ids.iter().filter(|&&id| id == 900).count(), 1);
        assert_eq!(ids.len(), 21);
    }

    #[test]
    fn single_shard_pass_through_retries_and_dedups() {
        let data: Vec<SpatialObject> = (0..5)
            .map(|i| SpatialObject::point(i, i as f64, 0.0))
            .collect();
        let lossy = Box::new(LoseReplies {
            lose: AtomicU64::new(1),
            inner: Box::new(DedupShard::new(data.clone())),
        });
        let router = ShardRouter::new(
            vec![live_shard_endpoint(
                data,
                Rect::from_coords(0.0, -10.0, 10.0, 10.0),
                lossy,
            )],
            &NetConfig::default().with_retry(RetryPolicy::attempts(3)),
        );
        let (ack, _) = roundtrip(&router, &Request::ApplyUpdates(vec![Update::Delete(0)]));
        assert_eq!(
            ack,
            Response::Ack { generation: 1 },
            "replayed, not re-applied"
        );
        assert_eq!(router.telemetry().generations(), vec![1]);
        let fleet = router.telemetry().snapshot();
        assert_eq!(fleet.per_shard[0].retried, 1);
        assert_eq!(fleet.summed().abandoned, 0);
        // Queries retry through the same path.
        let w = Rect::from_coords(-1.0, -1.0, 10.0, 1.0);
        let (resp, stamp) = roundtrip(&router, &Request::Window(w));
        assert_eq!(stamp, 1);
        assert_eq!(resp.into_objects().len(), 4);
    }

    #[test]
    fn exhausted_pass_through_surfaces_unavailable() {
        let data: Vec<SpatialObject> = (0..5)
            .map(|i| SpatialObject::point(i, i as f64, 0.0))
            .collect();
        let dead = Box::new(FlakyExchange {
            fails: AtomicU64::new(u64::MAX),
            inner: Box::new(InProcExchange::new(Arc::new(Scan(data.clone())))),
        });
        let router = ShardRouter::new(
            vec![ShardEndpoint::new(
                Rect::union_of(data.iter().map(|o| o.mbr)),
                dead,
            )],
            &NetConfig::default().with_retry(RetryPolicy::attempts(2)),
        );
        let w = Rect::from_coords(0.0, -1.0, 4.0, 1.0);
        assert_eq!(
            roundtrip(&router, &Request::Count(w)),
            (Response::Unavailable, 0)
        );
        let fleet = router.telemetry().snapshot();
        assert_eq!(fleet.failed_shards, vec![0]);
        assert_eq!(fleet.per_shard[0].abandoned, 1);
        assert_eq!(fleet.per_shard[0].total_bytes(), 0);
    }

    #[test]
    fn sole_edge_fleet_ticks_health_and_trips_its_breaker() {
        let data = ten_points();
        let dropping = Box::new(FlakyExchange {
            fails: AtomicU64::new(3),
            inner: scan_carrier(&data),
        });
        let router = ShardRouter::new(
            vec![replicated(&data, vec![dropping])],
            &NetConfig::default().with_breakers(BreakerConfig::new(3, 1_000)),
        );
        let w = Rect::from_coords(0.0, -1.0, 4.0, 1.0);
        for _ in 0..2 {
            assert_eq!(
                roundtrip(&router, &Request::Count(w)).0,
                Response::Unavailable
            );
        }
        let fleet = router.telemetry().snapshot();
        assert_eq!(fleet.health[0][0].consecutive_failures, 2);
        assert_eq!(
            fleet.per_replica[0][0].breaker_open, 0,
            "below the threshold"
        );
        roundtrip(&router, &Request::Count(w));
        let fleet = router.telemetry().snapshot();
        assert_eq!(
            fleet.per_replica[0][0].breaker_open, 1,
            "tripped at the threshold"
        );
        assert_eq!(fleet.health[0][0].state, BreakerState::Open);
        assert_eq!(router.aggregate_meter().snapshot().breaker_open, 1);
        assert_eq!(fleet.per_shard[0].breaker_open, 1);
        // An open breaker on the only edge is still the last resort: the
        // recovered shard serves, and the success closes it again.
        assert_eq!(roundtrip(&router, &Request::Count(w)).0, Response::Count(5));
        let fleet = router.telemetry().snapshot();
        assert_eq!(fleet.health[0][0].state, BreakerState::Closed);
        assert_eq!(fleet.summed(), router.aggregate_meter().snapshot());
    }

    /// Answers every request with an (empty) object list — well-formed,
    /// but the wrong kind for anything that is not a window.
    struct Liar;

    impl RawExchange for Liar {
        fn exchange(&self, _: Bytes) -> Bytes {
            encode_response(&Response::Objects(Vec::new()))
        }
    }

    #[test]
    fn wrong_kind_reply_is_malformed_failed_over_and_never_panics() {
        let left = ten_points();
        let right: Vec<SpatialObject> = (0..10)
            .map(|i| SpatialObject::point(100 + i, 100.0 + i as f64, 0.0))
            .collect();
        let all = Rect::from_coords(-1.0, -1.0, 200.0, 1.0);
        // One lying replica: its sibling serves the count.
        let router = ShardRouter::new(
            vec![
                replicated(&left, vec![Box::new(Liar), scan_carrier(&left)]),
                replicated(&right, vec![scan_carrier(&right), scan_carrier(&right)]),
            ],
            &NetConfig::default(),
        );
        let req = request_picking(0, 2, Request::Count);
        assert_eq!(roundtrip(&router, &req).0, Response::Count(20));
        let fleet = router.telemetry().snapshot();
        assert_eq!(fleet.per_replica[0][0].failovers, 1);
        assert_eq!(
            fleet.per_replica[0][0].count_queries, 1,
            "the lie crossed the wire and is charged"
        );
        assert_eq!(fleet.health[0][0].consecutive_failures, 1);
        // Every replica lying: typed, not panicked.
        let router = ShardRouter::new(
            vec![
                replicated(&left, vec![Box::new(Liar), Box::new(Liar)]),
                replicated(&right, vec![Box::new(Liar), Box::new(Liar)]),
            ],
            &NetConfig::default(),
        );
        assert_eq!(
            roundtrip(&router, &Request::Count(all)).0,
            Response::Malformed
        );
        assert_eq!(router.telemetry().snapshot().failed_shards, vec![0, 1]);
    }

    // ---- replica sets: spread, failover, breakers, the generation floor ----

    use crate::health::BreakerState;
    use proptest::prelude::*;

    /// The canonical ten-point dataset (ids 0..10 at x ≈ 0..9).
    fn ten_points() -> Vec<SpatialObject> {
        (0..10)
            .map(|i| SpatialObject::point(i, i as f64, 0.0))
            .collect()
    }

    fn scan_carrier(objects: &[SpatialObject]) -> Box<dyn RawExchange> {
        Box::new(InProcExchange::new(Arc::new(Scan(objects.to_vec()))))
    }

    /// One shard whose replica set is `carriers`, bounds from `objects`.
    fn replicated(objects: &[SpatialObject], carriers: Vec<Box<dyn RawExchange>>) -> ShardEndpoint {
        let bounds = Rect::union_of(objects.iter().map(|o| o.mbr));
        ShardEndpoint::with_replicas(Arc::new(ShardMeta::new(bounds)), carriers)
    }

    /// Searches integer-nudged all-covering windows for one whose encoded
    /// request the router's spread hash starts at replica `want` of `n` —
    /// making the pick order of the tests below deterministic.
    fn request_picking(want: usize, n: usize, mk: impl Fn(Rect) -> Request) -> Request {
        (0..64)
            .map(|k| mk(Rect::from_coords(-1.0 - k as f64, -1.0, 200.0, 1.0)))
            .find(|req| spread_hash(&encode_request(req)) % n as u64 == want as u64)
            .expect("one of 64 candidate windows hashes to the wanted replica")
    }

    #[test]
    fn reads_spread_across_siblings_by_request_hash() {
        let data = ten_points();
        let router = ShardRouter::new(
            vec![replicated(
                &data,
                vec![scan_carrier(&data), scan_carrier(&data)],
            )],
            &NetConfig::default(),
        );
        for want in 0..2 {
            let req = request_picking(want, 2, Request::Count);
            let (resp, _) = roundtrip(&router, &req);
            assert_eq!(resp, Response::Count(10));
        }
        let fleet = router.telemetry().snapshot();
        assert_eq!(
            fleet.per_replica[0][0].count_queries, 1,
            "each sibling took one of the two reads"
        );
        assert_eq!(fleet.per_replica[0][1].count_queries, 1);
        assert_eq!(fleet.summed().failovers, 0);
        assert_eq!(
            fleet.per_shard[0],
            fleet.per_replica[0][0].plus(&fleet.per_replica[0][1]),
            "the shard meter is the field-wise sum of its replica edges"
        );
        assert_eq!(fleet.summed(), router.aggregate_meter().snapshot());
    }

    #[test]
    fn failed_read_fails_over_to_a_sibling_without_retry_budget() {
        let data = ten_points();
        let dead = Box::new(FlakyExchange {
            fails: AtomicU64::new(u64::MAX),
            inner: scan_carrier(&data),
        });
        // No retry policy at all: the failover to the sibling is what
        // recovers the read.
        let router = ShardRouter::new(
            vec![replicated(&data, vec![dead, scan_carrier(&data)])],
            &NetConfig::default(),
        );
        let req = request_picking(0, 2, Request::Count);
        let (resp, _) = roundtrip(&router, &req);
        assert_eq!(resp, Response::Count(10), "the sibling served the read");
        let fleet = router.telemetry().snapshot();
        assert_eq!(
            fleet.per_replica[0][0].failovers, 1,
            "tallied on the edge failed *from*"
        );
        assert_eq!(
            fleet.per_replica[0][0].total_bytes(),
            0,
            "the dead edge never crossed the wire"
        );
        assert_eq!(fleet.per_replica[0][1].count_queries, 1);
        assert_eq!(fleet.summed().retried, 0, "no retry budget was consumed");
        assert_eq!(fleet.summed().abandoned, 0);
        assert!(fleet.failed_shards.is_empty(), "the shard served");
        assert_eq!(
            fleet.health[0][0].consecutive_failures, 1,
            "health counts failures even with breakers off"
        );
        assert_eq!(
            fleet.per_shard[0],
            fleet.per_replica[0][0].plus(&fleet.per_replica[0][1])
        );
        assert_eq!(fleet.summed(), router.aggregate_meter().snapshot());
    }

    #[test]
    fn open_breaker_routes_reads_around_a_dead_sibling() {
        let data = ten_points();
        let dead = Box::new(FlakyExchange {
            fails: AtomicU64::new(u64::MAX),
            inner: scan_carrier(&data),
        });
        let router = ShardRouter::new(
            vec![replicated(&data, vec![dead, scan_carrier(&data)])],
            &NetConfig::default().with_breakers(BreakerConfig::new(1, 1_000)),
        );
        // First read picks the dead replica, fails, trips the breaker.
        let req = request_picking(0, 2, Request::Count);
        let (resp, _) = roundtrip(&router, &req);
        assert_eq!(resp, Response::Count(10));
        let fleet = router.telemetry().snapshot();
        assert_eq!(fleet.per_replica[0][0].breaker_open, 1);
        assert_eq!(fleet.per_replica[0][0].failovers, 1);
        assert_eq!(fleet.health[0][0].state, BreakerState::Open);
        // Subsequent reads — even ones whose hash prefers the dead
        // replica — route straight to the healthy sibling: no more
        // failovers, no more trips, nothing offered to the open edge.
        for _ in 0..5 {
            let (resp, _) = roundtrip(&router, &req);
            assert_eq!(resp, Response::Count(10));
        }
        let fleet = router.telemetry().snapshot();
        assert_eq!(
            fleet.summed().failovers,
            1,
            "only the trip-read failed over"
        );
        assert_eq!(fleet.summed().breaker_open, 1);
        assert_eq!(fleet.per_replica[0][1].count_queries, 6);
        assert_eq!(fleet.health[0][0].state, BreakerState::Open);
    }

    #[test]
    fn half_open_probe_reclaims_a_recovered_sibling() {
        let data = ten_points();
        let flaky = Box::new(FlakyExchange {
            fails: AtomicU64::new(1),
            inner: scan_carrier(&data),
        });
        let router = ShardRouter::new(
            vec![replicated(&data, vec![flaky, scan_carrier(&data)])],
            &NetConfig::default().with_breakers(BreakerConfig::new(1, 2)),
        );
        let req = request_picking(0, 2, Request::Count);
        // Read 1: replica 0 fails once (trip at clock 1), sibling serves
        // (clock 2).
        roundtrip(&router, &req);
        assert_eq!(
            router.telemetry().snapshot().health[0][0].state,
            BreakerState::Open
        );
        // Read 2 at clock 3: cooldown (2 ticks) not yet elapsed — the
        // open edge is skipped even though the hash prefers it.
        roundtrip(&router, &req);
        // Read 3: the breaker is HalfOpen, the probe goes back to the
        // recovered replica and succeeds — the breaker closes.
        let (resp, _) = roundtrip(&router, &req);
        assert_eq!(resp, Response::Count(10));
        let fleet = router.telemetry().snapshot();
        assert_eq!(fleet.health[0][0].state, BreakerState::Closed);
        assert_eq!(fleet.health[0][0].consecutive_failures, 0);
        assert_eq!(fleet.per_replica[0][0].breaker_open, 1);
        assert_eq!(
            fleet.per_replica[0][0].count_queries, 1,
            "the successful probe is the only metered exchange on the edge"
        );
        assert_eq!(fleet.per_replica[0][1].count_queries, 2);
        assert_eq!(fleet.summed().failovers, 1);
        assert_eq!(fleet.summed().breaker_open, 1);
    }

    /// A lagging/fresh replica pair behind one shard: the stale replica
    /// serves generation 1 *without* object 900, the fresh one serves
    /// generation 2 *with* it, and the shard's meta already observed
    /// generation 2 (the floor). Returns the router and the fresh view.
    fn floored_pair() -> (ShardRouter, Vec<SpatialObject>) {
        let data = ten_points();
        let stale = LiveShard::new(data.clone());
        stale.exchange(encode_request(&Request::ApplyUpdates(Vec::new())));
        let fresh = LiveShard::new(data.clone());
        fresh.exchange(encode_request(&Request::ApplyUpdates(vec![
            Update::Insert(SpatialObject::point(900, 5.5, 0.0)),
        ])));
        fresh.exchange(encode_request(&Request::ApplyUpdates(Vec::new())));
        let mut view = data.clone();
        view.push(SpatialObject::point(900, 5.5, 0.0));
        let meta = Arc::new(ShardMeta::with_cell(
            Rect::union_of(data.iter().map(|o| o.mbr)),
            Some(Rect::from_coords(0.0, -10.0, 10.0, 10.0)),
        ));
        meta.note_generation(2);
        let router = ShardRouter::new(
            vec![ShardEndpoint::with_replicas(
                meta,
                vec![Box::new(stale) as Box<dyn RawExchange>, Box::new(fresh)],
            )],
            &NetConfig::default(),
        );
        (router, view)
    }

    #[test]
    fn lagging_replica_reply_is_refetched_from_its_sibling() {
        let (router, view) = floored_pair();
        let req = request_picking(0, 2, Request::Window);
        let (resp, stamp) = roundtrip(&router, &req);
        assert_eq!(stamp, 2);
        let ids: Vec<u32> = resp.into_objects().iter().map(|o| o.id).collect();
        assert_eq!(ids.len(), view.len());
        assert!(ids.contains(&900), "the floored read served the fresh view");
        let fleet = router.telemetry().snapshot();
        assert_eq!(
            fleet.per_replica[0][0].window_queries, 1,
            "the rejected stale reply still crossed the wire — metered"
        );
        assert_eq!(fleet.per_replica[0][0].objects_received, 10);
        assert_eq!(fleet.per_replica[0][0].failovers, 1);
        assert_eq!(fleet.health[0][0].consecutive_failures, 1);
        assert_eq!(fleet.generations, vec![2], "the floor never regressed");
        // A read whose hash picks the fresh replica first never touches
        // the lagging one.
        let (resp, _) = roundtrip(&router, &request_picking(1, 2, Request::Window));
        assert_eq!(resp.into_objects().len(), view.len());
        assert_eq!(router.telemetry().snapshot().summed().failovers, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Satellite (c): whatever the window and whichever replica the
        // hash picks first, a floored read never serves the lagging
        // view — the answer is always exactly the fresh replica's.
        #[test]
        fn failover_never_serves_below_the_generation_floor(
            coords in (-40i32..=88, -40i32..=88, -40i32..=88, -40i32..=88)
        ) {
            let (x0, y0, x1, y1) = coords;
            let w = Rect::new(
                Point::new(x0 as f64 * 0.25, y0 as f64 * 0.25),
                Point::new(x1 as f64 * 0.25, y1 as f64 * 0.25),
            );
            let (router, view) = floored_pair();
            let bounds = Rect::union_of(view[..10].iter().map(|o| o.mbr)).unwrap();
            let (resp, stamp) = roundtrip(&router, &Request::Window(w));
            prop_assert_eq!(stamp, 2, "merged replies carry the floored fleet generation");
            let got: Vec<u32> = resp.into_objects().iter().map(|o| o.id).collect();
            let expected: Vec<u32> = if w.intersects(&bounds) {
                view.iter().filter(|o| o.mbr.intersects(&w)).map(|o| o.id).collect()
            } else {
                Vec::new() // pruned by shard bounds before any replica is asked
            };
            prop_assert_eq!(got, expected);
            prop_assert_eq!(router.telemetry().generations(), vec![2]);
        }
    }

    /// Hands every frame to the shard server behind it, keeping a copy.
    struct Recording {
        frames: Arc<Mutex<Vec<Bytes>>>,
        inner: Box<dyn RawExchange>,
    }

    impl RawExchange for Recording {
        fn exchange(&self, raw: Bytes) -> Bytes {
            self.frames.lock().unwrap().push(raw.clone());
            self.inner.exchange(raw)
        }
    }

    /// A rectangle on a quarter-unit grid (exact in `f32`, so its wire
    /// form is itself), degenerate whenever a side draws 0.
    fn grid_rect() -> impl Strategy<Value = Rect> {
        (-40i32..=40, -40i32..=40, 0i32..=16, 0i32..=16).prop_map(|(x, y, w, h)| {
            let (x, y) = (x as f64 * 0.25, y as f64 * 0.25);
            Rect::from_coords(x, y, x + w as f64 * 0.25, y + h as f64 * 0.25)
        })
    }

    /// The ε values a single-probe read is drawn with: negative, both
    /// zeros, NaN and a positive one, each exact in `f32`.
    const READ_EPS: [f64; 5] = [-3.0, -0.0, 0.0, f64::NAN, 2.5];

    /// A fleet of `drawn` shards (objects, replica count), every replica
    /// recording the frames it is sent.
    type Recorded = Vec<Vec<Arc<Mutex<Vec<Bytes>>>>>;

    fn recorded_fleet(drawn: &[(Vec<SpatialObject>, usize)]) -> (ShardRouter, Recorded) {
        let mut frames = Vec::new();
        let shards = drawn
            .iter()
            .map(|(objects, replicas)| {
                let logs: Vec<_> = (0..*replicas).map(|_| Arc::default()).collect();
                let carriers = logs.iter().map(|log| {
                    let inner = scan_carrier(objects);
                    Box::new(Recording {
                        frames: Arc::clone(log),
                        inner,
                    }) as Box<dyn RawExchange>
                });
                let endpoint = replicated(objects, carriers.collect());
                frames.push(logs);
                endpoint
            })
            .collect();
        (ShardRouter::new(shards, &NetConfig::default()), frames)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // A single-probe read reaches exactly the shards its reach meets:
        // on fleets of 1–16 shards, some empty, some replicated, a WINDOW,
        // COUNT or ε-RANGE (degenerate rectangles; negative, zero and NaN
        // ε) is sent, as its own frame, to exactly the shards whose bounds
        // meet its reach — on the replica its frame's hash picks — and
        // nowhere else. Each replica's meter reads what a flat link to
        // that shard reads after the same request, or nothing; the prune
        // and scatter tallies are the shards missed and reached.
        #[test]
        fn a_single_probe_read_reaches_the_shards_its_reach_meets(
            drawn in prop::collection::vec(
                (prop::collection::vec(grid_rect(), 0..4), 1usize..=3),
                1..17,
            ),
            kind in 0usize..3,
            at in grid_rect(),
            e in 0usize..READ_EPS.len(),
        ) {
            let req = match kind {
                0 => Request::Window(at),
                1 => Request::Count(at),
                _ => Request::EpsRange { q: at, eps: READ_EPS[e] },
            };
            let drawn: Vec<(Vec<SpatialObject>, usize)> = drawn
                .into_iter()
                .enumerate()
                .map(|(s, (mbrs, replicas))| {
                    let ids = (0..).map(|k| (s * 4 + k) as u32);
                    let objects = ids.zip(mbrs).map(|(id, mbr)| SpatialObject::new(id, mbr));
                    (objects.collect(), replicas)
                })
                .collect();
            let (router, frames) = recorded_fleet(&drawn);
            let sole = drawn.len() == 1 && drawn[0].1 == 1;
            let reach = req.reach(0);
            let reached: Vec<bool> = drawn
                .iter()
                .map(|(objects, _)| {
                    let bounds = Rect::union_of(objects.iter().map(|o| o.mbr));
                    sole || bounds.is_some_and(|b| b.intersects(&reach))
                })
                .collect();
            router.call(&req);
            let own = encode_request(&req);
            let fleet = router.telemetry().snapshot();
            for (s, (objects, replicas)) in drawn.iter().enumerate() {
                let flat = Link::new(scan_carrier(objects), &NetConfig::default(), 1.0);
                flat.request(&req);
                let picked = (spread_hash(&own) % *replicas as u64) as usize;
                for (j, log) in frames[s].iter().enumerate() {
                    let got = log.lock().unwrap().clone();
                    let hit = reached[s] && j == picked;
                    prop_assert_eq!(got, if hit { vec![own.clone()] } else { vec![] });
                    let want = if hit { flat.meter().snapshot() } else { LinkSnapshot::default() };
                    prop_assert_eq!(&fleet.per_replica[s][j], &want, "shard {} replica {}", s, j);
                }
            }
            let hits = reached.iter().filter(|&&r| r).count() as u64;
            let misses = if sole { 0 } else { drawn.len() as u64 - hits };
            prop_assert_eq!((fleet.scattered, fleet.pruned), (hits, misses));
        }
    }

    #[test]
    fn updates_broadcast_to_every_replica_and_ack_the_max() {
        let data = ten_points();
        let cell = Rect::from_coords(0.0, -10.0, 10.0, 10.0);
        let bounds = Rect::union_of(data.iter().map(|o| o.mbr));
        // Replica 1 applies the batch but loses its Ack — the pinned
        // in-place retry must replay the dedup envelope, not re-apply.
        let lossy = Box::new(LoseReplies {
            lose: AtomicU64::new(1),
            inner: Box::new(DedupShard::new(data.clone())),
        });
        let router = ShardRouter::new(
            vec![ShardEndpoint::with_replicas(
                Arc::new(ShardMeta::with_cell(bounds, Some(cell))),
                vec![
                    Box::new(DedupShard::new(data.clone())) as Box<dyn RawExchange>,
                    lossy,
                ],
            )],
            &NetConfig::default().with_retry(RetryPolicy::attempts(3)),
        );
        let (ack, stamp) = roundtrip(
            &router,
            &Request::ApplyUpdates(vec![Update::Insert(SpatialObject::point(900, 5.5, 0.0))]),
        );
        assert_eq!(stamp, 1);
        assert_eq!(
            ack,
            Response::Ack { generation: 1 },
            "the shard ack is the max over replica acks, not their sum"
        );
        assert_eq!(router.telemetry().generations(), vec![1]);
        let fleet = router.telemetry().snapshot();
        assert_eq!(
            fleet.per_replica[0][1].retried, 1,
            "lost Ack replayed in place"
        );
        assert_eq!(fleet.per_replica[0][0].retried, 0);
        assert_eq!(fleet.summed().failovers, 0, "updates never fail over");
        assert_eq!(
            fleet.per_shard[0],
            fleet.per_replica[0][0].plus(&fleet.per_replica[0][1])
        );
        // Read-your-write holds on *either* replica: force both pick
        // orders and find the insert each time, stamped at the floor.
        for want in 0..2 {
            let (resp, stamp) = roundtrip(&router, &request_picking(want, 2, Request::Window));
            assert_eq!(stamp, 1);
            let objs = resp.into_objects();
            assert_eq!(objs.iter().filter(|o| o.id == 900).count(), 1);
            assert_eq!(objs.len(), 11);
        }
    }

    #[test]
    fn update_tolerates_a_dark_replica_when_a_sibling_acks() {
        let data = ten_points();
        let cell = Rect::from_coords(0.0, -10.0, 10.0, 10.0);
        let bounds = Rect::union_of(data.iter().map(|o| o.mbr));
        let dark = Box::new(FlakyExchange {
            fails: AtomicU64::new(u64::MAX),
            inner: Box::new(DedupShard::new(data.clone())),
        });
        let router = ShardRouter::new(
            vec![ShardEndpoint::with_replicas(
                Arc::new(ShardMeta::with_cell(bounds, Some(cell))),
                vec![
                    Box::new(DedupShard::new(data.clone())) as Box<dyn RawExchange>,
                    dark,
                ],
            )],
            // Partial tolerance must never leak into the update path.
            &NetConfig::default()
                .with_retry(RetryPolicy::attempts(2))
                .with_allow_partial(true),
        );
        let (ack, _) = roundtrip(
            &router,
            &Request::ApplyUpdates(vec![Update::Insert(SpatialObject::point(900, 5.5, 0.0))]),
        );
        assert_eq!(
            ack,
            Response::Ack { generation: 1 },
            "one surviving replica carries the batch"
        );
        let fleet = router.telemetry().snapshot();
        assert_eq!(fleet.per_replica[0][1].retried, 1);
        assert_eq!(fleet.per_replica[0][1].abandoned, 1);
        assert_eq!(fleet.per_replica[0][1].total_bytes(), 0);
        assert!(
            fleet.failed_shards.is_empty(),
            "a dark replica out-acked by its sibling does not fail the shard"
        );
        assert_eq!(fleet.coverage(), 1.0);
        assert_eq!(router.telemetry().generations(), vec![1]);
    }

    #[test]
    fn allow_partial_drops_exhausted_shards_from_the_merge() {
        let left = ten_points();
        let right: Vec<SpatialObject> = (0..10)
            .map(|i| SpatialObject::point(100 + i, 100.0 + i as f64, 0.0))
            .collect();
        let dead_left = Box::new(FlakyExchange {
            fails: AtomicU64::new(u64::MAX),
            inner: scan_carrier(&left),
        });
        let router = ShardRouter::new(
            vec![
                ShardEndpoint::new(Rect::union_of(left.iter().map(|o| o.mbr)), dead_left),
                endpoint(right),
            ],
            &NetConfig::default()
                .with_retry(RetryPolicy::attempts(2))
                .with_allow_partial(true),
        );
        let all = Rect::from_coords(-1.0, -1.0, 200.0, 1.0);
        let (resp, _) = roundtrip(&router, &Request::Count(all));
        assert_eq!(
            resp,
            Response::Count(10),
            "the merge completed over the surviving shard"
        );
        let (resp, _) = roundtrip(&router, &Request::Window(all));
        let ids: Vec<u32> = resp.into_objects().iter().map(|o| o.id).collect();
        assert_eq!(ids.len(), 10);
        assert!(
            ids.iter().all(|&id| id >= 100),
            "only the right shard answered"
        );
        let fleet = router.telemetry().snapshot();
        assert_eq!(fleet.failed_shards, vec![0], "the hole is on the record");
        assert_eq!(fleet.coverage(), 0.5);
        assert_eq!(fleet.per_shard[0].abandoned, 2);
        assert_eq!(fleet.per_shard[0].total_bytes(), 0);
    }
}
