//! Per-link byte accounting — the source of every number the experiments
//! report.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::packet::PacketModel;
use crate::proto::Request;

/// Atomic counters for one device↔server link.
///
/// All figures in the paper plot "Total bytes": the wire bytes (payload +
/// TCP/IP headers per Eq. 1) crossing both links in both directions. The
/// meter also keeps the query mix so reports can show *where* the bytes
/// went (aggregate statistics vs object downloads), which the paper
/// discusses qualitatively. Aggregate (COUNT / `MultiCount` / avg-area)
/// traffic is additionally metered in bytes on both directions, so the
/// batched-statistics experiments can report exactly how much of the
/// statistics overhead batching recovers.
#[derive(Debug, Default)]
pub struct LinkMeter {
    up_bytes: AtomicU64,
    down_bytes: AtomicU64,
    up_packets: AtomicU64,
    down_packets: AtomicU64,
    count_queries: AtomicU64,
    window_queries: AtomicU64,
    range_queries: AtomicU64,
    bucket_queries: AtomicU64,
    coop_queries: AtomicU64,
    objects_received: AtomicU64,
    aggregate_up_bytes: AtomicU64,
    aggregate_down_bytes: AtomicU64,
    retried: AtomicU64,
    abandoned: AtomicU64,
    failovers: AtomicU64,
    breaker_open: AtomicU64,
    /// Meters whose traffic this one reports on top of its own.
    parts: Vec<std::sync::Arc<LinkMeter>>,
}

/// A point-in-time copy of a [`LinkMeter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkSnapshot {
    pub up_bytes: u64,
    pub down_bytes: u64,
    pub up_packets: u64,
    pub down_packets: u64,
    /// Aggregate request *messages* (one `MultiCount` batching k windows
    /// counts once — compare against per-query mode to see the saving).
    pub count_queries: u64,
    pub window_queries: u64,
    pub range_queries: u64,
    pub bucket_queries: u64,
    pub coop_queries: u64,
    pub objects_received: u64,
    /// Wire bytes of aggregate requests (uplink direction).
    pub aggregate_up_bytes: u64,
    /// Wire bytes of aggregate answers (downlink direction).
    pub aggregate_down_bytes: u64,
    /// Exchanges re-issued under a [`crate::packet::RetryPolicy`] after a
    /// failed attempt (unavailable or undecodable reply). 0 when retries
    /// are off.
    pub retried: u64,
    /// Exchanges that exhausted their retry budget and surfaced a typed
    /// error to the caller. 0 when retries are off (a first-attempt
    /// failure with no budget is not an abandonment — nothing was ever
    /// retried).
    pub abandoned: u64,
    /// Failed exchanges re-routed to a sibling replica of the same shard
    /// *before* consuming retry budget. 0 on replica-less links.
    pub failovers: u64,
    /// Circuit-breaker trips to Open observed on this edge (a half-open
    /// probe failing counts again). 0 with breakers off.
    pub breaker_open: u64,
}

impl LinkSnapshot {
    /// Total wire bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.up_bytes + self.down_bytes
    }

    /// Total queries of any kind.
    pub fn total_queries(&self) -> u64 {
        self.count_queries
            + self.window_queries
            + self.range_queries
            + self.bucket_queries
            + self.coop_queries
    }

    /// Total wire bytes spent on aggregate (statistics) traffic — the
    /// paper's `Taq` overhead, measured rather than estimated.
    pub fn aggregate_bytes(&self) -> u64 {
        self.aggregate_up_bytes + self.aggregate_down_bytes
    }

    /// Field-wise sum with another snapshot (for fleet aggregation: the
    /// sum of per-shard snapshots must equal the router's aggregate).
    pub fn plus(&self, other: &LinkSnapshot) -> LinkSnapshot {
        LinkSnapshot {
            up_bytes: self.up_bytes + other.up_bytes,
            down_bytes: self.down_bytes + other.down_bytes,
            up_packets: self.up_packets + other.up_packets,
            down_packets: self.down_packets + other.down_packets,
            count_queries: self.count_queries + other.count_queries,
            window_queries: self.window_queries + other.window_queries,
            range_queries: self.range_queries + other.range_queries,
            bucket_queries: self.bucket_queries + other.bucket_queries,
            coop_queries: self.coop_queries + other.coop_queries,
            objects_received: self.objects_received + other.objects_received,
            aggregate_up_bytes: self.aggregate_up_bytes + other.aggregate_up_bytes,
            aggregate_down_bytes: self.aggregate_down_bytes + other.aggregate_down_bytes,
            retried: self.retried + other.retried,
            abandoned: self.abandoned + other.abandoned,
            failovers: self.failovers + other.failovers,
            breaker_open: self.breaker_open + other.breaker_open,
        }
    }

    /// Difference against an earlier snapshot (for per-phase accounting).
    pub fn since(&self, earlier: &LinkSnapshot) -> LinkSnapshot {
        LinkSnapshot {
            up_bytes: self.up_bytes - earlier.up_bytes,
            down_bytes: self.down_bytes - earlier.down_bytes,
            up_packets: self.up_packets - earlier.up_packets,
            down_packets: self.down_packets - earlier.down_packets,
            count_queries: self.count_queries - earlier.count_queries,
            window_queries: self.window_queries - earlier.window_queries,
            range_queries: self.range_queries - earlier.range_queries,
            bucket_queries: self.bucket_queries - earlier.bucket_queries,
            coop_queries: self.coop_queries - earlier.coop_queries,
            objects_received: self.objects_received - earlier.objects_received,
            aggregate_up_bytes: self.aggregate_up_bytes - earlier.aggregate_up_bytes,
            aggregate_down_bytes: self.aggregate_down_bytes - earlier.aggregate_down_bytes,
            retried: self.retried - earlier.retried,
            abandoned: self.abandoned - earlier.abandoned,
            failovers: self.failovers - earlier.failovers,
            breaker_open: self.breaker_open - earlier.breaker_open,
        }
    }
}

/// Atomic hit/miss/bytes-saved counters of one link's client-side cache
/// (see `crate::cache`). Kept separate from [`LinkMeter`] deliberately:
/// the link meter records what *crossed the wire*, and its conservation
/// laws (per-shard sums equal the aggregate) must keep holding when a
/// cache answers requests that never reach any shard.
#[derive(Debug, Default)]
pub struct CacheTelemetry {
    stats_hits: AtomicU64,
    stats_misses: AtomicU64,
    window_hits: AtomicU64,
    window_misses: AtomicU64,
    probe_hits: AtomicU64,
    probe_misses: AtomicU64,
    bytes_saved: AtomicU64,
}

impl CacheTelemetry {
    pub fn new() -> Self {
        CacheTelemetry::default()
    }

    /// Records `hits` statistics entries answered locally and `misses`
    /// shipped to the server (a `MultiCount` batch contributes per entry).
    pub fn record_stats(&self, hits: u64, misses: u64) {
        self.stats_hits.fetch_add(hits, Ordering::Relaxed);
        self.stats_misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Records one `WINDOW` lookup against the window tier.
    pub fn record_window(&self, hit: bool) {
        if hit {
            self.window_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.window_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one ε-RANGE probe lookup against the window tier. Kept
    /// apart from `WINDOW` lookups: probe traffic and window downloads
    /// are priced by different cost-model terms, so pooling the counters
    /// would let probe hits discount window prices they never touch.
    pub fn record_probe(&self, hit: bool) {
        if hit {
            self.probe_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.probe_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records wire bytes (both directions, packetized) that a local
    /// answer avoided putting on the link.
    pub fn record_saved(&self, bytes: u64) {
        self.bytes_saved.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Counter part of a [`CacheSnapshot`]; the cache's resident-size
    /// gauges are filled in by the cache itself.
    #[allow(clippy::type_complexity)]
    pub fn counters(&self) -> (u64, u64, u64, u64, u64, u64, u64) {
        (
            self.stats_hits.load(Ordering::Relaxed),
            self.stats_misses.load(Ordering::Relaxed),
            self.window_hits.load(Ordering::Relaxed),
            self.window_misses.load(Ordering::Relaxed),
            self.probe_hits.load(Ordering::Relaxed),
            self.probe_misses.load(Ordering::Relaxed),
            self.bytes_saved.load(Ordering::Relaxed),
        )
    }
}

/// A point-in-time copy of one link's cache accounting: per-link hit/miss
/// counters plus the (possibly session-shared) cache's resident gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheSnapshot {
    /// Statistics entries (COUNT / `MultiCount` windows) answered locally.
    pub stats_hits: u64,
    /// Statistics entries that had to be shipped.
    pub stats_misses: u64,
    /// `WINDOW` requests answered from a cached superset window.
    pub window_hits: u64,
    /// `WINDOW` requests that had to be shipped.
    pub window_misses: u64,
    /// ε-RANGE probes answered from a cached superset window.
    pub probe_hits: u64,
    /// ε-RANGE probes that had to be shipped.
    pub probe_misses: u64,
    /// Wire bytes (packetized, both directions) local answers avoided.
    pub bytes_saved: u64,
    /// Windows admitted into the window tier over the cache's lifetime.
    pub insertions: u64,
    /// Windows evicted by the byte-budget LRU.
    pub evictions: u64,
    /// Bytes currently resident in the window tier.
    pub resident_bytes: u64,
}

impl CacheSnapshot {
    /// Overall hit rate across every tier (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        rate(
            self.stats_hits + self.window_hits + self.probe_hits,
            self.stats_misses + self.window_misses + self.probe_misses,
        )
    }

    /// Field-wise sum (for both-links accounting in reports). Resident
    /// gauges add too: the two links front different caches.
    pub fn plus(&self, other: &CacheSnapshot) -> CacheSnapshot {
        CacheSnapshot {
            stats_hits: self.stats_hits + other.stats_hits,
            stats_misses: self.stats_misses + other.stats_misses,
            window_hits: self.window_hits + other.window_hits,
            window_misses: self.window_misses + other.window_misses,
            probe_hits: self.probe_hits + other.probe_hits,
            probe_misses: self.probe_misses + other.probe_misses,
            bytes_saved: self.bytes_saved + other.bytes_saved,
            insertions: self.insertions + other.insertions,
            evictions: self.evictions + other.evictions,
            resident_bytes: self.resident_bytes + other.resident_bytes,
        }
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

impl LinkMeter {
    pub fn new() -> Self {
        LinkMeter::default()
    }

    /// A meter that reports the sum of `parts`: a fleet's aggregate over
    /// its shards', a shard's over its replica edges'. An exchange is
    /// charged once, at its edge, and `aggregate == Σ shard == Σ Σ
    /// replica` holds by construction.
    pub fn summing(parts: Vec<std::sync::Arc<LinkMeter>>) -> Self {
        LinkMeter {
            parts,
            ..LinkMeter::default()
        }
    }

    /// Records an outgoing request of `payload` bytes.
    pub fn record_request(&self, req: &Request, payload: u64, packet: &PacketModel) {
        let wire = packet.tb(payload);
        self.up_bytes.fetch_add(wire, Ordering::Relaxed);
        self.up_packets
            .fetch_add(packet.packets(payload), Ordering::Relaxed);
        if req.is_aggregate() {
            self.aggregate_up_bytes.fetch_add(wire, Ordering::Relaxed);
        }
        let counter = match req {
            Request::Count(_) | Request::MultiCount(_) => Some(&self.count_queries),
            // A change list is an object download like a window's.
            Request::Window(_) | Request::Changes { .. } => Some(&self.window_queries),
            Request::EpsRange { .. } => Some(&self.range_queries),
            Request::BucketEpsRange { .. } => Some(&self.bucket_queries),
            Request::CoopLevelMbrs(_)
            | Request::CoopFilterByMbrs { .. }
            | Request::CoopJoinPush { .. } => Some(&self.coop_queries),
            // Updates are maintenance traffic, not a query: bytes and
            // packets are metered above, but no query-mix counter moves,
            // so join-time message accounting is undisturbed.
            Request::ApplyUpdates(_) => None,
        };
        if let Some(counter) = counter {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records an incoming response of `payload` bytes carrying
    /// `objects` spatial objects. `aggregate` marks answers to aggregate
    /// requests so statistics traffic is metered in both directions.
    pub fn record_response(
        &self,
        payload: u64,
        objects: u64,
        packet: &PacketModel,
        aggregate: bool,
    ) {
        let wire = packet.tb(payload);
        self.down_bytes.fetch_add(wire, Ordering::Relaxed);
        self.down_packets
            .fetch_add(packet.packets(payload), Ordering::Relaxed);
        if aggregate {
            self.aggregate_down_bytes.fetch_add(wire, Ordering::Relaxed);
        }
        self.objects_received.fetch_add(objects, Ordering::Relaxed);
    }

    /// Records one re-issued exchange attempt (retry `k` of a request).
    pub fn record_retry(&self) {
        self.retried.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one exchange that exhausted its retry budget.
    pub fn record_abandon(&self) {
        self.abandoned.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one failover to a sibling replica after a failed exchange.
    pub fn record_failover(&self) {
        self.failovers.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one circuit-breaker trip to Open on this edge.
    pub fn record_breaker_open(&self) {
        self.breaker_open.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the counters (plus those of the meters this one sums).
    pub fn snapshot(&self) -> LinkSnapshot {
        let own = LinkSnapshot {
            up_bytes: self.up_bytes.load(Ordering::Relaxed),
            down_bytes: self.down_bytes.load(Ordering::Relaxed),
            up_packets: self.up_packets.load(Ordering::Relaxed),
            down_packets: self.down_packets.load(Ordering::Relaxed),
            count_queries: self.count_queries.load(Ordering::Relaxed),
            window_queries: self.window_queries.load(Ordering::Relaxed),
            range_queries: self.range_queries.load(Ordering::Relaxed),
            bucket_queries: self.bucket_queries.load(Ordering::Relaxed),
            coop_queries: self.coop_queries.load(Ordering::Relaxed),
            objects_received: self.objects_received.load(Ordering::Relaxed),
            aggregate_up_bytes: self.aggregate_up_bytes.load(Ordering::Relaxed),
            aggregate_down_bytes: self.aggregate_down_bytes.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            abandoned: self.abandoned.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            breaker_open: self.breaker_open.load(Ordering::Relaxed),
        };
        let parts = self.parts.iter().map(|part| part.snapshot());
        parts.fold(own, |sum, part| sum.plus(&part))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asj_geom::Rect;

    #[test]
    fn records_and_snapshots() {
        let m = LinkMeter::new();
        let p = PacketModel::default();
        let w = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        m.record_request(&Request::Count(w), 17, &p);
        m.record_response(9, 0, &p, true);
        m.record_request(&Request::Window(w), 17, &p);
        m.record_response(5 + 3 * 20, 3, &p, false);

        let s = m.snapshot();
        assert_eq!(s.count_queries, 1);
        assert_eq!(s.window_queries, 1);
        assert_eq!(s.objects_received, 3);
        assert_eq!(s.up_bytes, p.tb(17) * 2);
        assert_eq!(s.down_bytes, p.tb(9) + p.tb(65));
        assert_eq!(s.total_queries(), 2);
        assert_eq!(s.total_bytes(), s.up_bytes + s.down_bytes);
        // Only the COUNT round trip is aggregate traffic.
        assert_eq!(s.aggregate_up_bytes, p.tb(17));
        assert_eq!(s.aggregate_down_bytes, p.tb(9));
        assert_eq!(s.aggregate_bytes(), p.tb(17) + p.tb(9));
    }

    #[test]
    fn multi_count_is_one_aggregate_message() {
        let m = LinkMeter::new();
        let p = PacketModel::default();
        let w = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        m.record_request(&Request::MultiCount(vec![w; 4]), 69, &p);
        m.record_response(37, 0, &p, true);
        let s = m.snapshot();
        assert_eq!(s.count_queries, 1, "one batched request, one message");
        assert_eq!(s.aggregate_bytes(), p.tb(69) + p.tb(37));
        assert_eq!(s.aggregate_bytes(), s.total_bytes());
    }

    #[test]
    fn since_subtracts() {
        let m = LinkMeter::new();
        let p = PacketModel::default();
        let w = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        m.record_request(&Request::Count(w), 17, &p);
        let s1 = m.snapshot();
        m.record_request(&Request::Count(w), 17, &p);
        let s2 = m.snapshot();
        let d = s2.since(&s1);
        assert_eq!(d.count_queries, 1);
        assert_eq!(d.up_bytes, p.tb(17));
        assert_eq!(d.aggregate_up_bytes, p.tb(17));
    }

    #[test]
    fn a_summing_meter_reports_its_parts_and_its_own() {
        use std::sync::Arc;
        let p = PacketModel::default();
        let leaves: Vec<_> = (0..3).map(|_| Arc::new(LinkMeter::new())).collect();
        let shard = Arc::new(LinkMeter::summing(leaves[..2].to_vec()));
        let total = LinkMeter::summing(vec![Arc::clone(&shard), Arc::clone(&leaves[2])]);
        assert_eq!(total.snapshot(), LinkSnapshot::default());
        leaves[0].record_response(100, 5, &p, true);
        leaves[1].record_retry();
        leaves[2].record_response(40, 2, &p, false);
        total.record_failover();
        let parts = leaves.iter().map(|m| m.snapshot());
        let mut want = parts.fold(LinkSnapshot::default(), |sum, s| sum.plus(&s));
        assert_eq!(
            shard.snapshot(),
            leaves[0].snapshot().plus(&leaves[1].snapshot())
        );
        want.failovers += 1;
        assert_eq!(total.snapshot(), want);
        assert_eq!((want.objects_received, want.retried), (7, 1));
    }

    #[test]
    fn retry_counters_flow_through_plus_since_reset() {
        let m = LinkMeter::new();
        m.record_retry();
        m.record_retry();
        m.record_abandon();
        m.record_failover();
        m.record_failover();
        m.record_failover();
        m.record_breaker_open();
        let s = m.snapshot();
        assert_eq!(s.retried, 2);
        assert_eq!(s.abandoned, 1);
        assert_eq!(s.failovers, 3);
        assert_eq!(s.breaker_open, 1);
        let doubled = s.plus(&s);
        assert_eq!(doubled.retried, 4);
        assert_eq!(doubled.abandoned, 2);
        assert_eq!(doubled.failovers, 6);
        assert_eq!(doubled.breaker_open, 2);
        assert_eq!(doubled.since(&s).retried, 2);
        assert_eq!(doubled.since(&s).failovers, 3);
    }

    #[test]
    fn cache_snapshot_rates_and_sum() {
        let t = CacheTelemetry::new();
        t.record_stats(3, 1);
        t.record_window(true);
        t.record_window(false);
        t.record_probe(true);
        t.record_probe(true);
        t.record_saved(100);
        let (sh, sm, wh, wm, ph, pm, saved) = t.counters();
        let a = CacheSnapshot {
            stats_hits: sh,
            stats_misses: sm,
            window_hits: wh,
            window_misses: wm,
            probe_hits: ph,
            probe_misses: pm,
            bytes_saved: saved,
            insertions: 2,
            evictions: 1,
            resident_bytes: 500,
        };
        assert_eq!(
            (a.window_hits, a.window_misses),
            (1, 1),
            "probe hits must not pollute the window tier's tally"
        );
        assert_eq!(a.hit_rate(), 6.0 / 8.0);
        assert_eq!(CacheSnapshot::default().hit_rate(), 0.0);
        let b = a.plus(&a);
        assert_eq!(b.stats_hits, 6);
        assert_eq!(b.probe_hits, 4);
        assert_eq!(b.bytes_saved, 200);
        assert_eq!(b.resident_bytes, 1000);
        assert_eq!(b.hit_rate(), a.hit_rate());
    }

    #[test]
    fn meter_is_thread_safe() {
        let m = std::sync::Arc::new(LinkMeter::new());
        let p = PacketModel::default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = m.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        m.record_response(10, 1, &p, false);
                    }
                });
            }
        });
        let s = m.snapshot();
        assert_eq!(s.objects_received, 4000);
        assert_eq!(s.down_bytes, 4000 * p.tb(10));
    }
}
