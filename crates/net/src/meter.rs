//! Per-link byte accounting — the source of every number the experiments
//! report.
//!
//! Every tally is declared once, as one line of a `telemetry!` list.
//! The list gives the public snapshot type its fields, and a crate-visible
//! atomic twin one `AtomicU64` per field, which the hot path increments.
//! It also gives the twin a `load` and the snapshot a `plus` and a
//! `since`. A new counter is one line in its list, plus the code that
//! increments it. The list says what each field is:
//!
//! * a `counter` is a running total: `plus` adds it, `since` subtracts
//!   the earlier reading;
//! * a `gauge` is a level (bytes resident now): `plus` adds it too, since
//!   two gauges in a sum front different stores, and `since` keeps the
//!   later reading.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::packet::PacketModel;
use crate::proto::Request;

/// Declares one telemetry record: the public snapshot (`Debug, Clone,
/// Copy, PartialEq, Eq, Hash, Default`, one `pub u64` per field, in list
/// order)
/// and its crate-visible atomic twin, with `load`, `plus` and `since`.
/// See the module docs for the counter/gauge rule.
macro_rules! telemetry {
    (
        $(#[$doc:meta])*
        pub struct $snapshot:ident / $twin:ident {
            $($(#[$field_doc:meta])* $kind:ident $field:ident,)*
        }
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
        pub struct $snapshot {
            $($(#[$field_doc])* pub $field: u64,)*
        }

        #[doc = concat!("The atomic twin of [`", stringify!($snapshot), "`].")]
        #[derive(Debug, Default)]
        pub(crate) struct $twin {
            $(pub(crate) $field: ::std::sync::atomic::AtomicU64,)*
        }

        impl $twin {
            /// Reads every field once. Each is an independent tally, so
            /// `Relaxed` loads suffice.
            pub(crate) fn load(&self) -> $snapshot {
                let relaxed = ::std::sync::atomic::Ordering::Relaxed;
                $snapshot { $($field: self.$field.load(relaxed),)* }
            }
        }

        impl $snapshot {
            /// Field-wise sum with another snapshot, gauges included.
            pub fn plus(&self, other: &Self) -> Self {
                $snapshot { $($field: self.$field + other.$field,)* }
            }

            /// The change since an `earlier` snapshot of the same source:
            /// counters subtract, gauges keep this (the later) reading.
            pub fn since(&self, earlier: &Self) -> Self {
                $snapshot {
                    $($field: $crate::meter::telemetry!(@since $kind self.$field, earlier.$field),)*
                }
            }
        }
    };
    (@since counter $later:expr, $earlier:expr) => { $later - $earlier };
    (@since gauge $later:expr, $earlier:expr) => { $later };
}
pub(crate) use telemetry;

telemetry! {
    /// A point-in-time copy of a [`LinkMeter`].
    pub struct LinkSnapshot / LinkCounters {
        counter up_bytes,
        counter down_bytes,
        counter up_packets,
        counter down_packets,
        /// Aggregate (COUNT) request messages.
        counter count_queries,
        counter window_queries,
        counter range_queries,
        counter bucket_queries,
        counter coop_queries,
        counter objects_received,
        /// Wire bytes of aggregate requests (uplink direction).
        counter aggregate_up_bytes,
        /// Wire bytes of aggregate answers (downlink direction).
        counter aggregate_down_bytes,
        /// Exchanges re-issued under a [`crate::packet::RetryPolicy`] after a
        /// failed attempt (unavailable or undecodable reply). 0 when retries
        /// are off.
        counter retried,
        /// Exchanges that exhausted their retry budget and surfaced a typed
        /// error to the caller. 0 when retries are off (a first-attempt
        /// failure with no budget is not an abandonment — nothing was ever
        /// retried).
        counter abandoned,
        /// Failed exchanges re-routed to a sibling replica of the same shard
        /// *before* consuming retry budget. 0 on replica-less links.
        counter failovers,
        /// Circuit-breaker trips to Open observed on this edge (a half-open
        /// probe failing counts again). 0 with breakers off.
        counter breaker_open,
    }
}

/// Atomic counters for one device↔server link.
///
/// All figures in the paper plot "Total bytes": the wire bytes (payload +
/// TCP/IP headers per Eq. 1) crossing both links in both directions. The
/// meter also keeps the query mix so reports can show *where* the bytes
/// went (aggregate statistics vs object downloads), which the paper
/// discusses qualitatively. Aggregate (COUNT) traffic is additionally
/// metered in bytes on both directions, so reports can show the paper's
/// `Taq` overhead measured rather than estimated.
#[derive(Debug, Default)]
pub struct LinkMeter {
    own: LinkCounters,
    /// Meters whose traffic this one reports on top of its own.
    parts: Vec<Arc<LinkMeter>>,
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
}

telemetry! {
    /// A point-in-time copy of one link's cache accounting: per-link hit/miss
    /// counters plus the (possibly session-shared) cache's resident gauges.
    ///
    /// Its twin, `CacheTelemetry`, is kept apart from [`LinkMeter`]
    /// deliberately: the link meter records what *crossed the wire*, and its
    /// conservation laws (per-shard sums equal the aggregate) must keep
    /// holding when a cache answers requests that never reach any shard.
    /// Each link tallies its lookups in a twin of its own; the shared store
    /// tallies its admissions and residency in another.
    pub struct CacheSnapshot / CacheTelemetry {
        /// `COUNT` requests answered locally.
        counter stats_hits,
        /// `COUNT` requests that had to be shipped.
        counter stats_misses,
        /// `WINDOW` requests answered from a cached superset window.
        counter window_hits,
        /// `WINDOW` requests that had to be shipped.
        counter window_misses,
        /// ε-RANGE probes answered from a cached superset window.
        counter probe_hits,
        /// ε-RANGE probes that had to be shipped.
        counter probe_misses,
        /// Wire bytes (packetized, both directions) local answers avoided.
        counter bytes_saved,
        /// Windows admitted into the window tier over the cache's lifetime.
        counter insertions,
        /// Windows evicted by the byte-budget LRU.
        counter evictions,
        /// Bytes currently resident in the window tier.
        gauge resident_bytes,
    }
}

impl CacheTelemetry {
    /// Records one `COUNT` lookup against the statistics tier.
    pub fn record_stats(&self, hit: bool) {
        if hit {
            self.stats_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats_misses.fetch_add(1, Ordering::Relaxed);
        }
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
}

impl CacheSnapshot {
    /// Overall hit rate across every tier (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        rate(
            self.stats_hits + self.window_hits + self.probe_hits,
            self.stats_misses + self.window_misses + self.probe_misses,
        )
    }
}

/// `hits / (hits + misses)`, and 0 when both are 0: the one ratio every
/// hit and pruning rate is read as.
pub fn rate(hits: u64, misses: u64) -> f64 {
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
    /// its replica edges'. An exchange is charged once, at its edge, and
    /// `aggregate == Σ replica` holds by construction.
    pub fn summing(parts: Vec<Arc<LinkMeter>>) -> Self {
        LinkMeter {
            parts,
            ..LinkMeter::default()
        }
    }

    /// Records an outgoing request of `payload` bytes.
    pub fn record_request(&self, req: &Request, payload: u64, packet: &PacketModel) {
        let (own, wire) = (&self.own, packet.tb(payload));
        own.up_bytes.fetch_add(wire, Ordering::Relaxed);
        own.up_packets
            .fetch_add(packet.packets(payload), Ordering::Relaxed);
        if req.is_aggregate() {
            own.aggregate_up_bytes.fetch_add(wire, Ordering::Relaxed);
        }
        let counter = match req {
            Request::Count(_) => Some(&own.count_queries),
            // A change list is an object download like a window's.
            Request::Window(_) | Request::Changes { .. } => Some(&own.window_queries),
            Request::EpsRange { .. } => Some(&own.range_queries),
            Request::BucketEpsRange { .. } => Some(&own.bucket_queries),
            Request::CoopLevelMbrs(_)
            | Request::CoopFilterByMbrs { .. }
            | Request::CoopJoinPush { .. } => Some(&own.coop_queries),
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
        let (own, wire) = (&self.own, packet.tb(payload));
        own.down_bytes.fetch_add(wire, Ordering::Relaxed);
        own.down_packets
            .fetch_add(packet.packets(payload), Ordering::Relaxed);
        if aggregate {
            own.aggregate_down_bytes.fetch_add(wire, Ordering::Relaxed);
        }
        own.objects_received.fetch_add(objects, Ordering::Relaxed);
    }

    /// Records one re-issued exchange attempt (retry `k` of a request).
    pub fn record_retry(&self) {
        self.own.retried.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one exchange that exhausted its retry budget.
    pub fn record_abandon(&self) {
        self.own.abandoned.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one failover to a sibling replica after a failed exchange.
    pub fn record_failover(&self) {
        self.own.failovers.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one circuit-breaker trip to Open on this edge.
    pub fn record_breaker_open(&self) {
        self.own.breaker_open.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the counters (plus those of the meters this one sums).
    pub fn snapshot(&self) -> LinkSnapshot {
        let parts = self.parts.iter().map(|part| part.snapshot());
        parts.fold(self.own.load(), |sum, part| sum.plus(&part))
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
        let t = CacheTelemetry::default();
        for hit in [true, true, true, false] {
            t.record_stats(hit);
        }
        t.record_window(true);
        t.record_window(false);
        t.record_probe(true);
        t.record_probe(true);
        t.record_saved(100);
        let a = CacheSnapshot {
            insertions: 2,
            evictions: 1,
            resident_bytes: 500,
            ..t.load()
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
