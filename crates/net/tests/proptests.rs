//! Property tests: wire codec round-trips, packet-model laws, and the
//! algebra every declared telemetry record gets (`plus`, `since`, and a
//! summing meter's snapshot).

use std::sync::Arc;

use asj_geom::{Point, Rect, SpatialObject};
use asj_net::codec::{decode_request, decode_response, encode_request, encode_response};
use asj_net::{CacheSnapshot, FaultStats, LinkMeter, LinkSnapshot, PacketModel, Request, Response};
use proptest::prelude::*;

/// f32-representable coordinates — the generator invariant the codec
/// documents.
fn coord() -> impl Strategy<Value = f64> {
    (-10_000i32..=10_000).prop_map(|v| (v as f32 * 0.25) as f64)
}

fn rect() -> impl Strategy<Value = Rect> {
    (coord(), coord(), coord(), coord())
        .prop_map(|(a, b, c, d)| Rect::new(Point::new(a, b), Point::new(c, d)))
}

fn object() -> impl Strategy<Value = SpatialObject> {
    (any::<u32>(), rect()).prop_map(|(id, r)| SpatialObject::new(id, r))
}

fn eps() -> impl Strategy<Value = f64> {
    (0u32..40_000).prop_map(|v| (v as f32 * 0.25) as f64)
}

fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        rect().prop_map(Request::Window),
        rect().prop_map(Request::Count),
        (rect(), eps()).prop_map(|(q, eps)| Request::EpsRange { q, eps }),
        (prop::collection::vec(object(), 0..20), eps())
            .prop_map(|(probes, eps)| Request::BucketEpsRange { probes, eps }),
        any::<u8>().prop_map(Request::CoopLevelMbrs),
        (prop::collection::vec(rect(), 0..20), eps())
            .prop_map(|(mbrs, eps)| Request::CoopFilterByMbrs { mbrs, eps }),
        (prop::collection::vec(object(), 0..20), eps())
            .prop_map(|(objects, eps)| Request::CoopJoinPush { objects, eps }),
    ]
}

fn response() -> impl Strategy<Value = Response> {
    prop_oneof![
        prop::collection::vec(object(), 0..30).prop_map(Response::Objects),
        any::<u64>().prop_map(Response::Count),
        prop::collection::vec(prop::collection::vec(object(), 0..6), 0..10)
            .prop_map(Response::Buckets),
        prop::collection::vec(rect(), 0..30).prop_map(Response::Rects),
        prop::collection::vec((any::<u32>(), any::<u32>()), 0..30).prop_map(Response::Pairs),
        Just(Response::Refused),
    ]
}

/// One `record_*` call on a [`LinkMeter`].
#[derive(Debug, Clone)]
enum Record {
    Request(Request, u64),
    Response(u64, u64, bool),
    Retry,
    Abandon,
    Failover,
    BreakerOpen,
}

fn record() -> impl Strategy<Value = Record> {
    prop_oneof![
        (request(), 0u64..5000).prop_map(|(req, payload)| Record::Request(req, payload)),
        (0u64..5000, 0u64..100, any::<bool>())
            .prop_map(|(payload, objects, agg)| Record::Response(payload, objects, agg)),
        Just(Record::Retry),
        Just(Record::Abandon),
        Just(Record::Failover),
        Just(Record::BreakerOpen),
    ]
}

fn apply(meter: &LinkMeter, record: &Record) {
    let packet = PacketModel::default();
    match record {
        Record::Request(req, payload) => meter.record_request(req, *payload, &packet),
        Record::Response(payload, objects, agg) => {
            meter.record_response(*payload, *objects, &packet, *agg)
        }
        Record::Retry => meter.record_retry(),
        Record::Abandon => meter.record_abandon(),
        Record::Failover => meter.record_failover(),
        Record::BreakerOpen => meter.record_breaker_open(),
    }
}

/// The snapshot of a fresh meter after `records`.
fn metered(records: &[Record]) -> LinkSnapshot {
    let meter = LinkMeter::new();
    records.iter().for_each(|r| apply(&meter, r));
    meter.snapshot()
}

/// `n` field values, small enough that sums cannot overflow.
fn fields(n: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..1 << 40, n..n + 1)
}

fn cache(v: &[u64]) -> CacheSnapshot {
    CacheSnapshot {
        stats_hits: v[0],
        stats_misses: v[1],
        window_hits: v[2],
        window_misses: v[3],
        probe_hits: v[4],
        probe_misses: v[5],
        bytes_saved: v[6],
        insertions: v[7],
        evictions: v[8],
        resident_bytes: v[9],
    }
}

fn faults(v: &[u64]) -> FaultStats {
    FaultStats {
        dropped: v[0],
        garbled: v[1],
        blacked_out: v[2],
        restarts: v[3],
    }
}

proptest! {
    #[test]
    fn link_snapshots_add_commute_and_subtract_back(
        a in prop::collection::vec(record(), 0..30),
        b in prop::collection::vec(record(), 0..30),
    ) {
        let (a, b) = (metered(&a), metered(&b));
        prop_assert_eq!(a.plus(&b).since(&b), a);
        prop_assert_eq!(a.plus(&b), b.plus(&a));
    }

    #[test]
    fn cache_counters_subtract_back_and_the_gauge_keeps_the_later_reading(
        a in fields(10),
        b in fields(10),
    ) {
        let (a, b) = (cache(&a), cache(&b));
        prop_assert_eq!(a.plus(&b), b.plus(&a));
        // Counters come back; the gauge keeps the sum's reading.
        let back = a.plus(&b).since(&b);
        let resident_bytes = a.resident_bytes + b.resident_bytes;
        prop_assert_eq!(back, CacheSnapshot { resident_bytes, ..a });
        // A later reading of the same source: every counter has grown.
        let later = CacheSnapshot { resident_bytes: b.resident_bytes, ..a.plus(&b) };
        prop_assert_eq!(later.since(&a).resident_bytes, b.resident_bytes);
    }

    #[test]
    fn fault_stats_add_commute_and_subtract_back(a in fields(4), b in fields(4)) {
        let (a, b) = (faults(&a), faults(&b));
        prop_assert_eq!(a.plus(&b).since(&b), a);
        prop_assert_eq!(a.plus(&b), b.plus(&a));
    }

    #[test]
    fn a_summing_meter_reads_the_fold_of_its_parts(
        n in 1usize..5,
        records in prop::collection::vec((0usize..5, record()), 0..60),
    ) {
        let parts: Vec<_> = (0..n).map(|_| Arc::new(LinkMeter::new())).collect();
        for (i, r) in &records {
            apply(&parts[i % n], r);
        }
        let folded = (parts.iter().map(|p| p.snapshot()))
            .fold(LinkSnapshot::default(), |sum, s| sum.plus(&s));
        prop_assert_eq!(LinkMeter::summing(parts).snapshot(), folded);
    }

    #[test]
    fn request_roundtrip(req in request()) {
        let back = decode_request(encode_request(&req)).unwrap();
        prop_assert_eq!(back, req);
    }

    #[test]
    fn response_roundtrip(resp in response()) {
        let back = decode_response(encode_response(&resp)).unwrap();
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn truncation_never_panics(req in request(), cut in 0usize..64) {
        let bytes = encode_request(&req);
        let cut = cut.min(bytes.len().saturating_sub(1));
        // Must error or produce *some* request — never panic.
        let _ = decode_request(bytes.slice(0..cut));
    }

    #[test]
    fn tb_laws(payload in 0u64..1_000_000, mtu in 100u32..9000, bh in 1u32..60) {
        prop_assume!(mtu > bh);
        let m = PacketModel::new(mtu, bh);
        let tb = m.tb(payload);
        // Never less than payload + one header; overhead bounded by
        // header per packet.
        prop_assert!(tb >= payload + bh as u64);
        prop_assert_eq!(tb, payload + m.packets(payload) * bh as u64);
        // Monotone in payload.
        prop_assert!(m.tb(payload + 1) >= tb);
        // Packets = ceil(payload / capacity), at least 1.
        let cap = (mtu - bh) as u64;
        prop_assert_eq!(m.packets(payload), payload.div_ceil(cap).max(1));
    }

    #[test]
    fn bigger_mtu_never_costs_more(payload in 0u64..500_000, a in 100u32..1500, b in 100u32..1500) {
        let (small, large) = (a.min(b), a.max(b));
        prop_assume!(small > 40);
        let ms = PacketModel::new(small, 40);
        let ml = PacketModel::new(large, 40);
        prop_assert!(ml.tb(payload) <= ms.tb(payload));
    }
}
