//! Property tests: wire codec round-trips and packet-model laws.

use asj_geom::{Point, Rect, SpatialObject};
use asj_net::codec::{decode_request, decode_response, encode_request, encode_response};
use asj_net::{PacketModel, Request, Response};
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
        prop::collection::vec(rect(), 0..20).prop_map(Request::MultiCount),
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
        prop::collection::vec(any::<u64>(), 0..20).prop_map(Response::Counts),
        prop::collection::vec(prop::collection::vec(object(), 0..6), 0..10)
            .prop_map(Response::Buckets),
        prop::collection::vec(rect(), 0..30).prop_map(Response::Rects),
        prop::collection::vec((any::<u32>(), any::<u32>()), 0..30).prop_map(Response::Pairs),
        Just(Response::Refused),
    ]
}

proptest! {
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
