//! Property tests for the wire-v2 codec against its v1 oracle.
//!
//! Two properties pin the compact object frames:
//!
//! * **Bit-faithfulness** — for random objects and windows (degenerate
//!   rectangles, out-of-window coordinates, f32 extremes, values that
//!   only snap on the wire), the v2 decode is *bit-equal* to the v1
//!   decode of the same objects. This is the verify-else-escape
//!   contract: a coordinate ships quantized only when dequantizing
//!   reproduces, bitwise, the `f64` the v1 `f32` cast would deliver.
//! * **Density** — a v2 `Objects` frame is never larger than the v1
//!   frame **for ids below 2^20**. Both headers are 5 bytes (opcode +
//!   u32 count), and the worst-case v2 object — both axes escaped — is
//!   1 tag + delta-id varint + 16 coordinate bytes. With every id below
//!   2^20 the signed delta stays below 2^20 in magnitude, its zigzag
//!   below 2^21, so the varint is at most 3 bytes: 1 + 3 + 16 = 20 =
//!   `OBJ_BYTES`. Point objects and quantized axes only shrink from
//!   there. Beyond 2^20 the bound genuinely fails — a sequence
//!   alternating id 0 with id `u32::MAX` needs 5-byte deltas (22 > 20
//!   per object) — which is why the property documents the id range
//!   instead of claiming universality.
//!
//! A third suite round-trips the scalar v2 frames (varint counts, acks,
//! generation stamps), which have no quantization to verify but share
//! the varint primitives.
//!
//! The record codec — each compact object assembled and parsed whole,
//! its candidate cell found by a multiply — is held to the byte-at-a-time
//! codec it replaced (`mod reference`): the same frame byte for byte, and
//! the same error for every cut and every single-byte corruption of one.
//!
//! And one rule holds for every frame of every kind, either version,
//! stamped, marked or wrapped: **a frame is consumed whole**. A valid
//! frame with junk behind it, or with its count prefix lowered so that
//! records are left over, is rejected — never decoded to the part the
//! decoder did read (`WIRE.md`, "a frame is consumed whole"). Raised past
//! its records, a count prefix is a truncation.

use asj_geom::{Point, Rect, SpatialObject};
use asj_net::codec::{
    decode_request_versioned, decode_response, decode_response_ctx, decode_response_gen_ctx,
    encode_request_versioned, encode_response, encode_response_versioned, peel_dedup,
    stamp_generation_versioned, wrap_dedup, CodecError, DedupTag, QuantCtx, WireVersion, OBJ_BYTES,
};
use asj_net::{DeltaOp, Request, Response, Update};
use bytes::{Bytes, BytesMut};
use proptest::prelude::*;

/// Grid-aligned, exactly-f32 coordinates. Windows are built from the
/// same grid as object coordinates, so objects frequently sit exactly
/// on window endpoints — exercising the cell-0/cell-65535 exactness
/// clause of the quantization contract.
fn grid_coord() -> impl Strategy<Value = f64> {
    (-16i32..=16).prop_map(|v| (v as f32 * 0.5) as f64)
}

/// Coordinates stressing every encoder branch: in-window grid values
/// (quantize), far out-of-window values and f32 extremes (escape), and
/// f64 values that are not f32-representable (snap on the wire first,
/// then quantize or escape — bit-faithfulness must hold either way).
fn wild_coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        grid_coord(),
        (-16i32..=16).prop_map(|v| f64::from(v) * 1.0e6),
        Just(f64::from(f32::MAX)),
        Just(-f64::from(f32::MAX)),
        Just(f64::from(f32::MIN_POSITIVE)),
        (0u32..1000).prop_map(|v| f64::from(v) * 0.123456789),
    ]
}

/// Object geometry: a general rectangle or a degenerate point rect
/// (min == max), which takes the `V2_POINT` single-pair layout.
fn shape() -> impl Strategy<Value = Rect> {
    prop_oneof![
        (wild_coord(), wild_coord(), wild_coord(), wild_coord())
            .prop_map(|(a, b, c, d)| Rect::new(Point::new(a, b), Point::new(c, d))),
        (wild_coord(), wild_coord()).prop_map(|(x, y)| Rect::point(Point::new(x, y))),
    ]
}

/// Unrestricted ids — deltas between neighbours span the whole i64
/// zigzag range.
fn any_id() -> impl Strategy<Value = u32> {
    any::<u64>().prop_map(|v| v as u32)
}

fn object() -> impl Strategy<Value = SpatialObject> {
    (any_id(), shape()).prop_map(|(id, r)| SpatialObject::new(id, r))
}

/// Objects under the documented density bound: ids below 2^20 keep
/// every delta varint at three bytes or fewer.
fn small_id_object() -> impl Strategy<Value = SpatialObject> {
    (0u32..(1 << 20), shape()).prop_map(|(id, r)| SpatialObject::new(id, r))
}

/// Request windows, including degenerate ones: a point window has no
/// grid (`QuantCtx::new` returns `None`) and every coordinate escapes.
fn window() -> impl Strategy<Value = Rect> {
    prop_oneof![
        (grid_coord(), grid_coord(), grid_coord(), grid_coord())
            .prop_map(|(a, b, c, d)| Rect::new(Point::new(a, b), Point::new(c, d))),
        (grid_coord(), grid_coord()).prop_map(|(x, y)| Rect::point(Point::new(x, y))),
    ]
}

fn eps() -> impl Strategy<Value = f64> {
    (0u32..64).prop_map(|v| f64::from(v) * 0.3)
}

fn update() -> impl Strategy<Value = Update> {
    prop_oneof![
        object().prop_map(Update::Insert),
        any_id().prop_map(Update::Delete),
        (any_id(), shape()).prop_map(|(id, to)| Update::Move { id, to }),
    ]
}

/// Every request kind, lists possibly empty.
fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        shape().prop_map(Request::Window),
        shape().prop_map(Request::Count),
        (shape(), eps()).prop_map(|(q, eps)| Request::EpsRange { q, eps }),
        (prop::collection::vec(object(), 0..6), eps())
            .prop_map(|(probes, eps)| Request::BucketEpsRange { probes, eps }),
        (0u32..256).prop_map(|level| Request::CoopLevelMbrs(level as u8)),
        (prop::collection::vec(shape(), 0..6), eps())
            .prop_map(|(mbrs, eps)| Request::CoopFilterByMbrs { mbrs, eps }),
        (prop::collection::vec(object(), 0..6), eps())
            .prop_map(|(objects, eps)| Request::CoopJoinPush { objects, eps }),
        prop::collection::vec(update(), 0..6).prop_map(Request::ApplyUpdates),
        any::<u64>().prop_map(|since| Request::Changes { since }),
    ]
}

/// Every response kind, lists possibly empty.
fn response() -> impl Strategy<Value = Response> {
    let change = (object(), any::<bool>()).prop_map(|(o, add)| match add {
        true => DeltaOp::Add(o),
        false => DeltaOp::Remove {
            id: o.id,
            mbr: o.mbr,
        },
    });
    prop_oneof![
        prop::collection::vec(object(), 0..8).prop_map(Response::Objects),
        any::<u64>().prop_map(Response::Count),
        prop::collection::vec(prop::collection::vec(object(), 0..4), 0..5)
            .prop_map(Response::Buckets),
        prop::collection::vec(shape(), 0..8).prop_map(Response::Rects),
        prop::collection::vec((any_id(), any_id()), 0..8).prop_map(Response::Pairs),
        Just(Response::Refused),
        any::<u64>().prop_map(|generation| Response::Ack { generation }),
        prop::collection::vec(change, 0..6).prop_map(Response::Changes),
        Just(Response::Malformed),
    ]
}

fn wire() -> impl Strategy<Value = WireVersion> {
    prop_oneof![Just(WireVersion::V1), Just(WireVersion::V2)]
}

/// Generations at both ends of the varint: none, small, above 2^63.
fn generation() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0), 1u64..1000, any::<u64>().prop_map(|g| g | 1 << 63)]
}

/// A response frame as a server sends it: stamped, then encoded against
/// the grid of `win`.
fn response_frame(resp: &Response, wire: WireVersion, win: Rect, generation: u64) -> Bytes {
    let ctx = QuantCtx::new(win);
    let mut buf = BytesMut::new();
    stamp_generation_versioned(generation, wire, &mut buf);
    encode_response_versioned(resp, wire, ctx.as_ref(), &mut buf);
    buf.freeze()
}

fn with_tail(frame: &Bytes, tail: &[u8]) -> Bytes {
    Bytes::from([frame.as_slice(), tail].concat())
}

/// The bit pattern a decode delivered — `PartialEq` on `f64` would pass
/// `-0.0 == 0.0` and miss a byte-level divergence.
fn bits(o: &SpatialObject) -> (u32, [u64; 4]) {
    (
        o.id,
        [
            o.mbr.min.x.to_bits(),
            o.mbr.min.y.to_bits(),
            o.mbr.max.x.to_bits(),
            o.mbr.max.y.to_bits(),
        ],
    )
}

fn encode_v2(resp: &Response, ctx: Option<&QuantCtx>) -> bytes::Bytes {
    let mut buf = BytesMut::new();
    encode_response_versioned(resp, WireVersion::V2, ctx, &mut buf);
    buf.freeze()
}

/// A deterministic LCG (Knuth's MMIX constants) for the seeded garble
/// sweep — byte positions and replacement values replay from the seed.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

/// A corpus of valid frames in both wire versions: every response shape
/// the retry loops re-decode, as v1 frames and as generation-stamped v2
/// frames, plus request frames (the server-facing decode surface).
fn garble_corpus() -> Vec<(Bytes, Option<QuantCtx>)> {
    use asj_net::codec::{encode_request_versioned, ANSWER_BYTES};
    let _ = ANSWER_BYTES; // corpus shapes mirror the costed frames
    let win = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
    let ctx = QuantCtx::new(win);
    let objs = vec![
        SpatialObject::point(1, 1.0, 1.0),
        SpatialObject::new(900, Rect::from_coords(2.0, 2.0, 1.0e7, 3.0)),
        SpatialObject::point(901, -4.5, 9.5),
    ];
    let responses = [
        Response::Objects(objs.clone()),
        Response::Count(123_456),
        Response::Buckets(vec![objs[..1].to_vec(), vec![], objs[1..].to_vec()]),
        Response::Ack { generation: 7 },
    ];
    let mut corpus = Vec::new();
    for resp in &responses {
        corpus.push((encode_response(resp), None));
        let mut buf = BytesMut::new();
        stamp_generation_versioned(9, WireVersion::V2, &mut buf);
        encode_response_versioned(resp, WireVersion::V2, ctx.as_ref(), &mut buf);
        corpus.push((buf.freeze(), ctx));
    }
    for req in [
        asj_net::Request::Count(win),
        asj_net::Request::Window(win),
        asj_net::Request::BucketEpsRange {
            probes: objs[..2].to_vec(),
            eps: 1.5,
        },
    ] {
        for wire in [WireVersion::V1, WireVersion::V2] {
            corpus.push((encode_request_versioned(&req, wire), None));
        }
    }
    corpus
}

/// The seeded garble sweep: 10 000 LCG-mutated valid frames (v1 and v2,
/// responses and requests) must decode to a typed error or a value —
/// never panic. The injected-garble marker specifically must *never*
/// silently decode to a valid value, and truncating any frame anywhere
/// is always caught.
#[test]
fn seeded_garble_sweep_decodes_typed_or_errors_never_panics() {
    use asj_net::codec::{decode_request_versioned, garble_frame};
    let corpus = garble_corpus();
    let mut state = 0x5eed_0dd5_u64;
    let (mut ok, mut err) = (0u64, 0u64);
    for _ in 0..10_000 {
        let (frame, ctx) = &corpus[lcg(&mut state) as usize % corpus.len()];
        let mut bytes = frame.to_vec();
        let pos = lcg(&mut state) as usize % bytes.len();
        bytes[pos] = lcg(&mut state) as u8;
        let mutated = Bytes::from(bytes);
        // Both decode surfaces must stay total on the mutated frame: the
        // client-side response path and the server-side request path.
        let as_resp = decode_response_gen_ctx(mutated.clone(), ctx.as_ref());
        let as_req = decode_request_versioned(mutated);
        match (as_resp.is_ok(), as_req.is_ok()) {
            (false, false) => err += 1,
            _ => ok += 1,
        }
    }
    assert_eq!(ok + err, 10_000);
    assert!(err > 1_000, "the sweep must actually reach the decoders");
    assert!(ok > 0, "some single-byte mutations stay well-formed");

    for (frame, ctx) in &corpus {
        // The injected-garble marker (byte 0 stamped) can never silently
        // decode to a different valid value — it is always a typed error.
        let garbled = garble_frame(frame);
        assert_eq!(garbled[0], 0xEE, "byte 0 carries the garble marker");
        assert!(decode_response_gen_ctx(garbled.clone(), ctx.as_ref()).is_err());
        assert!(decode_request_versioned(garbled).is_err());
        // Every truncation — the frame cut short at *any* length, the
        // single-byte tail loss included — leaves a frame both decoders
        // reject: no strict prefix of a valid frame is itself valid.
        for len in 0..frame.len() {
            let truncated = frame.slice(0..len);
            assert!(
                decode_response_gen_ctx(truncated.clone(), ctx.as_ref()).is_err()
                    && decode_request_versioned(truncated).is_err(),
                "a {len}-byte prefix of a {}-byte frame must not decode",
                frame.len()
            );
        }
    }
}

/// The nine reserved bytes (`WIRE.md`, "Reserved opcodes") with a
/// plausible payload behind them: `05` and `83` were a request and its
/// answer until nothing turned out to send them, `06` a batched COUNT
/// and `88` / `8E` its v1 and v2 answers until it was retired, `70` and
/// `8B` the version handshake's probe and answer until a link's version
/// became its deployment's, `EE` is the injected garble. All are unknown opcodes to both decoders. (`92`
/// is reserved differently: decodable, but only ever fabricated
/// locally.)
#[test]
fn reserved_opcodes_are_rejected_as_unknown() {
    let window = encode_request_versioned(
        &Request::Window(Rect::from_coords(0.0, 0.0, 1.0, 1.0)),
        WireVersion::V1,
    );
    let count = encode_response(&Response::Count(7));
    // A list of two windows, and of two counts: `[u32 2]` then records.
    let windows = Bytes::from([&[0, 0, 0, 0, 2][..], &[0; 32]].concat());
    let counts = Bytes::from([&[0, 0, 0, 0, 2][..], &[0; 16]].concat());
    let compact = Bytes::from_static(&[0, 2, 0, 7]);
    // The retired handshake's probe and answer, each `[opcode][u8 2]`.
    let handshake = Bytes::from_static(&[0, 2]);
    let reserved = [
        (0x05, &window),
        (0x83, &count),
        (0x06, &windows),
        (0x88, &counts),
        (0x8E, &compact),
        (0x70, &handshake),
        (0x8B, &handshake),
        (0xEE, &count),
    ];
    for (opcode, body) in reserved {
        let mut frame = body.to_vec();
        frame[0] = opcode;
        let frame = Bytes::from(frame);
        let unknown = Err(CodecError::UnknownOpcode(opcode));
        assert_eq!(decode_request_versioned(frame.clone()).map(drop), unknown);
        assert_eq!(decode_response_gen_ctx(frame, None).map(drop), unknown);
    }
}

/// One accepted encoding per value and length: the tenth byte of a
/// varint holds the 64th bit and nothing else. `…, 0x02` there used to
/// contribute nothing and decode like `…, 0x00`.
#[test]
fn a_varint_may_not_carry_bits_above_the_64th() {
    let varint = |last: u8| [[0xFF; 9].as_slice(), &[last]].concat();
    for (opcode, stamped) in [(0x8D, false), (0x8F, false), (0x90, true)] {
        let frame = |last| {
            let tail: &[u8] = if stamped { &[0x87] } else { &[] };
            Bytes::from([&[opcode], varint(last).as_slice(), tail].concat())
        };
        let top = decode_response_gen_ctx(frame(0x01), None).expect("u64::MAX is a value");
        match (top, stamped) {
            ((Response::Refused, generation), true) => assert_eq!(generation, u64::MAX),
            ((Response::Count(v) | Response::Ack { generation: v }, 0), false) => {
                assert_eq!(v, u64::MAX)
            }
            other => panic!("{other:?}"),
        }
        for last in [0x02, 0x03, 0x7F, 0x80, 0x81] {
            assert!(
                decode_response_gen_ctx(frame(last), None).is_err(),
                "opcode {opcode:#x}: a tenth byte of {last:#x} was accepted"
            );
        }
    }
}

/// A complete compact object whose id delta lands outside `u32` is a
/// value out of range — the error an unknown update tag gets — not a
/// truncated frame.
#[test]
fn an_id_delta_that_leaves_u32_is_out_of_range_not_truncated() {
    // [8C][n = 1][tag: point][zigzag(-1)][x f32][y f32]
    let below = [0x8C, 0, 0, 0, 1, 0x01, 0x01, 0, 0, 0, 0, 0, 0, 0, 0];
    assert_eq!(
        decode_response(Bytes::copy_from_slice(&below)),
        Err(CodecError::UnknownOpcode(0x01))
    );
    // id u32::MAX, then +1.
    let objs = vec![SpatialObject::point(u32::MAX, 1.0, 1.0)];
    let mut above = encode_v2(&Response::Objects(objs), None).to_vec();
    above[4] = 2;
    above.extend([0x01, 0x02, 0, 0, 0, 0, 0, 0, 0, 0]);
    assert_eq!(
        decode_response(Bytes::from(above)),
        Err(CodecError::UnknownOpcode(0x01))
    );
}

/// A compact object's tag has three bits — POINT, QX, QY — and a tag with
/// any other bit set names no layout: rejected as unknown, so no two tag
/// bytes decode to one value. Behind each tag, the coordinates its known
/// bits call for.
#[test]
fn a_compact_object_tag_with_an_unknown_bit_is_rejected() {
    let ctx = QuantCtx::new(Rect::from_coords(0.0, 0.0, 1.0, 1.0));
    for tag in 0..=u8::MAX {
        let known = tag & 0x07;
        // Per axis one value (a point) or two, each a u16 cell or an f32.
        let axis = |q: u8| (2 - usize::from(known & 0x01)) * if known & q != 0 { 2 } else { 4 };
        let coords = vec![0; axis(0x02) + axis(0x04)];
        let frame = Bytes::from([&[0x8C, 0, 0, 0, 1, tag, 0x0E][..], &coords].concat());
        let got = decode_response_ctx(frame, ctx.as_ref());
        if tag == known {
            assert!(got.is_ok(), "tag {tag:#04x}: {got:?}");
        } else {
            assert_eq!(got, Err(CodecError::UnknownOpcode(tag)), "tag {tag:#04x}");
        }
    }
}

proptest! {
    // A frame is consumed whole: any valid request frame — bare, marked
    // for v2, or in a dedup envelope — followed by junk is rejected.
    #[test]
    fn a_valid_frame_followed_by_junk_is_rejected(
        req in request(),
        resp in response(),
        wire in wire(),
        win in window(),
        generation in generation(),
        tag in any::<u64>(),
        junk in prop::collection::vec(any::<u64>(), 1..9),
    ) {
        let junk: Vec<u8> = junk.iter().map(|&b| b as u8).collect();
        let frame = encode_request_versioned(&req, wire);
        prop_assert!(decode_request_versioned(frame.clone()).is_ok());
        prop_assert_eq!(
            decode_request_versioned(with_tail(&frame, &junk)).map(drop),
            Err(CodecError::TrailingBytes(junk.len())),
            "{:?} + {:?}", req, junk
        );
        // The envelope is peeled first; its body is then held to the rule.
        let wrapped = wrap_dedup(DedupTag { nonce: tag, seq: !tag }, &frame);
        let (_, body) = peel_dedup(&with_tail(&wrapped, &junk)).expect("an envelope");
        prop_assert!(decode_request_versioned(body).is_err());

        let ctx = QuantCtx::new(win);
        let frame = response_frame(&resp, wire, win, generation);
        prop_assert!(decode_response_gen_ctx(frame.clone(), ctx.as_ref()).is_ok());
        prop_assert_eq!(
            decode_response_gen_ctx(with_tail(&frame, &junk), ctx.as_ref()).map(drop),
            Err(CodecError::TrailingBytes(junk.len())),
            "{:?} at {} + {:?}", resp, generation, junk
        );
    }

    // A count prefix is input. Lowered, it leaves records behind the ones
    // it counts: the frame is rejected, not decoded to its first records.
    #[test]
    fn a_lowered_count_prefix_is_rejected(
        objs in prop::collection::vec(object(), 1..6),
        updates in prop::collection::vec(update(), 1..6),
        wire in wire(),
        win in window(),
        generation in generation(),
        lower in any::<u64>(),
    ) {
        let rects = || objs.iter().map(|o| o.mbr).collect::<Vec<Rect>>();
        let added = objs.iter().copied().map(DeltaOp::Add).collect();
        let responses = [
            (objs.len(), Response::Objects(objs.clone())),
            (2, Response::Buckets(vec![objs.clone(); 2])),
            (objs.len(), Response::Rects(rects())),
            (objs.len(), Response::Pairs(objs.iter().map(|o| (o.id, !o.id)).collect())),
            (objs.len(), Response::Changes(added)),
        ];
        let ctx = QuantCtx::new(win);
        for (n, resp) in responses {
            let stamp = response_frame(&resp, wire, win, generation).len()
                - response_frame(&resp, wire, win, 0).len();
            let mut frame = response_frame(&resp, wire, win, generation).to_vec();
            // The prefix follows the opcode: a u32.
            let at = stamp + 4;
            prop_assert_eq!(frame[at] as usize, n, "{:?}", resp);
            frame[at] = (lower % n as u64) as u8;
            prop_assert!(
                decode_response_gen_ctx(Bytes::from(frame), ctx.as_ref()).is_err(),
                "{:?} with its count lowered to {}", resp, lower % n as u64
            );
        }
        let requests = [
            Request::ApplyUpdates(updates),
            Request::BucketEpsRange { probes: objs.clone(), eps: 0.5 },
            Request::CoopFilterByMbrs { mbrs: rects(), eps: 0.5 },
            Request::CoopJoinPush { objects: objs.clone(), eps: 0.5 },
        ];
        for req in requests {
            let mut frame = encode_request_versioned(&req, wire).to_vec();
            // Marker (v2), opcode, ε where the kind has one, then the u32.
            let eps = !matches!(req, Request::ApplyUpdates(_));
            let at = usize::from(wire == WireVersion::V2) + 1 + 4 * usize::from(eps) + 3;
            let n = frame[at] as u64;
            prop_assert!((1..6).contains(&n), "{:?}", req);
            frame[at] = (lower % n) as u8;
            prop_assert!(
                decode_request_versioned(Bytes::from(frame)).is_err(),
                "{:?} with its count lowered to {}", req, lower % n
            );
        }
    }

    // Raised, a count prefix claims records the frame does not hold — up
    // to `u32::MAX` of them: the frame is truncated, and nothing is
    // reserved for the claim (`alloc_budget` counts that).
    #[test]
    fn a_raised_count_prefix_is_truncated(
        objs in prop::collection::vec(object(), 0..6),
        win in window(),
        generation in generation(),
        raise in any::<u32>(),
    ) {
        let rects = objs.iter().map(|o| o.mbr).collect();
        let pairs = objs.iter().map(|o| (o.id, !o.id)).collect();
        let responses = [
            (objs.len(), Response::Objects(objs.clone())),
            (objs.len(), Response::Rects(rects)),
            (objs.len(), Response::Pairs(pairs)),
            (2, Response::Buckets(vec![objs.clone(); 2])),
        ];
        let ctx = QuantCtx::new(win);
        for (n, resp) in responses {
            let frame = response_frame(&resp, WireVersion::V1, win, generation);
            let at = frame.len() - response_frame(&resp, WireVersion::V1, win, 0).len() + 1;
            let n = n as u32;
            for claim in [n + 1 + raise % (u32::MAX - n), u32::MAX] {
                let mut raised = frame.to_vec();
                raised[at..at + 4].copy_from_slice(&claim.to_be_bytes());
                prop_assert_eq!(
                    decode_response_gen_ctx(Bytes::from(raised), ctx.as_ref()).map(drop),
                    Err(CodecError::Truncated),
                    "{:?} claiming {} items", resp, claim
                );
            }
        }
    }

    // Verify-else-escape, end to end: whatever the window grid makes of
    // each coordinate, the v2 decode is bit-equal to the v1 decode.
    #[test]
    fn v2_decode_is_bit_equal_to_v1_decode(
        objs in prop::collection::vec(object(), 0..80),
        win in window(),
    ) {
        let resp = Response::Objects(objs);
        let ctx = QuantCtx::new(win);
        let v1 = decode_response(encode_response(&resp)).expect("v1 decode");
        let v2 = decode_response_ctx(encode_v2(&resp, ctx.as_ref()), ctx.as_ref())
            .expect("v2 decode");
        let (Response::Objects(want), Response::Objects(got)) = (v1, v2) else {
            panic!("objects frame decoded to a non-objects response");
        };
        prop_assert_eq!(want.len(), got.len());
        for (w, g) in want.iter().zip(&got) {
            prop_assert_eq!(
                bits(w), bits(g),
                "object {} diverged bitwise under window {:?}", w.id, win
            );
        }
    }

    // The density bound (see the module docs for why ids < 2^20 is the
    // documented requirement): even with every coordinate escaping, a
    // v2 frame never exceeds the fixed-width v1 frame.
    #[test]
    fn v2_frame_never_larger_for_ids_below_2_20(
        objs in prop::collection::vec(small_id_object(), 0..80),
        win in window(),
    ) {
        let n = objs.len() as u64;
        let resp = Response::Objects(objs);
        let ctx = QuantCtx::new(win);
        let v1 = encode_response(&resp);
        let v2 = encode_v2(&resp, ctx.as_ref());
        prop_assert!(
            v2.len() <= v1.len(),
            "{n} objects: v2 frame {} bytes > v1 frame {} bytes", v2.len(), v1.len()
        );
        // Non-vacuousness: the per-object bound derivation assumed the
        // v1 frame is exactly header + 20n.
        prop_assert_eq!(v1.len() as u64, 5 + n * OBJ_BYTES);
    }

    // Scalar v2 frames and the varint generation stamp round-trip for
    // the full u64 range (no quantization involved — this pins the
    // varint primitives and the stamp-peeling envelope).
    #[test]
    fn v2_scalars_and_stamps_round_trip(
        count in any::<u64>(),
        generation in any::<u64>(),
    ) {
        for resp in [
            Response::Count(count),
            Response::Ack { generation: count },
        ] {
            let mut buf = BytesMut::new();
            stamp_generation_versioned(generation, WireVersion::V2, &mut buf);
            encode_response_versioned(&resp, WireVersion::V2, None, &mut buf);
            let (got, gen) = decode_response_gen_ctx(buf.freeze(), None).expect("v2 decode");
            prop_assert_eq!(got, resp);
            prop_assert_eq!(gen, generation, "generation stamp did not survive the peel");
        }
    }
}

/// The byte-at-a-time compact-object codec the record codec replaced,
/// kept verbatim in behaviour as the oracle: every byte written and read
/// one `put_*` / `get_*` at a time, the candidate cell found by dividing
/// and rounding, exactly as the golden frames were first written.
mod reference {
    use asj_geom::{Point, Rect, SpatialObject};
    use asj_net::codec::CodecError;
    use bytes::{Buf, BufMut, Bytes, BytesMut};

    /// Per axis, the `(min, max)` of the f32-snapped window.
    pub type Grid = [(f64, f64); 2];

    pub fn grid(win: Rect) -> Option<Grid> {
        let snap = |v: f64| f64::from(v as f32);
        let (a, b) = (win.min, win.max);
        let r = Rect::new(
            Point::new(snap(a.x), snap(a.y)),
            Point::new(snap(b.x), snap(b.y)),
        );
        let ok = |min: f64, max: f64| (max - min).is_finite() && max - min > 0.0;
        (ok(r.min.x, r.max.x) && ok(r.min.y, r.max.y))
            .then_some([(r.min.x, r.max.x), (r.min.y, r.max.y)])
    }

    pub fn dequant(min: f64, max: f64, q: u16) -> f64 {
        match q {
            0 => min,
            u16::MAX => max,
            q => min + (f64::from(q) / 65535.0) * (max - min),
        }
    }

    fn quant(min: f64, max: f64, v: f64) -> Option<u16> {
        if !(v >= min && v <= max) {
            return None;
        }
        let t = ((v - min) / (max - min) * 65535.0).round();
        if !(0.0..=65535.0).contains(&t) {
            return None;
        }
        let q = t as u16;
        (dequant(min, max, q).to_bits() == v.to_bits()).then_some(q)
    }

    fn need(buf: &Bytes, bytes: usize) -> Result<(), CodecError> {
        if buf.remaining() < bytes {
            return Err(CodecError::Truncated);
        }
        Ok(())
    }

    fn put_varint(buf: &mut BytesMut, mut v: u64) {
        while v >= 0x80 {
            buf.put_u8((v as u8) | 0x80);
            v >>= 7;
        }
        buf.put_u8(v as u8);
    }

    fn get_varint(buf: &mut Bytes) -> Result<u64, CodecError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            need(buf, 1)?;
            let b = buf.get_u8();
            if shift == 63 && b > 1 {
                break;
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::Truncated)
    }

    fn get_u16be(buf: &mut Bytes) -> Result<u16, CodecError> {
        need(buf, 2)?;
        Ok(u16::from(buf.get_u8()) << 8 | u16::from(buf.get_u8()))
    }

    fn get_f32(buf: &mut Bytes) -> Result<f32, CodecError> {
        need(buf, 4)?;
        Ok(buf.get_f32())
    }

    fn put_object(buf: &mut BytesMut, o: &SpatialObject, prev_id: u32, grid: Option<&Grid>) {
        let xmin = (o.mbr.min.x as f32) as f64;
        let ymin = (o.mbr.min.y as f32) as f64;
        let xmax = (o.mbr.max.x as f32) as f64;
        let ymax = (o.mbr.max.y as f32) as f64;
        let point = xmin.to_bits() == xmax.to_bits() && ymin.to_bits() == ymax.to_bits();
        let cells = |span: Option<(f64, f64)>, lo: f64, hi: f64| {
            let (min, max) = span?;
            let qlo = quant(min, max, lo)?;
            let qhi = if point { qlo } else { quant(min, max, hi)? };
            Some((qlo, qhi))
        };
        let qx = cells(grid.map(|g| g[0]), xmin, xmax);
        let qy = cells(grid.map(|g| g[1]), ymin, ymax);
        let bit = |set: bool, bit: u8| if set { bit } else { 0 };
        buf.put_u8(bit(point, 0x01) | bit(qx.is_some(), 0x02) | bit(qy.is_some(), 0x04));
        let delta = i64::from(o.id) - i64::from(prev_id);
        put_varint(buf, ((delta << 1) ^ (delta >> 63)) as u64);
        for (cells, lo, hi) in [(qx, xmin, xmax), (qy, ymin, ymax)] {
            match cells {
                Some((qlo, qhi)) => {
                    buf.put_u8((qlo >> 8) as u8);
                    buf.put_u8(qlo as u8);
                    if !point {
                        buf.put_u8((qhi >> 8) as u8);
                        buf.put_u8(qhi as u8);
                    }
                }
                None => {
                    buf.put_f32(lo as f32);
                    if !point {
                        buf.put_f32(hi as f32);
                    }
                }
            }
        }
    }

    fn get_object(
        buf: &mut Bytes,
        prev_id: u32,
        grid: Option<&Grid>,
    ) -> Result<SpatialObject, CodecError> {
        need(buf, 1)?;
        let tag = buf.get_u8();
        if tag & !0x07 != 0 {
            return Err(CodecError::UnknownOpcode(tag));
        }
        let point = tag & 0x01 != 0;
        let v = get_varint(buf)?;
        let delta = ((v >> 1) as i64) ^ -((v & 1) as i64);
        let id = u32::try_from(i64::from(prev_id).wrapping_add(delta))
            .map_err(|_| CodecError::UnknownOpcode(tag))?;
        let mut axes = [(0.0, 0.0); 2];
        for (axis, bit) in [(0, 0x02), (1, 0x04)] {
            axes[axis] = if tag & bit != 0 {
                let (min, max) = grid.ok_or(CodecError::MissingContext)?[axis];
                let lo = dequant(min, max, get_u16be(buf)?);
                let hi = if point {
                    lo
                } else {
                    dequant(min, max, get_u16be(buf)?)
                };
                (lo, hi)
            } else {
                let lo = get_f32(buf)? as f64;
                let hi = if point { lo } else { get_f32(buf)? as f64 };
                (lo, hi)
            };
        }
        let [(xmin, xmax), (ymin, ymax)] = axes;
        Ok(SpatialObject::new(
            id,
            Rect::new(Point::new(xmin, ymin), Point::new(xmax, ymax)),
        ))
    }

    /// `[8C][u32 n]`, then the objects.
    pub fn encode(objs: &[SpatialObject], grid: Option<&Grid>) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u8(0x8C);
        buf.put_u32(objs.len() as u32);
        let mut prev_id = 0;
        for o in objs {
            put_object(&mut buf, o, prev_id, grid);
            prev_id = o.id;
        }
        buf.freeze()
    }

    /// What a v2 decoder makes of a frame that opens `[8C]`, or of none.
    pub fn decode(mut buf: Bytes, grid: Option<&Grid>) -> Result<Vec<SpatialObject>, CodecError> {
        need(&buf, 1)?;
        assert_eq!(buf.get_u8(), 0x8C, "the oracle reads compact object frames");
        need(&buf, 4)?;
        let n = buf.get_u32();
        let mut objs = Vec::new();
        let mut prev_id = 0;
        for _ in 0..n {
            let o = get_object(&mut buf, prev_id, grid)?;
            prev_id = o.id;
            objs.push(o);
        }
        match buf.remaining() {
            0 => Ok(objs),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }
}

fn f32_next_up(v: f32) -> f32 {
    if v.is_nan() || v == f32::INFINITY {
        v
    } else if v == 0.0 {
        f32::from_bits(1)
    } else if v > 0.0 {
        f32::from_bits(v.to_bits() + 1)
    } else {
        f32::from_bits(v.to_bits() - 1)
    }
}

fn f32_next_down(v: f32) -> f32 {
    -f32_next_up(-v)
}

/// One axis of an oracle window, as f32 values `min < max`: a quarter
/// grid near the origin, a span of one f32 ulp, a span of a few ulps, or
/// a power-of-two span up to 2²³ spans from the origin.
fn oracle_axis(kind: u64, r: u64) -> (f32, f32) {
    let pick = |n: u64, shift: u32| (r >> shift) % n;
    let magnitude = f32::from_bits((100 + pick(60, 0) as u32) << 23 | pick(1 << 23, 8) as u32);
    let signed = if r >> 63 == 1 { -magnitude } else { magnitude };
    let (min, max) = match kind % 4 {
        0 => {
            let min = (pick(2001, 0) as f32 - 1000.0) * 0.25;
            (min, min + (1 + pick(1000, 16)) as f32 * 0.125)
        }
        1 => (signed, f32_next_up(signed)),
        2 => {
            let ulps = 2 + pick(1000, 40) as u32;
            let bits = signed.abs().to_bits() + ulps;
            (signed.abs(), f32::from_bits(bits))
        }
        _ => {
            let span = 2f32.powi(pick(40, 0) as i32 - 20);
            let min = span * pick(1 << 23, 6) as f32 * if r >> 63 == 1 { -1.0 } else { 1.0 };
            (min, min + span * (1 + pick(4, 30)) as f32)
        }
    };
    (min, if max > min { max } else { f32_next_up(min) })
}

/// A coordinate on `axis` from every class the encoder tells apart: on a
/// cell's dequantized value, one f32 ulp either side of it, off the grid,
/// outside the window, non-finite, or subnormal.
fn oracle_coord(kind: u64, r: u64, (min, max): (f64, f64)) -> f64 {
    let on = reference::dequant(min, max, r as u16) as f32;
    let edge = [min as f32, max as f32][(r >> 16) as usize % 2];
    f64::from(match kind % 10 {
        0 | 1 => on,
        2 => f32_next_up(on),
        3 => f32_next_down(on),
        4 => [edge, f32_next_up(edge), f32_next_down(edge)][(r >> 17) as usize % 3],
        5 => (min + (max - min) * ((r >> 20) % 1_000_003) as f64 / 1_000_003.0) as f32,
        6 => (if r >> 63 == 1 { min } else { max } + (max - min) * ((r >> 20) % 9) as f64) as f32,
        7 => [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][(r >> 16) as usize % 3],
        _ => f32::from_bits((r as u32 & 0x807f_ffff).max(1)),
    })
}

/// Ids whose deltas take every varint length from one byte to five.
fn oracle_id(r: u64) -> u32 {
    (r as u32) >> ((r >> 32) % 32)
}

/// The objects and the window an oracle case is coded against, built from
/// raw draws; boxes keep their min before their max on each axis unless
/// a NaN makes them unordered, and the NaN is kept.
fn oracle_case(window: (u64, u64, u64, u64), draws: &[[u64; 6]]) -> (Rect, Vec<SpatialObject>) {
    let (x, y) = (
        oracle_axis(window.0, window.1),
        oracle_axis(window.2, window.3),
    );
    let win = Rect {
        min: Point::new(x.0.into(), y.0.into()),
        max: Point::new(x.1.into(), y.1.into()),
    };
    let axes = [(win.min.x, win.max.x), (win.min.y, win.max.y)];
    let objs = draws
        .iter()
        .map(|d| {
            let c = |i: usize, axis: usize| oracle_coord(d[i] >> 56, d[i], axes[axis]);
            let (mut x0, mut y0, mut x1, mut y1) = (c(1, 0), c(2, 1), c(3, 0), c(4, 1));
            if d[5] % 3 == 0 {
                (x1, y1) = (x0, y0);
            }
            if x0 > x1 {
                (x0, x1) = (x1, x0);
            }
            if y0 > y1 {
                (y0, y1) = (y1, y0);
            }
            let mbr = Rect {
                min: Point::new(x0, y0),
                max: Point::new(x1, y1),
            };
            SpatialObject::new(oracle_id(d[0]), mbr)
        })
        .collect();
    (win, objs)
}

fn objects_bits(resp: Result<Response, CodecError>) -> Result<Vec<(u32, [u64; 4])>, CodecError> {
    resp.map(|r| r.into_objects().iter().map(bits).collect())
}

/// Holds the record codec to the oracle on one case: the same frame byte
/// for byte; every cut of it, with the grid and without, the same error;
/// and single-byte mutations of its records the same value or error.
fn agrees_with_the_oracle(win: Rect, objs: &[SpatialObject], mutations: u64) -> Result<(), String> {
    let (ctx, grid) = (QuantCtx::new(win), reference::grid(win));
    if ctx.is_some() != grid.is_some() {
        return Err(format!("window {win:?}: grid {ctx:?} vs {grid:?}"));
    }
    let want = reference::encode(objs, grid.as_ref());
    let got = encode_v2(&Response::Objects(objs.to_vec()), ctx.as_ref());
    if got != want {
        return Err(format!("{objs:?} on {win:?}:\n{got:02x?}\n{want:02x?}"));
    }
    let check = |frame: Bytes, what: &str| {
        for (ctx, grid) in [(ctx.as_ref(), grid.as_ref()), (None, None)] {
            let new = objects_bits(decode_response_ctx(frame.clone(), ctx));
            let old = reference::decode(frame.clone(), grid).map(|o| o.iter().map(bits).collect());
            if new != old {
                return Err(format!(
                    "{what} of {want:02x?} on {win:?}: {new:?} vs {old:?}"
                ));
            }
        }
        Ok(())
    };
    for len in 0..=want.len() {
        check(want.slice(0..len), &format!("the {len}-byte cut"))?;
    }
    let mut state = mutations;
    for _ in 0..mutations % 16 {
        if want.len() > 5 {
            let mut frame = want.to_vec();
            let at = 5 + lcg(&mut state) as usize % (want.len() - 5);
            frame[at] = lcg(&mut state) as u8;
            check(Bytes::from(frame), &format!("byte {at} mutated"))?;
        }
    }
    Ok(())
}

/// The oracle's corpus reaches every layout: all eight tags, id deltas of
/// every varint length, and quantized and escaped axes on every window
/// kind — and on all of it the record codec is the oracle.
#[test]
fn the_oracle_corpus_reaches_every_layout_and_agrees() {
    let mut state = 0x0dd5_eed5_u64;
    let mut draw = || lcg(&mut state) << 31 ^ lcg(&mut state);
    let (mut tags, mut delta_lengths) = ([0u32; 8], [0u32; 6]);
    for case in 0..400 {
        let window = (case, draw(), case / 4, draw());
        let draws: Vec<[u64; 6]> = (0..24).map(|_| [(); 6].map(|_| draw())).collect();
        let (win, objs) = oracle_case(window, &draws);
        agrees_with_the_oracle(win, &objs, draw()).unwrap();
        let grid = reference::grid(win);
        let frame = reference::encode(&objs, grid.as_ref());
        let mut at = 5;
        let mut prev_id = 0u32;
        for o in &objs {
            let tag = frame[at];
            tags[usize::from(tag)] += 1;
            let delta = i64::from(o.id) - i64::from(prev_id);
            let zigzag = ((delta << 1) ^ (delta >> 63)) as u64;
            let len = (1..=5).find(|&n| zigzag < 1 << (7 * n)).unwrap();
            delta_lengths[len] += 1;
            let axis = |q: u8| if tag & q != 0 { 2 } else { 4 } * (2 - usize::from(tag & 1));
            at += 1 + len + axis(0x02) + axis(0x04);
            prev_id = o.id;
        }
        assert_eq!(at, frame.len(), "the corpus walk lost its place");
    }
    assert!(tags.iter().all(|&n| n > 20), "tags {tags:?}");
    assert!(
        delta_lengths[1..].iter().all(|&n| n > 20),
        "{delta_lengths:?}"
    );
}

proptest! {
    // The record codec against the byte-at-a-time oracle, on windows from
    // a quarter grid to one f32 ulp wide and up to 2²³ spans from the
    // origin, objects on cells, beside them, off the grid, outside the
    // window, non-finite and subnormal.
    #[test]
    fn the_record_codec_is_the_byte_at_a_time_codec(
        window in (0u64..4, any::<u64>(), 0u64..4, any::<u64>()),
        draws in prop::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())
                .prop_map(|(a, b, c, d, e, f)| [a, b, c, d, e, f]),
            0..24,
        ),
        mutations in any::<u64>(),
    ) {
        let (win, objs) = oracle_case(window, &draws);
        if let Err(diverged) = agrees_with_the_oracle(win, &objs, mutations) {
            prop_assert!(false, "{}", diverged);
        }
    }
}
