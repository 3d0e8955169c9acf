//! `WIRE.md` cannot drift from the codec: every hex example in the
//! document is parsed, decoded, re-encoded to the same bytes and mutated;
//! every `rejected` line must fail to decode; every test the document
//! names as enforcing a scenario must exist.

use asj_net::codec::{
    decode_request_versioned, decode_response_gen_ctx, encode_request_versioned,
    encode_response_versioned, garble_frame, peel_dedup, stamp_generation_versioned, wrap_dedup,
    QuantCtx, WireVersion,
};
use asj_net::Request;
use bytes::{Bytes, BytesMut};

const SPEC: &str = include_str!("../WIRE.md");

/// The frames of one ```` ```wire ```` block: per line the label, then
/// every even-length hex token up to the first token that is not one (the
/// `;` of a comment); a line that opens with hex continues the frame
/// above it.
fn frames(block: &str) -> Vec<(&str, Bytes)> {
    let is_hex = |t: &&str| t.len() % 2 == 0 && t.bytes().all(|b| b.is_ascii_hexdigit());
    let mut frames: Vec<(&str, Vec<u8>)> = Vec::new();
    for line in block.lines() {
        let mut tokens = line.split_whitespace().peekable();
        if let Some(label) = tokens.next_if(|t| !is_hex(t)) {
            frames.push((label, Vec::new()));
        }
        let (_, frame) = frames.last_mut().expect("a block opens with a label");
        for t in tokens.take_while(is_hex) {
            let pairs = (0..t.len()).step_by(2);
            frame.extend(pairs.map(|i| u8::from_str_radix(&t[i..i + 2], 16).unwrap()));
        }
    }
    frames
        .into_iter()
        .map(|(label, frame)| (label, Bytes::from(frame)))
        .collect()
}

/// Every ```` ```wire ```` block of the document.
fn blocks() -> Vec<&'static str> {
    let fenced = SPEC.split("```wire\n").skip(1);
    fenced
        .map(|rest| rest.split("```").next().expect("a closing fence"))
        .collect()
}

/// No reading of `frame` yields a value: not as a request, not as a
/// response against `ctx`.
fn rejected(frame: &Bytes, ctx: Option<&QuantCtx>) -> bool {
    decode_request_versioned(frame.clone()).is_err()
        && decode_response_gen_ctx(frame.clone(), ctx).is_err()
}

/// The mutations every example is put through: each strict prefix, a byte
/// appended, byte 0 overwritten with the garble marker.
fn mutations_are_rejected(label: &str, frame: &Bytes, ctx: Option<&QuantCtx>) {
    for cut in 0..frame.len() {
        assert!(
            rejected(&frame.slice(0..cut), ctx),
            "{label}: its {cut}-byte prefix decodes"
        );
    }
    let padded = Bytes::from([frame.as_slice(), &[0]].concat());
    assert!(
        rejected(&padded, ctx),
        "{label}: decodes with a byte behind it"
    );
    assert!(
        rejected(&garble_frame(frame), ctx),
        "{label}: decodes garbled"
    );
}

#[test]
fn every_hex_example_decodes_reencodes_and_rejects_its_mutations() {
    let (mut examples, mut refusals) = (0, 0);
    for block in blocks() {
        // The exchange a `response` line answers: the request above it.
        let mut asked: Option<(Request, WireVersion)> = None;
        for (label, frame) in frames(block) {
            let shown = format!("{label} {frame:02X?}");
            match label {
                "request" => {
                    let (req, wire) = decode_request_versioned(frame.clone()).expect(&shown);
                    assert_eq!(encode_request_versioned(&req, wire), frame, "{shown}");
                    mutations_are_rejected(&shown, &frame, None);
                    asked = Some((req, wire));
                }
                "response" => {
                    let (req, wire) = asked.as_ref().expect("a response follows a request");
                    let ctx = QuantCtx::for_request(req);
                    let (resp, generation) =
                        decode_response_gen_ctx(frame.clone(), ctx.as_ref()).expect(&shown);
                    assert!(req.admits(&resp), "{shown} does not answer {req:?}");
                    let mut buf = BytesMut::new();
                    stamp_generation_versioned(generation, *wire, &mut buf);
                    encode_response_versioned(&resp, *wire, ctx.as_ref(), &mut buf);
                    assert_eq!(buf.freeze(), frame, "{shown}");
                    mutations_are_rejected(&shown, &frame, ctx.as_ref());
                }
                "dedup" => {
                    let (tag, body) = peel_dedup(&frame).expect(&shown);
                    let (req, wire) = decode_request_versioned(body.clone()).expect(&shown);
                    assert!(matches!(req, Request::ApplyUpdates(_)), "{shown}");
                    assert_eq!(encode_request_versioned(&req, wire), body, "{shown}");
                    assert_eq!(wrap_dedup(tag, &body), frame, "{shown}");
                }
                "rejected" => {
                    assert!(rejected(&frame, None), "{shown} decodes");
                    refusals += 1;
                    continue;
                }
                other => panic!("unknown label {other:?} in a wire block"),
            }
            examples += 1;
        }
    }
    assert!(examples >= 40, "only {examples} examples were found");
    assert!(refusals >= 8, "only {refusals} rejected frames were found");
}

/// `Enforced by:` names tests as `suite::test` (an integration suite of
/// `crates/net/tests/`) or `module::tests::test` (a unit test of
/// `crates/net/src/`). Each must exist, or the spec's claim is hollow.
#[test]
fn every_test_the_spec_names_exists() {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut named = 0;
    for (i, part) in SPEC.split('`').enumerate() {
        // Odd parts are the insides of code spans.
        let path: Vec<&str> = part.split("::").collect();
        let file = match path[..] {
            [suite, _] if i % 2 == 1 && (suite.ends_with("_props") || suite == "golden") => {
                format!("{root}/crates/net/tests/{suite}.rs")
            }
            [module, "tests", _] if i % 2 == 1 => format!("{root}/crates/net/src/{module}.rs"),
            _ => continue,
        };
        let test = path.last().expect("a name");
        let source = std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(
            source.contains(&format!("fn {test}(")),
            "WIRE.md names `{part}`, and {file} has no such test"
        );
        named += 1;
    }
    assert!(named >= 15, "only {named} enforcing tests were named");
}
