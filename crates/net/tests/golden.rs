//! Byte identity of the wire format, pinned by data.
//!
//! `frames.golden` holds one line per frame — `label hex hash` — written
//! by the codec of the commit *before* the frame layouts were folded into
//! one field walk per kind (`ASJ_WRITE_GOLDEN=1 cargo test -p asj-net
//! --test golden` rewrites it; do that only when the wire format is meant
//! to change). `hash` is the FNV-1a of the `Debug` form of what that
//! codec decoded the bytes to. The corpus below regenerates the same
//! seeded values, and the test holds the codec of this commit to the
//! file: same bytes out, same value back, the published size functions
//! equal to the frame lengths, and `wire_exact` equal to a round trip.
//!
//! Request kind 4 and response kind 2 were the batched COUNT and its
//! answers, since retired (`WIRE.md`, "Reserved opcodes"). Their values
//! are still drawn from the generator, so every other frame comes out as
//! recorded, but they make no entry.

use asj_geom::{Point, Rect, SpatialObject};
use asj_net::codec::{
    decode_request_versioned, decode_response_gen_ctx, encode_request_versioned,
    encode_response_versioned, peel_dedup, request_wire_bytes, response_wire_bytes,
    stamp_generation_versioned, wire_exact, wrap_dedup, DedupTag, QuantCtx, WireVersion,
    DEDUP_HEADER_BYTES, GEN_STAMP_BYTES,
};
use asj_net::{DeltaOp, Request, Response, Update};
use bytes::{Bytes, BytesMut};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/frames.golden");

/// Knuth's MMIX LCG: the corpus replays from its seed on every host.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A coordinate from every class the encoders branch on: grid-aligned
    /// values inside the quantisation window (cells), f32-exact values
    /// off the grid and outside it (escapes), and `f64`s no `f32` holds
    /// (rounded on the wire first).
    fn coord(&mut self) -> f64 {
        let k = self.below(2001) as f64 - 1000.0;
        match self.below(5) {
            0 => (self.below(33) as f64) * 0.5,
            1 => f64::from((k * 0.37) as f32),
            2 => k * 0.123_456_789,
            3 => k * 1.0e6,
            _ => self.below(17) as f64,
        }
    }

    fn rect(&mut self) -> Rect {
        let (a, b) = (
            Point::new(self.coord(), self.coord()),
            Point::new(self.coord(), self.coord()),
        );
        match self.below(3) {
            0 => Rect::point(a),
            _ => Rect::new(a, b),
        }
    }

    fn id(&mut self) -> u32 {
        match self.below(3) {
            0 => self.below(50) as u32,
            1 => self.below(1 << 20) as u32,
            _ => self.next() as u32 ^ ((self.next() as u32) << 16),
        }
    }

    fn object(&mut self) -> SpatialObject {
        SpatialObject::new(self.id(), self.rect())
    }

    fn eps(&mut self) -> f64 {
        [0.0, 0.5, 0.1, 2.75, 1.0e3][self.below(5) as usize]
    }

    fn count(&mut self) -> u64 {
        match self.below(4) {
            0 => self.below(100),
            1 => self.below(1 << 20),
            2 => self.next() << 31 | self.next(),
            _ => u64::MAX - self.below(3),
        }
    }

    fn list<T>(&mut self, max: u64, mut each: impl FnMut(&mut Self) -> T) -> Vec<T> {
        (0..self.below(max + 1)).map(|_| each(self)).collect()
    }
}

const REQUEST_KINDS: usize = 10;
const RESPONSE_KINDS: usize = 11;

/// The `kind`-th request, or none for the retired kind (its values drawn
/// all the same).
fn request(kind: usize, g: &mut Lcg) -> Option<Request> {
    Some(match kind {
        0 => Request::Window(g.rect()),
        1 => Request::Count(g.rect()),
        2 => Request::EpsRange {
            q: g.rect(),
            eps: g.eps(),
        },
        3 => Request::BucketEpsRange {
            probes: g.list(4, Lcg::object),
            eps: g.eps(),
        },
        4 => {
            g.list(5, Lcg::rect);
            return None;
        }
        5 => Request::CoopLevelMbrs(g.below(256) as u8),
        6 => Request::CoopFilterByMbrs {
            mbrs: g.list(4, Lcg::rect),
            eps: g.eps(),
        },
        7 => Request::CoopJoinPush {
            objects: g.list(4, Lcg::object),
            eps: g.eps(),
        },
        8 => Request::ApplyUpdates(g.list(5, update)),
        _ => Request::Changes { since: g.count() },
    })
}

fn update(g: &mut Lcg) -> Update {
    match g.below(3) {
        0 => Update::Insert(g.object()),
        1 => Update::Delete(g.id()),
        _ => Update::Move {
            id: g.id(),
            to: g.rect(),
        },
    }
}

/// An object on the corners and edges of `w` — the coordinates that
/// travel as grid cells on a v2 link (cell 0 and cell 65535 are exact by
/// construction; the midpoint falls between cells and escapes).
fn edge_object(g: &mut Lcg, w: &Rect) -> SpatialObject {
    let mut pick = |lo: f64, hi: f64| [lo, hi, (lo + hi) / 2.0][g.below(3) as usize];
    let a = Point::new(pick(w.min.x, w.max.x), pick(w.min.y, w.max.y));
    let b = Point::new(pick(w.min.x, w.max.x), pick(w.min.y, w.max.y));
    let mbr = match g.below(2) {
        0 => Rect::point(a),
        _ => Rect::new(a, b),
    };
    SpatialObject::new(g.id(), mbr)
}

/// The `kind`-th response, or none for the retired kind (its values
/// drawn all the same).
fn response(kind: usize, window: Option<Rect>, g: &mut Lcg) -> Option<Response> {
    Some(match kind {
        0 => Response::Objects(g.list(5, |g| match window {
            Some(w) if g.below(2) == 0 => edge_object(g, &w),
            _ => g.object(),
        })),
        1 => Response::Count(g.count()),
        2 => {
            g.list(5, Lcg::count);
            return None;
        }
        3 => Response::Buckets(g.list(3, |g| g.list(3, Lcg::object))),
        4 => Response::Rects(g.list(5, Lcg::rect)),
        5 => Response::Pairs(g.list(5, |g| (g.id(), g.id()))),
        6 => Response::Refused,
        7 => Response::Ack {
            generation: g.count(),
        },
        8 => Response::Changes(g.list(4, |g| {
            let o = g.object();
            match g.below(2) {
                0 => DeltaOp::Add(o),
                _ => DeltaOp::Remove {
                    id: o.id,
                    mbr: o.mbr,
                },
            }
        })),
        9 => Response::Malformed,
        _ => Response::Unavailable,
    })
}

/// One frame of the corpus with what it takes to read it back.
enum Entry {
    Req {
        req: Request,
        wire: WireVersion,
        tag: Option<DedupTag>,
    },
    Resp {
        resp: Response,
        wire: WireVersion,
        window: Option<Rect>,
        generation: u64,
    },
}

fn corpus() -> Vec<(String, Entry)> {
    let mut g = Lcg(0x005e_edf4_a3e5);
    let mut out = Vec::new();
    let wires = [("v1", WireVersion::V1), ("v2", WireVersion::V2)];
    for round in 0..12 {
        for kind in 0..REQUEST_KINDS {
            for (name, wire) in wires {
                let Some(req) = request(kind, &mut g) else {
                    continue;
                };
                out.push((
                    format!("req/{kind}/{name}/{round}"),
                    Entry::Req {
                        req,
                        wire,
                        tag: None,
                    },
                ));
            }
        }
        for (name, wire) in wires {
            let tag = DedupTag {
                nonce: g.count(),
                seq: g.count(),
            };
            let req = request(8, &mut g).expect("an update batch");
            out.push((
                format!("dedup/{name}/{round}"),
                Entry::Req {
                    req,
                    wire,
                    tag: Some(tag),
                },
            ));
        }
    }
    // The window of a v2 object frame: the 16×16 square the grid-aligned
    // coordinates fall in, a sliver most of them miss, or none at all.
    let windows = [
        ("nogrid", None),
        ("grid", Some(Rect::from_coords(0.0, 0.0, 16.0, 16.0))),
        ("sliver", Some(Rect::from_coords(2.0, 3.0, 2.5, 11.0))),
    ];
    for round in 0..8 {
        for kind in 0..RESPONSE_KINDS {
            for (name, wire) in wires {
                for (wname, window) in windows {
                    if (wire == WireVersion::V1 || kind != 0) && window.is_some() {
                        continue;
                    }
                    let stamps = [0, 1 + g.below(1000), (1 << 63) + g.count() / 2];
                    for (s, generation) in stamps.into_iter().enumerate() {
                        let Some(resp) = response(kind, window, &mut g) else {
                            continue;
                        };
                        out.push((
                            format!("resp/{kind}/{name}/{wname}/{s}/{round}"),
                            Entry::Resp {
                                resp,
                                wire,
                                window,
                                generation,
                            },
                        ));
                    }
                }
            }
        }
    }
    out
}

fn encode(entry: &Entry) -> Bytes {
    match entry {
        Entry::Req { req, wire, tag } => {
            let frame = encode_request_versioned(req, *wire);
            tag.map_or(frame.clone(), |tag| wrap_dedup(tag, &frame))
        }
        Entry::Resp {
            resp,
            wire,
            window,
            generation,
        } => {
            let ctx = window.and_then(QuantCtx::new);
            let mut buf = BytesMut::new();
            stamp_generation_versioned(*generation, *wire, &mut buf);
            encode_response_versioned(resp, *wire, ctx.as_ref(), &mut buf);
            buf.freeze()
        }
    }
}

/// The `Debug` form of what `bytes` decodes to, envelope included.
fn decode(entry: &Entry, bytes: Bytes) -> String {
    match entry {
        Entry::Req { tag: None, .. } => format!("{:?}", decode_request_versioned(bytes)),
        Entry::Req { .. } => {
            let (tag, body) = peel_dedup(&bytes).expect("a dedup envelope");
            format!("{tag:?} {:?}", decode_request_versioned(body))
        }
        Entry::Resp { window, .. } => {
            let ctx = window.and_then(QuantCtx::new);
            format!("{:?}", decode_response_gen_ctx(bytes, ctx.as_ref()))
        }
    }
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Bytes {
    let pairs = (0..s.len()).step_by(2);
    Bytes::from(
        pairs
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
            .collect::<Vec<u8>>(),
    )
}

/// The length the published size functions give `entry`'s frame, for
/// every layout they cover: all requests, and every response but the three
/// compact v2 ones (whose length depends on the values).
fn sized(entry: &Entry) -> Option<u64> {
    match entry {
        Entry::Req { req, wire, tag } => {
            let mark = u64::from(*wire == WireVersion::V2);
            let envelope = tag.map_or(0, |_| DEDUP_HEADER_BYTES);
            Some(envelope + mark + request_wire_bytes(req))
        }
        Entry::Resp {
            resp,
            wire,
            generation,
            ..
        } => {
            let compact = matches!(
                resp,
                Response::Objects(_) | Response::Count(_) | Response::Ack { .. }
            );
            let mut stamp = BytesMut::new();
            stamp_generation_versioned(*generation, *wire, &mut stamp);
            if *wire == WireVersion::V1 && *generation > 0 {
                assert_eq!(stamp.len() as u64, GEN_STAMP_BYTES);
            }
            (*wire == WireVersion::V1 || !compact)
                .then(|| stamp.len() as u64 + response_wire_bytes(resp))
        }
    }
}

#[test]
fn every_golden_frame_encodes_decodes_and_sizes_as_recorded() {
    let corpus = corpus();
    if std::env::var_os("ASJ_WRITE_GOLDEN").is_some() {
        let lines = corpus.iter().map(|(label, entry)| {
            let bytes = encode(entry);
            let hash = fnv1a(&decode(entry, bytes.clone()));
            format!("{label} {} {hash:016x}\n", hex(&bytes))
        });
        std::fs::write(GOLDEN, lines.collect::<String>()).expect("write the golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("tests/frames.golden is committed");
    let lines: Vec<&str> = golden.lines().collect();
    assert!(lines.len() >= 600, "only {} golden frames", lines.len());
    assert_eq!(lines.len(), corpus.len(), "corpus and file are out of step");
    let mut sized_frames = 0;
    for (line, (label, entry)) in lines.iter().zip(&corpus) {
        let mut cols = line.split(' ');
        let (name, want_hex, want_hash) = (
            cols.next().expect("label"),
            cols.next().expect("hex"),
            cols.next().expect("hash"),
        );
        assert_eq!(name, label, "corpus and file are out of step");
        let bytes = encode(entry);
        assert_eq!(hex(&bytes), want_hex, "{label}: encoded bytes moved");
        let decoded = decode(entry, unhex(want_hex));
        assert_eq!(
            format!("{:016x}", fnv1a(&decoded)),
            want_hash,
            "{label}: decodes to a different value: {decoded}"
        );
        if let Some(size) = sized(entry) {
            assert_eq!(size, bytes.len() as u64, "{label}: published size");
            sized_frames += 1;
        }
        if let Entry::Req {
            req,
            wire,
            tag: None,
        } = entry
        {
            let back = decode_request_versioned(bytes).expect("a valid frame");
            assert_eq!(back, (wire_exact(req), *wire), "{label}: wire_exact");
        }
    }
    assert!(sized_frames >= 450, "only {sized_frames} frames were sized");
}
