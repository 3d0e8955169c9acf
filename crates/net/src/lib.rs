//! # asj-net — the simulated wireless link
//!
//! The paper's metric is **total transferred bytes** between the PDA and the
//! two servers, under telecom per-byte pricing. This crate reproduces that
//! substrate:
//!
//! * [`PacketModel`] — Equation (1) of the paper:
//!   `TB(B) = B + BH·⌈B/(MTU−BH)⌉`, the bytes a B-byte payload occupies on
//!   the wire once TCP/IP headers (BH = 40) and the MTU are accounted for;
//! * [`proto`] — the request/response protocol of a *non-cooperative*
//!   spatial server (`WINDOW`, `COUNT`, `ε-RANGE`, bucket ε-RANGE) plus
//!   the cooperative extension used only by the SemiJoin baseline;
//! * [`codec`] — a compact binary wire format (`Bobj` = 20 bytes/object,
//!   mirroring the paper's constant object size);
//! * [`LinkMeter`] — atomically counts uplink/downlink wire bytes and query
//!   mix per link; *this is where every reported number comes from*. Its
//!   counters, the cache's and the fault layer's are each declared once,
//!   one line per field, in [`meter`]'s telemetry lists;
//! * [`transport`] — RPC over one in-process carrier, served at the call
//!   on the calling thread: bare (fast, used by the experiment sweeps) or
//!   gauged, with per-endpoint [`EndpointStats`] (a deployment built
//!   `.threaded()` or `.event_loop()` gauges every server);
//! * [`router`] — the **scatter-gather extension**: a [`ShardRouter`]
//!   makes a fleet of shard servers look like one — pruning by advertised
//!   bounds, sub-batching, merging, metering per replica, per shard and in
//!   aggregate — and is wire-identical to a flat deployment at N = 1;
//! * [`cache`] — the **client-cache extension**: a [`CacheLayer`] answers
//!   repeated `COUNT`s and ε-RANGE probes and contained `WINDOW`/ε-RANGE
//!   requests locally, every entry at one content generation that a
//!   `Changes` exchange carries over a live update. Gated by [`NetConfig::client_cache`], **off by default**
//!   (off ⇒ byte-identical wire traffic), tallied in a [`CacheSnapshot`];
//! * [`fault`] — the **deterministic fault injector**: a [`FaultLayer`]
//!   replays scripted drops, garbled frames and crash-then-restart
//!   windows from a seeded [`FaultPlan`]; pairs with the
//!   [`packet::RetryPolicy`] retry discipline (off by default — off ⇒
//!   byte-identical wire traffic);
//! * [`health`] — the **replica failover extension**: per-replica-edge
//!   circuit breakers on an exchange-counted clock and the generation
//!   floor that keeps failover from serving stale state. Gated by
//!   [`NetConfig::breaker`] / replica count, **off by default**;
//! * the **generation stamp** — servers answering from a generation > 0
//!   prefix every response frame with the generation stamp of the
//!   link's wire version ([`codec::stamp_generation_versioned`]);
//!   generation-0 (frozen) traffic stays bit-for-bit the pre-generation
//!   wire format.
//!
//! The byte-level contract of all of the above — every frame's layout,
//! with examples a test decodes — is `WIRE.md` at the repository root.
//!
//! Every message — including the queries themselves, as the paper insists —
//! is packetized and metered.
//!
//! # The link stack
//!
//! ```text
//! Link → [CacheLayer] → [ShardRouter] → Edge → [FaultLayer] → carrier
//! ```
//!
//! One rule: **every layer answers one request; bytes still exist only
//! below the edge.** `Link`, `CacheLayer` and `ShardRouter` hand each
//! other one typed request at a time and get one `(response, serving
//! generation)` pair back ([`Link::request`]; a batch,
//! [`Link::request_many`], is its requests issued in turn — there is no
//! second path). The cache answers what it holds and forwards the rest;
//! the router settles a request on every shard it reaches. Below that, a
//! carrier ships one frame per exchange ([`RawExchange::exchange`]) and
//! serves it at the call, on the calling thread. The physical edge
//! (`edge.rs`) is who frames (wire version, dedup envelope), meters,
//! judges a reply ok / `Unavailable` / `Malformed` and retries — once
//! per physical exchange, in one copy. A flat link has one edge, which
//! frames, ships and settles a request, retries included; a fleet has
//! one per replica, driven by the router's settle loop through the same
//! frame / exchange / judge steps.
//! Every layer is built whole from the deployment's [`NetConfig`]
//! — the packet model, the wire version, the retry discipline, and for
//! a router its breakers and partial-result tolerance — so every edge
//! speaks its deployment's version from its first frame and nothing is
//! set on a layer after it is built.
//!
//! So a flat, cached or routed link's batch is its requests under every
//! fault plan, breakers on or off: same frames in the same order, same
//! fault rolls, same bytes, same cache hits. And above the edge a
//! request allocates its frames and its answer, nothing else
//! (`tests/alloc_budget.rs` pins it).

pub mod cache;
pub mod codec;
mod edge;
pub mod fault;
mod few;
pub mod health;
pub mod meter;
pub mod packet;
pub mod proto;
pub mod router;
pub mod transport;

/// Test support: one linear-scan [`QueryHandler`] oracle with the
/// reference server semantics for the primitive (non-cooperative)
/// queries, shared by this crate's unit and integration suites so there
/// is a single copy to keep in lockstep with the real server.
#[doc(hidden)]
pub mod testutil {
    use asj_geom::SpatialObject;

    use crate::proto::{QueryHandler, Request, Response};

    /// Scan-backed handler: O(n) everything, cooperative queries refused.
    pub struct ScanHandler(pub Vec<SpatialObject>);

    impl QueryHandler for ScanHandler {
        fn handle(&self, req: Request) -> Response {
            match req {
                Request::Window(w) => Response::Objects(
                    self.0
                        .iter()
                        .filter(|o| o.mbr.intersects(&w))
                        .copied()
                        .collect(),
                ),
                Request::Count(w) => {
                    Response::Count(self.0.iter().filter(|o| o.mbr.intersects(&w)).count() as u64)
                }
                Request::EpsRange { q, eps } => Response::Objects(
                    self.0
                        .iter()
                        .filter(|o| o.mbr.within_distance(&q, eps))
                        .copied()
                        .collect(),
                ),
                Request::BucketEpsRange { probes, eps } => Response::Buckets(
                    probes
                        .iter()
                        .map(|p| {
                            self.0
                                .iter()
                                .filter(|o| o.mbr.within_distance(&p.mbr, eps))
                                .copied()
                                .collect()
                        })
                        .collect(),
                ),
                _ => Response::Refused,
            }
        }
    }
}

pub use cache::{CacheLayer, CacheView, ClientCache};
pub use fault::{CrashPlan, FaultLayer, FaultPlan, FaultStats};
pub use health::{BreakerConfig, BreakerState, EdgeHealth, HealthSnapshot, ReplicaSetHealth};
pub use meter::{CacheSnapshot, LinkMeter, LinkSnapshot};
pub use packet::{NetConfig, PacketModel, RetryPolicy};
pub use proto::{DeltaOp, QueryHandler, Request, Response, Update};
pub use router::{FleetSnapshot, ShardEndpoint, ShardMeta, ShardRouter, ShardTelemetry};
pub use transport::{EndpointStats, Link, RawExchange};
