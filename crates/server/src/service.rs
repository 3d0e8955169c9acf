//! The request handler a server exposes over the network.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use asj_geom::{IdMix, ObjectId};
use asj_net::codec::{DedupTag, ObjectsEncoder, QuantCtx, WireVersion};
use asj_net::{QueryHandler, Request, Response};
use bytes::BytesMut;

use crate::store::SpatialStore;

/// Cooperation policy (paper, Sections 1 and 5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServicePolicy {
    /// The realistic default: only the primitive query set is answered;
    /// cooperative requests get [`Response::Refused`].
    #[default]
    NonCooperative,
    /// Enables the SemiJoin baseline's extension (level MBRs, semi-join
    /// filter, server-side final join). Used only for Figure 8(b).
    Cooperative,
}

/// A spatial service: one dataset, one store, one policy.
///
/// `handle` is `&self` and the store is immutable, so one service instance
/// can serve any number of connections concurrently; the channel server in
/// `asj-net` relies on that.
pub struct SpatialService<S: SpatialStore> {
    store: Arc<S>,
    policy: ServicePolicy,
    /// At-most-once table of the retry-dedup envelope: sender nonce →
    /// (last applied batch seq, the generation its Ack carried). A
    /// duplicated delivery replays the remembered Ack instead of
    /// re-applying, so a retried batch can never double-bump the
    /// generation or double-apply a move.
    dedup: Mutex<HashMap<u64, (u64, u64)>>,
}

impl<S: SpatialStore> SpatialService<S> {
    /// Non-cooperative service over `store`.
    pub fn new(store: S) -> Self {
        SpatialService {
            store: Arc::new(store),
            policy: ServicePolicy::NonCooperative,
            dedup: Mutex::new(HashMap::new()),
        }
    }

    /// Sets the cooperation policy.
    pub fn with_policy(mut self, policy: ServicePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<S> {
        &self.store
    }

    /// Dispatches an update batch — handled **before** a snapshot is
    /// pinned (it creates the next one), and never stamped: the Ack's
    /// payload already *is* the generation.
    fn apply(&self, batch: &[asj_net::Update]) -> Response {
        match self.store.apply_updates(batch) {
            Some(generation) => Response::Ack { generation },
            None => Response::Refused,
        }
    }

    /// Answers `Changes { since }` — like an update, outside any pinned
    /// snapshot (the log belongs to the live store, not to a generation)
    /// — with the generation the ops reach, which is the reply's stamp.
    fn changes(&self, since: u64) -> (Response, u64) {
        match self.store.changes_since(since) {
            Some((reached, ops)) => (Response::Changes(ops), reached),
            None => (Response::Refused, self.store.generation()),
        }
    }
}

/// Answers one query against a pinned store snapshot — the full dispatch,
/// shared by [`QueryHandler::handle`] and the zero-copy `handle_into`
/// (which overrides only the object-streaming arms). `ApplyUpdates` and
/// `Changes` never reach this: they are dispatched before the snapshot is
/// pinned.
///
/// The two cooperative arms probe the index they are standing on: one
/// ε-RANGE visit per shipped item, nothing materialised in between.
/// `CoopFilterByMbrs` replies in first-seen order — shipped MBR order, then
/// the store's visit order — and `CoopJoinPush` with `(pushed_id, local_id)`
/// in pushed order, then the store's visit order (tree order on an R-tree).
/// [`crate::ScanStore`]'s visitor is linear, so the reference store answers
/// a push in |pushed| × n; it serves no workload.
fn answer(store: &dyn SpatialStore, policy: ServicePolicy, req: Request) -> Response {
    if req.is_cooperative() && policy == ServicePolicy::NonCooperative {
        return Response::Refused;
    }
    match req {
        Request::Window(w) => Response::Objects(store.window(&w)),
        Request::Count(w) => Response::Count(store.count(&w)),
        Request::EpsRange { q, eps } => Response::Objects(store.eps_range(&q, eps)),
        Request::BucketEpsRange { probes, eps } => {
            // One ε-RANGE per probe, in probe order, on the calling thread.
            let ranges = probes.iter().map(|p| store.eps_range(&p.mbr, eps));
            Response::Buckets(ranges.collect())
        }
        Request::MultiCount(windows) => {
            // Batched statistics: one COUNT per window, answered in
            // probe order from the same store path as single COUNTs.
            Response::Counts(windows.iter().map(|w| store.count(w)).collect())
        }
        Request::CoopLevelMbrs(level) => match store.level_mbrs(level as usize) {
            Some(mbrs) => Response::Rects(mbrs),
            None => Response::Refused,
        },
        Request::CoopFilterByMbrs { mbrs, eps } => {
            // Objects within eps of ANY of the shipped MBRs, each once.
            let mut seen: HashSet<ObjectId, IdMix> = HashSet::default();
            let mut out = Vec::new();
            for m in &mbrs {
                store.for_each_eps_range(m, eps, &mut |o| {
                    if seen.insert(o.id) {
                        out.push(*o);
                    }
                });
            }
            Response::Objects(out)
        }
        Request::CoopJoinPush { objects, eps } => {
            // Final join at the server: pushed (outer) × local (inner).
            // `eps > 0` is the ε-distance join; anything else — zero,
            // negative, NaN — is the closed intersection join, ε = 0.
            let eps = if eps > 0.0 { eps } else { 0.0 };
            let mut pairs = Vec::new();
            for o in &objects {
                store.for_each_eps_range(&o.mbr, eps, &mut |local| pairs.push((o.id, local.id)));
            }
            Response::Pairs(pairs)
        }
        Request::ApplyUpdates(_) | Request::Changes { .. } => {
            unreachable!("dispatched before pinning")
        }
    }
}

impl<S: SpatialStore> QueryHandler for SpatialService<S> {
    /// The at-most-once check behind the retry-dedup envelope. Holding the
    /// table lock across the apply serializes tagged batches, so two
    /// concurrent deliveries of the same `(nonce, seq)` can never both
    /// miss the table and double-apply. Refusals are not recorded — a
    /// frozen store's refusal is stateless and safely repeatable.
    fn handle_tagged_updates(&self, tag: DedupTag, updates: Vec<asj_net::Update>) -> Response {
        let mut table = self.dedup.lock().expect("dedup lock poisoned");
        match table.get(&tag.nonce) {
            Some(&(last_seq, last_gen)) if tag.seq == last_seq => {
                // Duplicate delivery of the batch just applied: replay its
                // remembered Ack.
                return Response::Ack {
                    generation: last_gen,
                };
            }
            Some(&(last_seq, _)) if tag.seq < last_seq => {
                // A straggler retry of a batch superseded by later ones.
                // Its sender moved on (the original delivery was either
                // acknowledged or abandoned); re-applying now would
                // reorder history, so refuse.
                return Response::Refused;
            }
            _ => {}
        }
        let resp = self.apply(&updates);
        if let Response::Ack { generation } = resp {
            table.insert(tag.nonce, (tag.seq, generation));
        }
        resp
    }

    fn handle(&self, req: Request) -> Response {
        match req {
            Request::ApplyUpdates(batch) => return self.apply(&batch),
            Request::Changes { since } => return self.changes(since).0,
            _ => {}
        }
        let mut req = Some(req);
        let mut out = None;
        self.store.with_frozen(&mut |store, _generation| {
            let req = req.take().expect("with_frozen invokes exactly once");
            out = Some(answer(store, self.policy, req));
        });
        out.expect("with_frozen must invoke its closure")
    }

    /// The zero-copy serving path for the hot object-shipping queries:
    /// `WINDOW` and `ε-RANGE` answers are encoded **directly into the wire
    /// buffer** by the store's visitor — no intermediate object `Vec`, no
    /// `Response`, one store traversal and no COUNT: the frame's count is
    /// patched in after the pass. Both carriers serve into a reused buffer,
    /// so there is nothing to pre-size. Byte-identical to the
    /// materializing default (differentially tested in
    /// `tests/zero_copy.rs`).
    /// Every frame served from a generation > 0 is prefixed with the
    /// generation stamp **inside the same pinned-snapshot closure** that
    /// answers, so the stamp can never disagree with the snapshot that
    /// produced the payload. Generation 0 stamps nothing: frozen-store
    /// traffic is bit-identical to the pre-generation wire format. Ack
    /// frames are never stamped (the payload already is the generation);
    /// a `Changes` answer is stamped with the generation its ops reach.
    /// The same single-traversal path serves both wire versions: the
    /// encoder is parameterized by the negotiated [`WireVersion`] and, on
    /// v2, the request's quantization grid.
    fn handle_into(&self, req: Request, wire: WireVersion, buf: &mut BytesMut) {
        match req {
            Request::ApplyUpdates(batch) => {
                let ack = self.apply(&batch);
                return asj_net::codec::encode_response_versioned(&ack, wire, None, buf);
            }
            Request::Changes { since } => {
                let (resp, reached) = self.changes(since);
                asj_net::codec::stamp_generation_versioned(reached, wire, buf);
                return asj_net::codec::encode_response_versioned(&resp, wire, None, buf);
            }
            _ => {}
        }
        // Derived from the *decoded* request — the post-f32-rounding
        // rectangle — so client and server agree on the grid bit-for-bit.
        let ctx = QuantCtx::for_wire(&req, wire);
        let mut req = Some(req);
        self.store.with_frozen(&mut |store, generation| {
            asj_net::codec::stamp_generation_versioned(generation, wire, buf);
            match req.take().expect("with_frozen invokes exactly once") {
                Request::Window(w) => {
                    let mut enc = ObjectsEncoder::new_versioned(buf, wire, ctx);
                    store.for_each_in_window(&w, &mut |o| enc.push(o));
                    enc.finish();
                }
                Request::EpsRange { q, eps } => {
                    let mut enc = ObjectsEncoder::new_versioned(buf, wire, ctx);
                    store.for_each_eps_range(&q, eps, &mut |o| enc.push(o));
                    enc.finish();
                }
                // Everything else is either scalar (nothing to stream) or
                // cold (cooperative/bucket paths); the materializing
                // default stays the single source of semantics for those.
                other => asj_net::codec::encode_response_versioned(
                    &answer(store, self.policy, other),
                    wire,
                    ctx.as_ref(),
                    buf,
                ),
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{RTreeStore, ScanStore};
    use asj_geom::sweep::nested_loop_join;
    use asj_geom::{JoinPredicate, Rect, SpatialObject};

    fn lattice(n: u32) -> Vec<SpatialObject> {
        (0..n * n)
            .map(|i| SpatialObject::point(i, (i % n) as f64, (i / n) as f64))
            .collect()
    }

    #[test]
    fn primitive_queries_served() {
        let svc = SpatialService::new(ScanStore::new(lattice(10)));
        let w = Rect::from_coords(0.0, 0.0, 2.0, 2.0);
        assert_eq!(svc.handle(Request::Count(w)).into_count(), 9);
        assert_eq!(svc.handle(Request::Window(w)).into_objects().len(), 9);
        let objs = svc
            .handle(Request::EpsRange {
                q: Rect::point(asj_geom::Point::new(5.0, 5.0)),
                eps: 1.0,
            })
            .into_objects();
        assert_eq!(objs.len(), 5); // center + 4 axis neighbours
    }

    #[test]
    fn multi_count_matches_single_counts_on_both_stores() {
        let windows = vec![
            Rect::from_coords(0.0, 0.0, 2.0, 2.0),
            Rect::from_coords(3.5, 3.5, 6.5, 6.5),
            Rect::from_coords(50.0, 50.0, 60.0, 60.0), // empty
            Rect::from_coords(-5.0, -5.0, 20.0, 20.0), // everything
        ];
        let scan = SpatialService::new(ScanStore::new(lattice(10)));
        let tree = SpatialService::new(RTreeStore::with_fanout(lattice(10), 4));
        for svc in [
            &scan as &dyn asj_net::QueryHandler,
            &tree as &dyn asj_net::QueryHandler,
        ] {
            let batched = svc
                .handle(Request::MultiCount(windows.clone()))
                .into_counts();
            let singles: Vec<u64> = windows
                .iter()
                .map(|w| svc.handle(Request::Count(*w)).into_count())
                .collect();
            assert_eq!(batched, singles);
        }
        assert_eq!(
            scan.handle(Request::MultiCount(vec![])).into_counts(),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn cooperative_refused_by_default() {
        let svc = SpatialService::new(RTreeStore::new(lattice(10)));
        assert_eq!(svc.handle(Request::CoopLevelMbrs(0)), Response::Refused);
        assert_eq!(
            svc.handle(Request::CoopJoinPush {
                objects: vec![],
                eps: 1.0
            }),
            Response::Refused
        );
    }

    #[test]
    fn cooperative_served_when_enabled() {
        let svc = SpatialService::new(RTreeStore::new(lattice(10)))
            .with_policy(ServicePolicy::Cooperative);
        let mbrs = svc.handle(Request::CoopLevelMbrs(0)).into_rects();
        assert!(!mbrs.is_empty());
        let pairs = svc
            .handle(Request::CoopJoinPush {
                objects: vec![SpatialObject::point(500, 0.0, 0.0)],
                eps: 1.0,
            })
            .into_pairs();
        // (0,0) point joins lattice points (0,0), (1,0), (0,1).
        assert_eq!(pairs.len(), 3);
        assert!(pairs.iter().all(|&(outer, _)| outer == 500));
    }

    #[test]
    fn coop_level_mbrs_refused_without_hierarchy() {
        let svc =
            SpatialService::new(ScanStore::new(lattice(4))).with_policy(ServicePolicy::Cooperative);
        assert_eq!(svc.handle(Request::CoopLevelMbrs(0)), Response::Refused);
    }

    #[test]
    fn coop_filter_dedups_objects() {
        let svc = SpatialService::new(ScanStore::new(lattice(10)))
            .with_policy(ServicePolicy::Cooperative);
        // Two overlapping MBRs both covering the origin corner.
        let objs = svc
            .handle(Request::CoopFilterByMbrs {
                mbrs: vec![
                    Rect::from_coords(0.0, 0.0, 1.0, 1.0),
                    Rect::from_coords(0.0, 0.0, 1.0, 1.0),
                ],
                eps: 0.0,
            })
            .into_objects();
        let mut ids: Vec<u32> = objs.iter().map(|o| o.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), objs.len(), "duplicates leaked");
        assert_eq!(objs.len(), 4);
    }

    #[test]
    fn coop_filter_replies_in_first_seen_order() {
        // Overlapping MBRs, one of them twice and one off the map: the reply
        // is the per-MBR ε-RANGE answers in shipped order with every later
        // repeat dropped — the bytes the materialising handler sent.
        let mbrs = vec![
            Rect::from_coords(3.0, 3.0, 6.0, 4.0),
            Rect::from_coords(0.0, 0.0, 4.0, 4.0),
            Rect::from_coords(50.0, 50.0, 60.0, 60.0),
            Rect::from_coords(3.0, 3.0, 6.0, 4.0),
            Rect::from_coords(5.5, 0.5, 8.5, 9.5),
        ];
        fn check<S: SpatialStore>(store: S, mbrs: &[Rect]) {
            let svc = SpatialService::new(store).with_policy(ServicePolicy::Cooperative);
            for eps in [0.0, 1.5] {
                let mut want: Vec<SpatialObject> = Vec::new();
                for o in mbrs.iter().flat_map(|m| svc.store().eps_range(m, eps)) {
                    if want.iter().all(|kept| kept.id != o.id) {
                        want.push(o);
                    }
                }
                let mbrs = mbrs.to_vec();
                let got = svc.handle(Request::CoopFilterByMbrs { mbrs, eps });
                assert!(want.len() > 30, "non-vacuous");
                assert_eq!(got.into_objects(), want, "eps={eps}");
            }
        }
        check(ScanStore::new(lattice(10)), &mbrs);
        check(RTreeStore::with_fanout(lattice(10), 4), &mbrs);
    }

    #[test]
    fn join_push_is_a_nested_loop_under_the_eps_rule() {
        // `eps > 0` is the ε-distance join; zero, negative and NaN are the
        // closed intersection join. Points and boxes on both sides, some
        // pushed objects far off the store's map, on either store.
        let boxes = |n: u32, id0: u32, step: f64, size: f64| -> Vec<SpatialObject> {
            (0..n)
                .map(|i| {
                    let (x, y) = (f64::from(i % 7) * step, f64::from(i / 7) * step * 0.5);
                    let side = f64::from(i % 3) * size; // every third one a point
                    SpatialObject::new(id0 + i, Rect::from_coords(x, y, x + side, y + side))
                })
                .collect()
        };
        let local = boxes(90, 0, 3.0, 1.25);
        let mut pushed = boxes(40, 1000, 4.5, 2.0);
        pushed.push(SpatialObject::point(2000, 1.0e6, -1.0e6));
        pushed.push(SpatialObject::new(
            2001,
            Rect::from_coords(-900.0, -900.0, -800.0, -850.0),
        ));
        fn check<S: SpatialStore>(store: S, local: &[SpatialObject], pushed: &[SpatialObject]) {
            let svc = SpatialService::new(store).with_policy(ServicePolicy::Cooperative);
            for eps in [-1.0, 0.0, f64::NAN, 2.5] {
                let pred = if eps > 0.0 {
                    JoinPredicate::WithinDistance(eps)
                } else {
                    JoinPredicate::Intersects
                };
                let mut want = nested_loop_join(pushed, local, &pred);
                let objects = pushed.to_vec();
                let mut got = svc
                    .handle(Request::CoopJoinPush { objects, eps })
                    .into_pairs();
                want.sort_unstable();
                got.sort_unstable();
                assert!(want.len() > 20, "non-vacuous");
                assert_eq!(got, want, "eps={eps}");
            }
        }
        check(ScanStore::new(local.clone()), &local, &pushed);
        check(RTreeStore::with_fanout(local.clone(), 4), &local, &pushed);
    }

    #[test]
    fn frozen_service_refuses_updates() {
        let svc = SpatialService::new(ScanStore::new(lattice(4)));
        assert_eq!(
            svc.handle(Request::ApplyUpdates(vec![])),
            Response::Refused,
            "frozen stores must refuse updates"
        );
    }

    #[test]
    fn live_service_acks_updates_and_stamps_generations() {
        use crate::versioned::VersionedStore;
        use asj_net::codec::decode_response_gen_ctx;
        use asj_net::Update;

        let svc = SpatialService::new(VersionedStore::new(lattice(10), RTreeStore::new));
        let w = Rect::from_coords(0.0, 0.0, 2.0, 2.0);
        // Generation 0 serves bit-identically to a frozen service.
        let mut live_buf = BytesMut::new();
        svc.handle_into(Request::Window(w), WireVersion::V1, &mut live_buf);
        let frozen = SpatialService::new(RTreeStore::new(lattice(10)));
        let mut frozen_buf = BytesMut::new();
        frozen.handle_into(Request::Window(w), WireVersion::V1, &mut frozen_buf);
        assert_eq!(
            live_buf.freeze(),
            frozen_buf.freeze(),
            "generation 0 must be bit-identical to the frozen path"
        );
        // An update batch is acknowledged with the new generation,
        // unstamped.
        let mut ack_buf = BytesMut::new();
        svc.handle_into(
            Request::ApplyUpdates(vec![Update::Delete(0)]),
            WireVersion::V1,
            &mut ack_buf,
        );
        let (ack, stamp) = decode_response_gen_ctx(ack_buf.freeze(), None).unwrap();
        assert_eq!(stamp, 0, "Ack frames are never stamped");
        assert_eq!(ack, Response::Ack { generation: 1 });
        // Queries now serve generation 1 and say so on the wire.
        let mut buf = BytesMut::new();
        svc.handle_into(Request::Window(w), WireVersion::V1, &mut buf);
        let (resp, stamp) = decode_response_gen_ctx(buf.freeze(), None).unwrap();
        assert_eq!(stamp, 1);
        assert_eq!(resp.into_objects().len(), 8); // 9 lattice points minus id 0
        assert_eq!(svc.handle(Request::Count(w)).into_count(), 8);
        assert_eq!(
            svc.handle(Request::ApplyUpdates(vec![])),
            Response::Ack { generation: 2 },
            "empty batches still tick the generation"
        );
    }

    #[test]
    fn changes_are_stamped_with_the_generation_they_reach() {
        use crate::versioned::VersionedStore;
        use asj_net::codec::decode_response_gen_ctx;
        use asj_net::{DeltaOp, Update};

        let svc = SpatialService::new(VersionedStore::new(lattice(10), RTreeStore::new));
        let ask = |svc: &dyn QueryHandler, since| {
            let mut buf = BytesMut::new();
            svc.handle_into(Request::Changes { since }, WireVersion::V1, &mut buf);
            decode_response_gen_ctx(buf.freeze(), None).unwrap()
        };
        assert_eq!(ask(&svc, 0), (Response::Changes(Vec::new()), 0));
        svc.handle(Request::ApplyUpdates(vec![Update::Delete(0)]));
        svc.handle(Request::ApplyUpdates(vec![Update::Delete(1)]));
        let gone = |id: u32| DeltaOp::Remove {
            id,
            mbr: lattice(10)[id as usize].mbr,
        };
        assert_eq!(ask(&svc, 0), (Response::Changes(vec![gone(0), gone(1)]), 2));
        assert_eq!(ask(&svc, 1), (Response::Changes(vec![gone(1)]), 2));
        assert_eq!(
            svc.handle(Request::Changes { since: 2 }),
            Response::Changes(Vec::new())
        );
        // Beyond the log a live store refuses, stamped like every live frame;
        // a frozen one refuses unstamped.
        assert_eq!(ask(&svc, 3), (Response::Refused, 2));
        let frozen = SpatialService::new(RTreeStore::new(lattice(4)));
        assert_eq!(ask(&frozen, 0), (Response::Refused, 0));
    }

    #[test]
    fn duplicate_tagged_deliveries_never_double_bump() {
        use crate::versioned::VersionedStore;
        use asj_net::Update;

        let svc = SpatialService::new(VersionedStore::new(lattice(4), RTreeStore::new));
        let tag = |nonce, seq| DedupTag { nonce, seq };
        let batch = vec![Update::Delete(0)];
        assert_eq!(
            svc.handle_tagged_updates(tag(1, 0), batch.clone()),
            Response::Ack { generation: 1 }
        );
        // The retried delivery replays the remembered Ack: same
        // generation, nothing re-applied.
        assert_eq!(
            svc.handle_tagged_updates(tag(1, 0), batch.clone()),
            Response::Ack { generation: 1 }
        );
        assert_eq!(svc.store().generation(), 1);
        assert_eq!(svc.store().len(), 15, "the delete applied exactly once");
        // The next batch from the same sender advances normally.
        assert_eq!(
            svc.handle_tagged_updates(tag(1, 1), vec![Update::Delete(1)]),
            Response::Ack { generation: 2 }
        );
        // A straggler retry of the superseded batch is refused, never
        // re-applied.
        assert_eq!(
            svc.handle_tagged_updates(tag(1, 0), batch),
            Response::Refused
        );
        assert_eq!(svc.store().generation(), 2);
        // Senders are independent: a different nonce with seq 0 applies.
        assert_eq!(
            svc.handle_tagged_updates(tag(2, 0), vec![]),
            Response::Ack { generation: 3 }
        );
    }

    #[test]
    fn frozen_service_refuses_tagged_updates_without_recording() {
        let svc = SpatialService::new(ScanStore::new(lattice(4)));
        let tag = DedupTag { nonce: 7, seq: 0 };
        assert_eq!(svc.handle_tagged_updates(tag, vec![]), Response::Refused);
        // The refusal was not recorded: the retry takes the same path and
        // is refused again (not replayed as a phantom Ack).
        assert_eq!(svc.handle_tagged_updates(tag, vec![]), Response::Refused);
    }

    #[test]
    fn join_push_empty_outer() {
        fn check<S: SpatialStore>(store: S) {
            let svc = SpatialService::new(store).with_policy(ServicePolicy::Cooperative);
            let pairs = svc
                .handle(Request::CoopJoinPush {
                    objects: vec![],
                    eps: 5.0,
                })
                .into_pairs();
            assert!(pairs.is_empty());
        }
        check(ScanStore::new(lattice(4)));
        check(RTreeStore::new(lattice(4)));
    }
}
