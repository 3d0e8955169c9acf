//! The query protocol of a non-cooperative spatial server.

use asj_geom::{Rect, SpatialObject};

/// A request from the device to one server.
///
/// The first four variants are the paper's primitive interface (Section 3):
/// `WINDOW`, `COUNT`, `ε-RANGE` and the bucket ε-RANGE of Section 3.1. The
/// `Coop*` variants are the *cooperative extension* that only the SemiJoin
/// baseline uses (Section 5.3) — real non-cooperative servers would reject
/// them, and [`crate::proto::Request::is_cooperative`] lets servers do so.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// All objects intersecting `w`.
    Window(Rect),
    /// Number of objects intersecting `w` (the aggregate/COUNT query).
    Count(Rect),
    /// All objects within distance `eps` of `q` (degenerate `q` = a point,
    /// the paper's original form; a proper rectangle subsumes the
    /// "WINDOW with sides 2ε" simulation the paper describes).
    EpsRange { q: Rect, eps: f64 },
    /// Bucket submission: one ε-RANGE probe per object, answered together
    /// so TCP header overhead is amortized (Section 3.1).
    BucketEpsRange {
        probes: Vec<SpatialObject>,
        eps: f64,
    },
    /// Cooperative: the MBRs of one R-tree level (`levels_above_leaves`).
    CoopLevelMbrs(u8),
    /// Cooperative: objects within `eps` of any of the given MBRs (the
    /// semi-join filter step executed at the other server).
    CoopFilterByMbrs { mbrs: Vec<Rect>, eps: f64 },
    /// Cooperative: join the pushed objects against the local dataset and
    /// return qualifying `(pushed_id, local_id)` pairs.
    CoopJoinPush {
        objects: Vec<SpatialObject>,
        eps: f64,
    },
    /// A batched dataset update (inserts/deletes/moves), applied
    /// copy-on-write into a fresh store generation and acknowledged with
    /// the new generation number. Frozen stores answer [`Response::Refused`].
    ApplyUpdates(Vec<Update>),
    /// Read-only: the ordered remove/add list that turns the dataset as
    /// served at generation `since` into the one the reply is stamped
    /// with. A store that is frozen, or whose change log no longer reaches
    /// `since`, answers [`Response::Refused`].
    Changes { since: u64 },
}

/// One step of the ordered remove/add list a live store turns an update
/// batch into — what it path-copies into its index, and what
/// [`Request::Changes`] ships to a client cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaOp {
    /// Take out the object `id`, which the store holds at exactly `mbr`.
    Remove { id: u32, mbr: Rect },
    /// Put in an object whose id the store does not hold.
    Add(SpatialObject),
}

/// One element of a batched dataset update.
///
/// Semantics are upsert-like so flat and sharded deployments agree without
/// coordination: `Insert` replaces any existing object with the same id,
/// `Delete` of an absent id is a no-op, and `Move` is an upsert of the
/// object at its new MBR.
#[derive(Debug, Clone, PartialEq)]
pub enum Update {
    /// Insert (or replace, by id) one object.
    Insert(SpatialObject),
    /// Remove the object with this id, if present.
    Delete(u32),
    /// Re-place object `id` at MBR `to` (insert if absent).
    Move { id: u32, to: Rect },
}

impl Request {
    /// `true` for the cooperative-extension queries that a faithful
    /// non-cooperative server refuses.
    pub fn is_cooperative(&self) -> bool {
        matches!(
            self,
            Request::CoopLevelMbrs(_)
                | Request::CoopFilterByMbrs { .. }
                | Request::CoopJoinPush { .. }
        )
    }

    /// `true` for aggregate (statistics) queries, the paper's `Taq` class.
    pub fn is_aggregate(&self) -> bool {
        matches!(self, Request::Count(_))
    }

    /// `true` when `resp` is an answer this request can get: its own
    /// result kind (one bucket per probe for the bucket ε-RANGE) or one
    /// of the typed non-answers any request may draw. A reply is input
    /// from outside the program, so the link stack checks this once per
    /// physical exchange and treats a mismatch like a garbled frame.
    pub fn admits(&self, resp: &Response) -> bool {
        match (self, resp) {
            (_, Response::Refused | Response::Malformed | Response::Unavailable)
            | (
                Request::Window(_) | Request::EpsRange { .. } | Request::CoopFilterByMbrs { .. },
                Response::Objects(_),
            )
            | (Request::Count(_), Response::Count(_))
            | (Request::CoopLevelMbrs(_), Response::Rects(_))
            | (Request::CoopJoinPush { .. }, Response::Pairs(_))
            | (Request::ApplyUpdates(_), Response::Ack { .. })
            | (Request::Changes { .. }, Response::Changes(_)) => true,
            (Request::BucketEpsRange { probes, .. }, Response::Buckets(bs)) => {
                probes.len() == bs.len()
            }
            _ => false,
        }
    }
}

// The per-kind laws of a read. A non-cooperative server knows nothing of
// the fleet it is a shard of, or of the cache in front of it, so what a
// request's answer is made of is the client's to know. The shard router
// and the client cache both read these laws instead of restating them:
// the router prunes by the reach, sends the cut and folds the shards'
// answers with the merge; the cache answers a probe from a window that
// contains its reach.
impl Request {
    /// The probes of a read: one for `WINDOW`, `COUNT` and `ε-RANGE`, one
    /// per probe, MBR or pushed object for the bucket and cooperative
    /// kinds. A level read and the writes carry none.
    pub(crate) fn probes(&self) -> usize {
        match self {
            Request::Window(_) | Request::Count(_) | Request::EpsRange { .. } => 1,
            Request::BucketEpsRange { probes, .. } => probes.len(),
            Request::CoopFilterByMbrs { mbrs, .. } => mbrs.len(),
            Request::CoopJoinPush { objects, .. } => objects.len(),
            Request::CoopLevelMbrs(_) | Request::ApplyUpdates(_) | Request::Changes { .. } => 0,
        }
    }

    /// The reach of probe `i`: a rectangle that every object in its answer
    /// intersects, so a store whose objects all lie outside it answers the
    /// probe with nothing. A window reaches itself. An ε-probe reaches its
    /// rectangle grown by |ε|: the server keeps an object when `dx² + dy²
    /// ≤ ε²`, which bounds each gap by |ε| whatever ε's sign (`expand(ε)`
    /// itself would shrink for ε < 0). A pushed object reaches as far as
    /// the ε the server joins at: `ε > 0` is the distance join, anything
    /// else — zero, negative, NaN — the intersection join.
    pub(crate) fn reach(&self, i: usize) -> Rect {
        match self {
            Request::Window(w) | Request::Count(w) => *w,
            Request::EpsRange { q, eps } => q.expand(eps.abs()),
            Request::BucketEpsRange { probes, eps } => probes[i].mbr.expand(eps.abs()),
            Request::CoopFilterByMbrs { mbrs, eps } => mbrs[i].expand(eps.abs()),
            Request::CoopJoinPush { objects, eps } => {
                objects[i].mbr.expand(if *eps > 0.0 { *eps } else { 0.0 })
            }
            Request::CoopLevelMbrs(_) | Request::ApplyUpdates(_) | Request::Changes { .. } => {
                unreachable!("{self:?} carries no probe")
            }
        }
    }

    /// The rectangle a v2 reply to this request quantizes against
    /// (`WIRE.md`, clause 1 of the quantisation contract): a window grids
    /// over itself, an ε-probe over its rectangle grown by ε as the wire
    /// carries it, every other request over nothing. Unlike the reach,
    /// ε keeps its sign here — a negative ε shrinks the grid, or leaves
    /// none — because the grid is part of the wire format and the golden
    /// frames pin it; the reach is only a pruning bound.
    pub(crate) fn grid(&self) -> Option<Rect> {
        match self {
            Request::Window(w) => Some(*w),
            Request::EpsRange { q, eps } => {
                Some(crate::codec::snap_rect_f32(q).expand(f64::from(*eps as f32)))
            }
            _ => None,
        }
    }

    /// The cut: this request narrowed to the probes `picks` names, in
    /// that order. The answer to the cut is the answer to those probes —
    /// every probe is answered on its own. A request without probes is
    /// its own cut.
    pub(crate) fn cut(&self, picks: &[usize]) -> Request {
        fn pick<T: Copy>(items: &[T], picks: &[usize]) -> Vec<T> {
            picks.iter().map(|&i| items[i]).collect()
        }
        match self {
            Request::BucketEpsRange { probes, eps } => Request::BucketEpsRange {
                probes: pick(probes, picks),
                eps: *eps,
            },
            Request::CoopFilterByMbrs { mbrs, eps } => Request::CoopFilterByMbrs {
                mbrs: pick(mbrs, picks),
                eps: *eps,
            },
            Request::CoopJoinPush { objects, eps } => Request::CoopJoinPush {
                objects: pick(objects, picks),
                eps: *eps,
            },
            one_or_none => one_or_none.clone(),
        }
    }

    /// The empty answer: what a store holding nothing answers, and what a
    /// merge starts from. A write has none; a merge of one is refused.
    pub(crate) fn empty_answer(&self) -> Response {
        match self {
            Request::Window(_) | Request::EpsRange { .. } | Request::CoopFilterByMbrs { .. } => {
                Response::Objects(Vec::new())
            }
            Request::Count(_) => Response::Count(0),
            Request::BucketEpsRange { probes, .. } => {
                Response::Buckets(vec![Vec::new(); probes.len()])
            }
            Request::CoopLevelMbrs(_) => Response::Rects(Vec::new()),
            Request::CoopJoinPush { .. } => Response::Pairs(Vec::new()),
            Request::ApplyUpdates(_) | Request::Changes { .. } => Response::Refused,
        }
    }
}

/// A server's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Objects, for `WINDOW` / `ε-RANGE` / `CoopFilterByMbrs`.
    Objects(Vec<SpatialObject>),
    /// Scalar count (`BA` = 8 bytes on the wire, "one long integer").
    Count(u64),
    /// Per-probe result lists for `BucketEpsRange`, probe order preserved.
    Buckets(Vec<Vec<SpatialObject>>),
    /// MBRs for `CoopLevelMbrs`.
    Rects(Vec<Rect>),
    /// Qualifying id pairs for `CoopJoinPush`.
    Pairs(Vec<(u32, u32)>),
    /// The server refuses the request (e.g. cooperative query to a
    /// non-cooperative server).
    Refused,
    /// Acknowledges [`Request::ApplyUpdates`]: the generation number of the
    /// freshly published snapshot.
    Ack { generation: u64 },
    /// The ordered change list answering [`Request::Changes`].
    Changes(Vec<DeltaOp>),
    /// The server could not decode the request frame. A *typed* error
    /// reply — answering it instead of panicking is what keeps a shared
    /// server serving its other devices when one client garbles a
    /// frame. One opcode byte on the wire.
    Malformed,
    /// The carrier's peer is gone (server dropped mid-session). This
    /// variant never crosses the wire: carriers fabricate it locally in
    /// place of a reply, and meters must not charge either direction for
    /// it — nothing was sent or received.
    Unavailable,
}

impl Response {
    /// `true` for the two outcomes of a failed exchange — peer gone, or a
    /// reply that did not decode — which retry and failover act on.
    pub fn is_failure(&self) -> bool {
        matches!(self, Response::Malformed | Response::Unavailable)
    }

    /// `true` for the typed non-answers any request may draw: a refusal
    /// or a failed exchange.
    pub(crate) fn is_non_answer(&self) -> bool {
        self.is_failure() || *self == Response::Refused
    }

    /// The merge: folds `more`, one store's answer to the cut to `picks`,
    /// into `self`, the answer merged so far (the empty answer, first).
    /// Counts add: the partitioner assigns every object to exactly one
    /// shard. Object lists and pairs keep the first occurrence of each key
    /// ([`absorb`]): a straddler replicated into two stores is one object.
    /// Level MBRs concatenate into the fleet's forest level. Buckets
    /// merge position by position, the `k`-th bucket of `more` into
    /// position `picks[k]`, since the cut keeps its probes in `picks`
    /// order. Any other reply is a typed non-answer, and it becomes the
    /// merged answer; a later reply does not unseat it.
    pub(crate) fn merge(&mut self, more: Response, picks: &[usize]) {
        match (self, more) {
            (Response::Count(total), Response::Count(n)) => *total += n,
            (Response::Objects(merged), Response::Objects(more)) => absorb(merged, more, |o| o.id),
            (Response::Buckets(merged), Response::Buckets(more)) => {
                for (&i, bucket) in picks.iter().zip(more) {
                    absorb(&mut merged[i], bucket, |o| o.id);
                }
            }
            (Response::Rects(merged), Response::Rects(more)) => merged.extend(more),
            (Response::Pairs(merged), Response::Pairs(more)) => absorb(merged, more, |&pair| pair),
            (merged, non_answer) => {
                if !merged.is_non_answer() {
                    *merged = non_answer;
                }
            }
        }
    }

    /// Spatial objects this answer carries — what the meters charge as
    /// "objects received". The single source of truth for that count:
    /// every metering site (plain link, shard router, cache layer) must
    /// agree, or the differential byte-identity suites diverge.
    pub fn object_count(&self) -> u64 {
        match self {
            Response::Objects(v) => v.len() as u64,
            Response::Buckets(b) => b.iter().map(|x| x.len() as u64).sum(),
            Response::Changes(ops) => ops.len() as u64,
            _ => 0,
        }
    }

    /// Unwraps an object list, panicking on protocol mismatch — server
    /// implementations in this repo are type-correct by construction, so a
    /// mismatch is a bug, not a runtime condition.
    pub fn into_objects(self) -> Vec<SpatialObject> {
        match self {
            Response::Objects(v) => v,
            other => panic!("protocol mismatch: expected Objects, got {other:?}"),
        }
    }

    /// Unwraps a count.
    pub fn into_count(self) -> u64 {
        match self {
            Response::Count(c) => c,
            other => panic!("protocol mismatch: expected Count, got {other:?}"),
        }
    }

    /// Unwraps bucket lists.
    pub fn into_buckets(self) -> Vec<Vec<SpatialObject>> {
        match self {
            Response::Buckets(b) => b,
            other => panic!("protocol mismatch: expected Buckets, got {other:?}"),
        }
    }

    /// Unwraps level MBRs.
    pub fn into_rects(self) -> Vec<Rect> {
        match self {
            Response::Rects(r) => r,
            other => panic!("protocol mismatch: expected Rects, got {other:?}"),
        }
    }

    /// Unwraps join pairs.
    pub fn into_pairs(self) -> Vec<(u32, u32)> {
        match self {
            Response::Pairs(p) => p,
            other => panic!("protocol mismatch: expected Pairs, got {other:?}"),
        }
    }
}

/// Adds one more store's contribution to a merged list. A sole
/// contributor's list is moved in untouched — a store holds a key once.
/// A further one is appended and the list reduced to the first
/// occurrence of each key, in order (defensive: the partitioner is
/// disjoint, so a repeat is a replicated straddler and must collapse to
/// one item) — by a sorted scan over (key, position), nothing hashed.
pub(crate) fn absorb<T, K: Ord>(merged: &mut Vec<T>, more: Vec<T>, key: impl Fn(&T) -> K) {
    if merged.is_empty() {
        *merged = more;
    } else if !more.is_empty() {
        merged.extend(more);
        let mut order: Vec<(K, usize)> = merged.iter().map(&key).zip(0..).collect();
        order.sort_unstable();
        let mut repeat = vec![false; merged.len()];
        for pair in order.windows(2) {
            repeat[pair[1].1] = pair[0].0 == pair[1].0;
        }
        let mut repeat = repeat.into_iter();
        merged.retain(|_| !repeat.next().expect("one flag per item"));
    }
}

/// Server-side request handler. Implemented by `asj-server`; `asj-net` only
/// needs the shape to wire transports.
pub trait QueryHandler: Send + Sync {
    fn handle(&self, req: Request) -> Response;

    /// Handles a request by encoding the answer directly into `buf`
    /// (appending; callers clear between requests to reuse the
    /// allocation) in the wire version the request arrived in. The
    /// default materializes a [`Response`] and encodes it; servers with
    /// streaming storage (the visitor-style `SpatialStore` queries)
    /// override this to encode qualifying objects into the wire buffer as
    /// they are visited — **byte-identical** to the default, without the
    /// intermediate `Vec` and `Response`.
    fn handle_into(
        &self,
        req: Request,
        wire: crate::codec::WireVersion,
        buf: &mut bytes::BytesMut,
    ) {
        let ctx = crate::codec::QuantCtx::for_wire(&req, wire);
        crate::codec::encode_response_versioned(&self.handle(req), wire, ctx.as_ref(), buf);
    }

    /// Handles an `ApplyUpdates` batch delivered under the retry-dedup
    /// envelope (`codec::wrap_dedup`): `tag` identifies this delivery's
    /// `(sender nonce, batch seq)`, identical across every retry of the
    /// same batch. The default ignores the tag and applies the batch
    /// plainly — correct for handlers that refuse updates anyway.
    /// Stateful update servers (`SpatialService` over a live store)
    /// override this with an at-most-once check: a duplicate `(nonce,
    /// seq)` replays the remembered `Ack` instead of re-applying, so a
    /// retried delivery can never double-bump a generation or
    /// double-apply a move.
    fn handle_tagged_updates(
        &self,
        _tag: crate::codec::DedupTag,
        updates: Vec<Update>,
    ) -> Response {
        self.handle(Request::ApplyUpdates(updates))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cooperative_classification() {
        let w = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        assert!(!Request::Window(w).is_cooperative());
        assert!(!Request::Count(w).is_cooperative());
        assert!(Request::CoopLevelMbrs(0).is_cooperative());
        assert!(Request::CoopJoinPush {
            objects: vec![],
            eps: 1.0
        }
        .is_cooperative());
    }

    #[test]
    fn aggregate_classification() {
        let w = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        assert!(Request::Count(w).is_aggregate());
        assert!(!Request::Window(w).is_aggregate());
    }

    #[test]
    fn update_requests_are_neither_cooperative_nor_aggregate() {
        let batch = Request::ApplyUpdates(vec![
            Update::Insert(SpatialObject::point(1, 0.0, 0.0)),
            Update::Delete(2),
            Update::Move {
                id: 3,
                to: Rect::from_coords(0.0, 0.0, 1.0, 1.0),
            },
        ]);
        assert!(!batch.is_cooperative());
        assert!(!batch.is_aggregate());
        assert_eq!(Response::Ack { generation: 4 }.object_count(), 0);
    }

    #[test]
    fn unwrap_helpers() {
        assert_eq!(Response::Count(5).into_count(), 5);
        assert_eq!(Response::Objects(vec![]).into_objects(), vec![]);
        assert_eq!(Response::Pairs(vec![(1, 2)]).into_pairs(), vec![(1, 2)]);
    }

    #[test]
    #[should_panic(expected = "protocol mismatch")]
    fn unwrap_mismatch_panics() {
        Response::Count(1).into_objects();
    }

    #[test]
    fn absorb_keeps_first_occurrences_in_order_and_moves_a_sole_list_in() {
        let mut merged: Vec<u32> = Vec::new();
        let sole = vec![3, 1, 3, 2];
        let at = sole.as_ptr();
        absorb(&mut merged, sole, |&k| k);
        assert_eq!(
            merged,
            [3, 1, 3, 2],
            "a store's own reply is not second-guessed"
        );
        assert_eq!(merged.as_ptr(), at, "moved, not copied");
        absorb(&mut merged, vec![], |&k| k);
        assert_eq!(merged, [3, 1, 3, 2]);
        absorb(&mut merged, vec![2, 9, 1, 9], |&k| k);
        assert_eq!(merged, [3, 1, 2, 9]);
    }

    // ---- the laws, against the server's own predicates ----

    use crate::testutil::ScanHandler;
    use asj_geom::Point;
    use proptest::prelude::*;

    /// The ε values every law must hold for: negative, both zeros, NaN,
    /// one inside the data's scale and one beyond it.
    const EPS: [f64; 7] = [-50.0, -1.0, -0.0, 0.0, f64::NAN, 2.5, 300.0];

    /// A rectangle on a quarter-unit grid, degenerate (a point or a
    /// segment) whenever a side draws 0.
    fn rect() -> impl Strategy<Value = Rect> {
        (-80i32..=80, -80i32..=80, 0i32..=24, 0i32..=24).prop_map(|(x, y, w, h)| {
            let (x, y) = (x as f64 * 0.25, y as f64 * 0.25);
            Rect::new(
                Point::new(x, y),
                Point::new(x + w as f64 * 0.25, y + h as f64 * 0.25),
            )
        })
    }

    fn objects(mbrs: &[Rect]) -> Vec<SpatialObject> {
        let ids = 0..mbrs.len() as u32;
        ids.zip(mbrs)
            .map(|(id, &mbr)| SpatialObject::new(id, mbr))
            .collect()
    }

    /// Every read kind that carries probes, over the same windows and ε.
    fn reads(windows: &[Rect], eps: f64) -> Vec<Request> {
        let (w, pushed) = (windows[0], objects(windows));
        vec![
            Request::Window(w),
            Request::Count(w),
            Request::EpsRange { q: w, eps },
            Request::BucketEpsRange {
                probes: pushed.clone(),
                eps,
            },
            Request::CoopFilterByMbrs {
                mbrs: windows.to_vec(),
                eps,
            },
            Request::CoopJoinPush {
                objects: pushed,
                eps,
            },
        ]
    }

    /// Whether the server puts an object at `mbr` in probe `i`'s answer:
    /// `intersects` for the windows, `within_distance` for the ε-probes,
    /// and for a push the join at `ε > 0 ? ε : 0` (`asj-server`'s
    /// `SpatialService`).
    fn accepts(req: &Request, i: usize, mbr: &Rect) -> bool {
        match req {
            Request::Window(w) | Request::Count(w) => mbr.intersects(w),
            Request::EpsRange { q, eps } => mbr.within_distance(q, *eps),
            Request::BucketEpsRange { probes, eps } => mbr.within_distance(&probes[i].mbr, *eps),
            Request::CoopFilterByMbrs { mbrs, eps } => mbr.within_distance(&mbrs[i], *eps),
            Request::CoopJoinPush { objects, eps } => {
                mbr.within_distance(&objects[i].mbr, if *eps > 0.0 { *eps } else { 0.0 })
            }
            other => panic!("{other:?} carries no probe"),
        }
    }

    /// An answer with every object list sorted by id: a merged list equals
    /// the flat one as a set.
    fn by_id(resp: Response) -> Response {
        let sorted = |mut v: Vec<SpatialObject>| {
            v.sort_unstable_by_key(|o| o.id);
            v
        };
        match resp {
            Response::Objects(v) => Response::Objects(sorted(v)),
            Response::Buckets(b) => Response::Buckets(b.into_iter().map(sorted).collect()),
            other => other,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // Reach soundness: an object the server's predicate accepts for a
        // probe intersects that probe's reach, so a store the reach misses
        // can only answer it with nothing.
        #[test]
        fn every_accepted_object_intersects_its_probes_reach(
            windows in prop::collection::vec(rect(), 1..6),
            mbrs in prop::collection::vec(rect(), 0..40),
            e in 0usize..EPS.len(),
        ) {
            for req in reads(&windows, EPS[e]) {
                for i in 0..req.probes() {
                    let reach = req.reach(i);
                    for mbr in mbrs.iter().filter(|m| accepts(&req, i, m)) {
                        prop_assert!(mbr.intersects(&reach), "{req:?} probe {i}: {mbr:?} outside {reach:?}");
                    }
                }
            }
        }

        // Split then merge equals the flat answer: each of 1–7 disjoint
        // stores answers the cut to the probes that reach its MBR union,
        // and the replies merge, from the empty answer, into exactly what
        // one store holding every object answers.
        #[test]
        fn the_merged_cuts_of_disjoint_stores_answer_as_one_store(
            windows in prop::collection::vec(rect(), 1..6),
            placed in prop::collection::vec((rect(), 0usize..7), 0..40),
            stores in 1usize..=7,
            e in 0usize..EPS.len(),
        ) {
            let all = objects(&placed.iter().map(|&(mbr, _)| mbr).collect::<Vec<_>>());
            let split: Vec<Vec<SpatialObject>> = (0..stores)
                .map(|s| {
                    let own = all.iter().zip(&placed).filter(|(_, &(_, at))| at % stores == s);
                    own.map(|(o, _)| *o).collect()
                })
                .collect();
            for req in reads(&windows, EPS[e]).into_iter().filter(|r| !r.is_cooperative()) {
                let mut merged = req.empty_answer();
                for objects in &split {
                    let Some(bounds) = Rect::union_of(objects.iter().map(|o| o.mbr)) else {
                        continue;
                    };
                    let picks: Vec<usize> = (0..req.probes())
                        .filter(|&i| bounds.intersects(&req.reach(i)))
                        .collect();
                    if !picks.is_empty() {
                        let reply = ScanHandler(objects.clone()).handle(req.cut(&picks));
                        merged.merge(reply, &picks);
                    }
                }
                let flat = ScanHandler(all.clone()).handle(req.clone());
                prop_assert_eq!(by_id(merged), by_id(flat), "{:?}", req);
            }
        }
    }

    #[test]
    fn a_non_answer_is_the_merged_answer_and_stays_it() {
        let mut merged = Request::Count(Rect::from_coords(0.0, 0.0, 1.0, 1.0)).empty_answer();
        merged.merge(Response::Count(3), &[0]);
        merged.merge(Response::Refused, &[0]);
        merged.merge(Response::Count(4), &[0]);
        merged.merge(Response::Unavailable, &[0]);
        assert_eq!(merged, Response::Refused);
    }
}
