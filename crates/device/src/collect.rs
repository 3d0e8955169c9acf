//! Join result accumulation and iceberg aggregation.
//!
//! A join reports every pair exactly once because the reference-point
//! test assigns each pair to one window — exact on one dataset state. A
//! **strict** collector ([`ResultCollector::new`], frozen deployments)
//! relies on that: it appends, and debug builds prove it was handed no
//! pair twice. A **live** collector ([`ResultCollector::deduplicating`])
//! appends too and checks nothing per pair: a writer racing the join can
//! make two windows read two states, so a moving object may honestly
//! qualify in both. Whoever knows what the join observed decides whether
//! that happened and, if so, runs [`ResultCollector::collapse_duplicates`]
//! once — `asj-core`'s `ExecCtx::finish` does, and its module docs hold
//! the argument for when the pass may be skipped.

use std::collections::HashSet;

use asj_geom::{IdMix, ObjectId};

/// Accumulates the join output on the device: a pair list, appended to
/// in arrival order (see the module docs for the two modes).
#[derive(Debug, Default)]
pub struct ResultCollector {
    pairs: Vec<(ObjectId, ObjectId)>,
    /// Debug builds of a live collector skip the per-pair check.
    #[cfg(debug_assertions)]
    live: bool,
    #[cfg(debug_assertions)]
    seen: HashSet<(ObjectId, ObjectId)>,
}

impl ResultCollector {
    pub fn new() -> Self {
        ResultCollector::default()
    }

    /// A collector for joins over live deployments, where snapshot skew
    /// between reads can re-derive a pair without any upstream bug: it
    /// accepts repeats, and [`Self::collapse_duplicates`] removes them.
    pub fn deduplicating() -> Self {
        ResultCollector {
            #[cfg(debug_assertions)]
            live: true,
            ..ResultCollector::default()
        }
    }

    /// Records one qualifying pair `(r, s)`.
    ///
    /// # Panics (strict mode, debug builds)
    /// If the pair was already reported — a duplicate-avoidance bug.
    pub fn push(&mut self, r: ObjectId, s: ObjectId) {
        #[cfg(debug_assertions)]
        assert!(
            self.live || self.seen.insert((r, s)),
            "pair ({r}, {s}) reported twice: duplicate-avoidance violation"
        );
        self.pairs.push((r, s));
    }

    /// Records a run of qualifying pairs, in order, as [`Self::push`] would
    /// one by one — which is what a strict collector in a debug build
    /// does; everything else appends the slice.
    pub fn extend(&mut self, pairs: &[(ObjectId, ObjectId)]) {
        #[cfg(debug_assertions)]
        if !self.live {
            return pairs.iter().for_each(|&(r, s)| self.push(r, s));
        }
        self.pairs.extend_from_slice(pairs);
    }

    /// Drops every pair reported before, keeping first occurrences in
    /// arrival order, and returns how many it dropped: one pass through a
    /// set sized for the whole list.
    pub fn collapse_duplicates(&mut self) -> usize {
        let before = self.pairs.len();
        let mut seen: HashSet<u64, IdMix> =
            HashSet::with_capacity_and_hasher(before, IdMix::default());
        self.pairs
            .retain(|&(r, s)| seen.insert(u64::from(r) << 32 | u64::from(s)));
        before - self.pairs.len()
    }

    /// All pairs reported so far.
    pub fn pairs(&self) -> &[(ObjectId, ObjectId)] {
        &self.pairs
    }

    /// Number of reported pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when no pair was reported.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Consumes the collector, returning the pair list.
    pub fn into_pairs(self) -> Vec<(ObjectId, ObjectId)> {
        self.pairs
    }

    /// Iceberg distance semi-join result: R-objects with at least
    /// `min_matches` qualifying partners, with their match counts
    /// (sorted by id for determinism), counted from the pair list on
    /// demand so that joins that never ask pay nothing per pair.
    pub fn iceberg(&self, min_matches: u32) -> IcebergResult {
        let mut ids: Vec<ObjectId> = self.pairs.iter().map(|&(r, _)| r).collect();
        ids.sort_unstable();
        let mut qualifying: Vec<(ObjectId, u32)> = Vec::new();
        for id in ids {
            match qualifying.last_mut() {
                Some((last, count)) if *last == id => *count += 1,
                _ => qualifying.push((id, 1)),
            }
        }
        qualifying.retain(|&(_, count)| count >= min_matches);
        IcebergResult {
            min_matches,
            qualifying,
        }
    }
}

/// Output of an iceberg distance semi-join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcebergResult {
    /// The `m` threshold of the query.
    pub min_matches: u32,
    /// `(r_id, match_count)` for every qualifying object, sorted by id.
    pub qualifying: Vec<(ObjectId, u32)>,
}

impl IcebergResult {
    /// Ids only.
    pub fn ids(&self) -> Vec<ObjectId> {
        self.qualifying.iter().map(|&(id, _)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_pairs_and_counts() {
        let mut c = ResultCollector::new();
        c.push(1, 10);
        c.push(1, 11);
        c.push(2, 10);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.pairs(), &[(1, 10), (1, 11), (2, 10)]);
    }

    #[test]
    fn iceberg_threshold() {
        let mut c = ResultCollector::new();
        for s in 0..5 {
            c.push(1, s);
        }
        for s in 0..2 {
            c.push(2, 100 + s);
        }
        c.push(3, 200);
        let ice = c.iceberg(2);
        assert_eq!(ice.qualifying, vec![(1, 5), (2, 2)]);
        assert_eq!(ice.ids(), vec![1, 2]);
        assert_eq!(c.iceberg(6).qualifying, vec![]);
        // Threshold 1 = plain distance semi-join.
        assert_eq!(c.iceberg(1).ids(), vec![1, 2, 3]);
    }

    #[test]
    fn iceberg_counts_interleaved_ids_from_the_pair_list() {
        // R ids arrive interleaved and out of order, as joins over several
        // windows emit them; the on-demand count must equal a per-push tally.
        let pushes = [(7, 1), (2, 1), (7, 2), (9, 1), (2, 2), (7, 3), (0, 5)];
        let mut c = ResultCollector::new();
        let mut tally = std::collections::BTreeMap::new();
        for (r, s) in pushes {
            c.push(r, s);
            *tally.entry(r).or_insert(0u32) += 1;
        }
        for m in 1..=4 {
            let want: Vec<(ObjectId, u32)> = tally
                .iter()
                .filter(|&(_, &n)| n >= m)
                .map(|(&id, &n)| (id, n))
                .collect();
            assert_eq!(c.iceberg(m).qualifying, want, "m={m}");
        }
        assert_eq!(
            c.iceberg(1).qualifying,
            vec![(0, 1), (2, 2), (7, 3), (9, 1)]
        );
        assert_eq!(ResultCollector::new().iceberg(1).qualifying, vec![]);
    }

    #[test]
    fn deduplicating_mode_drops_repushed_pairs() {
        let mut c = ResultCollector::deduplicating();
        for (r, s) in [(3, 9), (1, 9), (3, 9), (3, 8), (1, 9), (9, 3), (3, 9)] {
            c.push(r, s);
        }
        // Pushes append, repeats included, until the pass runs…
        assert_eq!(c.len(), 7);
        assert_eq!(c.collapse_duplicates(), 3);
        // …which keeps first occurrences, in arrival order; (9, 3) is not
        // (3, 9).
        assert_eq!(c.pairs(), &[(3, 9), (1, 9), (3, 8), (9, 3)]);
        assert_eq!(c.collapse_duplicates(), 0, "a second pass finds nothing");
        // A re-derived pair counts once towards its R object.
        assert_eq!(c.iceberg(1).qualifying, vec![(1, 1), (3, 2), (9, 1)]);
        // Ids at the ends of the range pack without colliding.
        let mut c = ResultCollector::deduplicating();
        for (r, s) in [(0, u32::MAX), (u32::MAX, 0), (0, 0), (0, u32::MAX)] {
            c.push(r, s);
        }
        assert_eq!(c.collapse_duplicates(), 1);
        assert_eq!(c.pairs(), &[(0, u32::MAX), (u32::MAX, 0), (0, 0)]);
        assert_eq!(ResultCollector::deduplicating().collapse_duplicates(), 0);
    }

    #[test]
    fn extend_is_push_slice_by_slice() {
        let runs: [&[(ObjectId, ObjectId)]; 4] =
            [&[(3, 9), (1, 9)], &[], &[(3, 8)], &[(9, 3), (0, u32::MAX)]];
        let mut strict = ResultCollector::new();
        runs.iter().for_each(|run| strict.extend(run));
        assert_eq!(strict.pairs(), runs.concat());
        // Live: repeats within a slice and across slices are appended like
        // everything else; the pass then leaves first occurrences in
        // arrival order.
        let mut live = ResultCollector::deduplicating();
        let mut pushed = ResultCollector::deduplicating();
        live.push(1, 9);
        pushed.push(1, 9);
        let tail: &[(ObjectId, ObjectId)] = &[(3, 8), (4, 4), (4, 4), (3, 9)];
        for run in runs.iter().chain([&tail]) {
            live.extend(run);
            run.iter().for_each(|&(r, s)| pushed.push(r, s));
        }
        assert_eq!(live.pairs(), pushed.pairs());
        assert_eq!(live.len(), 10);
        assert_eq!(live.collapse_duplicates(), 4);
        assert_eq!(
            live.pairs(),
            &[(1, 9), (3, 9), (3, 8), (9, 3), (0, u32::MAX), (4, 4)]
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate-avoidance violation")]
    fn duplicate_pair_in_an_extended_slice_panics_in_debug() {
        let mut c = ResultCollector::new();
        c.push(1, 1);
        c.extend(&[(2, 2), (1, 1)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate-avoidance violation")]
    fn duplicate_pair_panics_in_debug() {
        let mut c = ResultCollector::new();
        c.push(1, 1);
        c.push(1, 1);
    }

    #[test]
    fn into_pairs_consumes() {
        let mut c = ResultCollector::new();
        c.push(4, 2);
        assert_eq!(c.into_pairs(), vec![(4, 2)]);
    }
}
