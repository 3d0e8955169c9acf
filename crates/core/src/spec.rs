//! Join specifications.
//!
//! # Requirement: one meaning for ε
//!
//! A distance join pairs `r` and `s` when their MBRs lie within |ε| of
//! each other, whatever sign ε is written with, and every algorithm
//! returns the pairs the nested-loop reference
//! (`asj_geom::sweep::nested_loop_join`, whose `Rect::within_distance`
//! squares ε) returns.
//!
//! - **WHEN** a join runs a [`JoinPredicate::WithinDistance`] spec with
//!   ε < 0 or ε = −0
//! - **THEN** it runs as `WithinDistance(|ε|)`: the device's kernel,
//!   every request it sends and the window extension all read |ε|
//! - **AND** NaN and +∞ are read as they are, and −∞ as +∞
//! - **WHEN** the spec's [`mbr_half_extent_hint`](JoinSpec::mbr_half_extent_hint)
//!   is negative
//! - **THEN** the join reads its absolute value
//!
//! The constructors cannot enforce this, since the fields are public, and
//! a server still takes any ε a client sends (`WIRE.md`).
//!
//! Enforced by: [`JoinPredicate::epsilon`], which returns |ε| and is how
//! the window extension, the device's kernels and every request read a
//! predicate's ε, and `ExecCtx::new`, which every algorithm's `run`
//! starts with, for the hint (pinned by `tests/edge_cases.rs`'s
//! `negative_eps_joins_like_its_absolute_value` and, for every class of
//! ε and hint on four deployment shapes, `tests/prop_end_to_end.rs`'s
//! `every_eps_means_one_thing_on_every_deployment`).

use asj_geom::JoinPredicate;

/// What the join should return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputKind {
    /// All qualifying `(r, s)` pairs.
    Pairs,
    /// Iceberg distance semi-join: R-objects with at least `min_matches`
    /// qualifying partners in S ("hotels close to at least 10
    /// restaurants"). Pairs are still collected; the threshold is applied
    /// as the final aggregation on the device.
    Iceberg { min_matches: u32 },
}

/// Full specification of one distributed join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinSpec {
    /// The spatial predicate θ.
    pub predicate: JoinPredicate,
    /// Pair output vs iceberg aggregation.
    pub output: OutputKind,
    /// Use bucket ε-RANGE submission in NLSJ (Section 3.1's `c2'`). The
    /// paper's Figure 8 runs "the bucket versions of the algorithms".
    pub bucket_nlsj: bool,
    /// Upper bound on the half-diagonal of object MBRs, used to widen the
    /// ε/2 window extension so the reference-point discipline stays exact
    /// for non-point objects (see `asj_geom::dedup`). Zero for point
    /// datasets; the rail experiments set it from the generator spec.
    pub mbr_half_extent_hint: f64,
    /// Seed for the device's local randomness (UpJoin's confirming random
    /// COUNT window placement). Deterministic runs by default.
    pub seed: u64,
}

impl JoinSpec {
    /// ε-distance join returning pairs.
    pub fn distance_join(eps: f64) -> Self {
        JoinSpec {
            predicate: JoinPredicate::WithinDistance(eps),
            output: OutputKind::Pairs,
            bucket_nlsj: false,
            mbr_half_extent_hint: 0.0,
            seed: 0xA5,
        }
    }

    /// MBR intersection join returning pairs.
    pub fn intersection_join() -> Self {
        JoinSpec {
            predicate: JoinPredicate::Intersects,
            output: OutputKind::Pairs,
            bucket_nlsj: false,
            mbr_half_extent_hint: 0.0,
            seed: 0xA5,
        }
    }

    /// Iceberg distance semi-join with threshold `m`.
    pub fn iceberg(eps: f64, m: u32) -> Self {
        JoinSpec {
            output: OutputKind::Iceberg { min_matches: m },
            ..JoinSpec::distance_join(eps)
        }
    }

    /// Enables bucket NLSJ submission.
    pub fn with_bucket_nlsj(mut self, on: bool) -> Self {
        self.bucket_nlsj = on;
        self
    }

    /// Sets the MBR half-extent hint.
    pub fn with_mbr_half_extent(mut self, hint: f64) -> Self {
        self.mbr_half_extent_hint = hint;
        self
    }

    /// Sets the device-side randomness seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Per-side window extension for every server interaction: ε/2 plus
    /// the half-extent hint, per Section 3 of the paper (0 for
    /// intersection joins).
    ///
    /// Soundness: a qualifying pair at distance `d ≤ ε` whose reference
    /// point (the midpoint of its centres) falls in cell `c` has both
    /// members within `d/2 ≤ ε/2` of that midpoint when they are points,
    /// hence both intersect `c` extended by ε/2. A non-point member's
    /// centre can lie farther from the midpoint by up to its half-extent,
    /// which the hint bounds (see `asj_geom::dedup`).
    pub fn extension(&self) -> f64 {
        match self.predicate {
            JoinPredicate::Intersects => 0.0,
            JoinPredicate::WithinDistance(_) => {
                self.predicate.epsilon() * 0.5 + self.mbr_half_extent_hint
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_spec() {
        let s = JoinSpec::distance_join(100.0);
        assert_eq!(s.predicate, JoinPredicate::WithinDistance(100.0));
        assert_eq!(s.output, OutputKind::Pairs);
        assert_eq!(s.extension(), 50.0);
        assert!(!s.bucket_nlsj);
    }

    #[test]
    fn intersection_has_no_extension() {
        let s = JoinSpec::intersection_join().with_mbr_half_extent(30.0);
        assert_eq!(s.extension(), 0.0);
    }

    #[test]
    fn hint_widens_extension() {
        let s = JoinSpec::distance_join(100.0).with_mbr_half_extent(7.5);
        assert_eq!(s.extension(), 57.5);
    }

    #[test]
    fn iceberg_spec() {
        let s = JoinSpec::iceberg(100.0, 10);
        assert_eq!(s.output, OutputKind::Iceberg { min_matches: 10 });
        assert_eq!(s.predicate.epsilon(), 100.0);
    }

    #[test]
    fn builders_chain() {
        let s = JoinSpec::distance_join(1.0)
            .with_bucket_nlsj(true)
            .with_seed(7);
        assert!(s.bucket_nlsj);
        assert_eq!(s.seed, 7);
    }
}
