//! Answer checking. Never runs inside a timed interval.

use asj_geom::sweep::nested_loop_join;
use asj_geom::{JoinPredicate, Rect, SpatialObject};

/// Order-independent digest of a pair set: a wrapping sum of mixed pairs,
/// folded with the count. Algorithms report pairs in different orders, so
/// nothing is sorted.
pub fn pair_digest(pairs: &[(u32, u32)]) -> u64 {
    let mut sum = 0u64;
    for &(a, b) in pairs {
        let mut z = (u64::from(a) << 32 | u64::from(b)).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        sum = sum.wrapping_add(z ^ (z >> 31));
    }
    sum ^ (pairs.len() as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)
}

/// Brute-force reference answer: `nested_loop_join` of every chunk of
/// `chunk` consecutive R objects against the S objects within ε of the
/// chunk's bounding box. Exact — an S object farther than ε from the box
/// is farther than ε from everything in it — and 20× cheaper than the
/// full product on clustered R, which is what lets every instance of an
/// ensemble be checked.
pub fn reference_digest(
    r: &[SpatialObject],
    s: &[SpatialObject],
    pred: &JoinPredicate,
    chunk: usize,
) -> u64 {
    let reach = pred.epsilon();
    let mut pairs = Vec::new();
    for part in r.chunks(chunk.max(1)) {
        let bbox = Rect::union_of(part.iter().map(|o| o.mbr)).expect("chunks are non-empty");
        let near: Vec<SpatialObject> = s
            .iter()
            .filter(|o| o.mbr.min_dist(&bbox) <= reach)
            .copied()
            .collect();
        pairs.extend(nested_loop_join(part, &near, pred));
    }
    pair_digest(&pairs)
}

/// Attempted and failed operations of one run. An op fails when it
/// errors, panics, comes back unavailable or partial, or answers with a
/// digest other than the verified one.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed ÷ attempted (0 before anything ran).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(n: u32, dx: f64) -> Vec<SpatialObject> {
        (0..n)
            .map(|i| SpatialObject::point(i, f64::from(i) * 10.0 + dx, f64::from(i % 7) * 3.0))
            .collect()
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let a = [(1, 2), (3, 4), (5, 6)];
        let b = [(5, 6), (1, 2), (3, 4)];
        assert_eq!(pair_digest(&a), pair_digest(&b));
        assert_ne!(pair_digest(&a), pair_digest(&a[..2]));
        assert_ne!(pair_digest(&[(1, 2)]), pair_digest(&[(2, 1)]));
        assert_ne!(pair_digest(&[]), pair_digest(&[(0, 0)]));
    }

    #[test]
    fn chunked_reference_equals_the_full_product() {
        let (r, s) = (pts(200, 0.0), pts(300, 4.0));
        let pred = JoinPredicate::WithinDistance(25.0);
        let full = pair_digest(&nested_loop_join(&r, &s, &pred));
        for chunk in [1, 7, 50, 1000] {
            assert_eq!(
                reference_digest(&r, &s, &pred, chunk),
                full,
                "chunk {chunk}"
            );
        }
    }

    #[test]
    fn a_wrong_expected_digest_raises_the_failed_share() {
        let (r, s) = (pts(50, 0.0), pts(50, 2.0));
        let pred = JoinPredicate::WithinDistance(15.0);
        let answer = pair_digest(&nested_loop_join(&r, &s, &pred));
        let expected = reference_digest(&r, &s, &pred, 10);
        let mut tally = Tally::default();
        tally.record(answer == expected);
        assert_eq!(tally.failed_share(), 0.0);
        tally.record(answer == expected ^ 1);
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
        assert_eq!(tally.failed_share(), 0.5);
    }
}
