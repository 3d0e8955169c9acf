//! Minimal offline stand-in for `proptest`.
//!
//! Supports the subset this workspace's property suites use: the
//! [`proptest!`] macro (with an optional `#![proptest_config(...)]`
//! header), strategies built from ranges / tuples / [`prop_map`] /
//! [`Just`] / [`any`] / [`prop_oneof!`] / `prop::collection::vec`, and
//! the `prop_assert*` / [`prop_assume!`] macros.
//!
//! Differences from the real crate, deliberately accepted:
//!
//! * **No shrinking** — a failing case reports the assertion message
//!   (argument values travel in `Debug` of the panic payload only if the
//!   assertion includes them). Cases are deterministic per test name, so
//!   failures reproduce exactly across runs.
//! * **No persistence** — there is no `proptest-regressions` directory.
//!
//! [`prop_map`]: Strategy::prop_map

pub mod collection;
pub mod strategy;

pub use strategy::{BoxedStrategy, Just, Strategy};

/// Deterministic generator driving all strategies (SplitMix64 core).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds from a test name so every test has a stable stream.
    pub fn from_name(name: &str) -> Self {
        // FNV-1a, then a splitmix scramble.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng {
            state: h ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Per-test configuration. Only `cases` is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // The real default is 256; keep it so coverage matches upstream
        // expectations.
        ProptestConfig { cases: 256 }
    }
}

/// Outcome of one generated case.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is not counted.
    Reject,
    /// A `prop_assert*` failed.
    Fail(String),
}

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
}

/// Drives `config.cases` successful cases of `body`. Called by the
/// [`proptest!`] expansion; not part of the public proptest API.
pub fn run_test<F>(config: &ProptestConfig, name: &str, mut body: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let mut rng = TestRng::from_name(name);
    let mut executed = 0u32;
    let mut rejected = 0u32;
    let max_rejects = config.cases.saturating_mul(16).saturating_add(1024);
    while executed < config.cases {
        match body(&mut rng) {
            Ok(()) => executed += 1,
            Err(TestCaseError::Reject) => {
                rejected += 1;
                assert!(
                    rejected <= max_rejects,
                    "{name}: too many prop_assume! rejections ({rejected}) — \
                     strategy rarely satisfies the assumption"
                );
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!("{name}: property failed at case {executed}: {msg}")
            }
        }
    }
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        ProptestConfig, TestCaseError,
    };

    /// Namespace mirror so `prop::collection::vec(..)` resolves after a
    /// glob import of this prelude, as with the real crate.
    pub mod prop {
        pub use crate::collection;
    }
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases! { $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    ($config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config = $config;
            $crate::run_test(&config, stringify!($name), |__proptest_rng| {
                $(let $arg = $crate::Strategy::generate(&$strategy, __proptest_rng);)*
                let mut __proptest_case =
                    move || -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    };
                __proptest_case()
            });
        }
    )*};
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {{
        // Bind first so lints (e.g. neg_cmp_op_on_partial_ord) see a plain
        // bool negation, not the caller's comparison expression.
        let __prop_assert_holds: bool = $cond;
        if !__prop_assert_holds {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{} == {}` (left: `{:?}`, right: `{:?}`)",
            stringify!($left), stringify!($right), left, right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "{} (left: `{:?}`, right: `{:?}`)",
            format!($($fmt)+), left, right
        );
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{} != {}` (both: `{:?}`)",
            stringify!($left),
            stringify!($right),
            left
        );
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $($crate::Strategy::boxed($strategy)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Shape {
        Dot,
        Box(f64),
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(x in -50i32..=50, y in 0.0f64..10.0, n in 0usize..5) {
            prop_assert!((-50..=50).contains(&x));
            prop_assert!((0.0..10.0).contains(&y));
            prop_assert!(n < 5);
        }

        #[test]
        fn tuples_and_maps(p in (0u32..100, 0u32..100).prop_map(|(a, b)| a + b)) {
            prop_assert!(p < 199);
        }

        #[test]
        fn vec_lengths_respected(v in collection::vec(0u8..10, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&b| b < 10));
        }

        #[test]
        fn oneof_and_just(s in prop_oneof![
            Just(Shape::Dot),
            (0.1f64..5.0).prop_map(Shape::Box),
        ]) {
            match s {
                Shape::Dot => {}
                Shape::Box(w) => prop_assert!(w > 0.0),
            }
        }

        #[test]
        fn assume_rejects_without_failing(a in 0u32..100) {
            prop_assume!(a % 2 == 0);
            prop_assert_eq!(a % 2, 0);
        }

        #[test]
        fn any_covers_primitives(b in any::<bool>(), x in any::<u8>(), w in any::<u64>()) {
            // Touch all three so the strategies must produce values.
            let _ = (b, w);
            prop_assert!(u64::from(x) <= 255);
        }
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn failing_property_panics() {
        crate::run_test(&ProptestConfig::with_cases(8), "failing_property", |_rng| {
            Err(TestCaseError::fail("forced"))
        });
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::TestRng::from_name("t");
        let mut b = crate::TestRng::from_name("t");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
