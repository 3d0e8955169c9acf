//! Deterministic fault injection on the [`RawExchange`] seam.
//!
//! A [`FaultLayer`] wraps any carrier — below the physical edge, so it
//! sees exactly the frames that cross the wire — and injects the failure
//! modes of the paper's ad-hoc wireless setting from a scripted
//! [`FaultPlan`]: **drops** (the exchange
//! never happens; the layer fabricates the local `R_UNAVAILABLE`
//! pseudo-frame, so metering layers correctly charge nothing),
//! **garbled replies** (byte 0 of the reply is stamped with the
//! `codec::op::GARBLE` marker, so it decodes to a typed
//! `Malformed` and can never silently become a different valid value),
//! and **crash-then-restart** (a scripted window of exchanges answers
//! unavailable; when it ends, an optional restart hook swaps in a fresh
//! carrier — typically a server replaying its `VersionedStore` at its
//! last published generation).
//!
//! # Determinism contract
//!
//! Every per-request fault decision is a pure function of `(plan.seed,
//! request bytes, attempt index)` — the attempt index counts consecutive
//! faulted deliveries of that exact byte string and resets on a clean
//! delivery. Thread scheduling therefore cannot change which fault an
//! attempt draws: a chaos run is replayable from its seed alone, and
//! raising a retry budget only *appends* attempts (attempts `0..k` roll
//! identically at every budget ≥ `k`), which is what makes a request's
//! success structurally monotone in the retry budget at a fixed seed —
//! the law `success_is_monotone_in_the_retry_budget` in the facade's
//! `tests/prop_end_to_end.rs` holds per request on generated scripts.
//! The crash window is keyed by the layer's exchange counter instead, so
//! it is deterministic for a serial request stream and approximately
//! placed under concurrency.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

use bytes::Bytes;

use crate::codec::{garble_frame, is_unavailable, unavailable_frame};
use crate::health::spread_hash;
use crate::meter::telemetry;
use crate::transport::RawExchange;

/// Scripted crash of the endpoint behind a [`FaultLayer`]: exchanges
/// `at .. at + dark` (0-based, counted at the layer) answer unavailable;
/// the first exchange past the window triggers the restart hook, once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Exchange index at which the endpoint goes dark. Every frame an
    /// edge sends is a request (a retry is one more), so index `i` is the
    /// `i`-th request the edge's link sends over this layer, 0 its first.
    pub at: u64,
    /// Number of consecutive exchanges the endpoint stays dark for;
    /// `u64::MAX` keeps it dark for good.
    pub dark: u64,
}

/// The script of one [`FaultLayer`]. `FaultPlan::default()` injects
/// nothing — a layer with the default plan is a byte-transparent proxy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of every per-request fault roll.
    pub seed: u64,
    /// Probability an exchange is dropped entirely (locally fabricated
    /// `R_UNAVAILABLE`; the inner carrier is never touched).
    pub drop_rate: f64,
    /// Probability the reply is garbled (byte 0 stamped with the garble
    /// marker).
    pub garble_rate: f64,
    /// Optional scripted crash-then-restart window.
    pub crash: Option<CrashPlan>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_rate: 0.0,
            garble_rate: 0.0,
            crash: None,
        }
    }
}

impl FaultPlan {
    /// A no-fault plan with the given seed; compose with the `with_*`
    /// builders.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Drops each exchange with probability `rate`.
    pub fn with_drops(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "drop rate must be in [0, 1]");
        self.drop_rate = rate;
        self
    }

    /// Garbles each reply with probability `rate`.
    pub fn with_garbles(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "garble rate must be in [0, 1]");
        self.garble_rate = rate;
        self
    }

    /// Scripts a crash window: exchanges `at .. at + dark` go dark.
    pub fn with_crash(mut self, at: u64, dark: u64) -> Self {
        self.crash = Some(CrashPlan { at, dark });
        self
    }
}

telemetry! {
    /// Point-in-time injection tally of one [`FaultLayer`].
    pub struct FaultStats / FaultCounters {
        /// Exchanges answered with the locally fabricated unavailable frame
        /// (nothing touched the inner carrier).
        counter dropped,
        /// Frames stamped with the garble marker.
        counter garbled,
        /// Exchanges swallowed by the scripted crash window.
        counter blacked_out,
        /// Restart hooks fired (0 or 1).
        counter restarts,
    }
}

/// A fresh carrier for the restarted endpoint — typically connected to a
/// server rebuilt over `VersionedStore::with_generation`, so the restart
/// resumes at the crashed endpoint's last published generation and
/// clients' generation vectors never regress.
pub type RestartFn = Box<dyn Fn() -> Box<dyn RawExchange> + Send + Sync>;

/// Deterministic, seeded fault injector implementing [`RawExchange`] —
/// stacks beneath the physical edge, under `Link`/`CacheLayer`/
/// `ShardRouter`. See the module docs for the determinism contract.
pub struct FaultLayer {
    inner: RwLock<Box<dyn RawExchange>>,
    plan: FaultPlan,
    /// Consecutive faulted-delivery count per request byte string (FNV
    /// hash); reset on every clean delivery. The attempt index of the
    /// fault roll.
    attempts: Mutex<HashMap<u64, u64>>,
    exchanges: AtomicU64,
    restart: Option<RestartFn>,
    restarted: AtomicBool,
    counters: FaultCounters,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Maps 64 random bits onto `[0, 1)`.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// What one attempt's roll decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Roll {
    drop: bool,
    garble: bool,
}

impl FaultLayer {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: Box<dyn RawExchange>, plan: FaultPlan) -> Self {
        FaultLayer {
            inner: RwLock::new(inner),
            plan,
            attempts: Mutex::new(HashMap::new()),
            exchanges: AtomicU64::new(0),
            restart: None,
            restarted: AtomicBool::new(false),
            counters: FaultCounters::default(),
        }
    }

    /// Installs the crash-restart hook: invoked exactly once, on the
    /// first exchange past the scripted dark window, and its carrier
    /// replaces the crashed one.
    pub fn with_restart(mut self, hook: RestartFn) -> Self {
        self.restart = Some(hook);
        self
    }

    /// Injection tally so far.
    pub fn stats(&self) -> FaultStats {
        self.counters.load()
    }

    /// The pure fault roll of `(seed, request hash, attempt)` — see the
    /// module-level determinism contract.
    fn roll_at(&self, hash: u64, attempt: u64) -> Roll {
        let base = self
            .plan
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(hash)
            .wrapping_add(attempt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        // The garble roll sits at `base + 2`: where a scripted fault lands
        // is pinned (`tests/sessions.rs`), and that is its offset.
        Roll {
            drop: unit(splitmix64(base)) < self.plan.drop_rate,
            garble: unit(splitmix64(base.wrapping_add(2))) < self.plan.garble_rate,
        }
    }

    /// Draws the next attempt's roll for this request byte string and
    /// advances (or resets) its consecutive-fault counter.
    fn next_roll(&self, request: &[u8]) -> Roll {
        let hash = spread_hash(request);
        let mut attempts = self.attempts.lock().expect("fault attempt lock");
        let attempt = attempts.get(&hash).copied().unwrap_or(0);
        let roll = self.roll_at(hash, attempt);
        if roll.drop || roll.garble {
            attempts.insert(hash, attempt + 1);
        } else if attempt > 0 {
            attempts.remove(&hash);
        }
        roll
    }

    fn ensure_restarted(&self) {
        if self.restarted.load(Ordering::Acquire) {
            return;
        }
        let mut inner = self.inner.write().expect("fault inner lock");
        if self.restarted.load(Ordering::Acquire) {
            return;
        }
        if let Some(hook) = &self.restart {
            *inner = hook();
            self.counters.restarts.fetch_add(1, Ordering::Relaxed);
        }
        self.restarted.store(true, Ordering::Release);
    }

    /// Everything the script decides when an exchange begins: crash
    /// window, roll, drop. `None` when the exchange never happens — the
    /// inner carrier is not touched and the fabricated unavailable frame
    /// must stay unmetered; otherwise the frame to ship and whether its
    /// *reply* is to be garbled.
    fn admit(&self, request: Bytes) -> Option<(Bytes, bool)> {
        let n = self.exchanges.fetch_add(1, Ordering::SeqCst);
        if let Some(crash) = &self.plan.crash {
            let end = crash.at.saturating_add(crash.dark);
            if n >= crash.at && n < end {
                self.counters.blacked_out.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            if n >= end {
                self.ensure_restarted();
            }
        }
        let roll = self.next_roll(&request);
        if roll.drop {
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        Some((request, roll.garble))
    }
}

impl RawExchange for FaultLayer {
    /// Admits, ships and garbles one frame. The decision comes first:
    /// `admit` may restart the carrier, which it cannot do under the read
    /// lock the frame is shipped under.
    fn exchange(&self, request: Bytes) -> Bytes {
        let Some((request, garble)) = self.admit(request) else {
            return unavailable_frame();
        };
        let raw = self
            .inner
            .read()
            .expect("fault inner lock")
            .exchange(request);
        // A carrier-fabricated unavailable frame never crossed the wire:
        // there is no frame to garble.
        if garble && !is_unavailable(&raw) {
            self.counters.garbled.fetch_add(1, Ordering::Relaxed);
            return garble_frame(&raw);
        }
        raw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_response, encode_request, is_unavailable};
    use crate::proto::Request;
    use crate::testutil::ScanHandler;
    use crate::transport::InProcExchange;
    use asj_geom::{Rect, SpatialObject};
    use std::sync::Arc;

    fn inner() -> Box<dyn RawExchange> {
        Box::new(InProcExchange::new(Arc::new(ScanHandler(vec![
            SpatialObject::point(1, 1.0, 1.0),
            SpatialObject::point(2, 5.0, 5.0),
        ]))))
    }

    fn count_req(i: u32) -> Bytes {
        encode_request(&Request::Count(Rect::from_coords(
            0.0,
            0.0,
            f64::from(i) + 1.0,
            10.0,
        )))
    }

    #[test]
    fn default_plan_is_byte_transparent() {
        let layer = FaultLayer::new(inner(), FaultPlan::default());
        let direct = inner();
        for i in 0..20 {
            assert_eq!(
                layer.exchange(count_req(i)).as_ref(),
                direct.exchange(count_req(i)).as_ref()
            );
        }
        assert_eq!(layer.stats(), FaultStats::default());
    }

    #[test]
    fn runs_replay_identically_by_seed() {
        let plan = FaultPlan::seeded(42).with_drops(0.3).with_garbles(0.3);
        let run = |_: u32| {
            let layer = FaultLayer::new(inner(), plan);
            let replies: Vec<Bytes> = (0..50).map(|i| layer.exchange(count_req(i % 7))).collect();
            (replies, layer.stats())
        };
        let (a, sa) = run(0);
        let (b, sb) = run(1);
        assert_eq!(sa, sb);
        assert!(sa.dropped > 0 && sa.garbled > 0, "plan must actually fire");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.as_ref(), y.as_ref());
        }
    }

    #[test]
    fn different_seeds_draw_different_faults() {
        let run = |seed: u64| {
            let layer = FaultLayer::new(inner(), FaultPlan::seeded(seed).with_drops(0.5));
            (0..64).for_each(|i| {
                layer.exchange(count_req(i));
            });
            layer.stats()
        };
        // Not a tautology (both could coincide), but these two seeds are
        // pinned to differ — the replayability story depends on the seed
        // actually steering the rolls.
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn dropped_exchanges_fabricate_unavailable_without_touching_inner() {
        struct Panicking;
        impl RawExchange for Panicking {
            fn exchange(&self, _request: Bytes) -> Bytes {
                panic!("a dropped exchange must never reach the inner carrier");
            }
        }
        let layer = FaultLayer::new(Box::new(Panicking), FaultPlan::seeded(7).with_drops(1.0));
        let reply = layer.exchange(count_req(0));
        assert!(is_unavailable(&reply));
        assert_eq!(layer.stats().dropped, 1);
    }

    #[test]
    fn garbled_replies_decode_to_typed_malformed() {
        let layer = FaultLayer::new(inner(), FaultPlan::seeded(3).with_garbles(1.0));
        let reply = layer.exchange(count_req(0));
        assert_eq!(reply[0], crate::codec::op::GARBLE);
        assert!(decode_response(reply).is_err());
        assert_eq!(layer.stats().garbled, 1);
    }

    #[test]
    fn attempt_rolls_are_budget_stable_and_reset_on_clean_delivery() {
        // Attempts 0..k of one request roll identically regardless of how
        // many more attempts follow — the structural monotonicity that
        // `success_is_monotone_in_the_retry_budget` (tests/prop_end_to_end.rs)
        // holds a whole deployment to.
        let plan = FaultPlan::seeded(11).with_drops(0.6);
        let layer_a = FaultLayer::new(inner(), plan);
        let layer_b = FaultLayer::new(inner(), plan);
        let req = count_req(0);
        let a: Vec<bool> = (0..3)
            .map(|_| is_unavailable(&layer_a.exchange(req.clone())))
            .collect();
        let b: Vec<bool> = (0..6)
            .map(|_| is_unavailable(&layer_b.exchange(req.clone())))
            .collect();
        assert_eq!(a, b[..3], "shorter budgets are prefixes of longer ones");
        // After a clean delivery the attempt counter resets: the next
        // delivery of the same bytes re-rolls attempt 0.
        if let Some(first_clean) = b.iter().position(|dropped| !dropped) {
            let again = is_unavailable(&layer_b.exchange(req.clone()));
            assert_eq!(
                again, b[0],
                "attempt 0 re-rolls identically after a reset (clean at {first_clean})"
            );
        }
    }

    #[test]
    fn crash_window_goes_dark_then_restart_hook_fires_once() {
        let swapped: Arc<AtomicU64> = Arc::new(AtomicU64::new(0));
        let hook_swaps = Arc::clone(&swapped);
        let layer = FaultLayer::new(inner(), FaultPlan::seeded(0).with_crash(2, 3)).with_restart(
            Box::new(move |/* fresh carrier for the restarted endpoint */| {
                hook_swaps.fetch_add(1, Ordering::SeqCst);
                inner()
            }),
        );
        let outcomes: Vec<bool> = (0..8)
            .map(|i| is_unavailable(&layer.exchange(count_req(i))))
            .collect();
        assert_eq!(
            outcomes,
            vec![false, false, true, true, true, false, false, false]
        );
        assert_eq!(swapped.load(Ordering::SeqCst), 1, "hook fires exactly once");
        assert_eq!(layer.stats().blacked_out, 3);
        assert_eq!(layer.stats().restarts, 1);
    }
}
