//! Per-endpoint health: deterministic circuit breakers for replicated
//! shard fleets.
//!
//! # The breaker contract
//!
//! Every replica edge of a [`ShardRouter`](crate::router::ShardRouter)
//! carries one [`EdgeHealth`]. The breaker is a three-state machine:
//!
//! * **Closed** — the edge is routable. Each failed exchange increments a
//!   consecutive-failure counter; reaching `BreakerConfig::threshold`
//!   trips the breaker to Open. Any success resets the counter.
//! * **Open** — the edge is skipped by replica picks and failover
//!   rotations (it still gets traffic as a *last resort*, when every
//!   sibling of the set is open too — a breaker must never blank the only
//!   remaining candidates). The state holds for
//!   `BreakerConfig::cooldown` ticks of the replica set's exchange clock.
//! * **HalfOpen** — once the cooldown elapses the edge is eligible again
//!   and the next exchange through it is the probe: success closes the
//!   breaker, failure re-opens it (restarting the cooldown and counting
//!   another trip).
//!
//! **Determinism.** Every transition is driven by exchange *outcomes*, and
//! the cooldown is measured on a per-replica-set exchange counter — never
//! a wall clock. Replaying the same request sequence against the same
//! fault seed therefore replays the exact same breaker states, which is
//! what lets the chaos suites assert on them.
//!
//! # The generation-floor contract
//!
//! Failover must not trade availability for staleness. The router keeps,
//! per shard, the highest snapshot generation ever observed from *any*
//! replica (fetch-maxed from every response stamp and update `Ack` — see
//! [`ShardMeta::note_generation`](crate::router::ShardMeta::note_generation)).
//! That maximum is the shard's **generation floor**: a read reply stamped
//! *below* the floor comes from a replica that lags a state the client has
//! already seen, so it is rejected — metered as real traffic, counted as a
//! failure against the replica's health, and refetched from a sibling.
//! The floor makes replica handoff invisible to everything above the
//! router: the client cache never admits a stale window at a fresh
//! content generation, and the never-wrong envelope of the chaos suites
//! survives arbitrary failover orders.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Circuit-breaker knobs of one fleet. Disabled by default: an inert
/// breaker never alters routing, keeping replica-less deployments
/// byte-identical to pre-breaker builds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// When `false` (the default) consecutive failures are still
    /// counted — they are observability — but the state machine stays
    /// Closed and routing never skips an edge.
    pub enabled: bool,
    /// Consecutive failures that trip a Closed breaker to Open.
    pub(crate) threshold: u32,
    /// Exchange-clock ticks an Open breaker holds before HalfOpen.
    pub(crate) cooldown: u64,
}

impl BreakerConfig {
    const DEFAULT_THRESHOLD: u32 = 3;
    const DEFAULT_COOLDOWN: u64 = 8;

    /// Breakers off (the default): tracking only, no routing effect.
    pub fn disabled() -> Self {
        BreakerConfig {
            enabled: false,
            threshold: Self::DEFAULT_THRESHOLD,
            cooldown: Self::DEFAULT_COOLDOWN,
        }
    }

    /// Breakers on with explicit knobs: a test seam — every deployment
    /// runs [`BreakerConfig::enabled`]'s.
    #[cfg(any(test, feature = "testing"))]
    pub fn new(threshold: u32, cooldown: u64) -> Self {
        assert!(threshold >= 1, "a breaker needs a positive trip threshold");
        BreakerConfig {
            enabled: true,
            threshold,
            cooldown,
        }
    }

    /// Breakers on with the default knobs: a Closed breaker trips on the
    /// 3rd consecutive failure and half-opens 8 exchange-clock ticks later.
    pub fn enabled() -> Self {
        BreakerConfig {
            enabled: true,
            ..BreakerConfig::disabled()
        }
    }
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig::disabled()
    }
}

/// The breaker states. See the module docs for the transition rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    #[default]
    Closed,
    Open,
    HalfOpen,
}

#[derive(Debug, Default)]
struct EdgeState {
    /// Consecutive failed exchanges since the last success.
    consecutive: u32,
    /// Exchange-clock reading at the moment the breaker last opened;
    /// `None` while Closed.
    opened_at: Option<u64>,
}

/// Health of one replica edge: breaker state and consecutive failures.
/// All methods take the owning replica set's exchange clock, never a wall
/// clock — see the module docs.
#[derive(Debug, Default)]
pub struct EdgeHealth {
    state: Mutex<EdgeState>,
}

impl EdgeHealth {
    pub fn new() -> Self {
        EdgeHealth::default()
    }

    /// Records a successful exchange: resets the consecutive-failure
    /// counter and closes the breaker (a HalfOpen probe succeeding is the
    /// close transition; an Open edge succeeding as a last resort heals
    /// too — the outcome is the evidence, not the state we expected).
    pub fn on_success(&self) {
        let mut s = self.state.lock().expect("health lock poisoned");
        s.consecutive = 0;
        s.opened_at = None;
    }

    /// Records a failed exchange at exchange-clock reading `clock`.
    /// Returns `true` when this failure *trips* the breaker to Open (a
    /// Closed edge reaching the threshold, or a HalfOpen probe failing) —
    /// the caller meters those as `breaker_open` events.
    pub fn on_failure(&self, cfg: &BreakerConfig, clock: u64) -> bool {
        let mut s = self.state.lock().expect("health lock poisoned");
        s.consecutive = s.consecutive.saturating_add(1);
        if !cfg.enabled {
            return false;
        }
        match s.opened_at {
            // A failed HalfOpen probe re-opens and restarts the cooldown.
            Some(at) if clock >= at.saturating_add(cfg.cooldown) => {
                s.opened_at = Some(clock);
                true
            }
            // Still Open (last-resort traffic failed): hold the state.
            Some(_) => false,
            None if s.consecutive >= cfg.threshold => {
                s.opened_at = Some(clock);
                true
            }
            None => false,
        }
    }

    /// The breaker state at exchange-clock reading `clock`.
    pub fn state(&self, cfg: &BreakerConfig, clock: u64) -> BreakerState {
        if !cfg.enabled {
            return BreakerState::Closed;
        }
        let s = self.state.lock().expect("health lock poisoned");
        match s.opened_at {
            None => BreakerState::Closed,
            Some(at) if clock >= at.saturating_add(cfg.cooldown) => BreakerState::HalfOpen,
            Some(_) => BreakerState::Open,
        }
    }

    /// `true` when routing may pick this edge: Closed, or HalfOpen (the
    /// probe). Open edges are skipped — unless every sibling is open too,
    /// in which case the caller falls back to the full set.
    pub fn admits(&self, cfg: &BreakerConfig, clock: u64) -> bool {
        self.state(cfg, clock) != BreakerState::Open
    }

    /// Point-in-time copy of this edge's health.
    pub fn snapshot(&self, cfg: &BreakerConfig, clock: u64) -> HealthSnapshot {
        let state = self.state(cfg, clock);
        let s = self.state.lock().expect("health lock poisoned");
        HealthSnapshot {
            state,
            consecutive_failures: s.consecutive,
        }
    }
}

/// A point-in-time copy of one replica edge's health. The edge's trips
/// are its meter's `breaker_open`
/// ([`FleetSnapshot::per_replica`](crate::router::FleetSnapshot::per_replica)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthSnapshot {
    pub state: BreakerState,
    /// Consecutive failed exchanges since the last success.
    pub consecutive_failures: u32,
}

/// Health of one shard's replica set: one [`EdgeHealth`] per replica plus
/// the set's exchange clock — a counter of physical tries issued against
/// the set, the deterministic time base every cooldown is measured on.
#[derive(Debug)]
pub struct ReplicaSetHealth {
    clock: AtomicU64,
    edges: Vec<EdgeHealth>,
}

impl ReplicaSetHealth {
    pub fn new(replicas: usize) -> Self {
        ReplicaSetHealth {
            clock: AtomicU64::new(0),
            edges: (0..replicas).map(|_| EdgeHealth::new()).collect(),
        }
    }

    /// Advances the exchange clock by one issued try and returns the
    /// reading *before* the tick.
    pub fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Current clock reading.
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Number of replica edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Health of replica `j`.
    pub fn edge(&self, j: usize) -> &EdgeHealth {
        &self.edges[j]
    }

    /// Per-replica health snapshots, in replica order.
    pub fn snapshot(&self, cfg: &BreakerConfig) -> Vec<HealthSnapshot> {
        let now = self.now();
        self.edges.iter().map(|e| e.snapshot(cfg, now)).collect()
    }
}

/// FNV-1a over a request's encoded bytes: the deterministic spread that
/// picks a replica. Same bytes, same pick — across links, runs and
/// machines.
pub fn spread_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    const CFG: BreakerConfig = BreakerConfig {
        enabled: true,
        threshold: 3,
        cooldown: 5,
    };

    #[test]
    fn closed_trips_open_after_threshold_consecutive_failures() {
        let e = EdgeHealth::new();
        assert!(!e.on_failure(&CFG, 0));
        assert!(!e.on_failure(&CFG, 1));
        assert_eq!(e.state(&CFG, 2), BreakerState::Closed);
        assert!(e.on_failure(&CFG, 2), "third consecutive failure trips");
        assert_eq!(e.state(&CFG, 3), BreakerState::Open);
    }

    #[test]
    fn enabled_breakers_trip_on_the_third_failure_and_half_open_after_the_default_cooldown() {
        let cfg = BreakerConfig::enabled();
        let e = EdgeHealth::new();
        assert!(!e.on_failure(&cfg, 0));
        assert!(!e.on_failure(&cfg, 1));
        assert_eq!(e.state(&cfg, 1), BreakerState::Closed, "2 failures");
        assert!(e.on_failure(&cfg, 2), "the 3rd consecutive failure trips");
        assert_eq!(BreakerConfig::DEFAULT_COOLDOWN, 8);
        let half_open = 2 + BreakerConfig::DEFAULT_COOLDOWN;
        assert_eq!(e.state(&cfg, half_open - 1), BreakerState::Open);
        assert_eq!(e.state(&cfg, half_open), BreakerState::HalfOpen);
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let e = EdgeHealth::new();
        e.on_failure(&CFG, 0);
        e.on_failure(&CFG, 1);
        e.on_success();
        e.on_failure(&CFG, 2);
        assert!(!e.on_failure(&CFG, 3), "count restarted after the success");
        assert_eq!(e.state(&CFG, 4), BreakerState::Closed);
    }

    #[test]
    fn open_holds_for_the_cooldown_then_half_opens() {
        let e = EdgeHealth::new();
        for clock in 0..3 {
            e.on_failure(&CFG, clock);
        }
        // Tripped at clock 2; holds through 2..2+5.
        assert_eq!(e.state(&CFG, 2), BreakerState::Open);
        assert_eq!(e.state(&CFG, 6), BreakerState::Open);
        assert_eq!(e.state(&CFG, 7), BreakerState::HalfOpen);
        assert!(!e.admits(&CFG, 6));
        assert!(e.admits(&CFG, 7), "the half-open probe is admitted");
    }

    #[test]
    fn half_open_probe_success_closes_failure_reopens() {
        let a = EdgeHealth::new();
        let b = EdgeHealth::new();
        for clock in 0..3 {
            a.on_failure(&CFG, clock);
            b.on_failure(&CFG, clock);
        }
        // Probe at clock 7 (half-open).
        a.on_success();
        assert_eq!(a.state(&CFG, 7), BreakerState::Closed);
        assert!(b.on_failure(&CFG, 7), "a failed probe is a fresh trip");
        assert_eq!(b.state(&CFG, 8), BreakerState::Open);
        assert_eq!(b.state(&CFG, 12), BreakerState::HalfOpen);
    }

    #[test]
    fn disabled_breakers_track_but_never_open() {
        let cfg = BreakerConfig::disabled();
        let e = EdgeHealth::new();
        for clock in 0..10 {
            assert!(!e.on_failure(&cfg, clock));
        }
        assert_eq!(e.state(&cfg, 10), BreakerState::Closed);
        assert!(e.admits(&cfg, 10));
        let snap = e.snapshot(&cfg, 10);
        assert_eq!(snap.consecutive_failures, 10);
    }

    /// Same outcome sequence ⇒ same state trace: the determinism pin the
    /// chaos replays rely on.
    #[test]
    fn same_outcome_sequence_replays_the_same_states() {
        let script: Vec<bool> = (0..64).map(|i| (i * 7 + 3) % 5 < 2).collect();
        let run = |script: &[bool]| -> Vec<(BreakerState, u32, bool)> {
            let e = EdgeHealth::new();
            script
                .iter()
                .enumerate()
                .map(|(clock, &ok)| {
                    let clock = clock as u64;
                    let tripped = !ok && e.on_failure(&CFG, clock);
                    if ok {
                        e.on_success();
                    }
                    let s = e.snapshot(&CFG, clock + 1);
                    (s.state, s.consecutive_failures, tripped)
                })
                .collect()
        };
        assert_eq!(run(&script), run(&script));
    }

    #[test]
    fn replica_set_clock_ticks_and_snapshots_in_order() {
        let set = ReplicaSetHealth::new(3);
        assert_eq!(set.len(), 3);
        assert_eq!(set.tick(), 0);
        assert_eq!(set.tick(), 1);
        assert_eq!(set.now(), 2);
        set.edge(1).on_failure(&CFG, 0);
        let snaps = set.snapshot(&CFG);
        assert_eq!(snaps.len(), 3);
        assert_eq!(snaps[0].consecutive_failures, 0);
        assert_eq!(snaps[1].consecutive_failures, 1);
    }

    #[test]
    fn spread_hash_is_stable_and_input_sensitive() {
        assert_eq!(spread_hash(b"abc"), spread_hash(b"abc"));
        assert_ne!(spread_hash(b"abc"), spread_hash(b"abd"));
        assert_eq!(spread_hash(b""), 0xcbf2_9ce4_8422_2325);
    }
}
