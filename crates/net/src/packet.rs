//! Packetization cost model — Equation (1) of the paper.

/// TCP/IP packetization parameters of one link.
///
/// `TB(B) = B + BH · ⌈B / (MTU − BH)⌉`: each network packet carries at most
/// `MTU − BH` payload bytes and pays a `BH`-byte header. The paper uses
/// `BH = 40` (TCP/IP) and notes `MTU = 1500` for Ethernet-class links and
/// `576` for dial-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketModel {
    /// Maximum transmission unit in bytes.
    pub mtu: u32,
    /// Per-packet header overhead in bytes (`BH`).
    pub header_bytes: u32,
}

impl Default for PacketModel {
    fn default() -> Self {
        PacketModel {
            mtu: 1500,
            header_bytes: 40,
        }
    }
}

impl PacketModel {
    /// Creates a model; requires `mtu > header_bytes`.
    pub fn new(mtu: u32, header_bytes: u32) -> Self {
        assert!(mtu > header_bytes, "MTU must exceed the header size");
        PacketModel { mtu, header_bytes }
    }

    /// Payload capacity of one packet.
    #[inline]
    pub fn payload_per_packet(&self) -> u64 {
        (self.mtu - self.header_bytes) as u64
    }

    /// Wire bytes for a `payload`-byte message — `TB` of Eq. (1).
    ///
    /// A zero-byte payload still costs one header (the packet must exist;
    /// this also matches the paper's `BH + BQ` accounting for queries where
    /// the header is always paid).
    #[inline]
    pub fn tb(&self, payload: u64) -> u64 {
        payload + self.packets(payload) * self.header_bytes as u64
    }

    /// Number of packets a payload occupies.
    #[inline]
    pub fn packets(&self, payload: u64) -> u64 {
        payload.div_ceil(self.payload_per_packet()).max(1)
    }
}

/// Retry discipline of one device's physical exchanges.
///
/// `max_attempts` counts *total* deliveries of one request, so `1` (the
/// default) means retries are off — a failed exchange surfaces its typed
/// error immediately and the wire traffic is byte-identical to a build
/// without the retry machinery. With `max_attempts > 1`, an exchange whose
/// reply is locally fabricated `R_UNAVAILABLE` or fails to decode is
/// re-issued at once with the *same* request bytes.
///
/// Idempotency classes: queries are read-only and retry freely.
/// `ApplyUpdates` retries only under the batch-sequence dedup envelope
/// (`codec::wrap_dedup`) that the link attaches when retries are enabled,
/// so a duplicated delivery can never double-bump a generation or
/// double-apply a move — the server replays the remembered `Ack` instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total delivery attempts per physical exchange; `1` disables
    /// retries entirely.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 1 }
    }
}

impl RetryPolicy {
    /// A policy allowing `max_attempts` total deliveries.
    pub fn attempts(max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "at least one attempt is required");
        RetryPolicy { max_attempts }
    }

    /// `true` when failed exchanges are re-issued at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.max_attempts > 1
    }
}

/// Full network configuration of a deployment: one packet model shared by
/// both links (the paper's prototype used the same WiFi interface for both
/// servers) and the per-byte tariffs `bR`, `bS`.
///
/// All experiments in the paper set `bR = bS`; the tariffs exist so the
/// cost-based operator choice (`c2` vs `c3`) can be exercised with
/// asymmetric pricing, which the model explicitly supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    pub packet: PacketModel,
    /// Cost per transferred byte from/to server R (`bR`).
    pub tariff_r: f64,
    /// Cost per transferred byte from/to server S (`bS`).
    pub tariff_s: f64,
    /// Client-side semantic statistics/window cache in front of every
    /// server or fleet (see [`crate::cache`]); each side's store holds up
    /// to `cache::WINDOW_BUDGET_BYTES` (256 KiB) of windows. **Off by
    /// default** — when disabled no cache layer is constructed at all, so
    /// every wire byte is identical to a build without the extension;
    /// turning it on never changes join results, only deletes repeated
    /// traffic.
    pub client_cache: bool,
    /// The deployment's wire version: every physical link speaks the
    /// compact protocol v2 (delta-varint ids, quantized coordinates and
    /// varint scalars — see `asj_net::codec::WireVersion`) from its first
    /// frame. There is no handshake: every server the library builds
    /// reads both versions, and a peer that cannot read v2 answers
    /// `Malformed`. **Off by default** — every link speaks v1
    /// byte-identically to a build without the extension. Turning it on
    /// changes frame density only, never decoded objects or join results:
    /// the quantization contract guarantees bit-faithful decode.
    pub wire_v2: bool,
    /// Retry discipline of the device's physical exchanges (see
    /// [`RetryPolicy`]). **Off by default** (`max_attempts == 1`): no
    /// dedup envelope is attached, no exchange is re-issued, and every
    /// wire byte is identical to a build without the extension.
    pub retry: RetryPolicy,
    /// Per-replica-edge circuit breakers on sharded fleets (see
    /// [`crate::health`]). **Off by default**: health is still tracked
    /// for observability, but routing never skips an edge and no breaker
    /// ever opens, so traffic stays byte-identical to a build without the
    /// machinery. Only meaningful with replicated shards — a replica set
    /// of one has no sibling to route around.
    pub breaker: crate::health::BreakerConfig,
    /// Graceful degradation of scatter reads. **Off by default**: a shard
    /// whose whole replica set exhausts its budget fails the logical
    /// request with a typed [`crate::Response::Unavailable`]. When on,
    /// the scatter instead completes *without* that shard's contribution
    /// — the result is a provable subset of the truth — recording the
    /// uncovered shard in `FleetSnapshot::failed_shards` and surfacing
    /// the covered fraction as `JoinReport::coverage`. Never applies to
    /// `ApplyUpdates` (partial writes are refused, not degraded).
    pub allow_partial: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            packet: PacketModel::default(),
            tariff_r: 1.0,
            tariff_s: 1.0,
            client_cache: false,
            wire_v2: false,
            retry: RetryPolicy::default(),
            breaker: crate::health::BreakerConfig::disabled(),
            allow_partial: false,
        }
    }
}

impl NetConfig {
    /// Dial-up style link (MTU 576), for the MTU-sensitivity ablation.
    pub fn dialup() -> Self {
        NetConfig {
            packet: PacketModel::new(576, 40),
            ..NetConfig::default()
        }
    }

    /// Enables the client-side statistics/window cache on the device.
    pub fn with_client_cache(mut self, on: bool) -> Self {
        self.client_cache = on;
        self
    }

    /// Sets the deployment's wire version: v2 on every physical link of
    /// the device when `on`, v1 otherwise.
    pub fn with_wire_v2(mut self, on: bool) -> Self {
        self.wire_v2 = on;
        self
    }

    /// Sets the retry discipline of the device's physical exchanges.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the per-replica-edge circuit-breaker discipline.
    pub fn with_breakers(mut self, breaker: crate::health::BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }

    /// Lets scatter reads complete without shards whose entire replica
    /// set is exhausted (results degrade to a subset instead of failing).
    pub fn with_allow_partial(mut self, on: bool) -> Self {
        self.allow_partial = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tb_single_packet() {
        let m = PacketModel::default(); // payload capacity 1460
        assert_eq!(m.tb(100), 140);
        assert_eq!(m.tb(1460), 1500);
        assert_eq!(m.packets(1460), 1);
    }

    #[test]
    fn tb_multi_packet() {
        let m = PacketModel::default();
        assert_eq!(m.tb(1461), 1461 + 2 * 40);
        assert_eq!(m.packets(1461), 2);
        // 20_000 bytes → ⌈20000/1460⌉ = 14 packets.
        assert_eq!(m.tb(20_000), 20_000 + 14 * 40);
    }

    #[test]
    fn tb_zero_payload_costs_a_header() {
        let m = PacketModel::default();
        assert_eq!(m.tb(0), 40);
        assert_eq!(m.packets(0), 1);
    }

    #[test]
    fn dialup_is_more_expensive_per_byte() {
        let eth = PacketModel::default();
        let dial = NetConfig::dialup().packet;
        // Same payload, more packets on the smaller MTU.
        assert!(dial.tb(50_000) > eth.tb(50_000));
    }

    #[test]
    fn tb_monotone_in_payload() {
        let m = PacketModel::default();
        let mut prev = 0;
        for b in (0..10_000).step_by(97) {
            let t = m.tb(b);
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    #[should_panic(expected = "MTU must exceed")]
    fn invalid_model_rejected() {
        PacketModel::new(40, 40);
    }

    #[test]
    fn wire_v2_defaults_off() {
        assert!(!NetConfig::default().wire_v2);
        assert!(!NetConfig::dialup().wire_v2);
        assert!(NetConfig::default().with_wire_v2(true).wire_v2);
    }

    #[test]
    fn retry_defaults_off() {
        let p = NetConfig::default().retry;
        assert_eq!(p.max_attempts, 1);
        assert!(!p.enabled());
        assert!(!NetConfig::dialup().retry.enabled());
        let on = NetConfig::default().with_retry(RetryPolicy::attempts(3));
        assert!(on.retry.enabled());
        assert_eq!(on.retry.max_attempts, 3);
    }

    #[test]
    fn breakers_and_partial_results_default_off() {
        let d = NetConfig::default();
        assert!(!d.breaker.enabled);
        assert!(!d.allow_partial);
        assert!(!NetConfig::dialup().breaker.enabled);
        let on = NetConfig::default()
            .with_breakers(crate::health::BreakerConfig::new(2, 4))
            .with_allow_partial(true);
        assert!(on.breaker.enabled);
        assert_eq!((on.breaker.threshold, on.breaker.cooldown), (2, 4));
        assert!(on.allow_partial);
    }

    #[test]
    fn client_cache_defaults_off() {
        assert!(!NetConfig::default().client_cache);
        assert!(!NetConfig::dialup().client_cache);
        assert!(NetConfig::default().with_client_cache(true).client_cache);
    }
}
