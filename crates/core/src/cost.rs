//! The transfer-cost model — Section 3.1, Equations (1)–(8).
//!
//! Costs are in tariff-weighted wire bytes (with `bR = bS = 1` they are
//! plain bytes). Counts are `f64` because the algorithms also evaluate the
//! model on *estimated* (fractional) counts — UpJoin keeps `|Dw|/4`
//! estimates for datasets it has labelled uniform.
//!
//! The model prices what the meters in `asj-net` measure with the same
//! packetization (`TB`) and the same message framing constants from the
//! codec. Its error is of two kinds. *Estimation* error — e.g. the
//! uniformity assumption inside `Tdq` — is intentional and exactly the
//! paper's: decisions are made on estimates, results are measured on the
//! wire. *Accounting* error is not intended: four terms the meters
//! charge are not priced here at all —
//!
//! * the generation stamp on every response served at generation > 0
//!   (9 bytes on v1, a varint on v2);
//! * v2's request marker, one byte before every v2 request;
//! * v2's varint COUNT answer, priced as v1's `ANSWER_BYTES`;
//! * one ε-probe copy per shard its reach touches (`nlsj` prices one).

use asj_geom::Rect;
use asj_net::codec::{
    ANSWER_BYTES, BUCKET_FRAME_BYTES, BUCKET_REQ_HEADER_BYTES, EPS_QUERY_BYTES,
    OBJECTS_HEADER_BYTES, OBJ_BYTES, OBJ_BYTES_V2_EST, QUERY_BYTES,
};
use asj_net::{NetConfig, PacketModel};

/// Cost model for one deployment (packetization + tariffs + device buffer).
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    packet: PacketModel,
    /// Per-byte tariff of the R link (`bR`).
    pub tariff_r: f64,
    /// Per-byte tariff of the S link (`bS`).
    pub tariff_s: f64,
    /// Device buffer capacity in objects; `c1 = ∞` beyond it.
    pub buffer_capacity: usize,
    /// Shard fan-out of the R side: a query to a fleet of `f` shards pays
    /// up to `f` framed sub-requests and `f` framed responses, which the
    /// meters measure and the estimates below price. `1.0` for flat
    /// deployments — every formula then reduces bit-exactly to the
    /// single-server model. The factor is an upper bound: the router's
    /// bounds pruning usually contacts fewer shards.
    pub fanout_r: f64,
    /// Shard fan-out of the S side.
    pub fanout_s: f64,
    /// Price multiplier on statistics (COUNT) rounds,
    /// `(0, 1]`. With the client cache enabled, repeated statistics cost
    /// nothing on the wire; decisions should price a round at its
    /// *expected* cost, i.e. discounted by the observed hit rate (see
    /// [`CostModel::with_cache_discount`]). `1.0` — a bit-exact no-op —
    /// without a cache.
    pub stats_discount: f64,
    /// Price multiplier on `WINDOW` downloads, `(0, 1]`; same idea for
    /// the cache's window tier.
    pub window_discount: f64,
    /// Estimated wire bytes of one object in a `WINDOW`/ε-RANGE response
    /// frame. Exactly [`OBJ_BYTES`] on v1 links (bit-exact — the v1
    /// layout is fixed-width); the codec's published [`OBJ_BYTES_V2_EST`]
    /// when the deployment speaks wire v2, whose frames are
    /// variable-width (delta-varint ids, quantized-or-escaped
    /// coordinates). Decisions price the expected v2 density; reported
    /// bytes always come from the meters. Probe *uploads* and bucket
    /// frames keep pricing [`OBJ_BYTES`]: v2 compacts only the object
    /// response stream, not request payloads or bucket framing.
    pub object_bytes: f64,
}

impl CostModel {
    pub fn new(net: &NetConfig, buffer_capacity: usize) -> Self {
        CostModel {
            packet: net.packet,
            tariff_r: net.tariff_r,
            tariff_s: net.tariff_s,
            buffer_capacity,
            fanout_r: 1.0,
            fanout_s: 1.0,
            stats_discount: 1.0,
            window_discount: 1.0,
            object_bytes: if net.wire_v2 {
                OBJ_BYTES_V2_EST
            } else {
                OBJ_BYTES as f64
            },
        }
    }

    /// Sets the per-side shard fan-out factors (≥ 1).
    pub fn with_fanout(mut self, fanout_r: f64, fanout_s: f64) -> Self {
        assert!(fanout_r >= 1.0 && fanout_s >= 1.0, "fan-out is at least 1");
        self.fanout_r = fanout_r;
        self.fanout_s = fanout_s;
        self
    }

    /// Applies client-cache hit-rate discounts to the statistics and
    /// window prices so operator decisions track what the meters will
    /// actually measure: a statistics round expected to hit the cache
    /// with rate `h` costs `(1 − h)` of its wire price. Multipliers must
    /// lie in `(0, 1]`; `with_cache_discount(1.0, 1.0)` is a bit-exact
    /// no-op (every price is multiplied by exactly `1.0`), which keeps
    /// cache-off decisions byte-for-byte identical to the undecorated
    /// model. Callers derive the multipliers from observed hit rates with
    /// Laplace smoothing (never exactly 0), so prices stay positive and
    /// recursion never becomes "free".
    pub fn with_cache_discount(mut self, stats: f64, window: f64) -> Self {
        assert!(
            stats > 0.0 && stats <= 1.0 && window > 0.0 && window <= 1.0,
            "discounts are price multipliers in (0, 1]"
        );
        self.stats_discount = stats;
        self.window_discount = window;
        self
    }

    /// `TB` of Eq. (1) on fractional byte counts (estimates round up to
    /// whole packets, like the real link would).
    pub fn tb(&self, payload: f64) -> f64 {
        let cap = self.packet.payload_per_packet() as f64;
        let packets = (payload / cap).ceil().max(1.0);
        payload + packets * self.packet.header_bytes as f64
    }

    /// One aggregate (COUNT) round trip on one link, unweighted —
    /// Eq. (7): query up, scalar answer down.
    pub fn taq(&self) -> f64 {
        self.tb(QUERY_BYTES as f64) + self.tb(ANSWER_BYTES as f64)
    }

    /// Wire cost of counting `probes` windows on one link, unweighted:
    /// `probes · Taq`, scaled by the cache's statistics discount (`1.0`
    /// without a cache).
    pub fn stats_round(&self, probes: u32) -> f64 {
        self.stats_discount * (probes as f64 * self.taq())
    }

    /// Tariff- and fan-out-weighted cost of one statistics round sent to
    /// both sides: each of a fleet's shards receives its own framed
    /// request and answers with its own framed response, so the per-link
    /// round is multiplied by the side's fan-out factor.
    pub fn stats_round_both(&self, probes: u32) -> f64 {
        self.stats_round(probes) * (self.fanout_r * self.tariff_r + self.fanout_s * self.tariff_s)
    }

    /// The wire cost of one 2×2 repartitioning round of statistics on
    /// both links — the paper's `2k²·Taq` with `k = 2`: four quadrant
    /// COUNTs to each server, times the shard fan-out on each side.
    pub fn split_stats_cost(&self) -> f64 {
        self.stats_round_both(4)
    }

    /// Wire bytes of a `WINDOW` download of `n` objects from a fleet of
    /// `fanout` shards, unweighted: the query fans out to every shard, the
    /// `n` objects come back split evenly across `fanout` framed
    /// responses, the whole round scaled by the cache's window discount.
    /// With `fanout = 1` and no discount this is the flat formula: query
    /// up + object stream down.
    pub fn window_download_fanned(&self, n: f64, fanout: f64) -> f64 {
        self.window_discount
            * (fanout * self.tb(QUERY_BYTES as f64)
                + fanout * self.tb(OBJECTS_HEADER_BYTES as f64 + (n / fanout) * self.object_bytes))
    }

    /// `c1(w)` — HBSJ: download both windows, join on the device
    /// (Eq. 2). `None` when the buffer cannot hold both.
    pub fn c1(&self, count_r: f64, count_s: f64) -> Option<f64> {
        if count_r + count_s > self.buffer_capacity as f64 {
            return None;
        }
        Some(self.c1_unchecked(count_r, count_s))
    }

    /// `c1` without the feasibility check — MobiJoin's `c4` heuristic
    /// needs it (the paper's Figure 2(b) flaw depends on it).
    pub fn c1_unchecked(&self, count_r: f64, count_s: f64) -> f64 {
        self.tariff_r * self.window_download_fanned(count_r, self.fanout_r)
            + self.tariff_s * self.window_download_fanned(count_s, self.fanout_s)
    }

    /// Expected qualifying partners of one ε-probe into a window holding
    /// `count_inner` objects, assuming uniformity (the `π·ε²/(wx·wy)·|Sw|`
    /// of Eq. 3), clamped to the window population.
    pub fn expected_matches(&self, w: &Rect, count_inner: f64, eps: f64) -> f64 {
        let area = w.area();
        if area <= 0.0 {
            return count_inner;
        }
        (std::f64::consts::PI * eps * eps / area * count_inner).min(count_inner)
    }

    /// NLSJ cost with the given outer/inner orientation (Eq. 4, or Eq. 6
    /// when `bucket`): download the outer window, probe the inner server
    /// once per outer object (or once in bulk), receive the matches.
    ///
    /// `c2(w)` is `nlsj(w, |Rw|, |Sw|, bR, bS, fR, fS, …)`; `c3(w)` swaps
    /// the roles. Fan-out enters the outer download (fleet framing) and
    /// the bucket submission (the probe set is sub-batched across the
    /// inner fleet's shards). Both probe paths assume each ε-probe
    /// reaches exactly one inner shard — probes are ε-scale, far smaller
    /// than a shard cell. The fan-out rule this leaves unpriced is the
    /// protocol's *reach* (`Request::reach` in `asj-net`'s `proto`
    /// module), which the router and the client cache share: a probe
    /// goes to *every* shard whose advertised bounds its MBR grown by |ε|
    /// intersects, so near cell edges (or when straddlers widen a shard's
    /// bounds) the estimate undershoots the meter; like the paper's own
    /// uniformity assumption, this is a deliberate estimation error, and
    /// the reported bytes always come from the meters.
    #[allow(clippy::too_many_arguments)]
    pub fn nlsj(
        &self,
        w: &Rect,
        count_outer: f64,
        count_inner: f64,
        tariff_outer: f64,
        tariff_inner: f64,
        fanout_outer: f64,
        fanout_inner: f64,
        eps: f64,
        bucket: bool,
    ) -> f64 {
        let mu = self.expected_matches(w, count_inner, eps);
        let outer_download = tariff_outer * self.window_download_fanned(count_outer, fanout_outer);
        if bucket {
            // Upload every outer object to the inner fleet, sub-batched
            // per shard; each shard answers with its own framed response
            // (Eqs. 5–6, shard framing multiplied by the fan-out).
            let per_shard = count_outer / fanout_inner;
            let upload = fanout_inner
                * self.tb(BUCKET_REQ_HEADER_BYTES as f64 + per_shard * OBJ_BYTES as f64);
            let response = fanout_inner
                * self.tb(OBJECTS_HEADER_BYTES as f64
                    + per_shard * (BUCKET_FRAME_BYTES as f64 + mu * OBJ_BYTES as f64));
            outer_download + tariff_inner * (upload + response)
        } else {
            // One ε-RANGE round trip per outer object (Eqs. 3–4).
            let per_probe = self.tb(EPS_QUERY_BYTES as f64)
                + self.tb(OBJECTS_HEADER_BYTES as f64 + mu * self.object_bytes);
            outer_download + tariff_inner * count_outer * per_probe
        }
    }

    /// `c1` where a window that overflows the buffer is costed as a
    /// recursive 2×2 decomposition (SrJoin's reading: "if all the points
    /// can not fit into the memory, HBSJ is recursively executed"): the
    /// same object bytes plus the aggregate queries of the estimated
    /// decomposition.
    ///
    /// The statistics term walks the uniform recursion directly: every
    /// window whose (estimated) population overflows the buffer is split,
    /// paying one [`CostModel::split_stats_cost`]; its four quarters carry
    /// a fourth of the population each. A unit test pins this against a
    /// simulation of the actual 2×2 recursion's COUNT count — the earlier
    /// closed form computed levels via `log(4)`/`ceil`, whose FP rounding
    /// could buy a whole spurious level of 4^L windows near exact powers
    /// of four.
    pub fn c1_decomposed(&self, count_r: f64, count_s: f64) -> f64 {
        let base = self.c1_unchecked(count_r, count_s);
        let cap = self.buffer_capacity.max(1) as f64;
        let mut splits = 0.0;
        let mut level_windows = 1.0;
        let mut per_window = count_r + count_s;
        while per_window > cap {
            splits += level_windows;
            level_windows *= 4.0;
            per_window /= 4.0;
        }
        base + splits * self.split_stats_cost()
    }

    /// "`|Dw|` is large" gate of UpJoin — inequality (10):
    /// `TB(|Dw|·Bobj) > 3·Taq`, with `Bobj` the active wire version's
    /// object density.
    pub fn worth_more_stats(&self, count: f64) -> bool {
        self.tb(count * self.object_bytes) > 3.0 * self.taq()
    }

    /// SrJoin's "dataset must be large" threshold (Fig. 5 line 16).
    pub fn cheap_threshold(&self) -> f64 {
        3.0 * self.taq()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(buffer: usize) -> CostModel {
        CostModel::new(&NetConfig::default(), buffer)
    }

    fn w() -> Rect {
        Rect::from_coords(0.0, 0.0, 1000.0, 1000.0)
    }

    #[test]
    fn tb_matches_packet_model_on_integers() {
        let m = model(800);
        let p = PacketModel::default();
        for bytes in [0u64, 1, 100, 1460, 1461, 20_000] {
            assert_eq!(m.tb(bytes as f64), p.tb(bytes) as f64, "bytes={bytes}");
        }
    }

    #[test]
    fn c1_infeasible_beyond_buffer() {
        let m = model(100);
        assert!(m.c1(50.0, 50.0).is_some());
        assert!(m.c1(50.0, 51.0).is_none());
        // Unchecked version always answers.
        assert!(m.c1_unchecked(500.0, 500.0) > 0.0);
    }

    #[test]
    fn c1_grows_with_counts() {
        let m = model(10_000);
        let small = m.c1(10.0, 10.0).unwrap();
        let large = m.c1(1000.0, 1000.0).unwrap();
        assert!(large > small * 10.0);
    }

    #[test]
    fn expected_matches_clamped() {
        let m = model(800);
        // Tiny eps → few matches; eps covering the window → everything.
        assert!(m.expected_matches(&w(), 1000.0, 10.0) < 1.0);
        assert_eq!(m.expected_matches(&w(), 1000.0, 10_000.0), 1000.0);
        assert_eq!(m.expected_matches(&w(), 0.0, 10.0), 0.0);
    }

    #[test]
    fn bucket_nlsj_cheaper_than_single_for_many_outers() {
        let m = model(800);
        // 500 outer probes: per-probe headers dominate the single form.
        let single = m.nlsj(&w(), 500.0, 1000.0, 1.0, 1.0, 1.0, 1.0, 50.0, false);
        let bucket = m.nlsj(&w(), 500.0, 1000.0, 1.0, 1.0, 1.0, 1.0, 50.0, true);
        assert!(
            bucket < single,
            "bucket {bucket} should beat single {single}"
        );
    }

    #[test]
    fn nlsj_prefers_smaller_outer() {
        let m = model(800);
        // |R| = 10, |S| = 1000: probing with R as outer is much cheaper.
        let c2 = m.nlsj(&w(), 10.0, 1000.0, 1.0, 1.0, 1.0, 1.0, 50.0, false);
        let c3 = m.nlsj(&w(), 1000.0, 10.0, 1.0, 1.0, 1.0, 1.0, 50.0, false);
        assert!(c2 < c3);
    }

    #[test]
    fn tariffs_weight_sides() {
        let net = NetConfig {
            tariff_r: 10.0,
            ..NetConfig::default()
        };
        let m = CostModel::new(&net, 10_000);
        // Downloading from R is now 10× more expensive; c3 (download S,
        // probe R) pays the probes on R but still beats downloading R
        // wholesale when R is big.
        let c1 = m.c1(1000.0, 10.0).unwrap();
        let cheap = m.nlsj(&w(), 10.0, 1000.0, 1.0, 10.0, 1.0, 1.0, 50.0, false);
        assert!(cheap < c1);
    }

    #[test]
    fn worth_more_stats_threshold() {
        let m = model(800);
        assert!(!m.worth_more_stats(1.0));
        assert!(m.worth_more_stats(100.0));
        // Threshold sits near TB(n·20) = 3·Taq → n ≈ 14.
        let boundary = (1..100).find(|&n| m.worth_more_stats(n as f64)).unwrap();
        assert!((10..20).contains(&boundary), "boundary {boundary}");
    }

    #[test]
    fn taq_matches_paper_shape() {
        let m = model(800);
        // (BH+BQ) + (BH+BA) with BQ=17, BA=9, BH=40.
        assert_eq!(m.taq(), (40.0 + 17.0) + (40.0 + 9.0));
    }

    #[test]
    fn stats_round_is_one_taq_per_probe() {
        let m = model(800);
        assert_eq!(m.stats_round(4), 4.0 * m.taq());
        // With both tariffs at 1, a split costs the round on both links.
        assert_eq!(m.split_stats_cost(), 8.0 * m.taq());
    }

    /// Simulates the actual 2×2 recursion under the uniformity assumption:
    /// every window whose population overflows the buffer splits once
    /// (8 quadrant COUNTs — one `split_stats_cost`) and hands a quarter of
    /// its population to each child.
    fn simulated_decomposition_stats(m: &CostModel, total: f64) -> f64 {
        fn splits(total: f64, cap: f64) -> f64 {
            if total <= cap {
                0.0
            } else {
                1.0 + 4.0 * splits(total / 4.0, cap)
            }
        }
        splits(total, m.buffer_capacity as f64) * m.split_stats_cost()
    }

    #[test]
    fn c1_decomposed_matches_recursion_simulation() {
        for m in [model(800), model(100)] {
            for (r, s) in [
                (100.0, 100.0),       // fits: no stats at all
                (500.0, 301.0),       // barely overflows 800
                (1600.0, 1600.0),     // total = 4·cap exactly (800)
                (25_600.0, 25_600.0), // total = 64·cap exactly (800)
                (3_000.0, 10_000.0),
                (123_456.0, 789.0),
            ] {
                let got = m.c1_decomposed(r, s) - m.c1_unchecked(r, s);
                let want = simulated_decomposition_stats(&m, r + s);
                assert_eq!(
                    got, want,
                    "stats mismatch for r={r} s={s} cap={}",
                    m.buffer_capacity
                );
            }
        }
    }

    #[test]
    fn c1_decomposed_fits_is_plain_c1() {
        let m = model(800);
        assert_eq!(m.c1_decomposed(400.0, 400.0), m.c1_unchecked(400.0, 400.0));
        assert!(m.c1_decomposed(500.0, 500.0) > m.c1_unchecked(500.0, 500.0));
    }

    #[test]
    fn fanout_one_is_bit_exactly_the_flat_model() {
        let flat = model(800);
        let fanned = model(800).with_fanout(1.0, 1.0);
        for (r, s) in [(10.0, 10.0), (333.0, 97.0), (0.0, 5.0)] {
            assert_eq!(flat.c1_unchecked(r, s), fanned.c1_unchecked(r, s));
            assert_eq!(flat.c1(r, s), fanned.c1(r, s));
        }
        assert_eq!(flat.split_stats_cost(), fanned.split_stats_cost());
        assert_eq!(
            flat.nlsj(&w(), 50.0, 100.0, 1.0, 1.0, 1.0, 1.0, 20.0, true),
            fanned.nlsj(&w(), 50.0, 100.0, 1.0, 1.0, 1.0, 1.0, 20.0, true)
        );
    }

    #[test]
    fn fanout_scales_stats_and_framing_but_not_payload() {
        let flat = model(800);
        let fleet = model(800).with_fanout(4.0, 2.0);
        // Statistics fan out per shard on each side: 4× on R, 2× on S.
        assert_eq!(fleet.split_stats_cost(), flat.stats_round(4) * (4.0 + 2.0));
        // A window download to a fleet pays fan-out × query and framing
        // but streams the same object payload.
        let one = flat.window_download_fanned(100.0, 1.0);
        let four = fleet.window_download_fanned(100.0, 4.0);
        assert!(four > one);
        assert!(
            four - one < 4.0 * flat.tb(QUERY_BYTES as f64) + 4.0 * 45.0,
            "only headers and framing may grow"
        );
        // c1 combines both sides' fan-outs.
        assert!(fleet.c1_unchecked(100.0, 100.0) > flat.c1_unchecked(100.0, 100.0));
    }

    #[test]
    #[should_panic(expected = "fan-out is at least 1")]
    fn fanout_below_one_rejected() {
        model(800).with_fanout(0.5, 1.0);
    }

    #[test]
    fn cache_discount_scales_stats_and_window_prices() {
        let flat = model(800);
        let discounted = model(800).with_cache_discount(0.5, 0.25);
        assert_eq!(discounted.stats_round(4), 0.5 * flat.stats_round(4));
        assert_eq!(discounted.split_stats_cost(), 0.5 * flat.split_stats_cost());
        assert_eq!(
            discounted.window_download_fanned(100.0, 1.0),
            0.25 * flat.window_download_fanned(100.0, 1.0)
        );
        assert_eq!(
            discounted.c1_unchecked(50.0, 50.0),
            0.25 * flat.c1_unchecked(50.0, 50.0)
        );
        // Probe traffic (ε-RANGE round trips) is not window traffic: only
        // the outer download discounts.
        let d = discounted.nlsj(&w(), 10.0, 100.0, 1.0, 1.0, 1.0, 1.0, 20.0, false);
        let f = flat.nlsj(&w(), 10.0, 100.0, 1.0, 1.0, 1.0, 1.0, 20.0, false);
        assert!(d < f);
        assert_eq!(f - d, 0.75 * flat.window_download_fanned(10.0, 1.0));
    }

    #[test]
    fn unit_discount_is_bit_exact_noop() {
        let a = model(800);
        let b = model(800).with_cache_discount(1.0, 1.0);
        assert_eq!(a.stats_round(7), b.stats_round(7));
        assert_eq!(a.c1(100.0, 100.0), b.c1(100.0, 100.0));
        assert_eq!(
            a.nlsj(&w(), 50.0, 100.0, 1.0, 1.0, 1.0, 1.0, 20.0, true),
            b.nlsj(&w(), 50.0, 100.0, 1.0, 1.0, 1.0, 1.0, 20.0, true)
        );
    }

    #[test]
    #[should_panic(expected = "price multipliers")]
    fn zero_discount_rejected() {
        model(800).with_cache_discount(0.0, 1.0);
    }
}
