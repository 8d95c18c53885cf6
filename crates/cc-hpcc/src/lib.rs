//! `cc-hpcc` — HPCC: High Precision Congestion Control (Li et al.,
//! SIGCOMM 2019), plus the variants evaluated in the fairness paper.
//!
//! HPCC drives a byte window `W` from per-hop INT telemetry. Every ACK
//! carries, for each egress port the data packet crossed: the queue length,
//! the cumulative transmitted bytes, a timestamp, and the link bandwidth.
//! From consecutive ACKs the sender computes each hop's *normalized
//! inflight* `u_i = min(q0,q1)/(B_i·T) + txRate_i/B_i` and controls the
//! window multiplicatively against the most loaded hop:
//!
//! ```text
//! W = W_ref / (U/η) + W_AI
//! ```
//!
//! with η = 0.95 target utilization. A *reference window* `W_ref` commits
//! once per RTT so that per-ACK reactions to the same congestion event do
//! not compound; an `incStage` counter (max 5) bounds how many consecutive
//! additive-only increases may run before a multiplicative resync.
//!
//! # Variants (paper Section III-D / VI)
//!
//! * **default** — `W_AI` from 50 Mbps, per-RTT reference updates.
//! * **high-AI** — `W_AI` from 1 Gbps ("HPCC 1Gbps").
//! * **probabilistic** — decrease-side reference updates are randomly
//!   ignored with probability `1 - W_ref/W_max` ("HPCC Probabilistic").
//! * **VAI** — `W_AI` scaled by the Variable-AI token bank
//!   ([`faircc::VariableAi`]), fed by INT queue depths.
//! * **SF** — decrease-side reference updates every `s` ACKs instead of
//!   per RTT ([`faircc::SamplingFrequency`]).

#![deny(unsafe_code)]
#![warn(missing_docs)]

use dcsim::{BitRate, Bytes, DetRng, Nanos};
use faircc::{
    AckFeedback, CcMode, CcSnapshot, CongestionControl, IntHop, IntStack, MetricsRegistry,
    ProbabilisticGate, SamplingFrequency, SenderLimits, SfConfig, VaiConfig, VariableAi,
    MAX_INT_HOPS,
};

/// Tunables for one HPCC flow.
#[derive(Debug, Clone)]
pub struct HpccConfig {
    /// Base (uncongested) round-trip time `T`.
    pub base_rtt: Nanos,
    /// The sender NIC line rate (window cap = line-rate BDP).
    pub line_rate: BitRate,
    /// Target utilization η (paper: 0.95).
    pub eta: f64,
    /// Maximum consecutive additive-increase stages (paper: 5).
    pub max_stage: u32,
    /// Additive increase per update, in bytes (derived from an AI rate:
    /// `W_AI = ai_rate · T / 8`; the paper's default is 50 Mbps).
    pub wai: f64,
    /// Variable AI (None = stock HPCC).
    pub vai: Option<VaiConfig>,
    /// Sampling Frequency (None = per-RTT decreases).
    pub sf: Option<SfConfig>,
    /// Probabilistic-feedback baseline: ignore decrease commits with
    /// probability `1 - W_ref/W_max` (None = deterministic).
    pub probabilistic: bool,
    /// NEGATIVE CONTROL (off in every paper configuration): gate rate
    /// *increases* on the sampling-frequency schedule too. The paper
    /// explicitly rejects this — "flows with a higher rate [would]
    /// increase their rate more often and worsen fairness" — and the
    /// `ablation-sf-increases` bench demonstrates it.
    pub sf_on_increases: bool,
}

impl HpccConfig {
    /// The paper's default HPCC: AI = 50 Mbps, η = 0.95, maxStage = 5.
    pub fn paper_default(base_rtt: Nanos, line_rate: BitRate) -> Self {
        HpccConfig {
            base_rtt,
            line_rate,
            eta: 0.95,
            max_stage: 5,
            wai: wai_bytes(BitRate::from_mbps(50), base_rtt),
            vai: None,
            sf: None,
            probabilistic: false,
            sf_on_increases: false,
        }
    }

    /// The "HPCC 1Gbps" high-AI baseline.
    pub fn high_ai(base_rtt: Nanos, line_rate: BitRate) -> Self {
        HpccConfig {
            wai: wai_bytes(BitRate::from_gbps(1), base_rtt),
            ..Self::paper_default(base_rtt, line_rate)
        }
    }

    /// The "HPCC Probabilistic" baseline.
    pub fn probabilistic(base_rtt: Nanos, line_rate: BitRate) -> Self {
        HpccConfig {
            probabilistic: true,
            ..Self::paper_default(base_rtt, line_rate)
        }
    }

    /// The paper's "HPCC VAI SF" configuration: Variable AI with
    /// Token_Thresh = the network's minimum BDP, 1 token per KB of queue,
    /// and Sampling Frequency s = 30.
    pub fn vai_sf(base_rtt: Nanos, line_rate: BitRate, min_bdp: Bytes) -> Self {
        HpccConfig {
            vai: Some(VaiConfig::hpcc_default(min_bdp.as_f64())),
            sf: Some(SfConfig::paper_default()),
            ..Self::paper_default(base_rtt, line_rate)
        }
    }

    /// The line-rate window (BDP): both the starting and the maximum
    /// window.
    pub fn max_window(&self) -> f64 {
        self.line_rate.bdp(self.base_rtt).as_f64()
    }
}

/// `W_AI` in bytes for an additive-increase *rate*.
pub fn wai_bytes(ai_rate: BitRate, base_rtt: Nanos) -> f64 {
    ai_rate.as_f64() * base_rtt.as_secs_f64() / 8.0
}

/// One flow's HPCC state.
pub struct Hpcc {
    cfg: HpccConfig,
    name: String,
    /// Current (per-ACK) window, bytes.
    window: f64,
    /// Reference window, committed once per update period.
    w_ref: f64,
    /// EWMA of normalized inflight.
    u: f64,
    /// Consecutive additive-increase stages.
    inc_stage: u32,
    /// Last per-hop INT records (for differencing).
    last_int: Option<IntStack>,
    /// Cumulative bytes handed to the NIC (tracks `snd_nxt`).
    snd_nxt: u64,
    /// Cumulative bytes acknowledged.
    ack_total: u64,
    /// ACKs with `ack_total > last_update_seq` mark an RTT boundary.
    last_update_seq: u64,
    vai: Option<VariableAi>,
    sf: Option<SamplingFrequency>,
    prob: Option<ProbabilisticGate>,
    /// Max queue seen this RTT (instrumentation mirror of VAI's input).
    max_c_this_rtt: f64,
}

impl Hpcc {
    /// Create a flow starting at line rate (RDMA behaviour: first window =
    /// one BDP).
    pub fn new(cfg: HpccConfig, rng: DetRng) -> Self {
        let w0 = cfg.max_window();
        let vai = cfg.vai.map(VariableAi::new);
        let sf = cfg.sf.map(SamplingFrequency::new);
        let prob = cfg.probabilistic.then(|| ProbabilisticGate::new(w0, rng));
        let name = match (&vai, &sf, &prob) {
            (Some(_), Some(_), _) => "HPCC VAI SF",
            (Some(_), None, _) => "HPCC VAI",
            (None, Some(_), _) => "HPCC SF",
            (None, None, Some(_)) => "HPCC Probabilistic",
            (None, None, None) => "HPCC",
        }
        .to_string();
        Hpcc {
            cfg,
            name,
            window: w0,
            w_ref: w0,
            u: 1.0,
            inc_stage: 0,
            last_int: None,
            snd_nxt: 0,
            ack_total: 0,
            last_update_seq: 0,
            vai,
            sf,
            prob,
            max_c_this_rtt: 0.0,
        }
    }

    /// The current window in bytes (for tests/instrumentation).
    pub fn window(&self) -> f64 {
        self.window
    }

    /// The reference window in bytes.
    pub fn w_ref(&self) -> f64 {
        self.w_ref
    }

    /// The current utilization estimate `U`.
    pub fn utilization(&self) -> f64 {
        self.u
    }

    /// HPCC's MeasureInflight: fold this ACK's per-hop telemetry into the
    /// EWMA utilization estimate. Returns the *instantaneous* max-hop
    /// `u` for VAI's congestion predicate.
    fn measure_inflight(&mut self, int: &IntStack) -> f64 {
        let t = self.cfg.base_rtt.as_secs_f64();
        let mut u_max = 0.0f64;
        let mut tau = self.cfg.base_rtt.as_secs_f64();
        if let Some(last) = &self.last_int {
            let n = last.len().min(int.len()).min(MAX_INT_HOPS);
            for i in 0..n {
                let (prev, cur): (&IntHop, &IntHop) = (&last.hops()[i], &int.hops()[i]);
                let dt = cur.ts.saturating_sub(prev.ts).as_secs_f64();
                if dt <= 0.0 || cur.rate == BitRate::ZERO {
                    continue;
                }
                let tx_rate = (cur.tx_bytes.saturating_sub(prev.tx_bytes)) as f64 / dt;
                let b = cur.rate.bytes_per_sec();
                let qlen = prev.qlen.as_f64().min(cur.qlen.as_f64());
                let u_i = qlen / (b * t) + tx_rate / b;
                if u_i > u_max {
                    u_max = u_i;
                    tau = dt;
                }
            }
            let tau = tau.min(t);
            self.u = (1.0 - tau / t) * self.u + (tau / t) * u_max;
        }
        self.last_int = Some(*int);
        u_max
    }

    /// The effective additive increase for this update (Variable AI aware).
    fn effective_wai(&mut self, spend: bool) -> f64 {
        match &mut self.vai {
            Some(vai) => self.cfg.wai * vai.ai_multiplier(spend),
            None => self.cfg.wai,
        }
    }
}

impl CongestionControl for Hpcc {
    fn on_ack(&mut self, fb: &AckFeedback) {
        self.ack_total += fb.acked.as_u64();
        let u_now = self.measure_inflight(&fb.int);

        // VAI bookkeeping: congestion measure = max queue across hops.
        let max_q = fb.int.max_qlen().as_f64();
        let congested_now = self.u >= self.cfg.eta;
        self.max_c_this_rtt = self.max_c_this_rtt.max(u_now / self.cfg.eta);
        if let Some(vai) = &mut self.vai {
            vai.observe(max_q, congested_now);
        }

        let rtt_boundary = self.ack_total > self.last_update_seq;
        let sf_boundary = self.sf.as_mut().map(|sf| sf.on_ack()).unwrap_or(false);

        let decrease_branch = self.u >= self.cfg.eta || self.inc_stage >= self.cfg.max_stage;

        // When does this update commit the reference window?
        let commit = if decrease_branch {
            // Decreases: per sampling period if SF is on, else per RTT.
            if self.sf.is_some() {
                sf_boundary
            } else {
                rtt_boundary
            }
        } else if self.cfg.sf_on_increases && self.sf.is_some() {
            // Negative control: increases per s ACKs (see config docs).
            sf_boundary
        } else {
            // Increases: always once per RTT.
            rtt_boundary
        };

        if decrease_branch {
            let wai = self.effective_wai(commit);
            let new_w = self.w_ref / (self.u / self.cfg.eta) + wai;
            if commit {
                // Probabilistic baseline: randomly ignore decrease commits
                // for low-window flows.
                let w_ref = self.w_ref;
                let use_it = match &mut self.prob {
                    Some(gate) if new_w < w_ref => gate.should_use(w_ref),
                    _ => true,
                };
                self.window = new_w;
                if use_it {
                    self.w_ref = self.window;
                }
                self.inc_stage = 0;
            } else {
                self.window = new_w;
            }
        } else {
            let wai = self.effective_wai(false);
            self.window = self.w_ref + wai;
            if commit {
                self.inc_stage += 1;
                self.w_ref = self.window;
            }
        }

        // Clamp to [one MTU-ish floor, line-rate BDP].
        let w_max = self.cfg.max_window();
        self.window = self.window.clamp(100.0, w_max);
        if commit {
            self.w_ref = self.w_ref.clamp(100.0, w_max);
        }

        if rtt_boundary {
            self.last_update_seq = self.snd_nxt;
            if let Some(vai) = &mut self.vai {
                vai.on_rtt_end();
            }
            self.max_c_this_rtt = 0.0;
        }
    }

    fn on_send(&mut self, _now: Nanos, bytes: Bytes) {
        self.snd_nxt += bytes.as_u64();
    }

    fn on_rto(&mut self, _now: Nanos) {
        // A retransmission timeout means the pipe collapsed (loss burst
        // or outage): halve the window, commit it as the new reference,
        // and restart the increase ladder.
        let w_max = self.cfg.max_window();
        self.window = (self.window * 0.5).clamp(100.0, w_max);
        self.w_ref = self.window;
        self.inc_stage = 0;
    }

    fn limits(&self) -> SenderLimits {
        SenderLimits::windowed(self.window, self.cfg.base_rtt)
    }

    fn mode(&self) -> CcMode {
        CcMode::Window
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn snapshot(&self) -> CcSnapshot {
        let l = self.limits();
        CcSnapshot {
            window_bytes: l.window_bytes,
            rate: l.pacing,
            vai_bank: self.vai.as_ref().map_or(0.0, VariableAi::bank),
        }
    }

    fn publish_metrics(&self, reg: &mut MetricsRegistry) {
        reg.histogram_record_f64("cc.hpcc.window_bytes", self.window);
        reg.histogram_record("cc.hpcc.inc_stage", u64::from(self.inc_stage));
        if let Some(vai) = &self.vai {
            reg.histogram_record_f64("cc.hpcc.vai_bank", vai.bank());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RTT: Nanos = Nanos::from_ns(4_000);
    const LINE: BitRate = BitRate::from_bps(100_000_000_000);

    fn mkint(qlen: u64, tx_bytes: u64, ts: Nanos) -> IntStack {
        let mut s = IntStack::new();
        s.push(IntHop {
            qlen: Bytes::new(qlen),
            tx_bytes,
            ts,
            rate: LINE,
        });
        s
    }

    fn ack(seq_total: &mut u64, qlen: u64, tx: u64, ts: Nanos) -> AckFeedback {
        *seq_total += 1000;
        AckFeedback {
            now: ts,
            rtt: RTT,
            ecn: false,
            int: mkint(qlen, tx, ts),
            acked: Bytes::new(1000),
            hops: 1,
        }
    }

    fn hpcc(cfg: HpccConfig) -> Hpcc {
        Hpcc::new(cfg, DetRng::new(1))
    }

    #[test]
    fn starts_at_line_rate_window() {
        let h = hpcc(HpccConfig::paper_default(RTT, LINE));
        // 100 Gbps * 4 us = 50 KB.
        assert_eq!(h.window(), 50_000.0);
        let lim = h.limits();
        assert_eq!(lim.pacing, LINE);
    }

    #[test]
    fn wai_conversion() {
        // 50 Mbps over 4 us = 25 bytes.
        assert!((wai_bytes(BitRate::from_mbps(50), RTT) - 25.0).abs() < 1e-9);
        // 1 Gbps over 4 us = 500 bytes.
        assert!((wai_bytes(BitRate::from_gbps(1), RTT) - 500.0).abs() < 1e-9);
    }

    /// On an underutilized link the window grows: additively by W_AI while
    /// `incStage < maxStage`, then via the multiplicative resync
    /// (`W_ref/(U/η)`), converging to the BDP cap.
    #[test]
    fn underutilized_link_growth() {
        let mut h = hpcc(HpccConfig::paper_default(RTT, LINE));
        h.w_ref = 10_000.0;
        h.window = 10_000.0;
        let mut seq = 0u64;
        let mut t = Nanos::from_ns(0);
        for _ in 0..20 {
            h.on_send(t, Bytes::new(1000));
            t += Nanos::from_ns(4_000);
            let tx = seq; // tx counter grows at ~2 Gbps equivalent
            let a = ack(&mut seq, 0, tx, t);
            h.on_ack(&a);
        }
        assert!(h.utilization() < 0.95, "u = {}", h.utilization());
        // After maxStage additive rounds plus the MIMD resync, the window
        // reached the line-rate cap.
        assert_eq!(h.w_ref(), h.cfg.max_window());

        // Isolate one pure additive stage: low utilization, fresh stage
        // counter, below the cap.
        h.inc_stage = 0;
        h.u = 0.5;
        h.w_ref = 20_000.0;
        h.window = 20_000.0;
        h.on_send(t, Bytes::new(1000));
        t += Nanos::from_ns(4_000);
        let tx = seq;
        let a = ack(&mut seq, 0, tx, t);
        h.on_ack(&a);
        // u stays below eta (EWMA of 0.5 and ~0.02), so this was an
        // additive commit of exactly one W_AI.
        assert!(
            (h.w_ref() - 20_000.0 - h.cfg.wai).abs() < 1e-9,
            "w_ref {} expected {}",
            h.w_ref(),
            20_000.0 + h.cfg.wai
        );
    }

    /// An overloaded hop (U > η) must shrink the window multiplicatively.
    #[test]
    fn overload_decreases_window() {
        let mut h = hpcc(HpccConfig::paper_default(RTT, LINE));
        let mut t = Nanos::from_ns(0);
        let mut tx = 0u64;
        let w0 = h.window();
        // Full-rate hop with a standing 100 KB queue: U ≈ 1 + q/(B·T) ≈ 3.
        for i in 0..40 {
            h.on_send(t, Bytes::new(1000));
            t += Nanos::from_ns(400);
            tx += 5000; // 5000 B / 400 ns = 100 Gbps
            let a = AckFeedback {
                now: t,
                rtt: RTT + Nanos::from_ns(8_000),
                ecn: false,
                int: mkint(100_000, tx, t),
                acked: Bytes::new(1000),
                hops: 1,
            };
            h.on_ack(&a);
            if i == 0 {
                continue;
            }
        }
        assert!(h.utilization() > 1.0);
        assert!(h.window() < w0 / 2.0, "w = {}", h.window());
    }

    #[test]
    fn window_never_exceeds_bdp_or_floor() {
        let mut h = hpcc(HpccConfig::high_ai(RTT, LINE));
        let mut t = Nanos::from_ns(0);
        let mut tx = 0u64;
        for _ in 0..2000 {
            h.on_send(t, Bytes::new(1000));
            t += Nanos::from_ns(80);
            tx += 1000;
            let a = AckFeedback {
                now: t,
                rtt: RTT,
                ecn: false,
                int: mkint(0, tx, t),
                acked: Bytes::new(1000),
                hops: 1,
            };
            h.on_ack(&a);
            assert!(h.window() <= h.cfg.max_window() + 1e-9);
            assert!(h.window() >= 100.0);
        }
    }

    #[test]
    fn sf_commits_decreases_every_s_acks() {
        let cfg = HpccConfig {
            sf: Some(SfConfig {
                acks_per_decrease: 5,
            }),
            ..HpccConfig::paper_default(RTT, LINE)
        };
        let mut h = hpcc(cfg);
        let mut t = Nanos::from_ns(0);
        let mut tx = 0u64;
        let mut ref_updates = 0u32;
        let mut last_ref = h.w_ref();
        // Constant overload; no RTT boundary would fire for a long time if
        // we never advance snd_nxt, so SF must drive the decreases.
        for _ in 0..25 {
            t += Nanos::from_ns(400);
            tx += 5000;
            let a = AckFeedback {
                now: t,
                rtt: RTT + Nanos::from_ns(8000),
                ecn: false,
                int: mkint(100_000, tx, t),
                acked: Bytes::new(1000),
                hops: 1,
            };
            h.on_ack(&a);
            if (h.w_ref() - last_ref).abs() > 1e-12 {
                ref_updates += 1;
                last_ref = h.w_ref();
            }
        }
        // 25 ACKs, s=5 => exactly 5 reference commits.
        assert_eq!(ref_updates, 5);
    }

    #[test]
    fn vai_raises_ai_under_congestion() {
        let min_bdp = Bytes::new(50_000);
        let cfg = HpccConfig::vai_sf(RTT, LINE, min_bdp);
        let mut h = hpcc(cfg);
        let mut t = Nanos::from_ns(0);
        let mut tx = 0u64;
        // Heavy congestion (q = 150 KB > Token_Thresh) across one RTT.
        for _ in 0..10 {
            h.on_send(t, Bytes::new(1000));
            t += Nanos::from_ns(400);
            tx += 5000;
            let a = AckFeedback {
                now: t,
                rtt: RTT + Nanos::from_ns(12_000),
                ecn: false,
                int: mkint(150_000, tx, t),
                acked: Bytes::new(1000),
                hops: 1,
            };
            h.on_ack(&a);
        }
        let vai = h
            .vai
            .as_ref()
            .expect("VaiSf variant carries a VAI instance");
        assert!(vai.bank() > 0.0, "VAI should have minted tokens");
    }

    #[test]
    fn probabilistic_low_window_ignores_decreases() {
        // Force the reference window small, then verify decrease commits
        // are frequently skipped.
        let cfg = HpccConfig::probabilistic(RTT, LINE);
        let mut h = hpcc(cfg);
        h.w_ref = 500.0; // 1% of max window
        h.window = 500.0;
        let mut skipped = 0;
        let mut t = Nanos::from_ns(0);
        let mut tx = 0u64;
        for _ in 0..200 {
            // Force an RTT boundary each ACK.
            h.on_send(t, Bytes::new(1000));
            t += Nanos::from_ns(4000);
            tx += 50_000;
            let before = h.w_ref();
            let a = AckFeedback {
                now: t,
                rtt: RTT + Nanos::from_ns(8000),
                ecn: false,
                int: mkint(100_000, tx, t),
                acked: Bytes::new(1000),
                hops: 1,
            };
            h.on_ack(&a);
            if (h.w_ref() - before).abs() < 1e-9 {
                skipped += 1;
            }
        }
        // At ~1% of max window, ~99% of decrease commits are ignored.
        assert!(skipped > 150, "skipped only {skipped}/200");
    }

    mod properties {
        use super::*;

        /// Arbitrary (but physically plausible) ACK feedback:
        /// (qlen bytes, tx delta bytes, dt ns).
        fn arb_ack(rng: &mut DetRng) -> (u64, u64, u64) {
            (
                rng.below(500_000),
                rng.below(100_000),
                100 + rng.below(49_900),
            )
        }

        fn arb_acks(rng: &mut DetRng, max: u64) -> Vec<(u64, u64, u64)> {
            (0..1 + rng.below(max - 1)).map(|_| arb_ack(rng)).collect()
        }

        /// Under any feedback sequence the window stays in [floor, BDP]
        /// and never becomes NaN/inf; the reference window obeys the
        /// same bounds.
        #[test]
        fn prop_window_bounded() {
            for case in 0..64u64 {
                let mut rng = DetRng::new(0x4a11 + case);
                let acks = arb_acks(&mut rng, 300);
                let mut h = hpcc(HpccConfig::vai_sf(RTT, LINE, Bytes::new(50_000)));
                let mut t = Nanos::from_ns(0);
                let mut tx = 0u64;
                for (qlen, dtx, dt) in acks {
                    h.on_send(t, Bytes::new(1000));
                    t += Nanos::from_ns(dt);
                    tx += dtx;
                    let a = AckFeedback {
                        now: t,
                        rtt: RTT + Nanos::from_ns(qlen / 12), // delay grows with queue
                        ecn: false,
                        int: mkint(qlen, tx, t),
                        acked: Bytes::new(1000),
                        hops: 1,
                    };
                    h.on_ack(&a);
                    assert!(h.window().is_finite(), "case {case}");
                    assert!(h.window() >= 100.0 - 1e-9, "case {case}");
                    assert!(h.window() <= h.cfg.max_window() + 1e-9, "case {case}");
                    assert!(h.w_ref().is_finite(), "case {case}");
                    assert!(h.utilization().is_finite(), "case {case}");
                    let lim = h.limits();
                    assert!(lim.pacing > BitRate::ZERO, "case {case}");
                }
            }
        }

        /// Identical feedback sequences produce identical windows (full
        /// determinism, even for the probabilistic variant with a fixed
        /// seed).
        #[test]
        fn prop_deterministic() {
            for case in 0..64u64 {
                let mut rng = DetRng::new(0xde7e + case);
                let acks = arb_acks(&mut rng, 100);
                let run = |seed: u64| {
                    let mut h = Hpcc::new(HpccConfig::probabilistic(RTT, LINE), DetRng::new(seed));
                    let mut t = Nanos::from_ns(0);
                    let mut tx = 0u64;
                    for (qlen, dtx, dt) in &acks {
                        h.on_send(t, Bytes::new(1000));
                        t += Nanos::from_ns(*dt);
                        tx += dtx;
                        h.on_ack(&AckFeedback {
                            now: t,
                            rtt: RTT,
                            ecn: false,
                            int: mkint(*qlen, tx, t),
                            acked: Bytes::new(1000),
                            hops: 1,
                        });
                    }
                    h.window()
                };
                assert_eq!(run(5), run(5), "case {case}");
            }
        }
    }

    #[test]
    fn sf_on_increases_commits_increases_per_s_acks() {
        let cfg = HpccConfig {
            sf: Some(SfConfig {
                acks_per_decrease: 4,
            }),
            sf_on_increases: true,
            ..HpccConfig::paper_default(RTT, LINE)
        };
        let mut h = hpcc(cfg);
        h.w_ref = 10_000.0;
        h.window = 10_000.0;
        h.u = 0.1; // deeply underutilized: pure increase branch
        let mut t = Nanos::from_ns(0);
        let mut tx = 0u64;
        let mut commits = 0;
        let mut last_ref = h.w_ref();
        // No on_send: RTT boundaries never fire; only SF can commit.
        for _ in 0..12 {
            t += Nanos::from_ns(400);
            tx += 100; // trickle: keeps u low
            let a = AckFeedback {
                now: t,
                rtt: RTT,
                ecn: false,
                int: mkint(0, tx, t),
                acked: Bytes::new(1000),
                hops: 1,
            };
            h.on_ack(&a);
            if (h.w_ref() - last_ref).abs() > 1e-12 {
                commits += 1;
                last_ref = h.w_ref();
            }
        }
        assert_eq!(commits, 3, "12 ACKs at s=4 must commit 3 increases");
    }

    #[test]
    fn names_follow_variant() {
        assert_eq!(hpcc(HpccConfig::paper_default(RTT, LINE)).name(), "HPCC");
        assert_eq!(
            hpcc(HpccConfig::probabilistic(RTT, LINE)).name(),
            "HPCC Probabilistic"
        );
        assert_eq!(
            hpcc(HpccConfig::vai_sf(RTT, LINE, Bytes::new(50_000))).name(),
            "HPCC VAI SF"
        );
    }
}
