//! Extending the library: plug a *custom* congestion-control algorithm
//! into the simulator and bolt the paper's mechanisms onto it.
//!
//! The paper argues Variable AI and Sampling Frequency are "broadly
//! applicable to other sender reaction-based protocols". This example
//! demonstrates exactly that: a ~60-line AIMD protocol that halves its
//! window whenever per-hop INT telemetry reports a queue above a
//! threshold — a *deterministic* congestion signal, so (per the paper's
//! Section III-C) every competing flow reacts identically and convergence
//! to fairness is slow. Bolting on `faircc::VariableAi` and
//! `faircc::SamplingFrequency` — the same building blocks the HPCC and
//! Swift crates use — repairs it.
//!
//! ```text
//! cargo run --release --example custom_protocol
//! ```

use fairness_repro::dcsim::{BitRate, Nanos};
use fairness_repro::faircc::{
    AckFeedback, CcMode, CongestionControl, SamplingFrequency, SenderLimits, SfConfig, VaiConfig,
    VariableAi,
};
use fairness_repro::fairsim::{CcSpec, IncastScenario, ProtocolKind, RunCtx, Variant};
use fairness_repro::netsim::RunOutcome;

/// A toy window-based AIMD protocol driven by a deterministic INT
/// queue-depth threshold, with optional Variable AI and Sampling
/// Frequency.
struct IntAimd {
    base_rtt: Nanos,
    /// Window in bytes.
    cwnd: f64,
    max_cwnd: f64,
    /// Base additive increase per RTT, bytes (50 Mbps equivalent).
    ai: f64,
    /// Queue depth treated as congestion.
    qlen_thresh: f64,
    acked_since_update: f64,
    vai: Option<VariableAi>,
    sf: Option<SamplingFrequency>,
    last_decrease: Nanos,
    name: &'static str,
}

fn label(with_mechanisms: bool) -> &'static str {
    if with_mechanisms {
        "int-aimd VAI SF"
    } else {
        "int-aimd"
    }
}

impl IntAimd {
    fn new(base_rtt: Nanos, line: BitRate, with_mechanisms: bool) -> Self {
        let max_cwnd = line.bdp(base_rtt).as_f64();
        IntAimd {
            base_rtt,
            cwnd: max_cwnd, // RDMA convention: start at line rate
            max_cwnd,
            ai: BitRate::from_mbps(50).as_f64() * base_rtt.as_secs_f64() / 8.0,
            qlen_thresh: 30_000.0,
            acked_since_update: 0.0,
            // The same parameterization HPCC's VAI uses: congestion is a
            // queue depth in bytes, one token per KB, threshold = min BDP.
            vai: with_mechanisms.then(|| VariableAi::new(VaiConfig::hpcc_default(50_000.0))),
            sf: with_mechanisms.then(|| SamplingFrequency::new(SfConfig::paper_default())),
            last_decrease: Nanos::ZERO,
            name: label(with_mechanisms),
        }
    }
}

impl CongestionControl for IntAimd {
    fn on_ack(&mut self, fb: &AckFeedback) {
        self.acked_since_update += fb.acked.as_f64();
        let qlen = fb.int.max_qlen().as_f64();
        let congested = qlen > self.qlen_thresh;
        if let Some(vai) = &mut self.vai {
            vai.observe(qlen, congested);
        }
        let rtt_boundary = self.acked_since_update >= self.cwnd;
        if rtt_boundary {
            self.acked_since_update = 0.0;
            if let Some(vai) = &mut self.vai {
                vai.on_rtt_end();
            }
        }

        if congested {
            // Multiplicative decrease, gated per-RTT (stock) or per `s`
            // ACKs (Sampling Frequency).
            let may = match &mut self.sf {
                Some(sf) => sf.on_ack(),
                None => fb.now.saturating_sub(self.last_decrease) >= self.base_rtt,
            };
            if may {
                self.cwnd /= 2.0;
                self.last_decrease = fb.now;
            }
        } else {
            // Additive increase, VAI-scaled, amortized per ACK.
            let mult = self
                .vai
                .as_mut()
                .map(|v| v.ai_multiplier(rtt_boundary))
                .unwrap_or(1.0);
            self.cwnd += self.ai * mult * fb.acked.as_f64() / self.cwnd;
        }
        self.cwnd = self.cwnd.clamp(1_000.0, self.max_cwnd);
    }

    fn limits(&self) -> SenderLimits {
        SenderLimits::windowed(self.cwnd, self.base_rtt)
    }

    fn mode(&self) -> CcMode {
        CcMode::Window
    }

    fn name(&self) -> &str {
        self.name
    }
}

/// Finish spread (µs) of the incast under `IntAimd`.
fn run(with_mechanisms: bool) -> f64 {
    // The paper's 16-1 staggered incast through the stock scenario
    // pipeline; only the per-flow congestion control is ours. (The spec
    // names the network side: HPCC needs no RED marking, like IntAimd.)
    let spec = CcSpec::new(ProtocolKind::Hpcc, Variant::Default);
    let res = IncastScenario::paper(16, spec, 0).run_with_cc(&RunCtx::new(0), &|env, _| {
        Box::new(IntAimd::new(env.base_rtt, env.line_rate, with_mechanisms))
    });
    assert_eq!(res.outcome, RunOutcome::Completed, "incast must drain");
    res.finish_spread_us()
}

fn main() {
    println!("16-1 staggered incast with a custom INT-threshold AIMD protocol:\n");
    let (base, mech) = (run(false), run(true));
    println!("  {:<18} finish spread = {base:>7.0} us", label(false));
    println!("  {:<18} finish spread = {mech:>7.0} us", label(true));
    println!(
        "\nVariable AI + Sampling Frequency transplanted onto a third-party \
         protocol with deterministic feedback: finish spread improved {:.2}x.",
        base / mech
    );
}
