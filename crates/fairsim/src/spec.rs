//! Protocol/variant specification and per-flow CC construction.

use dcsim::{BitRate, Bytes, DetRng, Nanos};
use faircc::CongestionControl;

use cc_dcqcn::{Dcqcn, DcqcnConfig};
use cc_hpcc::{Hpcc, HpccConfig};
use cc_swift::{Swift, SwiftConfig};
use cc_timely::{Timely, TimelyConfig};

/// Topology facts the protocols need.
#[derive(Debug, Clone, Copy)]
pub struct NetEnv {
    /// Base (uncongested) round-trip time of the longest path.
    pub base_rtt: Nanos,
    /// Host NIC line rate.
    pub line_rate: BitRate,
    /// The network's minimum bandwidth-delay product — the paper's VAI
    /// `Token_Thresh` (≈ 50 KB at 100 Gbps).
    pub min_bdp: Bytes,
    /// Swift flow-based-scaling max window for this topology scale
    /// (paper: 50 packets on the incast star, 100 on the fat-tree).
    pub fbs_max_cwnd: f64,
    /// Worst-case switch hop count (Swift VAI threshold uses the static
    /// per-hop-scaled target).
    pub max_hops: u8,
}

impl NetEnv {
    /// Environment for the paper's single-switch incast star.
    pub fn incast_star(base_rtt: Nanos) -> Self {
        NetEnv {
            base_rtt,
            line_rate: BitRate::from_gbps(100),
            min_bdp: Bytes::from_kb(50),
            fbs_max_cwnd: 50.0,
            max_hops: 1,
        }
    }

    /// Environment for the 3-layer fat-tree.
    pub fn fat_tree(base_rtt: Nanos) -> Self {
        NetEnv {
            base_rtt,
            line_rate: BitRate::from_gbps(100),
            min_bdp: Bytes::from_kb(50),
            fbs_max_cwnd: 100.0,
            max_hops: 5,
        }
    }
}

/// Which protocol family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// HPCC (INT-based).
    Hpcc,
    /// Swift (delay-based).
    Swift,
    /// DCQCN (ECN/CNP-based) — needs RED enabled on switches.
    Dcqcn,
    /// Timely (RTT-gradient, rate-based) — the Swift ancestor whose HAI
    /// the paper recommends; included to test mechanism generality.
    Timely,
}

/// Which of the paper's variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The protocol's stock parameters (AI = 50 Mbps).
    Default,
    /// AI raised to 1 Gbps ("HPCC 1Gbps" / "Swift 1Gbps").
    HighAi,
    /// Probabilistic feedback baseline.
    Probabilistic,
    /// Variable AI only (ablation).
    Vai,
    /// Sampling Frequency only (ablation).
    Sf,
    /// The paper's combined mechanism ("VAI SF").
    VaiSf,
}

/// Cross-cutting knobs on a [`CcSpec`] that are orthogonal to the
/// protocol/variant pair.
///
/// Collecting them here keeps `CcSpec` itself a stable two-axis key and
/// lets new options arrive without another `with_*` method per field:
/// construct with [`CcOptions::default`] and override fields, or chain
/// the builder methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CcOptions {
    /// Timely-style hyper additive increase (Swift only; the extension
    /// the paper's evaluation suggests for Swift's Hadoop median).
    pub hyper_ai: bool,
}

impl CcOptions {
    /// Enable Timely-style hyper AI (meaningful for Swift only).
    pub fn hyper_ai(mut self) -> Self {
        self.hyper_ai = true;
        self
    }
}

/// A protocol + variant pair: the unit every figure compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CcSpec {
    /// Protocol family.
    pub kind: ProtocolKind,
    /// Variant.
    pub variant: Variant,
    /// Cross-cutting options (hyper AI).
    pub opts: CcOptions,
}

impl CcSpec {
    /// Shorthand constructor (`const`, so figure tables can hold specs).
    pub const fn new(kind: ProtocolKind, variant: Variant) -> Self {
        CcSpec {
            kind,
            variant,
            opts: CcOptions { hyper_ai: false },
        }
    }

    /// Replace the option block wholesale.
    pub const fn with_options(mut self, opts: CcOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Whether this spec needs RED/ECN marking enabled on switches.
    pub fn needs_red(&self) -> bool {
        self.kind == ProtocolKind::Dcqcn
    }

    /// The figure-legend label ("HPCC 1Gbps", "Swift VAI SF", ...).
    pub fn label(&self) -> String {
        let base = match self.kind {
            ProtocolKind::Hpcc => "HPCC",
            ProtocolKind::Swift => "Swift",
            ProtocolKind::Dcqcn => "DCQCN",
            ProtocolKind::Timely => "Timely",
        };
        let suffix = match self.variant {
            Variant::Default => "",
            Variant::HighAi => " 1Gbps",
            Variant::Probabilistic => " Probabilistic",
            Variant::Vai => " VAI",
            Variant::Sf => " SF",
            Variant::VaiSf => " VAI SF",
        };
        let hai = if self.opts.hyper_ai { " HAI" } else { "" };
        format!("{base}{suffix}{hai}")
    }

    /// Build one flow's congestion-control instance.
    ///
    /// `flow_seed` must be unique per flow so the probabilistic variants
    /// draw independent streams.
    pub fn build(&self, env: &NetEnv, flow_seed: u64) -> Box<dyn CongestionControl> {
        let rng = DetRng::new(flow_seed);
        match self.kind {
            ProtocolKind::Hpcc => {
                let base = HpccConfig::paper_default(env.base_rtt, env.line_rate);
                let cfg = match self.variant {
                    Variant::Default => base,
                    Variant::HighAi => HpccConfig::high_ai(env.base_rtt, env.line_rate),
                    Variant::Probabilistic => {
                        HpccConfig::probabilistic(env.base_rtt, env.line_rate)
                    }
                    Variant::VaiSf => HpccConfig::vai_sf(env.base_rtt, env.line_rate, env.min_bdp),
                    Variant::Vai => HpccConfig {
                        vai: Some(faircc::VaiConfig::hpcc_default(env.min_bdp.as_f64())),
                        ..base
                    },
                    Variant::Sf => HpccConfig {
                        sf: Some(faircc::SfConfig::paper_default()),
                        ..base
                    },
                };
                Box::new(Hpcc::new(cfg, rng))
            }
            ProtocolKind::Swift => {
                let base =
                    SwiftConfig::paper_default(env.base_rtt, env.line_rate, env.fbs_max_cwnd);
                let cfg = match self.variant {
                    Variant::Default => base,
                    Variant::HighAi => {
                        SwiftConfig::high_ai(env.base_rtt, env.line_rate, env.fbs_max_cwnd)
                    }
                    Variant::Probabilistic => {
                        SwiftConfig::probabilistic(env.base_rtt, env.line_rate, env.fbs_max_cwnd)
                    }
                    Variant::VaiSf => {
                        SwiftConfig::vai_sf(env.base_rtt, env.line_rate, env.max_hops)
                    }
                    Variant::Vai => {
                        let full = SwiftConfig::vai_sf(env.base_rtt, env.line_rate, env.max_hops);
                        SwiftConfig { sf: None, ..full }
                    }
                    Variant::Sf => SwiftConfig {
                        sf: Some(faircc::SfConfig::paper_default()),
                        ..base
                    },
                };
                let cfg = SwiftConfig {
                    hyper_ai: self
                        .opts
                        .hyper_ai
                        .then(cc_swift::HyperAiConfig::timely_default),
                    ..cfg
                };
                Box::new(Swift::new(cfg, rng))
            }
            ProtocolKind::Dcqcn => {
                // DCQCN has no paper variants; all map to the stock machine.
                Box::new(Dcqcn::new(DcqcnConfig {
                    line_rate: env.line_rate,
                    ..DcqcnConfig::default_100g()
                }))
            }
            ProtocolKind::Timely => {
                let base = TimelyConfig {
                    line_rate: env.line_rate,
                    ..TimelyConfig::default_100g(env.base_rtt)
                };
                let cfg = match self.variant {
                    Variant::VaiSf => TimelyConfig {
                        line_rate: env.line_rate,
                        ..TimelyConfig::with_vai_sf(env.base_rtt)
                    },
                    Variant::Vai => {
                        let full = TimelyConfig::with_vai_sf(env.base_rtt);
                        TimelyConfig {
                            line_rate: env.line_rate,
                            sf: None,
                            ..full
                        }
                    }
                    Variant::Sf => TimelyConfig {
                        sf: Some(faircc::SfConfig::paper_default()),
                        ..base
                    },
                    // Timely has no 1 Gbps / probabilistic baselines in
                    // the paper; they map to stock.
                    Variant::Default | Variant::HighAi | Variant::Probabilistic => base,
                };
                Box::new(Timely::new(cfg))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> NetEnv {
        NetEnv::incast_star(Nanos::from_micros(4))
    }

    /// The parameter listing of paper Sections III-D and VI-A, asserted
    /// against the default configurations (referenced from DESIGN.md's
    /// experiment index as the paper's "table equivalent").
    #[test]
    fn config_matches_paper() {
        use cc_hpcc::HpccConfig;
        use cc_swift::SwiftConfig;
        use faircc::SfConfig;
        use workloads::IncastConfig;

        let rtt = Nanos::from_micros(4);
        let line = dcsim::BitRate::from_gbps(100);

        // HPCC: AI = 50 Mbps, eta = 0.95, maxStage = 5; high-AI = 1 Gbps.
        let h = HpccConfig::paper_default(rtt, line);
        assert_eq!(h.eta, 0.95);
        assert_eq!(h.max_stage, 5);
        assert!((h.wai - 25.0).abs() < 1e-9); // 50 Mbps x 4 us / 8
        let h1g = HpccConfig::high_ai(rtt, line);
        assert!((h1g.wai - 500.0).abs() < 1e-9);

        // Swift: beta = 0.8, max mdf = 0.5 (factor floor), base target
        // 5 us, 2 us per hop; FBS max window 50 on the incast star.
        let s = SwiftConfig::paper_default(rtt, line, 50.0);
        assert_eq!(s.beta, 0.8);
        assert_eq!(s.max_mdf, 0.5);
        assert_eq!(s.base_target, Nanos::from_micros(5));
        assert_eq!(s.hop_scale, Nanos::from_micros(2));
        assert_eq!(s.fbs.expect("FBS variant sets fbs").max_cwnd, 50.0);

        // VAI: Token_Thresh = min BDP (~50 KB), 1 token/KB (HPCC) or
        // 30 ns/token (Swift), Bank_Cap 1000, AI_Cap 100, dampener 8.
        let hv = HpccConfig::vai_sf(rtt, line, Bytes::from_kb(50));
        let vai = hv.vai.expect("vai_sf sets vai");
        assert_eq!(vai.token_thresh, 50_000.0);
        assert_eq!(vai.ai_div, 1_000.0);
        assert_eq!(vai.bank_cap, 1_000.0);
        assert_eq!(vai.ai_cap, 100.0);
        assert_eq!(vai.dampener_constant, 8.0);
        let sv = SwiftConfig::vai_sf(rtt, line, 1);
        let svai = sv.vai.expect("vai_sf sets vai");
        assert_eq!(svai.ai_div, 30.0);
        // Token_Thresh = static target (5 + 2 us) + 4 us BDP delay.
        assert_eq!(svai.token_thresh, 11_000.0);
        assert!(sv.fbs.is_none()); // VAI SF drops FBS
        assert!(sv.always_ai);

        // SF: s = 30 ACKs.
        assert_eq!(SfConfig::paper_default().acks_per_decrease, 30);
        assert_eq!(hv.sf.expect("vai_sf sets sf").acks_per_decrease, 30);

        // Incast: 2 flows per 20 us, 1 MB each, 16 or 96 senders.
        let i16 = IncastConfig::paper_16_1();
        assert_eq!(i16.senders, 16);
        assert_eq!(i16.flows_per_interval, 2);
        assert_eq!(i16.interval, Nanos::from_micros(20));
        assert_eq!(i16.flow_size, Bytes::from_mb(1));
        assert_eq!(IncastConfig::paper_96_1().senders, 96);

        // Topology: 320-host fat-tree, 100G hosts, 400G fabric, 1 us.
        let ft = netsim::FatTreeConfig::paper();
        assert_eq!(ft.num_hosts(), 320);
        assert_eq!(ft.host_rate, dcsim::BitRate::from_gbps(100));
        assert_eq!(ft.fabric_rate, dcsim::BitRate::from_gbps(400));
        assert_eq!(ft.prop, Nanos::MICRO);
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(
            CcSpec::new(ProtocolKind::Hpcc, Variant::Default).label(),
            "HPCC"
        );
        assert_eq!(
            CcSpec::new(ProtocolKind::Hpcc, Variant::HighAi).label(),
            "HPCC 1Gbps"
        );
        assert_eq!(
            CcSpec::new(ProtocolKind::Swift, Variant::Probabilistic).label(),
            "Swift Probabilistic"
        );
        assert_eq!(
            CcSpec::new(ProtocolKind::Swift, Variant::VaiSf).label(),
            "Swift VAI SF"
        );
    }

    #[test]
    fn build_produces_matching_names() {
        for (kind, variant, want) in [
            (ProtocolKind::Hpcc, Variant::Default, "HPCC"),
            (ProtocolKind::Hpcc, Variant::VaiSf, "HPCC VAI SF"),
            (ProtocolKind::Swift, Variant::VaiSf, "Swift VAI SF"),
            (ProtocolKind::Dcqcn, Variant::Default, "DCQCN"),
        ] {
            let cc = CcSpec::new(kind, variant).build(&env(), 1);
            assert_eq!(cc.name(), want);
        }
    }

    #[test]
    fn hyper_ai_label_and_build() {
        let hai = CcOptions::default().hyper_ai();
        let spec = CcSpec::new(ProtocolKind::Swift, Variant::Default).with_options(hai);
        assert_eq!(spec.label(), "Swift HAI");
        let cc = spec.build(&env(), 1);
        assert_eq!(cc.name(), "Swift"); // HAI changes dynamics, not family
        let both = CcSpec::new(ProtocolKind::Swift, Variant::VaiSf).with_options(hai);
        assert_eq!(both.label(), "Swift VAI SF HAI");
    }

    #[test]
    fn only_dcqcn_needs_red() {
        assert!(CcSpec::new(ProtocolKind::Dcqcn, Variant::Default).needs_red());
        assert!(!CcSpec::new(ProtocolKind::Hpcc, Variant::Default).needs_red());
        assert!(!CcSpec::new(ProtocolKind::Swift, Variant::VaiSf).needs_red());
    }

    #[test]
    fn timely_variants_build() {
        for (variant, want) in [
            (Variant::Default, "Timely"),
            (Variant::VaiSf, "Timely VAI SF"),
            (Variant::Sf, "Timely SF"),
        ] {
            let cc = CcSpec::new(ProtocolKind::Timely, variant).build(&env(), 3);
            assert_eq!(cc.name(), want);
        }
    }

    #[test]
    fn all_specs_start_at_line_rate() {
        for kind in [
            ProtocolKind::Hpcc,
            ProtocolKind::Swift,
            ProtocolKind::Dcqcn,
            ProtocolKind::Timely,
        ] {
            // The variants the paper plots for HPCC/Swift.
            for variant in [
                Variant::Default,
                Variant::HighAi,
                Variant::Probabilistic,
                Variant::VaiSf,
            ] {
                let cc = CcSpec::new(kind, variant).build(&env(), 9);
                let r = cc.current_rate();
                assert!(
                    (r.as_f64() - 100e9).abs() / 100e9 < 0.01,
                    "{:?}/{:?} starts at {r}",
                    kind,
                    variant
                );
            }
        }
    }
}
