//! The five [`crate::FIGURES`] rows that are not sweeps: the fluid model,
//! the three ablations of parameters [`fairsim::CcSpec`] cannot name
//! (through [`IncastScenario::run_with_cc`]) and the permutation replay.
//! Each takes the figure context and the figure's name (its trace
//! artifacts' prefix) and returns the text under the `== title ==` line.

use dcsim::{BitRate, Bytes, Nanos};
use fairsim::render::{f3, TextTable};
use fairsim::{CcSpec, IncastResult, IncastScenario, ProtocolKind, Scenario, Variant};
use netsim::FatTreeConfig;

use crate::views::{
    summary_table, ALL_FINISHED, CONVERGE, FINISH_SPREAD, MEAN_QUEUE, PEAK_QUEUE, UNFAIRNESS,
};
use crate::FigureCtx;

/// Figure 4's model, sampled every 5 us over 600 us.
fn fluid_samples() -> (fluid::FluidParams, Vec<fluid::FluidSample>) {
    let p = fluid::FluidParams::figure4();
    let samples = fluid::integrate(&p, 600_000.0, 5.0, 120);
    (p, samples)
}

/// Figure 4: the fluid-model fairness difference, every fourth sample.
pub(crate) fn fluid_model(_: &FigureCtx, _: &str) -> String {
    let (p, samples) = fluid_samples();
    let mut out = format!(
        "params: r={} ns, MTU={} B, s={}, beta={}, C1={} B/ns, C0={} B/ns\n\
         SF converges faster (1/r < (C1+C0)/(s*MTU)): {}\n\n",
        p.rtt_ns,
        p.mtu,
        p.s,
        p.beta,
        p.c1,
        p.c0,
        p.sf_converges_faster()
    );
    let mut tbl = TextTable::new(vec!["t(us)", "gap perRTT", "gap SF", "difference"]);
    let mut peak = f64::MIN;
    for s in samples.iter().step_by(4) {
        peak = peak.max(s.fairness_difference());
        tbl.row(vec![
            format!("{:.0}", s.t_ns / 1e3),
            f3(s.gap_rtt()),
            f3(s.gap_sf()),
            f3(s.fairness_difference()),
        ]);
    }
    out.push_str(&tbl.render());
    out.push_str(&format!(
        "\npeak fairness difference: {peak:.3} B/ns (positive hump then decay, as in the paper)\n"
    ));
    out
}

/// Figure 4 as `[t_ns, gap per-RTT, gap SF, difference]` rows.
pub(crate) fn fluid_model_json() -> minijson::Value {
    let rows = fluid_samples()
        .1
        .iter()
        .map(|s| minijson::arr([s.t_ns, s.gap_rtt(), s.gap_sf(), s.fairness_difference()]))
        .collect();
    minijson::Value::Arr(rows)
}

/// Run the paper's staggered incast under HPCC VAI+SF with `tweak`
/// applied to every flow's config. Same scenario, same pipeline and same
/// [`IncastResult`] as the stock runs; only the per-flow CC differs.
fn run_incast_tweaked(
    senders: usize,
    ctx: &FigureCtx,
    figure: &str,
    label: &str,
    tweak: impl Fn(&mut cc_hpcc::HpccConfig),
) -> IncastResult {
    let spec = CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf);
    let sc = IncastScenario::paper(senders, spec, ctx.seed);
    let mut res = sc.run_with_cc(&ctx.sweep.run_ctx(ctx.seed), &|env, flow_seed| {
        let mut cfg = cc_hpcc::HpccConfig::vai_sf(env.base_rtt, env.line_rate, env.min_bdp);
        tweak(&mut cfg);
        Box::new(cc_hpcc::Hpcc::new(cfg, dcsim::DetRng::new(flow_seed)))
    });
    res.label = label.to_string();
    if let Some(tracer) = &res.trace {
        fleet::write_run_artifacts(&ctx.sweep, figure, label, ctx.seed, tracer);
    }
    res
}

/// Sampling Frequency cadence sweep (s in {5, 15, 30, 60, 120}).
pub(crate) fn sf_cadence(ctx: &FigureCtx, figure: &str) -> String {
    let runs = [5u32, 15, 30, 60, 120].map(|s| {
        let res = run_incast_tweaked(16, ctx, figure, &format!("s={s}"), |cfg| {
            cfg.sf = Some(faircc::SfConfig {
                acks_per_decrease: s,
            });
        });
        (s.to_string(), res)
    });
    let rows: Vec<(&str, &IncastResult)> = runs.iter().map(|(s, r)| (s.as_str(), r)).collect();
    let cols = [CONVERGE, PEAK_QUEUE, FINISH_SPREAD];
    summary_table("s (ACKs)", &cols, &rows)
}

/// The VAI dampener (paper Section IV-A). Disabling it lets the elevated
/// AI feed back into fresh congestion during a 96-1 incast; the dampener
/// bounds queues at equal fairness.
pub(crate) fn dampener(ctx: &FigureCtx, figure: &str) -> String {
    let runs = [("enabled (8)", 8.0f64), ("disabled", f64::INFINITY)].map(|(label, constant)| {
        let res = run_incast_tweaked(96, ctx, figure, label, |cfg| {
            if let Some(vai) = &mut cfg.vai {
                // An infinite constant makes the divisor 1 regardless of
                // the dampener value: the feedback brake is off.
                vai.dampener_constant = constant;
            }
        });
        (label, res)
    });
    let rows: Vec<(&str, &IncastResult)> = runs.iter().map(|(l, r)| (*l, r)).collect();
    let cols = [PEAK_QUEUE, MEAN_QUEUE, FINISH_SPREAD, ALL_FINISHED];
    format!(
        "{}\nWithout the dampener, Variable AI's extra additive increase keeps\n\
         regenerating the very congestion that mints its tokens.\n",
        summary_table("dampener", &cols, &rows)
    )
}

/// Negative control: Sampling Frequency applied to *increases* as well as
/// decreases — the design the paper explicitly rejects because high-rate
/// flows would then also increase more often. Expect fairness to regress
/// relative to decrease-only SF.
pub(crate) fn sf_increases(ctx: &FigureCtx, figure: &str) -> String {
    let runs = [("SF decreases only (paper)", false), ("SF both ways", true)].map(
        |(label, on_increases)| {
            let tweak = |cfg: &mut cc_hpcc::HpccConfig| cfg.sf_on_increases = on_increases;
            (label, run_incast_tweaked(16, ctx, figure, label, tweak))
        },
    );
    let rows: Vec<(&str, &IncastResult)> = runs.iter().map(|(l, r)| (*l, r)).collect();
    let cols = [CONVERGE, UNFAIRNESS, FINISH_SPREAD];
    format!(
        "{}\nThe paper's rule — SF must gate decreases only — holds: letting\n\
         high-rate flows also *increase* more often cancels the benefit.\n",
        summary_table("variant", &cols, &rows)
    )
}

/// Permutation traffic — the classic fabric-fairness stressor.
///
/// Every host sends one large flow to a distinct destination (no incast);
/// on a 1:1 fabric nothing would congest, so this uses an oversubscribed
/// fat-tree (fabric links at host speed) where ECMP collisions create
/// unequal shares. Convergence to fairness then decides how long the
/// collided flows lag the clean ones.
pub(crate) fn permutation(ctx: &FigureCtx, figure: &str) -> String {
    let fat_tree = FatTreeConfig {
        // Oversubscribed: fabric at host speed.
        fabric_rate: BitRate::from_gbps(100),
        ..FatTreeConfig::reduced()
    };
    let arrivals = workloads::permutation(
        fat_tree.num_hosts(),
        Bytes::from_mb(4),
        Nanos::ZERO,
        ctx.seed ^ 0xBEEF,
    );
    let mut tbl = TextTable::new(vec![
        "variant",
        "finish spread(us)",
        "worst slowdown",
        "median slowdown",
        "all finished",
    ]);
    for &cc in crate::BOTH_PAIRS {
        let res = fairsim::TraceScenario {
            fat_tree,
            arrivals: arrivals.clone(),
            cc,
            deadline: Nanos::from_millis(50),
            sample_interval: None,
        }
        .run_with(&ctx.sweep.run_ctx(ctx.seed));
        if let Some(tracer) = &res.trace {
            fleet::write_run_artifacts(&ctx.sweep, figure, &res.label, ctx.seed, tracer);
        }
        let finishes: Vec<f64> = res.fcts.iter().map(|r| r.finish.as_micros_f64()).collect();
        let spread = finishes.iter().cloned().fold(f64::MIN, f64::max)
            - finishes.iter().cloned().fold(f64::MAX, f64::min);
        let slowdowns: Vec<f64> = res.raw.iter().map(|&(_, _, s)| s).collect();
        tbl.row(vec![
            res.label.clone(),
            format!("{spread:.0}"),
            format!("{:.2}", slowdowns.iter().cloned().fold(f64::MIN, f64::max)),
            format!("{:.2}", metrics::median(&slowdowns)),
            res.all_finished.to_string(),
        ]);
    }
    tbl.render()
}
