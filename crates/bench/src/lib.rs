//! Figure-regeneration library: one function per figure of the paper,
//! each returning the rendered text block the `repro` binary prints.
//!
//! Every figure function takes a [`Scale`]: `Reduced` keeps the paper's
//! incast microbenchmarks at full scale (they are cheap) but shrinks the
//! fat-tree datacenter runs to laptop size; `Full` reproduces the paper's
//! exact 320-host / 50 ms configuration (hours of CPU).

#![deny(unsafe_code)]
#![warn(missing_docs)]

use dcsim::Nanos;
use fairsim::render::{f3, fmt_size, TextTable};
use fairsim::scenarios::LONG_FLOW_BYTES;
use fairsim::series::thin;
use fairsim::{
    CcOptions, CcSpec, DatacenterResult, FaultResult, IncastResult, IncastScenario, ProtocolKind,
    RunCtx, Scenario, SchedulerKind, TraceConfig, TraceLevel, Tracer, Variant,
};
use fleet::slug;
use netsim::FatTreeConfig;
use workloads::distributions;

/// Experiment scale for the datacenter figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 32-host fat-tree, 2 ms of arrivals (default; minutes of CPU).
    Reduced,
    /// The paper's 320-host fat-tree, 50 ms of arrivals (hours of CPU).
    Full,
}

/// Default seed used by the harness (override with `--seed`).
pub const DEFAULT_SEED: u64 = 42;

/// Everything a figure function needs besides its own workload: the
/// datacenter scale, the root seed, the scheduler backend, the trace
/// configuration, and where (if anywhere) to write trace artifacts.
#[derive(Debug, Clone)]
pub struct FigureCtx {
    /// Datacenter experiment scale.
    pub scale: Scale,
    /// Root seed (override with `--seed`).
    pub seed: u64,
    /// Event scheduler backing every run.
    pub scheduler: SchedulerKind,
    /// Trace/metrics collection level.
    pub trace: TraceConfig,
    /// Directory for per-variant trace artifacts; `None` discards traces.
    pub trace_dir: Option<std::path::PathBuf>,
    /// Tag prefixed to trace artifact file names (usually the figure name).
    pub tag: String,
}

impl FigureCtx {
    /// A context with the given scale and seed, default scheduler, and
    /// tracing off.
    pub fn new(scale: Scale, seed: u64) -> Self {
        FigureCtx {
            scale,
            seed,
            scheduler: SchedulerKind::default(),
            trace: TraceConfig::off(),
            trace_dir: None,
            tag: String::new(),
        }
    }

    /// Select the event-scheduler backend.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Enable tracing at the given level, writing artifacts to `dir`.
    pub fn with_trace(mut self, trace: TraceConfig, dir: Option<std::path::PathBuf>) -> Self {
        self.trace = trace;
        self.trace_dir = dir;
        self
    }

    /// Set the artifact file-name tag (chainable; the harness sets the
    /// figure name before each figure).
    pub fn with_tag(mut self, tag: &str) -> Self {
        self.tag = tag.to_string();
        self
    }

    /// The per-run context handed to [`fairsim::Scenario::run_with`].
    pub fn run_ctx(&self) -> RunCtx {
        RunCtx::new(self.seed)
            .with_scheduler(self.scheduler)
            .with_trace(self.trace)
    }
}

/// Write a run's trace artifacts under `ctx.trace_dir`:
/// `<tag>.<label>.trace.jsonl` (structured events),
/// `<tag>.<label>.chrome.json` (Perfetto-loadable), and
/// `<tag>.<label>.metrics.json` (counters + histograms).
fn write_trace_artifacts(ctx: &FigureCtx, label: &str, tracer: &Tracer) {
    let Some(dir) = &ctx.trace_dir else { return };
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| panic!("cannot create trace dir {}: {e}", dir.display()));
    let stem = if ctx.tag.is_empty() {
        slug(label)
    } else {
        format!("{}.{}", ctx.tag, slug(label))
    };
    let write = |suffix: &str, body: String| {
        let path = dir.join(format!("{stem}.{suffix}"));
        std::fs::write(&path, body)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    };
    if tracer.config().level == TraceLevel::Full {
        write("trace.jsonl", tracer.to_jsonl());
        write("chrome.json", tracer.to_chrome());
    }
    write(
        "metrics.json",
        format!("{}\n", tracer.metrics().to_value().pretty()),
    );
}

/// The fleet execution config for a figure context: same scheduler,
/// trace level, artifact directory, and tag the single-run path uses.
fn sweep_cfg(ctx: &FigureCtx) -> fleet::SweepConfig {
    fleet::SweepConfig::new()
        .with_scheduler(ctx.scheduler)
        .with_trace(ctx.trace, ctx.trace_dir.clone())
        .with_tag(&ctx.tag)
}

/// Run a single-seed sweep and unwrap each cell's one run.
fn run_single_seed(spec: &fleet::SweepSpec, ctx: &FigureCtx) -> Vec<fleet::RunOutput> {
    fleet::run_sweep(spec, &sweep_cfg(ctx))
        .into_cells()
        .into_iter()
        .map(fleet::CellOutcome::into_only_run)
        .collect()
}

fn run_incasts(specs: &[CcSpec], senders: usize, ctx: &FigureCtx) -> Vec<IncastResult> {
    let spec = fleet::SweepSpec {
        name: format!("incast-{senders}"),
        cc: specs.to_vec(),
        workload: fleet::WorkloadAxis::Incast {
            degrees: vec![senders],
        },
        ensemble: fleet::Ensemble::single(ctx.seed),
    };
    run_single_seed(&spec, ctx)
        .into_iter()
        .map(|r| r.into_incast().expect("incast sweep yields incast runs"))
        .collect()
}

fn run_datacenters(
    specs: &[CcSpec],
    workload_names: &[&str],
    ctx: &FigureCtx,
) -> Vec<DatacenterResult> {
    let mix: Vec<String> = workload_names.iter().map(|s| s.to_string()).collect();
    let spec = fleet::SweepSpec {
        name: format!("dc-{}", slug(&mix.join("-"))),
        cc: specs.to_vec(),
        workload: fleet::WorkloadAxis::Datacenter {
            mixes: vec![mix],
            loads: vec![0.5],
            full_scale: ctx.scale == Scale::Full,
        },
        ensemble: fleet::Ensemble::single(ctx.seed),
    };
    run_single_seed(&spec, ctx)
        .into_iter()
        .map(|r| {
            r.into_datacenter()
                .expect("datacenter sweep yields datacenter runs")
        })
        .collect()
}

/// The variant set the paper's incast figures compare, per protocol.
fn incast_specs(kind: ProtocolKind, with_vai_sf: bool) -> Vec<CcSpec> {
    let mut v = vec![
        CcSpec::new(kind, Variant::Default),
        CcSpec::new(kind, Variant::HighAi),
        CcSpec::new(kind, Variant::Probabilistic),
    ];
    if with_vai_sf {
        v.push(CcSpec::new(kind, Variant::VaiSf));
    }
    v
}

/// Render Jain-index and queue-depth tables for a set of incast results.
fn render_jain_queue(title: &str, results: &[IncastResult], rows: usize) -> String {
    let mut out = format!("== {title} ==\n\n");

    let mut header = vec!["t(us)".to_string()];
    header.extend(results.iter().map(|r| format!("jain[{}]", r.label)));
    let mut jain_tbl = TextTable::new(header);
    let base = thin(&results[0].jain, rows);
    for &(t, _) in &base {
        let mut cells = vec![format!("{t:.0}")];
        for r in results {
            let v = r
                .jain
                .iter()
                .min_by(|a, b| {
                    (a.0 - t)
                        .abs()
                        .partial_cmp(&(b.0 - t).abs())
                        .expect("no NaN")
                })
                .map(|&(_, j)| j);
            cells.push(v.map(f3).unwrap_or_else(|| "-".into()));
        }
        jain_tbl.row(cells);
    }
    out.push_str(&jain_tbl.render());

    let mut header = vec!["t(us)".to_string()];
    header.extend(results.iter().map(|r| format!("queueKB[{}]", r.label)));
    let mut q_tbl = TextTable::new(header);
    let base = thin(&results[0].queue, rows);
    for &(t, _) in &base {
        let mut cells = vec![format!("{t:.0}")];
        for r in results {
            let v = r
                .queue
                .iter()
                .min_by(|a, b| {
                    (a.0 - t)
                        .abs()
                        .partial_cmp(&(b.0 - t).abs())
                        .expect("no NaN")
                })
                .map(|&(_, q)| q);
            cells.push(
                v.map(|q| format!("{:.1}", q as f64 / 1e3))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        q_tbl.row(cells);
    }
    out.push('\n');
    out.push_str(&q_tbl.render());

    out.push_str("\nSummary (per variant):\n");
    let mut s = TextTable::new(vec![
        "variant",
        "converge@0.9(us)",
        "unfairness integral",
        "peak queue(KB)",
        "mean queue(KB)",
        "finish spread(us)",
        "all finished",
    ]);
    for r in results {
        s.row(vec![
            r.label.clone(),
            r.convergence_time(0.9)
                .map(|t| format!("{t:.0}"))
                .unwrap_or_else(|| "never".into()),
            format!("{:.0}", r.unfairness_integral()),
            format!("{:.1}", r.peak_queue() as f64 / 1e3),
            format!("{:.1}", r.mean_queue() / 1e3),
            format!("{:.0}", r.finish_spread_us()),
            r.all_finished.to_string(),
        ]);
    }
    out.push_str(&s.render());
    out
}

/// Render a start-vs-finish scatter as a table.
fn render_start_finish(title: &str, results: &[IncastResult]) -> String {
    let mut out = format!("== {title} ==\n\n");
    let mut header = vec!["flow".to_string(), "start(us)".to_string()];
    header.extend(results.iter().map(|r| format!("finish(us)[{}]", r.label)));
    let mut tbl = TextTable::new(header);
    let base = results[0].start_finish();
    for (i, &(start, _)) in base.iter().enumerate() {
        let mut cells = vec![format!("{i}"), format!("{start:.0}")];
        for r in results {
            let sf = r.start_finish();
            cells.push(
                sf.get(i)
                    .map(|&(_, f)| format!("{f:.0}"))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        tbl.row(cells);
    }
    out.push_str(&tbl.render());
    out.push_str("\nFinish spread (last - first completion):\n");
    for r in results {
        out.push_str(&format!(
            "  {:<22} {:>8.0} us\n",
            r.label,
            r.finish_spread_us()
        ));
    }
    out
}

/// Figure 1: Jain index and queue depth, 16-1 incast, HPCC and Swift
/// baselines (default / 1 Gbps AI / probabilistic).
pub fn fig1(ctx: &FigureCtx) -> String {
    let mut out = String::new();
    for kind in [ProtocolKind::Hpcc, ProtocolKind::Swift] {
        let results = run_incasts(&incast_specs(kind, false), 16, ctx);
        let name = if kind == ProtocolKind::Hpcc {
            "Fig 1(a,b): 16-1 incast, HPCC"
        } else {
            "Fig 1(c,d): 16-1 incast, Swift"
        };
        out.push_str(&render_jain_queue(name, &results, 30));
        out.push('\n');
    }
    out
}

/// Figure 2: start vs finish, 16-1 staggered incast, HPCC baselines.
pub fn fig2(ctx: &FigureCtx) -> String {
    let results = run_incasts(&incast_specs(ProtocolKind::Hpcc, false), 16, ctx);
    render_start_finish("Fig 2: start vs finish, 16-1 incast, HPCC", &results)
}

/// Figure 3: start vs finish, 16-1 staggered incast, Swift baselines.
pub fn fig3(ctx: &FigureCtx) -> String {
    let results = run_incasts(&incast_specs(ProtocolKind::Swift, false), 16, ctx);
    render_start_finish("Fig 3: start vs finish, 16-1 incast, Swift", &results)
}

/// Figure 4: the fluid-model fairness difference.
pub fn fig4() -> String {
    let p = fluid::FluidParams::figure4();
    let samples = fluid::integrate(&p, 600_000.0, 5.0, 30);
    let mut out = String::from("== Fig 4: fluid model, per-RTT vs Sampling Frequency MD ==\n\n");
    out.push_str(&format!(
        "params: r={} ns, MTU={} B, s={}, beta={}, C1={} B/ns, C0={} B/ns\n",
        p.rtt_ns, p.mtu, p.s, p.beta, p.c1, p.c0
    ));
    out.push_str(&format!(
        "SF converges faster (1/r < (C1+C0)/(s*MTU)): {}\n\n",
        p.sf_converges_faster()
    ));
    let mut tbl = TextTable::new(vec!["t(us)", "gap perRTT", "gap SF", "difference"]);
    for s in &samples {
        tbl.row(vec![
            format!("{:.0}", s.t_ns / 1e3),
            f3(s.gap_rtt()),
            f3(s.gap_sf()),
            f3(s.fairness_difference()),
        ]);
    }
    out.push_str(&tbl.render());
    let peak = samples
        .iter()
        .map(|s| s.fairness_difference())
        .fold(f64::MIN, f64::max);
    out.push_str(&format!(
        "\npeak fairness difference: {peak:.3} B/ns (positive hump then decay, as in the paper)\n"
    ));
    out
}

/// Figure 5: 16-1 and 96-1 incast with HPCC variants including VAI SF.
pub fn fig5(ctx: &FigureCtx) -> String {
    let mut out = String::new();
    for (senders, tag) in [(16, "(a,b)"), (96, "(c,d)")] {
        let results = run_incasts(&incast_specs(ProtocolKind::Hpcc, true), senders, ctx);
        out.push_str(&render_jain_queue(
            &format!("Fig 5{tag}: {senders}-1 incast, HPCC"),
            &results,
            30,
        ));
        out.push('\n');
    }
    out
}

/// Figure 6: 16-1 and 96-1 incast with Swift variants including VAI SF.
pub fn fig6(ctx: &FigureCtx) -> String {
    let mut out = String::new();
    for (senders, tag) in [(16, "(a,b)"), (96, "(c,d)")] {
        let results = run_incasts(&incast_specs(ProtocolKind::Swift, true), senders, ctx);
        out.push_str(&render_jain_queue(
            &format!("Fig 6{tag}: {senders}-1 incast, Swift"),
            &results,
            30,
        ));
        out.push('\n');
    }
    out
}

/// Figure 8: start vs finish, HPCC default vs VAI SF.
pub fn fig8(ctx: &FigureCtx) -> String {
    let specs = [
        CcSpec::new(ProtocolKind::Hpcc, Variant::Default),
        CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf),
    ];
    let results = run_incasts(&specs, 16, ctx);
    render_start_finish(
        "Fig 8: start vs finish, 16-1 incast, HPCC vs HPCC VAI SF",
        &results,
    )
}

/// Figure 9: start vs finish, Swift default vs VAI SF.
pub fn fig9(ctx: &FigureCtx) -> String {
    let specs = [
        CcSpec::new(ProtocolKind::Swift, Variant::Default),
        CcSpec::new(ProtocolKind::Swift, Variant::VaiSf),
    ];
    let results = run_incasts(&specs, 16, ctx);
    render_start_finish(
        "Fig 9: start vs finish, 16-1 incast, Swift vs Swift VAI SF",
        &results,
    )
}

/// The four datacenter variants of Figures 10-13.
fn datacenter_specs() -> Vec<CcSpec> {
    vec![
        CcSpec::new(ProtocolKind::Hpcc, Variant::Default),
        CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf),
        CcSpec::new(ProtocolKind::Swift, Variant::Default),
        CcSpec::new(ProtocolKind::Swift, Variant::VaiSf),
    ]
}

fn render_slowdown(title: &str, results: &[DatacenterResult], median: bool, rows: usize) -> String {
    let mut out = format!("== {title} ==\n\n");
    for r in results {
        out.push_str(&format!(
            "  {:<16} {} flows offered, {} completed\n",
            r.label, r.n_flows, r.completed
        ));
    }
    out.push('\n');
    let stat = if median { "median" } else { "p99.9" };
    let mut header = vec!["flow size".to_string()];
    header.extend(results.iter().map(|r| format!("{stat}[{}]", r.label)));
    let mut tbl = TextTable::new(header);
    let base = &results[0].table.points;
    // Evenly thin the bins but always keep the largest five (the long
    // flows are the whole point of these figures).
    let mut picks = thin(&(0..base.len()).collect::<Vec<_>>(), rows);
    for i in base.len().saturating_sub(5)..base.len() {
        if !picks.contains(&i) {
            picks.push(i);
        }
    }
    picks.sort_unstable();
    for &i in &picks {
        let mut cells = vec![fmt_size(base[i].size)];
        for r in results {
            let cell = r
                .table
                .points
                .get(i)
                .map(|p| f3(if median { p.median } else { p.tail }))
                .unwrap_or_else(|| "-".into());
            cells.push(cell);
        }
        tbl.row(cells);
    }
    out.push_str(&tbl.render());

    // Paired per-flow comparison: variants at the same seed see the same
    // flow list, so default-vs-VAI-SF pairs are directly comparable.
    if results.len() >= 2 {
        out.push_str("\nPaired per-flow comparison (baseline -> treatment):\n");
        for pair in results.chunks(2) {
            if pair.len() < 2 {
                continue;
            }
            let c = fairsim::PairedComparison::compute(&pair[0].raw, &pair[1].raw, LONG_FLOW_BYTES);
            out.push_str(&format!(
                "  {} -> {}: {} paired flows; long flows (> {}): {:.0}% improved, \
                 geomean speedup {:.2}x\n",
                pair[0].label,
                pair[1].label,
                c.n,
                fmt_size(LONG_FLOW_BYTES),
                c.long_frac_improved * 100.0,
                c.long_geomean_speedup,
            ));
        }
    }

    out.push_str(&format!(
        "\nLong-flow (>{}) {stat} slowdown summary:\n",
        fmt_size(LONG_FLOW_BYTES)
    ));
    for r in results {
        let vals: Vec<f64> = r
            .table
            .points
            .iter()
            .filter(|p| p.size > LONG_FLOW_BYTES)
            .map(|p| if median { p.median } else { p.tail })
            .collect();
        let mean = if vals.is_empty() {
            f64::NAN
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        out.push_str(&format!("  {:<16} mean {stat} = {mean:.1}x\n", r.label));
    }
    out
}

/// Figure 10: 99.9% FCT slowdown vs flow size, Hadoop traffic.
pub fn fig10(ctx: &FigureCtx) -> String {
    let results = run_datacenters(&datacenter_specs(), &[distributions::FB_HADOOP], ctx);
    render_slowdown(
        "Fig 10: 99.9% FCT slowdown, Hadoop traffic",
        &results,
        false,
        25,
    )
}

/// Figure 11: 99.9% FCT slowdown, WebSearch + Alibaba storage mix.
pub fn fig11(ctx: &FigureCtx) -> String {
    let results = run_datacenters(
        &datacenter_specs(),
        &[distributions::WEBSEARCH, distributions::ALI_STORAGE],
        ctx,
    );
    render_slowdown(
        "Fig 11: 99.9% FCT slowdown, WebSearch + Storage traffic",
        &results,
        false,
        25,
    )
}

/// Figure 12: median FCT slowdown, Hadoop traffic.
pub fn fig12(ctx: &FigureCtx) -> String {
    let results = run_datacenters(&datacenter_specs(), &[distributions::FB_HADOOP], ctx);
    render_slowdown(
        "Fig 12: median FCT slowdown, Hadoop traffic",
        &results,
        true,
        25,
    )
}

/// Figure 13: median FCT slowdown, WebSearch + Storage mix.
pub fn fig13(ctx: &FigureCtx) -> String {
    let results = run_datacenters(
        &datacenter_specs(),
        &[distributions::WEBSEARCH, distributions::ALI_STORAGE],
        ctx,
    );
    render_slowdown(
        "Fig 13: median FCT slowdown, WebSearch + Storage traffic",
        &results,
        true,
        25,
    )
}

/// Fault sweep: FCT-slowdown CDFs under fabric wire loss and a flapping
/// agg–spine link, baseline HPCC vs VAI+SF.
///
/// This is the robustness companion to Figures 10-13: the fault plan
/// injects loss (triggering go-back-N recovery and exponential RTO
/// backoff) and periodic link flaps (triggering failover reroutes), and
/// the figure checks that fast convergence to fairness survives — and
/// that no cell wedges (every run outcome is reported).
pub fn faults(ctx: &FigureCtx) -> String {
    let flap = Some((Nanos::from_micros(200), Nanos::from_micros(40)));
    // The sweep grid: loss rate x flap cadence, plus a clean reference
    // cell (which must reproduce the fault-free baseline bit-for-bit).
    let cell = |name: &str, loss: f64, flap: Option<(Nanos, Nanos)>| fleet::FaultCell {
        name: name.to_string(),
        loss,
        bursty: false,
        flap,
    };
    let grid = vec![
        cell("clean", 0.0, None),
        cell("loss 1e-4", 1e-4, None),
        cell("loss 1e-3", 1e-3, None),
        cell("flap 200us", 0.0, flap),
        cell("loss 1e-3 + flap", 1e-3, flap),
    ];
    let names: Vec<String> = grid.iter().map(|c| c.name.clone()).collect();
    let spec = fleet::SweepSpec {
        name: "faults".to_string(),
        cc: vec![
            CcSpec::new(ProtocolKind::Hpcc, Variant::Default),
            CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf),
        ],
        workload: fleet::WorkloadAxis::Faults {
            mix: vec![distributions::FB_HADOOP.to_string()],
            loads: vec![0.5],
            cells: grid,
            full_scale: ctx.scale == Scale::Full,
        },
        ensemble: fleet::Ensemble::single(ctx.seed),
    };
    // Expansion order is grid cells outer, cc inner, so runs come back as
    // (baseline, treatment) pairs per grid cell.
    let mut runs = run_single_seed(&spec, ctx)
        .into_iter()
        .map(|r| r.into_fault().expect("fault sweep yields fault runs"));
    let results: Vec<(String, FaultResult, FaultResult)> = names
        .into_iter()
        .map(|name| {
            let b = runs.next().expect("two runs per fault-grid cell");
            let t = runs.next().expect("two runs per fault-grid cell");
            (name, b, t)
        })
        .collect();

    let mut out =
        String::from("== Fault sweep: FCT slowdown CDFs under loss and link flaps ==\n\n");
    let mut tbl = TextTable::new(vec![
        "cell", "variant", "offered", "done", "p50", "p90", "p99", "p99.9", "outcome",
    ]);
    for (name, b, t) in &results {
        for r in [b, t] {
            let mut v: Vec<f64> = r.raw.iter().map(|&(_, _, s)| s).collect();
            v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            // Interpolating, like the sweep reports, so `--faults` and `--sweep
            // paper-faults` agree; a cell that completed nothing has no tail.
            let pct = |p: f64| match v.as_slice() {
                [] => "-".to_string(),
                sorted => f3(metrics::percentile_sorted(sorted, p)),
            };
            tbl.row(vec![
                name.clone(),
                r.label.clone(),
                r.n_flows.to_string(),
                r.completed.to_string(),
                pct(50.0),
                pct(90.0),
                pct(99.0),
                pct(99.9),
                r.outcome.name().to_string(),
            ]);
        }
    }
    out.push_str(&tbl.render());

    out.push_str("\nFault-subsystem counters:\n");
    let mut ftbl = TextTable::new(vec![
        "cell",
        "variant",
        "wire drops",
        "link-down drops",
        "reroutes",
        "rto fires",
    ]);
    for (name, b, t) in &results {
        for r in [b, t] {
            ftbl.row(vec![
                name.clone(),
                r.label.clone(),
                r.faults.wire_drops.to_string(),
                r.faults.link_down_drops.to_string(),
                r.faults.reroutes.to_string(),
                r.faults.rto_fires.to_string(),
            ]);
        }
    }
    out.push_str(&ftbl.render());

    out.push_str("\nPaired per-flow comparison (baseline -> VAI+SF):\n");
    for (name, b, t) in &results {
        let c = fairsim::PairedComparison::compute(&b.raw, &t.raw, LONG_FLOW_BYTES);
        out.push_str(&format!(
            "  {name:<18} {} paired flows; long flows (> {}): {:.0}% improved, \
             geomean speedup {:.2}x\n",
            c.n,
            fmt_size(LONG_FLOW_BYTES),
            c.long_frac_improved * 100.0,
            c.long_geomean_speedup,
        ));
    }
    out
}

/// Ablation: VAI alone vs SF alone vs both (16-1 incast, HPCC).
pub fn ablation_mechanisms(ctx: &FigureCtx) -> String {
    let specs = [
        CcSpec::new(ProtocolKind::Hpcc, Variant::Default),
        CcSpec::new(ProtocolKind::Hpcc, Variant::Vai),
        CcSpec::new(ProtocolKind::Hpcc, Variant::Sf),
        CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf),
    ];
    let results = run_incasts(&specs, 16, ctx);
    render_jain_queue(
        "Ablation: VAI / SF / VAI+SF, 16-1 incast, HPCC",
        &results,
        25,
    )
}

/// Run the paper's staggered incast under HPCC VAI+SF with `tweak`
/// applied to every flow's config — for ablations of parameters the
/// `Variant` enum does not expose. Same scenario, same pipeline and same
/// [`IncastResult`] as the stock runs; only the per-flow CC differs.
fn run_incast_tweaked(
    senders: usize,
    ctx: &FigureCtx,
    label: &str,
    tweak: impl Fn(&mut cc_hpcc::HpccConfig),
) -> IncastResult {
    let spec = CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf);
    let sc = IncastScenario::paper(senders, spec, ctx.seed);
    let mut res = sc.run_with_cc(&ctx.run_ctx(), &|env, flow_seed| {
        let mut cfg = cc_hpcc::HpccConfig::vai_sf(env.base_rtt, env.line_rate, env.min_bdp);
        tweak(&mut cfg);
        Box::new(cc_hpcc::Hpcc::new(cfg, dcsim::DetRng::new(flow_seed)))
    });
    res.label = label.to_string();
    if let Some(tracer) = &res.trace {
        write_trace_artifacts(ctx, label, tracer);
    }
    res
}

/// Ablation: Sampling Frequency cadence sweep (s in {5, 15, 30, 60, 120}).
pub fn ablation_sf(ctx: &FigureCtx) -> String {
    let mut out = String::from("== Ablation: SF cadence sweep, 16-1 incast, HPCC VAI+SF ==\n\n");
    let mut tbl = TextTable::new(vec![
        "s (ACKs)",
        "converge@0.9(us)",
        "peak queue(KB)",
        "finish spread(us)",
    ]);
    for s in [5u32, 15, 30, 60, 120] {
        let res = run_incast_tweaked(16, ctx, &format!("s={s}"), |cfg| {
            cfg.sf = Some(faircc::SfConfig {
                acks_per_decrease: s,
            });
        });
        tbl.row(vec![
            format!("{s}"),
            res.convergence_time(0.9)
                .map(|t| format!("{t:.0}"))
                .unwrap_or_else(|| "never".into()),
            format!("{:.1}", res.peak_queue() as f64 / 1e3),
            format!("{:.0}", res.finish_spread_us()),
        ]);
    }
    out.push_str(&tbl.render());
    out
}

/// Ablation: the VAI dampener (paper Section IV-A). Disabling it lets the
/// elevated AI feed back into fresh congestion during a 96-1 incast; the
/// dampener bounds queues at equal fairness.
pub fn ablation_dampener(ctx: &FigureCtx) -> String {
    let mut out = String::from("== Ablation: VAI dampener on/off, 96-1 incast, HPCC VAI+SF ==\n\n");
    let mut tbl = TextTable::new(vec![
        "dampener",
        "peak queue(KB)",
        "mean queue(KB)",
        "finish spread(us)",
        "all finished",
    ]);
    for (label, constant) in [("enabled (8)", 8.0f64), ("disabled", f64::INFINITY)] {
        let res = run_incast_tweaked(96, ctx, label, |cfg| {
            if let Some(vai) = &mut cfg.vai {
                // An infinite constant makes the divisor 1 regardless of
                // the dampener value: the feedback brake is off.
                vai.dampener_constant = constant;
            }
        });
        tbl.row(vec![
            label.to_string(),
            format!("{:.1}", res.peak_queue() as f64 / 1e3),
            format!("{:.1}", res.mean_queue() / 1e3),
            format!("{:.0}", res.finish_spread_us()),
            res.all_finished.to_string(),
        ]);
    }
    out.push_str(&tbl.render());
    out.push_str(
        "\nWithout the dampener, Variable AI's extra additive increase keeps\n\
         regenerating the very congestion that mints its tokens.\n",
    );
    out
}

/// Ablation: Timely-style hyper AI on Swift (the paper's future-work
/// suggestion for Swift's Hadoop median slowdown: "Swift may benefit
/// from a hyper additive increase setting like in Timely, which can
/// help grab available bandwidth").
pub fn ablation_hyper_ai(ctx: &FigureCtx) -> String {
    let hai = CcOptions::default().hyper_ai();
    let specs = [
        CcSpec::new(ProtocolKind::Swift, Variant::Default),
        CcSpec::new(ProtocolKind::Swift, Variant::Default).with_options(hai),
        CcSpec::new(ProtocolKind::Swift, Variant::VaiSf),
        CcSpec::new(ProtocolKind::Swift, Variant::VaiSf).with_options(hai),
    ];
    let results = run_datacenters(&specs, &[distributions::FB_HADOOP], ctx);
    let mut out = render_slowdown(
        "Ablation: Swift hyper-AI (Timely-style), Hadoop traffic, median",
        &results,
        true,
        15,
    );
    out.push_str(
        "\nThe paper conjectures hyper AI repairs Swift's Hadoop median by\n\
         grabbing freed bandwidth faster after congestion clears.\n",
    );
    out
}

/// Ablation: mechanism generality — Variable AI + Sampling Frequency on
/// Timely, a third sender-side protocol neither evaluated in the paper
/// nor sharing HPCC's or Swift's signal (RTT *gradient*). The paper
/// claims the mechanisms are "broadly applicable to other sender
/// reaction-based protocols"; this checks that claim.
pub fn ablation_timely(ctx: &FigureCtx) -> String {
    let specs = [
        CcSpec::new(ProtocolKind::Timely, Variant::Default),
        CcSpec::new(ProtocolKind::Timely, Variant::Sf),
        CcSpec::new(ProtocolKind::Timely, Variant::VaiSf),
    ];
    let results = run_incasts(&specs, 16, ctx);
    render_jain_queue(
        "Ablation: VAI+SF generality on Timely, 16-1 incast",
        &results,
        25,
    )
}

/// Ablation: permutation traffic — the classic fabric-fairness stressor.
///
/// Every host sends one large flow to a distinct destination (no incast);
/// on a 1:1 fabric nothing would congest, so this uses an oversubscribed
/// fat-tree (fabric links at host speed) where ECMP collisions create
/// unequal shares. Convergence to fairness then decides how long the
/// collided flows lag the clean ones.
pub fn ablation_permutation(ctx: &FigureCtx) -> String {
    use dcsim::Bytes;
    let fat_tree = FatTreeConfig {
        // Oversubscribed: fabric at host speed.
        fabric_rate: dcsim::BitRate::from_gbps(100),
        ..FatTreeConfig::reduced()
    };
    let arrivals = workloads::permutation(
        fat_tree.num_hosts(),
        Bytes::from_mb(4),
        Nanos::ZERO,
        ctx.seed ^ 0xBEEF,
    );
    let mut out =
        String::from("== Ablation: permutation traffic on an oversubscribed fat-tree ==\n\n");
    let mut tbl = TextTable::new(vec![
        "variant",
        "finish spread(us)",
        "worst slowdown",
        "median slowdown",
        "all finished",
    ]);
    for (kind, variant) in [
        (ProtocolKind::Hpcc, Variant::Default),
        (ProtocolKind::Hpcc, Variant::VaiSf),
        (ProtocolKind::Swift, Variant::Default),
        (ProtocolKind::Swift, Variant::VaiSf),
    ] {
        let res = fairsim::TraceScenario {
            fat_tree,
            arrivals: arrivals.clone(),
            cc: CcSpec::new(kind, variant),
            deadline: Nanos::from_millis(50),
            sample_interval: None,
        }
        .run_with(&ctx.run_ctx());
        if let Some(tracer) = &res.trace {
            write_trace_artifacts(ctx, &res.label, tracer);
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
    out.push_str(&tbl.render());
    out
}

/// Ablation (negative control): Sampling Frequency applied to *increases*
/// as well as decreases — the design the paper explicitly rejects because
/// high-rate flows would then also increase more often. Expect fairness
/// to regress relative to decrease-only SF.
pub fn ablation_sf_increases(ctx: &FigureCtx) -> String {
    let mut out = String::from(
        "== Ablation (negative control): SF gating increases too, 16-1 incast, HPCC ==\n\n",
    );
    let mut tbl = TextTable::new(vec![
        "variant",
        "converge@0.9(us)",
        "unfairness integral",
        "finish spread(us)",
    ]);
    for (label, on_increases) in [("SF decreases only (paper)", false), ("SF both ways", true)] {
        let res = run_incast_tweaked(16, ctx, label, |cfg| cfg.sf_on_increases = on_increases);
        tbl.row(vec![
            label.to_string(),
            res.convergence_time(0.9)
                .map(|t| format!("{t:.0}"))
                .unwrap_or_else(|| "never".into()),
            format!("{:.0}", res.unfairness_integral()),
            format!("{:.0}", res.finish_spread_us()),
        ]);
    }
    out.push_str(&tbl.render());
    out.push_str(
        "\nThe paper's rule — SF must gate decreases only — holds: letting\n\
         high-rate flows also *increase* more often cancels the benefit.\n",
    );
    out
}

/// Ablation: incast-degree sweep — how the convergence benefit scales
/// with the number of joining senders (8 to 96).
pub fn ablation_degree(ctx: &FigureCtx) -> String {
    let mut out = String::from("== Ablation: incast-degree sweep, HPCC default vs VAI SF ==\n\n");
    let mut tbl = TextTable::new(vec![
        "senders",
        "spread default(us)",
        "spread VAI SF(us)",
        "improvement",
    ]);
    let degrees = vec![8usize, 16, 32, 64, 96];
    let spec = fleet::SweepSpec {
        name: "ablation-degree".to_string(),
        cc: vec![
            CcSpec::new(ProtocolKind::Hpcc, Variant::Default),
            CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf),
        ],
        workload: fleet::WorkloadAxis::Incast {
            degrees: degrees.clone(),
        },
        ensemble: fleet::Ensemble::single(ctx.seed),
    };
    // One multi-degree sweep; cells come back (default, VAI SF) per degree.
    let results: Vec<IncastResult> = run_single_seed(&spec, ctx)
        .into_iter()
        .map(|r| r.into_incast().expect("incast sweep yields incast runs"))
        .collect();
    for (senders, pair) in degrees.iter().zip(results.chunks_exact(2)) {
        let d = pair[0].finish_spread_us();
        let v = pair[1].finish_spread_us();
        tbl.row(vec![
            format!("{senders}"),
            format!("{d:.0}"),
            format!("{v:.0}"),
            format!("{:.2}x", d / v.max(1.0)),
        ]);
    }
    out.push_str(&tbl.render());
    out
}

/// Ablation: PFC headroom — verify that with PFC enabled at realistic
/// watermarks, no experiment ever pauses (queues stay far below XOFF).
pub fn ablation_pfc(ctx: &FigureCtx) -> String {
    let mut out = String::from("== Ablation: PFC headroom, 16-1 incast ==\n\n");
    let mut tbl = TextTable::new(vec!["variant", "peak queue(KB)", "PFC XOFF(KB)", "margin"]);
    let xoff = netsim::pfc::PfcConfig::default_100g().xoff;
    let specs = [
        CcSpec::new(ProtocolKind::Hpcc, Variant::Default),
        CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf),
        CcSpec::new(ProtocolKind::Swift, Variant::Default),
        CcSpec::new(ProtocolKind::Swift, Variant::VaiSf),
    ];
    for res in run_incasts(&specs, 16, ctx) {
        let peak = res.peak_queue();
        tbl.row(vec![
            res.label.clone(),
            format!("{:.1}", peak as f64 / 1e3),
            format!("{:.0}", xoff.as_f64() / 1e3),
            format!("{:.1}x", xoff.as_f64() / peak.max(1) as f64),
        ]);
    }
    out.push_str(&tbl.render());
    out.push_str("\nAll margins > 1x mean PFC never engages on the paper's scenarios.\n");
    out
}

/// Run a figure by name and emit machine-readable JSON instead of text
/// tables. Covered: the incast figures (per-variant [`fairsim::IncastSummary`]),
/// the datacenter figures (per-variant [`fairsim::DatacenterSummary`]),
/// and fig4 (the fluid-model samples). `None` for unknown names or
/// figures with no JSON form.
pub fn run_figure_json(name: &str, ctx: &FigureCtx) -> Option<String> {
    use fairsim::export::{to_json, DatacenterSummary, IncastSummary};
    let incast = |specs: &[CcSpec], senders: usize| {
        let summaries: Vec<IncastSummary> = run_incasts(specs, senders, ctx)
            .iter()
            .map(IncastSummary::from)
            .collect();
        to_json(&summaries)
    };
    let dc = |workloads: &[&str]| {
        let summaries: Vec<DatacenterSummary> =
            run_datacenters(&datacenter_specs(), workloads, ctx)
                .iter()
                .map(DatacenterSummary::from)
                .collect();
        to_json(&summaries)
    };
    Some(match name {
        "fig1" | "fig2" | "fig3" => {
            let mut all = Vec::new();
            for kind in [ProtocolKind::Hpcc, ProtocolKind::Swift] {
                all.extend(
                    run_incasts(&incast_specs(kind, false), 16, ctx)
                        .iter()
                        .map(fairsim::IncastSummary::from),
                );
            }
            fairsim::export::to_json(&all)
        }
        "fig5" => incast(&incast_specs(ProtocolKind::Hpcc, true), 16),
        "fig6" => incast(&incast_specs(ProtocolKind::Swift, true), 16),
        "fig8" => incast(
            &[
                CcSpec::new(ProtocolKind::Hpcc, Variant::Default),
                CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf),
            ],
            16,
        ),
        "fig9" => incast(
            &[
                CcSpec::new(ProtocolKind::Swift, Variant::Default),
                CcSpec::new(ProtocolKind::Swift, Variant::VaiSf),
            ],
            16,
        ),
        "fig4" => {
            let p = fluid::FluidParams::figure4();
            let samples = fluid::integrate(&p, 600_000.0, 5.0, 120);
            let rows: Vec<minijson::Value> = samples
                .iter()
                .map(|s| minijson::arr([s.t_ns, s.gap_rtt(), s.gap_sf(), s.fairness_difference()]))
                .collect();
            minijson::Value::Arr(rows).pretty()
        }
        "fig10" | "fig12" => dc(&[distributions::FB_HADOOP]),
        "fig11" | "fig13" => dc(&[distributions::WEBSEARCH, distributions::ALI_STORAGE]),
        _ => return None,
    })
}

/// Run a figure by name; `None` if unknown.
pub fn run_figure(name: &str, ctx: &FigureCtx) -> Option<String> {
    Some(match name {
        "fig1" => fig1(ctx),
        "fig2" => fig2(ctx),
        "fig3" => fig3(ctx),
        "fig4" => fig4(),
        "fig5" => fig5(ctx),
        "fig6" => fig6(ctx),
        "fig8" => fig8(ctx),
        "fig9" => fig9(ctx),
        "fig10" => fig10(ctx),
        "fig11" => fig11(ctx),
        "fig12" => fig12(ctx),
        "fig13" => fig13(ctx),
        "ablation-mechanisms" => ablation_mechanisms(ctx),
        "ablation-sf" => ablation_sf(ctx),
        "ablation-dampener" => ablation_dampener(ctx),
        "ablation-hyper-ai" => ablation_hyper_ai(ctx),
        "ablation-timely" => ablation_timely(ctx),
        "ablation-permutation" => ablation_permutation(ctx),
        "ablation-sf-increases" => ablation_sf_increases(ctx),
        "ablation-degree" => ablation_degree(ctx),
        "ablation-pfc" => ablation_pfc(ctx),
        "faults" => faults(ctx),
        _ => return None,
    })
}

/// Every figure name, in paper order.
pub const ALL_FIGURES: &[&str] = &[
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "ablation-mechanisms",
    "ablation-sf",
    "ablation-dampener",
    "ablation-hyper-ai",
    "ablation-timely",
    "ablation-permutation",
    "ablation-sf-increases",
    "ablation-degree",
    "ablation-pfc",
    "faults",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_is_cheap_and_correct() {
        let s = fig4();
        assert!(s.contains("SF converges faster"));
        assert!(s.contains("true"));
    }

    #[test]
    fn run_figure_rejects_unknown() {
        let ctx = FigureCtx::new(Scale::Reduced, 1);
        assert!(run_figure("fig7", &ctx).is_none()); // topology diagram
        assert!(run_figure("fig4", &ctx).is_some());
    }

    /// The cells after `label` in the table row that starts with it.
    fn row<'a>(table: &'a str, label: &str) -> Vec<&'a str> {
        let line = table
            .lines()
            .map(str::trim_start)
            .find(|l| l.starts_with(label))
            .unwrap_or_else(|| panic!("no row {label:?} in:\n{table}"));
        line[label.len()..].split_whitespace().collect()
    }

    /// One convergence definition: the ablation rows that run the paper's
    /// own HPCC VAI+SF parameters (through `run_with_cc`) report what
    /// fig5's 16-1 "HPCC VAI SF" summary row reports for the same run.
    #[test]
    fn ablation_paper_rows_agree_with_fig5() {
        let ctx = FigureCtx::new(Scale::Reduced, DEFAULT_SEED);
        let vai_sf = CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf);
        let fig5 = render_jain_queue("", &run_incasts(&[vai_sf], 16, &ctx), 30);
        // converge@0.9, unfairness integral, peak queue, mean queue,
        // finish spread, all finished
        let want = row(&fig5, "HPCC VAI SF");

        let sf_increases = ablation_sf_increases(&ctx);
        let paper = row(&sf_increases, "SF decreases only (paper)");
        assert_eq!(paper, [want[0], want[1], want[4]], "{sf_increases}");

        let sf = ablation_sf(&ctx);
        assert_eq!(row(&sf, "30"), [want[0], want[2], want[4]], "{sf}");
    }

    #[test]
    fn fig4_json_is_valid() {
        let ctx = FigureCtx::new(Scale::Reduced, 1);
        let json = run_figure_json("fig4", &ctx).unwrap();
        let v = minijson::Value::parse(&json).unwrap();
        assert!(v.as_array().unwrap().len() > 100);
        assert!(run_figure_json("ablation-pfc", &ctx).is_none());
    }
}
