//! The renderers a [`crate::FIGURES`] panel names: the paper's three
//! figure shapes (Jain/queue series, start-vs-finish scatter, FCT
//! slowdown by flow size) and the plain tables of the degree, PFC and
//! fault rows. Each returns the text under the panel's `== title ==`
//! line.

use fairsim::render::{f3, fmt_size, TextTable};
use fairsim::scenarios::LONG_FLOW_BYTES;
use fairsim::series::thin;
use fairsim::{DatacenterResult, FaultResult, IncastResult, PairedComparison};
use fleet::RunOutput;

/// The incast results of a panel's runs.
pub(crate) fn incasts(runs: &[RunOutput]) -> Vec<&IncastResult> {
    runs.iter()
        .map(|r| r.as_incast().expect("an incast panel yields incast runs"))
        .collect()
}

/// The datacenter results of a panel's runs.
pub(crate) fn datacenters(runs: &[RunOutput]) -> Vec<&DatacenterResult> {
    runs.iter()
        .map(|r| {
            r.as_datacenter()
                .expect("a datacenter panel yields dc runs")
        })
        .collect()
}

/// A queue depth in bytes, as the KB the paper's axes use.
fn kb(bytes: f64) -> String {
    format!("{:.1}", bytes / 1e3)
}

/// A per-run summary column: its header and its cell for one incast run.
pub(crate) type Col = (&'static str, fn(&IncastResult) -> String);

pub(crate) const CONVERGE: Col = ("converge@0.9(us)", |r| {
    r.convergence_time(0.9)
        .map(|t| format!("{t:.0}"))
        .unwrap_or_else(|| "never".into())
});
pub(crate) const UNFAIRNESS: Col = ("unfairness integral", |r| {
    format!("{:.0}", r.unfairness_integral())
});
pub(crate) const PEAK_QUEUE: Col = ("peak queue(KB)", |r| kb(r.peak_queue() as f64));
pub(crate) const MEAN_QUEUE: Col = ("mean queue(KB)", |r| kb(r.mean_queue()));
pub(crate) const FINISH_SPREAD: Col = ("finish spread(us)", |r| {
    format!("{:.0}", r.finish_spread_us())
});
pub(crate) const ALL_FINISHED: Col = ("all finished", |r| r.all_finished.to_string());

/// One row per `(name, run)`: `name` under the `first` header, then the
/// chosen summary columns. Every incast summary in the harness goes
/// through here, so a column means the same thing in every figure.
pub(crate) fn summary_table(first: &str, cols: &[Col], rows: &[(&str, &IncastResult)]) -> String {
    let mut header = vec![first];
    header.extend(cols.iter().map(|c| c.0));
    let mut tbl = TextTable::new(header);
    for &(name, r) in rows {
        let mut cells = vec![name.to_string()];
        cells.extend(cols.iter().map(|c| c.1(r)));
        tbl.row(cells);
    }
    tbl.render()
}

/// One time series per variant, aligned on `rows` evenly thinned sample
/// times of the first variant; every other variant contributes its sample
/// nearest in time.
fn series_table<T: Copy>(
    column: &str,
    results: &[&IncastResult],
    rows: usize,
    series: fn(&IncastResult) -> &[(f64, T)],
    cell: fn(T) -> String,
) -> String {
    let mut header = vec!["t(us)".to_string()];
    header.extend(results.iter().map(|r| format!("{column}[{}]", r.label)));
    let mut tbl = TextTable::new(header);
    for (t, _) in thin(series(results[0]), rows) {
        let mut cells = vec![format!("{t:.0}")];
        for r in results {
            let nearest = series(r).iter().min_by(|a, b| {
                let (da, db) = ((a.0 - t).abs(), (b.0 - t).abs());
                da.partial_cmp(&db).expect("no NaN")
            });
            cells.push(nearest.map_or_else(|| "-".into(), |&(_, v)| cell(v)));
        }
        tbl.row(cells);
    }
    tbl.render()
}

/// Jain-index and queue-depth series plus the per-variant summary.
pub(crate) fn jain_queue(results: &[&IncastResult], rows: usize) -> String {
    let rows_by_label: Vec<(&str, &IncastResult)> =
        results.iter().map(|r| (r.label.as_str(), *r)).collect();
    format!(
        "{}\n{}\nSummary (per variant):\n{}",
        series_table("jain", results, rows, |r| &r.jain, f3),
        series_table("queueKB", results, rows, |r| &r.queue, |q| kb(q as f64)),
        summary_table(
            "variant",
            &[
                CONVERGE,
                UNFAIRNESS,
                PEAK_QUEUE,
                MEAN_QUEUE,
                FINISH_SPREAD,
                ALL_FINISHED
            ],
            &rows_by_label,
        ),
    )
}

/// The start-vs-finish scatter as a table, plus each variant's spread.
pub(crate) fn start_finish(results: &[&IncastResult]) -> String {
    let mut header = vec!["flow".to_string(), "start(us)".to_string()];
    header.extend(results.iter().map(|r| format!("finish(us)[{}]", r.label)));
    let mut tbl = TextTable::new(header);
    let scatters: Vec<Vec<(f64, f64)>> = results.iter().map(|r| r.start_finish()).collect();
    for (i, &(start, _)) in scatters[0].iter().enumerate() {
        let mut cells = vec![format!("{i}"), format!("{start:.0}")];
        for sf in &scatters {
            cells.push(
                sf.get(i)
                    .map_or_else(|| "-".into(), |&(_, f)| format!("{f:.0}")),
            );
        }
        tbl.row(cells);
    }
    let mut out = tbl.render();
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

/// The "N paired flows; long flows: X% improved" clause of a paired
/// per-flow comparison: variants at the same seed see the same flow list,
/// so baseline-vs-treatment pairs are directly comparable.
fn paired(base: &[(u32, u64, f64)], treatment: &[(u32, u64, f64)]) -> String {
    let c = PairedComparison::compute(base, treatment, LONG_FLOW_BYTES);
    format!(
        "{} paired flows; long flows (> {}): {:.0}% improved, geomean speedup {:.2}x",
        c.n,
        fmt_size(LONG_FLOW_BYTES),
        c.long_frac_improved * 100.0,
        c.long_geomean_speedup,
    )
}

/// FCT slowdown (99.9th percentile, or the median) by flow-size bin.
pub(crate) fn slowdown(results: &[&DatacenterResult], median: bool, rows: usize) -> String {
    let stat = if median { "median" } else { "p99.9" };
    let pick = |p: &metrics::SlowdownPoint| if median { p.median } else { p.tail };
    let mut out = String::new();
    for r in results {
        out.push_str(&format!(
            "  {:<16} {} flows offered, {} completed\n",
            r.label, r.n_flows, r.completed
        ));
    }
    out.push('\n');
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
            let p = r.table.points.get(i);
            cells.push(p.map_or_else(|| "-".into(), |p| f3(pick(p))));
        }
        tbl.row(cells);
    }
    out.push_str(&tbl.render());

    if results.len() >= 2 {
        out.push_str("\nPaired per-flow comparison (baseline -> treatment):\n");
        for pair in results.chunks_exact(2) {
            out.push_str(&format!(
                "  {} -> {}: {}\n",
                pair[0].label,
                pair[1].label,
                paired(&pair[0].raw, &pair[1].raw)
            ));
        }
    }

    out.push_str(&format!(
        "\nLong-flow (>{}) {stat} slowdown summary:\n",
        fmt_size(LONG_FLOW_BYTES)
    ));
    for r in results {
        let long = r.table.points.iter().filter(|p| p.size > LONG_FLOW_BYTES);
        let vals: Vec<f64> = long.map(pick).collect();
        let mean = if vals.is_empty() {
            f64::NAN
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        out.push_str(&format!("  {:<16} mean {stat} = {mean:.1}x\n", r.label));
    }
    out
}

/// `ablation-degree`: finish spread of the (default, VAI SF) pair at each
/// degree of [`crate::DEGREES`].
pub(crate) fn degree_table(runs: &[RunOutput]) -> String {
    let mut tbl = TextTable::new(vec![
        "senders",
        "spread default(us)",
        "spread VAI SF(us)",
        "improvement",
    ]);
    for (senders, pair) in crate::DEGREES.iter().zip(incasts(runs).chunks_exact(2)) {
        let d = pair[0].finish_spread_us();
        let v = pair[1].finish_spread_us();
        tbl.row(vec![
            format!("{senders}"),
            format!("{d:.0}"),
            format!("{v:.0}"),
            format!("{:.2}x", d / v.max(1.0)),
        ]);
    }
    tbl.render()
}

/// `ablation-pfc`: each variant's peak queue against the PFC XOFF
/// watermark it would have to reach for a pause to fire.
pub(crate) fn pfc_table(runs: &[RunOutput]) -> String {
    let xoff = netsim::pfc::PfcConfig::default_100g().xoff;
    let mut tbl = TextTable::new(vec!["variant", "peak queue(KB)", "PFC XOFF(KB)", "margin"]);
    for res in incasts(runs) {
        let peak = res.peak_queue();
        tbl.row(vec![
            res.label.clone(),
            PEAK_QUEUE.1(res),
            format!("{:.0}", xoff.as_f64() / 1e3),
            format!("{:.1}x", xoff.as_f64() / peak.max(1) as f64),
        ]);
    }
    format!(
        "{}\nAll margins > 1x mean PFC never engages on the paper's scenarios.\n",
        tbl.render()
    )
}

/// `ablation-hyper-ai`: the median slowdown view, and the conjecture the
/// row tests.
pub(crate) fn hyper_ai_table(runs: &[RunOutput]) -> String {
    format!(
        "{}\nThe paper conjectures hyper AI repairs Swift's Hadoop median by\n\
         grabbing freed bandwidth faster after congestion clears.\n",
        slowdown(&datacenters(runs), true, 15)
    )
}

/// `faults`: slowdown percentiles, fault-subsystem counters and the paired
/// comparison for the (baseline, VAI+SF) pair of every cell of
/// [`fleet::FaultCell::paper_grid`] — and every run's outcome, so a cell
/// that wedged shows.
pub(crate) fn fault_tables(runs: &[RunOutput]) -> String {
    let results: Vec<&FaultResult> = runs
        .iter()
        .map(|r| r.as_fault().expect("the fault panel yields fault runs"))
        .collect();
    // Expansion order is grid cells outer, cc inner.
    let grid = fleet::FaultCell::paper_grid();
    let cells = || grid.iter().zip(results.chunks_exact(2));

    let mut tbl = TextTable::new(vec![
        "cell", "variant", "offered", "done", "p50", "p90", "p99", "p99.9", "outcome",
    ]);
    let mut counters = TextTable::new(vec![
        "cell",
        "variant",
        "wire drops",
        "link-down drops",
        "reroutes",
        "rto fires",
    ]);
    for (cell, pair) in cells() {
        for r in pair {
            let mut v: Vec<f64> = r.raw.iter().map(|&(_, _, s)| s).collect();
            v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            // Interpolating, like the sweep reports, so `--faults` and `--sweep
            // paper-faults` agree; a cell that completed nothing has no tail.
            let pct = |p: f64| match v.as_slice() {
                [] => "-".to_string(),
                sorted => f3(metrics::percentile_sorted(sorted, p)),
            };
            tbl.row(vec![
                cell.name.clone(),
                r.label.clone(),
                r.n_flows.to_string(),
                r.completed.to_string(),
                pct(50.0),
                pct(90.0),
                pct(99.0),
                pct(99.9),
                r.outcome.name().to_string(),
            ]);
            counters.row(vec![
                cell.name.clone(),
                r.label.clone(),
                r.faults.wire_drops.to_string(),
                r.faults.link_down_drops.to_string(),
                r.faults.reroutes.to_string(),
                r.faults.rto_fires.to_string(),
            ]);
        }
    }
    let mut out = format!(
        "{}\nFault-subsystem counters:\n{}\nPaired per-flow comparison (baseline -> VAI+SF):\n",
        tbl.render(),
        counters.render()
    );
    for (cell, pair) in cells() {
        out.push_str(&format!(
            "  {:<18} {}\n",
            cell.name,
            paired(&pair[0].raw, &pair[1].raw)
        ));
    }
    out
}
