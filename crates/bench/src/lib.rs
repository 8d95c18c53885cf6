//! Figure-regeneration library: [`FIGURES`] is the one place a figure is
//! defined, and everything `repro` prints — a figure's text, its `--json`,
//! `repro list`, `repro all`, the usage line — is read from its row.
//!
//! A row is a name, a caption, and what to run: a list of panels, each a
//! single-seed `fleet` sweep (protocol list x workload) rendered by one of
//! the [`views`], or — for the five rows that are not sweeps — one
//! function in [`custom`]. A panel's JSON is derived from the same runs
//! its text renders.
//!
//! [`Scale::Reduced`] keeps the paper's incast microbenchmarks at full
//! scale (they are cheap) but shrinks the fat-tree runs to laptop size;
//! [`Scale::Full`] switches them to the paper's 320 hosts and 50 ms.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod custom;
mod views;

use fairsim::export::{datacenter_value, incast_value};
use fairsim::ProtocolKind::{Hpcc, Swift, Timely};
use fairsim::{CcOptions, CcSpec, ProtocolKind, Variant};
use fleet::{Ensemble, FaultCell, RunOutput, SweepSpec, WorkloadAxis};
use minijson::Value;
use workloads::distributions::{ALI_STORAGE, FB_HADOOP, WEBSEARCH};

/// Experiment scale for the fat-tree figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 32-host fat-tree, 2 ms of arrivals (default; seconds per figure).
    Reduced,
    /// The paper's 320-host fat-tree, 50 ms of arrivals. Never run end to
    /// end here; `benchmark/README.md` extrapolates from its measured
    /// 320-host workload to about 8 minutes and 1.2 GB per variant.
    Full,
}

/// Default seed used by the harness (override with `--seed`).
pub const DEFAULT_SEED: u64 = 42;

/// Everything a figure needs besides its own row: the fat-tree scale, the
/// root seed, and how every run executes.
#[derive(Debug, Clone)]
pub struct FigureCtx {
    /// Fat-tree experiment scale.
    pub scale: Scale,
    /// Root seed (override with `--seed`).
    pub seed: u64,
    /// Worker pool and tracing — the same config `repro --sweep` runs
    /// under.
    pub sweep: fleet::SweepConfig,
}

impl FigureCtx {
    /// A context with the given scale and seed and tracing off.
    pub fn new(scale: Scale, seed: u64) -> Self {
        FigureCtx {
            scale,
            seed,
            sweep: fleet::SweepConfig::new(),
        }
    }
}

/// What a figure printed: its text, and its JSON when it has one.
#[derive(Debug)]
pub struct Rendered {
    /// The text block `repro <figure>` prints.
    pub text: String,
    /// What `repro <figure> --json` prints: per-run summaries of the same
    /// runs, panel after panel. `None` when [`Figure::has_json`] is false.
    pub json: Option<Value>,
}

/// One row of [`FIGURES`].
#[derive(Debug)]
pub struct Figure {
    /// The name `repro` takes.
    pub name: &'static str,
    /// One line on what the figure shows (`repro list`).
    pub caption: &'static str,
    body: Body,
}

#[derive(Debug)]
enum Body {
    /// One single-seed sweep per panel.
    Panels(&'static [Panel]),
    /// Not a sweep: `text` runs and renders everything under `title`, given
    /// the context and the figure's name (its trace artifacts' prefix).
    Custom {
        title: &'static str,
        text: fn(&FigureCtx, &str) -> String,
        json: Option<fn() -> Value>,
    },
}

/// One sweep of a figure and how its runs are shown.
#[derive(Debug)]
struct Panel {
    title: &'static str,
    cc: &'static [CcSpec],
    workload: Workload,
    view: View,
}

/// A panel's workload axis, at offered load 0.5 where that applies.
#[derive(Debug)]
enum Workload {
    /// Staggered incast at each sender count.
    Incast(&'static [usize]),
    /// Poisson arrivals from an even mix of these flow-size distributions.
    Datacenter(&'static [&'static str]),
    /// The same under every cell of [`FaultCell::paper_grid`].
    Faults(&'static [&'static str]),
}

/// How a panel's runs are rendered (see [`views`]).
#[derive(Debug)]
enum View {
    /// Jain-index and queue-depth series thinned to `rows`, plus summary.
    JainQueue { rows: usize },
    /// Start-vs-finish scatter.
    StartFinish,
    /// Tail (or median) FCT slowdown by flow size, thinned to `rows` bins.
    Slowdown { median: bool, rows: usize },
    /// A table specific to its row; has no JSON form.
    Table(fn(&[RunOutput]) -> String),
}

impl Panel {
    /// Run the panel's sweep at the context's seed and scale, one run per
    /// cell in expansion order (workload points outer, `cc` inner). Named
    /// after the figure, which prefixes the runs' trace artifacts.
    fn run(&self, figure: &str, ctx: &FigureCtx) -> Vec<RunOutput> {
        let names = |mix: &[&str]| mix.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let full_scale = ctx.scale == Scale::Full;
        let spec = SweepSpec {
            name: figure.to_string(),
            cc: self.cc.to_vec(),
            workload: match self.workload {
                Workload::Incast(degrees) => WorkloadAxis::Incast {
                    degrees: degrees.to_vec(),
                },
                Workload::Datacenter(mix) => WorkloadAxis::Datacenter {
                    mixes: vec![names(mix)],
                    loads: vec![0.5],
                    full_scale,
                },
                Workload::Faults(mix) => WorkloadAxis::Faults {
                    mix: names(mix),
                    loads: vec![0.5],
                    cells: FaultCell::paper_grid(),
                    full_scale,
                },
            },
            ensemble: Ensemble::single(ctx.seed),
        };
        fleet::run_sweep(&spec, &ctx.sweep)
            .into_cells()
            .into_iter()
            .map(fleet::CellOutcome::into_only_run)
            .collect()
    }

    /// The panel's text under its title line, and its runs' JSON (none
    /// for a [`View::Table`]).
    fn render(&self, runs: &[RunOutput]) -> (String, Vec<Value>) {
        let incast_json = || views::incasts(runs).into_iter().map(incast_value).collect();
        let (body, json) = match self.view {
            View::JainQueue { rows } => (
                views::jain_queue(&views::incasts(runs), rows),
                incast_json(),
            ),
            View::StartFinish => (views::start_finish(&views::incasts(runs)), incast_json()),
            View::Slowdown { median, rows } => {
                let results = views::datacenters(runs);
                let json = results.iter().map(|r| datacenter_value(r)).collect();
                (views::slowdown(&results, median, rows), json)
            }
            View::Table(table) => (table(runs), Vec::new()),
        };
        (format!("== {} ==\n\n{body}", self.title), json)
    }
}

impl Figure {
    /// The row called `name`; the error is the line `repro` dies with.
    pub fn named(name: &str) -> Result<&'static Figure, String> {
        FIGURES.iter().find(|f| f.name == name).ok_or_else(|| {
            format!("unknown figure '{name}' (fig7 is the topology diagram; run `repro list`)")
        })
    }

    /// Whether `--json` has anything to print: every panel's view has a
    /// JSON form, or the custom row brings its own. Known without running.
    pub fn has_json(&self) -> bool {
        match self.body {
            Body::Panels(panels) => panels.iter().all(|p| !matches!(p.view, View::Table(_))),
            Body::Custom { json, .. } => json.is_some(),
        }
    }

    /// Run the figure and render its text and JSON from the same runs.
    pub fn run(&self, ctx: &FigureCtx) -> Rendered {
        match self.body {
            Body::Custom { title, text, json } => Rendered {
                text: format!("== {title} ==\n\n{}", text(ctx, self.name)),
                json: json.map(|json| json()),
            },
            Body::Panels(panels) => {
                // A figure of several panels sets a blank line after each.
                let gap = if panels.len() > 1 { "\n" } else { "" };
                let mut text = String::new();
                let mut json = Vec::new();
                for panel in panels {
                    let (panel_text, panel_json) = panel.render(&panel.run(self.name, ctx));
                    text.push_str(&panel_text);
                    text.push_str(gap);
                    json.extend(panel_json);
                }
                Rendered {
                    text,
                    json: self.has_json().then_some(Value::Arr(json)),
                }
            }
        }
    }
}

/// `N` variants of one protocol.
const fn specs<const N: usize>(kind: ProtocolKind, variants: [Variant; N]) -> [CcSpec; N] {
    let mut out = [CcSpec::new(kind, Variant::Default); N];
    let mut i = 0;
    while i < N {
        out[i] = CcSpec::new(kind, variants[i]);
        i += 1;
    }
    out
}

/// The baselines the paper's incast figures compare: stock parameters,
/// 1 Gbps AI, probabilistic feedback.
const BASELINES: [Variant; 3] = [Variant::Default, Variant::HighAi, Variant::Probabilistic];
/// The baselines plus the paper's mechanism.
const WITH_VAI_SF: [Variant; 4] = [
    Variant::Default,
    Variant::HighAi,
    Variant::Probabilistic,
    Variant::VaiSf,
];
/// Baseline vs treatment.
const PAIR: [Variant; 2] = [Variant::Default, Variant::VaiSf];
/// The four variants of Figures 10-13: both protocols, baseline vs
/// treatment, pairs adjacent.
const BOTH_PAIRS: &[CcSpec] = &[
    CcSpec::new(Hpcc, Variant::Default),
    CcSpec::new(Hpcc, Variant::VaiSf),
    CcSpec::new(Swift, Variant::Default),
    CcSpec::new(Swift, Variant::VaiSf),
];
const HYPER_AI: CcOptions = CcOptions { hyper_ai: true };

const INCAST_16: Workload = Workload::Incast(&[16]);
const INCAST_96: Workload = Workload::Incast(&[96]);
/// The sender counts of `ablation-degree`.
const DEGREES: &[usize] = &[8, 16, 32, 64, 96];
const HADOOP: Workload = Workload::Datacenter(&[FB_HADOOP]);
const WEB_STORAGE: Workload = Workload::Datacenter(&[WEBSEARCH, ALI_STORAGE]);

const JAIN_QUEUE: View = View::JainQueue { rows: 30 };
const TAIL_BY_SIZE: View = View::Slowdown {
    median: false,
    rows: 25,
};
const MEDIAN_BY_SIZE: View = View::Slowdown {
    median: true,
    rows: 25,
};

/// The figure `repro --faults` stands for.
pub const FAULTS: &str = "faults";

/// Every figure `repro` can run, in paper order (`repro list`, `repro
/// all`). fig7 is the topology diagram, reproduced as
/// `netsim::FatTreeConfig::paper()` and its unit tests.
pub static FIGURES: &[Figure] = &[
    Figure {
        name: "fig1",
        caption: "Jain index and queue depth, 16-1 incast, HPCC and Swift baselines",
        body: Body::Panels(&[
            Panel {
                title: "Fig 1(a,b): 16-1 incast, HPCC",
                cc: &specs(Hpcc, BASELINES),
                workload: INCAST_16,
                view: JAIN_QUEUE,
            },
            Panel {
                title: "Fig 1(c,d): 16-1 incast, Swift",
                cc: &specs(Swift, BASELINES),
                workload: INCAST_16,
                view: JAIN_QUEUE,
            },
        ]),
    },
    Figure {
        name: "fig2",
        caption: "start vs finish, 16-1 staggered incast, HPCC baselines",
        body: Body::Panels(&[Panel {
            title: "Fig 2: start vs finish, 16-1 incast, HPCC",
            cc: &specs(Hpcc, BASELINES),
            workload: INCAST_16,
            view: View::StartFinish,
        }]),
    },
    Figure {
        name: "fig3",
        caption: "start vs finish, 16-1 staggered incast, Swift baselines",
        body: Body::Panels(&[Panel {
            title: "Fig 3: start vs finish, 16-1 incast, Swift",
            cc: &specs(Swift, BASELINES),
            workload: INCAST_16,
            view: View::StartFinish,
        }]),
    },
    Figure {
        name: "fig4",
        caption: "the fluid-model fairness difference, per-RTT vs per-s-ACK decrease",
        body: Body::Custom {
            title: "Fig 4: fluid model, per-RTT vs Sampling Frequency MD",
            text: custom::fluid_model,
            json: Some(custom::fluid_model_json),
        },
    },
    Figure {
        name: "fig5",
        caption: "16-1 and 96-1 incast, HPCC baselines vs VAI SF",
        body: Body::Panels(&[
            Panel {
                title: "Fig 5(a,b): 16-1 incast, HPCC",
                cc: &specs(Hpcc, WITH_VAI_SF),
                workload: INCAST_16,
                view: JAIN_QUEUE,
            },
            Panel {
                title: "Fig 5(c,d): 96-1 incast, HPCC",
                cc: &specs(Hpcc, WITH_VAI_SF),
                workload: INCAST_96,
                view: JAIN_QUEUE,
            },
        ]),
    },
    Figure {
        name: "fig6",
        caption: "16-1 and 96-1 incast, Swift baselines vs VAI SF",
        body: Body::Panels(&[
            Panel {
                title: "Fig 6(a,b): 16-1 incast, Swift",
                cc: &specs(Swift, WITH_VAI_SF),
                workload: INCAST_16,
                view: JAIN_QUEUE,
            },
            Panel {
                title: "Fig 6(c,d): 96-1 incast, Swift",
                cc: &specs(Swift, WITH_VAI_SF),
                workload: INCAST_96,
                view: JAIN_QUEUE,
            },
        ]),
    },
    Figure {
        name: "fig8",
        caption: "start vs finish, 16-1 incast, HPCC default vs VAI SF",
        body: Body::Panels(&[Panel {
            title: "Fig 8: start vs finish, 16-1 incast, HPCC vs HPCC VAI SF",
            cc: &specs(Hpcc, PAIR),
            workload: INCAST_16,
            view: View::StartFinish,
        }]),
    },
    Figure {
        name: "fig9",
        caption: "start vs finish, 16-1 incast, Swift default vs VAI SF",
        body: Body::Panels(&[Panel {
            title: "Fig 9: start vs finish, 16-1 incast, Swift vs Swift VAI SF",
            cc: &specs(Swift, PAIR),
            workload: INCAST_16,
            view: View::StartFinish,
        }]),
    },
    Figure {
        name: "fig10",
        caption: "99.9% FCT slowdown vs flow size, Hadoop traffic",
        body: Body::Panels(&[Panel {
            title: "Fig 10: 99.9% FCT slowdown, Hadoop traffic",
            cc: BOTH_PAIRS,
            workload: HADOOP,
            view: TAIL_BY_SIZE,
        }]),
    },
    Figure {
        name: "fig11",
        caption: "99.9% FCT slowdown vs flow size, WebSearch + Alibaba storage mix",
        body: Body::Panels(&[Panel {
            title: "Fig 11: 99.9% FCT slowdown, WebSearch + Storage traffic",
            cc: BOTH_PAIRS,
            workload: WEB_STORAGE,
            view: TAIL_BY_SIZE,
        }]),
    },
    Figure {
        name: "fig12",
        caption: "median FCT slowdown vs flow size, Hadoop traffic",
        body: Body::Panels(&[Panel {
            title: "Fig 12: median FCT slowdown, Hadoop traffic",
            cc: BOTH_PAIRS,
            workload: HADOOP,
            view: MEDIAN_BY_SIZE,
        }]),
    },
    Figure {
        name: "fig13",
        caption: "median FCT slowdown vs flow size, WebSearch + Alibaba storage mix",
        body: Body::Panels(&[Panel {
            title: "Fig 13: median FCT slowdown, WebSearch + Storage traffic",
            cc: BOTH_PAIRS,
            workload: WEB_STORAGE,
            view: MEDIAN_BY_SIZE,
        }]),
    },
    Figure {
        name: "ablation-mechanisms",
        caption: "VAI alone vs SF alone vs both, 16-1 incast, HPCC",
        body: Body::Panels(&[Panel {
            title: "Ablation: VAI / SF / VAI+SF, 16-1 incast, HPCC",
            cc: &specs(
                Hpcc,
                [Variant::Default, Variant::Vai, Variant::Sf, Variant::VaiSf],
            ),
            workload: INCAST_16,
            view: View::JainQueue { rows: 25 },
        }]),
    },
    Figure {
        name: "ablation-sf",
        caption: "Sampling Frequency cadence sweep, s in {5, 15, 30, 60, 120} ACKs",
        body: Body::Custom {
            title: "Ablation: SF cadence sweep, 16-1 incast, HPCC VAI+SF",
            text: custom::sf_cadence,
            json: None,
        },
    },
    Figure {
        name: "ablation-dampener",
        caption: "the VAI dampener on/off under a 96-1 incast (paper Section IV-A)",
        body: Body::Custom {
            title: "Ablation: VAI dampener on/off, 96-1 incast, HPCC VAI+SF",
            text: custom::dampener,
            json: None,
        },
    },
    Figure {
        name: "ablation-hyper-ai",
        caption: "Timely-style hyper AI on Swift, the paper's future-work suggestion",
        body: Body::Panels(&[Panel {
            title: "Ablation: Swift hyper-AI (Timely-style), Hadoop traffic, median",
            cc: &[
                CcSpec::new(Swift, Variant::Default),
                CcSpec::new(Swift, Variant::Default).with_options(HYPER_AI),
                CcSpec::new(Swift, Variant::VaiSf),
                CcSpec::new(Swift, Variant::VaiSf).with_options(HYPER_AI),
            ],
            workload: HADOOP,
            view: View::Table(views::hyper_ai_table),
        }]),
    },
    Figure {
        name: "ablation-timely",
        caption: "mechanism generality: VAI + SF on Timely, a third sender-side protocol",
        body: Body::Panels(&[Panel {
            title: "Ablation: VAI+SF generality on Timely, 16-1 incast",
            cc: &specs(Timely, [Variant::Default, Variant::Sf, Variant::VaiSf]),
            workload: INCAST_16,
            view: View::JainQueue { rows: 25 },
        }]),
    },
    Figure {
        name: "ablation-permutation",
        caption: "permutation traffic on an oversubscribed fat-tree (boundary of applicability)",
        body: Body::Custom {
            title: "Ablation: permutation traffic on an oversubscribed fat-tree",
            text: custom::permutation,
            json: None,
        },
    },
    Figure {
        name: "ablation-sf-increases",
        caption: "negative control: SF gating increases as well as decreases",
        body: Body::Custom {
            title: "Ablation (negative control): SF gating increases too, 16-1 incast, HPCC",
            text: custom::sf_increases,
            json: None,
        },
    },
    Figure {
        name: "ablation-degree",
        caption: "incast-degree sweep, 8 to 96 senders, HPCC default vs VAI SF",
        body: Body::Panels(&[Panel {
            title: "Ablation: incast-degree sweep, HPCC default vs VAI SF",
            cc: &specs(Hpcc, PAIR),
            workload: Workload::Incast(DEGREES),
            view: View::Table(views::degree_table),
        }]),
    },
    Figure {
        name: "ablation-pfc",
        caption: "PFC headroom: peak queues against the XOFF watermark, 16-1 incast",
        body: Body::Panels(&[Panel {
            title: "Ablation: PFC headroom, 16-1 incast",
            cc: BOTH_PAIRS,
            workload: INCAST_16,
            view: View::Table(views::pfc_table),
        }]),
    },
    Figure {
        name: FAULTS,
        caption: "FCT slowdown under fabric wire loss and a flapping link, HPCC vs VAI+SF",
        body: Body::Panels(&[Panel {
            title: "Fault sweep: FCT slowdown CDFs under loss and link flaps",
            cc: &specs(Hpcc, PAIR),
            workload: Workload::Faults(&[FB_HADOOP]),
            view: View::Table(views::fault_tables),
        }]),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> FigureCtx {
        FigureCtx::new(Scale::Reduced, DEFAULT_SEED)
    }

    #[test]
    fn the_table_names_every_figure_once_in_paper_order() {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        let paper_order = [
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
        assert_eq!(names, paper_order, "`repro list` / `repro all` order");
        for (i, f) in FIGURES.iter().enumerate() {
            assert!(!names[..i].contains(&f.name), "{} appears twice", f.name);
            assert!(!f.caption.is_empty() && !f.caption.contains('\n'));
            assert_eq!(Figure::named(f.name).map(|g| g.name), Ok(f.name));
        }
        for n in (1..=6).chain(8..=13) {
            assert!(
                Figure::named(&format!("fig{n}")).is_ok(),
                "paper figure {n}"
            );
        }
        let fig7 = Figure::named("fig7").expect_err("fig7 is not a runnable figure");
        assert!(fig7.contains("topology diagram"), "{fig7}");
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
        let fig5 = Figure::named("fig5").expect("in the table");
        let Body::Panels([panel_16_1, _]) = fig5.body else {
            panic!("fig5 is two sweep panels");
        };
        let (text, _) = panel_16_1.render(&panel_16_1.run(fig5.name, &ctx()));
        let summary = text.split("Summary").nth(1).expect("a summary table");
        // converge@0.9, unfairness integral, peak queue, mean queue,
        // finish spread, all finished
        let want = row(summary, "HPCC VAI SF");

        let text = |name: &str| Figure::named(name).expect("in the table").run(&ctx()).text;
        let sf_increases = text("ablation-sf-increases");
        let paper = row(&sf_increases, "SF decreases only (paper)");
        assert_eq!(paper, [want[0], want[1], want[4]], "{sf_increases}");

        let sf = text("ablation-sf");
        assert_eq!(row(&sf, "30"), [want[0], want[2], want[4]], "{sf}");
    }

    #[test]
    fn fig4_json_is_valid() {
        let fig4 = Figure::named("fig4").expect("in the table").run(&ctx());
        assert!(fig4.text.contains("SF converges faster"));
        assert!(fig4.text.contains("true"));
        let json = fig4.json.expect("fig4 has a JSON form").pretty();
        let v = Value::parse(&json).expect("valid JSON");
        assert!(v.as_array().expect("an array of samples").len() > 100);
        assert!(!Figure::named("ablation-pfc")
            .expect("in the table")
            .has_json());
    }
}
