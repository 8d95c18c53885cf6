//! The paper's headline microbenchmark, as an example: a 16-1 staggered
//! incast under stock HPCC/Swift versus the VAI + Sampling Frequency
//! variants.
//!
//! Prints each variant's convergence-to-fairness time, bottleneck queue,
//! and — the quantity the paper's Figures 2/3/8/9 visualize — the spread
//! between the first and last flow completion. Under a fair protocol the
//! staggered flows all finish together; under a slow-converging one, the
//! *last* flows to join finish *first*.
//!
//! ```text
//! cargo run --release --example incast_fairness
//! ```

use fairness_repro::fairsim::{CcSpec, IncastScenario, ProtocolKind, RunCtx, Scenario, Variant};

const SEED: u64 = 42;

fn main() {
    println!("16-1 staggered incast (two 1MB flows join every 20us):\n");
    println!(
        "{:<22} {:>16} {:>12} {:>12} {:>12} {:>18}",
        "variant",
        "converge@0.9(us)",
        "unfairness",
        "peak q (KB)",
        "mean q (KB)",
        "finish spread(us)"
    );
    println!("{}", "-".repeat(98));

    for kind in [ProtocolKind::Hpcc, ProtocolKind::Swift] {
        for variant in [Variant::Default, Variant::VaiSf] {
            let res = IncastScenario::paper(16, CcSpec::new(kind, variant), SEED)
                .run_with(&RunCtx::new(SEED));
            assert!(res.all_finished, "incast must drain");
            println!(
                "{:<22} {:>16} {:>12.0} {:>12.1} {:>12.1} {:>18.0}",
                res.label,
                res.convergence_time(0.9)
                    .map(|t| format!("{t:.0}"))
                    .unwrap_or_else(|| "never".into()),
                res.unfairness_integral(),
                res.peak_queue() as f64 / 1e3,
                res.mean_queue() / 1e3,
                res.finish_spread_us(),
            );
        }
        println!();
    }

    println!("A small finish spread means the staggered flows completed together —");
    println!("the fast-convergence-to-fairness property the paper's mechanisms add.");
}
