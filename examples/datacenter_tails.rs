//! Long-flow tail latency in a datacenter mix (a scaled-down Figure 10).
//!
//! Runs Facebook-Hadoop-shaped Poisson traffic at 50% load over a
//! 32-host 3-layer fat-tree, under HPCC and HPCC VAI SF, and reports the
//! 99.9% FCT slowdown by flow size. Long (> 1 MB) flows are
//! bandwidth-bound, so their tail is exactly where slow convergence to
//! fairness hurts.
//!
//! ```text
//! cargo run --release --example datacenter_tails
//! ```

use fairness_repro::fairsim::scenarios::LONG_FLOW_BYTES;
use fairness_repro::fairsim::{
    CcSpec, DatacenterScenario, ProtocolKind, RunCtx, Scenario, Variant,
};

const SEED: u64 = 42;

fn main() {
    let mut summaries = Vec::new();
    for variant in [Variant::Default, Variant::VaiSf] {
        let sc = DatacenterScenario::reduced(
            vec!["FB_Hadoop".to_string()],
            CcSpec::new(ProtocolKind::Hpcc, variant),
            SEED,
        );
        println!(
            "running {:?} on a {}-host fat-tree at {:.0}% load ...",
            sc.cc.label(),
            sc.fat_tree.num_hosts(),
            sc.load * 100.0
        );
        let res = sc.run_with(&RunCtx::new(SEED));
        println!(
            "  {} flows offered, {} completed\n",
            res.n_flows, res.completed
        );

        println!("  {:<12} {:>10} {:>10}", "size bin", "p99.9", "median");
        for p in res.table.points.iter().rev().take(8).rev() {
            println!(
                "  {:<12} {:>9.1}x {:>9.1}x",
                fairness_repro::fairsim::render::fmt_size(p.size),
                p.tail,
                p.median
            );
        }
        let tail = res
            .table
            .mean_tail_above(LONG_FLOW_BYTES)
            .unwrap_or(f64::NAN);
        println!("\n  long-flow (>1MB) mean p99.9 slowdown: {tail:.1}x\n");
        summaries.push((res.label.clone(), tail));
    }

    let (base, vai_sf) = (&summaries[0], &summaries[1]);
    println!(
        "{} -> {}: long-flow tail improved {:.2}x (the paper reports ~2x at full scale)",
        base.0,
        vai_sf.0,
        base.1 / vai_sf.1
    );
}
