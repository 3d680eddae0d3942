//! Multi-defect robustness campaign (paper future-work direction 3):
//! inject `m ≥ 1` simultaneous segment defects per chip while
//! diagnosing under the single-defect dictionary, and score **any-hit**
//! accuracy — at least one injected arc in the top-K answer.
//!
//! Usage:
//!
//! ```text
//! cargo run -p sdd-bench --release --bin multi_defect \
//!     [-- --quick] [--circuit s1196] [--seed 2] [--m 2]
//! ```
//!
//! Runs the `m = 1` baseline — the Section I campaign itself — next to
//! the requested `m` (default 2), both on the Section I chip flow
//! (`DiagnosisSession::run_multi_defect_campaign_on`), so the
//! dictionary-model mismatch cost is visible per (K, error function)
//! cell. It asserts monotone any-hit in K and bit-identical reruns on a
//! fresh layer, so a CI `--quick` invocation doubles as a smoke test.

use sdd_bench::flag_value;
use sdd_core::inject::CampaignConfig;
use sdd_core::session::ArtifactLayer;
use sdd_netlist::generator::generate;
use sdd_netlist::profiles;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let circuit_name = flag_value(&args, "--circuit").unwrap_or_else(|| "s1196".into());
    let seed: u64 = flag_value(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let m: usize = flag_value(&args, "--m")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    assert!(m >= 1, "--m must be at least 1");

    let profile = profiles::by_name(&circuit_name)
        .unwrap_or_else(|| panic!("unknown circuit profile `{circuit_name}`"));
    let circuit = generate(&profile.to_config(seed))
        .expect("profile generates")
        .to_combinational()
        .expect("combinational view");

    // 32 chips, so one chip moves a rate by about 3 points, and the
    // Table I K values, so K = 1 is not the only small row.
    let config = if quick {
        let mut config = CampaignConfig::quick(seed).with_instances(32);
        config.k_values = vec![1, 3, 7];
        config
    } else {
        CampaignConfig::paper(seed)
    };

    println!("=== Multi-defect any-hit accuracy: {circuit_name} ===");
    println!(
        "mode: {}, seed: {seed}, chips: {}, defects per chip: 1 vs {m}\n",
        if quick { "quick" } else { "paper" },
        config.n_instances
    );

    let total = Instant::now();
    let reports: Vec<_> = [1, m]
        .iter()
        .map(|&defects| {
            let t0 = Instant::now();
            let run = || {
                ArtifactLayer::new()
                    .session("")
                    .run_multi_defect_campaign_on(&circuit, &config, defects)
                    .expect("multi-defect campaign runs")
            };
            let report = run();
            // Smoke invariants: any-hit counts are monotone in K, and a
            // cold rerun is bit-identical (the campaign is seed-determined).
            for rows in report.successes.windows(2) {
                let monotone = rows[0].iter().zip(&rows[1]).all(|(lo, hi)| lo <= hi);
                assert!(monotone, "any-hit not monotone in K at m={defects}");
            }
            assert_eq!(report, run(), "m={defects} campaign is not deterministic");
            println!("  [m = {defects} done in {:.1?}]", t0.elapsed());
            report
        })
        .collect();

    let base = &reports[0];
    let multi = &reports[1];
    println!("\n  any-hit %, m=1 -> m={m} (per K, per error function):");
    print!("  {:>6}", "K");
    for f in &base.functions {
        print!(" {:>16}", f.name());
    }
    println!();
    for (k_ix, k) in base.k_values.iter().enumerate() {
        print!("  {k:>6}");
        for f_ix in 0..base.functions.len() {
            print!(
                " {:>7.0} -> {:>4.0}",
                base.success_percent(k_ix, f_ix),
                multi.success_percent(k_ix, f_ix)
            );
        }
        println!();
    }
    println!("\ntotal wall clock: {:.1?}", total.elapsed());
}
