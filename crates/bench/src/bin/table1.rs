//! Reproduces **Table I** of the paper: diagnosis accuracy (success rate
//! in percent) for `Alg_sim` Methods I and II and `Alg_rev`, over eight
//! benchmark circuits, three `K` values each, `N = 20` injected chip
//! instances per circuit.
//!
//! Usage:
//!
//! ```text
//! cargo run -p sdd-bench --release --bin table1 \
//!     [-- --quick] [--circuit s1196] [--seed 2] [--store DIR] \
//!     [--kernel scalar|batched|analytic|screened] [--metrics-json PATH]
//! ```
//!
//! `--kernel` selects the dictionary simulation kernel (default:
//! batched Monte-Carlo). `analytic` replaces the Monte-Carlo dictionary
//! with sampling-free moment propagation — success rates then reflect
//! the analytic error model rather than the paper's MC dictionaries, so
//! compare, don't substitute. `screened` keeps the MC dictionaries but
//! builds them only for the top-K survivors of an analytic pre-screen.
//!
//! With `--store <dir>`, dictionary Monte-Carlo banks and per-site ATPG
//! pattern sets are checkpointed to (and reloaded from) disk, so
//! regenerating the table after a crash or re-running a subset of
//! circuits skips the dictionary and pattern-generation phases for
//! everything already computed. With `--metrics-json <path>`, one
//! [`sdd_core::MetricsReport`] per successfully-completed circuit is
//! written as a combined [`sdd_core::MetricsExport`] document.
//!
//! Prints, per circuit, the measured success rates for all five error
//! functions (the paper's four plus the `Alg_joint` extension) next to
//! the paper's published numbers. Absolute agreement is not expected —
//! the circuits are synthetic profile-matched stand-ins and the cell
//! library is synthetic — but the qualitative shape should hold: rates
//! grow with `K`, Method III is degenerate, and the explicit
//! error-function algorithms are competitive.

use sdd_bench::{flag_value, table1_k_values, table1_reference, write_metrics_export};
use sdd_core::inject::CampaignConfig;
use sdd_core::session::ArtifactLayer;
use sdd_core::{MetricsReport, SimKernel};
use sdd_netlist::profiles::TABLE1_PROFILES;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let circuit_filter = flag_value(&args, "--circuit");
    let seed: u64 = flag_value(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let kernel: SimKernel = flag_value(&args, "--kernel").map_or(SimKernel::Batched, |name| {
        name.parse().unwrap_or_else(|e| panic!("--kernel: {e}"))
    });
    let mut builder = ArtifactLayer::builder();
    if let Some(dir) = flag_value(&args, "--store") {
        builder = builder.store_dir(dir);
    }
    let layer = builder.build().expect("layer builds");
    let session = layer.session("table1");

    println!("=== Table I reproduction: diagnosis accuracy on benchmark examples ===");
    println!(
        "mode: {}, seed: {seed}, kernel: {kernel:?}\n",
        if quick { "quick" } else { "paper (N = 20)" }
    );
    if let Some(store) = layer.store() {
        println!(
            "dictionary store: {} ({} dict + {} pattern checkpoints)\n",
            store.dir().display(),
            store.num_checkpoints(),
            store.num_pattern_checkpoints()
        );
    }

    let total = Instant::now();
    let mut metrics_reports: Vec<MetricsReport> = Vec::new();
    for profile in TABLE1_PROFILES {
        if let Some(filter) = &circuit_filter {
            if profile.name != filter {
                continue;
            }
        }
        let mut config = CampaignConfig::paper(seed);
        config.dictionary.kernel = kernel;
        config.k_values = table1_k_values(profile.name);
        // Scale Monte-Carlo budgets down on the largest circuits so the
        // full table regenerates in minutes; accuracy is insensitive to
        // the dictionary budget well before this point (see the
        // `ablation` binary).
        if profile.gates > 4000 {
            config.dictionary.n_samples = 80;
            config.sta_samples = 150;
            config.n_paths = 6;
            config.max_redraws = 6;
        }
        if quick {
            config.n_instances = 8;
            config.dictionary.n_samples = 60;
            config.sta_samples = 120;
            config.n_paths = 4;
        }
        let t0 = Instant::now();
        match session.run_campaign(&profile, &config) {
            Ok(report) => {
                metrics_reports.push(MetricsReport::from_report(&report));
                println!("{}", report.render_table());
                println!("{}\n", report.metrics.render());
                if let Some(reference) = table1_reference(profile.name) {
                    println!("  paper reference (Alg_sim I / Alg_sim II / Alg_rev):");
                    for (k, rates) in reference {
                        println!(
                            "  K = {k:>2}: {:>3}% / {:>3}% / {:>3}%",
                            rates[0], rates[1], rates[2]
                        );
                    }
                }
                println!("  [{} done in {:.1?}]\n", profile.name, t0.elapsed());
            }
            Err(e) => println!("{}: campaign failed: {e}\n", profile.name),
        }
    }
    println!("total wall clock: {:.1?}", total.elapsed());
    if let Some(path) = flag_value(&args, "--metrics-json") {
        write_metrics_export(&path, metrics_reports);
    }
}
