//! Integration tests for multi-defect campaigns on the Section I chip flow.
//!
//! A multi-defect campaign is the Section I campaign with `m` defects
//! per chip: the same chip, defect and site seeds, ATPG budgets, clock
//! policy and observe kernel. With `m = 1` its report must therefore
//! equal the single-defect campaign's exactly; with `m = 2` it must be
//! deterministic, independent of the thread count, and its any-hit
//! counts monotone in K.

use sdd_core::evaluate::AccuracyReport;
use sdd_core::inject::CampaignConfig;
use sdd_core::session::ArtifactLayer;
use sdd_core::SddError;
use sdd_netlist::generator::generate;
use sdd_netlist::profiles;
use sdd_netlist::Circuit;

fn small() -> Circuit {
    generate(&profiles::S27.to_config(3))
        .unwrap()
        .to_combinational()
        .unwrap()
}

fn config() -> CampaignConfig {
    CampaignConfig::quick(5).with_instances(8)
}

fn run(layer: &ArtifactLayer, c: &Circuit, cfg: &CampaignConfig, m: usize) -> AccuracyReport {
    layer
        .session("")
        .run_multi_defect_campaign_on(c, cfg, m)
        .expect("multi-defect campaign runs")
}

fn assert_monotone_in_k(report: &AccuracyReport) {
    for f_ix in 0..report.functions.len() {
        let mut last = 0;
        for k_ix in 0..report.k_values.len() {
            assert!(report.successes[k_ix][f_ix] >= last, "non-monotone in K");
            last = report.successes[k_ix][f_ix];
        }
    }
}

#[test]
fn single_defect_multi_campaign_equals_the_single_defect_campaign() {
    let c = small();
    let cfg = config();
    let multi = run(&ArtifactLayer::new(), &c, &cfg, 1);
    let single = ArtifactLayer::new()
        .session("")
        .run_campaign_on(&c, &cfg)
        .expect("single campaign runs");
    assert_eq!(multi, single, "m = 1 must be the Section I campaign");
    // Same chips, same per-chip outcomes: the traces agree too.
    let edges = |r: &AccuracyReport| -> Vec<Option<u64>> {
        r.traces.iter().map(|t| t.injected_edge).collect()
    };
    assert_eq!(edges(&multi), edges(&single));
    assert_eq!(multi.trials, cfg.n_instances);
    assert_monotone_in_k(&multi);
}

#[test]
fn double_defect_campaign_smoke() {
    // m = 2 rides the same machinery: it must run to completion, score
    // every chip, stay deterministic, and keep monotonicity in K.
    let c = small();
    let cfg = config();
    let a = run(&ArtifactLayer::new(), &c, &cfg, 2);
    assert_eq!(a.trials, cfg.n_instances);
    let b = run(&ArtifactLayer::new(), &c, &cfg, 2);
    assert_eq!(a, b, "m=2 campaign is not deterministic");
    assert_monotone_in_k(&a);
}

#[test]
fn double_defect_campaign_is_identical_across_thread_counts() {
    let c = small();
    let cfg = config();
    let layer = |n| ArtifactLayer::builder().num_threads(n).build().unwrap();
    let serial = run(&layer(1), &c, &cfg, 2);
    let parallel = run(&layer(4), &c, &cfg, 2);
    assert_eq!(
        serial, parallel,
        "m=2 report must not depend on thread count"
    );
}

#[test]
fn zero_defects_per_chip_is_refused() {
    let result = ArtifactLayer::new()
        .session("")
        .run_multi_defect_campaign_on(&small(), &config(), 0);
    assert!(
        matches!(result, Err(SddError::Config(_))),
        "m = 0 must be a config error: {result:?}"
    );
}
