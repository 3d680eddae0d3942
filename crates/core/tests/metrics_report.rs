//! End-to-end checks of the observability layer: a real campaign's
//! [`MetricsReport`] must validate (histogram counts == trials, exact
//! trace/counter agreement), survive a JSON round trip, and tracing
//! must not perturb the accuracy results. Two golden tests pin the
//! outward contracts of the schema-v1 export: its JSON layout and the
//! `render()` text CI greps.

use sdd_core::inject::CampaignConfig;
use sdd_core::metrics::CampaignMetrics;
use sdd_core::session::ArtifactLayer;
use sdd_core::{MetricsExport, MetricsReport, Phase, TraceOutcome};
use sdd_netlist::profiles;

/// A schema-v1 `--metrics-json` document recorded before the counter
/// table existed: s27 `CampaignConfig::quick(13)` campaigns with the
/// batched MC kernel over a cold store, again over the warm store from
/// a fresh layer, with the analytic kernel, and with the screened
/// kernel (`top_k = 2`), plus the warm session's lifetime report. Every
/// counter is nonzero in at least one report and every trace set is
/// complete.
const V1_FIXTURE: &str = include_str!("fixtures/metrics_v1.json");

/// `render()` of each fixture report, one per block, followed by the
/// render of all-zero metrics — recorded with the fixture.
const V1_RENDER: &str = include_str!("fixtures/metrics_v1.render.txt");

#[test]
fn campaign_metrics_report_is_internally_consistent() {
    let cfg = CampaignConfig::quick(13);
    let report = ArtifactLayer::new()
        .session("")
        .run_campaign(&profiles::S27, &cfg)
        .expect("campaign runs");
    assert_eq!(report.trials, cfg.n_instances);
    assert_eq!(
        report.traces.len(),
        report.trials,
        "quick campaigns keep every trace"
    );
    // Traces arrive sorted by chip index, one per instance.
    for (ix, t) in report.traces.iter().enumerate() {
        assert_eq!(t.chip_index, ix as u64);
    }

    let metrics = MetricsReport::from_report(&report);
    metrics.validate().expect("campaign report validates");

    // The invariants validate() checks, spelled out on a live run: each
    // phase histogram holds one observation per instance and sums to
    // the aggregate counter exactly.
    for phase in Phase::ALL {
        let h = report.metrics.phase_latency.get(phase);
        assert_eq!(h.count(), report.trials as u64, "{}", phase.name());
    }
    let traced_dict: u64 = report.traces.iter().map(|t| t.dictionary_nanos).sum();
    assert_eq!(traced_dict, report.metrics.dictionary_nanos);

    // Every diagnosed trace carries a clock and a suspect set.
    for t in &report.traces {
        if t.outcome == TraceOutcome::Diagnosed {
            assert!(
                t.clk.is_some(),
                "diagnosed chip {} lost its clk",
                t.chip_index
            );
            assert!(t.n_suspects > 0);
            assert!(t.injected_edge.is_some());
        }
    }

    // JSON round trip through the vendored serde.
    let export = MetricsExport::new(vec![metrics]);
    let back = MetricsExport::from_json(&export.to_json()).expect("parses");
    assert_eq!(export, back);
    back.validate().expect("round-tripped export validates");
}

#[test]
fn tracing_does_not_perturb_accuracy() {
    // The trace layer records through a scratch sink per instance; the
    // report (equality ignores metrics and traces, but successes,
    // suspect statistics and rankings are compared exactly) must be
    // bit-identical run to run.
    let cfg = CampaignConfig::quick(29);
    let a = ArtifactLayer::new()
        .session("")
        .run_campaign(&profiles::S27, &cfg)
        .unwrap();
    let b = ArtifactLayer::new()
        .session("")
        .run_campaign(&profiles::S27, &cfg)
        .unwrap();
    assert_eq!(a, b);
    assert_eq!(a.successes, b.successes);
    assert_eq!(a.avg_suspects, b.avg_suspects);
    // The traces' deterministic content agrees too (timings aside).
    assert_eq!(a.traces.len(), b.traces.len());
    for (ta, tb) in a.traces.iter().zip(&b.traces) {
        assert_eq!(ta.chip_index, tb.chip_index);
        assert_eq!(ta.injected_edge, tb.injected_edge);
        assert_eq!(ta.redraws, tb.redraws);
        assert_eq!(ta.n_suspects, tb.n_suspects);
        assert_eq!(ta.n_patterns, tb.n_patterns);
        assert_eq!(ta.clk, tb.clk);
        assert_eq!(ta.outcome, tb.outcome);
    }
}

#[test]
fn v1_fixture_parses_validates_and_reserializes_byte_identically() {
    let export = MetricsExport::from_json(V1_FIXTURE).expect("fixture parses");
    export.validate().expect("fixture validates");
    assert_eq!(export.to_json(), V1_FIXTURE, "JSON layout drifted");
    // The trace-sum checks of validate() ran on every report.
    for report in &export.reports {
        assert_eq!(report.traces.len() as u64, report.trials);
    }
    // Every scalar counter is exercised by at least one report.
    let doc: serde::Value = serde_json::from_str(V1_FIXTURE).expect("fixture is JSON");
    let field = |v: &serde::Value, key: &str| match v {
        serde::Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .expect("field present"),
        other => panic!("expected a map, got {other:?}"),
    };
    let serde::Value::Array(reports) = field(&doc, "reports") else {
        panic!("reports is not an array")
    };
    let serde::Value::Map(first) = field(&reports[0], "counters") else {
        panic!("counters is not a map")
    };
    let mut scalars = 0;
    for (name, value) in &first {
        if !matches!(value, serde::Value::UInt(_)) {
            continue;
        }
        scalars += 1;
        let exercised = reports
            .iter()
            .any(|r| field(&field(r, "counters"), name) != serde::Value::UInt(0));
        assert!(exercised, "{name} is zero in every fixture report");
    }
    assert_eq!(scalars, 25);
}

#[test]
fn render_matches_the_v1_golden_text() {
    let export = MetricsExport::from_json(V1_FIXTURE).expect("fixture parses");
    let mut text = String::new();
    for report in &export.reports {
        text.push_str(&report.counters.render());
        text.push('\n');
    }
    text.push_str(&CampaignMetrics::default().render());
    text.push('\n');
    for (got, want) in text.lines().zip(V1_RENDER.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(text, V1_RENDER);
}
