//! `campaign-cold`: whole Section I campaigns on s5378, each on a fresh
//! artifact layer with no store, so every chip pays ATPG, observe and
//! the dictionary build anew.

use crate::chips::{self, AtpgStats, Env, SpanCtx};
use crate::common::{check_rankings, cpu_ms, hit_rate_pct, peak_rss_mb, ratio, RunResult};
use crate::stats::{highest_supported_percentile, latency_percentile, median};
use crate::trace::Tracer;
use sdd_core::diagnoser::{Diagnoser, DiagnoserConfig, RankedSite};
use sdd_core::evaluate::AccuracyReport;
use sdd_core::inject::CampaignConfig;
use sdd_core::metrics::CampaignMetrics;
use sdd_core::{ArtifactLayer, ErrorFunction, MetricsSink};
use sdd_netlist::Circuit;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The profile every campaign runs on.
pub const CIRCUIT: &str = "s5378";

/// Set-ups timed per run (the reported `setup_s` is their median).
const SETUPS: usize = 5;

/// Seed of the circuit and of the whole campaign. Fixed, so the run seed
/// changes nothing here: the ATPG cost of a 6-chip campaign depends on
/// the sites its chips draw and varies 2.5x between campaign seeds, and
/// its hit rate over 54 (chip, function, K) trials moves by a third
/// with the Monte-Carlo seed, both far beyond any bound.
const CAMPAIGN_SEED: u64 = 1;

/// The campaign a run measures: `CampaignConfig::quick` defaults.
fn config() -> CampaignConfig {
    let mut cfg = CampaignConfig::quick(CAMPAIGN_SEED);
    // Scoring only: the report counts hits at the paper's Table I K
    // values for the circuit. No stage reads `k_values`.
    cfg.k_values = sdd_bench::table1_k_values(CIRCUIT);
    cfg
}

/// Worker threads of the campaign's layer. One: on a 2-vCPU host the
/// same campaign took 5.1-6.7 s wall on two threads (the slower half of
/// the chips sets the time, and co-running halves slow each other by a
/// varying amount) but 8.8-9.3 s on one. Chip-level thread scaling is
/// therefore not measured here.
const THREADS: usize = 1;

/// One timed set-up: a fresh store-less layer plus circuit generation.
fn setup() -> Result<(ArtifactLayer, Circuit, Duration), String> {
    let start = Instant::now();
    let layer = ArtifactLayer::builder()
        .num_threads(THREADS)
        .build()
        .map_err(|e| format!("layer: {e}"))?;
    let circuit = chips::generate_circuit(CIRCUIT, CAMPAIGN_SEED)?;
    Ok((layer, circuit, start.elapsed()))
}

/// Mean top-K hit rate of a campaign report over the Table I columns.
fn report_hit_rate(report: &AccuracyReport) -> f64 {
    let mut sum = 0.0;
    let mut n = 0.0;
    for f in crate::common::HIT_RATE_FUNCTIONS {
        let f_ix = report
            .functions
            .iter()
            .position(|&g| g == f)
            .expect("campaign ranks every extended function");
        for k_ix in 0..report.k_values.len() {
            sum += report.success_percent(k_ix, f_ix);
            n += 1.0;
        }
    }
    sum / n
}

pub fn run(seconds: f64) -> Result<RunResult, String> {
    let cfg = config();
    let pid = std::process::id();
    let mut out = RunResult::default();
    let mut setups = Vec::new();
    let mut walls: Vec<f64> = Vec::new();
    let mut cpu = 0.0;
    let mut reports: Vec<AccuracyReport> = Vec::new();
    let mut last: (ArtifactLayer, Circuit);
    let start = Instant::now();
    // Campaigns run back to back while the next one is expected to end
    // inside the window; at least two, so every figure is a median.
    loop {
        let (layer, circuit, took) = setup()?;
        setups.push(took.as_secs_f64());
        let session = layer.session("perfbench");
        let cpu0 = cpu_ms(pid).unwrap_or(0.0);
        let t = Instant::now();
        let result = session.run_campaign_on(&circuit, &cfg);
        let wall = t.elapsed().as_secs_f64();
        cpu += cpu_ms(pid).unwrap_or(0.0) - cpu0;
        out.attempted += 1;
        match result {
            Ok(report) => {
                walls.push(wall);
                reports.push(report);
            }
            Err(e) => {
                out.failed += 1;
                out.note(format!("campaign error: {e}"));
            }
        }
        last = (layer, circuit);
        let elapsed = start.elapsed().as_secs_f64();
        let typical = median(&walls).unwrap_or(wall);
        if out.attempted >= 2 && elapsed + typical > seconds {
            break;
        }
    }
    while setups.len() < SETUPS {
        setups.push(setup()?.2.as_secs_f64());
    }
    let Some(first) = reports.first() else {
        return Err("every campaign failed".into());
    };
    let chips = cfg.n_instances as f64;
    let median_of = |f: &dyn Fn(f64) -> f64| {
        median(&walls.iter().map(|&w| f(w)).collect::<Vec<_>>()).expect("a campaign succeeded")
    };
    out.set("campaign_chips_per_s", median_of(&|w| chips / w));
    out.set("serve_rps", median_of(&|w| 1.0 / w));
    // Nearest-rank over every attempted campaign; a failed one misses
    // the percentile and reads as an unbounded time.
    let wall_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    let failed = out.failed as usize;
    let latency = |pct| latency_percentile(&wall_ms, failed, pct).unwrap_or(f64::MAX);
    out.set("request_p50_ms", latency(50.0));
    out.set("request_p90_ms", latency(90.0));
    out.set("hit_rate_pct", report_hit_rate(first));
    out.set("setup_s", median(&setups).expect("set-ups ran"));
    out.set("peak_rss_mb", peak_rss_mb(pid).unwrap_or(0.0));
    out.set("cpu_ms_per_op", cpu / (chips * walls.len().max(1) as f64));
    out.note(format!(
        "{} cold campaign(s) of {} chips on {CIRCUIT}; walls {:?} s; setups {:?} s",
        reports.len(),
        cfg.n_instances,
        walls
            .iter()
            .map(|w| (w * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        setups
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>(),
    ));
    out.note(format!(
        "request_* on campaign-cold: one operation is one whole campaign; \
         highest percentile with ten samples beyond it among {}: {:?}",
        walls.len(),
        highest_supported_percentile(walls.len())
    ));

    // Output checks: every campaign of the run agrees, and re-diagnosing
    // each chip through the warm layer reproduces the report from
    // well-formed rankings.
    for (i, r) in reports.iter().enumerate().skip(1) {
        if r != first {
            out.fail_check(format!(
                "campaign {i} differs from campaign 0 on the same seed"
            ));
        }
    }
    let (layer, circuit) = last;
    let env = Env::on(circuit, cfg.clone());
    let session = layer.session("perfbench-check");
    let mut rebuilt = AccuracyReport::new(
        env.circuit.name(),
        cfg.k_values.clone(),
        ErrorFunction::EXTENDED.to_vec(),
    );
    for chip in 0..cfg.n_instances {
        let outcome =
            session.diagnose_instance(&env.circuit, &env.timing, &env.model, None, &cfg, chip);
        match outcome {
            Some(o) if !o.rankings.is_empty() => {
                if let Err(e) = check_rankings(&o.rankings) {
                    out.fail_check(format!("chip {chip}: {e}"));
                }
                rebuilt.record(o.injected, &o.rankings, o.n_suspects, o.n_patterns);
            }
            Some(o) => rebuilt.record_failure(o.n_patterns),
            None => rebuilt.record_failure(0),
        }
    }
    if &rebuilt != first {
        out.fail_check("per-chip diagnoses do not reproduce the campaign report");
    }
    Ok(out)
}

/// Per-chip totals of the campaign's own phase counters, in ms.
fn phase_ms(m: &CampaignMetrics, chips: f64) -> [f64; 4] {
    [
        m.patterns_nanos,
        m.observe_nanos,
        m.dictionary_nanos,
        m.rank_nanos,
    ]
    .map(|ns| ns as f64 / 1e6 / chips)
}

/// The traced run: one real cold campaign for its own phase counters,
/// then the same chips replayed stage by stage through public functions
/// with a span around every call.
pub fn run_traced(tracer: &Tracer) -> Result<RunResult, String> {
    let cfg = config();
    let mut out = RunResult::default();
    chips::trace_env_build(tracer, CIRCUIT, &cfg)?;
    let (layer, circuit, _) = setup()?;
    out.attempted += 1;
    let report = layer
        .session("perfbench")
        .run_campaign_on(&circuit, &cfg)
        .map_err(|e| format!("campaign error: {e}"))?;
    let chips = cfg.n_instances as f64;

    let env = Env::on(circuit, cfg.clone());
    // Sampled once per campaign, like the campaign's own memoized batch;
    // counted with the tested-delay work and the observe phase.
    let batch = tracer.span("timing.tested_batch", None, 0, |_| env.tested_batch());
    let cache = sdd_core::DictionaryCache::new();
    let sink = MetricsSink::new();
    let mut stats = AtpgStats::default();
    let mut site_memo: HashMap<sdd_netlist::EdgeId, Arc<sdd_atpg::PatternSet>> = HashMap::new();
    let mut pattern_mismatches = 0u64;
    let mut suspects = 0u64;
    let mut outcomes: Vec<(sdd_netlist::EdgeId, Vec<Vec<RankedSite>>)> = Vec::new();
    let mut undetected = 0usize;
    // The replay runs on as many threads as the campaign did.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(THREADS)
        .build()
        .map_err(|e| format!("thread pool: {e}"))?;
    pool.install(|| {
        for chip in 0..cfg.n_instances as u64 {
            let ctx = SpanCtx {
                tracer: Some(tracer),
                parent: None,
                request: chip,
            };
            ctx.span("campaign.chip", |ctx| {
                let mut patterns_for = |site, ctx: SpanCtx<'_>| {
                    if let Some(p) = site_memo.get(&site) {
                        return Arc::clone(p);
                    }
                    let p = Arc::new(chips::replay_site_patterns(&env, site, ctx, &mut stats));
                    // The real campaign's layer holds the library's set for
                    // this site: the replay must have rebuilt it exactly.
                    let real = layer.cache().patterns_for_site(
                        &env.circuit,
                        &env.timing,
                        site,
                        &env.atpg(),
                        env.site_seed(site),
                        None,
                    );
                    if *real != *p {
                        pattern_mismatches += 1;
                    }
                    site_memo.insert(site, Arc::clone(&p));
                    p
                };
                let Some(injected) = chips::inject_chip(&env, chip, &batch, ctx, &mut patterns_for)
                else {
                    undetected += 1;
                    return;
                };
                let diagnoser = Diagnoser::new(
                    &env.circuit,
                    &env.timing,
                    &injected.patterns,
                    env.model.size_dist(),
                    DiagnoserConfig::new(cfg.dictionary),
                )
                .with_cache(&cache)
                .with_metrics(&sink);
                let built = ctx.span("dictionary.build", |_| {
                    diagnoser.build_dictionary(&injected.behavior)
                });
                let rankings = match built {
                    Ok(dict) => {
                        suspects += dict.suspects().len() as u64;
                        ctx.span("rank", |_| {
                            ErrorFunction::EXTENDED
                                .into_iter()
                                .map(|f| diagnoser.rank(&dict, &injected.behavior, f))
                                .collect()
                        })
                    }
                    Err(_) => Vec::new(),
                };
                outcomes.push((injected.injected, rankings));
            });
        }
    });
    for (edge, rankings) in &outcomes {
        if let Err(e) = check_rankings(rankings) {
            out.fail_check(format!("replayed chip at {edge}: {e}"));
        }
    }
    let borrowed: Vec<(sdd_netlist::EdgeId, &[Vec<RankedSite>])> =
        outcomes.iter().map(|(e, r)| (*e, r.as_slice())).collect();
    let mut replay_hits = hit_rate_pct(&borrowed, &cfg.k_values) * outcomes.len() as f64;
    replay_hits /= (outcomes.len() + undetected) as f64;
    let campaign_hits = report_hit_rate(&report);
    let outcome_mismatch = (replay_hits - campaign_hits).abs() > 1e-9;

    let totals = tracer.summary();
    let per_chip = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e6 / chips)
    };
    let self_per_chip = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ms() / chips);
    let counters = sink.snapshot(Duration::ZERO);
    out.set("netlist.generate_ms", tracer.median_ms("netlist.generate"));
    out.set(
        "timing.characterize_ms",
        tracer.median_ms("timing.characterize"),
    );
    let batch_ms = self_per_chip("timing.tested_batch");
    out.set(
        "timing.tested_delay_ms",
        self_per_chip("timing.tested_delay") + batch_ms,
    );
    out.set("observe.capture_ms", self_per_chip("observe.capture"));
    out.set("atpg.k_longest_ms", self_per_chip("atpg.k_longest"));
    out.set("atpg.justify_ms", self_per_chip("atpg.justify"));
    out.set("atpg.justify_tried", stats.justify_tried as f64 / chips);
    out.set(
        "atpg.justify_yield",
        ratio(stats.justify_ok, stats.justify_tried),
    );
    out.set("atpg.podem_ms", self_per_chip("atpg.podem"));
    out.set("atpg.podem_tried", stats.podem_tried as f64 / chips);
    out.set("atpg.podem_yield", ratio(stats.podem_ok, stats.podem_tried));
    out.set("atpg.fill_ms", self_per_chip("atpg.fill"));
    out.set("atpg.patterns_per_site", ratio(stats.patterns, stats.sites));
    out.set("dictionary.build_ms", self_per_chip("dictionary.build"));
    out.set("dictionary.suspects_per_op", suspects as f64 / chips);
    out.set(
        "dictionary.cone_evals_per_op",
        counters.cone_evals as f64 / chips,
    );
    out.set(
        "dictionary.samples_per_op",
        counters.samples_simulated as f64 / chips,
    );
    let m = &report.metrics;
    out.set(
        "dictionary.cache_hit_ratio",
        ratio(m.dict_cache_hits, m.dict_cache_hits + m.dict_cache_misses),
    );
    out.set("rank.ms", self_per_chip("rank"));
    let [cp, co, cd, cr] = phase_ms(m, chips);
    out.set("campaign.patterns_ms", cp);
    out.set("campaign.observe_ms", co);
    out.set("campaign.dictionary_ms", cd);
    out.set("campaign.rank_ms", cr);
    let [rp, ro, rd, rr] = [
        per_chip("patterns"),
        per_chip("observe") + batch_ms,
        per_chip("dictionary.build"),
        per_chip("rank"),
    ];
    out.set("replay.patterns_ms", rp);
    out.set("replay.observe_ms", ro);
    out.set("replay.dictionary_ms", rd);
    out.set("replay.rank_ms", rr);
    out.set(
        "replay.mismatches",
        (pattern_mismatches + outcome_mismatch as u64) as f64,
    );
    out.note(format!(
        "replay vs campaign per chip (ms): patterns {rp:.1} vs {cp:.1}, observe {ro:.1} vs \
         {co:.1}, dictionary {rd:.1} vs {cd:.1}, rank {rr:.2} vs {cr:.2}"
    ));
    out.note(format!(
        "replay hit rate {replay_hits:.3}% vs campaign {campaign_hits:.3}%; \
         {pattern_mismatches} site pattern set(s) differ from the library's"
    ));
    Ok(out)
}
