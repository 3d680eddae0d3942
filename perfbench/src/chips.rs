//! The Section I chip flow rebuilt from public functions: manufacture a
//! chip, inject a defect, generate tests through its site, and record
//! the behaviour matrix with the campaign's clock sweep.
//!
//! The campaign replay of the traced `campaign-cold` run walks these
//! stages with a span around each call, and the serve workloads use them
//! to generate the tester data they submit. Seeds and stage order follow
//! `sdd_core::inject`, so a chip replayed here observes the same
//! behaviour as the same chip index inside `run_campaign_on`.

use crate::trace::{SpanId, Tracer};
use rayon::prelude::*;
use sdd_atpg::fault::{PathDelayFault, TransitionDirection, TransitionFault};
use sdd_atpg::path_atpg::generate_candidate_tests;
use sdd_atpg::podem::{fill_pattern_quiet, generate_transition_assignments_diverse};
use sdd_atpg::PatternSet;
use sdd_core::inject::{
    tested_delay_samples_from_batch, AtpgConfig, CampaignConfig, ClockPolicy, SWEEP_QUANTILES,
};
use sdd_core::{BehaviorMatrix, ObserveKernel, ObservedBehavior, SingleDefectModel};
use sdd_netlist::{Circuit, EdgeId};
use sdd_timing::{path, CellLibrary, CircuitTiming, InstanceBatch, TimingInstance};
use std::collections::HashMap;
use std::sync::Arc;

/// Where spans of one chip go: the tracer (none when untraced), the
/// enclosing span and the chip's request id.
#[derive(Clone, Copy)]
pub struct SpanCtx<'a> {
    pub tracer: Option<&'a Tracer>,
    pub parent: Option<SpanId>,
    pub request: u64,
}

impl<'a> SpanCtx<'a> {
    pub const OFF: SpanCtx<'static> = SpanCtx {
        tracer: None,
        parent: None,
        request: 0,
    };

    /// Runs `f` inside a span named `name` when tracing, directly
    /// otherwise; `f` gets the context to record child spans in.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce(SpanCtx<'a>) -> T) -> T {
        let ctx = *self;
        match self.tracer {
            Some(t) => t.span(name, self.parent, self.request, |id| {
                f(SpanCtx {
                    parent: Some(id),
                    ..ctx
                })
            }),
            None => f(ctx),
        }
    }
}

/// A profiled circuit with its timing model, defect model and campaign
/// configuration — what the campaign and the server derive per request.
pub struct Env {
    pub circuit: Circuit,
    pub timing: CircuitTiming,
    pub model: SingleDefectModel,
    pub config: CampaignConfig,
}

/// Generates the profile's circuit for the configuration's seed and
/// applies the scan cut (`DiagnosisSession::run_campaign`'s first step).
pub fn generate_circuit(profile: &str, seed: u64) -> Result<Circuit, String> {
    let profile =
        sdd_netlist::profiles::by_name(profile).ok_or_else(|| format!("no profile {profile}"))?;
    sdd_netlist::generator::generate(&profile.to_config(seed))
        .map_err(|e| format!("generate: {e}"))?
        .to_combinational()
        .map_err(|e| format!("scan cut: {e}"))
}

/// Characterizes the circuit against the default library.
pub fn characterize(circuit: &Circuit, config: &CampaignConfig) -> CircuitTiming {
    CircuitTiming::characterize(circuit, &CellLibrary::default_025um(), config.variation)
}

/// Times the circuit environment that every campaign set-up and every
/// served submit builds: three `netlist.generate` and
/// `timing.characterize` spans each.
pub fn trace_env_build(
    tracer: &Tracer,
    profile: &str,
    config: &CampaignConfig,
) -> Result<(), String> {
    for _ in 0..3 {
        let circuit = tracer.span("netlist.generate", None, 0, |_| {
            generate_circuit(profile, config.seed)
        })?;
        tracer.span("timing.characterize", None, 0, |_| {
            characterize(&circuit, config)
        });
    }
    Ok(())
}

impl Env {
    pub fn new(profile: &str, config: CampaignConfig) -> Result<Env, String> {
        let circuit = generate_circuit(profile, config.seed)?;
        Ok(Env::on(circuit, config))
    }

    pub fn on(circuit: Circuit, config: CampaignConfig) -> Env {
        assert_eq!(
            config.clock,
            ClockPolicy::Sweep,
            "the replay follows the sweep clock"
        );
        assert_eq!(config.observe, ObserveKernel::Batched);
        let timing = characterize(&circuit, &config);
        let model =
            SingleDefectModel::paper_section_i(CellLibrary::default_025um().nominal_cell_delay());
        Env {
            circuit,
            timing,
            model,
            config,
        }
    }

    pub fn atpg(&self) -> AtpgConfig {
        AtpgConfig::from_campaign(&self.config)
    }

    /// The campaign-wide tested-delay instance batch (the campaign
    /// samples it once and shares it across chips).
    pub fn tested_batch(&self) -> InstanceBatch {
        let n = self.config.sta_samples.min(150);
        self.timing
            .sample_instance_batch(self.config.seed ^ 0x7E57, 0, n)
    }

    /// The pattern-set seed of a hypothesized defect site.
    pub fn site_seed(&self, site: EdgeId) -> u64 {
        self.config
            .seed
            .wrapping_mul(0x94D0_49BB_1331_11EB)
            .wrapping_add(site.index() as u64)
    }

    fn chip(&self, index: u64) -> TimingInstance {
        self.timing
            .sample_instance_indexed(self.config.seed ^ 0xC41F, index)
    }
}

/// One chip whose injected defect the tester saw fail.
pub struct InjectedChip {
    pub injected: EdgeId,
    pub patterns: Arc<PatternSet>,
    pub behavior: BehaviorMatrix,
}

/// Manufactures chip `index`, injects defects (redrawing like the
/// campaign) and records the behaviour at the first failing sweep clock
/// plus the campaign's extra steps. `patterns_for(site, ctx)` supplies
/// the test set of a site. `None` when every draw passed.
pub fn inject_chip(
    env: &Env,
    index: u64,
    batch: &InstanceBatch,
    ctx: SpanCtx<'_>,
    patterns_for: &mut dyn FnMut(EdgeId, SpanCtx<'_>) -> Arc<PatternSet>,
) -> Option<InjectedChip> {
    let cfg = &env.config;
    let chip = env.chip(index);
    let mut site_patterns: HashMap<EdgeId, Arc<PatternSet>> = HashMap::new();
    for attempt in 0..cfg.max_redraws as u64 {
        let defect_seed = cfg.seed.wrapping_add(1 + index * 131 + attempt * 7919);
        let defect = env.model.sample_defect(&env.circuit, defect_seed);
        let patterns = match site_patterns.get(&defect.edge) {
            Some(p) => Arc::clone(p),
            None => {
                let p = ctx.span("patterns", |ctx| patterns_for(defect.edge, ctx));
                site_patterns.insert(defect.edge, Arc::clone(&p));
                p
            }
        };
        if patterns.is_empty() {
            continue;
        }
        let failing = defect.apply(&chip);
        let behavior = ctx.span("observe", |ctx| sweep(env, &patterns, &failing, batch, ctx));
        if let Some(behavior) = behavior {
            return Some(InjectedChip {
                injected: defect.edge,
                patterns,
                behavior,
            });
        }
    }
    None
}

/// The campaign's clock sweep over one capture: the first ladder level
/// at which the chip fails, tightened by `sweep_extra_steps`.
fn sweep(
    env: &Env,
    patterns: &PatternSet,
    failing: &TimingInstance,
    batch: &InstanceBatch,
    ctx: SpanCtx<'_>,
) -> Option<BehaviorMatrix> {
    let samples = ctx.span("timing.tested_delay", |_| {
        tested_delay_samples_from_batch(&env.circuit, patterns, batch)
    });
    let observed = ctx.span("observe.capture", |_| {
        ObservedBehavior::capture(&env.circuit, patterns, failing, env.config.capture)
    });
    for (level, &q) in SWEEP_QUANTILES.iter().enumerate() {
        let b = observed.matrix_at(samples.quantile(q));
        if !b.all_pass() {
            let extra = (level + env.config.sweep_extra_steps).min(SWEEP_QUANTILES.len() - 1);
            return Some(if extra > level {
                observed.matrix_at(samples.quantile(SWEEP_QUANTILES[extra]))
            } else {
                b
            });
        }
    }
    None
}

/// Outcome counts of the ATPG stages over a replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct AtpgStats {
    pub sites: u64,
    pub patterns: u64,
    pub justify_tried: u64,
    pub justify_ok: u64,
    pub podem_tried: u64,
    pub podem_ok: u64,
}

/// `patterns_through_site_with` stage by stage, with a span around each
/// public call: k-longest path enumeration, path-test justification,
/// transition PODEM and quiet fill. Candidate order, seeds and
/// acceptance follow the library, so the set is the one the campaign
/// generates for the site (the traced run checks this).
pub fn replay_site_patterns(
    env: &Env,
    site: EdgeId,
    ctx: SpanCtx<'_>,
    stats: &mut AtpgStats,
) -> PatternSet {
    let atpg = env.atpg();
    let seed = env.site_seed(site);
    let circuit = &env.circuit;
    let mut set = PatternSet::new();
    let paths = ctx.span("atpg.k_longest", |_| {
        path::k_longest_through_edge(circuit, &env.timing, site, atpg.n_paths * 2)
    });
    if let Ok(paths) = paths {
        let candidates: Vec<(PathDelayFault, u64)> = paths
            .iter()
            .enumerate()
            .flat_map(|(pix, p)| {
                [TransitionDirection::Rise, TransitionDirection::Fall]
                    .into_iter()
                    .enumerate()
                    .map(move |(dix, launch)| {
                        let test_seed = seed
                            .wrapping_mul(0x5851_F42D_4C95_7F2D)
                            .wrapping_add((pix * 2 + dix) as u64);
                        (PathDelayFault::new(p.clone(), launch), test_seed)
                    })
            })
            .collect();
        let tests = ctx.span("atpg.justify", |_| {
            generate_candidate_tests(circuit, &candidates, atpg.path_config)
        });
        stats.justify_tried += tests.len() as u64;
        stats.justify_ok += tests.iter().filter(|t| t.is_some()).count() as u64;
        let mut path_tests = 0usize;
        for pt in tests.into_iter().flatten() {
            if set.push(pt.pattern) {
                path_tests += 1;
            }
            if path_tests >= atpg.n_paths || set.len() >= atpg.max_patterns {
                break;
            }
        }
    }
    let fills_per_direction = (atpg.max_patterns.saturating_sub(set.len())).max(2);
    let searches = fills_per_direction.div_ceil(2).min(4);
    let targets: Vec<(TransitionFault, u64)> =
        [TransitionDirection::Rise, TransitionDirection::Fall]
            .into_iter()
            .enumerate()
            .flat_map(|(dix, direction)| {
                (0..searches).map(move |si| {
                    let decision_seed = seed
                        .wrapping_mul(0xD6E8_FEB8_6659_FD93)
                        .wrapping_add((dix * searches + si) as u64);
                    (TransitionFault::new(site, direction), decision_seed)
                })
            })
            .collect();
    let assignments: Vec<_> = ctx.span("atpg.podem", |_| {
        targets
            .par_iter()
            .map(|&(fault, decision_seed)| {
                generate_transition_assignments_diverse(
                    circuit,
                    fault,
                    atpg.podem_config,
                    Some(decision_seed),
                )
                .ok()
            })
            .collect()
    });
    stats.podem_tried += assignments.len() as u64;
    stats.podem_ok += assignments.iter().filter(|a| a.is_some()).count() as u64;
    ctx.span("atpg.fill", |_| {
        for dix in 0..2usize {
            'searches: for si in 0..searches {
                let (_, decision_seed) = targets[dix * searches + si];
                let Some((v1, v2)) = &assignments[dix * searches + si] else {
                    continue;
                };
                let fills = fills_per_direction.div_ceil(searches).max(1);
                for fill in 0..fills as u64 {
                    if set.len() >= atpg.max_patterns {
                        break 'searches;
                    }
                    set.push(fill_pattern_quiet(
                        v1,
                        v2,
                        decision_seed.wrapping_add(1 + fill),
                    ));
                }
            }
        }
    });
    stats.sites += 1;
    stats.patterns += set.len() as u64;
    set
}
