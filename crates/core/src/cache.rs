//! A campaign-wide cache of dictionary Monte-Carlo outcomes.
//!
//! The signature probability matrix `S_crt = E_crt − M_crt` depends only
//! on (circuit, timing model, pattern set, `clk`, defect-size
//! distribution, Monte-Carlo config) — *not* on the chip under
//! diagnosis. A serial campaign nevertheless re-simulates it for every
//! chip and every redraw attempt. [`DictionaryCache`] shares the work:
//! it stores the raw per-(pattern, sample, suspect) fail *bit grids*
//! (see [`simulate_fail_masks`](crate::dictionary)) keyed on a
//! fingerprint of everything the simulation reads, and assembles
//! per-chip dictionaries from them by pure counting.
//!
//! Storing grids rather than finished dictionaries matters twice over:
//!
//! * the *joint* consistency estimate
//!   ([`SuspectSignature::joint_phi`](crate::dictionary::SuspectSignature::joint_phi))
//!   is chip-specific (it conditions on the observed behaviour matrix),
//!   but is recoverable from the grids without re-simulation;
//! * different chips implicate different suspect subsets — banks
//!   accumulate the union, and each request selects its rows. Because
//!   defect sizes are keyed by suspect *arc* (not list position), a
//!   subset assembled from the bank is bit-identical to a fresh build of
//!   that subset.
//!
//! Concurrency: every section is a `Memo` — a map lock held only to
//! look up or insert a key's slot, plus a per-key mutex held across
//! simulation, so concurrent requests for the *same* key block rather
//! than duplicate the Monte-Carlo, while requests for different keys
//! proceed in parallel. A build that panics leaves its slot empty, not
//! poisoned: the next request for the key rebuilds it.
//!
//! Keys are [`StoreKey`]s: stable FNV-1a fingerprints of everything the
//! simulation reads — *including* the circuit and timing model, so one
//! cache (or one long-lived [`crate::session::ArtifactLayer`]) can
//! safely serve many campaigns over different circuits. The same key
//! identifies a checkpoint file in an optional [`DictionaryStore`]:
//! attach one with [`DictionaryCache::with_store`] and banks are loaded
//! from disk instead of simulated when a valid checkpoint exists, and
//! checkpointed in the background whenever simulation extends them.

use crate::dictionary::{
    assemble_from_masks, assemble_from_probs, screen_survivors, simulate_fail_masks,
    simulate_fail_probs_analytic, AnalyticSuspect, BatchCache, BitGrid, DictionaryConfig,
    ProbabilisticDictionary, SimKernel, SuspectMasks,
};
use crate::inject::AtpgConfig;
use crate::memo::Memo;
use crate::metrics::{Counter, MetricsSink};
use crate::store::{
    decode_bank, decode_patterns, encode_bank, encode_patterns, fingerprint_model, DictionaryStore,
    PatternKey, StoreKey,
};
use crate::BehaviorMatrix;
use sdd_atpg::PatternSet;
use sdd_netlist::{Circuit, EdgeId};
use sdd_timing::crit::ProbMatrix;
use sdd_timing::dynamic::DefectCone;
use sdd_timing::{CircuitTiming, Dist};
use std::collections::HashMap;
use std::sync::Arc;

/// The cached results for one key: a baseline plus one entry per suspect
/// arc computed so far. The Monte-Carlo sections hold bit grids
/// ([`GridBank`]); the analytic section holds probability matrices.
#[derive(Debug)]
struct SuspectBank<B, S> {
    /// `None` until the first build against this key.
    base: Option<B>,
    suspects: HashMap<EdgeId, S>,
}

/// A Monte-Carlo bank: one baseline grid per pattern (`n_samples` × all
/// outputs) and each suspect's per-pattern fail grids.
type GridBank = SuspectBank<Vec<BitGrid>, SuspectMasks>;

impl<B, S> Default for SuspectBank<B, S> {
    fn default() -> Self {
        SuspectBank {
            base: None,
            suspects: HashMap::new(),
        }
    }
}

impl<B, S> SuspectBank<B, S> {
    /// Computes, through `simulate`, what this bank lacks for `edges`:
    /// the baseline on first use and every missing suspect. `metrics`
    /// books one cache miss when anything was computed, one hit
    /// otherwise. Returns whether the bank grew.
    fn extend(
        &mut self,
        circuit: &Circuit,
        edges: &[EdgeId],
        metrics: Option<&MetricsSink>,
        simulate: impl FnOnce(&[DefectCone]) -> (B, Vec<S>),
    ) -> bool {
        let missing: Vec<EdgeId> = edges
            .iter()
            .copied()
            .filter(|e| !self.suspects.contains_key(e))
            .collect();
        let grew = self.base.is_none() || !missing.is_empty();
        if let Some(m) = metrics {
            let probe = if grew {
                Counter::DictCacheMisses
            } else {
                Counter::DictCacheHits
            };
            m.add(probe, 1);
        }
        if grew {
            let cones: Vec<DefectCone> = missing
                .iter()
                .map(|&e| DefectCone::new(circuit, e))
                .collect();
            let (base, suspects) = simulate(&cones);
            self.base.get_or_insert(base);
            self.suspects.extend(missing.into_iter().zip(suspects));
        }
        grew
    }

    /// The baseline and the entries of `edges`, in request order.
    ///
    /// # Panics
    ///
    /// Panics unless [`SuspectBank::extend`] covered `edges`.
    fn select(&self, edges: &[EdgeId]) -> (&B, Vec<(EdgeId, &S)>) {
        let base = self.base.as_ref().expect("bank extended before selection");
        (
            base,
            edges.iter().map(|&e| (e, &self.suspects[&e])).collect(),
        )
    }
}

/// A thread-safe, campaign-wide dictionary cache, optionally backed by
/// an on-disk [`DictionaryStore`]. See the module docs for the sharing,
/// determinism and persistence story.
#[derive(Debug, Default)]
pub struct DictionaryCache {
    banks: Memo<StoreKey, GridBank>,
    /// Per-site ATPG pattern sets, keyed on everything pattern
    /// generation reads ([`PatternKey`]); a slot stays `None` until the
    /// first request for its key finishes a store load or an ATPG run.
    patterns: Memo<PatternKey, Option<Arc<PatternSet>>>,
    /// Analytic-kernel results: probability matrices, not bit grids, in
    /// their own section because [`StoreKey`] is deliberately
    /// kernel-blind — analytic matrices are not bit-identical to MC grids
    /// and must never satisfy (or pollute) an MC lookup, nor be
    /// checkpointed to the on-disk `.sdds` store. Keyed additionally by the
    /// Gauss–Hermite order of the die-level integral: the screened
    /// kernel's coarse stage-1 matrices
    /// ([`SCREEN_QUADRATURE_POINTS`](crate::SCREEN_QUADRATURE_POINTS))
    /// are not interchangeable with the analytic kernel's default-order
    /// ones and must never satisfy each other's lookups.
    analytic: Memo<(StoreKey, usize), SuspectBank<ProbMatrix, AnalyticSuspect>>,
    /// Stage-2 refinement grids of the screened kernel, in their own
    /// memory-only section: the population-consistent draw scheme
    /// ([`simulate_fail_masks`](crate::dictionary) under `Screened`)
    /// produces grids that are *not* bit-identical to batched grids, so
    /// they must never satisfy a batched lookup nor be checkpointed to
    /// the kernel-blind `.sdds` store. Grids are keyed per suspect and
    /// independent of the screen budget, so screened builds with
    /// different `ScreenConfig`s share refinements.
    screened: Memo<StoreKey, GridBank>,
    store: Option<Arc<DictionaryStore>>,
    /// Memoized chip-instance batches shared by every sample-major
    /// simulation this cache runs (bit-identity preserving — see
    /// [`BatchCache`]).
    batches: BatchCache,
}

impl DictionaryCache {
    /// An empty, memory-only cache.
    pub fn new() -> DictionaryCache {
        DictionaryCache::default()
    }

    /// An empty cache backed by `store`: bank misses first try loading
    /// the key's checkpoint from disk, and every simulation that extends
    /// a bank re-checkpoints it in the background.
    pub fn with_store(store: Arc<DictionaryStore>) -> DictionaryCache {
        DictionaryCache {
            store: Some(store),
            ..DictionaryCache::default()
        }
    }

    /// The backing store, if one is attached.
    pub fn store(&self) -> Option<&Arc<DictionaryStore>> {
        self.store.as_ref()
    }

    /// Number of distinct (model, pattern set, clk, config, defect dist)
    /// keys populated so far.
    pub fn num_keys(&self) -> usize {
        self.banks.len()
    }

    /// Number of distinct (model, site, ATPG config, seed) pattern sets
    /// held so far.
    pub fn num_pattern_keys(&self) -> usize {
        self.patterns.len()
    }

    /// Returns the ATPG patterns through `site`, generating them at most
    /// once per [`PatternKey`] for the cache's lifetime. Patterns depend
    /// only on (circuit, timing model, site, ATPG knobs, seed) — never on
    /// a chip's sampled delays — so every chip and redraw that implicates
    /// the same site shares one
    /// [`patterns_through_site_with`](crate::inject::patterns_through_site_with)
    /// run. Bit-identical to calling it directly.
    ///
    /// With a store attached, a memory miss first tries the key's
    /// `pat-*.sdds` checkpoint (corruption degrades to a recorded miss,
    /// exactly like dictionary banks) and a generated set is
    /// checkpointed in the background.
    ///
    /// `metrics`, when given, receives one pattern-cache hit or miss,
    /// plus store hit/miss/flush counts when a store is attached.
    pub fn patterns_for_site(
        &self,
        circuit: &Circuit,
        timing: &CircuitTiming,
        site: EdgeId,
        config: &AtpgConfig,
        seed: u64,
        metrics: Option<&MetricsSink>,
    ) -> Arc<PatternSet> {
        let key = PatternKey {
            model_fp: fingerprint_model(circuit, timing),
            edge: site.index() as u64,
            atpg_fp: config.fingerprint(),
            seed,
        };
        self.patterns.with(key, |slot| {
            if let Some(set) = slot.as_ref() {
                if let Some(m) = metrics {
                    m.add(Counter::PatternCacheHits, 1);
                }
                return Arc::clone(set);
            }
            if let Some(m) = metrics {
                m.add(Counter::PatternCacheMisses, 1);
            }
            let width = circuit.primary_inputs().len();
            let loaded = self
                .store
                .as_ref()
                .and_then(|s| s.load(&key, metrics, |r| decode_patterns(r, width)));
            let set = Arc::new(match loaded {
                Some(set) => set,
                None => {
                    let set = crate::inject::patterns_through_site_with(
                        circuit,
                        timing,
                        site,
                        config.n_paths,
                        config.max_patterns,
                        seed,
                        config.path_config,
                        config.podem_config,
                    );
                    if let Some(store) = &self.store {
                        store.flush(&key, metrics, |out| encode_patterns(out, &set));
                    }
                    set
                }
            });
            *slot = Some(Arc::clone(&set));
            set
        })
    }

    /// The batch of tested-delay chip instances `0..n` of stream `seed`,
    /// memoized for the cache's lifetime. The draws are keyed per index
    /// and depend only on (timing model, seed) — never on a chip's
    /// sampled delays or its pattern set — so every chip of a campaign
    /// shares one Box-Muller sampling pass. A hit holds the exact values
    /// resampling would produce, so the tested-delay quantiles (and with
    /// them the swept clocks) stay bit-identical.
    pub(crate) fn tested_instance_batch(
        &self,
        circuit: &Circuit,
        timing: &CircuitTiming,
        seed: u64,
        n: usize,
    ) -> Arc<sdd_timing::InstanceBatch> {
        self.batches
            .get_or_sample_at(fingerprint_model(circuit, timing), timing, seed, 0, n)
    }

    /// Builds a dictionary through the cache: simulates only the
    /// (baseline, suspect) grids missing under this key, then assembles
    /// the result by counting. This is the one dictionary build path:
    /// [`ProbabilisticDictionary::build_with_behavior`] runs it on a
    /// fresh cache, and because every draw is keyed, a warm cache
    /// answers bit-identically to a fresh one.
    ///
    /// `metrics`, when given, receives one cache hit (nothing simulated)
    /// or miss, and the number of (pattern, sample) simulations run.
    ///
    /// # Panics
    ///
    /// Panics for sequential circuits, empty pattern sets,
    /// `n_samples == 0`, a behaviour matrix whose shape mismatches the
    /// circuit/patterns, or a `None` behaviour under
    /// [`SimKernel::Screened`].
    #[allow(clippy::too_many_arguments)]
    pub fn build_with_behavior(
        &self,
        circuit: &Circuit,
        timing: &CircuitTiming,
        defect_size: &Dist,
        patterns: &PatternSet,
        suspect_edges: &[EdgeId],
        clk: f64,
        config: DictionaryConfig,
        behavior: Option<&BehaviorMatrix>,
        metrics: Option<&MetricsSink>,
    ) -> ProbabilisticDictionary {
        assert!(
            config.n_samples > 0,
            "monte-carlo sample count must be positive"
        );
        assert!(!patterns.is_empty(), "pattern set must be non-empty");
        if let Some(b) = behavior {
            assert_eq!(
                b.num_outputs(),
                circuit.primary_outputs().len(),
                "behavior/output count mismatch"
            );
            assert_eq!(
                b.num_patterns(),
                patterns.len(),
                "behavior/pattern count mismatch"
            );
        }
        if config.kernel == SimKernel::Analytic {
            // The behaviour matrix plays no role here: the joint estimate
            // needs per-sample outcomes, which the analytic kernel does
            // not produce.
            let (m_crt, ordered) = self.analytic_matrices(
                circuit,
                timing,
                defect_size,
                patterns,
                suspect_edges,
                clk,
                config,
                None,
                metrics,
            );
            return assemble_from_probs(clk, m_crt, ordered);
        }
        if config.kernel == SimKernel::Screened {
            return self.build_screened(
                circuit,
                timing,
                defect_size,
                patterns,
                suspect_edges,
                clk,
                config,
                behavior,
                metrics,
            );
        }
        let key = StoreKey::compute(circuit, timing, defect_size, patterns, clk, config);
        self.banks.with(key, |bank| {
            // A never-touched bank may have a checkpoint on disk from an
            // earlier run; a load replaces the entire Monte-Carlo phase.
            if bank.base.is_none() {
                if let Some(store) = &self.store {
                    let n_outputs = circuit.primary_outputs().len();
                    let loaded =
                        store.load(&key, metrics, |r| decode_bank(r, patterns.len(), n_outputs));
                    if let Some(loaded) = loaded {
                        bank.base = Some(loaded.base);
                        bank.suspects = loaded.suspects.into_iter().collect();
                    }
                }
            }
            let (dictionary, grew) = self.build_from_grids(
                bank,
                circuit,
                timing,
                defect_size,
                patterns,
                suspect_edges,
                clk,
                config,
                behavior,
                metrics,
            );
            if grew {
                if let Some(store) = &self.store {
                    // Checkpoint the grown bank (serialization happens
                    // here, under the bank lock, so the snapshot is
                    // consistent; only the file I/O runs in the
                    // background). Suspects go out in arc order so byte
                    // output is deterministic.
                    let mut sorted: Vec<(EdgeId, &SuspectMasks)> =
                        bank.suspects.iter().map(|(e, m)| (*e, m)).collect();
                    sorted.sort_by_key(|(e, _)| e.index());
                    let base = bank.base.as_deref().expect("grown bank has a baseline");
                    store.flush(&key, metrics, |out| encode_bank(out, base, &sorted));
                }
            }
            dictionary
        })
    }

    /// Extends a Monte-Carlo `bank` for `edges` (see
    /// [`SuspectBank::extend`]) with the kernel of `config`, booking the
    /// (pattern, sample) simulations run, then assembles the dictionary
    /// over `edges` by counting. Returns the dictionary and whether the
    /// bank grew.
    #[allow(clippy::too_many_arguments)]
    fn build_from_grids(
        &self,
        bank: &mut GridBank,
        circuit: &Circuit,
        timing: &CircuitTiming,
        defect_size: &Dist,
        patterns: &PatternSet,
        edges: &[EdgeId],
        clk: f64,
        config: DictionaryConfig,
        behavior: Option<&BehaviorMatrix>,
        metrics: Option<&MetricsSink>,
    ) -> (ProbabilisticDictionary, bool) {
        let grew = bank.extend(circuit, edges, metrics, |cones| {
            if let Some(m) = metrics {
                // The screened scheme's one shared population answers
                // every pattern.
                let populations = match config.kernel {
                    SimKernel::Screened => 1,
                    _ => patterns.len(),
                };
                m.add(
                    Counter::SamplesSimulated,
                    (populations * config.n_samples) as u64,
                );
            }
            let per_pattern = simulate_fail_masks(
                circuit,
                timing,
                defect_size,
                patterns,
                cones,
                clk,
                config,
                &self.batches,
                metrics,
            );
            let mut base = Vec::with_capacity(per_pattern.len());
            let mut masks: Vec<SuspectMasks> = cones
                .iter()
                .map(|c| SuspectMasks {
                    reachable: c.reachable_outputs().to_vec(),
                    fails: Vec::with_capacity(per_pattern.len()),
                })
                .collect();
            for (grid, fails) in per_pattern {
                base.push(grid);
                for (m, grid) in masks.iter_mut().zip(fails) {
                    m.fails.push(grid);
                }
            }
            (base, masks)
        });
        let (base, ordered) = bank.select(edges);
        let n_outputs = circuit.primary_outputs().len();
        let dictionary =
            assemble_from_masks(clk, n_outputs, config.n_samples, base, &ordered, behavior);
        (dictionary, grew)
    }

    /// Fetches (or incrementally computes) the analytic probability
    /// matrices for the requested suspects from the memory-only analytic
    /// section: `M_crt` plus one [`AnalyticSuspect`] per edge, in request
    /// order. Shared by the analytic build path and the screened
    /// kernel's stage 1, but *not* across quadrature orders: the bank is
    /// keyed on `(StoreKey, effective order)`, so screened builds reuse
    /// each other's coarse matrices while a plain analytic run keeps its
    /// own default-order bank.
    #[allow(clippy::too_many_arguments)]
    fn analytic_matrices(
        &self,
        circuit: &Circuit,
        timing: &CircuitTiming,
        defect_size: &Dist,
        patterns: &PatternSet,
        suspect_edges: &[EdgeId],
        clk: f64,
        config: DictionaryConfig,
        quad_points: Option<usize>,
        metrics: Option<&MetricsSink>,
    ) -> (ProbMatrix, Vec<(EdgeId, AnalyticSuspect)>) {
        let key = StoreKey::compute(circuit, timing, defect_size, patterns, clk, config);
        let order = quad_points.unwrap_or(sdd_timing::analytic::DEFAULT_QUADRATURE_POINTS);
        self.analytic.with((key, order), |bank| {
            bank.extend(circuit, suspect_edges, metrics, |cones| {
                simulate_fail_probs_analytic(
                    circuit,
                    timing,
                    defect_size,
                    patterns,
                    cones,
                    clk,
                    quad_points,
                    metrics,
                )
            });
            let (m_crt, ordered) = bank.select(suspect_edges);
            let ordered = ordered.into_iter().map(|(e, s)| (e, s.clone())).collect();
            (m_crt.clone(), ordered)
        })
    }

    /// The tiered screened build path ([`SimKernel::Screened`]): stage 1
    /// scores **all** requested suspects with the analytic kernel at the
    /// coarse screening quadrature
    /// ([`SCREEN_QUADRATURE_POINTS`](crate::SCREEN_QUADRATURE_POINTS))
    /// on the failing-richest behaviour columns (the
    /// [`ScreenConfig::screen_patterns`](crate::ScreenConfig) budget),
    /// through the shared in-memory analytic section — so the
    /// chip-independent matrices are computed once per key and reused
    /// across chips, redraws and tenants — and prunes to the top-K
    /// survivors plus margin. Stage 2 refines only the survivors with
    /// the population-consistent draw scheme of the MC kernel
    /// ([`simulate_fail_masks`](crate::dictionary)), whose grids
    /// live in the cache's own screened section: keyed per suspect, so
    /// later screened builds (other chips, other screen budgets) reuse
    /// them, but never visible to batched lookups nor the `.sdds` store
    /// (the draw schemes differ).
    ///
    /// `metrics` books the screen wall-clock plus the
    /// screened/refined suspect counts alongside whatever the two
    /// underlying paths record.
    ///
    /// # Panics
    ///
    /// Panics when `behavior` is `None` — the screen needs an observed
    /// behaviour to score against.
    #[allow(clippy::too_many_arguments)]
    fn build_screened(
        &self,
        circuit: &Circuit,
        timing: &CircuitTiming,
        defect_size: &Dist,
        patterns: &PatternSet,
        suspect_edges: &[EdgeId],
        clk: f64,
        config: DictionaryConfig,
        behavior: Option<&BehaviorMatrix>,
        metrics: Option<&MetricsSink>,
    ) -> ProbabilisticDictionary {
        let behavior =
            behavior.expect("screened kernel requires an observed behaviour to score against");
        let t_screen = std::time::Instant::now();
        let cols =
            crate::dictionary::screen_pattern_columns(behavior, config.screen.screen_patterns);
        let screen_patterns: PatternSet = cols
            .iter()
            .map(|&j| patterns.patterns()[j].clone())
            .collect();
        let (m_a, analytic) = self.analytic_matrices(
            circuit,
            timing,
            defect_size,
            &screen_patterns,
            suspect_edges,
            clk,
            config,
            Some(crate::dictionary::SCREEN_QUADRATURE_POINTS),
            metrics,
        );
        let pairs: Vec<(EdgeId, &AnalyticSuspect)> =
            analytic.iter().map(|(e, s)| (*e, s)).collect();
        let survivors = screen_survivors(&m_a, &pairs, behavior, &cols, config.screen);
        let surviving_edges: Vec<EdgeId> = survivors.iter().map(|&i| suspect_edges[i]).collect();
        if let Some(m) = metrics {
            m.add(Counter::ScreenNanos, t_screen.elapsed().as_nanos() as u64);
            m.add(Counter::SuspectsScreened, suspect_edges.len() as u64);
            m.add(Counter::SuspectsRefined, surviving_edges.len() as u64);
        }
        // Stage 2: population-consistent refinement of the survivors
        // through the screened bank section (memory-only; see the field
        // docs for why these grids never mix with batched banks).
        let key = StoreKey::compute(circuit, timing, defect_size, patterns, clk, config);
        self.screened.with(key, |bank| {
            self.build_from_grids(
                bank,
                circuit,
                timing,
                defect_size,
                patterns,
                &surviving_edges,
                clk,
                config,
                Some(behavior),
                metrics,
            )
            .0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defect::InjectedDefect;
    use crate::diagnoser::{Diagnoser, DiagnoserConfig};
    use sdd_atpg::TestPattern;
    use sdd_netlist::{CircuitBuilder, GateKind};
    use sdd_timing::{CellLibrary, VariationModel};

    fn two_chains() -> (Circuit, CircuitTiming) {
        let mut b = CircuitBuilder::new("tc");
        let a = b.input("a");
        let bb = b.input("b");
        let g1 = b.gate("g1", GateKind::Not, &[a]).unwrap();
        let g2 = b.gate("g2", GateKind::Not, &[g1]).unwrap();
        let h1 = b.gate("h1", GateKind::Not, &[bb]).unwrap();
        let h2 = b.gate("h2", GateKind::Not, &[h1]).unwrap();
        b.output(g2);
        b.output(h2);
        let c = b.finish().unwrap();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::new(0.03, 0.05),
        );
        (c, t)
    }

    fn both_rise() -> PatternSet {
        [TestPattern::new(vec![false, false], vec![true, true])]
            .into_iter()
            .collect()
    }

    fn failing_behavior(c: &Circuit, t: &CircuitTiming, ps: &PatternSet) -> (BehaviorMatrix, f64) {
        let sta = sdd_timing::sta::static_mc(c, t, 200, 1).expect("static MC runs");
        let clk = sta.clock_at_quantile(0.99) * 1.05;
        let chip = t.sample_instance_indexed(77, 0);
        let defect = InjectedDefect {
            edge: c.node(c.find("g1").unwrap()).fanin_edges()[0],
            delta: 0.8,
        };
        (
            BehaviorMatrix::observe(c, ps, &defect.apply(&chip), clk),
            clk,
        )
    }

    fn config() -> DictionaryConfig {
        DictionaryConfig {
            n_samples: 60,
            seed: 12,
            ..DictionaryConfig::default()
        }
    }

    #[test]
    fn cached_build_is_bit_identical_to_fresh() {
        let (c, t) = two_chains();
        let ps = both_rise();
        let (behavior, _) = failing_behavior(&c, &t, &ps);
        let suspects: Vec<EdgeId> = c.edge_ids().collect();
        let size = Dist::defect_size(0.4);
        let clk = behavior.clk();
        for kernel in [
            SimKernel::Batched,
            SimKernel::Scalar,
            SimKernel::Analytic,
            SimKernel::Screened,
        ] {
            let cfg = config().with_kernel(kernel);
            let fresh = ProbabilisticDictionary::build_with_behavior(
                &c,
                &t,
                &size,
                &ps,
                &suspects,
                clk,
                cfg,
                Some(&behavior),
            );
            let cache = DictionaryCache::new();
            let metrics = MetricsSink::new();
            // First pass simulates, second is served entirely from the
            // cache.
            let [first, second] = [0, 1].map(|_| {
                cache.build_with_behavior(
                    &c,
                    &t,
                    &size,
                    &ps,
                    &suspects,
                    clk,
                    cfg,
                    Some(&behavior),
                    Some(&metrics),
                )
            });
            assert_eq!(fresh, first, "{kernel:?}: cold cache diverged");
            assert_eq!(fresh, second, "{kernel:?}: warm cache diverged");
            // A screened build looks up its analytic screen and its
            // refinement bank; every other kernel looks up one section.
            let lookups = if kernel == SimKernel::Screened { 2 } else { 1 };
            let snap = metrics.snapshot(std::time::Duration::ZERO);
            assert_eq!(snap.dict_cache_misses, lookups, "{kernel:?}");
            assert_eq!(snap.dict_cache_hits, lookups, "{kernel:?}");
            let mc_banks = matches!(kernel, SimKernel::Batched | SimKernel::Scalar);
            assert_eq!(cache.num_keys(), usize::from(mc_banks), "{kernel:?}");
        }
    }

    #[test]
    fn subset_from_superset_bank_matches_fresh_subset_build() {
        let (c, t) = two_chains();
        let ps = both_rise();
        let (behavior, _) = failing_behavior(&c, &t, &ps);
        let all: Vec<EdgeId> = c.edge_ids().collect();
        let subset: Vec<EdgeId> = all.iter().copied().take(3).collect();
        let size = Dist::defect_size(0.4);
        let clk = behavior.clk();
        let cache = DictionaryCache::new();
        // Populate the bank with the full suspect set, then request a
        // subset: rows must equal a fresh build of just that subset.
        cache.build_with_behavior(
            &c,
            &t,
            &size,
            &ps,
            &all,
            clk,
            config(),
            Some(&behavior),
            None,
        );
        let from_cache = cache.build_with_behavior(
            &c,
            &t,
            &size,
            &ps,
            &subset,
            clk,
            config(),
            Some(&behavior),
            None,
        );
        let fresh = ProbabilisticDictionary::build_with_behavior(
            &c,
            &t,
            &size,
            &ps,
            &subset,
            clk,
            config(),
            Some(&behavior),
        );
        assert_eq!(fresh, from_cache);
    }

    #[test]
    fn incremental_suspects_extend_the_bank() {
        let (c, t) = two_chains();
        let ps = both_rise();
        let all: Vec<EdgeId> = c.edge_ids().collect();
        let first_half = &all[..all.len() / 2];
        let size = Dist::defect_size(0.4);
        let cache = DictionaryCache::new();
        let metrics = MetricsSink::new();
        cache.build_with_behavior(
            &c,
            &t,
            &size,
            &ps,
            first_half,
            0.25,
            config(),
            None,
            Some(&metrics),
        );
        // New suspects under the same key: a miss (partial simulation),
        // but the result still matches a fresh build.
        let extended = cache.build_with_behavior(
            &c,
            &t,
            &size,
            &ps,
            &all,
            0.25,
            config(),
            None,
            Some(&metrics),
        );
        let fresh = ProbabilisticDictionary::build(&c, &t, &size, &ps, &all, 0.25, config());
        assert_eq!(fresh, extended);
        assert_eq!(
            metrics
                .snapshot(std::time::Duration::ZERO)
                .dict_cache_misses,
            2
        );
    }

    #[test]
    fn distinct_clk_or_patterns_get_distinct_keys() {
        let (c, t) = two_chains();
        let ps = both_rise();
        let suspects: Vec<EdgeId> = c.edge_ids().take(2).collect();
        let size = Dist::defect_size(0.4);
        let cache = DictionaryCache::new();
        cache.build_with_behavior(&c, &t, &size, &ps, &suspects, 0.25, config(), None, None);
        cache.build_with_behavior(&c, &t, &size, &ps, &suspects, 0.30, config(), None, None);
        let other: PatternSet = [TestPattern::new(vec![true, true], vec![false, false])]
            .into_iter()
            .collect();
        cache.build_with_behavior(&c, &t, &size, &other, &suspects, 0.25, config(), None, None);
        assert_eq!(cache.num_keys(), 3);
    }

    #[test]
    fn store_backed_cache_reloads_banks_across_cache_lifetimes() {
        let (c, t) = two_chains();
        let ps = both_rise();
        let (behavior, _) = failing_behavior(&c, &t, &ps);
        let suspects: Vec<EdgeId> = c.edge_ids().collect();
        let size = Dist::defect_size(0.4);
        let clk = behavior.clk();
        let dir = crate::testutil::TestDir::new("cache-store");

        let store = Arc::new(crate::store::DictionaryStore::open(dir.path()).unwrap());
        let warm = DictionaryCache::with_store(Arc::clone(&store));
        let m1 = MetricsSink::new();
        let first = warm.build_with_behavior(
            &c,
            &t,
            &size,
            &ps,
            &suspects,
            clk,
            config(),
            Some(&behavior),
            Some(&m1),
        );
        drop(warm);
        store.sync();
        let s1 = m1.snapshot(std::time::Duration::ZERO);
        assert_eq!(s1.store_misses, 1, "cold run misses the store");
        assert_eq!(s1.store_flushes, 1, "cold run checkpoints its bank");

        // A brand-new cache over the same directory: the Monte-Carlo
        // phase is replaced entirely by the checkpoint load.
        let cold = DictionaryCache::with_store(Arc::new(
            crate::store::DictionaryStore::open(dir.path()).unwrap(),
        ));
        let m2 = MetricsSink::new();
        let second = cold.build_with_behavior(
            &c,
            &t,
            &size,
            &ps,
            &suspects,
            clk,
            config(),
            Some(&behavior),
            Some(&m2),
        );
        assert_eq!(first, second, "loaded bank diverged from simulated bank");
        let s2 = m2.snapshot(std::time::Duration::ZERO);
        assert_eq!(s2.store_hits, 1, "warm run loads from disk");
        assert_eq!(s2.samples_simulated, 0, "warm run simulates nothing");
    }

    #[test]
    fn pattern_cache_serves_memory_then_store_then_generates() {
        let c = sdd_netlist::generator::generate(&sdd_netlist::generator::GeneratorConfig::small(
            "patcache", 17,
        ))
        .unwrap()
        .to_combinational()
        .unwrap();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::new(0.03, 0.05),
        );
        let atpg = AtpgConfig {
            n_paths: 3,
            max_patterns: 8,
            path_config: sdd_atpg::podem::PodemConfig::bulk(),
            podem_config: sdd_atpg::podem::PodemConfig::bulk(),
        };
        let site = c.edge_ids().nth(4).unwrap();
        let fresh = crate::inject::patterns_through_site_with(
            &c,
            &t,
            site,
            atpg.n_paths,
            atpg.max_patterns,
            5,
            atpg.path_config,
            atpg.podem_config,
        );

        let dir = crate::testutil::TestDir::new("pattern-cache");
        let store = Arc::new(crate::store::DictionaryStore::open(dir.path()).unwrap());
        let cache = DictionaryCache::with_store(Arc::clone(&store));
        let m = MetricsSink::new();
        let first = cache.patterns_for_site(&c, &t, site, &atpg, 5, Some(&m));
        assert_eq!(*first, fresh, "cached generation diverged from direct call");
        let second = cache.patterns_for_site(&c, &t, site, &atpg, 5, Some(&m));
        assert!(Arc::ptr_eq(&first, &second), "memory hit re-generated");
        let snap = m.snapshot(std::time::Duration::ZERO);
        assert_eq!(snap.pattern_cache_misses, 1);
        assert_eq!(snap.pattern_cache_hits, 1);
        assert_eq!(snap.pattern_store_misses, 1, "cold store probed once");
        assert_eq!(snap.pattern_store_flushes, 1);
        assert_eq!(cache.num_pattern_keys(), 1);
        drop(cache);
        store.sync();

        // A brand-new cache over the same directory loads the checkpoint
        // instead of re-running ATPG.
        let cold = DictionaryCache::with_store(Arc::new(
            crate::store::DictionaryStore::open(dir.path()).unwrap(),
        ));
        let m2 = MetricsSink::new();
        let reloaded = cold.patterns_for_site(&c, &t, site, &atpg, 5, Some(&m2));
        assert_eq!(*reloaded, fresh, "stored patterns diverged");
        let snap2 = m2.snapshot(std::time::Duration::ZERO);
        assert_eq!(snap2.pattern_store_hits, 1, "warm run loads from disk");
        assert_eq!(
            snap2.pattern_store_flushes, 0,
            "a loaded set is not re-flushed"
        );

        // A different seed or site is a distinct key.
        cold.patterns_for_site(&c, &t, site, &atpg, 6, None);
        assert_eq!(cold.num_pattern_keys(), 2);
    }

    #[test]
    fn degenerate_batch_memo_bound_preserves_campaign_reports() {
        // A cache squeezed to a one-value chip-batch memo evicts
        // constantly yet must answer bit-identically to a roomy one:
        // batches are keyed draws, so recomputation reproduces them.
        let c = sdd_netlist::generator::generate(&sdd_netlist::profiles::S27.to_config(7))
            .unwrap()
            .to_combinational()
            .unwrap();
        let cfg = crate::inject::CampaignConfig::quick(7);
        let run = |cache: &DictionaryCache| {
            crate::inject::run_campaign_on_with(&c, &cfg, 1, cache, &MetricsSink::new()).unwrap()
        };
        let tiny = DictionaryCache {
            batches: BatchCache::with_capacity(1),
            ..DictionaryCache::default()
        };
        assert_eq!(
            run(&tiny),
            run(&DictionaryCache::new()),
            "batch-memo bound changed an answer"
        );
    }

    #[test]
    fn cached_rankings_match_fresh_rankings() {
        let (c, t) = two_chains();
        let ps = both_rise();
        let (behavior, _) = failing_behavior(&c, &t, &ps);
        let d = Diagnoser::new(
            &c,
            &t,
            &ps,
            Dist::defect_size(0.8),
            DiagnoserConfig {
                dictionary: config(),
            },
        );
        let fresh = d.diagnose_all(&behavior).unwrap();
        let cache = DictionaryCache::new();
        let cached_diagnoser = d.clone().with_cache(&cache);
        for _ in 0..2 {
            let cached = cached_diagnoser.diagnose_all(&behavior).unwrap();
            assert_eq!(fresh.len(), cached.len());
            for ((ff, fr), (cf, cr)) in fresh.iter().zip(&cached) {
                assert_eq!(ff, cf);
                assert_eq!(fr, cr, "{} ranking diverged through the cache", ff.name());
            }
        }
    }
}
