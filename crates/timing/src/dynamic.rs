//! Dynamic (per-pattern) timing simulation over the sensitized subcircuit.
//!
//! Dynamic timing simulation (Definition D.5) computes arrival times only
//! for signals that actually *switch* under a two-vector test pattern —
//! the induced circuit `Induced(Path_v)` of Definition D.3. This module
//! implements the standard transition-mode approximation: a switching
//! node's arrival is the latest arrival over its switching fanins plus the
//! arc delay; non-switching nodes carry no event ([`NO_EVENT`]).
//!
//! For defect-injected re-analysis, [`DefectCone`] recomputes only the
//! fanout cone of the defective arc against cached baseline arrivals,
//! which is what makes probabilistic-dictionary construction tractable
//! (hundreds of suspects × tens of patterns × hundreds of Monte-Carlo
//! samples).
//!
//! The glitch-exact engine lives in [`crate::waveform`]; see the
//! `engine_consistency` integration tests for the relationship between
//! the two.

use crate::{InstanceBatch, TimingInstance};
use sdd_netlist::logic::Transition;
use sdd_netlist::{Circuit, ConeView, EdgeId, GateKind, NodeId, EXTERNAL};

/// Arrival-time marker for a node with no event under the pattern.
pub const NO_EVENT: f64 = f64::NEG_INFINITY;

/// Computes per-node transition arrival times for one pattern (described
/// by its per-node [`Transition`] classification, from
/// [`sdd_netlist::logic::simulate_pair`]) on one fixed chip instance.
///
/// Switching primary inputs launch at time 0; a switching gate arrives at
/// `max over switching fanins (arrival + arc delay)`; non-switching nodes
/// get [`NO_EVENT`].
///
/// # Panics
///
/// Panics if the circuit is sequential or `transitions.len()` mismatches.
pub fn transition_arrivals(
    circuit: &Circuit,
    transitions: &[Transition],
    instance: &TimingInstance,
) -> Vec<f64> {
    assert!(
        circuit.is_combinational(),
        "dynamic timing requires a combinational circuit"
    );
    assert_eq!(
        transitions.len(),
        circuit.num_nodes(),
        "transition table length mismatch"
    );
    let mut arr = vec![NO_EVENT; circuit.num_nodes()];
    for &id in circuit.topo_order() {
        if !transitions[id.index()].is_event() {
            continue;
        }
        let node = circuit.node(id);
        if node.kind() == GateKind::Input {
            arr[id.index()] = 0.0;
            continue;
        }
        arr[id.index()] = gate_arrival(node.fanins(), node.fanin_edges(), &arr, instance);
    }
    arr
}

/// Poison-tracking variant of [`transition_arrivals`] for instances
/// carrying non-finite delays (corrupt timing data).
///
/// The fast walks silently swallow a NaN candidate (`NaN > best` is
/// false), so a NaN delay on an exercised arc degrades to [`NO_EVENT`]
/// and would read as *pass* at any clock — fail-open. This walk instead
/// poisons a node's arrival to NaN when any *switching* fanin arc
/// carries a non-finite delay, or when a switching fanin is itself
/// poisoned; non-switching fanins still propagate nothing (their delay
/// is never exercised). Clock-edge capture treats a NaN arrival as fail.
///
/// On an all-finite instance this is exactly [`transition_arrivals`];
/// the observe path only dispatches here when
/// `instance.delays()` contains a non-finite value, keeping the hot
/// path branchless.
///
/// # Panics
///
/// Panics if the circuit is sequential or `transitions.len()` mismatches.
pub fn transition_arrivals_fail_closed(
    circuit: &Circuit,
    transitions: &[Transition],
    instance: &TimingInstance,
) -> Vec<f64> {
    assert!(
        circuit.is_combinational(),
        "dynamic timing requires a combinational circuit"
    );
    assert_eq!(
        transitions.len(),
        circuit.num_nodes(),
        "transition table length mismatch"
    );
    let mut arr = vec![NO_EVENT; circuit.num_nodes()];
    for &id in circuit.topo_order() {
        if !transitions[id.index()].is_event() {
            continue;
        }
        let node = circuit.node(id);
        if node.kind() == GateKind::Input {
            arr[id.index()] = 0.0;
            continue;
        }
        let mut best = NO_EVENT;
        let mut poisoned = false;
        for (&from, &e) in node.fanins().iter().zip(node.fanin_edges()) {
            let upstream = arr[from.index()];
            if upstream == NO_EVENT {
                continue;
            }
            let d = instance.delay(e);
            if upstream.is_nan() || !d.is_finite() {
                poisoned = true;
                continue;
            }
            let cand = upstream + d;
            if cand > best {
                best = cand;
            }
        }
        arr[id.index()] = if poisoned { f64::NAN } else { best };
    }
    arr
}

#[inline]
fn gate_arrival(
    fanins: &[NodeId],
    fanin_edges: &[EdgeId],
    arr: &[f64],
    instance: &TimingInstance,
) -> f64 {
    let mut best = NO_EVENT;
    for (&from, &e) in fanins.iter().zip(fanin_edges) {
        let upstream = arr[from.index()];
        if upstream == NO_EVENT {
            continue;
        }
        let cand = upstream + instance.delay(e);
        if cand > best {
            best = cand;
        }
    }
    best
}

/// Computes per-node transition arrival times for one pattern across a
/// whole [`InstanceBatch`] of chip instances in one pass.
///
/// Returns the node-major, sample-contiguous arrival matrix
/// `arr[node.index() * n_samples + s]` — the batched counterpart of the
/// vector [`transition_arrivals`] returns, and bit-identical to running
/// that function once per sample: each sample sees the same sequence of
/// add/max operations, only the loop nest is interchanged.
///
/// # Panics
///
/// Panics if the circuit is sequential or `transitions.len()` mismatches.
pub fn transition_arrivals_batch(
    circuit: &Circuit,
    transitions: &[Transition],
    batch: &InstanceBatch,
) -> Vec<f64> {
    assert!(
        circuit.is_combinational(),
        "dynamic timing requires a combinational circuit"
    );
    assert_eq!(
        transitions.len(),
        circuit.num_nodes(),
        "transition table length mismatch"
    );
    let n = batch.n_samples();
    let mut arr = vec![NO_EVENT; circuit.num_nodes() * n];
    // Node indices are not topologically ordered, so a node's row and a
    // fanin's row cannot be split borrow-wise; accumulate into a scratch
    // row and copy it into place.
    let mut row = vec![NO_EVENT; n];
    for &id in circuit.topo_order() {
        if !transitions[id.index()].is_event() {
            continue;
        }
        let node = circuit.node(id);
        if node.kind() == GateKind::Input {
            arr[id.index() * n..(id.index() + 1) * n].fill(0.0);
            continue;
        }
        row.fill(NO_EVENT);
        for (&from, &e) in node.fanins().iter().zip(node.fanin_edges()) {
            let ups = &arr[from.index() * n..(from.index() + 1) * n];
            let ds = batch.edge_delays(e);
            for s in 0..n {
                let upstream = ups[s];
                if upstream == NO_EVENT {
                    continue;
                }
                let cand = upstream + ds[s];
                if cand > row[s] {
                    row[s] = cand;
                }
            }
        }
        arr[id.index() * n..(id.index() + 1) * n].copy_from_slice(&row);
    }
    arr
}

/// Number of pattern lanes per inner-loop step of
/// [`transition_arrivals_patterns`]. Rows are padded to a multiple of
/// this width so every inner loop is a fixed-width, unit-stride pass —
/// the shape autovectorizers reliably turn into SIMD, mirroring the
/// sample lanes of [`InstanceBatch`].
pub const PATTERN_LANES: usize = 8;

/// Row stride (in `f64` slots) used by [`transition_arrivals_patterns`]
/// for `n_patterns` patterns: the pattern count rounded up to a whole
/// number of [`PATTERN_LANES`]-wide lanes.
pub fn pattern_stride(n_patterns: usize) -> usize {
    n_patterns.div_ceil(PATTERN_LANES).max(1) * PATTERN_LANES
}

/// Computes per-node transition arrival times for *every* pattern of a
/// test set through one topology walk on one fixed chip instance — the
/// pattern-major counterpart of [`transition_arrivals_batch`]'s
/// sample-major walk.
///
/// Returns the node-major, pattern-contiguous arrival matrix
/// `arr[node.index() * pattern_stride(p) + j]` for pattern `j`; padding
/// lanes (`j >= transitions.len()`) hold [`NO_EVENT`].
///
/// Bit-identity with the scalar walk: the inner loop is branchless per
/// lane (`cand = upstream + d; if cand > best { best = cand }`) where the
/// scalar [`transition_arrivals`] explicitly skips fanins with no event.
/// The two accept exactly the same updates: a [`NO_EVENT`] upstream
/// yields a candidate of `-∞` (or NaN when `d` is `+∞` or NaN), and
/// neither ever satisfies the strict `>`, so skipping and computing are
/// indistinguishable — each lane sees the same sequence of accepted
/// float operations as its own scalar run, including on NaN-poisoned
/// instances.
///
/// # Panics
///
/// Panics if the circuit is sequential or any transition table length
/// mismatches.
pub fn transition_arrivals_patterns(
    circuit: &Circuit,
    transitions: &[Vec<Transition>],
    instance: &TimingInstance,
) -> Vec<f64> {
    assert!(
        circuit.is_combinational(),
        "dynamic timing requires a combinational circuit"
    );
    for t in transitions {
        assert_eq!(
            t.len(),
            circuit.num_nodes(),
            "transition table length mismatch"
        );
    }
    let p = transitions.len();
    let stride = pattern_stride(p);
    let mut arr = vec![NO_EVENT; circuit.num_nodes() * stride];
    if p == 0 {
        return arr;
    }
    let mut row = vec![NO_EVENT; stride];
    for &id in circuit.topo_order() {
        let ix = id.index();
        let node = circuit.node(id);
        if node.kind() == GateKind::Input {
            let out = &mut arr[ix * stride..(ix + 1) * stride];
            for (j, t) in transitions.iter().enumerate() {
                if t[ix].is_event() {
                    out[j] = 0.0;
                }
            }
            continue;
        }
        // A node no pattern switches keeps its all-NO_EVENT row; skipping
        // it entirely preserves bit-identity (the scalar walk never
        // touches it either).
        if !transitions.iter().any(|t| t[ix].is_event()) {
            continue;
        }
        row.fill(NO_EVENT);
        for (&from, &e) in node.fanins().iter().zip(node.fanin_edges()) {
            let d = instance.delay(e);
            let ups = &arr[from.index() * stride..(from.index() + 1) * stride];
            for (rc, uc) in row
                .chunks_exact_mut(PATTERN_LANES)
                .zip(ups.chunks_exact(PATTERN_LANES))
            {
                for l in 0..PATTERN_LANES {
                    let cand = uc[l] + d;
                    if cand > rc[l] {
                        rc[l] = cand;
                    }
                }
            }
        }
        // Mask at write time: only lanes whose pattern actually switches
        // this node carry an event; padding and non-switching lanes stay
        // NO_EVENT exactly as in the scalar walk.
        let out = &mut arr[ix * stride..(ix + 1) * stride];
        for (j, t) in transitions.iter().enumerate() {
            if t[ix].is_event() {
                out[j] = row[j];
            }
        }
    }
    arr
}

/// Extracts the per-output arrival times (in primary-output order) from a
/// full arrival table.
pub fn output_arrivals(circuit: &Circuit, arrivals: &[f64]) -> Vec<f64> {
    circuit
        .primary_outputs()
        .iter()
        .map(|o| arrivals[o.index()])
        .collect()
}

/// Incremental re-evaluator for a delay defect on one arc.
///
/// Construction extracts the [`ConeView`] of the arc's sink — the
/// topologically ordered induced fanout cone with cone-local arc
/// renumbering — in time proportional to the cone, not the circuit.
/// Given baseline (defect-free) arrivals for a pattern and instance,
/// [`DefectCone::apply`] recomputes only cone nodes with the defect's
/// extra delay applied, writing into a cone-sized scratch buffer.
#[derive(Debug, Clone)]
pub struct DefectCone {
    edge: EdgeId,
    view: ConeView,
    reachable_outputs: Vec<usize>,
}

impl DefectCone {
    /// Builds the cone for a defect on `edge` in `O(cone · log cone)`.
    pub fn new(circuit: &Circuit, edge: EdgeId) -> DefectCone {
        let sink = circuit.edge(edge).to();
        let view = circuit.cone_view(sink);
        let reachable_outputs = view.output_slots().iter().map(|&(p, _)| p).collect();
        DefectCone {
            edge,
            view,
            reachable_outputs,
        }
    }

    /// The defective arc.
    pub fn edge(&self) -> EdgeId {
        self.edge
    }

    /// The underlying cone view (topologically ordered induced cone with
    /// cone-local arc renumbering); exposed for the analytic kernel,
    /// which replays the same induced-cone walk on moments instead of
    /// samples.
    pub fn view(&self) -> &ConeView {
        &self.view
    }

    /// The cone's nodes in topological order (the walk order of
    /// [`DefectCone::apply`]).
    pub fn cone_topo(&self) -> &[NodeId] {
        self.view.nodes()
    }

    /// The cone-local slot of `node`, or `None` if the node is outside
    /// the cone (its arrival is never touched by this defect).
    pub fn slot_of(&self, circuit: &Circuit, node: NodeId) -> Option<usize> {
        self.view.slot_of_in(circuit, node)
    }

    /// Number of nodes in the cone.
    pub fn len(&self) -> usize {
        self.view.len()
    }

    /// Returns `true` if the cone is empty (cannot happen for a valid arc).
    pub fn is_empty(&self) -> bool {
        self.view.is_empty()
    }

    /// Positions (in [`Circuit::primary_outputs`] order) of the outputs
    /// reachable from the defect site. Outputs not listed here are
    /// provably unaffected by the defect: their error probabilities equal
    /// the defect-free baseline.
    pub fn reachable_outputs(&self) -> &[usize] {
        &self.reachable_outputs
    }

    /// Recomputes arrivals of cone nodes with `delta` extra delay on the
    /// defective arc, then returns the arrival at each reachable output
    /// (in the order of [`DefectCone::reachable_outputs`]).
    ///
    /// `baseline` must be the defect-free arrival table for the same
    /// pattern and instance (from [`transition_arrivals`]); `scratch` is
    /// a reusable buffer, resized to the cone length (slot-indexed) and
    /// overwritten — per-suspect work and memory both scale with the
    /// cone, not the circuit.
    ///
    /// # Panics
    ///
    /// Panics if `baseline` mismatches the circuit.
    #[allow(clippy::too_many_arguments)]
    pub fn apply(
        &self,
        circuit: &Circuit,
        transitions: &[Transition],
        instance: &TimingInstance,
        baseline: &[f64],
        delta: f64,
        scratch: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        assert_eq!(
            baseline.len(),
            circuit.num_nodes(),
            "baseline length mismatch"
        );
        let view = &self.view;
        scratch.clear();
        scratch.resize(view.len(), NO_EVENT);
        let arc_slots = view.arc_slots();
        let arc_sources = view.arc_sources();
        let arc_edges = view.arc_edges();
        for (slot, &id) in view.nodes().iter().enumerate() {
            if !transitions[id.index()].is_event() {
                scratch[slot] = NO_EVENT;
                continue;
            }
            if circuit.node(id).kind() == GateKind::Input {
                scratch[slot] = 0.0;
                continue;
            }
            let mut best = NO_EVENT;
            for k in view.arc_range(slot) {
                let fs = arc_slots[k];
                let upstream = if fs != EXTERNAL {
                    scratch[fs as usize]
                } else {
                    baseline[arc_sources[k].index()]
                };
                if upstream == NO_EVENT {
                    continue;
                }
                let e = arc_edges[k];
                let mut d = instance.delay(e);
                if e == self.edge {
                    d += delta;
                }
                let cand = upstream + d;
                if cand > best {
                    best = cand;
                }
            }
            scratch[slot] = best;
        }
        out.clear();
        out.extend(
            view.output_slots()
                .iter()
                .map(|&(_, slot)| scratch[slot as usize]),
        );
    }

    /// Batched, sample-major counterpart of [`DefectCone::apply`] for a
    /// group of suspects: one walk over a shared cone topology
    /// recomputes the cone's arrivals for *every* sample of an
    /// [`InstanceBatch`] and *every* suspect in `group` at once, then
    /// calls `on_fail(suspect, sample, slot)` for every (suspect, sample)
    /// whose arrival at reachable-output slot `slot` strictly exceeds
    /// the cut-off period `clk`. A one-cone group is the single-suspect
    /// case.
    ///
    /// The per-node transition lookups, arc dereferences and delay-slice
    /// fetches are hoisted out of the sample loop and amortized over the
    /// group, and every per-edge delay read is one contiguous slice.
    /// All cones in `group` must share the same sink node (defects on
    /// different input arcs of one gate), and therefore the same
    /// [`ConeView`]; the walk runs on `group[0]`'s view. Per (suspect,
    /// sample) lane the arithmetic is the exact operation sequence of
    /// [`DefectCone::apply`], so the pass/fail outcomes are
    /// bit-identical to the scalar path.
    ///
    /// * `baseline` — the defect-free arrival matrix for the same pattern
    ///   and batch, from [`transition_arrivals_batch`] (node-major,
    ///   sample-contiguous).
    /// * `deltas` — suspect-major defect sizes: `deltas[g * n_samples + s]`
    ///   is suspect `g`'s extra delay for sample `s`.
    /// * `scratch` — reusable buffer, resized to
    ///   `cone.len() × group.len() × n_samples` (slot-major, then
    ///   suspect, sample-contiguous) and overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `group` is empty, the cones disagree on sink/view shape,
    /// or `baseline`/`deltas` mismatch the circuit/batch shape.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_batch_fused(
        group: &[&DefectCone],
        circuit: &Circuit,
        transitions: &[Transition],
        batch: &InstanceBatch,
        baseline: &[f64],
        deltas: &[f64],
        clk: f64,
        scratch: &mut Vec<f64>,
        mut on_fail: impl FnMut(usize, usize, usize),
    ) {
        let lead = group.first().expect("empty cone group");
        let sink = circuit.edge(lead.edge).to();
        for c in group {
            assert_eq!(
                circuit.edge(c.edge).to(),
                sink,
                "fused cones must share a sink node"
            );
            debug_assert_eq!(c.view.nodes(), lead.view.nodes());
        }
        let n = batch.n_samples();
        let ng = group.len();
        assert_eq!(
            baseline.len(),
            circuit.num_nodes() * n,
            "baseline matrix shape mismatch"
        );
        assert_eq!(deltas.len(), ng * n, "delta matrix shape mismatch");
        let view = &lead.view;
        scratch.clear();
        scratch.resize(view.len() * ng * n, NO_EVENT);
        let arc_slots = view.arc_slots();
        let arc_sources = view.arc_sources();
        let arc_edges = view.arc_edges();
        for (slot, &id) in view.nodes().iter().enumerate() {
            let (earlier, rest) = scratch.split_at_mut(slot * ng * n);
            let rows = &mut rest[..ng * n];
            if !transitions[id.index()].is_event() {
                continue; // rows stay NO_EVENT
            }
            if circuit.node(id).kind() == GateKind::Input {
                rows.fill(0.0);
                continue;
            }
            for k in view.arc_range(slot) {
                let fs = arc_slots[k];
                let e = arc_edges[k];
                let ds = batch.edge_delays(e);
                for (g, row) in rows.chunks_exact_mut(n).enumerate() {
                    let ups: &[f64] = if fs != EXTERNAL {
                        let base = (fs as usize * ng + g) * n;
                        &earlier[base..base + n]
                    } else {
                        let from = arc_sources[k];
                        &baseline[from.index() * n..(from.index() + 1) * n]
                    };
                    if e == group[g].edge {
                        let dl = &deltas[g * n..(g + 1) * n];
                        for s in 0..n {
                            let upstream = ups[s];
                            if upstream == NO_EVENT {
                                continue;
                            }
                            let cand = upstream + (ds[s] + dl[s]);
                            if cand > row[s] {
                                row[s] = cand;
                            }
                        }
                    } else {
                        for s in 0..n {
                            let upstream = ups[s];
                            if upstream == NO_EVENT {
                                continue;
                            }
                            let cand = upstream + ds[s];
                            if cand > row[s] {
                                row[s] = cand;
                            }
                        }
                    }
                }
            }
        }
        for (k, &(_, slot)) in view.output_slots().iter().enumerate() {
            let slot = slot as usize;
            for g in 0..ng {
                let row = &scratch[(slot * ng + g) * n..(slot * ng + g + 1) * n];
                for (s, &arr) in row.iter().enumerate() {
                    if arr > clk {
                        on_fail(g, s, k);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellLibrary, CircuitTiming, VariationModel};
    use sdd_netlist::generator::{generate, GeneratorConfig};
    use sdd_netlist::logic::simulate_pair;
    use sdd_netlist::{CircuitBuilder, GateKind};

    fn reconv() -> (Circuit, CircuitTiming) {
        // y = AND(BUF(a), NOT(c)); arcs: a->g1 (1.0), c->g2 (2.0),
        // g1->y (0.5), g2->y (0.5)
        let mut b = CircuitBuilder::new("r");
        let a = b.input("a");
        let c = b.input("c");
        let g1 = b.gate("g1", GateKind::Buf, &[a]).unwrap();
        let g2 = b.gate("g2", GateKind::Not, &[c]).unwrap();
        let y = b.gate("y", GateKind::And, &[g1, g2]).unwrap();
        b.output(y);
        let circuit = b.finish().unwrap();
        let timing = CircuitTiming::from_means(vec![1.0, 2.0, 0.5, 0.5], VariationModel::none());
        (circuit, timing)
    }

    #[test]
    fn only_switching_nodes_get_events() {
        let (c, t) = reconv();
        // a rises (0->1), c stays 0: g1 rises, g2 stable 1, y rises.
        let trans = simulate_pair(&c, &[false, false], &[true, false]);
        let arr = transition_arrivals(&c, &trans, &t.nominal_instance());
        let g2 = c.find("g2").unwrap();
        assert_eq!(arr[g2.index()], NO_EVENT);
        let y = c.find("y").unwrap();
        assert!((arr[y.index()] - 1.5).abs() < 1e-12); // a->g1->y = 1.0 + 0.5
    }

    #[test]
    fn latest_switching_fanin_wins() {
        let (c, t) = reconv();
        // a rises and c falls: g1 rises (arr 1.0), g2 rises (arr 2.0),
        // y rises at max(1.0, 2.0) + 0.5 = 2.5.
        let trans = simulate_pair(&c, &[false, true], &[true, false]);
        let arr = transition_arrivals(&c, &trans, &t.nominal_instance());
        let y = c.find("y").unwrap();
        assert!((arr[y.index()] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn defect_cone_matches_full_recompute() {
        let c = generate(&GeneratorConfig::small("dc", 8))
            .unwrap()
            .to_combinational()
            .unwrap();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::default(),
        );
        let instance = t.sample_instance_indexed(3, 0);
        let n_pi = c.primary_inputs().len();
        let v1 = vec![false; n_pi];
        let v2 = vec![true; n_pi];
        let trans = simulate_pair(&c, &v1, &v2);
        let baseline = transition_arrivals(&c, &trans, &instance);

        let mut scratch = vec![NO_EVENT; c.num_nodes()];
        let mut got = Vec::new();
        for eid in c.edge_ids().take(40) {
            let delta = 0.33;
            let cone = DefectCone::new(&c, eid);
            cone.apply(
                &c,
                &trans,
                &instance,
                &baseline,
                delta,
                &mut scratch,
                &mut got,
            );
            // Reference: full recompute on a defective instance.
            let defective = instance.with_extra_delay(eid, delta);
            let full = transition_arrivals(&c, &trans, &defective);
            let outputs = c.primary_outputs();
            for (k, &oi) in cone.reachable_outputs().iter().enumerate() {
                let want = full[outputs[oi].index()];
                assert!(
                    (got[k] - want).abs() < 1e-9 || (got[k] == NO_EVENT && want == NO_EVENT),
                    "edge {eid} output {oi}: cone {} vs full {}",
                    got[k],
                    want
                );
            }
            // Unreachable outputs must be untouched by the defect.
            for (oi, o) in outputs.iter().enumerate() {
                if !cone.reachable_outputs().contains(&oi) {
                    assert_eq!(full[o.index()], baseline[o.index()]);
                }
            }
        }
    }

    #[test]
    fn zero_delta_reproduces_baseline() {
        let (c, t) = reconv();
        let inst = t.nominal_instance();
        let trans = simulate_pair(&c, &[false, true], &[true, false]);
        let baseline = transition_arrivals(&c, &trans, &inst);
        let cone = DefectCone::new(&c, EdgeId::from_index(0));
        let mut scratch = vec![NO_EVENT; c.num_nodes()];
        let mut got = Vec::new();
        cone.apply(&c, &trans, &inst, &baseline, 0.0, &mut scratch, &mut got);
        let outputs = c.primary_outputs();
        for (k, &oi) in cone.reachable_outputs().iter().enumerate() {
            assert_eq!(got[k], baseline[outputs[oi].index()]);
        }
    }

    #[test]
    fn cone_reachable_outputs_are_correct() {
        let (c, _) = reconv();
        // Defect on arc a->g1: reaches y (the only output).
        let cone = DefectCone::new(&c, EdgeId::from_index(0));
        assert_eq!(cone.reachable_outputs(), &[0]);
        assert_eq!(cone.len(), 2); // g1, y
        assert!(!cone.is_empty());
    }

    #[test]
    fn batch_arrivals_match_scalar_bit_for_bit() {
        let c = generate(&GeneratorConfig::small("ba", 5))
            .unwrap()
            .to_combinational()
            .unwrap();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::default(),
        );
        let instances: Vec<_> = (0..7).map(|s| t.sample_instance_indexed(11, s)).collect();
        let batch = InstanceBatch::from_instances(&instances);
        let n_pi = c.primary_inputs().len();
        let trans = simulate_pair(&c, &vec![false; n_pi], &vec![true; n_pi]);
        let arr = transition_arrivals_batch(&c, &trans, &batch);
        for (s, inst) in instances.iter().enumerate() {
            let scalar = transition_arrivals(&c, &trans, inst);
            for (node, &want) in scalar.iter().enumerate() {
                assert_eq!(
                    arr[node * 7 + s].to_bits(),
                    want.to_bits(),
                    "node {node} sample {s}"
                );
            }
        }
    }

    #[test]
    fn pattern_arrivals_match_scalar_bit_for_bit() {
        let c = generate(&GeneratorConfig::small("pa", 6))
            .unwrap()
            .to_combinational()
            .unwrap();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::default(),
        );
        let instance = t.sample_instance_indexed(17, 2);
        let n_pi = c.primary_inputs().len();
        // A pattern count deliberately not a multiple of PATTERN_LANES.
        let patterns: Vec<(Vec<bool>, Vec<bool>)> = (0..11)
            .map(|j| {
                let v1: Vec<bool> = (0..n_pi).map(|i| (i + j) % 3 == 0).collect();
                let v2: Vec<bool> = (0..n_pi).map(|i| (i * 7 + j) % 2 == 0).collect();
                (v1, v2)
            })
            .collect();
        let trans: Vec<Vec<Transition>> = patterns
            .iter()
            .map(|(v1, v2)| simulate_pair(&c, v1, v2))
            .collect();
        let stride = pattern_stride(trans.len());
        let arr = transition_arrivals_patterns(&c, &trans, &instance);
        for (j, tj) in trans.iter().enumerate() {
            let scalar = transition_arrivals(&c, tj, &instance);
            for (node, &want) in scalar.iter().enumerate() {
                assert_eq!(
                    arr[node * stride + j].to_bits(),
                    want.to_bits(),
                    "node {node} pattern {j}"
                );
            }
        }
        // Padding lanes carry no event.
        for node in 0..c.num_nodes() {
            for j in trans.len()..stride {
                assert_eq!(arr[node * stride + j], NO_EVENT);
            }
        }
    }

    #[test]
    fn pattern_arrivals_match_scalar_on_nan_poisoned_instance() {
        let c = generate(&GeneratorConfig::small("pn", 3))
            .unwrap()
            .to_combinational()
            .unwrap();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::default(),
        );
        let mut instance = t.sample_instance_indexed(5, 1);
        instance.set_delay(EdgeId::from_index(1), f64::NAN);
        instance.set_delay(EdgeId::from_index(3), f64::INFINITY);
        let n_pi = c.primary_inputs().len();
        let trans: Vec<Vec<Transition>> = (0..5)
            .map(|j| {
                let v1: Vec<bool> = (0..n_pi).map(|i| (i + j) % 2 == 0).collect();
                let v2: Vec<bool> = (0..n_pi).map(|_| true).collect();
                simulate_pair(&c, &v1, &v2)
            })
            .collect();
        let stride = pattern_stride(trans.len());
        let arr = transition_arrivals_patterns(&c, &trans, &instance);
        for (j, tj) in trans.iter().enumerate() {
            let scalar = transition_arrivals(&c, tj, &instance);
            for (node, &want) in scalar.iter().enumerate() {
                assert_eq!(
                    arr[node * stride + j].to_bits(),
                    want.to_bits(),
                    "node {node} pattern {j}"
                );
            }
        }
    }

    #[test]
    fn fused_cone_groups_match_scalar_apply() {
        let c = generate(&GeneratorConfig::small("fg", 13))
            .unwrap()
            .to_combinational()
            .unwrap();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::default(),
        );
        let n = 6usize;
        let instances: Vec<_> = (0..n)
            .map(|s| t.sample_instance_indexed(8, s as u64))
            .collect();
        let batch = InstanceBatch::from_instances(&instances);
        let n_pi = c.primary_inputs().len();
        let trans = simulate_pair(&c, &vec![false; n_pi], &vec![true; n_pi]);
        let baseline = transition_arrivals_batch(&c, &trans, &batch);
        let clk = baseline
            .iter()
            .copied()
            .filter(|a| a.is_finite())
            .fold(0.0f64, f64::max)
            * 0.6;
        // Group every edge by sink node and run every group, singletons
        // included, through the fused kernel.
        let mut by_sink: std::collections::BTreeMap<usize, Vec<EdgeId>> =
            std::collections::BTreeMap::new();
        for eid in c.edge_ids() {
            by_sink
                .entry(c.edge(eid).to().index())
                .or_default()
                .push(eid);
        }
        let scalar_baselines: Vec<Vec<f64>> = instances
            .iter()
            .map(|inst| transition_arrivals(&c, &trans, inst))
            .collect();
        let mut scratch_fused = Vec::new();
        let mut scratch_scalar = vec![NO_EVENT; c.num_nodes()];
        let mut out = Vec::new();
        let (mut singletons, mut multis, mut fails, mut lanes) = (0, 0, 0, 0);
        for edges in by_sink.values() {
            let cones: Vec<DefectCone> = edges.iter().map(|&e| DefectCone::new(&c, e)).collect();
            let refs: Vec<&DefectCone> = cones.iter().collect();
            let ng = refs.len();
            if ng == 1 {
                singletons += 1;
            } else {
                multis += 1;
            }
            let deltas: Vec<f64> = (0..ng * n).map(|i| 0.02 * (i as f64 + 1.0)).collect();
            let width = cones[0].reachable_outputs().len();
            let mut fused = vec![vec![vec![false; width]; n]; ng];
            DefectCone::apply_batch_fused(
                &refs,
                &c,
                &trans,
                &batch,
                &baseline,
                &deltas,
                clk,
                &mut scratch_fused,
                |g, s, k| fused[g][s][k] = true,
            );
            for (g, cone) in cones.iter().enumerate() {
                for (s, inst) in instances.iter().enumerate() {
                    cone.apply(
                        &c,
                        &trans,
                        inst,
                        &scalar_baselines[s],
                        deltas[g * n + s],
                        &mut scratch_scalar,
                        &mut out,
                    );
                    for (k, &arr) in out.iter().enumerate() {
                        fails += usize::from(arr > clk);
                        lanes += 1;
                        assert_eq!(
                            fused[g][s][k],
                            arr > clk,
                            "cone {g} of group {edges:?} sample {s} slot {k}: scalar arrival {arr}"
                        );
                    }
                }
            }
        }
        assert!(singletons > 0, "no single-cone group exercised");
        assert!(multis > 0, "generator produced no multi-fanin sinks");
        assert!(0 < fails && fails < lanes, "clk must split the lanes");
    }

    #[test]
    fn stable_pattern_has_no_events() {
        let (c, t) = reconv();
        let trans = simulate_pair(&c, &[true, false], &[true, false]);
        let arr = transition_arrivals(&c, &trans, &t.nominal_instance());
        assert!(arr.iter().all(|&a| a == NO_EVENT));
        assert_eq!(output_arrivals(&c, &arr), vec![NO_EVENT]);
    }
}
