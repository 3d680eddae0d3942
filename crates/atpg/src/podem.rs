//! PODEM automatic test pattern generation for stuck-at faults, plus
//! justification and a two-pattern wrapper for transition faults.
//!
//! The implementation is a textbook PODEM: decisions are made only on
//! primary inputs, objectives are derived from fault activation and the
//! D-frontier, and a backtrace walks each objective to an unassigned
//! input. Five-valued implication ([`crate::value::V5`]) derives the
//! consequences of every decision, flip and retraction. It is
//! event-driven (the crate-private `implication` module): a pass
//! re-evaluates only the fanout of the inputs whose assignment changed,
//! and stores exactly the values a full simulation would. The D-frontier
//! is searched only among the gates of the fault site's fanout cone, the
//! only place a fault effect can appear.

use crate::fault::{StuckAtFault, StuckValue, TransitionDirection, TransitionFault};
use crate::implication::EventQueue;
use crate::pattern::TestPattern;
use crate::value::{V3, V5};
use crate::AtpgError;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use sdd_netlist::{Circuit, EdgeId, GateKind, NodeId};

/// Search budget for the PODEM decision loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PodemConfig {
    /// Maximum number of backtracks before aborting.
    pub max_backtracks: usize,
    /// Maximum number of implication passes. Each decision, flip or
    /// retry runs one pass, which re-evaluates the fanout of the inputs
    /// it changed; this is the knob that actually bounds wall-clock time
    /// on large circuits.
    pub max_implications: usize,
}

impl Default for PodemConfig {
    fn default() -> Self {
        PodemConfig {
            max_backtracks: 4000,
            max_implications: 40_000,
        }
    }
}

impl PodemConfig {
    /// A tight budget for bulk test generation over many candidate
    /// targets (diagnostic pattern generation): gives up quickly on
    /// hard-to-justify targets.
    pub fn bulk() -> Self {
        PodemConfig {
            max_backtracks: 200,
            max_implications: 1200,
        }
    }
}

/// A (possibly partial) primary-input assignment: `None` entries are
/// don't-cares.
pub type PiAssignment = Vec<Option<bool>>;

/// Fills the don't-cares of an assignment with seeded random values.
pub fn fill_assignment(assignment: &PiAssignment, seed: u64) -> Vec<bool> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    assignment
        .iter()
        .map(|v| v.unwrap_or_else(|| rng.gen()))
        .collect()
}

/// Combines two partial frame assignments into a *quiet* two-vector
/// pattern: every input that is free in a frame copies the other frame's
/// value (or a shared random fill when free in both), so don't-care
/// inputs do not switch. Quiet patterns concentrate switching activity on
/// the logic the test actually targets, which keeps the tested-delay
/// distribution dominated by the targeted paths.
///
/// Safe by monotonicity of three-valued implication: adding assignments
/// to don't-care inputs can never change a value the partial assignment
/// already implied.
///
/// # Panics
///
/// Panics if the assignments have different lengths.
pub fn fill_pattern_quiet(v1: &PiAssignment, v2: &PiAssignment, seed: u64) -> TestPattern {
    assert_eq!(
        v1.len(),
        v2.len(),
        "frame assignments must have equal length"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut a = Vec::with_capacity(v1.len());
    let mut b = Vec::with_capacity(v2.len());
    for (&x, &y) in v1.iter().zip(v2) {
        let (va, vb) = match (x, y) {
            (Some(p), Some(q)) => (p, q),
            (Some(p), None) => (p, p),
            (None, Some(q)) => (q, q),
            (None, None) => {
                let r = rng.gen();
                (r, r)
            }
        };
        a.push(va);
        b.push(vb);
    }
    TestPattern::new(a, b)
}

/// Generates a test vector detecting the given stuck-at fault.
///
/// Returns a partial assignment over the primary inputs; unassigned
/// inputs are free (see [`fill_assignment`]).
///
/// # Errors
///
/// * [`AtpgError::Untestable`] when the search space is exhausted (the
///   fault is redundant).
/// * [`AtpgError::Aborted`] when the backtrack budget runs out.
/// * [`AtpgError::SequentialCircuit`] for non-scan circuits.
///
/// # Example
///
/// ```
/// use sdd_atpg::podem::{generate, PodemConfig};
/// use sdd_atpg::{StuckAtFault, StuckValue};
/// use sdd_netlist::{CircuitBuilder, GateKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CircuitBuilder::new("t");
/// let a = b.input("a");
/// let c = b.input("c");
/// let y = b.gate("y", GateKind::And, &[a, c])?;
/// b.output(y);
/// let circuit = b.finish()?;
/// // a stuck-at-0 needs a=1, c=1.
/// let t = generate(&circuit, StuckAtFault::new(a, StuckValue::Zero),
///                  PodemConfig::default())?;
/// assert_eq!(t, vec![Some(true), Some(true)]);
/// # Ok(())
/// # }
/// ```
pub fn generate(
    circuit: &Circuit,
    fault: StuckAtFault,
    config: PodemConfig,
) -> Result<PiAssignment, AtpgError> {
    if !circuit.is_combinational() {
        return Err(AtpgError::SequentialCircuit);
    }
    if fault.node.index() >= circuit.num_nodes() {
        return Err(AtpgError::NoSuchElement(format!("node {}", fault.node)));
    }
    Engine::new(circuit, fault, None, false, None).run(config)
}

/// Finds a vector that justifies `value` on `node` (used to build the
/// initialization vector of two-pattern tests).
///
/// # Errors
///
/// Same conditions as [`generate`].
pub fn justify(
    circuit: &Circuit,
    node: NodeId,
    value: bool,
    config: PodemConfig,
) -> Result<PiAssignment, AtpgError> {
    if !circuit.is_combinational() {
        return Err(AtpgError::SequentialCircuit);
    }
    if node.index() >= circuit.num_nodes() {
        return Err(AtpgError::NoSuchElement(format!("node {node}")));
    }
    // Justification is PODEM with a pseudo-fault that is "activated" when
    // the node reaches `value` and needs no propagation.
    let fault = StuckAtFault::new(
        node,
        if value {
            StuckValue::Zero
        } else {
            StuckValue::One
        },
    );
    Engine::new(circuit, fault, None, true, None).run(config)
}

/// Generates a two-pattern transition-fault test: `v1` sets the fault
/// site to the transition's initial value, `v2` detects the corresponding
/// stuck-at fault (slow-to-rise ⇒ stuck-at-0 in the second frame).
///
/// The site of a [`TransitionFault`] is an arc; the logic condition is
/// evaluated at the arc's *driver* signal (the transition that must pass
/// through the segment).
///
/// # Errors
///
/// Same conditions as [`generate`]; either frame may fail.
pub fn generate_transition_test(
    circuit: &Circuit,
    fault: TransitionFault,
    config: PodemConfig,
    seed: u64,
) -> Result<TestPattern, AtpgError> {
    let (v1, v2) = generate_transition_assignments(circuit, fault, config)?;
    Ok(fill_pattern_quiet(&v1, &v2, seed))
}

/// The partial frame assignments of a transition-fault test, before
/// don't-care filling. Expose this to generate many fills of one search
/// result cheaply: the PODEM search is deterministic, so callers wanting
/// several patterns per fault should run it once and call
/// [`fill_pattern_quiet`] with different seeds.
///
/// # Errors
///
/// Same conditions as [`generate`]; either frame may fail.
pub fn generate_transition_assignments(
    circuit: &Circuit,
    fault: TransitionFault,
    config: PodemConfig,
) -> Result<(PiAssignment, PiAssignment), AtpgError> {
    generate_transition_assignments_diverse(circuit, fault, config, None)
}

/// [`generate_transition_assignments`] with seeded randomization of the
/// PODEM backtrace choices: different seeds justify and propagate the
/// fault through different paths, producing structurally diverse tests
/// for the same fault — the key to diagnostic resolution.
///
/// # Errors
///
/// Same conditions as [`generate`]; either frame may fail.
pub fn generate_transition_assignments_diverse(
    circuit: &Circuit,
    fault: TransitionFault,
    config: PodemConfig,
    decision_seed: Option<u64>,
) -> Result<(PiAssignment, PiAssignment), AtpgError> {
    if fault.edge.index() >= circuit.num_edges() {
        return Err(AtpgError::NoSuchElement(format!("edge {}", fault.edge)));
    }
    let driver = circuit.edge(fault.edge).from();
    let stuck = match fault.direction {
        TransitionDirection::Rise => StuckValue::Zero,
        TransitionDirection::Fall => StuckValue::One,
    };
    // Branch fault at the arc: the test must propagate the fault effect
    // through this specific segment, not just some fanout of the driver.
    let v2 = Engine::new(
        circuit,
        StuckAtFault::new(driver, stuck),
        Some(fault.edge),
        false,
        decision_seed.map(ChaCha8Rng::seed_from_u64),
    )
    .run(config)?;
    let initial = if fault.direction.initial() {
        StuckValue::Zero
    } else {
        StuckValue::One
    };
    let v1 = Engine::new(
        circuit,
        StuckAtFault::new(driver, initial),
        None,
        true,
        decision_seed.map(|s| ChaCha8Rng::seed_from_u64(s ^ 0xF00D)),
    )
    .run(config)?;
    Ok((v1, v2))
}

struct Engine<'a> {
    circuit: &'a Circuit,
    fault: StuckAtFault,
    /// Seeded randomization of backtrace choices; `None` picks the first
    /// unassigned fanin deterministically.
    decision_rng: Option<ChaCha8Rng>,
    /// When set, the stuck value applies only to this arc (a *branch*
    /// fault): the faulty machine sees it at the arc's sink pin, while
    /// the driver's other fanouts see the good value. `fault.node` is the
    /// arc's driver.
    fault_edge: Option<EdgeId>,
    /// The driver of `fault_edge`.
    branch_driver: Option<NodeId>,
    justify_only: bool,
    values: Vec<V5>,
    pi_assignment: Vec<Option<bool>>,
    pi_position: Vec<Option<usize>>,
    /// Inputs whose assignment changed since the last implication pass.
    queue: EventQueue,
    /// The gates of the fault site's fanout cone, ascending by id. Fault
    /// effects exist only in that cone, so no other gate can be on the
    /// D-frontier. Empty for justification, which never propagates.
    frontier_candidates: Vec<NodeId>,
}

struct Decision {
    pi: NodeId,
    value: bool,
    flipped: bool,
}

impl<'a> Engine<'a> {
    /// An engine whose values are all X and whose inputs are all
    /// unassigned. That state is already what a full simulation gives:
    /// no gate kind is a constant, so X fanins yield X, and the fault
    /// site's `V5::from_parts(X, stuck)` is X as well.
    fn new(
        circuit: &'a Circuit,
        fault: StuckAtFault,
        fault_edge: Option<EdgeId>,
        justify_only: bool,
        decision_rng: Option<ChaCha8Rng>,
    ) -> Self {
        let mut pi_position = vec![None; circuit.num_nodes()];
        for (k, &pi) in circuit.primary_inputs().iter().enumerate() {
            pi_position[pi.index()] = Some(k);
        }
        let mut frontier_candidates = Vec::new();
        if !justify_only {
            frontier_candidates = circuit.fanout_cone(fault.node);
            frontier_candidates.retain(|&id| circuit.node(id).kind() != GateKind::Input);
            frontier_candidates.sort_unstable();
        }
        Engine {
            circuit,
            fault,
            decision_rng,
            fault_edge,
            branch_driver: fault_edge.map(|e| circuit.edge(e).from()),
            justify_only,
            values: vec![V5::X; circuit.num_nodes()],
            pi_assignment: vec![None; circuit.primary_inputs().len()],
            pi_position,
            queue: EventQueue::new(circuit),
            frontier_candidates,
        }
    }

    /// Sets (or clears) input `k` and schedules it for the next pass.
    fn assign(&mut self, k: usize, value: Option<bool>) {
        self.pi_assignment[k] = value;
        self.queue
            .schedule(self.circuit, self.circuit.primary_inputs()[k]);
    }

    /// The value of `id` under the current assignment, given the values
    /// of its fanins in `values`.
    fn eval(&self, values: &[V5], id: NodeId) -> V5 {
        let node = self.circuit.node(id);
        let mut v = if node.kind() == GateKind::Input {
            let k = self.pi_position[id.index()].expect("input has a position");
            match self.pi_assignment[k] {
                Some(true) => V5::One,
                Some(false) => V5::Zero,
                None => V5::X,
            }
        } else {
            let fanins = node
                .fanins()
                .iter()
                .zip(node.fanin_edges())
                .map(|(&from, &e)| {
                    let fv = values[from.index()];
                    // Branch fault: the fault effect exists only on the
                    // faulted arc; every other fanout of the driver sees the
                    // good value.
                    if Some(from) == self.branch_driver && Some(e) != self.fault_edge {
                        V5::from_parts(fv.good(), fv.good())
                    } else {
                        fv
                    }
                });
            V5::eval_iter(node.kind(), fanins)
        };
        if id == self.fault.node && !self.justify_only {
            // Fault site (the arc's driver for branch faults): the faulty
            // machine is pinned to the stuck value; activation shows as D
            // or D'.
            let faulty = V3::from_bool(self.fault.value.as_bool());
            v = V5::from_parts(v.good(), faulty);
        }
        v
    }

    /// Five-valued implication of the inputs changed since the last pass
    /// (see [`crate::implication`]).
    fn imply(&mut self) {
        let mut queue = std::mem::take(&mut self.queue);
        let mut values = std::mem::take(&mut self.values);
        queue.propagate(self.circuit, &mut values, |values, id| {
            self.eval(values, id)
        });
        self.queue = queue;
        self.values = values;
    }

    /// Full five-valued simulation from the current assignment: the
    /// oracle [`Engine::imply`] is tested against.
    #[cfg(test)]
    fn full_sweep(&self) -> Vec<V5> {
        let mut values = vec![V5::X; self.circuit.num_nodes()];
        for &id in self.circuit.topo_order() {
            values[id.index()] = self.eval(&values, id);
        }
        values
    }

    fn activation_target(&self) -> bool {
        // Good value needed at the fault site to activate (or to justify).
        !self.fault.value.as_bool()
    }

    fn activated(&self) -> bool {
        self.values[self.fault.node.index()].good() == V3::from_bool(self.activation_target())
    }

    fn activation_conflicted(&self) -> bool {
        self.values[self.fault.node.index()].good() == V3::from_bool(!self.activation_target())
    }

    fn detected(&self) -> bool {
        self.circuit
            .primary_outputs()
            .iter()
            .any(|o| self.values[o.index()].is_fault_effect())
    }

    fn d_frontier_objective(&self) -> Option<(NodeId, bool)> {
        self.frontier_objective_in(self.frontier_candidates.iter().copied())
    }

    /// The objective of the first D-frontier gate among `candidates`.
    fn frontier_objective_in(
        &self,
        candidates: impl Iterator<Item = NodeId>,
    ) -> Option<(NodeId, bool)> {
        for id in candidates {
            let node = self.circuit.node(id);
            if node.kind() == GateKind::Input || self.values[id.index()] != V5::X {
                continue;
            }
            let has_effect = node
                .fanins()
                .iter()
                .any(|f| self.values[f.index()].is_fault_effect());
            if !has_effect {
                continue;
            }
            // Objective: set an X side input to the non-controlling value.
            if let Some(&x_input) = node
                .fanins()
                .iter()
                .find(|f| self.values[f.index()] == V5::X)
            {
                let target = match node.kind().controlling_value() {
                    Some(c) => !c,
                    None => false, // XOR/XNOR: any fixed value propagates
                };
                return Some((x_input, target));
            }
        }
        None
    }

    /// Walks an objective back to an unassigned primary input.
    fn backtrace(&mut self, mut node: NodeId, mut value: bool) -> Option<(NodeId, bool)> {
        loop {
            let n = self.circuit.node(node);
            if n.kind() == GateKind::Input {
                return Some((node, value));
            }
            if n.kind().inverts() {
                value = !value;
            }
            // Follow an X-valued fanin: the first one deterministically,
            // or a random one when diversified test generation is
            // requested (different choices sensitize different paths).
            let values = &self.values;
            let is_x = |f: &&NodeId| values[f.index()] == V5::X;
            let n_x = n.fanins().iter().filter(is_x).count();
            let pick = match &mut self.decision_rng {
                _ if n_x == 0 => return None,
                Some(rng) => rng.gen_range(0..n_x),
                None => 0,
            };
            node = *n
                .fanins()
                .iter()
                .filter(is_x)
                .nth(pick)
                .expect("pick is below the X count");
        }
    }

    fn what(&self) -> String {
        if self.justify_only {
            format!("justification of {}", self.fault.node)
        } else {
            format!("test for {}", self.fault)
        }
    }

    fn run(&mut self, config: PodemConfig) -> Result<PiAssignment, AtpgError> {
        let mut stack: Vec<Decision> = Vec::new();
        let mut backtracks = 0usize;
        let mut implications = 0usize;
        loop {
            implications += 1;
            if implications > config.max_implications {
                let what = self.what();
                return Err(AtpgError::Aborted { what, backtracks });
            }
            self.imply();
            let success = if self.justify_only {
                self.activated()
            } else {
                self.detected()
            };
            if success {
                return Ok(self.pi_assignment.clone());
            }
            // Determine the next objective, or detect a dead end.
            let objective = if self.activation_conflicted() {
                None
            } else if !self.activated() {
                Some((self.fault.node, self.activation_target()))
            } else if self.justify_only {
                // activated, but success check said no — unreachable
                None
            } else {
                self.d_frontier_objective()
            };
            let choice = objective.and_then(|(n, v)| self.backtrace(n, v));
            match choice {
                Some((pi, value)) => {
                    let k = self.pi_position[pi.index()].expect("backtrace reached a PI");
                    debug_assert!(self.pi_assignment[k].is_none());
                    self.assign(k, Some(value));
                    stack.push(Decision {
                        pi,
                        value,
                        flipped: false,
                    });
                }
                None => {
                    // Dead end: backtrack.
                    loop {
                        let Some(top) = stack.last_mut() else {
                            return Err(AtpgError::Untestable { what: self.what() });
                        };
                        let k = self.pi_position[top.pi.index()].unwrap();
                        if top.flipped {
                            self.assign(k, None);
                            stack.pop();
                            continue;
                        }
                        top.flipped = true;
                        top.value = !top.value;
                        self.assign(k, Some(top.value));
                        break;
                    }
                    backtracks += 1;
                    if backtracks > config.max_backtracks {
                        let what = self.what();
                        return Err(AtpgError::Aborted { what, backtracks });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::implication::testing::{apply, arb_steps, generated, Step};
    use proptest::prelude::*;
    use sdd_netlist::logic;
    use sdd_netlist::CircuitBuilder;

    fn c17_like() -> Circuit {
        // A small reconvergent circuit (NAND network like ISCAS c17).
        let mut b = CircuitBuilder::new("c17");
        let i1 = b.input("i1");
        let i2 = b.input("i2");
        let i3 = b.input("i3");
        let i4 = b.input("i4");
        let i5 = b.input("i5");
        let g1 = b.gate("g1", GateKind::Nand, &[i1, i3]).unwrap();
        let g2 = b.gate("g2", GateKind::Nand, &[i3, i4]).unwrap();
        let g3 = b.gate("g3", GateKind::Nand, &[i2, g2]).unwrap();
        let g4 = b.gate("g4", GateKind::Nand, &[g2, i5]).unwrap();
        let g5 = b.gate("g5", GateKind::Nand, &[g1, g3]).unwrap();
        let g6 = b.gate("g6", GateKind::Nand, &[g3, g4]).unwrap();
        b.output(g5);
        b.output(g6);
        b.finish().unwrap()
    }

    /// Checks by exhaustive boolean simulation that `v` detects `fault`.
    fn verify_detects(circuit: &Circuit, fault: StuckAtFault, v: &[bool]) -> bool {
        let good = logic::simulate(circuit, v);
        // Faulty simulation: force the node.
        let mut faulty = vec![false; circuit.num_nodes()];
        for (&pi, &val) in circuit.primary_inputs().iter().zip(v) {
            faulty[pi.index()] = val;
        }
        for &id in circuit.topo_order() {
            let node = circuit.node(id);
            if node.kind() != GateKind::Input {
                let ins: Vec<bool> = node.fanins().iter().map(|f| faulty[f.index()]).collect();
                faulty[id.index()] = node.kind().eval(&ins);
            }
            if id == fault.node {
                faulty[id.index()] = fault.value.as_bool();
            }
        }
        circuit
            .primary_outputs()
            .iter()
            .any(|o| good[o.index()] != faulty[o.index()])
    }

    #[test]
    fn generates_tests_for_every_testable_fault() {
        let c = c17_like();
        let mut generated = 0;
        for fault in StuckAtFault::all(&c) {
            match generate(&c, fault, PodemConfig::default()) {
                Ok(assignment) => {
                    let v = fill_assignment(&assignment, 9);
                    assert!(
                        verify_detects(&c, fault, &v),
                        "pattern {v:?} does not detect {fault}"
                    );
                    generated += 1;
                }
                Err(AtpgError::Untestable { .. }) => {}
                Err(e) => panic!("unexpected error for {fault}: {e}"),
            }
        }
        // c17 is fully testable.
        assert_eq!(generated, StuckAtFault::all(&c).len());
    }

    #[test]
    fn redundant_fault_is_untestable() {
        // y = OR(a, NOT(a)) is constant 1: y stuck-at-1 is undetectable.
        let mut b = CircuitBuilder::new("red");
        let a = b.input("a");
        let na = b.gate("na", GateKind::Not, &[a]).unwrap();
        let y = b.gate("y", GateKind::Or, &[a, na]).unwrap();
        b.output(y);
        let c = b.finish().unwrap();
        let err = generate(
            &c,
            StuckAtFault::new(y, StuckValue::One),
            PodemConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, AtpgError::Untestable { .. }));
    }

    #[test]
    fn justify_reaches_internal_targets() {
        let c = c17_like();
        for id in c.node_ids() {
            for value in [false, true] {
                if let Ok(assignment) = justify(&c, id, value, PodemConfig::default()) {
                    let v = fill_assignment(&assignment, 3);
                    let sim = logic::simulate(&c, &v);
                    assert_eq!(sim[id.index()], value, "justify({id}, {value})");
                }
            }
        }
    }

    #[test]
    fn justify_constant_is_one_sided() {
        // g = AND(a, NOT(a)) is constant 0.
        let mut b = CircuitBuilder::new("k0");
        let a = b.input("a");
        let na = b.gate("na", GateKind::Not, &[a]).unwrap();
        let g = b.gate("g", GateKind::And, &[a, na]).unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        assert!(justify(&c, g, false, PodemConfig::default()).is_ok());
        assert!(matches!(
            justify(&c, g, true, PodemConfig::default()),
            Err(AtpgError::Untestable { .. })
        ));
    }

    #[test]
    fn transition_test_launches_and_detects() {
        let c = c17_like();
        let mut tested = 0;
        for eid in c.edge_ids() {
            for dir in [TransitionDirection::Rise, TransitionDirection::Fall] {
                let fault = TransitionFault::new(eid, dir);
                if let Ok(p) = generate_transition_test(&c, fault, PodemConfig::default(), 5) {
                    let driver = c.edge(eid).from();
                    let before = logic::simulate(&c, &p.v1);
                    let after = logic::simulate(&c, &p.v2);
                    assert_eq!(before[driver.index()], dir.initial());
                    assert_eq!(after[driver.index()], dir.final_value());
                    tested += 1;
                }
            }
        }
        assert!(tested > 10, "only {tested} transition tests generated");
    }

    #[test]
    fn sequential_circuit_rejected() {
        let mut b = CircuitBuilder::new("seq");
        let a = b.input("a");
        let q = b.dff_placeholder("q");
        let d = b.gate("d", GateKind::Nand, &[a, q]).unwrap();
        b.set_dff_input(q, d).unwrap();
        b.output(d);
        let c = b.finish().unwrap();
        assert_eq!(
            generate(
                &c,
                StuckAtFault::new(a, StuckValue::Zero),
                PodemConfig::default()
            )
            .unwrap_err(),
            AtpgError::SequentialCircuit
        );
    }

    #[test]
    fn fill_assignment_respects_fixed_bits() {
        let a = vec![Some(true), None, Some(false)];
        let filled = fill_assignment(&a, 1);
        assert!(filled[0]);
        assert!(!filled[2]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After every implication pass over random decide, flip and pop
        /// sequences, the event-driven values equal a full five-valued
        /// simulation, for stem faults, branch faults and justification;
        /// the cone-local D-frontier gives the all-node scan's objective.
        #[test]
        fn event_driven_implication_matches_full_simulation(
            seed in 0u64..64,
            pick in any::<usize>(),
            mode in 0usize..3,
            stuck_one in any::<bool>(),
            steps in arb_steps(),
        ) {
            let c = generated(seed);
            let stuck = if stuck_one { StuckValue::One } else { StuckValue::Zero };
            let node = NodeId::from_index(pick % c.num_nodes());
            let mut engine = match mode {
                0 => Engine::new(&c, StuckAtFault::new(node, stuck), None, false, None),
                1 => {
                    let edge = EdgeId::from_index(pick % c.num_edges());
                    let driver = c.edge(edge).from();
                    Engine::new(&c, StuckAtFault::new(driver, stuck), Some(edge), false, None)
                }
                _ => Engine::new(&c, StuckAtFault::new(node, stuck), None, true, None),
            };
            prop_assert_eq!(&engine.values, &engine.full_sweep(), "all-X start");
            let mut stack = Vec::new();
            for (step, pass) in steps.into_iter().chain([(Step::Pop, true)]) {
                if let Some((k, value)) = apply(step, &engine.pi_assignment, &mut stack) {
                    engine.assign(k, value);
                }
                if !pass {
                    continue;
                }
                engine.imply();
                prop_assert_eq!(&engine.values, &engine.full_sweep());
                if mode != 2 {
                    prop_assert_eq!(
                        engine.d_frontier_objective(),
                        engine.frontier_objective_in(c.node_ids())
                    );
                }
            }
        }
    }
}
