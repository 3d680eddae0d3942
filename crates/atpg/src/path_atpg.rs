//! Two-vector test generation for path delay faults.
//!
//! Implements the paper's Section H-4 pattern source: for each selected
//! path, attempt a *robust* test first and fall back to *non-robust*
//! ("Paths are tested with robust or non-robust patterns derived without
//! considering timing"). Justification of the sensitization constraints
//! is a PODEM-style search over the two input frames with three-valued
//! implication. Each frame has its own event queue (the crate-private
//! `implication` module), so a decision re-evaluates only the fanout of
//! the one input it changed, in the one frame it changed. Before the
//! search, a sound static pre-check assigns the inputs the constraints
//! force and rejects a candidate whose requirements those inputs already
//! contradict.

use crate::fault::PathDelayFault;
use crate::implication::EventQueue;
use crate::path_sens::{path_constraints, Constraints, SensitizationMode};
use crate::pattern::TestPattern;
use crate::podem::PodemConfig;
use crate::value::V3;
use crate::AtpgError;
use rayon::prelude::*;
use sdd_netlist::{Circuit, GateKind, NodeId};

/// A generated path test together with the sensitization mode achieved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathTest {
    /// The two-vector pattern.
    pub pattern: TestPattern,
    /// Robust or non-robust.
    pub mode: SensitizationMode,
}

/// Generates a test for `fault` in the requested mode.
///
/// # Errors
///
/// * [`AtpgError::Untestable`] — the constraints conflict or the search
///   space is exhausted (path unsensitizable in this mode).
/// * [`AtpgError::Aborted`] — backtrack budget exhausted.
/// * [`AtpgError::SequentialCircuit`] — non-scan circuit.
pub fn generate_path_test(
    circuit: &Circuit,
    fault: &PathDelayFault,
    mode: SensitizationMode,
    config: PodemConfig,
    seed: u64,
) -> Result<TestPattern, AtpgError> {
    if !circuit.is_combinational() {
        return Err(AtpgError::SequentialCircuit);
    }
    let (constraints, _) = path_constraints(circuit, &fault.path, fault.launch, mode)?;
    justify_two_frames(circuit, &constraints, config, seed)
}

/// Tries a robust test first, then non-robust (the paper's policy).
///
/// # Errors
///
/// Returns the non-robust error if both modes fail.
pub fn generate_robust_or_nonrobust(
    circuit: &Circuit,
    fault: &PathDelayFault,
    config: PodemConfig,
    seed: u64,
) -> Result<PathTest, AtpgError> {
    match generate_path_test(circuit, fault, SensitizationMode::Robust, config, seed) {
        Ok(pattern) => Ok(PathTest {
            pattern,
            mode: SensitizationMode::Robust,
        }),
        Err(_) => {
            let pattern =
                generate_path_test(circuit, fault, SensitizationMode::NonRobust, config, seed)?;
            Ok(PathTest {
                pattern,
                mode: SensitizationMode::NonRobust,
            })
        }
    }
}

/// Runs [`generate_robust_or_nonrobust`] over a slice of `(fault, seed)`
/// candidates concurrently, returning the outcomes in candidate order
/// (`None` for untestable/aborted candidates).
///
/// Each search is pure in its `(circuit, fault, config, seed)` inputs,
/// so the result vector is bit-identical to a serial loop at any thread
/// count; callers replay their acceptance logic (ordering, early exit,
/// dedup) over the returned slice serially.
pub fn generate_candidate_tests(
    circuit: &Circuit,
    candidates: &[(PathDelayFault, u64)],
    config: PodemConfig,
) -> Vec<Option<PathTest>> {
    candidates
        .par_iter()
        .map(|(fault, seed)| generate_robust_or_nonrobust(circuit, fault, config, *seed).ok())
        .collect()
}

/// Checks that a pattern actually satisfies the sensitization
/// requirements of `fault` in `mode` (boolean simulation of both frames).
pub fn verify_path_test(
    circuit: &Circuit,
    fault: &PathDelayFault,
    mode: SensitizationMode,
    pattern: &TestPattern,
) -> bool {
    let Ok((constraints, _)) = path_constraints(circuit, &fault.path, fault.launch, mode) else {
        return false;
    };
    let before = sdd_netlist::logic::simulate(circuit, &pattern.v1);
    let after = sdd_netlist::logic::simulate(circuit, &pattern.v2);
    constraints
        .requirements()
        .into_iter()
        .all(|(ix, frame, value)| {
            let sim = if frame == 0 { &before } else { &after };
            sim[ix] == value
        })
}

/// PODEM-style justification of two-frame constraints, after the
/// static pre-check of [`TwoFrames::forced_inputs_conflict`].
fn justify_two_frames(
    circuit: &Circuit,
    constraints: &Constraints,
    config: PodemConfig,
    seed: u64,
) -> Result<TestPattern, AtpgError> {
    let mut frames = TwoFrames::new(circuit, constraints);
    if frames.forced_inputs_conflict() {
        return Err(AtpgError::Untestable {
            what: JUSTIFICATION.to_owned(),
        });
    }
    frames.search(config, seed)
}

const JUSTIFICATION: &str = "path test justification";

/// One input frame: its partial assignment, its three-valued node values
/// and the event queue of its changed inputs.
struct Frame {
    assignment: Vec<Option<bool>>,
    values: Vec<V3>,
    queue: EventQueue,
}

impl Frame {
    /// All inputs unassigned and all values X, which is what a full
    /// simulation gives: no gate kind is a constant.
    fn new(circuit: &Circuit) -> Frame {
        Frame {
            assignment: vec![None; circuit.primary_inputs().len()],
            values: vec![V3::X; circuit.num_nodes()],
            queue: EventQueue::new(circuit),
        }
    }

    /// Sets (or clears) input `k` and schedules it for the next pass.
    fn assign(&mut self, circuit: &Circuit, k: usize, value: Option<bool>) {
        self.assignment[k] = value;
        self.queue.schedule(circuit, circuit.primary_inputs()[k]);
    }

    /// Three-valued implication of the inputs changed since the last
    /// pass (see [`crate::implication`]).
    fn imply(&mut self, circuit: &Circuit, pi_position: &[Option<usize>]) {
        let Frame {
            assignment,
            values,
            queue,
        } = self;
        queue.propagate(circuit, values, |values, id| {
            eval_v3(circuit, assignment, pi_position, values, id)
        });
    }

    /// Full three-valued simulation of the assignment: the oracle
    /// [`Frame::imply`] is tested against.
    #[cfg(test)]
    fn full_sweep(&self, circuit: &Circuit, pi_position: &[Option<usize>]) -> Vec<V3> {
        let mut values = vec![V3::X; circuit.num_nodes()];
        for &id in circuit.topo_order() {
            values[id.index()] = eval_v3(circuit, &self.assignment, pi_position, &values, id);
        }
        values
    }
}

/// The value of `id` under `assignment`, given its fanins' `values`.
fn eval_v3(
    circuit: &Circuit,
    assignment: &[Option<bool>],
    pi_position: &[Option<usize>],
    values: &[V3],
    id: NodeId,
) -> V3 {
    let node = circuit.node(id);
    if node.kind() == GateKind::Input {
        let k = pi_position[id.index()].expect("input has a position");
        match assignment[k] {
            Some(true) => V3::One,
            Some(false) => V3::Zero,
            None => V3::X,
        }
    } else {
        V3::eval_iter(node.kind(), node.fanins().iter().map(|f| values[f.index()]))
    }
}

/// The search state of two-frame justification.
struct TwoFrames<'a> {
    circuit: &'a Circuit,
    pi_position: Vec<Option<usize>>,
    /// `(node index, frame, value)`, as [`Constraints::requirements`].
    requirements: Vec<(usize, usize, bool)>,
    frames: [Frame; 2],
}

impl<'a> TwoFrames<'a> {
    fn new(circuit: &'a Circuit, constraints: &Constraints) -> Self {
        let mut pi_position = vec![None; circuit.num_nodes()];
        for (k, &pi) in circuit.primary_inputs().iter().enumerate() {
            pi_position[pi.index()] = Some(k);
        }
        TwoFrames {
            circuit,
            pi_position,
            requirements: constraints.requirements(),
            frames: [Frame::new(circuit), Frame::new(circuit)],
        }
    }

    fn imply(&mut self) {
        for frame in &mut self.frames {
            frame.imply(self.circuit, &self.pi_position);
        }
    }

    /// A sound static pre-check: assigns only the requirements that sit
    /// on primary inputs, implies each frame once and reports whether a
    /// requirement is already contradicted.
    ///
    /// A rejected candidate would have failed the search anyway. An
    /// input's value is known only once the input is assigned, so every
    /// assignment the search returns gives these inputs exactly the
    /// required values, and so extends the forced assignment.
    /// Three-valued implication is monotone: assigning more inputs never
    /// changes a value that is already known. A requirement contradicted
    /// under the forced assignment is therefore contradicted under every
    /// assignment the search could reach, and the search ends in
    /// `Untestable` or `Aborted`. Rejecting early can only turn an
    /// `Aborted` into an `Untestable`; it never changes a pattern.
    ///
    /// The forced inputs are cleared again before returning, so the
    /// search starts from the all-X state exactly as without the check.
    fn forced_inputs_conflict(&mut self) -> bool {
        let forced: Vec<(usize, usize, bool)> = self
            .requirements
            .iter()
            .filter_map(|&(ix, frame, value)| self.pi_position[ix].map(|k| (frame, k, value)))
            .collect();
        if forced.is_empty() {
            // All-X values contradict nothing.
            return false;
        }
        for &(frame, k, value) in &forced {
            self.frames[frame].assign(self.circuit, k, Some(value));
        }
        self.imply();
        let conflict = self
            .requirements
            .iter()
            .any(|&(ix, frame, value)| self.frames[frame].values[ix].to_bool() == Some(!value));
        for &(frame, k, _) in &forced {
            self.frames[frame].assign(self.circuit, k, None);
        }
        self.imply();
        conflict
    }

    /// The PODEM-style decision loop over both frames.
    fn search(&mut self, config: PodemConfig, seed: u64) -> Result<TestPattern, AtpgError> {
        struct Decision {
            frame: usize,
            pi: usize,
            value: bool,
            flipped: bool,
        }
        let what = || JUSTIFICATION.to_owned();
        let mut stack: Vec<Decision> = Vec::new();
        let mut backtracks = 0usize;
        let mut implications = 0usize;

        loop {
            implications += 1;
            if implications > config.max_implications {
                return Err(AtpgError::Aborted {
                    what: what(),
                    backtracks,
                });
            }
            self.imply();
            // Check constraints.
            let mut conflict = false;
            let mut open: Option<(usize, usize, bool)> = None;
            for &(ix, frame, value) in &self.requirements {
                match self.frames[frame].values[ix].to_bool() {
                    Some(v) if v != value => {
                        conflict = true;
                        break;
                    }
                    Some(_) => {}
                    None => {
                        if open.is_none() {
                            open = Some((ix, frame, value));
                        }
                    }
                }
            }
            if !conflict {
                match open {
                    None => {
                        // All requirements implied: quiet-fill the free
                        // inputs (don't-cares do not switch).
                        return Ok(crate::podem::fill_pattern_quiet(
                            &self.frames[0].assignment,
                            &self.frames[1].assignment,
                            seed,
                        ));
                    }
                    Some((ix, frame, value)) => {
                        // Backtrace through X-valued nodes to a free PI.
                        match backtrace_v3(
                            self.circuit,
                            &self.frames[frame].values,
                            &self.pi_position,
                            NodeId::from_index(ix),
                            value,
                        ) {
                            Some((pi, v)) => {
                                debug_assert!(self.frames[frame].assignment[pi].is_none());
                                self.frames[frame].assign(self.circuit, pi, Some(v));
                                stack.push(Decision {
                                    frame,
                                    pi,
                                    value: v,
                                    flipped: false,
                                });
                                continue;
                            }
                            None => conflict = true,
                        }
                    }
                }
            }
            if conflict {
                loop {
                    let Some(top) = stack.last_mut() else {
                        return Err(AtpgError::Untestable { what: what() });
                    };
                    if top.flipped {
                        self.frames[top.frame].assign(self.circuit, top.pi, None);
                        stack.pop();
                        continue;
                    }
                    top.flipped = true;
                    top.value = !top.value;
                    self.frames[top.frame].assign(self.circuit, top.pi, Some(top.value));
                    break;
                }
                backtracks += 1;
                if backtracks > config.max_backtracks {
                    return Err(AtpgError::Aborted {
                        what: what(),
                        backtracks,
                    });
                }
            }
        }
    }
}

fn backtrace_v3(
    circuit: &Circuit,
    values: &[V3],
    pi_position: &[Option<usize>],
    mut node: NodeId,
    mut value: bool,
) -> Option<(usize, bool)> {
    loop {
        let n = circuit.node(node);
        if n.kind() == GateKind::Input {
            return pi_position[node.index()].map(|k| (k, value));
        }
        if n.kind().inverts() {
            value = !value;
        }
        node = n
            .fanins()
            .iter()
            .copied()
            .find(|f| values[f.index()] == V3::X)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::TransitionDirection;
    use crate::implication::testing::{apply, arb_steps, generated};
    use crate::path_sens::path_constraints;
    use proptest::prelude::*;
    use sdd_netlist::logic;
    use sdd_netlist::CircuitBuilder;
    use sdd_timing::path::Path;
    use sdd_timing::{CellLibrary, CircuitTiming, VariationModel};

    fn c17_like() -> Circuit {
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

    fn timing_for(c: &Circuit) -> CircuitTiming {
        CircuitTiming::characterize(c, &CellLibrary::default_025um(), VariationModel::none())
    }

    #[test]
    fn robust_tests_verify_on_small_circuit() {
        let c = c17_like();
        let t = timing_for(&c);
        let mut robust = 0;
        let mut nonrobust = 0;
        for eid in c.edge_ids() {
            let Ok(paths) = sdd_timing::path::k_longest_through_edge(&c, &t, eid, 2) else {
                continue;
            };
            for path in paths {
                for launch in [TransitionDirection::Rise, TransitionDirection::Fall] {
                    let fault = PathDelayFault::new(path.clone(), launch);
                    match generate_robust_or_nonrobust(&c, &fault, PodemConfig::default(), 3) {
                        Ok(pt) => {
                            assert!(
                                verify_path_test(&c, &fault, pt.mode, &pt.pattern),
                                "generated test fails verification for launch {launch:?}"
                            );
                            match pt.mode {
                                SensitizationMode::Robust => robust += 1,
                                SensitizationMode::NonRobust => nonrobust += 1,
                            }
                        }
                        Err(AtpgError::Untestable { .. }) => {}
                        Err(e) => panic!("unexpected: {e}"),
                    }
                }
            }
        }
        assert!(robust > 0, "no robust tests at all");
        // NAND-only reconvergent circuit should need some non-robust
        // fallbacks or at least attempt them; don't over-constrain.
        let _ = nonrobust;
    }

    #[test]
    fn generated_pattern_launches_source_transition() {
        let c = c17_like();
        let t = timing_for(&c);
        let p = sdd_timing::path::longest_path(&c, &t).unwrap();
        let fault = PathDelayFault::new(p.clone(), TransitionDirection::Rise);
        if let Ok(pt) = generate_robust_or_nonrobust(&c, &fault, PodemConfig::default(), 1) {
            let before = logic::simulate(&c, &pt.pattern.v1);
            let after = logic::simulate(&c, &pt.pattern.v2);
            let src = p.source();
            assert!(!before[src.index()]);
            assert!(after[src.index()]);
            // Every on-path node must transition.
            for &n in p.nodes() {
                assert_ne!(before[n.index()], after[n.index()], "node {n} is static");
            }
        }
    }

    #[test]
    fn unsensitizable_path_rejected() {
        // y = AND(a, NOT(a)): path a->y robustly requires NOT(a) steady 1
        // while `a` rises — impossible.
        let mut b = CircuitBuilder::new("mask");
        let a = b.input("a");
        let na = b.gate("na", GateKind::Not, &[a]).unwrap();
        let y = b.gate("y", GateKind::And, &[a, na]).unwrap();
        b.output(y);
        let c = b.finish().unwrap();
        let a_to_y = c
            .node(y)
            .fanin_edges()
            .iter()
            .copied()
            .find(|&e| c.edge(e).from() == a)
            .unwrap();
        let path = Path::new(vec![a, y], vec![a_to_y]);
        let fault = PathDelayFault::new(path, TransitionDirection::Rise);
        let err = generate_path_test(
            &c,
            &fault,
            SensitizationMode::Robust,
            PodemConfig::default(),
            1,
        )
        .unwrap_err();
        assert!(matches!(err, AtpgError::Untestable { .. }));
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let c = c17_like();
        let t = timing_for(&c);
        let p = sdd_timing::path::longest_path(&c, &t).unwrap();
        let fault = PathDelayFault::new(p, TransitionDirection::Fall);
        let a = generate_robust_or_nonrobust(&c, &fault, PodemConfig::default(), 7).ok();
        let b = generate_robust_or_nonrobust(&c, &fault, PodemConfig::default(), 7).ok();
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After every implication pass over random decide, flip and pop
        /// sequences spread over both frames, each frame's event-driven
        /// values equal a full three-valued simulation.
        #[test]
        fn event_driven_frames_match_full_simulation(
            seed in 0u64..64,
            frame_picks in proptest::collection::vec(0usize..2, 48..49),
            steps in arb_steps(),
        ) {
            let c = generated(seed);
            let constraints = crate::path_sens::Constraints::unconstrained(c.num_nodes());
            let mut frames = TwoFrames::new(&c, &constraints);
            let mut stacks = [Vec::new(), Vec::new()];
            for (&f, (step, pass)) in frame_picks.iter().zip(steps) {
                if let Some((k, value)) = apply(step, &frames.frames[f].assignment, &mut stacks[f]) {
                    frames.frames[f].assign(&c, k, value);
                }
                if !pass {
                    continue;
                }
                frames.imply();
                for frame in &frames.frames {
                    prop_assert_eq!(&frame.values, &frame.full_sweep(&c, &frames.pi_position));
                }
            }
        }

        /// Every candidate the forced-input pre-check rejects also fails
        /// the unchanged search, and a passing check leaves the search's
        /// start state untouched.
        #[test]
        fn forced_input_precheck_rejects_only_failing_candidates(
            seed in 0u64..64,
            edge_pick in any::<usize>(),
            test_seed in any::<u64>(),
        ) {
            let (c, candidates) = path_candidates(seed, edge_pick);
            for (constraints, _) in candidates {
                let mut frames = TwoFrames::new(&c, &constraints);
                if frames.forced_inputs_conflict() {
                    let search = TwoFrames::new(&c, &constraints)
                        .search(PodemConfig::bulk(), test_seed);
                    prop_assert!(search.is_err(), "pre-check rejected a testable candidate");
                } else {
                    for frame in &frames.frames {
                        prop_assert!(frame.assignment.iter().all(Option::is_none));
                        prop_assert!(frame.values.iter().all(|&v| v == V3::X));
                    }
                }
            }
        }
    }

    /// The constraints of every path through one arc of a generated
    /// circuit, both launch directions and both modes.
    fn path_candidates(
        seed: u64,
        edge_pick: usize,
    ) -> (Circuit, Vec<(Constraints, SensitizationMode)>) {
        let c = generated(seed);
        let t = timing_for(&c);
        let edge = sdd_netlist::EdgeId::from_index(edge_pick % c.num_edges());
        let paths = sdd_timing::path::k_longest_through_edge(&c, &t, edge, 4).unwrap_or_default();
        let mut out = Vec::new();
        for path in &paths {
            for launch in [TransitionDirection::Rise, TransitionDirection::Fall] {
                for mode in [SensitizationMode::Robust, SensitizationMode::NonRobust] {
                    if let Ok((constraints, _)) = path_constraints(&c, path, launch, mode) {
                        out.push((constraints, mode));
                    }
                }
            }
        }
        (c, out)
    }

    #[test]
    fn forced_input_precheck_fires_on_generated_circuits() {
        // The property above is vacuous unless the check rejects
        // something: on these circuits it rejects many candidates, and
        // each of them fails the unchanged search.
        let mut rejected = 0;
        for seed in 0..8 {
            for edge_pick in (0..200).step_by(7) {
                let (c, candidates) = path_candidates(seed, edge_pick);
                for (constraints, _) in candidates {
                    if TwoFrames::new(&c, &constraints).forced_inputs_conflict() {
                        rejected += 1;
                        let search =
                            TwoFrames::new(&c, &constraints).search(PodemConfig::bulk(), 1);
                        assert!(search.is_err(), "pre-check rejected a testable candidate");
                    }
                }
            }
        }
        assert!(rejected > 0, "the pre-check never fired");
        eprintln!("pre-check rejected {rejected} candidates");
    }
}
