//! Logic-domain fault simulation.
//!
//! Provides:
//!
//! * single-vector stuck-at fault simulation (the reference that checks
//!   PODEM's generated vectors),
//! * zero-delay (gross-delay) transition fault simulation on arcs,
//! * extraction of *dynamically active* arcs under a pattern — the arcs a
//!   delay defect must lie on to influence a given output. This is the
//!   logic-domain *cause–effect* pruning of Algorithm E.1 step 1.

use crate::fault::{StuckAtFault, TransitionFault};
use crate::pattern::TestPattern;
use sdd_netlist::logic::{self, Transition};
use sdd_netlist::{Circuit, EdgeId, GateKind, NodeId};

/// Simulates one stuck-at fault under one vector; returns the per-output
/// detection flags (`true` where the faulty response differs).
///
/// # Panics
///
/// Panics for sequential circuits or mismatched vector lengths.
pub fn stuck_at_detects(circuit: &Circuit, fault: StuckAtFault, vector: &[bool]) -> Vec<bool> {
    let good = logic::simulate(circuit, vector);
    let faulty = simulate_with_forced_node(circuit, vector, fault.node, fault.value.as_bool());
    circuit
        .primary_outputs()
        .iter()
        .map(|o| good[o.index()] != faulty[o.index()])
        .collect()
}

fn simulate_with_forced_node(
    circuit: &Circuit,
    vector: &[bool],
    forced: NodeId,
    value: bool,
) -> Vec<bool> {
    let mut values = vec![false; circuit.num_nodes()];
    for (&pi, &v) in circuit.primary_inputs().iter().zip(vector) {
        values[pi.index()] = v;
    }
    let mut fanin_buf: Vec<bool> = Vec::with_capacity(8);
    for &id in circuit.topo_order() {
        let node = circuit.node(id);
        if node.kind() != GateKind::Input {
            fanin_buf.clear();
            fanin_buf.extend(node.fanins().iter().map(|f| values[f.index()]));
            values[id.index()] = node.kind().eval(&fanin_buf);
        }
        if id == forced {
            values[id.index()] = value;
        }
    }
    values
}

/// Zero-delay transition fault simulation of one pattern: returns the
/// per-output detection flags, or `None` when the pattern does not launch
/// the required transition through the faulted arc.
///
/// The gross-delay interpretation: the arc is so slow that its sink sees
/// the *initial* value of its driver throughout the second frame. A
/// pattern detects the fault at output `o` when the resulting second-frame
/// response differs from the good machine at `o`.
///
/// # Panics
///
/// Panics for sequential circuits or mismatched vector lengths.
pub fn transition_detects(
    circuit: &Circuit,
    fault: TransitionFault,
    pattern: &TestPattern,
) -> Option<Vec<bool>> {
    let before = logic::simulate(circuit, &pattern.v1);
    let after = logic::simulate(circuit, &pattern.v2);
    let edge = circuit.edge(fault.edge);
    let driver = edge.from();
    // Launch condition: the driver makes the slow transition.
    let launched = before[driver.index()] == fault.direction.initial()
        && after[driver.index()] == fault.direction.final_value();
    if !launched {
        return None;
    }
    // Faulty second frame: recompute the sink with the faulted arc frozen
    // at the initial value, then propagate through the fanout cone.
    let mut faulty = after.clone();
    let sink = edge.to();
    let cone = circuit.fanout_cone(sink);
    let mut in_cone = vec![false; circuit.num_nodes()];
    for &n in &cone {
        in_cone[n.index()] = true;
    }
    let mut fanin_buf: Vec<bool> = Vec::with_capacity(8);
    for &id in circuit.topo_order() {
        if !in_cone[id.index()] {
            continue;
        }
        let node = circuit.node(id);
        fanin_buf.clear();
        for (&from, &e) in node.fanins().iter().zip(node.fanin_edges()) {
            let v = if e == fault.edge {
                before[from.index()]
            } else {
                faulty[from.index()]
            };
            fanin_buf.push(v);
        }
        faulty[id.index()] = node.kind().eval(&fanin_buf);
    }
    Some(
        circuit
            .primary_outputs()
            .iter()
            .map(|o| faulty[o.index()] != after[o.index()])
            .collect(),
    )
}

/// The arcs a delay defect must lie on to delay one of the given failing
/// outputs under a pattern: both endpoints switch, and the sink reaches a
/// failing (switching) output through a chain of switching nodes.
///
/// This matches the transition-arrival dynamic engine exactly: extra
/// delay on any other arc provably cannot move the arrival time of any
/// failing output.
///
/// `failing_outputs` holds positions into [`Circuit::primary_outputs`].
pub fn dynamically_active_edges(
    circuit: &Circuit,
    transitions: &[Transition],
    failing_outputs: &[usize],
) -> Vec<EdgeId> {
    let outputs = circuit.primary_outputs();
    // Backward mark from failing, switching outputs through switching
    // nodes.
    let mut marked = vec![false; circuit.num_nodes()];
    let mut stack: Vec<NodeId> = failing_outputs
        .iter()
        .map(|&i| outputs[i])
        .filter(|o| transitions[o.index()].is_event())
        .collect();
    while let Some(id) = stack.pop() {
        if marked[id.index()] {
            continue;
        }
        marked[id.index()] = true;
        for &f in circuit.node(id).fanins() {
            if transitions[f.index()].is_event() && !marked[f.index()] {
                stack.push(f);
            }
        }
    }
    circuit
        .edge_ids()
        .filter(|&e| {
            let edge = circuit.edge(e);
            marked[edge.to().index()]
                && transitions[edge.from().index()].is_event()
                && transitions[edge.to().index()].is_event()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{StuckValue, TransitionDirection};
    use sdd_netlist::logic::simulate_pair;
    use sdd_netlist::{CircuitBuilder, GateKind};

    fn mux() -> Circuit {
        let mut b = CircuitBuilder::new("mux");
        let s = b.input("s");
        let a = b.input("a");
        let c = b.input("c");
        let ns = b.gate("ns", GateKind::Not, &[s]).unwrap();
        let t0 = b.gate("t0", GateKind::And, &[ns, a]).unwrap();
        let t1 = b.gate("t1", GateKind::And, &[s, c]).unwrap();
        let y = b.gate("y", GateKind::Or, &[t0, t1]).unwrap();
        b.output(y);
        b.finish().unwrap()
    }

    #[test]
    fn stuck_at_detection_matches_manual_analysis() {
        let c = mux();
        let a = c.find("a").unwrap();
        // s=0 selects a; a stuck-at-0 is detected with a=1.
        let det = stuck_at_detects(
            &c,
            StuckAtFault::new(a, StuckValue::Zero),
            &[false, true, false],
        );
        assert_eq!(det, vec![true]);
        // Not detected when s=1 (a deselected).
        let det = stuck_at_detects(
            &c,
            StuckAtFault::new(a, StuckValue::Zero),
            &[true, true, false],
        );
        assert_eq!(det, vec![false]);
    }

    #[test]
    fn transition_fault_requires_launch() {
        let c = mux();
        let y = c.find("y").unwrap();
        let t0 = c.find("t0").unwrap();
        let e = c
            .node(y)
            .fanin_edges()
            .iter()
            .copied()
            .find(|&e| c.edge(e).from() == t0)
            .unwrap();
        let fault = TransitionFault::new(e, TransitionDirection::Rise);
        // s=0, a rises: t0 rises and propagates to y.
        let p = TestPattern::new(vec![false, false, false], vec![false, true, false]);
        let det = transition_detects(&c, fault, &p).expect("launched");
        assert_eq!(det, vec![true]);
        // No transition on t0 => None.
        let p = TestPattern::new(vec![false, true, false], vec![false, true, false]);
        assert!(transition_detects(&c, fault, &p).is_none());
        // Wrong direction => None.
        let p = TestPattern::new(vec![false, true, false], vec![false, false, false]);
        assert!(transition_detects(&c, fault, &p).is_none());
    }

    #[test]
    fn active_edges_trace_to_failing_outputs() {
        let c = mux();
        // s=0, a rises: switching chain a -> t0 -> y.
        let trans = simulate_pair(&c, &[false, false, false], &[false, true, false]);
        let active = dynamically_active_edges(&c, &trans, &[0]);
        let names: Vec<(String, String)> = active
            .iter()
            .map(|&e| {
                let edge = c.edge(e);
                (
                    c.node(edge.from()).name().to_owned(),
                    c.node(edge.to()).name().to_owned(),
                )
            })
            .collect();
        assert!(names.contains(&("a".into(), "t0".into())));
        assert!(names.contains(&("t0".into(), "y".into())));
        assert_eq!(active.len(), 2);
    }

    #[test]
    fn no_failing_outputs_no_active_edges() {
        let c = mux();
        let trans = simulate_pair(&c, &[false, false, false], &[false, true, false]);
        assert!(dynamically_active_edges(&c, &trans, &[]).is_empty());
    }
}
