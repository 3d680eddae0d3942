//! Two-valued, vector-pair and bit-parallel logic simulation.
//!
//! All functions operate on *combinational* circuits (after the scan cut,
//! see [`Circuit::to_combinational`]). Values are indexed by
//! [`NodeId::index`](crate::NodeId::index).

use crate::{Circuit, GateKind};
use serde::{Deserialize, Serialize};

/// The signal activity at a node between the two vectors of a delay test
/// pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Transition {
    /// Value is `v` under both vectors.
    Stable(bool),
    /// 0 under the first vector, 1 under the second.
    Rise,
    /// 1 under the first vector, 0 under the second.
    Fall,
}

impl Transition {
    /// Classifies a (first-vector, second-vector) value pair.
    pub fn from_pair(before: bool, after: bool) -> Transition {
        match (before, after) {
            (false, true) => Transition::Rise,
            (true, false) => Transition::Fall,
            (v, _) => Transition::Stable(v),
        }
    }

    /// Returns `true` if the node switches.
    pub fn is_event(self) -> bool {
        matches!(self, Transition::Rise | Transition::Fall)
    }

    /// The value under the final (second) vector.
    pub fn final_value(self) -> bool {
        match self {
            Transition::Stable(v) => v,
            Transition::Rise => true,
            Transition::Fall => false,
        }
    }

    /// The value under the initial (first) vector.
    pub fn initial_value(self) -> bool {
        match self {
            Transition::Stable(v) => v,
            Transition::Rise => false,
            Transition::Fall => true,
        }
    }
}

/// Simulates one input vector, returning the value of every node.
///
/// `inputs` is ordered like [`Circuit::primary_inputs`].
///
/// # Panics
///
/// Panics if the circuit is sequential or `inputs.len()` does not match the
/// number of primary inputs.
pub fn simulate(circuit: &Circuit, inputs: &[bool]) -> Vec<bool> {
    assert!(
        circuit.is_combinational(),
        "logic simulation requires a combinational circuit (apply the scan cut first)"
    );
    assert_eq!(
        inputs.len(),
        circuit.primary_inputs().len(),
        "input vector length mismatch"
    );
    let mut values = vec![false; circuit.num_nodes()];
    for (&pi, &v) in circuit.primary_inputs().iter().zip(inputs) {
        values[pi.index()] = v;
    }
    let mut fanin_buf: Vec<bool> = Vec::with_capacity(8);
    for &id in circuit.topo_order() {
        let node = circuit.node(id);
        if node.kind() == GateKind::Input {
            continue;
        }
        fanin_buf.clear();
        fanin_buf.extend(node.fanins().iter().map(|f| values[f.index()]));
        values[id.index()] = node.kind().eval(&fanin_buf);
    }
    values
}

/// Extracts the primary-output values from a full value table.
pub fn output_values(circuit: &Circuit, values: &[bool]) -> Vec<bool> {
    circuit
        .primary_outputs()
        .iter()
        .map(|o| values[o.index()])
        .collect()
}

/// Simulates 64 input vectors at once, one per bit position.
///
/// `inputs[i]` packs the values of primary input `i` across all 64
/// patterns. Returns one packed word per node.
///
/// # Panics
///
/// Panics under the same conditions as [`simulate`].
pub fn simulate_words(circuit: &Circuit, inputs: &[u64]) -> Vec<u64> {
    assert!(
        circuit.is_combinational(),
        "logic simulation requires a combinational circuit (apply the scan cut first)"
    );
    assert_eq!(
        inputs.len(),
        circuit.primary_inputs().len(),
        "input vector length mismatch"
    );
    let mut values = vec![0u64; circuit.num_nodes()];
    for (&pi, &v) in circuit.primary_inputs().iter().zip(inputs) {
        values[pi.index()] = v;
    }
    let mut fanin_buf: Vec<u64> = Vec::with_capacity(8);
    for &id in circuit.topo_order() {
        let node = circuit.node(id);
        if node.kind() == GateKind::Input {
            continue;
        }
        fanin_buf.clear();
        fanin_buf.extend(node.fanins().iter().map(|f| values[f.index()]));
        values[id.index()] = node.kind().eval_words(&fanin_buf);
    }
    values
}

/// Simulates a two-vector delay test pattern and classifies the activity at
/// every node.
///
/// # Panics
///
/// Panics under the same conditions as [`simulate`].
pub fn simulate_pair(circuit: &Circuit, v1: &[bool], v2: &[bool]) -> Vec<Transition> {
    let before = simulate(circuit, v1);
    let after = simulate(circuit, v2);
    before
        .into_iter()
        .zip(after)
        .map(|(b, a)| Transition::from_pair(b, a))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CircuitBuilder, GateKind};

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
    fn mux_truth_table() {
        let c = mux();
        for s in [false, true] {
            for a in [false, true] {
                for d in [false, true] {
                    let values = simulate(&c, &[s, a, d]);
                    let y = output_values(&c, &values)[0];
                    assert_eq!(y, if s { d } else { a }, "s={s} a={a} d={d}");
                }
            }
        }
    }

    #[test]
    fn word_simulation_matches_scalar() {
        let c = mux();
        // all 8 input combinations packed in bits 0..8
        let mut words = vec![0u64; 3];
        for pat in 0..8u64 {
            for (i, w) in words.iter_mut().enumerate() {
                if pat >> i & 1 == 1 {
                    *w |= 1 << pat;
                }
            }
        }
        let wvals = simulate_words(&c, &words);
        for pat in 0..8usize {
            let bits = [(pat & 1 != 0), (pat & 2 != 0), (pat & 4 != 0)];
            let svals = simulate(&c, &bits);
            for id in c.node_ids() {
                assert_eq!(
                    wvals[id.index()] >> pat & 1 == 1,
                    svals[id.index()],
                    "node {} pattern {pat}",
                    c.node(id).name()
                );
            }
        }
    }

    #[test]
    fn transitions_classified() {
        assert_eq!(Transition::from_pair(false, true), Transition::Rise);
        assert_eq!(Transition::from_pair(true, false), Transition::Fall);
        assert_eq!(Transition::from_pair(true, true), Transition::Stable(true));
        assert!(Transition::Rise.is_event());
        assert!(!Transition::Stable(false).is_event());
        assert!(Transition::Rise.final_value());
        assert!(!Transition::Rise.initial_value());
        assert!(Transition::Fall.initial_value());
    }

    #[test]
    fn pair_simulation_finds_events() {
        let c = mux();
        // s stays 0, a rises => y rises through t0.
        let trans = simulate_pair(&c, &[false, false, false], &[false, true, false]);
        let y = c.find("y").unwrap();
        assert_eq!(trans[y.index()], Transition::Rise);
        let switches = |name: &str| trans[c.find(name).unwrap().index()].is_event();
        assert!(switches("a"));
        assert!(switches("t0"));
        assert!(!switches("s"));
    }

    #[test]
    #[should_panic(expected = "input vector length mismatch")]
    fn wrong_input_length_panics() {
        let c = mux();
        simulate(&c, &[true]);
    }

    #[test]
    #[should_panic(expected = "combinational")]
    fn sequential_circuit_panics() {
        let mut b = CircuitBuilder::new("seq");
        let a = b.input("a");
        let q = b.dff_placeholder("q");
        let d = b.gate("d", GateKind::Nand, &[a, q]).unwrap();
        b.set_dff_input(q, d).unwrap();
        b.output(d);
        let c = b.finish().unwrap();
        simulate(&c, &[true, false]);
    }
}
