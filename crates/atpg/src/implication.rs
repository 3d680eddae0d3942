//! Event-driven implication shared by the PODEM engine (five-valued) and
//! two-frame path justification (three-valued, one queue per frame).
//!
//! A search step changes the assignment of one or a few primary inputs.
//! Instead of re-simulating the whole circuit, the caller schedules the
//! changed inputs and [`EventQueue::propagate`] re-evaluates only their
//! fanout, in ascending [`Circuit::level`] order, stopping wherever a
//! value does not change. Every fanin of a node sits on a strictly lower
//! level, so a node is evaluated only after all of its changed fanins
//! have their final values. Given values consistent with the previous
//! assignment, one pass therefore stores exactly the values a full
//! topological sweep would compute from the new one.

use sdd_netlist::{Circuit, NodeId};

/// Per-level buckets of nodes awaiting re-evaluation, with a `queued`
/// bit per node so each node is evaluated at most once per pass.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    buckets: Vec<Vec<NodeId>>,
    queued: Vec<bool>,
    /// The lowest level that may hold a queued node.
    level: usize,
    pending: usize,
}

impl EventQueue {
    /// An empty queue sized for `circuit`.
    pub(crate) fn new(circuit: &Circuit) -> Self {
        let levels = circuit.depth() as usize + 1;
        EventQueue {
            buckets: vec![Vec::new(); levels],
            queued: vec![false; circuit.num_nodes()],
            level: levels,
            pending: 0,
        }
    }

    /// Queues `id` for re-evaluation in the next pass.
    pub(crate) fn schedule(&mut self, circuit: &Circuit, id: NodeId) {
        if std::mem::replace(&mut self.queued[id.index()], true) {
            return;
        }
        let level = circuit.level(id) as usize;
        self.buckets[level].push(id);
        self.level = self.level.min(level);
        self.pending += 1;
    }

    fn pop(&mut self) -> Option<NodeId> {
        while self.pending > 0 {
            if let Some(id) = self.buckets[self.level].pop() {
                self.pending -= 1;
                self.queued[id.index()] = false;
                return Some(id);
            }
            self.level += 1;
        }
        None
    }

    /// Re-evaluates every queued node with `eval` in ascending level
    /// order, stores each changed value and queues the sinks of a changed
    /// node. `eval` computes a node's value from the current `values`
    /// (and whatever assignment it closes over).
    pub(crate) fn propagate<V: Copy + PartialEq>(
        &mut self,
        circuit: &Circuit,
        values: &mut [V],
        mut eval: impl FnMut(&[V], NodeId) -> V,
    ) {
        while let Some(id) = self.pop() {
            let v = eval(values, id);
            if v != values[id.index()] {
                values[id.index()] = v;
                for &e in circuit.fanout_edges(id) {
                    self.schedule(circuit, circuit.edge(e).to());
                }
            }
        }
    }
}

/// Generated circuits and random decision sequences shared by the
/// differential tests of both implication users.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use proptest::prelude::*;
    use sdd_netlist::generator::{generate, GeneratorConfig};

    /// The generator of the crate's thread-count determinism tests.
    pub(crate) fn generated(seed: u64) -> Circuit {
        generate(&GeneratorConfig {
            name: "imply".into(),
            inputs: 12,
            outputs: 6,
            dffs: 0,
            gates: 120,
            depth: 9,
            seed,
        })
        .expect("generates")
        .to_combinational()
        .expect("cut")
    }

    /// One search step on a decision stack of input positions.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Step {
        /// Assign the first unassigned input at or after `pick`.
        Decide { pick: usize, value: bool },
        /// Invert the top decision.
        Flip,
        /// Unassign the top decision.
        Pop,
    }

    /// Steps, each with whether an implication pass follows it (the
    /// search pops and flips several inputs before one pass).
    pub(crate) fn arb_steps() -> impl Strategy<Value = Vec<(Step, bool)>> {
        let step =
            (0u8..5, any::<usize>(), any::<bool>(), 0u8..10).prop_map(|(kind, pick, value, p)| {
                let step = match kind {
                    0..=2 => Step::Decide { pick, value },
                    3 => Step::Flip,
                    _ => Step::Pop,
                };
                (step, p < 7)
            });
        proptest::collection::vec(step, 1..48)
    }

    /// The input and new value `step` changes, updating `stack`; `None`
    /// when the step does not apply (nothing to flip, all assigned).
    pub(crate) fn apply(
        step: Step,
        assignment: &[Option<bool>],
        stack: &mut Vec<usize>,
    ) -> Option<(usize, Option<bool>)> {
        match step {
            Step::Decide { pick, value } => {
                let n = assignment.len();
                let k = (0..n)
                    .map(|i| (pick + i) % n)
                    .find(|&k| assignment[k].is_none())?;
                stack.push(k);
                Some((k, Some(value)))
            }
            Step::Flip => {
                let &k = stack.last()?;
                Some((k, assignment[k].map(|v| !v)))
            }
            Step::Pop => stack.pop().map(|k| (k, None)),
        }
    }

    #[test]
    fn queue_evaluates_each_node_once_in_level_order() {
        let c = generated(3);
        let mut q = EventQueue::new(&c);
        for &pi in c.primary_inputs() {
            q.schedule(&c, pi);
            q.schedule(&c, pi);
        }
        let mut values = vec![0u32; c.num_nodes()];
        let mut seen = vec![0u32; c.num_nodes()];
        let mut last_level = 0;
        q.propagate(&c, &mut values, |_, id| {
            assert!(c.level(id) >= last_level, "levels out of order");
            last_level = c.level(id);
            seen[id.index()] += 1;
            1
        });
        assert!(seen.iter().all(|&n| n <= 1), "a node was evaluated twice");
        // Every value changed from 0 to 1, so the whole fanout of the
        // inputs, the whole circuit here, was reached.
        assert!(values.iter().all(|&v| v == 1));
    }
}
