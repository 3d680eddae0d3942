//! Property-based tests for the ATPG crate: multi-valued algebra laws,
//! PODEM soundness (every generated test verifiably detects its fault)
//! and fault-simulation consistency.

use proptest::prelude::*;
use sdd_atpg::fault::{StuckAtFault, StuckValue, TransitionDirection, TransitionFault};
use sdd_atpg::fault_sim::{stuck_at_detects, transition_detects};
use sdd_atpg::podem::{fill_assignment, fill_pattern_quiet, generate, justify, PodemConfig};
use sdd_atpg::value::{V3, V5};
use sdd_atpg::TestPattern;
use sdd_netlist::generator::{generate as gen_circuit, GeneratorConfig};
use sdd_netlist::{logic, Circuit, GateKind, NodeId};

fn arb_v3() -> impl Strategy<Value = V3> {
    prop::sample::select(vec![V3::Zero, V3::One, V3::X])
}

fn arb_v5() -> impl Strategy<Value = V5> {
    prop::sample::select(vec![V5::Zero, V5::One, V5::X, V5::D, V5::Db])
}

fn arb_kind() -> impl Strategy<Value = GateKind> {
    prop::sample::select(GateKind::MULTI_INPUT_KINDS.to_vec())
}

fn small_comb(seed: u64) -> Circuit {
    gen_circuit(&GeneratorConfig {
        name: "atpg-prop".into(),
        inputs: 8,
        outputs: 5,
        dffs: 0,
        gates: 60,
        depth: 7,
        seed,
    })
    .expect("generates")
    .to_combinational()
    .expect("cut")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// V3 evaluation is *sound* w.r.t. boolean evaluation: if the
    /// three-valued result is known, every completion of the X inputs
    /// produces that value.
    #[test]
    fn v3_soundness(kind in arb_kind(), ins in proptest::collection::vec(arb_v3(), 2..5)) {
        let out = V3::eval_gate(kind, &ins);
        let Some(expected) = out.to_bool() else { return Ok(()); };
        // Enumerate completions of X inputs (≤ 2^4).
        let x_positions: Vec<usize> = ins.iter().enumerate()
            .filter(|(_, v)| !v.is_known()).map(|(i, _)| i).collect();
        for mask in 0..(1u32 << x_positions.len()) {
            let concrete: Vec<bool> = ins.iter().enumerate().map(|(i, v)| {
                v.to_bool().unwrap_or_else(|| {
                    let k = x_positions.iter().position(|&p| p == i).unwrap();
                    mask >> k & 1 == 1
                })
            }).collect();
            prop_assert_eq!(kind.eval(&concrete), expected);
        }
    }

    /// V5 evaluation decomposes exactly into good/faulty V3 evaluations.
    #[test]
    fn v5_decomposes(kind in arb_kind(), ins in proptest::collection::vec(arb_v5(), 2..5)) {
        let out = V5::eval_gate(kind, &ins);
        let good: Vec<V3> = ins.iter().map(|v| v.good()).collect();
        let faulty: Vec<V3> = ins.iter().map(|v| v.faulty()).collect();
        let want = V5::from_parts(
            V3::eval_gate(kind, &good),
            V3::eval_gate(kind, &faulty),
        );
        prop_assert_eq!(out, want);
    }

    /// Every PODEM-generated test detects its fault (verified by
    /// independent fault simulation), for arbitrary circuits and faults.
    #[test]
    fn podem_tests_detect(seed in 0u64..200, node_pick in 0usize..1000, value in any::<bool>()) {
        let c = small_comb(seed);
        let node = NodeId::from_index(node_pick % c.num_nodes());
        let fault = StuckAtFault::new(node, if value { StuckValue::One } else { StuckValue::Zero });
        // An Err (untestable or aborted) is acceptable.
        if let Ok(assignment) = generate(&c, fault, PodemConfig::default()) {
            let v = fill_assignment(&assignment, seed);
            let det = stuck_at_detects(&c, fault, &v);
            prop_assert!(det.iter().any(|&d| d), "{fault} test does not detect");
        }
    }

    /// Justification really justifies, for arbitrary targets.
    #[test]
    fn justify_is_sound(seed in 0u64..200, node_pick in 0usize..1000, value in any::<bool>()) {
        let c = small_comb(seed);
        let node = NodeId::from_index(node_pick % c.num_nodes());
        if let Ok(assignment) = justify(&c, node, value, PodemConfig::default()) {
            let v = fill_assignment(&assignment, 1);
            let sim = logic::simulate(&c, &v);
            prop_assert_eq!(sim[node.index()], value);
        }
    }

    /// Quiet fill keeps every assigned bit and never switches a free one.
    #[test]
    fn quiet_fill_respects_assignments(
        bits in proptest::collection::vec((0u8..3, 0u8..3), 1..16),
        seed in 0u64..100,
    ) {
        let decode = |b: u8| match b { 0 => Some(false), 1 => Some(true), _ => None };
        let v1: Vec<Option<bool>> = bits.iter().map(|&(a, _)| decode(a)).collect();
        let v2: Vec<Option<bool>> = bits.iter().map(|&(_, b)| decode(b)).collect();
        let p = fill_pattern_quiet(&v1, &v2, seed);
        for i in 0..bits.len() {
            if let Some(x) = v1[i] { prop_assert_eq!(p.v1[i], x); }
            if let Some(y) = v2[i] { prop_assert_eq!(p.v2[i], y); }
            if v1[i].is_none() && v2[i].is_none() {
                prop_assert_eq!(p.v1[i], p.v2[i], "free input {} switches", i);
            }
        }
    }

    /// Transition-fault detection requires the launch transition; when it
    /// reports a detection, the faulty second-frame response genuinely
    /// differs at that output.
    #[test]
    fn transition_detection_consistent(seed in 0u64..100, edge_pick in 0usize..2000, pat_seed in 0u64..100) {
        use rand::{Rng, SeedableRng};
        let c = small_comb(seed);
        let edge = sdd_netlist::EdgeId::from_index(edge_pick % c.num_edges());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(pat_seed);
        let n = c.primary_inputs().len();
        let p = TestPattern::new(
            (0..n).map(|_| rng.gen()).collect(),
            (0..n).map(|_| rng.gen()).collect(),
        );
        for dir in [TransitionDirection::Rise, TransitionDirection::Fall] {
            let fault = TransitionFault::new(edge, dir);
            let before = logic::simulate(&c, &p.v1);
            let after = logic::simulate(&c, &p.v2);
            let driver = c.edge(edge).from();
            let launched = before[driver.index()] == dir.initial()
                && after[driver.index()] == dir.final_value();
            let det = transition_detects(&c, fault, &p);
            prop_assert_eq!(det.is_some(), launched);
        }
    }
}
