//! Thread-count determinism of the parallel ATPG entry points
//! (candidate path tests and the transition dictionary): every result
//! must be bit-identical at 1 vs 4 rayon threads. Each parallel task is
//! a pure function of its inputs and results come back in input order,
//! so this is the contract the core pattern cache (and the paper's
//! reproducibility claims) rest on.

use sdd_atpg::dictionary::TransitionDictionary;
use sdd_atpg::fault::{PathDelayFault, TransitionDirection};
use sdd_atpg::path_atpg::generate_candidate_tests;
use sdd_atpg::pattern::PatternSet;
use sdd_atpg::podem::PodemConfig;
use sdd_netlist::generator::{generate as gen_circuit, GeneratorConfig};
use sdd_netlist::Circuit;
use sdd_timing::{CellLibrary, CircuitTiming, VariationModel};

fn bench_circuit(seed: u64) -> Circuit {
    gen_circuit(&GeneratorConfig {
        name: "det".into(),
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

fn at_threads<T>(n: usize, f: impl FnOnce() -> T + Send) -> T
where
    T: Send,
{
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("pool builds")
        .install(f)
}

#[test]
fn candidate_path_tests_are_thread_count_invariant() {
    let c = bench_circuit(31);
    let t = CircuitTiming::characterize(&c, &CellLibrary::default_025um(), VariationModel::none());
    let mut candidates: Vec<(PathDelayFault, u64)> = Vec::new();
    for (k, eid) in c.edge_ids().enumerate() {
        let Ok(paths) = sdd_timing::path::k_longest_through_edge(&c, &t, eid, 2) else {
            continue;
        };
        for (pix, path) in paths.into_iter().enumerate() {
            for (dix, launch) in [TransitionDirection::Rise, TransitionDirection::Fall]
                .into_iter()
                .enumerate()
            {
                candidates.push((
                    PathDelayFault::new(path.clone(), launch),
                    (k * 4 + pix * 2 + dix) as u64,
                ));
            }
        }
        if candidates.len() >= 48 {
            break;
        }
    }
    assert!(candidates.len() >= 8, "too few candidates to exercise");
    let serial = at_threads(1, || {
        generate_candidate_tests(&c, &candidates, PodemConfig::bulk())
    });
    let parallel = at_threads(4, || {
        generate_candidate_tests(&c, &candidates, PodemConfig::bulk())
    });
    assert_eq!(serial, parallel);
    assert!(serial.iter().any(|t| t.is_some()), "no candidate succeeded");
}

#[test]
fn transition_dictionary_build_is_thread_count_invariant() {
    let c = bench_circuit(47);
    let patterns = PatternSet::random(&c, 24, 3);
    let serial = at_threads(1, || TransitionDictionary::build(&c, &patterns));
    let parallel = at_threads(4, || TransitionDictionary::build(&c, &patterns));
    assert_eq!(serial, parallel);
    assert_eq!(serial.len(), c.num_edges() * 2);
}
