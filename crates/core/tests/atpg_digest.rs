//! Golden digest of the ATPG searches a campaign runs. For eight
//! stride-sampled arcs of s1196 (seed 1) under the quick campaign's
//! budgets it hashes every path-test candidate outcome, every
//! transition-fault PODEM outcome and the final pattern set through the
//! site. s1196 is large enough that searches run out of budget
//! (`Aborted`) as well as exhaust their space (`Untestable`), so a change
//! to how the searches imply, backtrace or count their budget moves the
//! digest even where the s27 checkpoint pin in `store.rs` cannot see it.

use sdd_atpg::fault::{PathDelayFault, TransitionDirection, TransitionFault};
use sdd_atpg::path_atpg::{generate_candidate_tests, generate_robust_or_nonrobust, PathTest};
use sdd_atpg::path_sens::SensitizationMode;
use sdd_atpg::podem::generate_transition_assignments_diverse;
use sdd_atpg::{AtpgError, PatternSet, TestPattern};
use sdd_core::format::StableHasher;
use sdd_core::inject::{patterns_through_site_with, AtpgConfig, CampaignConfig, CampaignEnv};
use sdd_netlist::generator::generate;
use sdd_netlist::{profiles, EdgeId};
use sdd_timing::path;

fn hash_pattern(h: &mut StableHasher, p: &TestPattern) {
    h.write_usize(p.width());
    for &b in p.v1.iter().chain(&p.v2) {
        h.write_bool(b);
    }
}

fn hash_assignment(h: &mut StableHasher, a: &[Option<bool>]) {
    h.write_usize(a.len());
    for v in a {
        h.write_u64(match v {
            None => 2,
            Some(b) => u64::from(*b),
        });
    }
}

/// Outcome counts over the searches the digest covers, so a reader can
/// see that the pin exercises success, exhaustion and budget exhaustion.
#[derive(Debug, Default)]
struct Outcomes {
    ok: usize,
    untestable: usize,
    aborted: usize,
}

impl Outcomes {
    fn count<T>(&mut self, r: &Result<T, AtpgError>) {
        match r {
            Ok(_) => self.ok += 1,
            Err(AtpgError::Untestable { .. }) => self.untestable += 1,
            Err(AtpgError::Aborted { .. }) => self.aborted += 1,
            Err(e) => panic!("unexpected ATPG error: {e}"),
        }
    }
}

#[test]
fn s1196_atpg_outputs_are_pinned() {
    let config = CampaignConfig::quick(1);
    let atpg = AtpgConfig::from_campaign(&config);
    let profile = profiles::by_name("s1196").expect("s1196 profile");
    let circuit = generate(&profile.to_config(1))
        .expect("generates")
        .to_combinational()
        .expect("combinational");
    let env = CampaignEnv::new(&circuit, &config).expect("environment");
    // Most long s1196 paths are false paths: at offset 0 none of the 128
    // path candidates through the eight arcs is sensitizable. Offset 18
    // keeps the stride but reaches arcs where some path tests succeed.
    let stride = circuit.num_edges() / 8;
    let sites: Vec<EdgeId> = circuit
        .edge_ids()
        .skip(18)
        .step_by(stride)
        .take(8)
        .collect();

    let mut h = StableHasher::new();
    let (mut paths, mut transitions) = (Outcomes::default(), Outcomes::default());
    for &site in &sites {
        // The campaign's site-keyed pattern seed.
        let seed = config
            .seed
            .wrapping_mul(0x94D0_49BB_1331_11EB)
            .wrapping_add(site.index() as u64);
        h.write_usize(site.index());

        // Path-test candidates, built as `patterns_through_site_with`
        // builds them.
        let mut set = PatternSet::new();
        let candidates: Vec<(PathDelayFault, u64)> =
            path::k_longest_through_edge(&circuit, &env.timing, site, atpg.n_paths * 2)
                .map(|paths| {
                    paths
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
                        .collect()
                })
                .unwrap_or_default();
        let tests: Vec<Option<PathTest>> =
            generate_candidate_tests(&circuit, &candidates, atpg.path_config);
        h.write_usize(tests.len());
        let mut path_tests = 0usize;
        let mut accepting = true;
        for ((fault, test_seed), test) in candidates.iter().zip(&tests) {
            paths.count(&generate_robust_or_nonrobust(
                &circuit,
                fault,
                atpg.path_config,
                *test_seed,
            ));
            match test {
                None => h.write_u64(0),
                Some(pt) => {
                    h.write_u64(match pt.mode {
                        SensitizationMode::Robust => 1,
                        SensitizationMode::NonRobust => 2,
                    });
                    hash_pattern(&mut h, &pt.pattern);
                    if accepting {
                        if set.push(pt.pattern.clone()) {
                            path_tests += 1;
                        }
                        accepting = path_tests < atpg.n_paths && set.len() < atpg.max_patterns;
                    }
                }
            }
        }

        // Transition-fault searches, with the decision seeds
        // `patterns_through_site_with` derives from the path phase.
        let fills_per_direction = atpg.max_patterns.saturating_sub(set.len()).max(2);
        let searches = fills_per_direction.div_ceil(2).min(4);
        for (dix, direction) in [TransitionDirection::Rise, TransitionDirection::Fall]
            .into_iter()
            .enumerate()
        {
            for si in 0..searches {
                let decision_seed = seed
                    .wrapping_mul(0xD6E8_FEB8_6659_FD93)
                    .wrapping_add((dix * searches + si) as u64);
                let r = generate_transition_assignments_diverse(
                    &circuit,
                    TransitionFault::new(site, direction),
                    atpg.podem_config,
                    Some(decision_seed),
                );
                transitions.count(&r);
                match r.ok() {
                    None => h.write_u64(0),
                    Some((v1, v2)) => {
                        h.write_u64(1);
                        hash_assignment(&mut h, &v1);
                        hash_assignment(&mut h, &v2);
                    }
                }
            }
        }

        // The final pattern set through the site.
        let final_set = patterns_through_site_with(
            &circuit,
            &env.timing,
            site,
            atpg.n_paths,
            atpg.max_patterns,
            seed,
            atpg.path_config,
            atpg.podem_config,
        );
        h.write_usize(final_set.len());
        for p in final_set.iter() {
            hash_pattern(&mut h, p);
        }
    }
    eprintln!("path candidates (robust or non-robust): {paths:?}");
    eprintln!("transition PODEM searches: {transitions:?}");
    assert!(
        paths.ok > 0 && paths.untestable > 0 && paths.aborted > 0,
        "path searches cover too few outcomes: {paths:?}"
    );
    assert!(
        transitions.ok > 0 && transitions.untestable > 0 && transitions.aborted > 0,
        "transition searches cover too few outcomes: {transitions:?}"
    );
    assert_eq!(h.finish(), 0x7a6d_37ba_eeb5_284a, "ATPG outputs changed");
}
