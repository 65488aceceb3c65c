//! `lemma1-np` / `cpc-poly`: the complexity experiment.
//!
//! Part A — execution-correctness recognition is NP-complete (Lemma 1 /
//! Theorem 1): solve random 3-SAT instances through the paper's reduction
//! and report solver work, which grows exponentially with the variable
//! count for the exhaustive strategy and remains heavily instance-
//! dependent (but far smaller) for backtracking.
//!
//! Part B — CPC membership is polynomial (Section 4.3): time the
//! per-object reads-before-writes test on schedules of growing length and
//! report ops/ms, which stays near-linear in the schedule length squared.
//!
//! Part C — `ablate-assign` (Section 5.1's heuristics question): the
//! version-assignment strategies on seeded random CNFs as the versions
//! per entity grow, reporting solver work (`SolveStats`). Deterministic.
//!
//! Part D — recognizer cost: µs per call of the polynomial (CSR, MVCSR,
//! polygraph VSR, CPC) and exponential (VSR, MVSR) recognizers on random
//! schedules and on the Figure 2 corpus — the practical face of
//! "efficient classes vs NP-complete classes".

use ks_bench::{random_interleaving, random_programs};
use ks_core::np::{decide, theorem1_instance};
use ks_kernel::EntityId;
use ks_predicate::random::{random_candidates, random_cnf, random_ksat, CnfParams, SplitMix64};
use ks_predicate::sat::solve_sat_via_versions;
use ks_predicate::{solve, solve_with_propagation, Object, Strategy};
use ks_schedule::corpus::fig2_regions;
use ks_schedule::pc::is_cpc;
use ks_schedule::{csr, mvsr, polygraph, vsr, Schedule};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Random CNFs per Part C row.
const CNFS: u64 = 100;

fn main() {
    println!("Part A — Lemma 1 / Theorem 1: NP-complete recognition\n");
    println!("vars  clauses  exhaustive_nodes  backtracking_nodes  sat");
    let mut rng = SplitMix64::new(0xC0FFEE);
    for n in [6usize, 8, 10, 12, 14, 16] {
        let m = (n as f64 * 4.3) as usize; // near the 3-SAT phase transition
        let inst = random_ksat(&mut rng, n, m, 3);
        let (_, stats_ex) = solve_sat_via_versions(&inst, Strategy::Exhaustive);
        let (sat, stats_bt) = solve_sat_via_versions(&inst, Strategy::Backtracking);
        // cross-check through the full Theorem 1 transaction-level instance
        let via_model = decide(&theorem1_instance(&inst), Strategy::Backtracking);
        assert_eq!(sat.is_some(), via_model.is_some());
        println!(
            "{n:>4}  {m:>7}  {:>16}  {:>18}  {}",
            stats_ex.nodes,
            stats_bt.nodes,
            if sat.is_some() { "yes" } else { "no" }
        );
    }

    println!("\nPart B — CPC membership is polynomial (Section 4.3)\n");
    println!("txns  ops_total  objects  time_us  cpc");
    for txns in [4usize, 8, 16, 32, 64] {
        let ops_per = 16;
        let entities = 16;
        let programs = random_programs(&mut rng, txns, ops_per, entities, 60);
        let s = random_interleaving(&programs, &mut rng);
        let objects: Vec<Object> = (0..entities as u32)
            .map(|i| Object::from_iter([EntityId(i)]))
            .collect();
        let start = Instant::now();
        let member = is_cpc(&s, &objects);
        let took = start.elapsed().as_micros();
        println!(
            "{txns:>4}  {:>9}  {:>7}  {took:>7}  {member}",
            txns * ops_per,
            objects.len()
        );
    }

    println!("\nPart C — ablate-assign: assignment strategies vs versions per entity");
    println!("(solver work summed over {CNFS} seeded random CNFs per row)\n");
    println!("versions  strategy                     nodes  clause_checks  sat");
    let params = CnfParams {
        num_entities: 8,
        num_clauses: 6,
        clause_width: 3,
        max_const: 9,
        entity_entity_pct: 20,
    };
    let strategies = [
        Strategy::Exhaustive,
        Strategy::Backtracking,
        Strategy::GreedyLatest,
    ];
    for versions in [2usize, 4, 8] {
        // One row per strategy, plus backtracking after propagation.
        let mut rows = [(0u64, 0u64, 0u64); 4];
        for seed in 0..CNFS {
            let mut rng = SplitMix64::new(seed);
            let cnf = random_cnf(&mut rng, &params);
            let cands =
                random_candidates(&mut rng, params.num_entities, versions, params.max_const);
            let (outcome, stats, _) = solve_with_propagation(&cnf, &cands, Strategy::Backtracking);
            let mut runs = strategies.map(|s| solve(&cnf, &cands, s)).to_vec();
            runs.push((outcome, stats));
            for (row, (o, st)) in rows.iter_mut().zip(&runs) {
                assert_eq!(o.is_sat(), runs[0].0.is_sat(), "strategies disagree");
                row.0 += st.nodes;
                row.1 += st.clause_checks;
                row.2 += u64::from(o.is_sat());
            }
        }
        let names = strategies
            .map(|s| format!("{s:?}"))
            .into_iter()
            .chain(["Backtracking+propagation".to_string()]);
        for (name, (nodes, checks, sat)) in names.zip(rows) {
            println!("{versions:>8}  {name:<24}  {nodes:>8}  {checks:>13}  {sat}/{CNFS}");
        }
    }

    println!("\nPart D — recognizer cost, µs per call (VSR, MVSR exponential)\n");
    let names: String = RECOGNIZERS.map(|(name, _)| format!("{name:>10}")).concat();
    println!("{:<11}  {:>4}{names}", "schedule", "ops");
    for txns in [3usize, 5, 7] {
        let mut rng = SplitMix64::new(txns as u64);
        let programs = random_programs(&mut rng, txns, 4, 4, 50);
        let s = random_interleaving(&programs, &mut rng);
        let objects: Vec<Object> = (0..4).map(|i| Object::from_iter([EntityId(i)])).collect();
        recognizer_row(&format!("{txns} txns"), &[(s, objects)]);
    }
    let corpus: Vec<_> = fig2_regions()
        .into_iter()
        .map(|r| (r.schedule, r.objects))
        .collect();
    recognizer_row("fig2 corpus", &corpus);
    println!("\nok");
}

/// Mean µs per call of `f`, repeated for at least 20 ms.
fn us_per_call(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || start.elapsed() < Duration::from_millis(20) {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
}

type Recognizer = fn(&Schedule, &[Object]) -> bool;

/// Part D's columns: the polynomial recognizers and the exponential VSR
/// and MVSR searches.
const RECOGNIZERS: [(&str, Recognizer); 6] = [
    ("csr", |s, _| csr::is_csr(s)),
    ("mvcsr", |s, _| mvsr::is_mvcsr(s)),
    ("vsr", |s, _| vsr::is_vsr(s)),
    ("vsr_poly", |s, _| polygraph::is_vsr_polygraph(s)),
    ("mvsr", |s, _| mvsr::is_mvsr(s)),
    ("cpc", is_cpc),
];

/// One Part D row: every recognizer over every case (a corpus pass counts
/// as one call). The two VSR recognizers must agree.
fn recognizer_row(label: &str, cases: &[(Schedule, Vec<Object>)]) {
    for (s, _) in cases {
        assert_eq!(vsr::is_vsr(s), polygraph::is_vsr_polygraph(s));
    }
    let ops: usize = cases.iter().map(|(s, _)| s.len()).sum();
    let cells: String = RECOGNIZERS
        .iter()
        .map(|(_, recognize)| {
            let us = us_per_call(|| {
                for (s, objects) in cases {
                    black_box(recognize(s, objects));
                }
            });
            format!("{us:>10.1}")
        })
        .collect();
    println!("{label:<11}  {ops:>4}{cells}");
}
