//! Protocol-layer fuzzing: drive a bare [`ProtocolManager`] directly,
//! with and without `force_assign` perturbations.
//!
//! The network harness cannot reach inside a running `TxnService` to
//! perturb a shard manager mid-flight, so the `force_assign` fault class
//! lives here: a seeded scenario plants a version assignment the
//! protocol would never choose and asserts the predicate-correctness
//! oracle both catches it and names the victim. The clean twin drives
//! random seeded traffic with no forcing and asserts the oracle stays
//! silent — the two directions that make an oracle trustworthy.

use crate::plan::MAX_VALUE;
use ks_core::Specification;
use ks_kernel::{Domain, EntityId, Schema, UniqueState};
use ks_obs::Recorder;
use ks_predicate::random::SplitMix64;
use ks_predicate::{Atom, Clause, CmpOp, Cnf, Strategy};
use ks_protocol::{CommitOutcome, ProtocolManager, Txn, ValidationOutcome};
use ks_server::{verify_certifiers_with_dump, VerifyReport, ViolationDump};

/// Entities the bare-manager scenarios run over.
const PROTO_ENTITIES: usize = 4;

fn setup(rng: &mut SplitMix64) -> (Schema, UniqueState, Vec<i64>) {
    let schema = Schema::uniform(
        (0..PROTO_ENTITIES).map(|i| format!("p{i}")),
        Domain::Range {
            min: 0,
            max: MAX_VALUE,
        },
    );
    let initial: Vec<i64> = (0..PROTO_ENTITIES)
        .map(|_| rng.below(MAX_VALUE as u64 + 1) as i64)
        .collect();
    let state = UniqueState::new(&schema, initial.clone()).expect("initial values in domain");
    (schema, state, initial)
}

fn unit_spec(e: EntityId, op: CmpOp, v: i64) -> Specification {
    Specification::new(
        Cnf::new(vec![Clause::unit(Atom::cmp_const(e, op, v))]),
        Cnf::truth(),
    )
}

/// Run the seeded forced-misassignment scenario: a writer commits a new
/// version of one entity, a victim validates against the *initial*
/// version, and `force_assign` rebinds the victim to the writer's
/// version — which falsifies the victim's input predicate. Returns the
/// verification report and dump; the report must name the victim.
pub fn run_proto_forced(seed: u64) -> (VerifyReport, Option<ViolationDump>, u32) {
    let mut rng = SplitMix64::new(seed ^ 0xF0CE_A551);
    let (schema, state, initial) = setup(&mut rng);
    let mut pm = ProtocolManager::new(schema, &state, Specification::trivial());
    let recorder = Recorder::new(1 << 12);
    pm.attach_obs(recorder.sink(0));

    let target = EntityId(rng.index(PROTO_ENTITIES) as u32);
    let old = initial[target.0 as usize];
    // A value the writer commits that provably breaks `target = old`.
    let new = (old + 1 + rng.below(MAX_VALUE as u64) as i64) % (MAX_VALUE + 1);
    debug_assert_ne!(new, old);

    // Background noise: a tautological committer on some entity.
    let noise = pm
        .define(
            pm.root(),
            unit_spec(EntityId(rng.index(PROTO_ENTITIES) as u32), CmpOp::Ge, 0),
            &[],
            &[],
        )
        .expect("define noise");
    assert_eq!(
        pm.validate(noise, Strategy::Backtracking)
            .expect("validate"),
        ValidationOutcome::Validated
    );
    assert_eq!(pm.commit(noise).expect("commit"), CommitOutcome::Committed);

    // Writer: creates version 1 of `target` with the conflicting value.
    let writer = pm
        .define(pm.root(), unit_spec(target, CmpOp::Ge, 0), &[], &[])
        .expect("define writer");
    assert_eq!(
        pm.validate(writer, Strategy::Backtracking)
            .expect("validate"),
        ValidationOutcome::Validated
    );
    pm.write(writer, target, new).expect("write");
    assert_eq!(pm.commit(writer).expect("commit"), CommitOutcome::Committed);

    // Victim: input pins `target = old`; validation correctly assigns the
    // initial version.
    let victim = pm
        .define(pm.root(), unit_spec(target, CmpOp::Eq, old), &[], &[])
        .expect("define victim");
    assert_eq!(
        pm.validate(victim, Strategy::Backtracking)
            .expect("validate"),
        ValidationOutcome::Validated
    );

    // The perturbation the protocol would never make.
    pm.force_assign(victim, target, 1).expect("force_assign");
    assert_eq!(pm.commit(victim).expect("commit"), CommitOutcome::Committed);

    let certs: Vec<Box<dyn ks_protocol::Certifier>> = vec![Box::new(pm)];
    let (report, dump) = verify_certifiers_with_dump(&certs, &recorder);
    (report, dump, victim.0 as u32)
}

/// Drive random seeded traffic on a bare manager with *no* perturbation
/// and return the verification report, which must be correct — the
/// oracle's false-positive check.
pub fn run_proto_clean(seed: u64) -> VerifyReport {
    let mut rng = SplitMix64::new(seed ^ 0xC1EA_0001);
    let (schema, state, initial) = setup(&mut rng);
    let mut pm = ProtocolManager::new(schema, &state, Specification::trivial());
    let recorder = Recorder::new(1 << 12);
    pm.attach_obs(recorder.sink(0));

    let mut open: Vec<Txn> = Vec::new();
    for _ in 0..40 {
        match rng.below(100) {
            0..=34 => {
                let e = EntityId(rng.index(PROTO_ENTITIES) as u32);
                let spec = if rng.below(100) < 25 {
                    // Sometimes pin to the initial value (may be stale by
                    // now — validation is allowed to fail).
                    unit_spec(e, CmpOp::Eq, initial[e.0 as usize])
                } else {
                    unit_spec(e, CmpOp::Ge, 0)
                };
                if let Ok(t) = pm.define(pm.root(), spec, &[], &[]) {
                    if matches!(
                        pm.validate(t, Strategy::Backtracking),
                        Ok(ValidationOutcome::Validated)
                    ) {
                        open.push(t);
                    } else {
                        let _ = pm.abort(t);
                    }
                }
            }
            35..=64 => {
                if !open.is_empty() {
                    let t = open[rng.index(open.len())];
                    let e = EntityId(rng.index(PROTO_ENTITIES) as u32);
                    let _ = pm.write(t, e, rng.below(MAX_VALUE as u64 + 1) as i64);
                }
            }
            65..=84 => {
                if !open.is_empty() {
                    let t = open.remove(rng.index(open.len()));
                    if !matches!(pm.commit(t), Ok(CommitOutcome::Committed)) {
                        let _ = pm.abort(t);
                    }
                }
            }
            _ => {
                if !open.is_empty() {
                    let t = open.remove(rng.index(open.len()));
                    let _ = pm.abort(t);
                }
            }
        }
    }
    for t in open {
        let _ = pm.abort(t);
    }

    let certs: Vec<Box<dyn ks_protocol::Certifier>> = vec![Box::new(pm)];
    let (report, _dump) = verify_certifiers_with_dump(&certs, &recorder);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The DST gate's seed range, as in `tests/teeth.rs`.
    const SEEDS: u64 = 25;

    #[test]
    fn forced_misassignment_is_caught_and_named() {
        for seed in 0..SEEDS {
            let (report, dump, victim) = run_proto_forced(seed);
            assert!(
                !report.is_correct(),
                "seed {seed}: forced misassignment escaped the oracle"
            );
            assert!(
                report.offenders.iter().any(|&(_, t)| t == victim),
                "seed {seed}: offenders {:?} do not name victim {victim}",
                report.offenders
            );
            let dump = dump.expect("violations must dump");
            assert!(
                dump.summary.contains("\"forced\":true"),
                "seed {seed}: summary must surface the forced decision"
            );
        }
    }

    #[test]
    fn clean_fuzz_never_trips_the_oracle() {
        for seed in 0..SEEDS {
            let report = run_proto_clean(seed);
            assert!(report.is_correct(), "seed {seed}: {:?}", report.violations);
        }
    }
}
