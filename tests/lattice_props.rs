//! Property tests: the containment lattice of Section 4 holds on random
//! schedules, and every witness a classifier returns is actually valid.
//! One exhaustive test counts the interleavings each class admits.

use ks_kernel::EntityId;
use ks_predicate::Object;
use ks_schedule::classify::classify;
use ks_schedule::corpus::xy_objects;
use ks_schedule::csr::{conflict_equivalent, csr_witness};
use ks_schedule::mvsr::{mv_feasible, mvcsr_witness, mvsr_witness};
use ks_schedule::search::{programs_from, Interleavings};
use ks_schedule::vsr::{view_equivalent, vsr_witness};
use ks_schedule::{Action, Op, Schedule, TxnId};
use proptest::prelude::*;

/// Strategy: a random schedule of `txns` transactions over `entities`
/// entities, with program orders induced by the interleaving itself.
fn schedules(txns: u32, entities: u32, max_ops: usize) -> impl Strategy<Value = Schedule> {
    prop::collection::vec((0..txns, 0..entities, prop::bool::ANY), 1..max_ops).prop_map(|ops| {
        Schedule::from_ops(
            ops.into_iter()
                .map(|(t, e, w)| Op {
                    txn: TxnId(t),
                    action: if w { Action::Write } else { Action::Read },
                    entity: EntityId(e),
                })
                .collect(),
        )
    })
}

fn per_entity_objects(s: &Schedule) -> Vec<Object> {
    (0..s.num_entities().max(1) as u32)
        .map(|i| Object::from_iter([EntityId(i)]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Every implication of the class lattice holds on arbitrary schedules.
    #[test]
    fn lattice_implications_hold(s in schedules(4, 3, 14)) {
        let m = classify(&s, &per_entity_objects(&s));
        prop_assert_eq!(m.lattice_violation(), None);
    }

    /// A CSR witness order really is conflict equivalent to the schedule.
    #[test]
    fn csr_witness_is_valid(s in schedules(4, 3, 14)) {
        if let Some(order) = csr_witness(&s) {
            prop_assert!(conflict_equivalent(&s, &s.serialized(&order)));
        }
    }

    /// A VSR witness order really is view equivalent to the schedule.
    #[test]
    fn vsr_witness_is_valid(s in schedules(4, 3, 12)) {
        if let Some(order) = vsr_witness(&s) {
            prop_assert!(view_equivalent(&s, &s.serialized(&order)));
        }
    }

    /// An MVCSR witness is always multiversion-feasible (MVCSR ⊆ MVSR).
    #[test]
    fn mvcsr_witness_is_mv_feasible(s in schedules(4, 3, 14)) {
        if let Some(order) = mvcsr_witness(&s) {
            prop_assert!(mv_feasible(&s, &order));
        }
    }

    /// An MVSR witness really is feasible.
    #[test]
    fn mvsr_witness_is_valid(s in schedules(4, 3, 12)) {
        if let Some(order) = mvsr_witness(&s) {
            prop_assert!(mv_feasible(&s, &order));
        }
    }

    /// Serial schedules are in every class.
    #[test]
    fn serial_schedules_in_every_class(s in schedules(4, 3, 12)) {
        // serialize it first, then classify the serial version
        let order: Vec<TxnId> = s.txns().collect();
        let serial = s.serialized(&order);
        let m = classify(&serial, &per_entity_objects(&serial));
        prop_assert!(m.csr && m.vsr && m.fsr && m.mvcsr && m.mvsr);
        prop_assert!(m.pwcsr && m.pwsr && m.cpc && m.pc && m.pocsr && m.posr);
    }

    /// Projection preserves membership: the restriction of a view
    /// serializable schedule onto any entity subset is view serializable
    /// (the paper's argument for SR ⊆ PWSR).
    #[test]
    fn vsr_closed_under_projection(s in schedules(3, 3, 10)) {
        if ks_schedule::vsr::is_vsr(&s) {
            for e in 0..s.num_entities() as u32 {
                let set = [EntityId(e)].into_iter().collect();
                let proj = s.project_entities(&set);
                prop_assert!(ks_schedule::vsr::is_vsr(&proj), "{} / e{}", s, e);
            }
        }
    }

    /// Classification is deterministic.
    #[test]
    fn classify_deterministic(s in schedules(4, 3, 12)) {
        let objs = per_entity_objects(&s);
        prop_assert_eq!(classify(&s, &objs), classify(&s, &objs));
    }
}

/// Section 4's "richer classes", counted: over every interleaving of two
/// program pairs (x and y in separate conjuncts), the number of schedules
/// each class admits. The predicate-wise classes admit more than `SR`, and
/// on Example 1's programs so do the multiversion ones.
#[test]
fn class_richness_counts() {
    // CSR, VSR, FSR, MVCSR, MVSR, PWCSR, PWSR, <CSR, <SR, CPC, PC
    let cases: [(&[&str], u64, [u64; 11]); 2] = [
        (
            &["R1(x) W1(x) R1(y) W1(y)", "R2(x) W2(x) R2(y) W2(y)"],
            70,
            [12, 12, 12, 12, 12, 14, 14, 12, 12, 14, 14],
        ),
        (
            &["R1(x) W1(x) R1(y) W1(y)", "R2(x) R2(y) W2(y)"],
            35,
            [12, 12, 12, 13, 13, 15, 15, 12, 12, 15, 15],
        ),
    ];
    for (programs, total, expected) in cases {
        let mut schedules = 0;
        let mut admitted = [0u64; 11];
        for s in Interleavings::new(programs_from(programs).unwrap()) {
            let m = classify(&s, &xy_objects());
            let member = [
                m.csr, m.vsr, m.fsr, m.mvcsr, m.mvsr, m.pwcsr, m.pwsr, m.pocsr, m.posr, m.cpc, m.pc,
            ];
            for (count, is) in admitted.iter_mut().zip(member) {
                *count += u64::from(is);
            }
            schedules += 1;
        }
        assert_eq!((schedules, admitted), (total, expected), "{programs:?}");
    }
}
