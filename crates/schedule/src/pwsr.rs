//! Predicate-wise serializability (`PWSR`) and its conflict variant
//! (`PWCSR`).
//!
//! If the database consistency constraint is in CNF, consistency is
//! preserved by enforcing serializability only among data items that share a
//! conjunct (Section 4.2, after [Korth et al. 1988]). For every object
//! `x_i` of the constraint, project the schedule onto `x_i`'s entities; the
//! schedule is `PWSR` (resp. `PWCSR`) iff every projection is view (resp.
//! conflict) serializable. The per-object serial orders need *not* agree —
//! that disagreement is exactly where the extra concurrency comes from
//! (Example 2 / Examples 3.a–3.b).

use crate::csr::is_csr;
use crate::vsr::is_vsr;
use crate::{Schedule, TxnId};
use ks_predicate::Object;

/// Helper: one object per entity name — the loosest constraint, every
/// entity in its own conjunct.
pub fn singleton_objects(s: &Schedule) -> Vec<Object> {
    (0..s.num_entities() as u32)
        .map(|i| Object::from_iter([ks_kernel::EntityId(i)]))
        .collect()
}

/// Helper: a single object covering every entity — collapses the
/// predicate-wise classes back onto `VSR`/`CSR`.
pub fn single_object(s: &Schedule) -> Vec<Object> {
    vec![Object::from_iter(
        (0..s.num_entities() as u32).map(ks_kernel::EntityId),
    )]
}

/// The projection of the schedule for each object (the paper's restriction
/// `R^{x_i}` machinery at the schedule level).
pub fn per_object_projections<'a>(
    s: &Schedule,
    objects: &'a [Object],
) -> Vec<(&'a Object, Schedule)> {
    objects
        .iter()
        .map(|obj| (obj, s.project_entities(obj.entities())))
        .collect()
}

/// Is the schedule predicate-wise (view) serializable for the given objects?
pub fn is_pwsr(s: &Schedule, objects: &[Object]) -> bool {
    assert!(
        !objects.is_empty(),
        "the paper assumes a non-empty consistency constraint; pass single_object() to recover VSR"
    );
    per_object_projections(s, objects)
        .iter()
        .all(|(_, proj)| is_vsr(proj))
}

/// Is the schedule predicate-wise conflict serializable for the given
/// objects? Polynomial: one conflict graph per object.
pub fn is_pwcsr(s: &Schedule, objects: &[Object]) -> bool {
    assert!(
        !objects.is_empty(),
        "the paper assumes a non-empty consistency constraint; pass single_object() to recover CSR"
    );
    per_object_projections(s, objects)
        .iter()
        .all(|(_, proj)| is_csr(proj))
}

/// Per-object serialization orders for a PWSR schedule (may disagree across
/// objects — Example 3.a/3.b show each projection is serial on its own).
pub fn pwsr_witnesses(s: &Schedule, objects: &[Object]) -> Option<Vec<(Object, Vec<TxnId>)>> {
    let mut out = Vec::new();
    for (obj, proj) in per_object_projections(s, objects) {
        let w = crate::vsr::vsr_witness(&proj)?;
        out.push((obj.clone(), w));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_kernel::EntityId;

    fn xy_objects() -> Vec<Object> {
        // x and y in different conjuncts — the setting of Example 2.
        vec![
            Object::from_iter([EntityId(0)]),
            Object::from_iter([EntityId(1)]),
        ]
    }

    #[test]
    fn paper_example2_pwsr_but_not_vsr() {
        // Example 2 = Example 1's schedule; with x, y in separate conjuncts
        // it decomposes into Examples 3.a and 3.b, both serial.
        let s = Schedule::parse("R1(x) W1(x) R2(x) R2(y) W2(y) R1(y) W1(y)").unwrap();
        assert!(!is_vsr(&s));
        assert!(is_pwsr(&s, &xy_objects()));
        assert!(is_pwcsr(&s, &xy_objects()));
    }

    #[test]
    fn paper_examples_3a_3b_projections_are_serial() {
        let s = Schedule::parse("R1(x) W1(x) R2(x) R2(y) W2(y) R1(y) W1(y)").unwrap();
        let objects = xy_objects();
        let projs = per_object_projections(&s, &objects);
        // Example 3.a: x-projection = R1(x) W1(x) R2(x) — serial t1 then t2.
        assert_eq!(projs[0].1.to_string(), "R1(x) W1(x) R2(x)");
        assert!(projs[0].1.is_serial());
        // Example 3.b: y-projection = R2(y) W2(y) R1(y) W1(y) — serial t2, t1.
        assert_eq!(projs[1].1.to_string(), "R2(y) W2(y) R1(y) W1(y)");
        assert!(projs[1].1.is_serial());
    }

    #[test]
    fn witnesses_disagree_across_objects() {
        let s = Schedule::parse("R1(x) W1(x) R2(x) R2(y) W2(y) R1(y) W1(y)").unwrap();
        let ws = pwsr_witnesses(&s, &xy_objects()).unwrap();
        // t1 before t2 on x; t2 before t1 on y.
        assert_eq!(ws[0].1, vec![TxnId(0), TxnId(1)]);
        assert_eq!(ws[1].1, vec![TxnId(1), TxnId(0)]);
    }

    #[test]
    fn single_object_recovers_vsr_csr() {
        let s = Schedule::parse("R1(x) W1(x) R2(x) R2(y) W2(y) R1(y) W1(y)").unwrap();
        let whole = single_object(&s);
        assert!(!is_pwsr(&s, &whole));
        assert!(!is_pwcsr(&s, &whole));
        let serial = Schedule::parse("R1(x) W1(x) R2(x) W2(x)").unwrap();
        assert!(is_pwsr(&serial, &single_object(&serial)));
    }

    #[test]
    fn vsr_subset_of_pwsr_for_any_objects() {
        // "any schedule which is in SR is in PWSR_C, since the projection of
        // a serializable schedule … is serializable."
        for text in [
            "R1(x) W1(x) R2(x) W2(x)",
            "R1(x) W2(x) W1(x) W3(x)",
            "R1(x) R2(y) W1(x) W2(y)",
        ] {
            let s = Schedule::parse(text).unwrap();
            if is_vsr(&s) {
                assert!(is_pwsr(&s, &singleton_objects(&s)), "{text}");
                assert!(is_pwsr(&s, &single_object(&s)), "{text}");
            }
        }
    }

    #[test]
    fn region3_pwcsr_but_not_mvcsr() {
        // Figure 2 region 3: per-object orders disagree, full conflicts cycle.
        let s = Schedule::parse("R1(x) W1(x) R2(x) W2(x) R2(y) W2(y) R1(y) W1(y)").unwrap();
        assert!(is_pwcsr(&s, &xy_objects()));
        assert!(!crate::mvsr::is_mvcsr(&s));
        assert!(!is_vsr(&s));
    }

    #[test]
    #[should_panic(expected = "non-empty consistency constraint")]
    fn empty_objects_rejected() {
        let s = Schedule::parse("R1(x)").unwrap();
        let _ = is_pwsr(&s, &[]);
    }
}
