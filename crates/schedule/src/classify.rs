//! Run the whole classifier battery over a schedule and report membership.

use crate::partial::PartialOrders;
use crate::{csr, mvsr, pc, pwsr, vsr, Schedule};
use ks_predicate::Object;
use std::fmt;

/// Membership of one schedule in every class of Section 4.
///
/// Field order mirrors the lattice: conflict classes, view classes, their
/// multiversion and predicate-wise extensions, the partial-order variants,
/// and the combined classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Membership {
    /// Conflict serializable.
    pub csr: bool,
    /// View serializable (the paper's `SR`).
    pub vsr: bool,
    /// Final-state serializable.
    pub fsr: bool,
    /// Multiversion conflict serializable.
    pub mvcsr: bool,
    /// Multiversion (view) serializable.
    pub mvsr: bool,
    /// Predicate-wise conflict serializable.
    pub pwcsr: bool,
    /// Predicate-wise (view) serializable.
    pub pwsr: bool,
    /// Partial-order conflict serializable (`<CSR`).
    pub pocsr: bool,
    /// Partial-order view serializable (`<SR`).
    pub posr: bool,
    /// Conflict predicate correct.
    pub cpc: bool,
    /// Predicate correct.
    pub pc: bool,
}

impl Membership {
    /// Classify with explicit partial orders.
    pub fn compute(s: &Schedule, objects: &[Object], po: &PartialOrders) -> Membership {
        Membership {
            csr: csr::is_csr(s),
            vsr: vsr::is_vsr(s),
            fsr: vsr::is_fsr(s),
            mvcsr: mvsr::is_mvcsr(s),
            mvsr: mvsr::is_mvsr(s),
            pwcsr: pwsr::is_pwcsr(s, objects),
            pwsr: pwsr::is_pwsr(s, objects),
            pocsr: crate::partial::is_pocsr(s, po),
            posr: crate::partial::is_posr(s, po),
            cpc: pc::is_cpc(s, objects),
            pc: pc::is_pc(s, objects),
        }
    }

    /// Verify the containment lattice the paper establishes. Returns the
    /// first violated implication, or `None` if all hold:
    ///
    /// * `CSR ⊆ VSR ⊆ FSR`, `VSR ⊆ MVSR`, `CSR ⊆ MVCSR ⊆ MVSR`,
    /// * `CSR ⊆ PWCSR ⊆ CPC`, `VSR ⊆ PWSR ⊆ PC`, `MVCSR ⊆ CPC`,
    /// * `MVSR ⊆ PC`, `CSR ⊆ <CSR`, `VSR ⊆ <SR`, `CPC ⊆ PC`.
    pub fn lattice_violation(&self) -> Option<&'static str> {
        let implications: [(&'static str, bool, bool); 13] = [
            ("CSR ⊆ VSR", self.csr, self.vsr),
            ("VSR ⊆ FSR", self.vsr, self.fsr),
            ("VSR ⊆ MVSR", self.vsr, self.mvsr),
            ("CSR ⊆ MVCSR", self.csr, self.mvcsr),
            ("MVCSR ⊆ MVSR", self.mvcsr, self.mvsr),
            ("CSR ⊆ PWCSR", self.csr, self.pwcsr),
            ("PWCSR ⊆ CPC", self.pwcsr, self.cpc),
            ("VSR ⊆ PWSR", self.vsr, self.pwsr),
            ("PWSR ⊆ PC", self.pwsr, self.pc),
            ("MVCSR ⊆ CPC", self.mvcsr, self.cpc),
            ("MVSR ⊆ PC", self.mvsr, self.pc),
            ("CSR ⊆ <CSR", self.csr, self.pocsr),
            ("VSR ⊆ <SR", self.vsr, self.posr),
        ];
        implications
            .iter()
            .find(|&&(_, a, b)| a && !b)
            .map(|&(name, _, _)| name)
    }

    /// Table header matching [`Membership::row`].
    pub fn header() -> &'static str {
        "CSR  VSR  FSR  MVCSR MVSR PWCSR PWSR <CSR <SR  CPC  PC"
    }

    /// One table row of ✓/· flags.
    pub fn row(&self) -> String {
        let mark = |b: bool| if b { "✓" } else { "·" };
        format!(
            "{:<4} {:<4} {:<4} {:<5} {:<4} {:<5} {:<4} {:<4} {:<4} {:<4} {:<2}",
            mark(self.csr),
            mark(self.vsr),
            mark(self.fsr),
            mark(self.mvcsr),
            mark(self.mvsr),
            mark(self.pwcsr),
            mark(self.pwsr),
            mark(self.pocsr),
            mark(self.posr),
            mark(self.cpc),
            mark(self.pc),
        )
    }
}

impl fmt::Display for Membership {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.row())
    }
}

/// Classify a schedule against objects, using program-order partial orders
/// (the paper's standard-model embedding).
///
/// ```
/// use ks_schedule::{classify, Schedule};
/// use ks_schedule::corpus::xy_objects;
/// // The paper's Example 1: multiversion-serializable but not serializable.
/// let s = Schedule::parse("R1(x) W1(x) R2(x) R2(y) W2(y) R1(y) W1(y)").unwrap();
/// let m = classify(&s, &xy_objects());
/// assert!(!m.vsr && m.mvsr && m.pwsr && m.cpc);
/// ```
pub fn classify(s: &Schedule, objects: &[Object]) -> Membership {
    let po = PartialOrders::program_order(s);
    Membership::compute(s, objects, &po)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_kernel::EntityId;

    fn per_entity_objects(s: &Schedule) -> Vec<Object> {
        (0..s.num_entities() as u32)
            .map(|i| Object::from_iter([EntityId(i)]))
            .collect()
    }

    #[test]
    fn serial_schedule_in_every_class() {
        let s = Schedule::parse("R1(x) W1(x) R2(x) W2(x)").unwrap();
        let m = classify(&s, &per_entity_objects(&s));
        assert!(
            m.csr
                && m.vsr
                && m.fsr
                && m.mvcsr
                && m.mvsr
                && m.pwcsr
                && m.pwsr
                && m.pocsr
                && m.posr
                && m.cpc
                && m.pc
        );
        assert_eq!(m.lattice_violation(), None);
    }

    #[test]
    fn example1_membership_pattern() {
        let s = Schedule::parse("R1(x) W1(x) R2(x) R2(y) W2(y) R1(y) W1(y)").unwrap();
        let m = classify(&s, &per_entity_objects(&s));
        assert!(!m.csr && !m.vsr);
        assert!(m.mvcsr && m.mvsr && m.pwcsr && m.pwsr && m.cpc && m.pc);
        assert_eq!(m.lattice_violation(), None);
    }

    #[test]
    fn region1_in_no_class() {
        let s = Schedule::parse("R1(x) R2(x) W2(x) W1(x)").unwrap();
        let m = classify(&s, &per_entity_objects(&s));
        assert!(!m.csr && !m.vsr && !m.fsr && !m.mvcsr && !m.mvsr && !m.cpc && !m.pc);
        assert_eq!(m.lattice_violation(), None);
    }

    #[test]
    fn lattice_violation_reports_name() {
        let bad = Membership {
            csr: true,
            vsr: false,
            fsr: false,
            mvcsr: false,
            mvsr: false,
            pwcsr: false,
            pwsr: false,
            pocsr: false,
            posr: false,
            cpc: false,
            pc: false,
        };
        assert_eq!(bad.lattice_violation(), Some("CSR ⊆ VSR"));
    }

    #[test]
    fn row_and_header_align() {
        let s = Schedule::parse("R1(x) W1(x)").unwrap();
        let m = classify(&s, &per_entity_objects(&s));
        assert!(!Membership::header().is_empty());
        assert!(m.row().contains('✓'));
    }
}
