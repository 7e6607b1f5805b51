//! Compiler-style diagnostics derived from the structural pre-pass.
//!
//! [`LinkedArtifact::analyze`](crate::LinkedArtifact::analyze) runs the
//! structural analyzer of [`qss_petri::structural`] over the linked net
//! and renders its findings as a typed [`AnalysisReport`]: a list of
//! [`Diagnostic`]s with *stable codes* (`QSS-W001`, `QSS-E002`, …) plus
//! the raw [`StructuralReport`] for tooling that wants the underlying
//! facts. The report is what `qssc analyze` prints, what
//! `qssc check --deny warnings` gates on, and what `qssd` caches by net
//! fingerprint.
//!
//! # Diagnostic codes
//!
//! | Code | Severity | Meaning |
//! |------|----------|---------|
//! | `QSS-W001` | warning | dead transition: it can never fire |
//! | `QSS-W002` | warning | never-marked place: it can never carry a token |
//! | `QSS-W003` | warning | unmarked minimal siphon: its consumers die once it drains |
//! | `QSS-W004` | warning | equal-conflict violation: a choice the scheduler cannot resolve uniformly |
//! | `QSS-E002` | error | structurally unbounded place under internal transitions alone |
//! | `QSS-E003` | error | no T-invariants: no cyclic schedule exists |
//!
//! Codes are stable across releases: tools may match on them. Severity
//! reflects schedulability: *errors* are conditions under which the
//! quasi-static search provably cannot succeed; *warnings* are structural
//! defects that usually indicate a modelling bug but do not by themselves
//! rule out a schedule. The report is diagnostics only: the search never
//! consults it, so `LinkedArtifact::schedule` on a net with errors still
//! runs and fails with its own typed error.

use crate::error::QssError;
use qss_petri::{PetriNet, PlaceId, StructuralReport, TransitionId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Stable diagnostic code: dead transition (warning).
pub const CODE_DEAD_TRANSITION: &str = "QSS-W001";
/// Stable diagnostic code: never-marked place (warning).
pub const CODE_NEVER_MARKED_PLACE: &str = "QSS-W002";
/// Stable diagnostic code: unmarked minimal siphon (warning).
pub const CODE_UNMARKED_SIPHON: &str = "QSS-W003";
/// Stable diagnostic code: equal-conflict violation (warning).
pub const CODE_FREE_CHOICE_VIOLATION: &str = "QSS-W004";
/// Stable diagnostic code: structurally unbounded place (error).
pub const CODE_UNBOUNDED_PLACE: &str = "QSS-E002";
/// Stable diagnostic code: no T-invariants (error).
pub const CODE_NO_T_INVARIANTS: &str = "QSS-E003";

/// Severity of a [`Diagnostic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// A structural defect that does not by itself preclude scheduling.
    Warning,
    /// A condition under which the quasi-static search provably fails.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The net element a diagnostic is about.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Subject {
    /// A single place (by id).
    Place(PlaceId),
    /// A single transition (by id).
    Transition(TransitionId),
    /// A set of places (e.g. a siphon), in id order.
    Places(Vec<PlaceId>),
    /// The net as a whole.
    Net,
}

/// One finding of the structural analyzer, with a stable code.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable machine-matchable code (`QSS-W001`, `QSS-E002`, …).
    pub code: String,
    /// Severity class.
    pub severity: Severity,
    /// The net element the finding is about.
    pub subject: Subject,
    /// Human-readable one-line description, with element names resolved.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
    }
}

/// The artifact of the `analyze` stage: net identity, the raw
/// [`StructuralReport`], and the derived compiler-style diagnostics.
///
/// Serialization is deterministic for a given net (all vectors are in
/// id order, diagnostics are emitted errors-first in id order), so the
/// JSON rendering is byte-identical whether produced locally or by a
/// `qssd` cache hit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Name of the analyzed system/net.
    pub system: String,
    /// Order-independent net fingerprint, as 16 lowercase hex digits
    /// (the `qssd` cache key).
    pub fingerprint: String,
    /// Number of places in the net.
    pub places: usize,
    /// Number of transitions in the net.
    pub transitions: usize,
    /// The raw structural facts the diagnostics were derived from.
    pub structural: StructuralReport,
    /// `true` when the net has a non-empty T-invariant basis (a
    /// necessary condition for cyclic schedules, Sec. 5.5.2).
    pub has_t_invariants: bool,
    /// The findings, errors first, each group in subject-id order.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Builds the report for `net`, deriving diagnostics from the given
    /// structural facts. `has_t_invariants` comes from the caller (the
    /// facade computes it via [`qss_petri::t_invariant_basis`]).
    pub fn build(net: &PetriNet, structural: StructuralReport, has_t_invariants: bool) -> Self {
        let diagnostics = derive_diagnostics(net, &structural, has_t_invariants);
        AnalysisReport {
            system: net.name().to_string(),
            fingerprint: format!("{:016x}", qss_petri::net_fingerprint(net)),
            places: net.num_places(),
            transitions: net.num_transitions(),
            structural,
            has_t_invariants,
            diagnostics,
        }
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// `true` when the report contains at least one error.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// `true` when the report is clean under the given policy: no
    /// errors, and — when `deny_warnings` — no warnings either.
    pub fn passes(&self, deny_warnings: bool) -> bool {
        if self.has_errors() {
            return false;
        }
        !deny_warnings || self.warning_count() == 0
    }

    /// Renders every diagnostic plus a trailing summary line, the way
    /// `qssc analyze` prints to stderr. Empty string when clean.
    pub fn render_human(&self) -> String {
        if self.diagnostics.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let (e, w) = (self.error_count(), self.warning_count());
        out.push_str(&format!(
            "analysis of `{}`: {} error(s), {} warning(s)\n",
            self.system, e, w
        ));
        out
    }

    /// Compact JSON rendering of the report.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("artifact serialization is infallible")
    }

    /// Pretty-printed JSON rendering, newline-terminated (this is the
    /// exact byte stream `qssc analyze` writes to stdout).
    pub fn to_json_pretty(&self) -> String {
        let mut text =
            serde_json::to_string_pretty(self).expect("artifact serialization is infallible");
        text.push('\n');
        text
    }

    /// Rebuilds a report from its JSON rendering.
    ///
    /// # Errors
    /// Returns [`QssError::Config`] if the text is not a valid report.
    pub fn from_json(text: &str) -> Result<Self, QssError> {
        serde_json::from_str(text)
            .map_err(|e| QssError::Config(format!("invalid AnalysisReport JSON: {e}")))
    }
}

/// Derives the diagnostic list: errors first, each group in id order.
fn derive_diagnostics(
    net: &PetriNet,
    structural: &StructuralReport,
    has_t_invariants: bool,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    for p in structural.unbounded_places() {
        out.push(Diagnostic {
            code: CODE_UNBOUNDED_PLACE.to_string(),
            severity: Severity::Error,
            subject: Subject::Place(p),
            message: format!(
                "place `{}` ({p}) is structurally unbounded: internal transitions alone \
                 can grow it without limit, so no finite schedule covers it",
                net.place(p).name
            ),
        });
    }

    if !has_t_invariants && net.num_transitions() > 0 {
        out.push(Diagnostic {
            code: CODE_NO_T_INVARIANTS.to_string(),
            severity: Severity::Error,
            subject: Subject::Net,
            message: "the net has no T-invariants, so no cyclic schedule exists".to_string(),
        });
    }

    for &t in &structural.dead_transitions {
        out.push(Diagnostic {
            code: CODE_DEAD_TRANSITION.to_string(),
            severity: Severity::Warning,
            subject: Subject::Transition(t),
            message: format!(
                "transition `{}` ({t}) is dead: it can never fire from the initial marking",
                net.transition(t).name
            ),
        });
    }

    for &p in &structural.never_marked_places {
        out.push(Diagnostic {
            code: CODE_NEVER_MARKED_PLACE.to_string(),
            severity: Severity::Warning,
            subject: Subject::Place(p),
            message: format!(
                "place `{}` ({p}) can never carry a token",
                net.place(p).name
            ),
        });
    }

    for siphon in structural.unmarked_siphons() {
        let names: Vec<String> = siphon
            .places
            .iter()
            .map(|&p| format!("`{}`", net.place(p).name))
            .collect();
        out.push(Diagnostic {
            code: CODE_UNMARKED_SIPHON.to_string(),
            severity: Severity::Warning,
            subject: Subject::Places(siphon.places.clone()),
            message: format!(
                "siphon {{{}}} carries no initial token: every transition consuming \
                 from it is permanently disabled",
                names.join(", ")
            ),
        });
    }

    for &p in &structural.free_choice_violations {
        out.push(Diagnostic {
            code: CODE_FREE_CHOICE_VIOLATION.to_string(),
            severity: Severity::Warning,
            subject: Subject::Place(p),
            message: format!(
                "place `{}` ({p}) violates the equal-conflict condition: its successor \
                 transitions have differing presets",
                net.place(p).name
            ),
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qss_petri::{structural_report, NetBuilder, StructuralLimits, TransitionKind};

    fn dead_cycle_net() -> PetriNet {
        // a → t1 → b → t2 → a with no initial tokens: both transitions
        // are dead, {a, b} is an unmarked siphon.
        let mut b = NetBuilder::new("dead-cycle");
        let pa = b.place("a", 0);
        let pb = b.place("b", 0);
        let t1 = b.transition("t1", TransitionKind::Internal);
        let t2 = b.transition("t2", TransitionKind::Internal);
        b.arc_p2t(pa, t1, 1);
        b.arc_t2p(t1, pb, 1);
        b.arc_p2t(pb, t2, 1);
        b.arc_t2p(t2, pa, 1);
        b.build().unwrap()
    }

    #[test]
    fn dead_cycle_yields_warnings_and_stable_codes() {
        let net = dead_cycle_net();
        let structural = structural_report(&net, &StructuralLimits::default());
        let has_t = !qss_petri::t_invariant_basis(&net, 50_000).is_empty();
        let report = AnalysisReport::build(&net, structural, has_t);

        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code.as_str()).collect();
        assert!(codes.contains(&CODE_DEAD_TRANSITION));
        assert!(codes.contains(&CODE_UNMARKED_SIPHON));
        assert!(report.warning_count() >= 3); // 2 dead transitions + siphon
        assert!(report.passes(false));
        assert!(!report.passes(true));
    }

    #[test]
    fn errors_sort_before_warnings() {
        // Pump p → t → 2p under an internal transition with a token:
        // structurally unbounded (error), and the pump has T-invariants?
        // t alone has nonzero delta, so no T-invariant: two errors.
        let mut b = NetBuilder::new("pump");
        let p = b.place("p", 1);
        let t = b.transition("t", TransitionKind::Internal);
        b.arc_p2t(p, t, 1);
        b.arc_t2p(t, p, 2);
        let net = b.build().unwrap();
        let structural = structural_report(&net, &StructuralLimits::default());
        let has_t = !qss_petri::t_invariant_basis(&net, 50_000).is_empty();
        let report = AnalysisReport::build(&net, structural, has_t);

        assert!(report.has_errors());
        assert_eq!(report.diagnostics[0].severity, Severity::Error);
        assert_eq!(report.diagnostics[0].code, CODE_UNBOUNDED_PLACE);
        assert!(report
            .diagnostics
            .windows(2)
            .all(|w| w[0].severity >= w[1].severity));
    }

    #[test]
    fn report_roundtrips_through_json() {
        let net = dead_cycle_net();
        let structural = structural_report(&net, &StructuralLimits::default());
        let report = AnalysisReport::build(&net, structural, true);
        let back = AnalysisReport::from_json(&report.to_json()).unwrap();
        assert_eq!(report, back);
        assert!(report.to_json_pretty().ends_with('\n'));
    }

    #[test]
    fn human_rendering_has_compiler_shape() {
        let net = dead_cycle_net();
        let structural = structural_report(&net, &StructuralLimits::default());
        let has_t = !qss_petri::t_invariant_basis(&net, 50_000).is_empty();
        let report = AnalysisReport::build(&net, structural, has_t);
        let text = report.render_human();
        assert!(text.contains("warning[QSS-W001]"));
        assert!(text.contains("error(s)"));
    }
}
