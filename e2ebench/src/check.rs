//! The correctness gate: request frames, response checks against the
//! in-process reference, and the ledger of attempted and failed
//! operations.

use crate::inputs::DEADLINE_MS;
use guardrail::dsl::Violation;
use guardrail::obs::json::{self, Json};

/// Tenant every request is sent under.
pub const TENANT: &str = "bench";

/// A request frame (without the trailing newline) for `op` on `table`,
/// with an explicit deadline and an optional CSV payload.
pub fn frame(op: &str, table: &str, csv: Option<&str>) -> String {
    let mut f = format!(
        "{{\"op\":\"{op}\",\"tenant\":\"{TENANT}\",\"table\":\"{table}\",\"deadline_ms\":{DEADLINE_MS}"
    );
    if let Some(csv) = csv {
        f.push_str(",\"csv\":\"");
        f.push_str(&json::escape(csv));
        f.push('"');
    }
    f.push('}');
    f
}

/// One violation in a form both sides can produce: row, statement,
/// attribute, expected and actual cell text.
pub type Key = (u64, u64, String, String, String);

/// The canonical keys of in-process violations, rows shifted by `offset`.
pub fn keys(violations: &[Violation], offset: usize) -> Vec<Key> {
    let mut out: Vec<Key> = violations
        .iter()
        .map(|v| {
            (
                (v.row + offset) as u64,
                v.statement as u64,
                v.attribute.to_string(),
                v.expected.to_string(),
                v.actual.to_string(),
            )
        })
        .collect();
    out.sort();
    out
}

fn cell_text(j: &Json) -> String {
    match j {
        Json::Null => String::new(),
        Json::Bool(b) => b.to_string(),
        Json::Num(x) if x.fract() == 0.0 && x.abs() < 9.0e15 => format!("{}", *x as i64),
        Json::Num(x) => x.to_string(),
        Json::Str(s) => s.clone(),
        other => format!("{other:?}"),
    }
}

/// The canonical keys of a response's `violations` array.
pub fn wire_keys(resp: &Json) -> Result<Vec<Key>, String> {
    let arr = resp.get("violations").and_then(Json::as_arr).ok_or("no violations array")?;
    let mut out = Vec::with_capacity(arr.len());
    for v in arr {
        let num = |k: &str| v.get(k).and_then(Json::as_u64).ok_or(format!("violation without {k}"));
        out.push((
            num("row")?,
            num("statement")?,
            v.get("attribute").and_then(Json::as_str).unwrap_or_default().to_string(),
            v.get("expected").map(cell_text).unwrap_or_default(),
            v.get("actual").map(cell_text).unwrap_or_default(),
        ));
    }
    out.sort();
    Ok(out)
}

/// The lines `guardrail check` prints for `violations`.
pub fn check_lines(violations: &[Violation]) -> String {
    let mut out = String::new();
    for v in violations {
        out.push_str(&format!(
            "row {}: {} = {:?} violates statement {} (expected {:?})\n",
            v.row,
            v.attribute,
            v.actual.to_string(),
            v.statement,
            v.expected.to_string()
        ));
    }
    out
}

/// Parses a response line and applies the checks every response gets:
/// valid JSON, `"ok": true`, the right op echo, and `"status": "clean"`.
pub fn ok_response(line: &str, op: &str) -> Result<Json, String> {
    let doc = json::parse(line).map_err(|e| format!("{op}: unparseable response: {e}"))?;
    if doc.get("ok") != Some(&Json::Bool(true)) {
        let err = doc.get("error").map(|e| format!("{e:?}")).unwrap_or_default();
        return Err(format!("{op}: \"ok\":false {err}"));
    }
    if doc.get("op").and_then(Json::as_str) != Some(op) {
        return Err(format!("{op}: wrong op echo"));
    }
    match doc.get("status").and_then(Json::as_str) {
        Some("clean") => Ok(doc),
        Some("degraded") => Err(format!("{op}: \"status\":\"degraded\"")),
        other => Err(format!("{op}: unexpected status {other:?}")),
    }
}

/// Why an operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// A defect already documented: the first `detect_batch` after a
    /// `fit` or a daemon restart answers from a freshly built (cold)
    /// incremental detector whose seeding scan marks the just-appended
    /// rows as seen, so it reports `rows_scanned: 0` and drops their
    /// violations.
    ColdDetector,
    /// Anything else.
    Unexpected,
}

/// Attempted and failed operations of one run.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (all causes).
    pub failed: u64,
    /// Of those, failures of the documented cold-detector defect.
    pub cold_detector: u64,
    notes: Vec<String>,
}

impl Ledger {
    /// Records the outcome of one operation.
    pub fn record(&mut self, outcome: Result<(), (Failure, String)>) {
        self.attempted += 1;
        if let Err((kind, why)) = outcome {
            self.failed += 1;
            if kind == Failure::ColdDetector {
                self.cold_detector += 1;
            }
            if self.notes.len() < 20 {
                eprintln!("e2ebench: failed op: {why}");
                self.notes.push(why);
            }
        }
    }

    /// `true` when every failure is the documented defect.
    pub fn only_known_failures(&self) -> bool {
        self.failed == self.cold_detector
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_parse_with_the_programs_own_parser() {
        let f = frame("detect", "t0", Some("a,b\n\"x,\"\"y\",2\n"));
        let doc = json::parse(&f).unwrap();
        assert_eq!(doc.get("csv").and_then(Json::as_str), Some("a,b\n\"x,\"\"y\",2\n"));
        assert_eq!(doc.get("deadline_ms").and_then(Json::as_u64), Some(DEADLINE_MS));
        assert!(guardrail::server::parse_request(&f).is_ok());
    }

    #[test]
    fn ok_response_rejects_errors_and_degraded_results() {
        assert!(ok_response(r#"{"ok":true,"op":"fit","status":"clean"}"#, "fit").is_ok());
        assert!(ok_response(r#"{"ok":true,"op":"fit","status":"degraded"}"#, "fit").is_err());
        assert!(ok_response(r#"{"ok":false,"op":"fit","error":{"kind":"X"}}"#, "fit").is_err());
        assert!(ok_response(r#"{"ok":true,"op":"detect","status":"clean"}"#, "fit").is_err());
    }

    #[test]
    fn ledger_separates_known_failures() {
        let mut l = Ledger::default();
        l.record(Ok(()));
        l.record(Err((Failure::ColdDetector, "cold".into())));
        assert!(l.only_known_failures());
        l.record(Err((Failure::Unexpected, "other".into())));
        assert_eq!((l.attempted, l.failed, l.cold_detector), (3, 2, 1));
        assert!(!l.only_known_failures());
    }
}
