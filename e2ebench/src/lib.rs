//! End-to-end benchmark of the `guardrail` CLI and daemon.
//!
//! See `README.md` beside this crate for the workloads, the metrics, and
//! how each per-layer metric maps onto the end-to-end ones.

pub mod calib;
pub mod check;
pub mod inputs;
pub mod layers;
pub mod program;
pub mod run;
pub mod spans;
pub mod stats;

use std::fmt::Write as _;
use std::path::Path;

/// Run metadata printed on the line before the result.
#[derive(Debug, Clone)]
pub struct Meta {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Traced run or not.
    pub trace: bool,
    /// Hardware threads of the host.
    pub threads: usize,
    /// Commit of the measured code, when known.
    pub commit: String,
    /// FNV-1a digest of the measured sources.
    pub source_digest: String,
    /// Cargo profile the program was built with.
    pub profile: &'static str,
}

/// The commit of the checkout at `root`: `git rev-parse HEAD` when the
/// checkout is a git repository, else `unknown` (the source digest still
/// identifies the code).
pub fn commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Digest of the program's sources under `root` (`Cargo.toml`,
/// `Cargo.lock`, `src/`, `crates/`), so a result identifies the code it
/// measured even in a checkout that is not a git repository.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("src"), &mut files);
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = inputs::Fnv::default();
    for f in &files {
        h.write(f.strip_prefix(root).unwrap_or(f).to_string_lossy().as_bytes());
        h.write(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", h.0)
}

/// Formats a float as JSON: every digit as measured, `null` if not finite.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// The metadata line: run metadata plus sample counts and tail
/// percentiles.
pub fn meta_line(meta: &Meta, report: &run::RunReport) -> String {
    let mut s = format!(
        "{{\"kind\":\"run_meta\",\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"hardware_threads\":{},\"commit\":\"{}\",\"source_digest\":\"{}\",\"profile\":\"{}\",\"known_defect_failures\":{}",
        meta.workload,
        meta.seed,
        meta.trace,
        meta.threads,
        meta.commit,
        meta.source_digest,
        meta.profile,
        report.ledger.cold_detector
    );
    for (k, v) in &report.samples {
        let _ = write!(s, ",\"{k}\":{}", num(*v));
    }
    s.push('}');
    s
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(report: &run::RunReport) -> String {
    let l = &report.ledger;
    let mut s = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        l.only_known_failures(),
        l.attempted,
        l.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, num(m.value), m.unit);
    }
    s.push_str("}}");
    s
}
