//! A tiny-size run of every workload, untraced and traced, against the
//! release `guardrail` binary (built here if needed).

use guardrail_e2ebench::inputs::{Shape, SHAPES};
use guardrail_e2ebench::run::{self, RunConfig, E2E_METRICS, LAYER_METRICS};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// Builds the `guardrail` binary once per test process.
fn guardrail_bin() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| root.join(".bench_build"));
        let status = Command::new(option_env!("CARGO").unwrap_or("cargo"))
            .args(["build", "--release", "--quiet", "--bin", "guardrail", "--manifest-path"])
            .arg(root.join("Cargo.toml"))
            .arg("--target-dir")
            .arg(&target)
            .env("CARGO_NET_OFFLINE", "true")
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building the guardrail binary failed");
        target.join("release").join("guardrail")
    })
}

fn smoke(shape: Shape, trace: bool) {
    let work = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{}-{}", shape.name, trace as u8));
    let cfg = RunConfig {
        shape: shape.scaled_down(16),
        seed: 7,
        seconds: 0.2,
        trace,
        bin: guardrail_bin().to_path_buf(),
        work: work.clone(),
    };
    let report = run::run(&cfg).expect("the run completes");
    let _ = std::fs::remove_dir_all(&work);
    let l = &report.ledger;
    assert!(l.attempted > 0);
    assert!(l.only_known_failures(), "{} failed, {} of them known", l.failed, l.cold_detector);
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    if trace {
        let want: Vec<&str> = LAYER_METRICS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want);
        assert!(!report.spans.spans().is_empty());
    } else {
        assert_eq!(names, E2E_METRICS);
        assert!(report.metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0));
    }
}

#[test]
fn every_workload_runs_untraced_at_tiny_size() {
    for shape in SHAPES {
        smoke(shape, false);
    }
}

#[test]
fn every_workload_runs_traced_at_tiny_size() {
    for shape in SHAPES {
        smoke(shape, true);
    }
}
