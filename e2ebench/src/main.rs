//! `guardrail-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!  --guardrail-bin <path> --repo-root <dir>`
//!
//! Runs one workload against the release `guardrail` binary and prints a
//! metadata line, then the result line (`correct`, `attempted`, `failed`,
//! `metrics`) as the last line of standard output. `run.sh` builds both
//! binaries and supplies the two paths.

use guardrail_e2ebench::inputs::Shape;
use guardrail_e2ebench::run::{self, RunConfig};
use guardrail_e2ebench::{commit, meta_line, result_line, source_digest, Meta};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<String, String> {
        let i = args.iter().position(|a| a == name).ok_or(format!("missing {name}"))?;
        args.get(i + 1).cloned().ok_or(format!("{name} needs a value"))
    };
    let workload = flag("--workload")?;
    let shape = Shape::by_name(&workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed: u64 = flag("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = flag("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    let trace = match flag("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?}")),
    };
    let bin = PathBuf::from(flag("--guardrail-bin")?);
    let root = PathBuf::from(flag("--repo-root")?);
    if !bin.is_file() {
        return Err(format!("no guardrail binary at {}", bin.display()));
    }
    let out_dir = std::env::current_dir().map_err(|e| e.to_string())?.join(".e2ebench");
    let work = out_dir.join(format!("run-{workload}-{seed}-{}", std::process::id()));
    let cfg = RunConfig { shape, seed, seconds, trace, bin, work: work.clone() };
    let result = run::run(&cfg);
    let _ = std::fs::remove_dir_all(&work);
    let report = result?;
    if trace {
        let path = out_dir.join(format!("trace-{workload}-seed{seed}.jsonl"));
        std::fs::write(&path, report.spans.to_jsonl())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("e2ebench: {} spans written to {}", report.spans.spans().len(), path.display());
    }
    let meta = Meta {
        workload,
        seed,
        trace,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        commit: commit(&root),
        source_digest: source_digest(&root),
        profile: "release",
    };
    println!("{}", meta_line(&meta, &report));
    println!("{}", result_line(&report));
    Ok(())
}
