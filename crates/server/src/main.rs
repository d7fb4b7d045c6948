//! The `guardrail-server` binary: the daemon and its one-shot clients
//! (see [`guardrail_server::cli`] for the flags).

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    guardrail_server::cli::run(&args)
}
