#!/usr/bin/env bash
# Builds the release `guardrail` binary and the benchmark from source, then
# runs one workload:
#
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build artifacts go to $CARGO_TARGET_DIR
# (default: .bench_build); scratch files and traces go to .e2ebench/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
export CARGO_NET_OFFLINE=true
target="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$target"
export CARGO_TARGET_DIR="$(cd "$target" && pwd)"
cargo build --release --quiet --manifest-path "$root/Cargo.toml" --bin guardrail >&2
cargo build --release --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/guardrail-e2ebench" \
    --guardrail-bin "$CARGO_TARGET_DIR/release/guardrail" --repo-root "$root" "$@"
