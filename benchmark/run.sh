#!/usr/bin/env bash
# The benchmark's one entry command: build the program and the harness from
# source, then run the harness. Arguments are listed in benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

# One target directory for both builds: the daemon (built from the root
# workspace, as users build it) and the harness (a workspace of its own)
# land side by side in release/.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --locked -p pressio-cli 1>&2
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml 1>&2

export PRESSIO_BIN="$CARGO_TARGET_DIR/release/pressio"
exec "$CARGO_TARGET_DIR/release/pressio-benchmark" "$@"
