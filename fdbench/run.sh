#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"):
#   bash fdbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Builds fdbench from source in the checkout and runs one workload; the last
# line of output is the result object.
#
# The repository resolves its third-party crates offline, from the stand-ins
# it carries under scripts/offline-stubs/vendor. It does that through a
# .cargo/config.toml that is not committed, so a fresh checkout has none and
# the same source replacement is passed on the command line here.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --quiet --release --offline \
  --config 'source.crates-io.replace-with="offline-stubs"' \
  --config 'source.offline-stubs.directory="scripts/offline-stubs/vendor"' \
  --manifest-path fdbench/Cargo.toml -- run "$@"
