#!/usr/bin/env bash
# Builds the campaign benchmark and the mopfuzzerd daemon it drives from
# source, then runs one workload. From the repository root:
#
#   bash campaignbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line of stdout is the JSON result.
# Artifacts land in $CARGO_TARGET_DIR (default: campaignbench/target).
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/campaignbench" "$@"
