#!/usr/bin/env bash
# Runs the loom interleaving tests for rps-core's concurrent paths.
#
# Under `--cfg loom`, rps_core::sync_compat swaps std::sync for loom's
# instrumented primitives and the loom test targets
# (crates/rps-core/tests/loom_shared_engine.rs, and
# crates/rps-core/tests/loom_versioned_engine.rs for the versioned
# engine's publish/snapshot swap) compile in. With the in-tree compat
# shim (offline default) each model body is stress-scheduled
# LOOM_SHIM_ITERS times (default 200); with upstream loom (point
# [workspace.dependencies].loom at crates.io) the same tests become
# exhaustive model checks.
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="--cfg loom ${RUSTFLAGS:-}"
# Loom models are release-speed sensitive: the shim reruns each body
# hundreds of times and upstream loom explores thousands of schedules.
cargo test --release -p rps-core --test loom_shared_engine "$@"
exec cargo test --release -p rps-core --test loom_versioned_engine "$@"
