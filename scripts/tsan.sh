#!/usr/bin/env bash
# Runs the concurrency-sensitive tests under ThreadSanitizer:
# SharedEngine's readers–writer paths (its one-lock-hold query_many
# batch included), the buffered engine's flush, and the versioned
# engine's publish/snapshot swap (module tests plus the snapshot
# property suite). Needs a nightly
# toolchain with rust-src (TSan requires rebuilding std with
# instrumentation):
#
#   rustup toolchain install nightly --component rust-src
#
# Complements scripts/loom.sh: loom model-checks tiny interleavings
# exhaustively; TSan watches real full-size executions for data races.
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="-Z sanitizer=thread ${RUSTFLAGS:-}"
# TSan intercepts every memory access; keep the randomized suites short.
export PROPTEST_CASES="${PROPTEST_CASES:-16}"

TARGET="$(rustc +nightly -vV | sed -n 's/^host: //p')"

# Unit tests of the concurrent modules (including versioned::'s
# publish/snapshot swap), then the integration suites that exercise
# them at full size.
cargo +nightly test -Z build-std --target "$TARGET" -p rps-core "$@" \
    -- concurrent:: buffered:: versioned::
exec cargo +nightly test -Z build-std --target "$TARGET" -p rps-core \
    --test versioned_props "$@"
