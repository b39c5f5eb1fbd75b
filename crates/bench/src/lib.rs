//! # rps-bench — the experiment harness
//!
//! Report binaries (`src/bin/exp_*`) regenerate every figure and table of
//! the paper in cell-count/storage terms and time the same operations in
//! wall-clock ns/op through one measurement core ([`measure`]). See
//! `EXPERIMENTS.md` at the workspace root for the experiment-by-experiment
//! index and paper-vs-measured record, and `docs/PERFORMANCE.md` for the
//! committed `BENCH_*.json` baselines.
//!
//! Run everything:
//!
//! ```text
//! scripts/run_experiments.sh out/
//! cargo run --release -p rps-bench --bin exp_hot_path -- --out p.json
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod alloc_counter;
pub mod measure;
pub mod throughput;

use rps_core::RangeSumEngine;
use rps_workload::Op;

// The unit tests of `measure` read the allocation counter.
#[cfg(test)]
#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

/// Replays a pre-generated op batch on an engine, returning a checksum of
/// query answers (so the optimizer cannot drop the queries).
pub fn replay(engine: &mut dyn RangeSumEngine<i64>, ops: &[Op]) -> i64 {
    let mut checksum = 0i64;
    for op in ops {
        match op {
            Op::Query(r) => checksum = checksum.wrapping_add(engine.query(r).unwrap()),
            Op::Update { coords, delta } => engine.update(coords, *delta).unwrap(),
        }
    }
    checksum
}
