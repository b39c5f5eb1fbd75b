//! Query-batch throughput baseline: the sharded parallel front-end
//! (`query_many_parallel`) against serial `query_many`, plus the
//! lane-width update kernel against its retained scalar twin, emitted as
//! the `exp_parallel_query` section of `BENCH_THROUGHPUT.json` (shared
//! with `exp_mixed_readwrite`; see `rps_bench::throughput`).
//!
//! ```text
//! cargo run --release -p rps-bench --bin exp_parallel_query            # full
//! cargo run --release -p rps-bench --bin exp_parallel_query -- --smoke # CI
//! cargo run --release -p rps-bench --bin exp_parallel_query -- --out p.json
//! ```
//!
//! Every parallel batch is checked bit-identical to the serial answers
//! before its timing is recorded — a baseline measuring a wrong answer
//! would be worse than no baseline.
//!
//! The speedup of `query_many_parallel_tN` over `query_many_serial` is
//! hardware-dependent: it tracks available cores (`std::thread`, no work
//! stealing). The committed baseline records the host's core count in
//! the `host_cpus` field; on a single-core container the parallel rows
//! measure pure sharding overhead (~1×), not fan-out gains.

use ndcube::Region;
use rps_bench::alloc_counter::CountingAllocator;
use rps_bench::throughput::{measure_batch, section_json, write_section, Scenario};
use rps_core::rps::kernels;
use rps_core::RpsEngine;
use rps_workload::{CubeGen, QueryGen, RegionSpec};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn run_scenario(
    name: &str,
    dims: &[usize],
    batch_len: usize,
    rounds: usize,
    thread_counts: &[usize],
) -> Scenario {
    let mut gen = CubeGen::new(0xC0FFEE);
    let cube = gen.uniform(dims, 0, 100).expect("valid dims");
    let engine = RpsEngine::from_cube(&cube);
    let regions: Vec<Region> = QueryGen::new(dims, 7, RegionSpec::Fraction(0.5)).take(batch_len);

    // Warm-up faults in scratch buffers and pins the serial answers the
    // parallel rows are checked against.
    let expected = engine.query_many(&regions).expect("in bounds");

    let mut results = Vec::new();
    let mut result_names = Vec::new();

    let (m, sink) = measure_batch(rounds, batch_len, || {
        let out = engine.query_many(&regions).expect("in bounds");
        out.last().copied().unwrap_or(0)
    });
    assert!(sink != i64::MIN, "checksum sentinel");
    results.push(m);
    result_names.push("query_many_serial".to_string());

    for &threads in thread_counts {
        let out = engine
            .query_many_parallel(&regions, threads)
            .expect("in bounds");
        assert_eq!(out, expected, "parallel answers must be bit-identical");
        let (m, sink) = measure_batch(rounds, batch_len, || {
            let out = engine
                .query_many_parallel(&regions, threads)
                .expect("in bounds");
            out.last().copied().unwrap_or(0)
        });
        assert!(sink != i64::MIN, "checksum sentinel");
        results.push(m);
        result_names.push(format!("query_many_parallel_t{threads}"));
    }

    // The lane update kernel vs its retained scalar twin over one
    // RP-stride-wide row: the innermost loop of every update cascade.
    let row_len = dims[dims.len() - 1].max(kernels::LANES);
    let kernel_rounds = (rounds * batch_len).max(1);
    let mut lane_buf = vec![1i64; row_len];
    let mut scalar_buf = vec![1i64; row_len];
    let (m, _) = measure_batch(kernel_rounds, 1, || {
        kernels::add_delta_run(&mut lane_buf, &3);
        lane_buf[0]
    });
    results.push(m);
    result_names.push("lane_add_delta".to_string());
    let (m, _) = measure_batch(kernel_rounds, 1, || {
        kernels::add_delta_run_scalar(&mut scalar_buf, &3);
        scalar_buf[0]
    });
    results.push(m);
    result_names.push("scalar_add_delta".to_string());
    assert_eq!(
        lane_buf, scalar_buf,
        "lane kernel must match its scalar twin"
    );

    Scenario {
        name: name.to_string(),
        dims: dims.to_vec(),
        box_size: engine.grid().box_size().to_vec(),
        results,
        result_names,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| format!("{}/../../BENCH_THROUGHPUT.json", env!("CARGO_MANIFEST_DIR")));

    let threads: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let scenarios = if smoke {
        vec![
            run_scenario("d2_n64", &[64, 64], 256, 4, threads),
            run_scenario("d3_n16", &[16, 16, 16], 256, 4, threads),
        ]
    } else {
        vec![
            run_scenario("d2_n512", &[512, 512], 4096, 8, threads),
            run_scenario("d2_n1024", &[1024, 1024], 4096, 8, threads),
            run_scenario("d3_n64", &[64, 64, 64], 4096, 8, threads),
        ]
    };

    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let section = section_json(if smoke { "smoke" } else { "full" }, host_cpus, &scenarios);

    println!("=== query-batch throughput baseline ({host_cpus} host cpus) ===\n");
    for s in &scenarios {
        println!("scenario {} dims {:?} k {:?}", s.name, s.dims, s.box_size);
        let serial_ns = s.results.first().map_or(0.0, |m| m.ns_per_op);
        for (m, n) in s.results.iter().zip(&s.result_names) {
            let speedup = serial_ns / m.ns_per_op.max(1e-9);
            if n.starts_with("query_many_parallel") {
                println!(
                    "  {n:<24} {:>10.1} ns/op  {:>12.0} ops/s  ({speedup:.2}x vs serial)",
                    m.ns_per_op,
                    1e9 / m.ns_per_op.max(1e-9)
                );
            } else {
                println!(
                    "  {n:<24} {:>10.1} ns/op  {:>12.0} ops/s",
                    m.ns_per_op,
                    1e9 / m.ns_per_op.max(1e-9)
                );
            }
        }
    }

    write_section(&out_path, "exp_parallel_query", &section);
    println!("\nwrote {out_path} (section exp_parallel_query)");
}
