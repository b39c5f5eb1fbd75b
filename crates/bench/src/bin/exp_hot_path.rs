//! Hot-path latency + allocation baseline: ns/query, ns/update,
//! allocs/op for the in-memory RPS engine, emitted as `BENCH_HOTPATH.json`
//! so every future PR has a measured trajectory to compare against.
//!
//! The paper argues in cells touched; Pibiri & Venturini (PAPERS.md) show
//! the *constant factors* — cache behaviour and allocator traffic — decide
//! which prefix-sum structure wins in practice. This experiment pins both:
//! wall-clock per op and heap allocations per op (via
//! [`rps_bench::alloc_counter`]), for steady-state point queries, range
//! queries and point updates, plus the parallel batch-update path.
//!
//! ```text
//! cargo run --release -p rps-bench --bin exp_hot_path            # full
//! cargo run --release -p rps-bench --bin exp_hot_path -- --smoke # CI
//! cargo run --release -p rps-bench --bin exp_hot_path -- --out p.json
//! ```
//!
//! `--smoke` shrinks shapes and op counts to run in seconds; CI uses it
//! to keep the emitter from rotting. The committed baseline at the repo
//! root is refreshed with the full configuration (see
//! `docs/PERFORMANCE.md` for how to read and refresh it).

use std::time::Instant;

use ndcube::{NdCube, Region};
use rps_bench::alloc_counter::{thread_allocs, CountingAllocator};
use rps_core::{BlockedFenwickEngine, FenwickEngine, RangeSumEngine, RpsEngine};
use rps_workload::{CubeGen, QueryGen, RegionSpec, UpdateGen, UpdateSpec};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// One measured loop: ns/op and allocs/op over `ops` operations.
struct Measurement {
    ops: usize,
    ns_per_op: f64,
    allocs_per_op: f64,
}

impl Measurement {
    fn json(&self, name: &str) -> String {
        format!(
            "{{\"name\":\"{name}\",\"ops\":{},\"ns_per_op\":{:.1},\"allocs_per_op\":{:.4}}}",
            self.ops, self.ns_per_op, self.allocs_per_op
        )
    }
}

fn measure(ops: usize, mut body: impl FnMut()) -> Measurement {
    let alloc_before = thread_allocs();
    let start = Instant::now();
    for _ in 0..ops {
        body();
    }
    let elapsed = start.elapsed();
    let allocs = thread_allocs() - alloc_before;
    Measurement {
        ops,
        ns_per_op: elapsed.as_nanos() as f64 / ops as f64,
        allocs_per_op: allocs as f64 / ops as f64,
    }
}

struct Scenario {
    name: String,
    dims: Vec<usize>,
    box_size: Vec<usize>,
    results: Vec<Measurement>,
    result_names: Vec<String>,
}

impl Scenario {
    fn json(&self) -> String {
        let dims: Vec<String> = self.dims.iter().map(ToString::to_string).collect();
        let ks: Vec<String> = self.box_size.iter().map(ToString::to_string).collect();
        let measurements: Vec<String> = self
            .results
            .iter()
            .zip(&self.result_names)
            .map(|(m, n)| m.json(n))
            .collect();
        format!(
            "    {{\"scenario\":\"{}\",\"dims\":[{}],\"box_size\":[{}],\"measurements\":[\n      {}\n    ]}}",
            self.name,
            dims.join(","),
            ks.join(","),
            measurements.join(",\n      ")
        )
    }
}

fn run_scenario(name: &str, dims: &[usize], query_ops: usize, update_ops: usize) -> Scenario {
    let mut gen = CubeGen::new(0xC0FFEE);
    let cube = gen.uniform(dims, 0, 100).expect("valid dims");
    let mut engine = RpsEngine::from_cube(&cube);

    let regions: Vec<Region> = QueryGen::new(dims, 7, RegionSpec::Fraction(0.5)).take(query_ops);
    let points: Vec<Region> = QueryGen::new(dims, 11, RegionSpec::Point).take(query_ops);
    let updates: Vec<(Vec<usize>, i64)> = UpdateGen::uniform(dims, 13, 50).take(update_ops);

    // Warm up: fault in every lazily-grown buffer (thread-local scratch,
    // cache lines) so the measured loops see steady state.
    let mut sink = 0i64;
    for r in regions.iter().take(64.min(query_ops)) {
        sink = sink.wrapping_add(engine.query(r).expect("in bounds"));
    }
    for (c, d) in updates.iter().take(64.min(update_ops)) {
        engine.update(c, *d).expect("in bounds");
    }

    let mut results = Vec::new();
    let mut result_names = Vec::new();

    let mut qi = regions.iter().cycle();
    results.push(measure(query_ops, || {
        let r = qi.next().expect("cycle never ends");
        sink = sink.wrapping_add(engine.query(r).expect("in bounds"));
    }));
    result_names.push("range_query".to_string());

    let mut pi = points.iter().cycle();
    results.push(measure(query_ops, || {
        let r = pi.next().expect("cycle never ends");
        sink = sink.wrapping_add(engine.query(r).expect("in bounds"));
    }));
    result_names.push("point_query".to_string());

    let mut ui = updates.iter().cycle();
    results.push(measure(update_ops, || {
        let (c, d) = ui.next().expect("cycle never ends");
        engine.update(c, *d).expect("in bounds");
    }));
    result_names.push("update".to_string());

    // Batch path: the adaptive incremental/rebuild decision plus (once
    // the parallel orthant walk lands) slab-parallel overlay writes.
    for &threads in &[1usize, 4] {
        let batch: Vec<(Vec<usize>, i64)> =
            UpdateGen::uniform(dims, 17 + threads as u64, 50).take(update_ops.max(1));
        let start = Instant::now();
        let alloc_before = thread_allocs();
        engine
            .apply_batch_parallel(&batch, threads)
            .expect("in bounds");
        let elapsed = start.elapsed();
        results.push(Measurement {
            ops: batch.len(),
            ns_per_op: elapsed.as_nanos() as f64 / batch.len() as f64,
            allocs_per_op: (thread_allocs() - alloc_before) as f64 / batch.len() as f64,
        });
        result_names.push(format!("batch_update_t{threads}"));
    }

    // Keep the checksum alive so the optimizer cannot delete the loops.
    assert!(sink != i64::MIN, "checksum sentinel");

    Scenario {
        name: name.to_string(),
        dims: dims.to_vec(),
        box_size: engine.grid().box_size().to_vec(),
        results,
        result_names,
    }
}

/// One engine's fast-path vs per-cell-default timing for a rectangle
/// shape: the speedup column is the tentpole number this experiment
/// exists to track.
struct RangeEngineResult {
    engine: &'static str,
    fast: Measurement,
    per_cell: Measurement,
}

impl RangeEngineResult {
    fn speedup(&self) -> f64 {
        self.per_cell.ns_per_op / self.fast.ns_per_op
    }

    fn json(&self) -> String {
        format!(
            "{{\"engine\":\"{}\",\"fast_ns_per_op\":{:.1},\"fast_allocs_per_op\":{:.4},\"per_cell_ns_per_op\":{:.1},\"speedup\":{:.2}}}",
            self.engine,
            self.fast.ns_per_op,
            self.fast.allocs_per_op,
            self.per_cell.ns_per_op,
            self.speedup()
        )
    }
}

struct RangeShapeResult {
    shape: &'static str,
    cells_per_op: f64,
    engines: Vec<RangeEngineResult>,
}

impl RangeShapeResult {
    fn json(&self) -> String {
        let engines: Vec<String> = self.engines.iter().map(RangeEngineResult::json).collect();
        format!(
            "      {{\"shape\":\"{}\",\"cells_per_op\":{:.1},\"engines\":[\n        {}\n      ]}}",
            self.shape,
            self.cells_per_op,
            engines.join(",\n        ")
        )
    }
}

struct RangeScenario {
    name: String,
    dims: Vec<usize>,
    shapes: Vec<RangeShapeResult>,
}

impl RangeScenario {
    fn json(&self) -> String {
        let dims: Vec<String> = self.dims.iter().map(ToString::to_string).collect();
        let shapes: Vec<String> = self.shapes.iter().map(RangeShapeResult::json).collect();
        format!(
            "    {{\"scenario\":\"{}\",\"dims\":[{}],\"shapes\":[\n{}\n    ]}}",
            self.name,
            dims.join(","),
            shapes.join(",\n")
        )
    }
}

/// Times one engine over the pre-drawn rectangles twice: once through its
/// `range_update` fast path, once through the trait's per-cell default
/// (an explicit `update` loop — identical work to the default impl).
fn measure_range_engine<E: RangeSumEngine<i64>>(
    engine_name: &'static str,
    mut engine: E,
    rects: &[(Region, i64)],
    fast_ops: usize,
    per_cell_ops: usize,
) -> RangeEngineResult {
    // Warm up both paths so lazily-grown scratch is faulted in.
    for (r, d) in rects.iter().take(4) {
        engine.range_update(r, *d).expect("in bounds");
        for c in r.iter().take(64) {
            engine.update(&c, *d).expect("in bounds");
        }
    }

    let mut it = rects.iter().cycle();
    let fast = measure(fast_ops, || {
        let (r, d) = it.next().expect("cycle never ends");
        engine.range_update(r, *d).expect("in bounds");
    });

    let mut it = rects.iter().cycle();
    let per_cell = measure(per_cell_ops, || {
        let (r, d) = it.next().expect("cycle never ends");
        for c in r {
            engine.update(&c, *d).expect("in bounds");
        }
    });

    RangeEngineResult {
        engine: engine_name,
        fast,
        per_cell,
    }
}

/// The update-rectangle-size axis: point / small / large / full_row
/// rectangles, each shape timed through every bulk-update fast path and
/// through the per-cell default it replaces.
fn run_range_scenario(name: &str, dims: &[usize], ops: usize, smoke: bool) -> RangeScenario {
    let mut gen = CubeGen::new(0xBA5EBA11);
    let cube: NdCube<i64> = gen.uniform(dims, 0, 100).expect("valid dims");

    let shapes = [
        ("point", UpdateSpec::Point),
        ("small", UpdateSpec::Fraction(0.05)),
        ("large", UpdateSpec::Fraction(0.5)),
        ("full_row", UpdateSpec::FullRow),
    ];
    // The per-cell loop costs cells × point-update; cap how many raw
    // cells it replays so large rectangles keep the run under seconds.
    let cell_budget: f64 = if smoke { 50_000.0 } else { 500_000.0 };

    let mut out = Vec::new();
    for (label, spec) in shapes {
        let rects: Vec<(Region, i64)> = {
            let mut g = UpdateGen::uniform(dims, 23, 50).with_region_spec(spec);
            (0..ops.max(1)).map(|_| g.next_range_update()).collect()
        };
        let cells_per_op = rects
            .iter()
            .map(|(r, _)| r.cell_count() as f64)
            .sum::<f64>()
            / rects.len() as f64;
        let per_cell_ops = ((cell_budget / cells_per_op) as usize).clamp(4, ops.max(4));

        let engines = vec![
            measure_range_engine(
                "rps",
                RpsEngine::from_cube(&cube),
                &rects,
                ops,
                per_cell_ops,
            ),
            measure_range_engine(
                "fenwick",
                FenwickEngine::from_cube(&cube),
                &rects,
                ops,
                per_cell_ops,
            ),
            measure_range_engine(
                "blocked_fenwick",
                BlockedFenwickEngine::from_cube(&cube),
                &rects,
                ops,
                per_cell_ops,
            ),
        ];
        out.push(RangeShapeResult {
            shape: label,
            cells_per_op,
            engines,
        });
    }

    RangeScenario {
        name: name.to_string(),
        dims: dims.to_vec(),
        shapes: out,
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
        .unwrap_or_else(|| format!("{}/../../BENCH_HOTPATH.json", env!("CARGO_MANIFEST_DIR")));

    let (q_ops, u_ops) = if smoke {
        (2_000, 1_000)
    } else {
        (50_000, 20_000)
    };
    let scenarios = if smoke {
        vec![
            run_scenario("d2_n64", &[64, 64], q_ops, u_ops),
            run_scenario("d3_n16", &[16, 16, 16], q_ops, u_ops),
        ]
    } else {
        vec![
            run_scenario("d2_n512", &[512, 512], q_ops, u_ops),
            run_scenario("d2_n1024", &[1024, 1024], q_ops, u_ops),
            run_scenario("d3_n64", &[64, 64, 64], q_ops, u_ops),
        ]
    };

    let range_ops = if smoke { 64 } else { 512 };
    let range_scenarios = if smoke {
        vec![run_range_scenario("d2_n64", &[64, 64], range_ops, smoke)]
    } else {
        vec![
            run_range_scenario("d2_n512", &[512, 512], range_ops, smoke),
            run_range_scenario("d3_n64", &[64, 64, 64], range_ops, smoke),
        ]
    };

    let body: Vec<String> = scenarios.iter().map(Scenario::json).collect();
    let range_body: Vec<String> = range_scenarios.iter().map(RangeScenario::json).collect();
    let json = format!(
        "{{\n  \"bench\": \"exp_hot_path\",\n  \"mode\": \"{}\",\n  \"scenarios\": [\n{}\n  ],\n  \"range_update\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        body.join(",\n"),
        range_body.join(",\n")
    );

    println!("=== hot-path latency & allocation baseline ===\n");
    for s in &scenarios {
        println!("scenario {} dims {:?} k {:?}", s.name, s.dims, s.box_size);
        for (m, n) in s.results.iter().zip(&s.result_names) {
            println!(
                "  {n:<16} {:>10.1} ns/op  {:>8.4} allocs/op  ({} ops)",
                m.ns_per_op, m.allocs_per_op, m.ops
            );
        }
    }

    println!("\n=== range_update: fast path vs per-cell default ===\n");
    for s in &range_scenarios {
        println!("scenario {} dims {:?}", s.name, s.dims);
        for shape in &s.shapes {
            println!(
                "  shape {:<9} (~{:.0} cells/op)",
                shape.shape, shape.cells_per_op
            );
            for e in &shape.engines {
                println!(
                    "    {:<16} fast {:>12.1} ns/op   per-cell {:>14.1} ns/op   speedup {:>8.2}x",
                    e.engine,
                    e.fast.ns_per_op,
                    e.per_cell.ns_per_op,
                    e.speedup()
                );
            }
        }
    }

    std::fs::write(&out_path, &json).expect("write BENCH_HOTPATH.json");
    println!("\nwrote {out_path}");
}
