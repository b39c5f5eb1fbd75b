//! Hot-path latency + allocation baseline: ns/query, ns/update,
//! allocs/op for the in-memory RPS engine, emitted as `BENCH_HOTPATH.json`
//! so every future PR has a measured trajectory to compare against.
//!
//! The paper argues in cells touched; Pibiri & Venturini (PAPERS.md) show
//! the *constant factors* — cache behaviour and allocator traffic — decide
//! which prefix-sum structure wins in practice. This experiment pins both:
//! wall-clock per op and heap allocations per op (via
//! [`rps_bench::alloc_counter`]), for steady-state point queries, range
//! queries and point updates, both legs of `RpsEngine::apply_batch`, and
//! the lane-width `add_delta_run` kernel against its scalar twin.
//!
//! The `checkpoint` section times the durable checkpoint stall:
//! [`rps_storage::crc32`] throughput at a WAL record's 28 bytes, 1 KiB
//! and a 256² snapshot payload's 512 KiB, then `checkpoint_to` on a
//! `VersionedEngine` behind a `DurableEngine` in a temp dir, split into
//! the stages its production histograms record: WAL sync
//! (`storage_wal_fsync_ns`), capture+encode (`rps_snapshot_encode_ns`),
//! artifact write (`rps_snapshot_save_ns`), and GC (what the whole call,
//! `rps_snapshot_checkpoint_ns`, spent beyond those three).
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

use std::hint::black_box;
use std::time::Instant;

use ndcube::{NdCube, Region};
use rps_bench::alloc_counter::{thread_allocs, CountingAllocator};
use rps_core::rps::kernels;
use rps_core::{BlockedFenwickEngine, FenwickEngine, RangeSumEngine, RpsEngine, VersionedEngine};
use rps_storage::{crc32, DurableEngine, FsSnapshotDir};
use rps_workload::{CubeGen, QueryGen, RegionSpec, UpdateGen, UpdateSpec};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Updates per incremental batch: `durable_ingest`'s write frame.
const FRAME: usize = 64;

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

    // Both legs of `apply_batch`, each checked through its return value
    // (`true` = rebuilt). Batches of `FRAME` updates stay incremental;
    // one batch of `update_ops` updates rebuilds.
    let frames: Vec<Vec<(Vec<usize>, i64)>> = {
        let mut gen = UpdateGen::uniform(dims, 17, 50);
        (0..(update_ops / FRAME).max(1))
            .map(|_| gen.take(FRAME))
            .collect()
    };
    let mut fi = frames.iter();
    let mut m = measure(frames.len(), || {
        let frame = fi.next().expect("one frame per op");
        let rebuilt = engine.apply_batch(frame).expect("in bounds");
        assert!(!rebuilt, "a {FRAME}-update batch must stay incremental");
    });
    m.ops *= FRAME;
    m.ns_per_op /= FRAME as f64;
    m.allocs_per_op /= FRAME as f64;
    results.push(m);
    result_names.push("batch_update_incremental".to_string());

    let batch: Vec<(Vec<usize>, i64)> = UpdateGen::uniform(dims, 18, 50).take(update_ops.max(1));
    let mut m = measure(1, || {
        let rebuilt = engine.apply_batch(&batch).expect("in bounds");
        assert!(rebuilt, "a {}-update batch must rebuild", batch.len());
    });
    m.ops = batch.len();
    m.ns_per_op /= batch.len() as f64;
    m.allocs_per_op /= batch.len() as f64;
    results.push(m);
    result_names.push("batch_update_rebuild".to_string());

    // The lane update kernel vs its retained scalar twin over one
    // RP-stride-wide row: the innermost loop of every update cascade.
    let row_len = dims[dims.len() - 1].max(kernels::LANES);
    let mut lane_buf = vec![1i64; row_len];
    let mut scalar_buf = vec![1i64; row_len];
    results.push(measure(query_ops, || {
        kernels::add_delta_run(black_box(&mut lane_buf), &3);
    }));
    result_names.push("lane_add_delta".to_string());
    results.push(measure(query_ops, || {
        kernels::add_delta_run_scalar(black_box(&mut scalar_buf), &3);
    }));
    result_names.push("scalar_add_delta".to_string());
    assert_eq!(
        lane_buf, scalar_buf,
        "lane kernel must match its scalar twin"
    );

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

/// Median, 10th and 90th percentile of a sample (nearest rank).
struct Spread {
    median: f64,
    p10: f64,
    p90: f64,
}

impl Spread {
    fn of(mut xs: Vec<f64>) -> Spread {
        xs.sort_by(f64::total_cmp);
        let at = |q: f64| xs[((xs.len() - 1) as f64 * q).round() as usize];
        Spread {
            median: at(0.5),
            p10: at(0.1),
            p90: at(0.9),
        }
    }

    fn json(&self) -> String {
        format!(
            "\"median_ms\":{:.3},\"p10_ms\":{:.3},\"p90_ms\":{:.3}",
            self.median, self.p10, self.p90
        )
    }
}

/// `crc32` over one buffer size: the median of `repeats` timed loops.
struct CrcRow {
    bytes: usize,
    ns_per_call: f64,
}

impl CrcRow {
    fn mb_per_s(&self) -> f64 {
        self.bytes as f64 * 1e3 / self.ns_per_call
    }

    fn json(&self) -> String {
        format!(
            "{{\"bytes\":{},\"ns_per_call\":{:.1},\"mb_per_s\":{:.0}}}",
            self.bytes,
            self.ns_per_call,
            self.mb_per_s()
        )
    }
}

fn measure_crc32(bytes: usize, loop_bytes: usize, repeats: usize) -> CrcRow {
    let buf: Vec<u8> = (0..bytes)
        .map(|i| (i.wrapping_mul(31) >> 3) as u8)
        .collect();
    let calls = (loop_bytes / bytes).max(1);
    let mut sink = 0u32;
    let mut per_call = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let start = Instant::now();
        for _ in 0..calls {
            sink ^= crc32(black_box(&buf));
        }
        per_call.push(start.elapsed().as_nanos() as f64 / calls as f64);
    }
    black_box(sink);
    CrcRow {
        bytes,
        ns_per_call: Spread::of(per_call).median,
    }
}

/// The stages of one `checkpoint_to`, each with the metric it is read
/// from; `gc` is what the whole call (`rps_snapshot_checkpoint_ns`)
/// spent beyond the other three: the retention list and removals.
const CHECKPOINT_STAGES: [(&str, &str); 4] = [
    ("wal_sync", "storage_wal_fsync_ns"),
    ("capture_encode", "rps_snapshot_encode_ns"),
    ("store_write", "rps_snapshot_save_ns"),
    ("gc", "rps_snapshot_checkpoint_ns minus the rest"),
];

struct CheckpointSection {
    crc32: Vec<CrcRow>,
    dims: Vec<usize>,
    box_size: Vec<usize>,
    records_between: usize,
    repeats: usize,
    total: Spread,
    stages: Vec<Spread>,
}

impl CheckpointSection {
    fn print(&self) {
        println!("\n=== checkpoint: crc32 and checkpoint_to stages ===\n");
        for r in &self.crc32 {
            println!(
                "  crc32 {:>7} B  {:>12.1} ns/call  {:>7.0} MB/s",
                r.bytes,
                r.ns_per_call,
                r.mb_per_s()
            );
        }
        println!(
            "  checkpoint_to dims {:?} k {:?}, {} records between, {} repeats",
            self.dims, self.box_size, self.records_between, self.repeats
        );
        let rows = std::iter::once(("total", &self.total)).chain(
            CHECKPOINT_STAGES
                .iter()
                .map(|(stage, _)| *stage)
                .zip(&self.stages),
        );
        for (stage, s) in rows {
            println!(
                "    {stage:<15} median {:>7.3} ms  p10 {:>7.3}  p90 {:>7.3}",
                s.median, s.p10, s.p90
            );
        }
    }

    fn json(&self) -> String {
        let list = |v: &[usize]| {
            v.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        };
        let crc: Vec<String> = self.crc32.iter().map(CrcRow::json).collect();
        let stages: Vec<String> = CHECKPOINT_STAGES
            .iter()
            .zip(&self.stages)
            .map(|((stage, metric), s)| {
                format!(
                    "{{\"stage\":\"{stage}\",\"metric\":\"{metric}\",{}}}",
                    s.json()
                )
            })
            .collect();
        format!(
            "{{\n    \"crc32\":[\n      {}\n    ],\n    \"checkpoint_to\":{{\"dims\":[{}],\"box_size\":[{}],\"records_between\":{},\"repeats\":{},\"total\":{{{}}},\"stages\":[\n      {}\n    ]}}\n  }}",
            crc.join(",\n      "),
            list(&self.dims),
            list(&self.box_size),
            self.records_between,
            self.repeats,
            self.total.json(),
            stages.join(",\n      ")
        )
    }
}

/// Times `checkpoint_to` on the `durable_ingest` geometry: `records`
/// logged updates (batches of 64) before each of `repeats` checkpoints,
/// after two untimed ones that create the files and warm the cache.
fn run_checkpoint_section(dims: &[usize], records: usize, repeats: usize) -> CheckpointSection {
    let crc32_rows = [28usize, 1 << 10, 512 << 10]
        .iter()
        .map(|&b| measure_crc32(b, 32 << 20, 7))
        .collect();

    let dir = std::env::temp_dir().join(format!("rps-exp-hot-path-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = VersionedEngine::new(RpsEngine::<i64>::zeros(dims).expect("valid dims"));
    let box_size = engine.snapshot().box_size().to_vec();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let mut durable = DurableEngine::open(engine, &dir.join("wal.log"), 0).expect("open WAL");
    let mut store = FsSnapshotDir::open(&dir.join("snapshots")).expect("open snapshot dir");
    let mut updates = UpdateGen::uniform(dims, 29, 50);

    let m = rps_storage::obs::storage();
    // Each checkpoint adds one observation to each histogram, so the
    // change in a histogram's sum is that stage's time.
    let sums = || {
        [
            m.wal_fsync_ns.sum(),
            m.snapshot_encode_ns.sum(),
            m.snapshot_save_ns.sum(),
            m.snapshot_checkpoint_ns.sum(),
        ]
    };
    rps_obs::set_timing(true);
    let mut totals = Vec::with_capacity(repeats);
    let mut stages: [Vec<f64>; 4] = Default::default();
    for rep in 0..repeats + 2 {
        for _ in 0..records / 64 {
            durable.update_batch(&updates.take(64)).expect("in bounds");
        }
        let before = sums();
        durable.checkpoint_to(&mut store).expect("checkpoint");
        let after = sums();
        if rep < 2 {
            continue;
        }
        let [sync, encode, write, whole] =
            std::array::from_fn(|i| (after[i] - before[i]) as f64 / 1e6);
        let gc = whole - sync - encode - write;
        for (stage, ms) in stages.iter_mut().zip([sync, encode, write, gc]) {
            stage.push(ms);
        }
        totals.push(whole);
    }
    rps_obs::set_timing(false);
    let _ = std::fs::remove_dir_all(&dir);

    CheckpointSection {
        crc32: crc32_rows,
        dims: dims.to_vec(),
        box_size,
        records_between: records,
        repeats,
        total: Spread::of(totals),
        stages: stages.into_iter().map(Spread::of).collect(),
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

    let checkpoint = if smoke {
        run_checkpoint_section(&[64, 64], 256, 5)
    } else {
        run_checkpoint_section(&[256, 256], 2048, 21)
    };

    let body: Vec<String> = scenarios.iter().map(Scenario::json).collect();
    let range_body: Vec<String> = range_scenarios.iter().map(RangeScenario::json).collect();
    let json = format!(
        "{{\n  \"bench\": \"exp_hot_path\",\n  \"mode\": \"{}\",\n  \"scenarios\": [\n{}\n  ],\n  \"range_update\": [\n{}\n  ],\n  \"checkpoint\": {}\n}}\n",
        if smoke { "smoke" } else { "full" },
        body.join(",\n"),
        range_body.join(",\n"),
        checkpoint.json()
    );

    println!("=== hot-path latency & allocation baseline ===\n");
    for s in &scenarios {
        println!("scenario {} dims {:?} k {:?}", s.name, s.dims, s.box_size);
        for (m, n) in s.results.iter().zip(&s.result_names) {
            println!(
                "  {n:<24} {:>10.1} ns/op  {:>8.4} allocs/op  ({} ops)",
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

    checkpoint.print();

    std::fs::write(&out_path, &json).expect("write BENCH_HOTPATH.json");
    println!("\nwrote {out_path}");
}
