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
//! the lane-width `add_delta_run` kernel against its scalar twin. Every
//! row goes through [`rps_bench::measure`]: a warm-up pass, then timed
//! passes reported as the median ns/op with p10 and p90.
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
//! `--smoke` shrinks shapes, op counts and passes to run in seconds; CI
//! uses it to keep the emitter from rotting. The committed baseline at
//! the repo root is refreshed with the full configuration (see
//! `docs/PERFORMANCE.md` for how to read and refresh it).

use std::hint::black_box;

use ndcube::{NdCube, Region};
use rps_bench::alloc_counter::CountingAllocator;
use rps_bench::measure::{json_list, measure, measure_with, Args, Measurement, Scenario, Spread};
use rps_core::rps::kernels;
use rps_core::{BlockedFenwickEngine, FenwickEngine, RangeSumEngine, RpsEngine, VersionedEngine};
use rps_storage::{crc32, DurableEngine, FsSnapshotDir};
use rps_workload::{CubeGen, QueryGen, RegionSpec, UpdateGen, UpdateSpec};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Updates per incremental batch: `durable_ingest`'s write frame.
const FRAME: usize = 64;

/// Each row times about `query_ops` or `update_ops` operations in all,
/// split across `repeats` passes.
fn run_scenario(
    name: &str,
    dims: &[usize],
    repeats: usize,
    query_ops: usize,
    update_ops: usize,
) -> Scenario {
    let mut gen = CubeGen::new(0xC0FFEE);
    let cube = gen.uniform(dims, 0, 100).expect("valid dims");
    let mut engine = RpsEngine::from_cube(&cube);

    let regions: Vec<Region> = QueryGen::new(dims, 7, RegionSpec::Fraction(0.5)).take(query_ops);
    let points: Vec<Region> = QueryGen::new(dims, 11, RegionSpec::Point).take(query_ops);
    let updates: Vec<(Vec<usize>, i64)> = UpdateGen::uniform(dims, 13, 50).take(update_ops);
    let (q_calls, u_calls) = (query_ops.div_ceil(repeats), update_ops.div_ceil(repeats));

    let mut rows = Vec::new();
    let mut qi = regions.iter().cycle();
    let m = measure(repeats, q_calls, || {
        engine.query(qi.next().expect("cycle")).expect("in bounds")
    });
    rows.push(("range_query".to_string(), m));

    let mut pi = points.iter().cycle();
    let m = measure(repeats, q_calls, || {
        engine.query(pi.next().expect("cycle")).expect("in bounds")
    });
    rows.push(("point_query".to_string(), m));

    let mut ui = updates.iter().cycle();
    let m = measure(repeats, u_calls, || {
        let (c, d) = ui.next().expect("cycle");
        engine.update(c, *d).expect("in bounds");
    });
    rows.push(("update".to_string(), m));

    // Both legs of `apply_batch`, each checked through its return value
    // (`true` = rebuilt). Batches of `FRAME` updates stay incremental;
    // one batch of `update_ops` updates rebuilds, once per pass on a
    // fresh clone of the engine.
    let frames: Vec<Vec<(Vec<usize>, i64)>> = {
        let mut gen = UpdateGen::uniform(dims, 17, 50);
        (0..(update_ops / FRAME).max(1))
            .map(|_| gen.take(FRAME))
            .collect()
    };
    let mut fi = frames.iter().cycle();
    let (m, ()) = measure_with(
        repeats,
        frames.len().div_ceil(repeats),
        FRAME,
        || (),
        |()| {
            let rebuilt = engine
                .apply_batch(fi.next().expect("cycle"))
                .expect("in bounds");
            assert!(!rebuilt, "a {FRAME}-update batch must stay incremental");
        },
    );
    rows.push(("batch_update_incremental".to_string(), m));

    let batch: Vec<(Vec<usize>, i64)> = UpdateGen::uniform(dims, 18, 50).take(update_ops.max(1));
    let (m, _) = measure_with(
        repeats,
        1,
        batch.len(),
        || engine.clone(),
        |e| {
            let rebuilt = e.apply_batch(&batch).expect("in bounds");
            assert!(rebuilt, "a {}-update batch must rebuild", batch.len());
        },
    );
    rows.push(("batch_update_rebuild".to_string(), m));

    // The lane update kernel vs its retained scalar twin over one
    // RP-stride-wide row: the innermost loop of every update cascade.
    let row_len = dims[dims.len() - 1].max(kernels::LANES);
    let mut lane_buf = vec![1i64; row_len];
    let mut scalar_buf = vec![1i64; row_len];
    let m = measure(repeats, q_calls, || {
        kernels::add_delta_run(black_box(&mut lane_buf), &3);
    });
    rows.push(("lane_add_delta".to_string(), m));
    let m = measure(repeats, q_calls, || {
        kernels::add_delta_run_scalar(black_box(&mut scalar_buf), &3);
    });
    rows.push(("scalar_add_delta".to_string(), m));
    assert_eq!(
        lane_buf, scalar_buf,
        "lane kernel must match its scalar twin"
    );

    Scenario {
        name: name.to_string(),
        dims: dims.to_vec(),
        box_size: engine.grid().box_size().to_vec(),
        rows,
    }
}

/// Times one engine over the pre-drawn rectangles twice: once through its
/// `range_update` fast path, once through the trait's per-cell default
/// (an explicit `update` loop — identical work to the default impl).
/// Prints both rows and returns the engine's JSON; the speedup column is
/// the number this section exists to track.
fn range_engine<E: RangeSumEngine<i64>>(
    engine_name: &str,
    mut engine: E,
    rects: &[(Region, i64)],
    repeats: usize,
    fast_ops: usize,
    per_cell_ops: usize,
) -> String {
    let mut it = rects.iter().cycle();
    let fast = measure(repeats, fast_ops.div_ceil(repeats), || {
        let (r, d) = it.next().expect("cycle");
        engine.range_update(r, *d).expect("in bounds");
    });

    let mut it = rects.iter().cycle();
    let per_cell = measure(repeats, per_cell_ops.div_ceil(repeats), || {
        let (r, d) = it.next().expect("cycle");
        for c in r {
            engine.update(&c, *d).expect("in bounds");
        }
    });

    let speedup = per_cell.ns_per_op() / fast.ns_per_op();
    println!("    {engine_name:<16} speedup {speedup:>8.2}x");
    println!("      {}", fast.line("fast"));
    println!("      {}", per_cell.line("per_cell"));
    format!(
        "{{\"engine\":\"{engine_name}\",\"speedup\":{speedup:.2},\"measurements\":[\n          {},\n          {}\n        ]}}",
        fast.json("fast"),
        per_cell.json("per_cell")
    )
}

/// The update-rectangle-size axis: point / small / large / full_row
/// rectangles, each shape timed through every bulk-update fast path and
/// through the per-cell default it replaces. Prints the rows and returns
/// the scenario's JSON.
fn run_range_scenario(
    name: &str,
    dims: &[usize],
    repeats: usize,
    ops: usize,
    smoke: bool,
) -> String {
    println!("scenario {name} dims {dims:?}");
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

        println!("  shape {label:<9} (~{cells_per_op:.0} cells/op)");
        let engines = [
            range_engine(
                "rps",
                RpsEngine::from_cube(&cube),
                &rects,
                repeats,
                ops,
                per_cell_ops,
            ),
            range_engine(
                "fenwick",
                FenwickEngine::from_cube(&cube),
                &rects,
                repeats,
                ops,
                per_cell_ops,
            ),
            range_engine(
                "blocked_fenwick",
                BlockedFenwickEngine::from_cube(&cube),
                &rects,
                repeats,
                ops,
                per_cell_ops,
            ),
        ];
        out.push(format!(
            "      {{\"shape\":\"{label}\",\"cells_per_op\":{cells_per_op:.1},\"engines\":[\n        {}\n      ]}}",
            engines.join(",\n        ")
        ));
    }
    format!(
        "    {{\"scenario\":\"{name}\",\"dims\":{},\"shapes\":[\n{}\n    ]}}",
        json_list(dims),
        out.join(",\n")
    )
}

/// A spread of milliseconds as the `checkpoint_to` fields.
fn ms_json(s: &Spread) -> String {
    format!(
        "\"median_ms\":{:.3},\"p10_ms\":{:.3},\"p90_ms\":{:.3}",
        s.median, s.p10, s.p90
    )
}

/// `crc32` over one buffer size: about `loop_bytes` hashed in all, split
/// across the passes.
fn measure_crc32(bytes: usize, loop_bytes: usize, repeats: usize) -> Measurement {
    let buf: Vec<u8> = (0..bytes)
        .map(|i| (i.wrapping_mul(31) >> 3) as u8)
        .collect();
    let calls = (loop_bytes / bytes).max(1).div_ceil(repeats);
    measure(repeats, calls, || crc32(black_box(&buf)))
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

/// Times `checkpoint_to` on the `durable_ingest` geometry: `records`
/// logged updates (batches of 64) before each of `repeats` checkpoints,
/// after two untimed ones that create the files and warm the cache.
/// The stage times are read from the production histograms, not timed
/// here; the `crc32` rows go through the measurement core, `crc_repeats`
/// passes each. Prints the section and returns its JSON.
fn run_checkpoint_section(
    dims: &[usize],
    records: usize,
    repeats: usize,
    crc_repeats: usize,
) -> String {
    let crc: Vec<String> = [28usize, 1 << 10, 512 << 10]
        .iter()
        .map(|&bytes| {
            let m = measure_crc32(bytes, 224 << 20, crc_repeats);
            let mb_per_s = bytes as f64 * 1e3 / m.ns_per_op();
            println!("  {}", m.line(&format!("crc32 {bytes} B")));
            m.json_with(
                "crc32",
                &format!("\"bytes\":{bytes},\"mb_per_s\":{mb_per_s:.0}"),
            )
        })
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

    println!(
        "  checkpoint_to dims {dims:?} k {box_size:?}, {records} records between, {repeats} repeats"
    );
    let total = Spread::of(totals);
    let stages: Vec<Spread> = stages.into_iter().map(Spread::of).collect();
    let rows = std::iter::once(("total", &total)).chain(
        CHECKPOINT_STAGES
            .iter()
            .map(|(stage, _)| *stage)
            .zip(&stages),
    );
    for (stage, s) in rows {
        println!(
            "    {stage:<15} median {:>7.3} ms  p10 {:>7.3}  p90 {:>7.3}",
            s.median, s.p10, s.p90
        );
    }
    let stages: Vec<String> = CHECKPOINT_STAGES
        .iter()
        .zip(&stages)
        .map(|((stage, metric), s)| {
            format!(
                "{{\"stage\":\"{stage}\",\"metric\":\"{metric}\",{}}}",
                ms_json(s)
            )
        })
        .collect();
    format!(
        "{{\n    \"crc32\":[\n      {}\n    ],\n    \"checkpoint_to\":{{\"dims\":{},\"box_size\":{},\"records_between\":{records},\"repeats\":{repeats},\"total\":{{{}}},\"stages\":[\n      {}\n    ]}}\n  }}",
        crc.join(",\n      "),
        json_list(dims),
        json_list(&box_size),
        ms_json(&total),
        stages.join(",\n      ")
    )
}

fn main() {
    let args = Args::parse("BENCH_HOTPATH.json");
    let repeats = args.repeats();

    println!("=== hot-path latency & allocation baseline, {repeats} passes a row ===\n");
    let (q_ops, u_ops) = if args.smoke {
        (2_000, 1_000)
    } else {
        (50_000, 20_000)
    };
    let shapes: &[(&str, &[usize])] = if args.smoke {
        &[("d2_n64", &[64, 64]), ("d3_n16", &[16, 16, 16])]
    } else {
        &[
            ("d2_n512", &[512, 512]),
            ("d2_n1024", &[1024, 1024]),
            ("d3_n64", &[64, 64, 64]),
        ]
    };
    let scenarios: Vec<String> = shapes
        .iter()
        .map(|(name, dims)| {
            let s = run_scenario(name, dims, repeats, q_ops, u_ops);
            s.print();
            s.json()
        })
        .collect();

    println!("\n=== range_update: fast path vs per-cell default ===\n");
    let range_ops = if args.smoke { 64 } else { 512 };
    let range_shapes: &[(&str, &[usize])] = if args.smoke {
        &[("d2_n64", &[64, 64])]
    } else {
        &[("d2_n512", &[512, 512]), ("d3_n64", &[64, 64, 64])]
    };
    let range_scenarios: Vec<String> = range_shapes
        .iter()
        .map(|(name, dims)| run_range_scenario(name, dims, repeats, range_ops, args.smoke))
        .collect();

    println!("\n=== checkpoint: crc32 and checkpoint_to stages ===\n");
    let checkpoint = if args.smoke {
        run_checkpoint_section(&[64, 64], 256, 5, repeats)
    } else {
        run_checkpoint_section(&[256, 256], 2048, 21, repeats)
    };

    let json = format!(
        "{{\n  \"bench\": \"exp_hot_path\",\n  \"mode\": \"{}\",\n  \"scenarios\": [\n{}\n  ],\n  \"range_update\": [\n{}\n  ],\n  \"checkpoint\": {checkpoint}\n}}\n",
        args.mode(),
        scenarios.join(",\n"),
        range_scenarios.join(",\n"),
    );
    std::fs::write(&args.out, &json).expect("write BENCH_HOTPATH.json");
    println!("\nwrote {}", args.out);
}
