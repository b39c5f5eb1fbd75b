//! Prices the observability layer: ns/op and allocs/op for the
//! instrumented in-memory hot paths, in both timing modes, against the
//! committed `BENCH_HOTPATH.json` baseline.
//!
//! The `crates/obs` contract is "counters always on, clocks gated":
//! every query/update unconditionally bumps relaxed atomics, while the
//! two `Instant::now()` calls a latency span costs are behind the
//! global [`rps_obs::set_timing`] switch (off by default). This
//! experiment measures both sides of that switch —
//!
//! * `timing_off` — the default production mode; the acceptance bar is
//!   0 allocs/op and wall-clock within a few percent of the
//!   pre-instrumentation baseline recorded in `BENCH_HOTPATH.json`;
//! * `timing_on` — full latency histograms plus an installed trace
//!   ring, i.e. the most expensive configuration the layer supports.
//!
//! ```text
//! cargo run --release -p rps-bench --bin exp_obs_overhead            # full
//! cargo run --release -p rps-bench --bin exp_obs_overhead -- --smoke # CI
//! cargo run --release -p rps-bench --bin exp_obs_overhead -- --out p.json
//! ```
//!
//! Results land in `BENCH_OBS.json` at the repo root. Every row goes
//! through [`rps_bench::measure`] as `exp_hot_path`'s rows do, and each
//! carries the matching `BENCH_HOTPATH.json` median and the delta of its
//! own median in percent, so the overhead claim is auditable from the
//! committed files alone (see docs/OBSERVABILITY.md and
//! docs/PERFORMANCE.md).

use ndcube::Region;
use rps_bench::alloc_counter::CountingAllocator;
use rps_bench::measure::{json_list, measure, measure_with, Args, Measurement};
use rps_core::{RangeSumEngine, RpsEngine};
use rps_workload::{CubeGen, QueryGen, RegionSpec, UpdateGen};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Prints one row with its delta against `baseline` (the committed
/// `BENCH_HOTPATH.json` median, when one exists) and returns its JSON.
fn row(name: &str, m: &Measurement, baseline: Option<f64>) -> String {
    if let Some(b) = baseline.filter(|b| *b > 0.0) {
        let delta = 100.0 * (m.ns_per_op() - b) / b;
        println!("    {}  {delta:+.1}%", m.line(name));
        m.json_with(
            name,
            &format!("\"baseline_ns_per_op\":{b:.1},\"delta_pct\":{delta:.1}"),
        )
    } else {
        println!("    {}  (no baseline)", m.line(name));
        m.json(name)
    }
}

/// Pulls `ns_per_op` for one (scenario, measurement) out of the
/// committed `BENCH_HOTPATH.json` without a JSON parser: the file is
/// emitted by `exp_hot_path` with a fixed field order.
fn baseline_ns(text: &str, scenario: &str, name: &str) -> Option<f64> {
    let s_idx = text.find(&format!("\"scenario\":\"{scenario}\""))?;
    let block = &text[s_idx..];
    let block = &block[..block.find("]}").unwrap_or(block.len())];
    let m_idx = block.find(&format!("\"name\":\"{name}\""))?;
    let tail = &block[m_idx..];
    let v_idx = tail.find("\"ns_per_op\":")? + "\"ns_per_op\":".len();
    let digits: String = tail[v_idx..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    digits.parse().ok()
}

/// Each row times about `query_ops` or `update_ops` operations in all,
/// split across `repeats` passes. Prints the rows and returns the mode's
/// JSON.
fn run_mode(
    mode: &str,
    engine: &mut RpsEngine<i64>,
    scenario: &str,
    baseline: &str,
    repeats: usize,
    query_ops: usize,
    update_ops: usize,
) -> String {
    println!("  [{mode}]");
    let dims = engine.shape().dims().to_vec();
    let regions: Vec<Region> = QueryGen::new(&dims, 7, RegionSpec::Fraction(0.5)).take(query_ops);
    let points: Vec<Region> = QueryGen::new(&dims, 11, RegionSpec::Point).take(query_ops);
    let updates: Vec<(Vec<usize>, i64)> = UpdateGen::uniform(&dims, 13, 50).take(update_ops);
    let (q_calls, u_calls) = (query_ops.div_ceil(repeats), update_ops.div_ceil(repeats));
    let with_baseline = |name, m: &Measurement| row(name, m, baseline_ns(baseline, scenario, name));

    let mut rows = Vec::new();
    let mut qi = regions.iter().cycle();
    let m = measure(repeats, q_calls, || {
        engine.query(qi.next().expect("cycle")).expect("in bounds")
    });
    rows.push(with_baseline("range_query", &m));
    let mut pi = points.iter().cycle();
    let m = measure(repeats, q_calls, || {
        engine.query(pi.next().expect("cycle")).expect("in bounds")
    });
    rows.push(with_baseline("point_query", &m));
    let mut ui = updates.iter().cycle();
    let m = measure(repeats, u_calls, || {
        let (c, d) = ui.next().expect("cycle");
        engine.update(c, *d).expect("in bounds");
    });
    rows.push(with_baseline("update", &m));

    // The corner-cached batch path, measured per query: its per-batch
    // bookkeeping (the output and the cache table) must amortize to ~0
    // allocs per query.
    let batch: Vec<Region> = QueryGen::new(&dims, 19, RegionSpec::Fraction(0.5)).take(1024);
    let rounds = (query_ops / batch.len()).max(1);
    let (m, ()) = measure_with(
        repeats,
        rounds.div_ceil(repeats),
        batch.len(),
        || (),
        |()| engine.query_many(&batch).expect("in bounds"),
    );
    let allocs = m.allocs_per_op.expect("counted on this thread");
    if mode == "timing_off" {
        assert!(
            allocs < 0.05,
            "timing-off query_many batches must stay ~0 allocs/op, measured {allocs:.4}"
        );
    }
    rows.push(row("query_many", &m, None));

    format!(
        "      {{\"mode\":\"{mode}\",\"measurements\":[\n        {}\n      ]}}",
        rows.join(",\n        ")
    )
}

/// Prints the scenario's rows and returns its JSON.
fn run_scenario(
    name: &str,
    dims: &[usize],
    baseline: &str,
    repeats: usize,
    query_ops: usize,
    update_ops: usize,
) -> String {
    let cube = CubeGen::new(0xC0FFEE)
        .uniform(dims, 0, 100)
        .expect("valid dims");
    let mut engine = RpsEngine::from_cube(&cube);
    let box_size = engine.grid().box_size().to_vec();
    println!("scenario {name} dims {dims:?} k {box_size:?}");

    // Default mode first; then the expensive configuration (timing on
    // plus an installed trace ring — install is first-wins and global,
    // so it must come after every timing_off measurement).
    rps_obs::set_timing(false);
    let off = run_mode(
        "timing_off",
        &mut engine,
        name,
        baseline,
        repeats,
        query_ops,
        update_ops,
    );
    rps_obs::set_timing(true);
    rps_obs::trace::install(4096);
    let on = run_mode(
        "timing_on",
        &mut engine,
        name,
        baseline,
        repeats,
        query_ops,
        update_ops,
    );
    rps_obs::set_timing(false);

    format!(
        "    {{\"scenario\":\"{name}\",\"dims\":{},\"box_size\":{},\"modes\":[\n{off},\n{on}\n    ]}}",
        json_list(dims),
        json_list(&box_size),
    )
}

fn main() {
    let args = Args::parse("BENCH_OBS.json");
    let repeats = args.repeats();
    let baseline_path = format!("{}/../../BENCH_HOTPATH.json", env!("CARGO_MANIFEST_DIR"));
    let baseline = std::fs::read_to_string(&baseline_path).unwrap_or_default();

    println!(
        "=== observability overhead (vs BENCH_HOTPATH.json medians), {repeats} passes a row ===\n"
    );
    let (q_ops, u_ops) = if args.smoke {
        (2_000, 1_000)
    } else {
        (50_000, 20_000)
    };
    let shapes: &[(&str, &[usize])] = if args.smoke {
        &[("d2_n64", &[64, 64])]
    } else {
        &[("d2_n512", &[512, 512]), ("d3_n64", &[64, 64, 64])]
    };
    let scenarios: Vec<String> = shapes
        .iter()
        .map(|(name, dims)| run_scenario(name, dims, &baseline, repeats, q_ops, u_ops))
        .collect();

    let json = format!(
        "{{\n  \"bench\": \"exp_obs_overhead\",\n  \"mode\": \"{}\",\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        args.mode(),
        scenarios.join(",\n")
    );
    std::fs::write(&args.out, &json).expect("write BENCH_OBS.json");
    println!("\nwrote {}", args.out);
}
