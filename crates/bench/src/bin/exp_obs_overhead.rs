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
//! Results land in `BENCH_OBS.json` at the repo root; each `timing_off`
//! measurement carries the matching baseline ns/op and the delta in
//! percent so the overhead claim is auditable from the committed file
//! alone (see docs/OBSERVABILITY.md and docs/PERFORMANCE.md).

use std::time::Instant;

use ndcube::Region;
use rps_bench::alloc_counter::{thread_allocs, CountingAllocator};
use rps_core::{RangeSumEngine, RpsEngine};
use rps_workload::{CubeGen, QueryGen, RegionSpec, UpdateGen};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// One measured loop, plus the committed baseline when one exists for
/// this (scenario, measurement) pair.
struct Measurement {
    name: &'static str,
    ops: usize,
    ns_per_op: f64,
    allocs_per_op: f64,
    baseline_ns_per_op: Option<f64>,
}

impl Measurement {
    fn delta_pct(&self) -> Option<f64> {
        self.baseline_ns_per_op
            .filter(|b| *b > 0.0)
            .map(|b| 100.0 * (self.ns_per_op - b) / b)
    }

    fn json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "{{\"name\":\"{}\",\"ops\":{},\"ns_per_op\":{:.1},\"allocs_per_op\":{:.4}",
            self.name, self.ops, self.ns_per_op, self.allocs_per_op
        );
        if let (Some(b), Some(d)) = (self.baseline_ns_per_op, self.delta_pct()) {
            let _ = write!(s, ",\"baseline_ns_per_op\":{b:.1},\"delta_pct\":{d:.1}");
        }
        s.push('}');
        s
    }
}

/// Timed passes per measurement; `ns_per_op` is the minimum over the
/// passes. The minimum is the standard noise-robust latency estimator
/// for a deterministic loop: interference (scheduler, other tenants)
/// only ever adds time, so the smallest pass is the closest view of the
/// code's real cost. Allocations are summed across all passes — the
/// zero-allocs claim must hold for every one of them.
const PASSES: usize = 5;

fn measure(
    name: &'static str,
    ops: usize,
    baseline: Option<f64>,
    mut body: impl FnMut(),
) -> Measurement {
    let alloc_before = thread_allocs();
    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let start = Instant::now();
        for _ in 0..ops {
            body();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / ops as f64);
    }
    let allocs = thread_allocs() - alloc_before;
    Measurement {
        name,
        ops: ops * PASSES,
        ns_per_op: best,
        allocs_per_op: allocs as f64 / (ops * PASSES) as f64,
        baseline_ns_per_op: baseline,
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

struct ModeRun {
    mode: &'static str,
    results: Vec<Measurement>,
}

struct Scenario {
    name: String,
    dims: Vec<usize>,
    box_size: Vec<usize>,
    modes: Vec<ModeRun>,
}

impl Scenario {
    fn json(&self) -> String {
        let dims: Vec<String> = self.dims.iter().map(ToString::to_string).collect();
        let ks: Vec<String> = self.box_size.iter().map(ToString::to_string).collect();
        let modes: Vec<String> = self
            .modes
            .iter()
            .map(|m| {
                let ms: Vec<String> = m.results.iter().map(Measurement::json).collect();
                format!(
                    "      {{\"mode\":\"{}\",\"measurements\":[\n        {}\n      ]}}",
                    m.mode,
                    ms.join(",\n        ")
                )
            })
            .collect();
        format!(
            "    {{\"scenario\":\"{}\",\"dims\":[{}],\"box_size\":[{}],\"modes\":[\n{}\n    ]}}",
            self.name,
            dims.join(","),
            ks.join(","),
            modes.join(",\n")
        )
    }
}

fn run_mode(
    mode: &'static str,
    engine: &mut RpsEngine<i64>,
    scenario: &str,
    baseline: &str,
    query_ops: usize,
    update_ops: usize,
) -> ModeRun {
    let dims = engine.shape().dims().to_vec();
    let regions: Vec<Region> = QueryGen::new(&dims, 7, RegionSpec::Fraction(0.5)).take(query_ops);
    let points: Vec<Region> = QueryGen::new(&dims, 11, RegionSpec::Point).take(query_ops);
    let updates: Vec<(Vec<usize>, i64)> = UpdateGen::uniform(&dims, 13, 50).take(update_ops);

    // Warm up: thread-local scratch, metric registration, cache lines.
    let mut sink = 0i64;
    for r in regions.iter().take(64.min(query_ops)) {
        sink = sink.wrapping_add(engine.query(r).expect("in bounds"));
    }
    for (c, d) in updates.iter().take(64.min(update_ops)) {
        engine.update(c, *d).expect("in bounds");
    }

    let mut results = Vec::new();
    let mut qi = regions.iter().cycle();
    results.push(measure(
        "range_query",
        query_ops,
        baseline_ns(baseline, scenario, "range_query"),
        || {
            let r = qi.next().expect("cycle never ends");
            sink = sink.wrapping_add(engine.query(r).expect("in bounds"));
        },
    ));
    let mut pi = points.iter().cycle();
    results.push(measure(
        "point_query",
        query_ops,
        baseline_ns(baseline, scenario, "point_query"),
        || {
            let r = pi.next().expect("cycle never ends");
            sink = sink.wrapping_add(engine.query(r).expect("in bounds"));
        },
    ));
    let mut ui = updates.iter().cycle();
    results.push(measure(
        "update",
        update_ops,
        baseline_ns(baseline, scenario, "update"),
        || {
            let (c, d) = ui.next().expect("cycle never ends");
            engine.update(c, *d).expect("in bounds");
        },
    ));

    // The corner-cached batch path, measured per query: its per-batch
    // bookkeeping (the output and the cache table) must amortize to ~0
    // allocs per query.
    let batch: Vec<Region> = QueryGen::new(&dims, 19, RegionSpec::Fraction(0.5)).take(1024);
    let rounds = (query_ops / batch.len()).max(1);
    let m = measure("query_many", rounds, None, || {
        let out = engine.query_many(&batch).expect("in bounds");
        sink = sink.wrapping_add(out.last().copied().unwrap_or(0));
    });
    let per_query = Measurement {
        name: m.name,
        ops: m.ops * batch.len(),
        ns_per_op: m.ns_per_op / batch.len() as f64,
        allocs_per_op: m.allocs_per_op / batch.len() as f64,
        baseline_ns_per_op: None,
    };
    if mode == "timing_off" {
        assert!(
            per_query.allocs_per_op < 0.05,
            "timing-off query_many batches must stay ~0 allocs/op, \
             measured {:.4}",
            per_query.allocs_per_op
        );
    }
    results.push(per_query);

    assert!(sink != i64::MIN, "checksum sentinel");
    ModeRun { mode, results }
}

fn run_scenario(
    name: &str,
    dims: &[usize],
    baseline: &str,
    query_ops: usize,
    update_ops: usize,
) -> Scenario {
    let cube = CubeGen::new(0xC0FFEE)
        .uniform(dims, 0, 100)
        .expect("valid dims");
    let mut engine = RpsEngine::from_cube(&cube);

    // Default mode first; then the expensive configuration (timing on
    // plus an installed trace ring — install is first-wins and global,
    // so it must come after every timing_off measurement).
    rps_obs::set_timing(false);
    let off = run_mode(
        "timing_off",
        &mut engine,
        name,
        baseline,
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
        query_ops,
        update_ops,
    );
    rps_obs::set_timing(false);

    Scenario {
        name: name.to_string(),
        dims: dims.to_vec(),
        box_size: engine.grid().box_size().to_vec(),
        modes: vec![off, on],
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
        .unwrap_or_else(|| format!("{}/../../BENCH_OBS.json", env!("CARGO_MANIFEST_DIR")));
    let baseline_path = format!("{}/../../BENCH_HOTPATH.json", env!("CARGO_MANIFEST_DIR"));
    let baseline = std::fs::read_to_string(&baseline_path).unwrap_or_default();

    let (q_ops, u_ops) = if smoke {
        (2_000, 1_000)
    } else {
        (50_000, 20_000)
    };
    let scenarios = if smoke {
        vec![run_scenario("d2_n64", &[64, 64], &baseline, q_ops, u_ops)]
    } else {
        vec![
            run_scenario("d2_n512", &[512, 512], &baseline, q_ops, u_ops),
            run_scenario("d3_n64", &[64, 64, 64], &baseline, q_ops, u_ops),
        ]
    };

    let body: Vec<String> = scenarios.iter().map(Scenario::json).collect();
    let json = format!(
        "{{\n  \"bench\": \"exp_obs_overhead\",\n  \"mode\": \"{}\",\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        body.join(",\n")
    );

    println!("=== observability overhead (vs BENCH_HOTPATH.json baseline) ===\n");
    for s in &scenarios {
        println!("scenario {} dims {:?} k {:?}", s.name, s.dims, s.box_size);
        for mode in &s.modes {
            println!("  [{}]", mode.mode);
            for m in &mode.results {
                let delta = m
                    .delta_pct()
                    .map_or_else(|| "   (no baseline)".to_string(), |d| format!("{d:+8.1}%"));
                println!(
                    "    {:<14} {:>10.1} ns/op  {:>8.4} allocs/op  {delta}",
                    m.name, m.ns_per_op, m.allocs_per_op
                );
            }
        }
    }

    std::fs::write(&out_path, &json).expect("write BENCH_OBS.json");
    println!("\nwrote {out_path}");
}
