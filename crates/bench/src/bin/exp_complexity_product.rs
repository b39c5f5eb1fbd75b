//! E9 — the §4.3/§5 complexity table, measured.
//!
//! For each method, measures worst-case query reads and update writes
//! across a sweep of n, fits the log–log scaling exponent, and prints the
//! query·update product — the paper's overall figure of merit:
//!
//! | method | query | update | product |
//! |--------|-------|--------|---------|
//! | naive | O(n^d) | O(1) | O(n^d) |
//! | prefix sum | O(1) | O(n^d) | O(n^d) |
//! | **RPS** | O(1) | O(n^{d/2}) | **O(n^{d/2})** |
//!
//! Next to each count stands the wall-clock time of the same operation,
//! and the build time, timed through [`rps_bench::measure`] as the median
//! (p10–p90) of its passes. A last table times a 10/50/90 % query mix per
//! method on a 256² cube, each pass on a freshly built engine.

use ndcube::{NdCube, Region};
use rps_analysis::{loglog_slope, Table};
use rps_bench::measure::{measure, measure_with, REPEATS};
use rps_bench::replay;
use rps_core::{FenwickEngine, NaiveEngine, PrefixSumEngine, RangeSumEngine, RpsEngine};
use rps_workload::{CubeGen, MixedWorkload, QueryGen, RegionSpec, UpdateGen};

/// (n, measured) series for queries and updates of one method.
type Series = (&'static str, Vec<(f64, f64)>, Vec<(f64, f64)>);

/// Builds one method's engine over a cube, with box side `k` for RPS.
type Build = fn(&NdCube<i64>, usize) -> Box<dyn RangeSumEngine<i64>>;

const METHODS: [(&str, Build); 4] = [
    ("naive", |a, _| Box::new(NaiveEngine::from_cube(a.clone()))),
    ("prefix-sum", |a, _| Box::new(PrefixSumEngine::from_cube(a))),
    ("relative-prefix-sum", |a, k| {
        Box::new(RpsEngine::from_cube_uniform(a, k).unwrap())
    }),
    ("fenwick", |a, _| Box::new(FenwickEngine::from_cube(a))),
];

/// Timed calls per pass of the query and update columns.
const CALLS: usize = 16;

struct Measured {
    query_reads: u64,
    update_writes: u64,
}

fn count(engine: &mut dyn RangeSumEngine<i64>, r: &Region) -> Measured {
    // Worst-case-style query: a large range not aligned to anything.
    engine.reset_stats();
    engine.query(r).unwrap();
    let query_reads = engine.stats().cell_reads;

    // Worst-case-style update: just past the origin.
    engine.reset_stats();
    engine.update(&[1, 1], 1).unwrap();
    let update_writes = engine.stats().cell_writes;
    Measured {
        query_reads,
        update_writes,
    }
}

fn main() {
    let ns = [64usize, 128, 256, 512, 1024];
    let mut series: Vec<Series> = METHODS
        .iter()
        .map(|&(name, _)| (name, vec![], vec![]))
        .collect();

    println!(
        "=== E9: measured worst-case costs (d = 2, k = √n for RPS); \
         times are the median (p10–p90) of {REPEATS} passes ===\n"
    );
    let mut table = Table::new(&[
        "n",
        "method",
        "query reads",
        "ns/query",
        "update writes",
        "ns/update",
        "q·u product",
        "build µs",
    ]);

    for &n in &ns {
        let cube = NdCube::from_fn(&[n, n], |c| ((c[0] ^ c[1]) % 7) as i64).unwrap();
        let k = (n as f64).sqrt() as usize;
        let r = Region::new(&[1, 1], &[n - 2, n - 2]).unwrap();
        for ((name, build), (_, qs, us)) in METHODS.iter().zip(series.iter_mut()) {
            let mut engine = build(&cube, k);
            let m = count(engine.as_mut(), &r);
            qs.push((n as f64, m.query_reads.max(1) as f64));
            us.push((n as f64, m.update_writes.max(1) as f64));
            let query = measure(REPEATS, CALLS, || engine.query(&r).unwrap());
            let update = measure(REPEATS, CALLS, || engine.update(&[1, 1], 1).unwrap());
            // The engine lands in the pass's state, so its drop stays
            // outside the timer.
            let (built, _) = measure_with(REPEATS, 1, 1, || None, |e| *e = Some(build(&cube, k)));
            table.row(&[
                n.to_string(),
                name.to_string(),
                m.query_reads.to_string(),
                query.ns.to_string(),
                m.update_writes.to_string(),
                update.ns.to_string(),
                (m.query_reads * m.update_writes).to_string(),
                built.ns.scale(1e-3).to_string(),
            ]);
        }
    }
    print!("{}", table.render());

    println!("\n=== fitted log–log scaling exponents (d = 2) ===\n");
    let mut fit_table = Table::new(&[
        "method",
        "query exponent",
        "update exponent",
        "paper (query, update)",
    ]);
    let expected = [
        ("naive", "n^2, 1"),
        ("prefix-sum", "1, n^2"),
        ("relative-prefix-sum", "1, n^1 = n^{d/2}"),
        ("fenwick", "log^2 n, log^2 n"),
    ];
    for ((name, qs, us), (_, paper)) in series.iter().zip(expected.iter()) {
        fit_table.row(&[
            name.to_string(),
            format!("{:.2}", loglog_slope(qs)),
            format!("{:.2}", loglog_slope(us)),
            paper.to_string(),
        ]);
    }
    print!("{}", fit_table.render());

    // Hard checks on the headline claims.
    let slope = |idx: usize, which: usize| {
        let s = &series[idx];
        loglog_slope(if which == 0 { &s.1 } else { &s.2 })
    };
    assert!(slope(0, 0) > 1.8, "naive query must scale ~n^2");
    assert!(slope(1, 0).abs() < 0.2, "prefix-sum query must be O(1)");
    assert!(slope(1, 1) > 1.8, "prefix-sum update must scale ~n^2");
    assert!(slope(2, 0).abs() < 0.2, "RPS query must be O(1)");
    assert!(
        (slope(2, 1) - 1.0).abs() < 0.3,
        "RPS update must scale ~n^{{d/2}} = n (got {})",
        slope(2, 1)
    );
    println!("\nall fitted exponents match the paper's complexity table ✓");

    mixed_workload();
}

/// The "analysts query while sales arrive" mix: 512 ops of uniform
/// updates and half-cube queries per pass, on an engine built fresh for
/// each pass outside the timer.
fn mixed_workload() {
    const OPS: usize = 512;
    const N: usize = 256;
    let dims = [N, N];
    let cube = CubeGen::new(21).uniform(&dims, 0, 9).expect("valid dims");
    let k = (N as f64).sqrt() as usize;
    println!(
        "\n=== mixed workload, {N}×{N} cube, {OPS} ops a pass: ns/op, \
         median (p10–p90) of {REPEATS} passes ===\n"
    );
    let mut table = Table::new(&["method", "10% queries", "50% queries", "90% queries"]);
    let ratios = [0.1f64, 0.5, 0.9];
    let streams: Vec<_> = ratios
        .iter()
        .map(|&query_ratio| {
            MixedWorkload::new(
                UpdateGen::uniform(&dims, 1, 50),
                QueryGen::new(&dims, 2, RegionSpec::Fraction(0.5)),
                query_ratio,
                3,
            )
            .take(OPS)
        })
        .collect();
    for (name, build) in METHODS {
        let mut row = vec![name.to_string()];
        for ops in &streams {
            let (m, _) = measure_with(
                REPEATS,
                1,
                OPS,
                || build(&cube, k),
                |e| replay(e.as_mut(), ops),
            );
            row.push(m.ns.to_string());
        }
        table.row(&row);
    }
    print!("{}", table.render());
}
