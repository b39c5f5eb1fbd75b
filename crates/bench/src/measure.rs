//! The measurement core: every wall-clock number the `exp_*` binaries
//! commit to `BENCH_HOTPATH.json`, `BENCH_OBS.json` and
//! `BENCH_THROUGHPUT.json`, or print in a table, is timed here.
//!
//! A row runs one untimed warm-up pass, then a fixed number of timed
//! passes ([`REPEATS`], or [`SMOKE_REPEATS`] under `--smoke`). Each pass
//! calls the body a fixed number of times; its wall time over the ops it
//! performed is one ns/op sample. The row reports the median sample
//! with the nearest-rank p10 and p90 ([`Spread`]), and the calling
//! thread's heap allocations summed over every timed pass. An optional
//! per-pass setup ([`measure_with`]) builds fresh state outside the
//! timer and the allocation count, so a pass can consume what it is
//! given (a rebuild on a fresh engine clone). Pibiri & Venturini
//! (PAPERS.md) is the model: many repeats, constants reported as
//! distributions.
//!
//! Allocations are counted by [`crate::alloc_counter`] on the calling
//! thread only. A row whose work runs on other threads (reader threads,
//! loopback clients and server workers) reports `null` through
//! [`Measurement::without_allocs`].

use std::hint::black_box;
use std::time::Instant;

use crate::alloc_counter::thread_allocs;

/// Timed passes per row in a full run: p10 and p90 are then the second
/// fastest and second slowest pass.
pub const REPEATS: usize = 11;

/// Timed passes per row in a `--smoke` run: p10, median and p90 are the
/// fastest, middle and slowest pass.
pub const SMOKE_REPEATS: usize = 3;

/// Median and nearest-rank 10th and 90th percentiles of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// The 50th percentile (for an even count, the lower middle value).
    pub median: f64,
    /// The 10th percentile.
    pub p10: f64,
    /// The 90th percentile.
    pub p90: f64,
}

impl Spread {
    /// Summarises a non-empty sample. The `p`-th percentile is the value
    /// of rank `⌈p·n/100⌉` in ascending order.
    pub fn of(mut xs: Vec<f64>) -> Spread {
        assert!(!xs.is_empty(), "a spread needs at least one sample");
        xs.sort_by(f64::total_cmp);
        let rank = |pct: usize| xs[(pct * xs.len()).div_ceil(100).max(1) - 1];
        Spread {
            median: rank(50),
            p10: rank(10),
            p90: rank(90),
        }
    }

    /// Every percentile multiplied by `factor` (a unit change).
    #[must_use]
    pub fn scale(self, factor: f64) -> Spread {
        Spread {
            median: self.median * factor,
            p10: self.p10 * factor,
            p90: self.p90 * factor,
        }
    }
}

/// `median (p10–p90)`, for a table cell.
impl std::fmt::Display for Spread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1} ({:.1}–{:.1})", self.median, self.p10, self.p90)
    }
}

/// One timed row.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Operations timed, summed over the timed passes.
    pub ops: usize,
    /// Timed passes.
    pub repeats: usize,
    /// Wall-clock ns/op over the passes.
    pub ns: Spread,
    /// Heap allocations per op on the measuring thread over every timed
    /// pass; `None` when the row's work runs on threads the counter
    /// cannot see.
    pub allocs_per_op: Option<f64>,
}

impl Measurement {
    /// The median ns/op.
    pub fn ns_per_op(&self) -> f64 {
        self.ns.median
    }

    /// The row with its allocation count withdrawn, for work that runs
    /// on other threads.
    #[must_use]
    pub fn without_allocs(self) -> Measurement {
        Measurement {
            allocs_per_op: None,
            ..self
        }
    }

    /// A row from the [`Laps`] of each timed pass, or `None` when no pass
    /// timed a lap.
    pub fn from_laps(passes: &[Laps]) -> Option<Measurement> {
        let timed: Vec<&Laps> = passes.iter().filter(|l| l.count > 0).collect();
        let ops: usize = timed.iter().map(|l| l.count).sum();
        if ops == 0 {
            return None;
        }
        let allocs: u64 = timed.iter().map(|l| l.allocs).sum();
        Some(Measurement {
            ops,
            repeats: timed.len(),
            ns: Spread::of(timed.iter().map(|l| l.ns as f64 / l.count as f64).collect()),
            allocs_per_op: Some(allocs as f64 / ops as f64),
        })
    }

    /// The row as one JSON object.
    pub fn json(&self, name: &str) -> String {
        self.json_with(name, "")
    }

    /// The row as one JSON object with `extra` (comma-separated
    /// `"key":value` pairs, or empty) appended.
    pub fn json_with(&self, name: &str, extra: &str) -> String {
        let allocs = self
            .allocs_per_op
            .map_or_else(|| "null".to_string(), |a| format!("{a:.4}"));
        let sep = if extra.is_empty() { "" } else { "," };
        format!(
            "{{\"name\":\"{name}\",\"ops\":{},\"repeats\":{},\"ns_per_op\":{:.1},\"p10_ns_per_op\":{:.1},\"p90_ns_per_op\":{:.1},\"allocs_per_op\":{allocs},\"ops_per_sec\":{:.0}{sep}{extra}}}",
            self.ops,
            self.repeats,
            self.ns.median,
            self.ns.p10,
            self.ns.p90,
            1e9 / self.ns.median.max(1e-9),
        )
    }

    /// The row as one line of a report.
    pub fn line(&self, name: &str) -> String {
        let allocs = self
            .allocs_per_op
            .map_or_else(|| "     —".to_string(), |a| format!("{a:>8.4}"));
        format!(
            "{name:<28} {:>12.1} ns/op  (p10 {:.1}, p90 {:.1})  {allocs} allocs/op  {} ops",
            self.ns.median, self.ns.p10, self.ns.p90, self.ops
        )
    }
}

/// Times `body` as a row of one op per call: `calls` calls per pass, one
/// untimed warm-up pass, then `repeats` timed passes.
pub fn measure<R>(repeats: usize, calls: usize, mut body: impl FnMut() -> R) -> Measurement {
    measure_with(repeats, calls, 1, || (), |()| body()).0
}

/// The general form: before each pass (the warm-up included), `setup`
/// builds fresh state outside the timer and the allocation count; the
/// pass then makes `calls` calls of `body` on it, each performing
/// `ops_per_call` of the row's operations. Returns the row and the last
/// pass's state.
pub fn measure_with<S, R>(
    repeats: usize,
    calls: usize,
    ops_per_call: usize,
    mut setup: impl FnMut() -> S,
    mut body: impl FnMut(&mut S) -> R,
) -> (Measurement, S) {
    assert!(repeats > 0 && calls > 0 && ops_per_call > 0, "an empty row");
    let ops_per_pass = calls * ops_per_call;
    let mut pass = |state: &mut S| {
        let allocs = thread_allocs();
        let start = Instant::now();
        for _ in 0..calls {
            black_box(body(state));
        }
        let ns = start.elapsed().as_nanos() as f64;
        (ns / ops_per_pass as f64, thread_allocs() - allocs)
    };
    let mut state = setup();
    pass(&mut state);
    let mut samples = Vec::with_capacity(repeats);
    let mut allocs = 0;
    for _ in 0..repeats {
        state = setup();
        let (ns_per_op, a) = pass(&mut state);
        samples.push(ns_per_op);
        allocs += a;
    }
    let ops = repeats * ops_per_pass;
    let m = Measurement {
        ops,
        repeats,
        ns: Spread::of(samples),
        allocs_per_op: Some(allocs as f64 / ops as f64),
    };
    (m, state)
}

/// The wall time and calling-thread allocations of the sections one
/// pass times itself: the writer calls of a paced run, which interleave
/// with waits on reader threads inside the pass. One `Laps` per pass
/// makes a row through [`Measurement::from_laps`].
#[derive(Clone, Debug, Default)]
pub struct Laps {
    ns: u128,
    allocs: u64,
    count: usize,
}

impl Laps {
    /// Runs and times one section.
    pub fn time<R>(&mut self, body: impl FnOnce() -> R) -> R {
        let allocs = thread_allocs();
        let start = Instant::now();
        let out = body();
        self.ns += start.elapsed().as_nanos();
        self.allocs += thread_allocs() - allocs;
        self.count += 1;
        out
    }

    /// Sections timed so far.
    pub fn count(&self) -> usize {
        self.count
    }
}

/// The `--smoke` and `--out <path>` flags every JSON-writing `exp_*`
/// binary takes, and nothing else.
pub struct Args {
    /// Tiny shapes and [`SMOKE_REPEATS`] passes, for CI.
    pub smoke: bool,
    /// Where the JSON goes.
    pub out: String,
}

impl Args {
    /// Parses the process arguments; `--out` defaults to `file` at the
    /// workspace root, the committed baseline.
    pub fn parse(file: &str) -> Args {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let out = args
            .iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR")));
        Args {
            smoke: args.iter().any(|a| a == "--smoke"),
            out,
        }
    }

    /// Timed passes per row in this mode.
    pub fn repeats(&self) -> usize {
        if self.smoke {
            SMOKE_REPEATS
        } else {
            REPEATS
        }
    }

    /// `"smoke"` or `"full"`, as the files record it.
    pub fn mode(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }
}

/// `[a,b,c]` for a JSON array of sizes.
pub fn json_list(v: &[usize]) -> String {
    let items: Vec<String> = v.iter().map(ToString::to_string).collect();
    format!("[{}]", items.join(","))
}

/// One scenario (shape and box size) with its named rows: the layout
/// `BENCH_HOTPATH.json` and both `BENCH_THROUGHPUT.json` sections share.
pub struct Scenario {
    /// Scenario label, e.g. `d2_n512`.
    pub name: String,
    /// Cube dimensions.
    pub dims: Vec<usize>,
    /// Box size the engine chose or was given (empty when none applies).
    pub box_size: Vec<usize>,
    /// Row name and measurement, in emission order.
    pub rows: Vec<(String, Measurement)>,
}

impl Scenario {
    /// The scenario as one JSON object.
    pub fn json(&self) -> String {
        let rows: Vec<String> = self.rows.iter().map(|(n, m)| m.json(n)).collect();
        format!(
            "    {{\"scenario\":\"{}\",\"dims\":{},\"box_size\":{},\"measurements\":[\n      {}\n    ]}}",
            self.name,
            json_list(&self.dims),
            json_list(&self.box_size),
            rows.join(",\n      ")
        )
    }

    /// Prints the scenario's rows.
    pub fn print(&self) {
        println!(
            "scenario {} dims {:?} k {:?}",
            self.name, self.dims, self.box_size
        );
        for (n, m) in &self.rows {
            println!("  {}", m.line(n));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spread_of_an_odd_sample() {
        // Ranks ⌈0.1·11⌉ = 2, ⌈0.5·11⌉ = 6, ⌈0.9·11⌉ = 10.
        let s = Spread::of((1..=11).rev().map(f64::from).collect());
        assert_eq!((s.p10, s.median, s.p90), (2.0, 6.0, 10.0));
    }

    #[test]
    fn spread_of_an_even_sample() {
        // Ranks ⌈0.1·10⌉ = 1, ⌈0.5·10⌉ = 5, ⌈0.9·10⌉ = 9.
        let s = Spread::of(vec![10.0, 3.0, 7.0, 1.0, 9.0, 2.0, 8.0, 4.0, 6.0, 5.0]);
        assert_eq!((s.p10, s.median, s.p90), (1.0, 5.0, 9.0));
        let s = Spread::of(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.p10, s.median, s.p90), (1.0, 2.0, 4.0));
    }

    #[test]
    fn spread_of_one_sample() {
        let s = Spread::of(vec![42.5]);
        assert_eq!((s.p10, s.median, s.p90), (42.5, 42.5, 42.5));
    }

    #[test]
    fn warm_up_pass_is_neither_timed_nor_counted() {
        // Only the first call, which the warm-up pass makes, sleeps and
        // allocates.
        let mut calls = 0usize;
        let m = measure(3, 2, || {
            calls += 1;
            if calls == 1 {
                std::thread::sleep(Duration::from_millis(200));
                return black_box(vec![0u8; 64]).len();
            }
            0
        });
        assert_eq!(calls, 8, "one warm-up pass plus three timed passes");
        assert_eq!((m.ops, m.repeats), (6, 3));
        assert_eq!(m.allocs_per_op, Some(0.0));
        assert!(m.ns.p90 < 100e6, "the warm-up sleep was timed: {m:?}");
    }

    #[test]
    fn allocations_are_summed_over_every_timed_pass() {
        // Each pass allocates once per call in its own pass number's
        // count of calls: one in the first timed pass, two in the second,
        // and so on.
        let mut pass = 0usize;
        let (m, _) = measure_with(
            4,
            5,
            1,
            || {
                pass += 1;
                (pass - 1, 0usize)
            },
            |(n, done)| {
                let keep = (*done < *n).then(|| black_box(Box::new(*done)));
                *done += 1;
                keep.is_some()
            },
        );
        // The warm-up is pass 0 and allocates nothing; timed passes 1..=4
        // allocate 1 + 2 + 3 + 4 = 10 times over 20 ops.
        assert_eq!(m.ops, 20);
        assert_eq!(m.allocs_per_op, Some(0.5));
    }

    #[test]
    fn per_pass_setup_is_untimed_and_uncounted() {
        let mut setups = 0usize;
        let (m, last) = measure_with(
            3,
            1,
            10,
            || {
                setups += 1;
                std::thread::sleep(Duration::from_millis(50));
                vec![setups; 1024]
            },
            |v| v[0],
        );
        assert_eq!(setups, 4, "one setup per pass, the warm-up included");
        assert_eq!(last[0], 4, "the last pass's state is returned");
        assert_eq!(m.allocs_per_op, Some(0.0));
        // 50 ms of setup per pass would read as 5 ms per op.
        assert!(m.ns.p90 < 2.5e6, "the setup sleep was timed: {m:?}");
    }

    #[test]
    fn rows_serialise_with_their_spread() {
        let m = Measurement {
            ops: 30,
            repeats: 3,
            ns: Spread::of(vec![200.0, 100.0, 300.0]),
            allocs_per_op: Some(0.0),
        };
        assert_eq!(
            m.json("q"),
            "{\"name\":\"q\",\"ops\":30,\"repeats\":3,\"ns_per_op\":200.0,\"p10_ns_per_op\":100.0,\
             \"p90_ns_per_op\":300.0,\"allocs_per_op\":0.0000,\"ops_per_sec\":5000000}"
        );
        assert!(m
            .without_allocs()
            .json_with("q", "\"bytes\":28")
            .ends_with("\"allocs_per_op\":null,\"ops_per_sec\":5000000,\"bytes\":28}"));
    }

    #[test]
    fn laps_make_a_row_from_the_passes_that_timed_any() {
        let mut passes = vec![Laps::default(); 3];
        for (i, laps) in passes.iter_mut().enumerate().skip(1) {
            for _ in 0..i {
                laps.time(|| black_box(i));
            }
        }
        let m = Measurement::from_laps(&passes).expect("two passes timed laps");
        assert_eq!((m.ops, m.repeats), (3, 2));
        assert!(Measurement::from_laps(&passes[..1]).is_none());
    }
}
