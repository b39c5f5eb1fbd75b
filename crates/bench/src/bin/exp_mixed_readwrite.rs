//! Mixed read/write throughput: the versioned-snapshot engine's read
//! path (`rps_core::VersionedEngine`, one `Arc` clone per batch)
//! against the `RwLock`-based `SharedEngine`, measured as aggregate
//! reader throughput while a writer publishes point updates paced at
//! 0%, 1% and 10% of reader ops. Emitted as the `exp_mixed_readwrite`
//! section of `BENCH_THROUGHPUT.json` (see `rps_bench::throughput`).
//!
//! ```text
//! cargo run --release -p rps-bench --bin exp_mixed_readwrite            # full
//! cargo run --release -p rps-bench --bin exp_mixed_readwrite -- --smoke # CI
//! cargo run --release -p rps-bench --bin exp_mixed_readwrite -- --out t.json
//! ```
//!
//! Pacing: readers bump a shared op counter after every batch; the
//! writer applies updates only while `updates < reader_ops × rate /
//! 100`, so the write load tracks the measured read load instead of
//! free-running. After every run the engine's total is checked against
//! the initial cube total plus the updates applied (all deltas are +1)
//! — a throughput number for wrong answers would be worse than none.
//!
//! Every row goes through [`rps_bench::measure`]: a paced run is one
//! pass, repeated, and each reader row is the median of its passes'
//! ns per reader op. The `*_updates_w{rate}` rows time each writer call
//! (apply plus publish or unlock) inside the pass and report the median
//! of the passes' mean ns per update applied; a run that applies no
//! updates (w0) emits no writer row.
//!
//! `allocs_per_op` counts the measuring thread only: it is reported for
//! the serial baseline and the writer rows, and is `null` on the reader
//! rows, whose work runs on the reader threads.

use std::sync::atomic::{AtomicU64, Ordering};

use ndcube::{NdCube, Region};
use rps_bench::alloc_counter::CountingAllocator;
use rps_bench::measure::{measure_with, Args, Laps, Measurement, Scenario};
use rps_bench::throughput::{section_json, write_section};
use rps_core::{RangeSumEngine, RpsEngine, SharedEngine, VersionedEngine};
use rps_workload::{CubeGen, QueryGen, RegionSpec};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Writer update rates, in percent of reader ops.
const RATES: &[u64] = &[0, 1, 10];

struct Config {
    dims: Vec<usize>,
    batch_len: usize,
    /// Batches each reader reads in all, split across the passes.
    batches_per_reader: usize,
    readers: usize,
}

/// A deterministic stream of in-bounds update coordinates.
fn update_coords(dims: &[usize], i: u64) -> Vec<usize> {
    dims.iter()
        .enumerate()
        .map(|(d, &n)| {
            let mixed = i
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(d as u64 * 0x85EB_CA6B);
            (mixed % n as u64) as usize
        })
        .collect()
}

/// One paced run per pass: `read_batch` drives the engine-specific
/// read loop on each reader thread, `apply_update` the engine-specific
/// write on this one. Returns the reader row, the writer row (one op per
/// update applied; `None` when no pass applied one), and the updates
/// applied over every pass, the warm-up included.
fn run_paced(
    cfg: &Config,
    repeats: usize,
    rate: u64,
    read_batch: impl Fn(&[Region]) + Sync,
    apply_update: impl Fn(&[usize]),
) -> (Measurement, Option<Measurement>, u64) {
    let batches = cfg.batches_per_reader.div_ceil(repeats);
    let pass_ops = (cfg.readers * batches * cfg.batch_len) as u64;
    let reader_regions: Vec<Vec<Region>> = (0..cfg.readers)
        .map(|r| {
            QueryGen::new(&cfg.dims, 11 + r as u64, RegionSpec::Fraction(0.5)).take(cfg.batch_len)
        })
        .collect();
    let mut writer_laps = Vec::new();
    let (readers, ()) = measure_with(
        repeats,
        1,
        pass_ops as usize,
        || (),
        |()| {
            let reader_ops = AtomicU64::new(0);
            let mut writer = Laps::default();
            std::thread::scope(|scope| {
                for regions in &reader_regions {
                    let (reader_ops, read_batch) = (&reader_ops, &read_batch);
                    scope.spawn(move || {
                        for _ in 0..batches {
                            read_batch(regions);
                            reader_ops.fetch_add(regions.len() as u64, Ordering::Relaxed);
                        }
                    });
                }
                // The writer is paced on this thread: apply updates while
                // below target, yield while ahead. Once the readers
                // finish, the target freezes at `pass_ops × rate / 100`
                // and the writer catches up to it before exiting, so
                // every pass applies a deterministic update count even if
                // the reader threads outpaced this one (e.g. on a
                // single-CPU host).
                loop {
                    let ops = reader_ops.load(Ordering::Relaxed).min(pass_ops);
                    let applied = writer.count() as u64;
                    if applied < ops * rate / 100 {
                        let coords = update_coords(&cfg.dims, applied);
                        writer.time(|| apply_update(&coords));
                    } else if ops >= pass_ops {
                        break;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
            writer_laps.push(writer);
        },
    );
    let applied = writer_laps.iter().map(|l| l.count() as u64).sum();
    // The first pass is the measurement core's untimed warm-up.
    let writer = Measurement::from_laps(&writer_laps[1..]);
    (readers.without_allocs(), writer, applied)
}

fn run_scenario(name: &str, cfg: &Config, repeats: usize) -> Scenario {
    let mut gen = CubeGen::new(0xC0FFEE);
    let cube: NdCube<i64> = gen.uniform(&cfg.dims, 0, 100).expect("valid dims");
    let serial = RpsEngine::from_cube(&cube);
    let initial_total = serial.total();

    // Serial baseline on this thread — this is the row the zero-alloc
    // contract is asserted against (S1: query_many ≈ 0 allocs/op after
    // warm-up).
    let regions: Vec<Region> =
        QueryGen::new(&cfg.dims, 7, RegionSpec::Fraction(0.5)).take(cfg.batch_len);
    let (m, ()) = measure_with(
        repeats,
        cfg.batches_per_reader.max(2).div_ceil(repeats),
        cfg.batch_len,
        || (),
        |()| serial.query_many(&regions).expect("in bounds"),
    );
    let mut rows = vec![("query_many_serial_baseline".to_string(), m)];

    let mut push_paced = |engine: &str, rate: u64, (readers, writer, _)| {
        rows.push((format!("{engine}_readers_w{rate}"), readers));
        if let Some(writer) = writer {
            rows.push((format!("{engine}_updates_w{rate}"), writer));
        }
    };

    for &rate in RATES {
        // Versioned engine: readers take a snapshot per batch, the
        // writer publishes a version per update.
        let v = VersionedEngine::new(RpsEngine::from_cube(&cube));
        let paced = run_paced(
            cfg,
            repeats,
            rate,
            |regions| {
                let snap = v.snapshot();
                let out = snap.query_many(regions).expect("in bounds");
                assert!(out.len() == regions.len());
            },
            |c| v.update(c, 1).expect("in bounds"),
        );
        assert_eq!(
            v.total(),
            initial_total + i64::try_from(paced.2).expect("fits"),
            "versioned total diverged after paced runs"
        );
        push_paced("versioned", rate, paced);

        // RwLock baseline: readers serialize against the writer.
        let shared = SharedEngine::new(RpsEngine::from_cube(&cube));
        let paced = run_paced(
            cfg,
            repeats,
            rate,
            |regions| {
                let out = shared.query_many(regions).expect("in bounds");
                assert!(out.len() == regions.len());
            },
            |c| shared.update(c, 1).expect("in bounds"),
        );
        assert_eq!(
            shared.total(),
            initial_total + i64::try_from(paced.2).expect("fits"),
            "shared total diverged after paced runs"
        );
        push_paced("shared", rate, paced);
    }

    Scenario {
        name: name.to_string(),
        dims: cfg.dims.clone(),
        box_size: serial.grid().box_size().to_vec(),
        rows,
    }
}

fn main() {
    let args = Args::parse("BENCH_THROUGHPUT.json");
    let repeats = args.repeats();

    let scenarios = if args.smoke {
        vec![run_scenario(
            "d2_n64",
            &Config {
                dims: vec![64, 64],
                batch_len: 64,
                batches_per_reader: 4,
                readers: 2,
            },
            repeats,
        )]
    } else {
        vec![
            run_scenario(
                "d2_n256",
                &Config {
                    dims: vec![256, 256],
                    batch_len: 1024,
                    batches_per_reader: 16,
                    readers: 4,
                },
                repeats,
            ),
            run_scenario(
                "d3_n32",
                &Config {
                    dims: vec![32, 32, 32],
                    batch_len: 1024,
                    batches_per_reader: 16,
                    readers: 4,
                },
                repeats,
            ),
        ]
    };

    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let section = section_json(args.mode(), host_cpus, &scenarios);

    println!(
        "=== mixed read/write throughput ({host_cpus} host cpus), {repeats} passes a row ===\n"
    );
    for s in &scenarios {
        s.print();
    }

    write_section(&args.out, "exp_mixed_readwrite", &section);
    println!("\nwrote {} (section exp_mixed_readwrite)", args.out);
}
