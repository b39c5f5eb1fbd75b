//! E11 — §4.4 "Practical Considerations": RP on disk, overlay in RAM.
//!
//! Measures block I/O per operation for the configuration the paper
//! recommends (overlay box sized so its RP region fills a whole number of
//! pages, box-aligned layout) against the flat row-major layout, across
//! box sizes. The paper's prediction: with box alignment, "both queries
//! and updates will then require only a constant number of disk reads or
//! writes."
//!
//! A last table times the same engine's queries and updates in
//! wall-clock ns by layout and buffer-pool size, through
//! [`rps_bench::measure`] (median and p10–p90 of its passes).

use ndcube::NdCube;
use rps_analysis::Table;
use rps_bench::measure::{measure, REPEATS};
use rps_core::BoxGrid;
use rps_core::RangeSumEngine;
use rps_storage::{DeviceConfig, DiskRpsEngine, IoStats, LatencyModel};
use rps_workload::{QueryGen, RegionSpec, UpdateGen};

const OPS: usize = 400;

fn build(
    cube: &NdCube<i64>,
    k: usize,
    cells_per_page: usize,
    box_aligned: bool,
    pool_frames: usize,
) -> DiskRpsEngine<i64> {
    let grid = BoxGrid::new(cube.shape().clone(), &vec![k; cube.ndim()]).unwrap();
    DiskRpsEngine::from_cube_with_grid(
        cube,
        grid,
        DeviceConfig { cells_per_page },
        pool_frames,
        box_aligned,
    )
    .expect("build disk engine")
}

fn run(
    cube: &NdCube<i64>,
    k: usize,
    cells_per_page: usize,
    box_aligned: bool,
    pool_frames: usize,
) -> (f64, f64, f64, usize, IoStats) {
    let mut engine = build(cube, k, cells_per_page, box_aligned, pool_frames);
    let dims: Vec<usize> = cube.shape().dims().to_vec();

    let mut qg = QueryGen::new(&dims, 11, RegionSpec::Fraction(0.4));
    engine.reset_io_stats();
    for r in qg.take(OPS) {
        engine.query(&r).unwrap();
    }
    let q_reads = engine.io_stats().page_reads as f64 / OPS as f64;

    let mut ug = UpdateGen::uniform(&dims, 13, 50);
    engine.reset_io_stats();
    for (c, delta) in ug.take(OPS) {
        engine.update(&c, delta).unwrap();
    }
    engine.flush().expect("flush");
    let io = engine.io_stats();
    (
        q_reads,
        io.page_reads as f64 / OPS as f64,
        io.page_writes as f64 / OPS as f64,
        engine.overlay_cells(),
        io,
    )
}

fn main() {
    const N: usize = 256;
    let cube = NdCube::from_fn(&[N, N], |c| ((c[0] * 31 + c[1]) % 13) as i64).unwrap();
    let cells_per_page = 256; // "disk page" of 256 cells (2 KiB of i64)
    let pool_frames = 32;

    println!(
        "=== E11 / §4.4: page I/O per op, {N}×{N} cube, page = {cells_per_page} cells, \
         pool = {pool_frames} frames, {OPS} ops each ===\n"
    );

    let hdd = LatencyModel::hdd_1999();
    let nvme = LatencyModel::nvme();
    let mut table = Table::new(&[
        "k",
        "layout",
        "q reads/op",
        "u reads/op",
        "u writes/op",
        "update ms/op (HDD'99)",
        "µs/op (NVMe)",
        "overlay cells (RAM)",
    ]);
    for &k in &[8usize, 16, 32] {
        for &aligned in &[true, false] {
            let (q, ur, uw, overlay, io) = run(&cube, k, cells_per_page, aligned, pool_frames);
            table.row(&[
                k.to_string(),
                if aligned { "box-aligned" } else { "row-major" }.to_string(),
                format!("{q:.2}"),
                format!("{ur:.2}"),
                format!("{uw:.2}"),
                format!("{:.1}", hdd.per_op(&io, OPS as u64).as_secs_f64() * 1e3),
                format!("{:.0}", nvme.per_op(&io, OPS as u64).as_secs_f64() * 1e6),
                overlay.to_string(),
            ]);
        }
    }
    print!("{}", table.render());

    // The paper's headline §4.4 claim, as a hard check at the page-sized
    // box (k = 16 ⇒ box region = 256 cells = exactly one page).
    let (_q, ur, uw, _, _) = run(&cube, 16, cells_per_page, true, pool_frames);
    assert!(
        ur <= 1.05,
        "box-aligned update reads/op should be ≤ ~1, got {ur}"
    );
    assert!(
        uw <= 1.05,
        "box-aligned update writes/op should be ≤ ~1, got {uw}"
    );
    let (_q2, ur2, _uw2, _, _) = run(&cube, 16, cells_per_page, false, pool_frames);
    assert!(
        ur2 > 2.0 * ur,
        "row-major should cost several× more update reads"
    );

    println!(
        "\n§4.4 confirmed: sizing the box so its RP region fits exactly one page\n\
         gives ~1 page read + ~1 page write per update; the row-major layout\n\
         spreads the same cascade across ~k pages. Query I/O is ≤ 2^d pages\n\
         either way (one RP cell per corner)."
    );

    wall_clock(&cube, cells_per_page);
}

/// Query and update ns/op at the page-sized box (k = 16), by layout and
/// pool size: 4 frames (cold), 32 (the table's) and 256 (every page of
/// the cube).
fn wall_clock(cube: &NdCube<i64>, cells_per_page: usize) {
    const CALLS: usize = 32;
    let dims = cube.shape().dims();
    let regions = QueryGen::new(dims, 5, RegionSpec::Fraction(0.4)).take(CALLS);
    let updates = UpdateGen::uniform(dims, 6, 20).take(CALLS);
    println!(
        "\n=== wall-clock, k = 16: ns/op, median (p10–p90) of {REPEATS} passes of {CALLS} ops ===\n"
    );
    let mut table = Table::new(&["layout", "pool frames", "ns/query", "ns/update"]);
    for aligned in [true, false] {
        for frames in [4usize, 32, 256] {
            let mut engine = build(cube, 16, cells_per_page, aligned, frames);
            let mut qi = regions.iter().cycle();
            let query = measure(REPEATS, CALLS, || {
                engine.query(qi.next().expect("cycle")).unwrap()
            });
            let mut ui = updates.iter().cycle();
            let update = measure(REPEATS, CALLS, || {
                let (c, d) = ui.next().expect("cycle");
                engine.update(c, *d).unwrap();
            });
            table.row(&[
                if aligned { "box-aligned" } else { "row-major" }.to_string(),
                frames.to_string(),
                query.ns.to_string(),
                update.ns.to_string(),
            ]);
        }
    }
    print!("{}", table.render());
}
