//! Ablation — batch-refresh strategies (DESIGN.md: batch threshold).
//!
//! The paper motivates RPS with daily/weekly warehouse refreshes, i.e.
//! *batched* updates. This experiment measures three strategies for a
//! batch of m updates on an n×n cube:
//!
//! 1. **incremental** — m × the §4.3 per-update algorithm;
//! 2. **rebuild** — recover A (inverse RP sweep), apply the batch,
//!    rebuild RP + overlay in O(d·N);
//! 3. **buffered** — absorb into a sparse delta buffer (O(1)/update),
//!    paying O(buffer) extra reads per query until merged.
//!
//! and shows the crossover `apply_batch` exploits, plus the query-time
//! price the buffered strategy pays.
//!
//! A WAL-tail table replays a log the way a restart does, at the
//! `durable_ingest` geometry: one `update` per record against one
//! `update_batch`, which reaches the same crossover through the trait.
//!
//! A last table times a served tenant's write path at the `dashboard`
//! geometry: small batches applied one update at a time on the serial
//! engine and as one published version each on `VersionedEngine`, with
//! the bytes each publish copies on write.
//!
//! Both timed tables go through [`rps_bench::measure`]: each pass runs on
//! a fresh copy of the engine, built outside the timer, and a row
//! reports the median with p10 and p90.

use ndcube::{NdCube, Region};
use rps_analysis::Table;
use rps_bench::measure::{measure_with, Measurement, REPEATS};
use rps_core::{BufferedEngine, RangeSumEngine, RpsEngine, VersionedEngine};
use rps_workload::{CubeGen, QueryGen, RegionSpec, UpdateGen};

fn main() {
    const N: usize = 256;
    let dims = [N, N];
    let cube: NdCube<i64> = CubeGen::new(4).uniform(&dims, 0, 9).expect("valid dims");
    let k = 16; // √n

    println!("=== batch refresh strategies, {N}×{N} cube, k = {k} ===\n");
    let mut table = Table::new(&[
        "batch m",
        "incremental writes",
        "rebuild writes",
        "apply_batch chose",
        "buffered writes",
    ]);

    // Rebuild cost in cell writes ≈ recovering A + RP sweep + overlay:
    // measured by instrumenting a forced rebuild below.
    for &m in &[1usize, 10, 100, 1_000, 10_000, 65_536] {
        let batch = UpdateGen::uniform(&dims, 5, 20).take(m);

        // Incremental.
        let mut inc = RpsEngine::from_cube_uniform(&cube, k).unwrap();
        inc.reset_stats();
        for (c, d) in &batch {
            inc.update(c, *d).unwrap();
        }
        let inc_writes = inc.stats().cell_writes;

        // Rebuild: A recovery + batch application + full reconstruction.
        // Count as cells touched: N (inverse sweep reads/writes) ≈ d·N
        // writes for RP + overlay build + m cell bumps.
        let rebuild_writes = (2 * 2 * N * N + m) as u64; // 2 sweeps × d dims, conservative

        // What does apply_batch pick?
        let mut auto = RpsEngine::from_cube_uniform(&cube, k).unwrap();
        let rebuilt = auto.apply_batch(&batch).unwrap();

        // Buffered.
        let mut buf = BufferedEngine::new(
            RpsEngine::from_cube_uniform(&cube, k).unwrap(),
            usize::MAX >> 1, // never auto-merge; measure pure buffering
        );
        buf.reset_stats();
        for (c, d) in &batch {
            buf.update(c, *d).unwrap();
        }
        let buf_writes = buf.stats().cell_writes;

        // All strategies must agree.
        let probe = Region::new(&[3, 3], &[200, 250]).unwrap();
        assert_eq!(inc.query(&probe).unwrap(), auto.query(&probe).unwrap());
        assert_eq!(inc.query(&probe).unwrap(), buf.query(&probe).unwrap());

        table.row(&[
            m.to_string(),
            inc_writes.to_string(),
            rebuild_writes.to_string(),
            if rebuilt { "rebuild" } else { "incremental" }.to_string(),
            buf_writes.to_string(),
        ]);
    }
    print!("{}", table.render());

    println!("\n=== the buffered strategy's query-time price ===\n");
    let mut qtable = Table::new(&[
        "buffered cells",
        "reads/query (rps)",
        "reads/query (buffered)",
    ]);
    for &pending in &[0usize, 100, 1_000, 10_000] {
        let plain = RpsEngine::from_cube_uniform(&cube, k).unwrap();
        let mut buf = BufferedEngine::new(
            RpsEngine::from_cube_uniform(&cube, k).unwrap(),
            usize::MAX >> 1,
        );
        for (c, d) in UpdateGen::uniform(&dims, 6, 20).take(pending) {
            buf.update(&c, d).unwrap();
        }
        let mut qg = QueryGen::new(&dims, 8, RegionSpec::Fraction(0.5));
        plain.reset_stats();
        buf.reset_stats();
        for r in qg.take(200) {
            plain.query(&r).unwrap();
            buf.query(&r).unwrap();
        }
        qtable.row(&[
            buf.pending().to_string(),
            format!("{:.1}", plain.stats().reads_per_query().unwrap()),
            format!("{:.1}", buf.stats().reads_per_query().unwrap()),
        ]);
    }
    print!("{}", qtable.render());

    wal_tail_replay(&cube, k);
    versioned_publish();

    println!(
        "\nconclusion: incremental wins for small batches, rebuild for\n\
         cube-sized ones (apply_batch's threshold follows the cost model);\n\
         buffering makes updates O(1) but queries pay O(pending) — fine\n\
         between merges, unacceptable unmerged. A restart's WAL tail is\n\
         such a batch: update_batch takes the rebuild leg. A versioned\n\
         publish copies the RP boxes and overlay box rows it writes."
    );
}

/// The restart of a durable tenant: the WAL records past the snapshot's
/// LSN, uniform cells, deltas in −50..=50, replayed one `update` per
/// record and as one `update_batch`.
fn wal_tail_replay(cube: &NdCube<i64>, k: usize) {
    const TAIL: usize = 100_000;
    let dims = cube.shape().dims();
    let side: Vec<String> = dims.iter().map(ToString::to_string).collect();
    println!(
        "\n=== WAL tail replay, {} cube, k = {k}, {TAIL} points, {REPEATS} timed passes each ===\n",
        side.join("×")
    );
    let tail: Vec<(Vec<usize>, i64)> = UpdateGen::uniform(dims, 7, 101)
        .take(TAIL)
        .into_iter()
        // 1..=101 shifted to −50..=50.
        .map(|(c, d)| (c, d - 51))
        .collect();
    let base = RpsEngine::from_cube_uniform(cube, k).unwrap();
    let (loop_m, loop_writes, loop_cube) = time_replay(&base, |e| {
        for (c, d) in &tail {
            e.update(c, *d).unwrap();
        }
    });
    let (batch_m, batch_writes, batch_cube) =
        time_replay(&base, |e| e.update_batch(&tail).unwrap());
    assert_eq!(loop_cube, batch_cube, "both replays must leave one cube");
    assert!(
        batch_writes < loop_writes,
        "update_batch wrote {batch_writes} cells, the per-record loop {loop_writes}"
    );
    let mut rtable = Table::new(&["replay", "median ns", "p10–p90 ns", "cells written"]);
    for (name, m, writes) in [
        ("one update per record", &loop_m, loop_writes),
        ("one update_batch", &batch_m, batch_writes),
    ] {
        rtable.row(&spread_row(name, m, writes.to_string()));
    }
    print!("{}", rtable.render());
}

/// A table row: the name, the median, p10–p90, and a last column.
fn spread_row(name: &str, m: &Measurement, last: String) -> [String; 4] {
    [
        name.to_string(),
        format!("{:.0}", m.ns.median),
        format!("{:.0}–{:.0}", m.ns.p10, m.ns.p90),
        last,
    ]
}

/// Times one replay per pass, each onto a fresh copy of `base`. Returns
/// the row, the cells one replay wrote, and the cube it left.
fn time_replay(
    base: &RpsEngine<i64>,
    replay: impl Fn(&mut RpsEngine<i64>),
) -> (Measurement, u64, NdCube<i64>) {
    let fresh = || {
        let e = base.clone();
        e.reset_stats();
        e
    };
    let (m, e) = measure_with(REPEATS, 1, 1, fresh, replay);
    (m, e.stats().cell_writes, e.to_cube())
}

/// A served `dashboard` tenant's writes: batches of 4 points, deltas
/// 1..=9, on a zero 1024² cube with k = 32. The serial engine applies
/// each batch one `update` at a time; the versioned engine publishes
/// each as one version through `apply_batch`, copying on write the RP
/// box granules and overlay box-row granules it touches. Also times
/// `VersionedEngine::new` on the zero engine.
fn versioned_publish() {
    const SIDE: usize = 1024;
    const K: usize = 32;
    const BATCH: usize = 4;
    // Batches a pass: the passes time about 14,000 in all.
    const BATCHES: usize = 1_280;
    let dims = [SIDE, SIDE];
    println!(
        "\n=== versioned publish, {SIDE}×{SIDE} zero cube, k = {K}, \
         {BATCHES} batches of {BATCH} points a pass, {REPEATS} timed passes each ===\n"
    );
    let updates = UpdateGen::uniform(&dims, 11, 9).take(BATCHES * BATCH);
    let total: i64 = updates.iter().map(|(_, d)| d).sum();
    let zero = || RpsEngine::<i64>::zeros_uniform(&dims, K).unwrap();
    let base = zero();
    let full = Region::new(&[0, 0], &[SIDE - 1, SIDE - 1]).unwrap();
    let cell = std::mem::size_of::<i64>();
    let overlay_bytes = (base.storage_cells() - SIDE * SIDE) * cell;
    let bound = u64::try_from(BATCH * K * K * cell + overlay_bytes).unwrap();

    // One op is one batch; each pass applies all of them to a fresh copy.
    let (serial, _) = measure_with(
        REPEATS,
        1,
        BATCHES,
        || base.clone(),
        |e| {
            for batch in updates.chunks(BATCH) {
                for (c, d) in batch {
                    e.update(c, *d).unwrap();
                }
            }
            assert_eq!(e.query(&full).unwrap(), total, "serial total");
        },
    );

    let cow_bytes = &rps_core::obs::snapshot().cow_bytes;
    let (mut copied, mut most) = (0u64, 0u64);
    let (versioned, _) = measure_with(
        REPEATS,
        1,
        BATCHES,
        || VersionedEngine::new(base.clone()),
        |v| {
            copied = 0;
            for batch in updates.chunks(BATCH) {
                let before = cow_bytes.get();
                v.apply_batch(batch).unwrap();
                let bytes = cow_bytes.get() - before;
                copied += bytes;
                most = most.max(bytes);
            }
            assert_eq!(v.query(&full).unwrap(), total, "versioned total");
        },
    );
    assert!(
        most <= bound,
        "a batch copied {most} B, over 4·k²·8 B of RP boxes plus the overlay's \
         {overlay_bytes} B = {bound} B"
    );

    // The engine built lands in the pass's state, so its drop stays
    // outside the timer.
    let (new, _) = measure_with(
        REPEATS,
        1,
        1,
        || (Some(zero()), None),
        |(e, v)| *v = Some(VersionedEngine::new(e.take().expect("one call a pass"))),
    );

    let mut ptable = Table::new(&["path", "median ns", "p10–p90 ns", "bytes copied"]);
    let per_batch = copied / BATCHES as u64;
    ptable.row(&spread_row(
        "RpsEngine::update ×4, per batch",
        &serial,
        "—".to_string(),
    ));
    ptable.row(&spread_row(
        "VersionedEngine::apply_batch, per batch",
        &versioned,
        format!("{per_batch} (max {most})"),
    ));
    ptable.row(&spread_row(
        "VersionedEngine::new, zero 1024²",
        &new,
        "—".to_string(),
    ));
    print!("{}", ptable.render());
    println!("bound per batch: {bound} B (4·k²·8 B of RP boxes + {overlay_bytes} B of overlay)");
}
