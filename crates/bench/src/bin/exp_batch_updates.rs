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

use std::time::Instant;

use ndcube::{NdCube, Region};
use rps_analysis::Table;
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
        "\n=== WAL tail replay, {} cube, k = {k}, {TAIL} points, {REPEATS} runs each ===\n",
        side.join("×")
    );
    let tail: Vec<(Vec<usize>, i64)> = UpdateGen::uniform(dims, 7, 101)
        .take(TAIL)
        .into_iter()
        // 1..=101 shifted to −50..=50.
        .map(|(c, d)| (c, d - 51))
        .collect();
    let base = RpsEngine::from_cube_uniform(cube, k).unwrap();
    let (loop_ns, loop_writes, loop_cube) = time_replay(&base, |e| {
        for (c, d) in &tail {
            e.update(c, *d).unwrap();
        }
    });
    let (batch_ns, batch_writes, batch_cube) =
        time_replay(&base, |e| e.update_batch(&tail).unwrap());
    assert_eq!(loop_cube, batch_cube, "both replays must leave one cube");
    assert!(
        batch_writes < loop_writes,
        "update_batch wrote {batch_writes} cells, the per-record loop {loop_writes}"
    );
    let mut rtable = Table::new(&["replay", "median ns", "min–max ns", "cells written"]);
    for (name, ns, writes) in [
        ("one update per record", &loop_ns, loop_writes),
        ("one update_batch", &batch_ns, batch_writes),
    ] {
        rtable.row(&[
            name.to_string(),
            ns[REPEATS / 2].to_string(),
            format!("{}–{}", ns[0], ns[REPEATS - 1]),
            writes.to_string(),
        ]);
    }
    print!("{}", rtable.render());
}

/// Timed runs per replay strategy and per publish-table row.
const REPEATS: usize = 7;

/// Replays onto a fresh copy of `base` `REPEATS` times. Returns the
/// sorted wall times in ns, the cells one replay wrote, and the cube
/// it left.
fn time_replay(
    base: &RpsEngine<i64>,
    replay: impl Fn(&mut RpsEngine<i64>),
) -> (Vec<u128>, u64, NdCube<i64>) {
    let mut times = Vec::with_capacity(REPEATS);
    let mut last = None;
    for _ in 0..REPEATS {
        let mut e = base.clone();
        let before = e.stats().cell_writes;
        let t = Instant::now();
        replay(&mut e);
        times.push(t.elapsed().as_nanos());
        last = Some((e.stats().cell_writes - before, e));
    }
    times.sort_unstable();
    let (writes, e) = last.expect("REPEATS > 0");
    (times, writes, e.to_cube())
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
    const BATCHES: usize = 2_000;
    let dims = [SIDE, SIDE];
    println!(
        "\n=== versioned publish, {SIDE}×{SIDE} zero cube, k = {K}, \
         {BATCHES} batches of {BATCH} points, {REPEATS} runs each ===\n"
    );
    let updates = UpdateGen::uniform(&dims, 11, 9).take(BATCHES * BATCH);
    let total: i64 = updates.iter().map(|(_, d)| d).sum();
    let zero = || RpsEngine::<i64>::zeros_uniform(&dims, K).unwrap();
    let base = zero();
    let full = Region::new(&[0, 0], &[SIDE - 1, SIDE - 1]).unwrap();
    let cell = std::mem::size_of::<i64>();
    let overlay_bytes = (base.storage_cells() - SIDE * SIDE) * cell;
    let bound = u64::try_from(BATCH * K * K * cell + overlay_bytes).unwrap();

    let mut serial_ns = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let mut e = base.clone();
        let t = Instant::now();
        for batch in updates.chunks(BATCH) {
            for (c, d) in batch {
                e.update(c, *d).unwrap();
            }
        }
        serial_ns.push(t.elapsed().as_nanos() / BATCHES as u128);
        assert_eq!(e.query(&full).unwrap(), total, "serial total");
    }

    let cow_bytes = &rps_core::obs::snapshot().cow_bytes;
    let mut versioned_ns = Vec::with_capacity(REPEATS);
    let (mut copied, mut most) = (0u64, 0u64);
    for _ in 0..REPEATS {
        let v = VersionedEngine::new(base.clone());
        copied = 0;
        let t = Instant::now();
        for batch in updates.chunks(BATCH) {
            let before = cow_bytes.get();
            v.apply_batch(batch).unwrap();
            let bytes = cow_bytes.get() - before;
            copied += bytes;
            most = most.max(bytes);
        }
        versioned_ns.push(t.elapsed().as_nanos() / BATCHES as u128);
        assert_eq!(v.query(&full).unwrap(), total, "versioned total");
    }
    assert!(
        most <= bound,
        "a batch copied {most} B, over 4·k²·8 B of RP boxes plus the overlay's \
         {overlay_bytes} B = {bound} B"
    );

    let mut new_ns = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let e = zero();
        let t = Instant::now();
        let v = VersionedEngine::new(e);
        new_ns.push(t.elapsed().as_nanos());
        drop(v);
    }

    let mut ptable = Table::new(&["path", "median ns", "min–max ns", "bytes copied"]);
    let per_batch = copied / BATCHES as u64;
    let rows = [
        (
            "RpsEngine::update ×4, per batch",
            serial_ns,
            "—".to_string(),
        ),
        (
            "VersionedEngine::apply_batch, per batch",
            versioned_ns,
            format!("{per_batch} (max {most})"),
        ),
        ("VersionedEngine::new, zero 1024²", new_ns, "—".to_string()),
    ];
    for (name, mut ns, bytes) in rows {
        ns.sort_unstable();
        ptable.row(&[
            name.to_string(),
            ns[REPEATS / 2].to_string(),
            format!("{}–{}", ns[0], ns[REPEATS - 1]),
            bytes,
        ]);
    }
    print!("{}", ptable.render());
    println!("bound per batch: {bound} B (4·k²·8 B of RP boxes + {overlay_bytes} B of overlay)");
}
