//! E8 — §4.3 "Choosing the Overlay Box Size".
//!
//! Sweeps the box side k for fixed n and d, measuring the worst-case
//! update cost (cells written) and comparing it with the paper's formula
//! `(k−1)^d + d·(n/k)·k^{d−1} + (n/k−1)^d`. Verifies the measured minimum
//! falls at k ≈ √n, the paper's headline tuning result. Next to the
//! counts stands the wall-clock time of a uniform point update per k,
//! timed through [`rps_bench::measure`] (median and p10–p90 of its
//! passes): the same U shape in nanoseconds.

use ndcube::NdCube;
use rps_analysis::{cost_model, Table};
use rps_bench::measure::{measure, REPEATS};
use rps_core::{RangeSumEngine, RpsEngine};
use rps_workload::UpdateGen;

/// Timed uniform updates per pass.
const CALLS: usize = 16;

/// Worst measured update cost over a set of adversarial positions.
fn worst_update_cost(cube: &NdCube<i64>, k: usize) -> u64 {
    let d = cube.ndim();
    let n = cube.shape().dim(0);
    let mut worst = 0u64;
    // Position just past an anchor maximizes every term; probe a few.
    let candidates: Vec<Vec<usize>> = vec![vec![1; d], vec![(k + 1).min(n - 1); d], vec![0; d], {
        let mut v = vec![1; d];
        v[0] = 0;
        v
    }];
    for pos in candidates {
        let mut e = RpsEngine::from_cube_uniform(cube, k).unwrap();
        e.reset_stats();
        e.update(&pos, 1).unwrap();
        worst = worst.max(e.stats().cell_writes);
    }
    worst
}

fn sweep(n: usize, d: u32) {
    println!("=== E8: box-size sweep, n = {n}, d = {d}; {REPEATS} timed passes ===\n");
    let dims = vec![n; d as usize];
    let cube = NdCube::from_fn(&dims, |c| (c.iter().sum::<usize>() % 10) as i64).unwrap();

    let mut table = Table::new(&[
        "k",
        "measured worst update",
        "formula",
        "storage overhead %",
        "ns/update (uniform)",
    ]);
    let updates = UpdateGen::uniform(&dims, 17, 50).take(CALLS);
    let ks: Vec<usize> = {
        let mut v = vec![];
        let mut k = 2;
        while k <= n {
            if n.is_multiple_of(k) {
                v.push(k);
            }
            k += 1;
        }
        v
    };
    let mut best = (0usize, u64::MAX);
    for &k in &ks {
        let measured = worst_update_cost(&cube, k);
        let formula = cost_model::rps_update_cost(n as f64, d, k as f64);
        let overhead = 100.0 * rps_analysis::overlay_fraction(k as u64, d);
        if measured < best.1 {
            best = (k, measured);
        }
        let mut engine = RpsEngine::from_cube_uniform(&cube, k).unwrap();
        let mut ui = updates.iter().cycle();
        let update = measure(REPEATS, CALLS, || {
            let (c, d) = ui.next().expect("cycle");
            engine.update(c, *d).unwrap();
        });
        table.row(&[
            k.to_string(),
            measured.to_string(),
            format!("{formula:.0}"),
            format!("{overhead:.1}"),
            update.ns.to_string(),
        ]);
    }
    print!("{}", table.render());

    let sqrt_n = (n as f64).sqrt();
    println!(
        "\nmeasured minimum at k = {} (paper predicts k = √n = {:.1}); \
         formula argmin over all k: {}\n",
        best.0,
        sqrt_n,
        cost_model::argmin_update_cost(n, d)
    );
    assert!(
        (best.0 as f64) >= sqrt_n / 2.0 && (best.0 as f64) <= sqrt_n * 2.0,
        "measured optimum should bracket √n"
    );
}

fn main() {
    sweep(64, 2);
    sweep(256, 2);
    sweep(1024, 2);
    sweep(64, 3);
    println!("conclusion: measured worst-case update cost is U-shaped in k with");
    println!("its minimum at k ≈ √n, matching §4.3's derivation.");
}
