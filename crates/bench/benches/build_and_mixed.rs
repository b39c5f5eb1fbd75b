//! E12 (wall-clock) — structure construction cost and end-to-end mixed
//! workload throughput (the "analysts query while sales arrive" scenario).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rps_bench::replay;
use rps_core::{FenwickEngine, NaiveEngine, PrefixSumEngine, RpsEngine};
use rps_workload::{CubeGen, MixedWorkload, QueryGen, RegionSpec, UpdateGen};
use std::hint::black_box;

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("build");
    group.sample_size(10);
    for &n in &[256usize, 1024] {
        let cube = CubeGen::new(3).uniform(&[n, n], 0, 9).expect("valid dims");
        group.bench_with_input(BenchmarkId::new("prefix-sum", n), &cube, |b, a| {
            b.iter(|| PrefixSumEngine::from_cube(black_box(a)));
        });
        group.bench_with_input(BenchmarkId::new("rps", n), &cube, |b, a| {
            b.iter(|| RpsEngine::from_cube(black_box(a)));
        });
        group.bench_with_input(BenchmarkId::new("fenwick", n), &cube, |b, a| {
            b.iter(|| FenwickEngine::from_cube(black_box(a)));
        });
    }
    group.finish();
}

fn bench_mixed(c: &mut Criterion) {
    const OPS: usize = 512;
    let mut group = c.benchmark_group("mixed_workload");
    group.sample_size(10);
    let n = 256usize;
    let dims = [n, n];
    let cube = CubeGen::new(21).uniform(&dims, 0, 9).expect("valid dims");

    for &query_ratio in &[0.1f64, 0.5, 0.9] {
        let ops = MixedWorkload::new(
            UpdateGen::uniform(&dims, 1, 50),
            QueryGen::new(&dims, 2, RegionSpec::Fraction(0.5)),
            query_ratio,
            3,
        )
        .take(OPS);
        group.throughput(Throughput::Elements(OPS as u64));
        let label = format!("q{:.0}%", query_ratio * 100.0);

        group.bench_with_input(BenchmarkId::new("naive", &label), &ops, |b, ops| {
            b.iter(|| {
                let mut e = NaiveEngine::from_cube(cube.clone());
                replay(&mut e, black_box(ops))
            });
        });
        group.bench_with_input(BenchmarkId::new("prefix-sum", &label), &ops, |b, ops| {
            b.iter(|| {
                let mut e = PrefixSumEngine::from_cube(&cube);
                replay(&mut e, black_box(ops))
            });
        });
        group.bench_with_input(BenchmarkId::new("rps", &label), &ops, |b, ops| {
            b.iter(|| {
                let mut e = RpsEngine::from_cube(&cube);
                replay(&mut e, black_box(ops))
            });
        });
        group.bench_with_input(BenchmarkId::new("fenwick", &label), &ops, |b, ops| {
            b.iter(|| {
                let mut e = FenwickEngine::from_cube(&cube);
                replay(&mut e, black_box(ops))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build, bench_mixed);
criterion_main!(benches);
