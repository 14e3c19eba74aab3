//! Ablation bench (DESIGN.md §7): sorted-Vec set algebra vs `HashSet`.
//!
//! Justifies the model's posting-list representation: intersection and
//! difference over strictly-sorted `u32` slices (with galloping for
//! asymmetric sizes) against the `std` hash-set equivalents, at the size
//! ratios the strategies actually see (cart ~10 vs recipe ~30, and cart
//! vs whole posting list ~1000).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use goalrec_core::setops;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::hint::black_box;

fn sorted_set(rng: &mut StdRng, len: usize, universe: u32) -> Vec<u32> {
    let mut v: Vec<u32> = (0..len * 2).map(|_| rng.gen_range(0..universe)).collect();
    setops::normalize(&mut v);
    v.truncate(len);
    v
}

fn bench_intersection(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(42);
    let mut group = c.benchmark_group("setops/intersection_len");
    for &(small, large) in &[
        (10usize, 30usize),
        (10, 1_000),
        (200, 1_000),
        (1_000, 1_000),
    ] {
        let a = sorted_set(&mut rng, small, 10_000);
        let b = sorted_set(&mut rng, large, 10_000);
        let ha: HashSet<u32> = a.iter().copied().collect();
        let hb: HashSet<u32> = b.iter().copied().collect();

        group.bench_with_input(
            BenchmarkId::new("sorted_vec", format!("{small}x{large}")),
            &(&a, &b),
            |bench, (a, b)| bench.iter(|| black_box(setops::intersection_len(a, b))),
        );
        group.bench_with_input(
            BenchmarkId::new("hashset", format!("{small}x{large}")),
            &(&ha, &hb),
            |bench, (ha, hb)| bench.iter(|| black_box(ha.intersection(hb).count())),
        );
    }
    group.finish();
}

fn bench_difference(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(43);
    let mut group = c.benchmark_group("setops/difference");
    let a = sorted_set(&mut rng, 30, 10_000);
    let b = sorted_set(&mut rng, 10, 10_000);
    let ha: HashSet<u32> = a.iter().copied().collect();
    let hb: HashSet<u32> = b.iter().copied().collect();
    group.bench_function("sorted_vec", |bench| {
        let mut out = Vec::new();
        bench.iter(|| {
            setops::difference_into(&a, &b, &mut out);
            black_box(out.len())
        })
    });
    group.bench_function("hashset", |bench| {
        bench.iter(|| black_box(ha.difference(&hb).count()))
    });
    group.finish();
}

criterion_group!(benches, bench_intersection, bench_difference);
criterion_main!(benches);
