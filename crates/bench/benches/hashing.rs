//! Ablation: modulo vs ketama key distribution (DESIGN.md §6).
//!
//! The paper chooses the modulo scheme for its balance and simplicity and
//! names consistent hashing for elastic membership; this bench quantifies
//! the lookup-cost and balance trade-off between the two.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use memfs_hashring::balance::BalanceReport;
use memfs_hashring::schema::KeySchema;
use memfs_hashring::{Distributor, KetamaRing, ModuloRing};

fn keys(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| KeySchema::stripe_key(&format!("/wf/file{:05}.dat", i / 16), (i % 16) as u64))
        .collect()
}

fn bench_lookup(c: &mut Criterion) {
    let keys = keys(1024);
    let mut group = c.benchmark_group("distributor_lookup");
    for n_servers in [8usize, 64] {
        let modulo = ModuloRing::new(n_servers);
        group.bench_function(format!("modulo_{n_servers}"), |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for k in &keys {
                    acc += modulo.server_for(black_box(k)).0;
                }
                acc
            })
        });
        let ketama = KetamaRing::with_n_servers(n_servers, 160);
        group.bench_function(format!("ketama_{n_servers}"), |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for k in &keys {
                    acc += ketama.server_for(black_box(k)).0;
                }
                acc
            })
        });
    }
    group.finish();
}

fn bench_balance(c: &mut Criterion) {
    let keys = keys(16_384);
    c.bench_function("balance_measure_64_servers", |b| {
        let d = ModuloRing::new(64);
        b.iter(|| {
            let report =
                BalanceReport::measure(&d, keys.iter().map(|k| (k.as_slice(), 512 * 1024u64)));
            black_box(report.imbalance())
        })
    });
}

fn bench_ring_build(c: &mut Criterion) {
    c.bench_function("ketama_ring_build_64x160", |b| {
        b.iter(|| black_box(KetamaRing::with_n_servers(64, 160)))
    });
}

criterion_group!(benches, bench_lookup, bench_balance, bench_ring_build);
criterion_main!(benches);
