//! Benchmarks of the Gen2 MAC simulator: inventory throughput across link
//! profiles and population sizes — the sampling-rate substrate behind the
//! paper's "prefers slow motions" finding.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use experiments::{Deployment, DeploymentSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rf_sim::tags::TagId;
use rfid_gen2::inventory::{Inventory, SearchMode};
use rfid_gen2::link::LinkParams;
use rfid_gen2::reader::{Gen2Reader, ReaderConfig};
use std::hint::black_box;

fn bench_inventory_mac(c: &mut Criterion) {
    let mut group = c.benchmark_group("inventory_mac_1s");
    for (name, link) in [
        ("fm0_640k", LinkParams::fast()),
        ("miller4_250k", LinkParams::dense_reader_m4()),
        ("miller8_250k", LinkParams::dense_reader_m8()),
    ] {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut inv = Inventory::new(link, 5, SearchMode::DualTarget, 0.0);
                let mut rng = StdRng::seed_from_u64(1);
                let mut reads = 0u64;
                inv.run(
                    1.0,
                    &mut rng,
                    |_t, powered: &mut Vec<TagId>| powered.extend((0..25).map(TagId)),
                    |_id, _t| reads += 1,
                );
                black_box(reads)
            })
        });
    }
    group.finish();
}

fn bench_population_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("inventory_population_1s");
    for n in [5u64, 25, 100] {
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| {
                let mut inv = Inventory::new(
                    LinkParams::dense_reader_m4(),
                    5,
                    SearchMode::DualTarget,
                    0.0,
                );
                let mut rng = StdRng::seed_from_u64(2);
                let mut reads = 0u64;
                inv.run(
                    1.0,
                    &mut rng,
                    |_t, powered: &mut Vec<TagId>| powered.extend((0..n).map(TagId)),
                    |_id, _t| reads += 1,
                );
                black_box(reads)
            })
        });
    }
    group.finish();
}

fn bench_full_reader_over_scene(c: &mut Criterion) {
    let deployment = Deployment::build(DeploymentSpec::default(), 42);
    let reader = Gen2Reader::new(ReaderConfig::default());
    c.bench_function("reader_run/1s_scene", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            let run = reader.run(&deployment.scene, &[], 0.0, 1.0, &mut rng);
            black_box(run.events.len())
        })
    });
}

criterion_group!(
    benches,
    bench_inventory_mac,
    bench_population_scaling,
    bench_full_reader_over_scene
);
criterion_main!(benches);
