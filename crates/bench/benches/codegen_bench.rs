//! Criterion benchmark of the code generator (Table 2 pipeline): schedule
//! decomposition into code segments and C emission for the PFC task.

use criterion::{criterion_group, criterion_main, Criterion};
use qss_bench::pfc_setup;
use qss_codegen::{generate_task, SegmentGraph, TaskOptions};
use qss_sim::PfcParams;

fn bench_codegen(c: &mut Criterion) {
    let setup = pfc_setup(PfcParams::tiny());
    let schedule = &setup.schedules.schedules[0];
    let mut group = c.benchmark_group("codegen");
    group.sample_size(30);
    group.bench_function("segment_graph", |b| {
        b.iter(|| SegmentGraph::build(schedule, &setup.system.net).unwrap())
    });
    group.bench_function("generate_task", |b| {
        b.iter(|| {
            generate_task(
                &setup.system,
                schedule,
                &setup.schedules.channel_bounds,
                &TaskOptions::default(),
            )
            .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_codegen);
criterion_main!(benches);
