//! Hardware-simulator benchmarks: phase execution throughput (simulated
//! seconds per wall second), MSR access, counter snapshots.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use ear_archsim::msr::{addr, pack_uncore_ratio_limit};
use ear_archsim::{Node, NodeConfig, PhaseDemand};
use std::hint::black_box;

fn one_second_phase() -> PhaseDemand {
    PhaseDemand {
        instructions: 9.6e10 / 0.5, // ~1 s of work at CPI 0.5, 40 cores
        mem_bytes: 30e9,
        cpi_core: 0.45,
        active_cores: 40,
        ..Default::default()
    }
}

fn bench_run_phase(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator/run_phase");
    // Each phase advances ~1 simulated second in 10 ms quanta.
    g.throughput(Throughput::Elements(100));
    g.bench_function("one_sim_second", |b| {
        let demand = one_second_phase();
        b.iter_batched(
            || Node::new(NodeConfig::sd530_6148(), 1),
            |mut node| {
                black_box(node.run_phase(&demand));
                node
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("gpu_node_spin_second", |b| {
        let demand = PhaseDemand {
            active_cores: 1,
            wait_seconds: 1.0,
            wait_busy: true,
            gpu_power_w: 120.0,
            ..Default::default()
        };
        b.iter_batched(
            || Node::new(NodeConfig::gpu_node_6142m(), 1),
            |mut node| {
                black_box(node.run_phase(&demand));
                node
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_msr(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator/msr");
    g.throughput(Throughput::Elements(1));
    g.bench_function("read_uncore_limit", |b| {
        let node = Node::new(NodeConfig::sd530_6148(), 1);
        b.iter(|| black_box(node.read_msr(0, addr::MSR_UNCORE_RATIO_LIMIT)))
    });
    g.bench_function("write_uncore_limit", |b| {
        let mut node = Node::new(NodeConfig::sd530_6148(), 1);
        let v = pack_uncore_ratio_limit(12, 20);
        b.iter(|| black_box(node.write_msr(0, addr::MSR_UNCORE_RATIO_LIMIT, v)))
    });
    g.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    c.bench_function("simulator/snapshot_and_delta", |b| {
        let mut node = Node::new(NodeConfig::sd530_6148(), 1);
        node.run_phase(&one_second_phase());
        let before = node.snapshot();
        node.run_phase(&one_second_phase());
        b.iter(|| {
            let now = node.snapshot();
            black_box(now.delta(&before))
        })
    });
}

/// Quantum fast-forward vs plain 10 ms stepping on a settled spin phase.
/// Stepping walks ~100 10 ms quanta per simulated second;
/// fast-forward integrates the settled remainder in one step.
fn bench_fast_forward(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator/fast_forward");
    g.throughput(Throughput::Elements(100));
    let spin = PhaseDemand {
        active_cores: 40,
        wait_seconds: 1.0,
        wait_busy: true,
        ..Default::default()
    };
    g.bench_function("stepped_spin_second", |b| {
        let mut node = Node::new(NodeConfig::sd530_6148(), 1);
        b.iter(|| black_box(node.run_phase(&spin)))
    });
    g.bench_function("fast_forward_spin_second", |b| {
        let mut cfg = NodeConfig::sd530_6148();
        cfg.fast_forward = true;
        let mut node = Node::new(cfg, 1);
        b.iter(|| black_box(node.run_phase(&spin)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_run_phase,
    bench_msr,
    bench_snapshot,
    bench_fast_forward
);
criterion_main!(benches);
