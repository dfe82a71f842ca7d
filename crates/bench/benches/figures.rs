//! Criterion benches over the figure-generating simulations: one group per
//! evaluation figure. The measured quantity is host wall time of the
//! deterministic simulation (the simulated latencies themselves are printed
//! by the `fig*` binaries); tracking it catches performance regressions in
//! the substrates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nicbar_bench::criterion_cfg;
use nicbar_core::{
    elan_gsync_barrier, elan_nic_barrier, gm_host_barrier, gm_nic_barrier, Algorithm, Barrier,
    RunCfg, Scenario, ThreadOp,
};
use nicbar_elan::ElanParams;
use nicbar_gm::{CollFeatures, GmParams};

/// Mean latency of a Quadrics barrier kind with no algorithm of its own.
fn elan_mean_us(barrier: Barrier, n: usize, cfg: RunCfg) -> f64 {
    Scenario::new(barrier, n, Algorithm::Dissemination, cfg)
        .run()
        .mean_us
}

fn fig5(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5_lanai91");
    g.sample_size(10);
    for n in [4usize, 16] {
        g.bench_with_input(BenchmarkId::new("nic_ds", n), &n, |b, &n| {
            b.iter(|| {
                gm_nic_barrier(
                    GmParams::lanai_9_1(),
                    CollFeatures::paper(),
                    n,
                    Algorithm::Dissemination,
                    criterion_cfg(),
                )
                .mean_us
            })
        });
        g.bench_with_input(BenchmarkId::new("host_ds", n), &n, |b, &n| {
            b.iter(|| {
                gm_host_barrier(
                    GmParams::lanai_9_1(),
                    n,
                    Algorithm::Dissemination,
                    criterion_cfg(),
                )
                .mean_us
            })
        });
    }
    g.finish();
}

fn fig6(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6_lanai_xp");
    g.sample_size(10);
    for n in [4usize, 8] {
        g.bench_with_input(BenchmarkId::new("nic_pe", n), &n, |b, &n| {
            b.iter(|| {
                gm_nic_barrier(
                    GmParams::lanai_xp(),
                    CollFeatures::paper(),
                    n,
                    Algorithm::PairwiseExchange,
                    criterion_cfg(),
                )
                .mean_us
            })
        });
        g.bench_with_input(BenchmarkId::new("host_pe", n), &n, |b, &n| {
            b.iter(|| {
                gm_host_barrier(
                    GmParams::lanai_xp(),
                    n,
                    Algorithm::PairwiseExchange,
                    criterion_cfg(),
                )
                .mean_us
            })
        });
    }
    g.finish();
}

fn fig7(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7_quadrics");
    g.sample_size(10);
    for n in [4usize, 8] {
        g.bench_with_input(BenchmarkId::new("nic_ds", n), &n, |b, &n| {
            b.iter(|| {
                elan_nic_barrier(
                    ElanParams::elan3(),
                    n,
                    Algorithm::Dissemination,
                    criterion_cfg(),
                )
                .mean_us
            })
        });
        g.bench_with_input(BenchmarkId::new("gsync", n), &n, |b, &n| {
            b.iter(|| elan_gsync_barrier(ElanParams::elan3(), n, 4, criterion_cfg()).mean_us)
        });
        g.bench_with_input(BenchmarkId::new("hgsync", n), &n, |b, &n| {
            b.iter(|| {
                let hw = Barrier::ElanHw {
                    params: ElanParams::elan3(),
                };
                elan_mean_us(hw, n, criterion_cfg())
            })
        });
    }
    g.finish();
}

fn fig8(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8_scalability");
    g.sample_size(10);
    let cfg = nicbar_core::RunCfg {
        warmup: 5,
        iters: 50,
        ..criterion_cfg()
    };
    for n in [64usize, 256] {
        g.bench_with_input(BenchmarkId::new("quadrics_nic_ds", n), &n, |b, &n| {
            b.iter(|| {
                elan_nic_barrier(
                    ElanParams::elan3(),
                    n,
                    Algorithm::Dissemination,
                    cfg.clone(),
                )
                .mean_us
            })
        });
        g.bench_with_input(BenchmarkId::new("myrinet_nic_ds", n), &n, |b, &n| {
            b.iter(|| {
                gm_nic_barrier(
                    GmParams::lanai_xp(),
                    CollFeatures::paper(),
                    n,
                    Algorithm::Dissemination,
                    cfg.clone(),
                )
                .mean_us
            })
        });
    }
    g.finish();
}

fn ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation");
    g.sample_size(10);
    for (label, features) in [
        ("paper", CollFeatures::paper()),
        ("direct", CollFeatures::direct()),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                gm_nic_barrier(
                    GmParams::lanai_xp(),
                    features,
                    8,
                    Algorithm::Dissemination,
                    criterion_cfg(),
                )
                .mean_us
            })
        });
    }
    g.finish();
}

fn thread_vs_chain(c: &mut Criterion) {
    let mut g = c.benchmark_group("thread_vs_chain");
    g.sample_size(10);
    g.bench_function("chain_barrier_8", |b| {
        b.iter(|| {
            elan_nic_barrier(
                ElanParams::elan3(),
                8,
                Algorithm::Dissemination,
                criterion_cfg(),
            )
            .mean_us
        })
    });
    g.bench_function("thread_barrier_8", |b| {
        b.iter(|| {
            let thread = Barrier::ElanThread {
                params: ElanParams::elan3(),
                op: ThreadOp::Barrier,
                contribution: |_, _| 0,
            };
            elan_mean_us(thread, 8, criterion_cfg())
        })
    });
    g.finish();
}

criterion_group!(benches, fig5, fig6, fig7, fig8, ablation, thread_vs_chain);
criterion_main!(benches);
