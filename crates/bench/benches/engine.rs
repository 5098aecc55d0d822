//! Criterion benchmark: multi-session discovery throughput, serial
//! re-execution vs the memoizing 1/4-worker engine, on the Figure-8
//! synthetic workload (ground truths compiled to real simulator programs —
//! the same `aid_engine::workload` the acceptance tests assert on).
//!
//! The workload is the repeated-triage shape the engine is built for: a
//! handful of distinct applications, each debugged several times (think
//! re-runs across a flaky CI day). Serial execution pays for every run
//! every time; the engine executes each distinct (program, intervention
//! set, seed) run once and answers the rest from the intervention cache,
//! overlapping the cold runs across workers. The acceptance bar for this
//! subsystem is engine ≥ 2x serial on a 4-worker pool — asserted in
//! `crates/engine/tests/determinism.rs` and measured here.

use aid_bench::snapshot;
use aid_core::{discover, Strategy};
use aid_engine::workload::{compiled_figure8_apps, Figure8App};
use aid_engine::{DiscoveryJob, EngineConfig, ShardedEngine};
use aid_sim::SimExecutor;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::{Duration, Instant};

const RUNS_PER_ROUND: usize = 32;
const DISTINCT_APPS: usize = 3;
// Calibrated for the bytecode backend (matching the ≥2x acceptance test in
// crates/engine/tests/determinism.rs): the VM coalesces compute bursts, so
// per-execution work must be heavier than the tree-walk era's 40/8 for the
// cache-hit economics to outweigh per-session bookkeeping.
const NODE_COST: u64 = 120;
const REPEATS: usize = 6;

fn bench_engine_throughput(c: &mut Criterion) {
    let apps = compiled_figure8_apps(DISTINCT_APPS, NODE_COST);
    let mut group = c.benchmark_group("engine_throughput");
    let sessions = DISTINCT_APPS * REPEATS;

    group.bench_with_input(
        BenchmarkId::new("serial", format!("{sessions}_sessions")),
        &apps,
        |b, apps| {
            b.iter(|| {
                for _ in 0..REPEATS {
                    for app in apps {
                        let mut exec = SimExecutor::new(
                            (*app.sim).clone(),
                            app.analysis.extraction.catalog.clone(),
                            app.analysis.extraction.failure,
                            RUNS_PER_ROUND,
                            1_000_000,
                        );
                        discover(&app.analysis.dag, &mut exec, Strategy::Aid, 3);
                    }
                }
            });
        },
    );

    for workers in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new(format!("engine_{workers}w"), format!("{sessions}_sessions")),
            &apps,
            |b, apps: &Vec<Figure8App>| {
                b.iter(|| {
                    // A fresh engine per iteration: the measurement includes
                    // pool spin-up and a cold cache, i.e. the worst case.
                    let engine = ShardedEngine::new(
                        EngineConfig {
                            workers,
                            ..EngineConfig::default()
                        },
                        1,
                    );
                    let jobs: Vec<DiscoveryJob> = (0..REPEATS)
                        .flat_map(|r| {
                            apps.iter().enumerate().map(move |(i, app)| {
                                DiscoveryJob::sim(
                                    format!("app{i}-run{r}"),
                                    Arc::new(app.analysis.dag.clone()),
                                    Arc::clone(&app.sim),
                                    Arc::new(app.analysis.extraction.catalog.clone()),
                                    app.analysis.extraction.failure,
                                    RUNS_PER_ROUND,
                                    1_000_000,
                                    Strategy::Aid,
                                    3,
                                )
                            })
                        })
                        .collect();
                    engine.run_all(jobs)
                });
            },
        );
    }
    group.finish();
}

/// One serial pass over the workload: every app re-discovered `REPEATS`
/// times with a fresh executor (no memoization).
fn serial_pass(apps: &[Figure8App]) {
    for _ in 0..REPEATS {
        for app in apps {
            let mut exec = SimExecutor::new(
                (*app.sim).clone(),
                app.analysis.extraction.catalog.clone(),
                app.analysis.extraction.failure,
                RUNS_PER_ROUND,
                1_000_000,
            );
            discover(&app.analysis.dag, &mut exec, Strategy::Aid, 3);
        }
    }
}

/// One engine pass: the same sessions through a fresh 4-worker pool with a
/// cold intervention cache.
fn engine_pass(apps: &[Figure8App]) {
    let engine = ShardedEngine::new(
        EngineConfig {
            workers: 4,
            ..EngineConfig::default()
        },
        1,
    );
    let jobs: Vec<DiscoveryJob> = (0..REPEATS)
        .flat_map(|r| {
            apps.iter().enumerate().map(move |(i, app)| {
                DiscoveryJob::sim(
                    format!("app{i}-run{r}"),
                    Arc::new(app.analysis.dag.clone()),
                    Arc::clone(&app.sim),
                    Arc::new(app.analysis.extraction.catalog.clone()),
                    app.analysis.extraction.failure,
                    RUNS_PER_ROUND,
                    1_000_000,
                    Strategy::Aid,
                    3,
                )
            })
        })
        .collect();
    engine.run_all(jobs);
}

/// Sustained session throughput of one pass shape.
fn sessions_per_s(apps: &[Figure8App], pass: fn(&[Figure8App]), budget: Duration) -> f64 {
    let mut sessions = 0u64;
    let start = Instant::now();
    while start.elapsed() < budget {
        pass(apps);
        sessions += (DISTINCT_APPS * REPEATS) as u64;
    }
    sessions as f64 / start.elapsed().as_secs_f64()
}

/// Times serial vs 4-worker-engine discovery head-to-head (interleaved
/// best-of-5, like the simulator snapshot) and merges `engine_*` keys into
/// `BENCH_sim.json`.
fn snapshot_engine(_c: &mut Criterion) {
    let budget = Duration::from_millis(
        std::env::var("AID_BENCH_BUDGET_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300),
    );
    let apps = compiled_figure8_apps(DISTINCT_APPS, NODE_COST);
    // Warm-up pass each, then alternating rounds.
    serial_pass(&apps);
    engine_pass(&apps);
    let (mut serial, mut engine) = (0f64, 0f64);
    for _ in 0..5 {
        serial = serial.max(sessions_per_s(&apps, serial_pass, budget));
        engine = engine.max(sessions_per_s(&apps, engine_pass, budget));
    }
    let speedup = engine / serial;
    let path = snapshot::merge_write(
        "BENCH_sim.json",
        &[
            ("engine_serial_sessions_per_s".to_string(), serial),
            ("engine_4w_sessions_per_s".to_string(), engine),
            ("engine_speedup".to_string(), speedup),
        ],
    );
    println!(
        "snapshot: serial {serial:.1} sessions/s, engine(4w) {engine:.1} \
         sessions/s ({speedup:.2}x) -> {}",
        path.display()
    );
}

criterion_group!(benches, bench_engine_throughput, snapshot_engine);
criterion_main!(benches);
