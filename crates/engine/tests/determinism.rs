//! Engine acceptance tests: scheduling must never change answers.
//!
//! * N workers vs 1 worker give identical `DiscoveryResult`s for all six
//!   case studies — and both match the serial `SimExecutor` path, pinning
//!   the engine's positional seed schedule to the library's sequential one.
//! * Repeated sessions over the same program are answered from the
//!   intervention cache without a single re-execution.
//! * On the Figure-8 synthetic workload (ground truths compiled to real
//!   simulator programs), a 4-worker engine beats serial re-execution by
//!   ≥2x wall-clock, because repeated sessions never re-execute and cold
//!   runs overlap across workers.

use aid_cases::{all_cases, CaseStudy};
use aid_core::{analyze, discover, AidAnalysis, DiscoveryResult, Strategy};
use aid_engine::workload::{compiled_figure8_apps, Figure8App};
use aid_engine::{DiscoveryJob, EngineConfig, ShardedEngine};
use aid_sim::{SimExecutor, Simulator};
use std::sync::Arc;
use std::time::Instant;

/// Runs per intervention round for the engine tests: enough to exercise the
/// multi-run fan-out, capped so six debug-mode case studies stay fast.
fn test_runs(case: &CaseStudy) -> usize {
    case.runs_per_round.min(8)
}

/// Observation phase for a case, reduced from the paper's 50/50 to keep the
/// suite quick; discovery determinism is independent of log size.
fn analyze_reduced(case: &CaseStudy) -> (Arc<Simulator>, AidAnalysis) {
    let sim = Simulator::new(case.program.clone());
    let set = sim.collect_balanced(30, 30, 60_000);
    let analysis = analyze(&set, &case.config);
    (Arc::new(sim), analysis)
}

fn sim_job(
    name: &str,
    sim: &Arc<Simulator>,
    analysis: &AidAnalysis,
    runs_per_round: usize,
    strategy: Strategy,
    seed: u64,
) -> DiscoveryJob {
    DiscoveryJob::sim(
        name,
        Arc::new(analysis.dag.clone()),
        Arc::clone(sim),
        Arc::new(analysis.extraction.catalog.clone()),
        analysis.extraction.failure,
        runs_per_round,
        1_000_000,
        strategy,
        seed,
    )
}

#[test]
fn multi_worker_equals_single_worker_on_all_six_cases() {
    let single = ShardedEngine::with_workers(1);
    let quad = ShardedEngine::with_workers(4);
    for case in all_cases() {
        let (sim, analysis) = analyze_reduced(&case);
        let runs = test_runs(&case);

        let from_single = single
            .submit(sim_job(case.name, &sim, &analysis, runs, Strategy::Aid, 11))
            .wait();
        let from_quad = quad
            .submit(sim_job(case.name, &sim, &analysis, runs, Strategy::Aid, 11))
            .wait();
        assert_eq!(
            from_single.result, from_quad.result,
            "{}: worker count changed the discovery result",
            case.name
        );
        // Byte-identical in the strictest sense available.
        assert_eq!(
            format!("{:?}", from_single.result),
            format!("{:?}", from_quad.result),
            "{}: debug renderings diverge",
            case.name
        );

        // The engine's positional seed schedule must match the serial
        // executor's sequential one exactly.
        let mut serial = SimExecutor::new(
            (*sim).clone(),
            analysis.extraction.catalog.clone(),
            analysis.extraction.failure,
            runs,
            1_000_000,
        );
        let reference = discover(&analysis.dag, &mut serial, Strategy::Aid, 11);
        assert_eq!(
            from_quad.result, reference,
            "{}: engine diverged from the serial executor",
            case.name
        );
    }
}

#[test]
fn repeated_sessions_are_answered_from_the_cache() {
    let case = all_cases().remove(0); // Npgsql
    let (sim, analysis) = analyze_reduced(&case);
    let runs = test_runs(&case);
    let engine = ShardedEngine::with_workers(2);

    let first = engine
        .submit(sim_job("warm", &sim, &analysis, runs, Strategy::Aid, 11))
        .wait();
    let after_first = engine.stats();
    assert!(after_first.executions > 0, "cold session must execute");
    assert_eq!(after_first.cache_hits, 0, "nothing to hit yet");

    for round in 0..2 {
        let again = engine
            .submit(sim_job("repeat", &sim, &analysis, runs, Strategy::Aid, 11))
            .wait();
        assert_eq!(first.result, again.result, "repeat {round} changed answer");
    }
    let after_repeats = engine.stats();
    assert_eq!(
        after_repeats.executions, after_first.executions,
        "repeated sessions must not re-execute a single run"
    );
    // Both repeats probed everything the first session executed.
    assert_eq!(after_repeats.cache_hits, 2 * after_first.executions);
    assert!(
        after_repeats.cache_hit_rate() > 0.6,
        "hit rate {:.2} too low",
        after_repeats.cache_hit_rate()
    );
}

/// The pooled executor's cross-group seed arithmetic: a two-group batch
/// must return exactly what the serial executor produces for the same two
/// rounds issued one at a time.
#[test]
fn pooled_multi_group_batch_matches_serial_executor() {
    use aid_core::{BatchExecutor, Executor};
    use aid_engine::{EngineCounters, InterventionCache, PooledSimExecutor, WorkerPool};

    let app = &compiled_figure8_apps(1, 4)[0];
    let candidates = app.analysis.dag.candidates();
    assert!(candidates.len() >= 3);
    let g1 = vec![candidates[0]];
    let g2 = vec![candidates[1], candidates[2]];
    let runs = 4;

    let mut serial = SimExecutor::new(
        (*app.sim).clone(),
        app.analysis.extraction.catalog.clone(),
        app.analysis.extraction.failure,
        runs,
        1_000_000,
    );
    let serial_r1 = serial.intervene(&g1);
    let serial_r2 = serial.intervene(&g2);

    let mut pooled = PooledSimExecutor::new(
        Arc::clone(&app.sim),
        Arc::new(app.analysis.extraction.catalog.clone()),
        app.analysis.extraction.failure,
        runs,
        1_000_000,
        Arc::new(WorkerPool::new(3)),
        Arc::new(InterventionCache::new(4)),
        Arc::new(EngineCounters::default()),
    );
    let batch = pooled.intervene_batch(&[g1, g2]);
    assert_eq!(batch, vec![serial_r1, serial_r2]);
}

#[test]
fn four_worker_engine_beats_serial_by_2x_on_figure8_workload() {
    const REPEATS: usize = 6;
    const RUNS_PER_ROUND: usize = 32;
    // Node cost 120: a re-execution costs what a real service call would,
    // so cache-hit economics are not drowned by per-round bookkeeping (the
    // ratio this test asserts is about *executions*). Calibrated for the
    // bytecode backend — the VM coalesces compute bursts, so the virtual
    // cost must be higher than the tree-walk era's 40 to keep the same
    // wall-clock weight per execution.
    let apps: Vec<Figure8App> = compiled_figure8_apps(3, 120);

    // The session list a triage service would see: every app probed
    // repeatedly (same program, same strategy — think re-runs across a
    // flaky CI day).
    let session_specs: Vec<(usize, String)> = (0..REPEATS)
        .flat_map(|r| {
            apps.iter()
                .enumerate()
                .map(move |(i, _)| (i, format!("app{i}-run{r}")))
        })
        .collect();

    // Serial baseline: a fresh executor per session, every run re-executed.
    let serial_start = Instant::now();
    let serial_results: Vec<DiscoveryResult> = session_specs
        .iter()
        .map(|(i, _)| {
            let app = &apps[*i];
            let mut exec = SimExecutor::new(
                (*app.sim).clone(),
                app.analysis.extraction.catalog.clone(),
                app.analysis.extraction.failure,
                RUNS_PER_ROUND,
                1_000_000,
            );
            discover(&app.analysis.dag, &mut exec, Strategy::Aid, 3)
        })
        .collect();
    let serial_elapsed = serial_start.elapsed();

    // Engine: same sessions through a 4-worker pool + shared cache.
    let engine = ShardedEngine::new(
        EngineConfig {
            workers: 4,
            ..EngineConfig::default()
        },
        1,
    );
    let jobs: Vec<DiscoveryJob> = session_specs
        .iter()
        .map(|(i, name)| {
            let app = &apps[*i];
            sim_job(
                name,
                &app.sim,
                &app.analysis,
                RUNS_PER_ROUND,
                Strategy::Aid,
                3,
            )
        })
        .collect();
    let engine_start = Instant::now();
    let engine_results = engine.run_all(jobs);
    let engine_elapsed = engine_start.elapsed();

    // Same answers, session by session.
    for (serial, pooled) in serial_results.iter().zip(&engine_results) {
        assert_eq!(serial, &pooled.result, "{} diverged", pooled.name);
    }

    let stats = engine.stats();
    assert!(
        stats.cache_hits > 0 && stats.executions < stats.cache_hits + stats.cache_misses,
        "repeats must be served from the cache: {stats:?}"
    );
    let speedup = serial_elapsed.as_secs_f64() / engine_elapsed.as_secs_f64();
    eprintln!(
        "figure-8 workload: serial {serial_elapsed:?}, 4-worker engine {engine_elapsed:?} \
         ({speedup:.2}x), {} executions / {} cache hits",
        stats.executions, stats.cache_hits
    );
    assert!(
        speedup >= 2.0,
        "4-worker engine speedup {speedup:.2}x < 2x \
         (serial {serial_elapsed:?}, engine {engine_elapsed:?}, stats {stats:?})"
    );
}
