//! Multi-session engine scenario: queue every case study (and their TAGT
//! baselines) plus a batch of Figure-8 synthetic sessions onto one engine,
//! then print the per-session outcomes and the engine telemetry.
//!
//! ```sh
//! cargo run -p aid_bench --bin multisession --release \
//!     [--workers=4] [--repeats=2] [--synthetic=6]
//! ```
//!
//! This is the service-shaped workload the ROADMAP's north star describes:
//! many concurrent debugging sessions over a mix of programs, scheduled
//! across a fixed pool with a shared memoizing intervention cache. Watch
//! the `cache` line: with `--repeats` > 1 the repeated sessions execute
//! nothing at all.

use aid_bench::{arg_value, render_table};
use aid_cases::{all_cases, analyze_case, collect_logs};
use aid_core::Strategy;
use aid_engine::{DiscoveryJob, EngineConfig, ShardedEngine};
use aid_sim::Simulator;
use aid_synth::{generate, SynthParams};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let workers: usize = arg_value("workers")
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let repeats: usize = arg_value("repeats")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let synthetic: u64 = arg_value("synthetic")
        .and_then(|s| s.parse().ok())
        .unwrap_or(6);

    println!("Preparing workloads (observation phase, outside the engine)…");
    let mut jobs = Vec::new();

    // The six case studies: AID and the TAGT baseline per case.
    for case in all_cases() {
        let set = collect_logs(&case);
        let analysis = analyze_case(&case, &set);
        let sim = Arc::new(Simulator::new(case.program.clone()));
        let catalog = Arc::new(analysis.extraction.catalog.clone());
        let dag = Arc::new(analysis.dag.clone());
        for strategy in [Strategy::Aid, Strategy::Tagt] {
            for r in 0..repeats {
                jobs.push(DiscoveryJob::sim(
                    format!("{}/{}/run{r}", case.name, strategy.name()),
                    Arc::clone(&dag),
                    Arc::clone(&sim),
                    Arc::clone(&catalog),
                    analysis.extraction.failure,
                    case.runs_per_round,
                    1_000_000,
                    strategy,
                    11,
                ));
            }
        }
    }

    // Figure-8 synthetic sessions against the exact oracle.
    let params = SynthParams::default();
    for app_seed in 0..synthetic {
        let app = generate(&params, app_seed);
        for r in 0..repeats {
            jobs.push(DiscoveryJob::oracle(
                format!("synthetic{app_seed}/run{r}"),
                Arc::new(app.dag.clone()),
                app.truth.clone(),
                Strategy::Aid,
                app_seed,
            ));
        }
    }

    let total = jobs.len();
    println!("Queuing {total} sessions on a {workers}-worker engine…\n");
    let engine = ShardedEngine::new(
        EngineConfig {
            workers,
            max_pending: 2 * workers,
            ..EngineConfig::default()
        },
        1,
    );
    let start = Instant::now();
    let results = engine.run_all(jobs);
    let elapsed = start.elapsed();

    let mut rows = vec![vec![
        "session".to_string(),
        "rounds".to_string(),
        "causal path".to_string(),
    ]];
    for r in &results {
        rows.push(vec![
            r.name.clone(),
            r.result.rounds.to_string(),
            r.result
                .path()
                .iter()
                .map(|p| format!("P{}", p.raw()))
                .collect::<Vec<_>>()
                .join("→"),
        ]);
    }
    print!("{}", render_table(&rows));

    let stats = engine.stats();
    println!(
        "\n{total} sessions in {elapsed:?} on {workers} workers \
         ({:.1} sessions/s)",
        total as f64 / elapsed.as_secs_f64()
    );
    println!(
        "executions: {} | cache: {} hits / {} misses ({:.0}% hit rate, {} entries)",
        stats.executions,
        stats.cache_hits,
        stats.cache_misses,
        100.0 * stats.cache_hit_rate(),
        stats.cache_entries
    );
    println!(
        "wall-batches: {} | per-worker tasks: {:?} | inline (help-first) tasks: {} | peak pending: {}",
        stats.wall_batches, stats.tasks_per_worker, stats.inline_tasks, stats.peak_pending
    );

    // Machine-readable summary: one `AID-MULTISESSION {json}` line, so bench
    // harnesses can scrape cache hit-rate and per-worker utilization without
    // parsing the human tables above.
    let per_worker = stats
        .tasks_per_worker
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let total_tasks: u64 = stats.tasks_per_worker.iter().sum::<u64>() + stats.inline_tasks;
    let utilization: Vec<String> = stats
        .tasks_per_worker
        .iter()
        .map(|&t| format!("{:.4}", t as f64 / total_tasks.max(1) as f64))
        .collect();
    println!(
        "AID-MULTISESSION {{\"sessions\":{},\"workers\":{},\"elapsed_s\":{:.6},\
         \"sessions_per_s\":{:.3},\"executions\":{},\"cache_hits\":{},\
         \"cache_misses\":{},\"cache_hit_rate\":{:.4},\"cache_entries\":{},\
         \"cache_evictions\":{},\"wall_batches\":{},\"tasks_per_worker\":[{}],\
         \"worker_utilization\":[{}],\"inline_tasks\":{},\"peak_pending\":{}}}",
        total,
        workers,
        elapsed.as_secs_f64(),
        total as f64 / elapsed.as_secs_f64(),
        stats.executions,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_hit_rate(),
        stats.cache_entries,
        stats.cache_evictions,
        stats.wall_batches,
        per_worker,
        utilization.join(","),
        stats.inline_tasks,
        stats.peak_pending
    );
}
