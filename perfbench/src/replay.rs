//! In-process recomputation of the served inputs through the library's
//! public functions: the reference results every served op is checked
//! against, and the per-layer replay spans of a traced run.

use crate::workload::{Item, Served, Workload, CHUNK, DISCOVERY_SEED, FIRST_SEED, PRUNE_QUORUM};
use aid_causal::{AcDagBuilder, TypeAwarePolicy};
use aid_core::Strategy;
use aid_engine::{DiscoveryJob, EngineConfig, ShardedEngine};
use aid_serve::ServeConfig;
use aid_sim::Simulator;
use aid_store::{StoreConfig, TraceStore};
use aid_watch::{WatchConfig, Watcher};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An engine built like the server's but with one worker: on a small
/// virtual machine a burst that loads every core slows whatever runs
/// next, such as the following benchmark run. A session's CPU cost does
/// not depend on how many workers share it.
fn engine() -> ShardedEngine {
    let serve = ServeConfig::default();
    ShardedEngine::new(
        EngineConfig {
            workers: 1,
            ..serve.engine
        },
        serve.engine_shards,
    )
}

/// The simulator the server rebuilds from the scenario's recipe.
fn simulator(item: &Item) -> Arc<Simulator> {
    let program = aid_lab::build(&item.scenario.spec).program;
    Arc::new(Simulator::new(program).with_backend(ServeConfig::default().backend))
}

/// A store configured as the server configures an upload's.
fn store_config(item: &Item) -> StoreConfig {
    StoreConfig {
        extraction: item.scenario.config.clone(),
        ..StoreConfig::default()
    }
}

/// Ingests the corpus in upload-sized chunks into a fresh store.
fn ingested(item: &Item) -> TraceStore {
    let mut store = TraceStore::new(store_config(item));
    for chunk in item.encoded.as_bytes().chunks(CHUNK) {
        store.ingest_bytes(chunk);
    }
    store.finish_ingest();
    store
}

/// The discovery job an upload-then-submit session runs, from a
/// refreshed store.
fn session_job(item: &Item, store: &TraceStore) -> DiscoveryJob {
    let scenario = &item.scenario;
    let snapshot = store
        .snapshot()
        .expect("lab corpora hold failing runs, so refresh publishes an analysis");
    let mut job = snapshot.discovery_job(
        scenario.name.clone(),
        simulator(item),
        scenario.runs_per_round,
        FIRST_SEED,
        Strategy::Aid,
        DISCOVERY_SEED,
    );
    job.options = aid_serve::protocol::options_from_wire(PRUNE_QUORUM);
    job
}

fn served(result: &aid_core::DiscoveryResult) -> Served {
    Served {
        causal: result.causal.iter().map(|p| p.raw()).collect(),
        rounds: result.rounds,
    }
}

/// Recomputes every listed item in-process (`TraceStore` →
/// `StoreSnapshot::discovery_job` → `ShardedEngine`); an item whose
/// session fails gets the error instead.
pub fn reference(items: &[Item], indices: &[usize]) -> Vec<Result<Served, String>> {
    let engine = engine();
    let sessions: Vec<_> = indices
        .iter()
        .map(|&i| {
            let mut store = ingested(&items[i]);
            store.refresh();
            engine.submit(session_job(&items[i], &store))
        })
        .collect();
    sessions
        .into_iter()
        .map(|s| {
            s.join()
                .map(|r| served(&r.result))
                .map_err(|e| format!("in-process session failed: {e}"))
        })
        .collect()
}

/// Mean per-op time of each in-process layer call, over a sample of the
/// workload's scenarios.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplaySpans {
    /// Scenarios replayed.
    pub items: usize,
    /// Encoded corpus bytes decoded.
    pub decoded_bytes: u64,
    /// Total `aid_trace::codec::decode` time.
    pub decode: Duration,
    /// `TraceStore::ingest_bytes` over upload chunks + `finish_ingest`.
    pub ingest: Duration,
    /// `TraceStore::refresh`.
    pub refresh: Duration,
    /// `aid_predicates::extract`.
    pub extract: Duration,
    /// `aid_sd::SdReport::from_extraction`.
    pub sd: Duration,
    /// `aid_causal::AcDagBuilder` over the failed runs.
    pub acdag: Duration,
    /// `ShardedEngine::submit` + `Session::wait`, with the cache in the
    /// state the workload's ops find it in.
    pub session: Duration,
    /// `Watcher::tick` over every tail of a standing query (warm cache).
    pub tick: Duration,
}

impl ReplaySpans {
    /// Mean milliseconds per op of a total.
    pub fn per_op_ms(&self, total: Duration) -> f64 {
        total.as_secs_f64() * 1e3 / self.items.max(1) as f64
    }

    /// Decode throughput in MB/s (10^6 bytes).
    pub fn decode_mb_per_s(&self) -> f64 {
        self.decoded_bytes as f64 / 1e6 / self.decode.as_secs_f64().max(1e-9)
    }
}

fn time<T>(total: &mut Duration, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *total += started.elapsed();
    out
}

/// Replays `indices` one at a time through each layer's public entry
/// point and times every call.
pub fn spans(workload: Workload, items: &[Item], indices: &[usize]) -> ReplaySpans {
    let engine = engine();
    let mut s = ReplaySpans {
        items: indices.len(),
        ..ReplaySpans::default()
    };
    for &i in indices {
        let item = &items[i];
        let encoded = &item.encoded;
        s.decoded_bytes += encoded.len() as u64;
        let set = time(&mut s.decode, || aid_trace::codec::decode(encoded))
            .expect("generated corpora decode");

        let config = &item.scenario.config;
        let extraction = time(&mut s.extract, || aid_predicates::extract(&set, config));
        let sd = time(&mut s.sd, || aid_sd::SdReport::from_extraction(&extraction));
        time(&mut s.acdag, || {
            let candidates = sd.aid_candidates(&extraction.catalog, extraction.failure);
            let mut builder = AcDagBuilder::new(&candidates, extraction.failure);
            for run in extraction.observations.iter().filter(|o| o.failed) {
                builder.add_run(&extraction.catalog, run, &TypeAwarePolicy);
            }
            builder.build()
        });

        let mut store = time(&mut s.ingest, || ingested(item));
        time(&mut s.refresh, || store.refresh().is_some());

        // A `cold` op finds the cache empty; the others find it filled by
        // the set-up pass, so their session is timed on a second run.
        if workload != Workload::Cold {
            engine.submit(session_job(item, &store)).wait();
        }
        let job = session_job(item, &store);
        time(&mut s.session, || engine.submit(job).wait());

        if workload == Workload::Standing {
            watch_ticks(item, &engine, None);
            watch_ticks(item, &engine, Some(&mut s.tick));
        }
    }
    s
}

/// Streams an item's tails and neutral tail through an in-process
/// watcher, ticking after each, optionally timing the ticks.
fn watch_ticks(item: &Item, engine: &ShardedEngine, mut total: Option<&mut Duration>) {
    let scenario = &item.scenario;
    let config = WatchConfig {
        store: store_config(item),
        strategy: Strategy::Aid,
        discovery_seed: DISCOVERY_SEED,
        runs_per_round: scenario.runs_per_round,
        first_seed: FIRST_SEED,
        prune_quorum: PRUNE_QUORUM as usize,
        max_probe_runs: None,
        name: scenario.name.clone(),
    };
    let mut watcher = Watcher::new(config, simulator(item), engine.handle());
    // As the server does: end-of-stream flushes only after the last
    // corpus tail and after the neutral tail; the other cuts split lines.
    let last = item.tails().len() - 1;
    let tails = item.tails().enumerate().map(|(i, t)| (t, i == last));
    for (tail, fin) in tails.chain([(item.neutral.as_bytes(), true)]) {
        watcher.push_bytes(tail);
        if fin {
            watcher.finish_tail();
        }
        let started = Instant::now();
        watcher.tick().expect("in-process watcher ticks");
        if let Some(total) = total.as_deref_mut() {
            *total += started.elapsed();
        }
    }
}
