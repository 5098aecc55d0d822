//! `aid_engine` — a concurrent multi-session discovery engine with a
//! memoizing intervention cache.
//!
//! AID's cost model is dominated by re-executions (§5 of the paper exists
//! to minimize intervention *rounds*). This crate attacks the remaining
//! axes the library alone leaves on the table:
//!
//! * **Within a round** — a round is `runs_per_round` independent
//!   re-executions; [`PooledSimExecutor`] fans them (and, via
//!   [`aid_core::BatchExecutor`], the runs of whole multi-round batches)
//!   across a fixed [`WorkerPool`] of OS threads, joining records by
//!   submission index so results never depend on completion order.
//! * **Across rounds and sessions** — every execution here is a pure
//!   function of (program fingerprint, intervention set, seed), so the
//!   sharded [`InterventionCache`] memoizes single runs; repeated probes
//!   (TAGT's contamination re-tests) and repeated sessions over the same
//!   program never re-execute.
//! * **Across programs** — a [`ShardedEngine`] schedules many named
//!   [`DiscoveryJob`]s over one pool with bounded backpressure and reports
//!   an [`EngineStats`] telemetry snapshot (executions run, cache hits,
//!   wall-batch counts, per-worker utilization).
//!
//! Determinism is structural, not incidental: a session's
//! [`DiscoveryResult`](aid_core::DiscoveryResult) is identical whatever the
//! worker count — `tests/determinism.rs` pins this for all six case
//! studies, and the seed schedule of [`PooledSimExecutor`] matches the
//! serial `aid_sim::SimExecutor` exactly.
//!
//! ```
//! use aid_engine::{DiscoveryJob, ShardedEngine};
//! use aid_core::{figure4_ground_truth, Strategy};
//! use aid_causal::AcDag;
//! use std::sync::Arc;
//!
//! // Queue the Figure 4 walkthrough twice: the second session is answered
//! // entirely from the intervention cache. (The AC-DAG mirrors the ground
//! // truth's topological structure, as §4 guarantees.)
//! let truth = figure4_ground_truth();
//! let mut edges: Vec<_> = truth
//!     .parent
//!     .iter()
//!     .enumerate()
//!     .filter_map(|(q, p)| p.map(|p| (truth.candidates()[p], truth.candidates()[q])))
//!     .collect();
//! edges.extend(truth.candidates().iter().map(|&c| (c, truth.failure())));
//! let dag = Arc::new(AcDag::from_edges(&truth.candidates(), truth.failure(), &edges));
//! let engine = ShardedEngine::with_workers(2);
//! let results = engine.run_all(vec![
//!     DiscoveryJob::oracle("first", Arc::clone(&dag), truth.clone(), Strategy::Aid, 7),
//!     DiscoveryJob::oracle("second", dag, truth, Strategy::Aid, 7),
//! ]);
//! assert_eq!(results[0].result, results[1].result);
//! let stats = engine.stats();
//! assert!(stats.cache_hits > 0, "the repeat session hit the cache");
//! ```

pub mod cache;
pub mod executor;
pub mod pool;
pub mod session;
pub mod workload;

pub use cache::{CacheKey, CacheStats, InterventionCache, Lease, Leased, PendingSlot};
pub use executor::{
    sim_fingerprint, truth_fingerprint, CachedOracleExecutor, EngineCounters, PooledSimExecutor,
};
pub use pool::WorkerPool;
pub use session::{
    job_fingerprint, jump_hash, DiscoveryJob, EngineConfig, EngineHandle, EngineStats, JobSource,
    Saturated, Session, SessionError, SessionErrorKind, SessionPoll, SessionResult, ShardedEngine,
};

/// The engine shares these across OS threads; pin the auto-traits at
/// compile time so a regression (e.g. an `Rc` slipping into the program
/// model) fails the build here, with context, rather than deep inside a
/// spawn call.
#[allow(dead_code)]
fn assert_shared_types_are_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<aid_sim::Simulator>();
    check::<aid_sim::Program>();
    check::<aid_sim::InterventionPlan>();
    check::<aid_predicates::PredicateCatalog>();
    check::<aid_causal::AcDag>();
    check::<aid_core::GroundTruth>();
    check::<InterventionCache>();
    check::<WorkerPool>();
    check::<EngineHandle>();
}
