//! # AID — Causality-Guided Adaptive Interventional Debugging
//!
//! A Rust implementation of *Fariha, Nath, Meliou. "Causality-Guided
//! Adaptive Interventional Debugging", SIGMOD 2020*: given successful and
//! failed executions of an intermittently failing concurrent application,
//! AID pinpoints the **root cause** of the failure and produces a **causal
//! explanation path** from the root cause to the failure, using far fewer
//! re-executions than adaptive group testing.
//!
//! ```
//! use aid::prelude::*;
//!
//! // 1. A concurrent program with an intermittent atomicity violation.
//! let mut b = ProgramBuilder::new("demo");
//! let flag = b.object("flag", 0);
//! let len = b.object("len", 10);
//! let slot = b.object("slot", 10);
//! let reader = b.method("Reader", |m| {
//!     m.write(flag, Expr::Const(1))
//!         .read(len, Reg(0))
//!         .jitter(5, 40)
//!         .throw_if_obj(slot, Cmp::Gt, Expr::Reg(Reg(0)), "IndexOutOfRange");
//! });
//! let writer = b.method("Writer", |m| {
//!     m.jitter(1, 10).write(len, Expr::Const(20)).write(slot, Expr::Const(11));
//! });
//! let writer_entry = b.method("WriterEntry", |m| {
//!     m.wait_until(Expr::Obj(flag), Cmp::Eq, Expr::Const(1)).jitter(0, 30).call(writer);
//! });
//! let main = b.method("Main", |m| {
//!     m.spawn_named("t1").spawn_named("t2").join(1).join(2);
//! });
//! b.thread("main", main, true);
//! b.thread("t1", reader, false);
//! b.thread("t2", writer_entry, false);
//! let program = b.build();
//!
//! // 2. Collect labeled runs, analyze, and discover the causal path.
//! let sim = Simulator::new(program);
//! let logs = sim.collect_balanced(30, 30, 20_000);
//! let analysis = analyze(&logs, &ExtractionConfig::default());
//! let mut executor = SimExecutor::new(
//!     sim, analysis.extraction.catalog.clone(), analysis.extraction.failure, 10, 1_000_000,
//! );
//! let result = discover(&analysis.dag, &mut executor, Strategy::Aid, 0);
//! assert!(result.root_cause().is_some());
//! ```
//!
//! The same pipeline runs as a regular integration test in
//! `tests/smoke.rs`. See `README.md` for the crate map, `DESIGN.md` for the
//! system inventory and paper-substitution table, and `EXPERIMENTS.md` for
//! how every table and figure is regenerated.

pub use aid_cases as cases;
pub use aid_causal as causal;
pub use aid_core as core;
pub use aid_engine as engine;
pub use aid_lab as lab;
pub use aid_obs as obs;
pub use aid_predicates as predicates;
pub use aid_sd as sd;
pub use aid_serve as serve;
pub use aid_sim as sim;
pub use aid_store as store;
pub use aid_synth as synth;
pub use aid_theory as theory;
pub use aid_trace as trace;
pub use aid_util as util;
pub use aid_watch as watch;

/// The most common imports for using AID end to end.
pub mod prelude {
    pub use aid_causal::{AcDag, AcDagBuilder, PrecedencePolicy, StartTimePolicy, TypeAwarePolicy};
    pub use aid_core::{
        analyze, analyze_with_policy, discover, discover_with_options, failure_signatures,
        render_explanation, AidAnalysis, BatchExecutor, BudgetExhausted, CountingExecutor,
        DiscoverOptions, DiscoveryResult, ExecutionRecord, Executor, FlakyOracle, GroundTruth,
        OracleExecutor, Strategy,
    };
    pub use aid_engine::{
        DiscoveryJob, EngineConfig, EngineHandle, EngineStats, InterventionCache, JobSource,
        Session, SessionResult, ShardedEngine, WorkerPool,
    };
    pub use aid_lab::{
        check_scenario, corpus_violations, prepare_replay, BugClass, Conformance, LabParams,
        ReplayItem, Scenario, ScenarioReport,
    };
    pub use aid_obs::{
        Counter, Gauge, Histogram, HistogramSnapshot, MetricEntry, MetricValue, MetricsRegistry,
        MetricsSnapshot,
    };
    pub use aid_predicates::{
        evaluate, extract, Extraction, ExtractionConfig, InterventionAction, MethodInstance,
        Predicate, PredicateCatalog, PredicateId, PredicateKind,
    };
    pub use aid_sd::{PredicateScore, SdReport};
    pub use aid_serve::{
        Admission, AidClient, AnalysisSpec, ProgramSpec, ServeConfig, Server, ServerHandle,
        ServerStats, SessionState, SubmitSpec, TailReport, WatchSpec,
    };
    pub use aid_sim::program::{Cmp, Expr, Reg};
    pub use aid_sim::{
        Backend, BytecodeBackend, ExecBackend, InstanceFilter, Intervention, InterventionPlan,
        Program, ProgramBuilder, SimConfig, SimExecutor, Simulator, TreeWalkBackend, VmError,
    };
    pub use aid_store::{
        RetentionPolicy, StoreConfig, StoreSnapshot, StoreView, StreamDecoder, TraceStore,
    };
    pub use aid_trace::{
        AccessKind, FailureSignature, MethodEvent, MethodId, ObjectId, Outcome, ThreadId, Trace,
        TraceSet,
    };
    pub use aid_watch::{WatchConfig, WatchError, WatchEvent, WatchStats, Watcher};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let _ = Strategy::Aid.name();
        let _ = ExtractionConfig::default();
        let _ = format!("{}", Backend::Bytecode);
    }
}
