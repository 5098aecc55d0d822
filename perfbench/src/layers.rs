//! Per-layer metrics of a traced window.

use crate::delta::Delta;
use crate::replay::ReplaySpans;
use crate::report::{metric, Metric};
use crate::workload::CallTimes;
use std::time::Duration;

/// What a traced window observed, from every side.
pub struct TracedWindow<'a> {
    /// Ops served in the traced window.
    pub ops: u64,
    /// Σ client-observed latency of those ops.
    pub op_time: Duration,
    /// Σ intervention rounds the served results report.
    pub rounds: u64,
    /// Client-timed call totals.
    pub calls: CallTimes,
    /// `wait` calls made (one per session op).
    pub waits: u64,
    /// Server registry change across the window.
    pub delta: Delta<'a>,
    /// In-process replay of the same inputs.
    pub replay: ReplaySpans,
    /// `ops_per_s` of the untraced window run just before.
    pub untraced_ops_per_s: f64,
    /// `ops_per_s` of this window.
    pub traced_ops_per_s: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Every per-layer metric of the window.
pub fn per_layer(w: &TracedWindow) -> Vec<Metric> {
    let d = &w.delta;
    let ops = w.ops as f64;
    let per_op = |v: f64| ratio(v, ops);

    // Server frame time: dispatch to handler → responses drained by the
    // reactor. What queue wait and handling leave of it is the time a
    // finished response sat until the reactor woke up for it.
    let frames = d.count("serve.frame_us") as f64;
    let frame_us = d.sum("serve.frame_us") as f64;
    let queue_us = d.sum("serve.handler.queue_wait_us") as f64;
    let handle_us = d.sum("serve.handler.handle_us") as f64;
    let pickup_us = frame_us - queue_us - handle_us;

    let hits = d.shard_counter("cache.hits") as f64;
    let misses = d.shard_counter("cache.misses") as f64;
    let reprobed = d.counter("serve.view.reprobed") as f64;
    let skipped = d.counter("serve.view.skipped") as f64;

    // Layers add up: server frame time covers every request but the
    // engine session behind `wait`, which the client times. Each wait's
    // own Stream frame is inside both, so one mean frame per wait is
    // taken out of the sum.
    let op_us = w.op_time.as_secs_f64() * 1e6;
    let mean_frame_us = ratio(frame_us, frames);
    let accounted_us = frame_us + w.calls.wait.as_secs_f64() * 1e6 - w.waits as f64 * mean_frame_us;
    let unaccounted = ratio(op_us - accounted_us, op_us);

    let r = &w.replay;
    vec![
        metric("ops_traced", ops, "count"),
        metric(
            "serve.frames_per_op",
            per_op(d.counter("serve.frames_in") as f64),
            "count",
        ),
        metric("serve.pickup_us_per_frame", ratio(pickup_us, frames), "us"),
        metric(
            "serve.queue_wait_us_per_frame",
            ratio(queue_us, d.count("serve.handler.queue_wait_us") as f64),
            "us",
        ),
        metric(
            "serve.handle_us_per_frame",
            ratio(handle_us, d.count("serve.handler.handle_us") as f64),
            "us",
        ),
        metric("serve.client.upload_ms", per_op(ms(w.calls.upload)), "ms"),
        metric("serve.client.submit_ms", per_op(ms(w.calls.submit)), "ms"),
        metric("serve.client.wait_ms", per_op(ms(w.calls.wait)), "ms"),
        metric(
            "serve.client.subscribe_ms",
            per_op(ms(w.calls.subscribe)),
            "ms",
        ),
        metric("serve.client.tail_ms", per_op(ms(w.calls.tail)), "ms"),
        metric(
            "serve.client.unsubscribe_ms",
            per_op(ms(w.calls.unsubscribe)),
            "ms",
        ),
        metric(
            "store.refreshes_per_op",
            per_op(d.count("store.refresh_us") as f64),
            "count",
        ),
        metric(
            "store.refresh_ms_per_op",
            per_op(d.sum("store.refresh_us") as f64 / 1e3),
            "ms",
        ),
        metric(
            "engine.executions_per_op",
            per_op(d.shard_counter("executions") as f64),
            "count",
        ),
        metric(
            "engine.exec_ms_per_op",
            per_op(d.shard_sum("exec.run_us") as f64 / 1e3),
            "ms",
        ),
        metric(
            "engine.cache_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        ),
        metric("engine.cache_lookups", hits + misses, "count"),
        metric(
            "engine.lease_wait_ms_per_op",
            per_op(d.shard_sum("cache.lease_wait_us") as f64 / 1e3),
            "ms",
        ),
        metric(
            "sim.vm_steps_per_op",
            per_op(d.counter("sim.vm.steps") as f64),
            "count",
        ),
        metric("core.rounds_per_op", per_op(w.rounds as f64), "count"),
        metric(
            "watch.tick_ms_per_op",
            per_op(d.sum("serve.watch.tick_us") as f64 / 1e3),
            "ms",
        ),
        metric(
            "watch.reprobe_ratio",
            ratio(reprobed, reprobed + skipped),
            "ratio",
        ),
        metric("watch.probe_decisions", reprobed + skipped, "count"),
        metric("replay.items", r.items as f64, "count"),
        metric("trace.decode_mb_per_s", r.decode_mb_per_s(), "MB/s"),
        metric("store.ingest_ms", r.per_op_ms(r.ingest), "ms"),
        metric("store.refresh_ms", r.per_op_ms(r.refresh), "ms"),
        metric("predicates.extract_ms", r.per_op_ms(r.extract), "ms"),
        metric("sd.analyze_ms", r.per_op_ms(r.sd), "ms"),
        metric("causal.acdag_ms", r.per_op_ms(r.acdag), "ms"),
        metric("engine.session_ms", r.per_op_ms(r.session), "ms"),
        metric("watch.tick_ms", r.per_op_ms(r.tick), "ms"),
        metric("op_unaccounted_share", unaccounted, "ratio"),
        metric(
            "tracing_overhead_share",
            1.0 - ratio(w.traced_ops_per_s, w.untraced_ops_per_s),
            "ratio",
        ),
    ]
}
