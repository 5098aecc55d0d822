//! `InterventionCache` under *tiny* capacities: segmented eviction must
//! never break the single-flight protocol or the telemetry accounting.
//!
//! * A waiter's rendezvous lives in the pending slot itself, so flushing
//!   the shard underneath an in-flight key must not strand the waiter.
//! * Every real execution is a cache miss that ran, so `executions ==
//!   cache_misses` stays true across arbitrarily many evictions — eviction
//!   trades speed, never consistency.
//! * Engine sessions stay deterministic when the cache is too small to
//!   retain anything useful.

use aid_causal::AcDag;
use aid_core::{figure4_ground_truth, ExecutionRecord, GroundTruth, Strategy};
use aid_engine::{CacheKey, DiscoveryJob, EngineConfig, InterventionCache, Leased, ShardedEngine};
use aid_predicates::PredicateId;
use aid_util::DenseBitSet;
use std::sync::Arc;

fn rec(failed: bool) -> ExecutionRecord {
    ExecutionRecord {
        failed,
        observed: DenseBitSet::new(4),
    }
}

fn p(i: u32) -> PredicateId {
    PredicateId::from_raw(i)
}

#[test]
fn waiters_survive_a_flush_of_their_pending_shard() {
    let cache = Arc::new(InterventionCache::with_capacity(1, 2));
    let key = CacheKey::new(7, &[p(0)], 1);
    let lease = match cache.lease(key.clone()) {
        Leased::Owner(l) => l,
        _ => panic!("first lease must own"),
    };
    let pending = match cache.lease(key.clone()) {
        Leased::Waiter(s) => s,
        _ => panic!("second lease must wait"),
    };
    let waiter = std::thread::spawn(move || pending.wait());
    // Blow the single shard several times over while the key is in flight.
    for seed in 100..200u64 {
        cache.insert(CacheKey::new(7, &[p(0)], seed), rec(false));
    }
    assert!(cache.stats().evictions > 0, "the shard must have flushed");
    lease.fill(rec(true));
    assert_eq!(
        waiter.join().unwrap(),
        Some(rec(true)),
        "the flush must not strand the coalesced waiter"
    );
    // The filled record is retrievable right after the fill (the fill wrote
    // it back post-flush); later inserts may evict it again — that is a
    // speed concern, not a correctness one.
    assert_eq!(cache.get(&key), Some(rec(true)));
}

#[test]
fn single_flight_still_coalesces_after_eviction() {
    let cache = Arc::new(InterventionCache::with_capacity(2, 4));
    // Fill → evict → the key must lease as a fresh single-flight owner
    // (not a stale Ready and not a stuck Waiter).
    for round in 0..50u64 {
        let key = CacheKey::new(9, &[p(1), p(2)], round);
        match cache.lease(key.clone()) {
            Leased::Owner(l) => l.fill(rec(round % 2 == 0)),
            _ => panic!("round {round}: evicted key must lease as owner"),
        }
        // Re-lease immediately: now it must be Ready.
        match cache.lease(key) {
            Leased::Ready(r) => assert_eq!(r, rec(round % 2 == 0)),
            _ => panic!("round {round}: just-filled key must be ready"),
        }
    }
    let stats = cache.stats();
    assert!(stats.evictions > 0, "tiny capacity must evict: {stats:?}");
    assert_eq!(stats.misses, 50, "every round missed once");
    assert_eq!(stats.hits, 50, "every round hit once");
    assert_eq!(stats.coalesced, 0);
    assert!(
        stats.entries <= 4 + 2,
        "entries {} must stay near 4",
        stats.entries
    );
}

/// The Figure 4(a) AC-DAG (mirrors `aid_engine::session` tests).
fn figure4_dag(truth: &GroundTruth) -> AcDag {
    let edges = vec![
        (p(0), p(1)),
        (p(1), p(2)),
        (p(2), p(3)),
        (p(3), p(4)),
        (p(4), p(5)),
        (p(2), p(6)),
        (p(6), p(7)),
        (p(7), p(8)),
        (p(6), p(10)),
        (p(5), p(9)),
        (p(10), p(9)),
        (p(9), p(11)),
        (p(5), p(11)),
        (p(8), p(11)),
    ];
    AcDag::from_edges(&truth.candidates(), truth.failure(), &edges)
}

#[test]
fn tiny_capacity_engine_stays_deterministic_and_consistent() {
    let truth = figure4_ground_truth();
    let dag = Arc::new(figure4_dag(&truth));
    let job =
        |name: &str| DiscoveryJob::oracle(name, Arc::clone(&dag), truth.clone(), Strategy::Aid, 7);

    // A capacity far below one session's working set: almost nothing is
    // retained between sessions.
    let engine = ShardedEngine::new(
        EngineConfig {
            workers: 2,
            cache_shards: 2,
            cache_capacity: 4,
            max_pending: 4,
        },
        1,
    );
    let r1 = engine.run_all(vec![job("first")]).remove(0);
    let r2 = engine.run_all(vec![job("second")]).remove(0);
    let r3 = engine.run_all(vec![job("third")]).remove(0);
    assert_eq!(r1.result, r2.result, "eviction must not change answers");
    assert_eq!(r2.result, r3.result);
    let causal: Vec<u32> = r1.result.causal.iter().map(|q| q.raw()).collect();
    assert_eq!(causal, vec![0, 1, 10], "the Figure 4 ground truth");

    let stats = engine.stats();
    assert!(
        stats.cache_evictions > 0,
        "a 4-entry cache must evict across three sessions: {stats:?}"
    );
    assert!(
        stats.cache_entries <= 4 + 2,
        "entries {} must stay near the bound",
        stats.cache_entries
    );
    // The accounting identity eviction must preserve: every real execution
    // is exactly one cache miss that ran (hits and coalesced waits never
    // execute), no matter how many times the shards were flushed.
    assert_eq!(
        stats.executions, stats.cache_misses,
        "executions must equal misses: {stats:?}"
    );
    // With almost no retention, the repeat sessions mostly re-execute:
    // strictly more executions than one cold session needs.
    let reference = ShardedEngine::new(
        EngineConfig {
            workers: 2,
            cache_shards: 2,
            cache_capacity: 1 << 20,
            max_pending: 4,
        },
        1,
    );
    let cold = reference.run_all(vec![job("cold")]).remove(0);
    assert_eq!(cold.result, r1.result);
    let full = reference.stats();
    assert!(
        stats.executions > full.executions,
        "tiny cache {} vs roomy cache {} executions",
        stats.executions,
        full.executions
    );
    assert_eq!(full.executions, full.cache_misses);
}
