//! Standing queries over the wire: a subscribed watch fed the corpus as
//! chunked tails converges to the *identical* `DiscoveryResult` as a
//! one-shot upload + submit over the same bytes, stat-neutral tails after
//! convergence are answered from the watcher's cache without touching the
//! engine, and the per-client watch bound, `Synth` refusal, and unknown
//! watch ids are all typed outcomes.

use aid_cases::{all_cases, collect_logs_sized, CaseStudy};
use aid_core::DiscoveryResult;
use aid_serve::{
    Admission, AidClient, AnalysisSpec, ErrorCode, InProcConnector, OverloadScope, ProgramSpec,
    ServeConfig, Server, SubmitSpec, WatchSpec,
};
use aid_trace::{codec, Outcome, Trace, TraceSet};
use aid_watch::WatchEvent;

fn case_watch_spec(case: &CaseStudy, name: &str) -> WatchSpec {
    let mut spec = WatchSpec::new(
        name,
        AnalysisSpec::Case {
            name: case.name.to_string(),
        },
        ProgramSpec::Case {
            name: case.name.to_string(),
        },
    );
    spec.runs_per_round = case.runs_per_round as u32;
    spec
}

/// The convergence a tick reported, whatever event carried it.
fn converged_result(events: &[WatchEvent]) -> Option<&DiscoveryResult> {
    events.iter().rev().find_map(|e| match e {
        WatchEvent::Converged { result, .. } => Some(result),
        WatchEvent::RootChanged { result, .. } => Some(result),
        _ => None,
    })
}

/// A tail that moves no predicate statistic: a replay of a successful run
/// already in the corpus. Site stability, duration envelopes, unique
/// returns, and every candidate's counts are preserved, so streaming it
/// after convergence must be answered from the watcher's cached result.
fn stat_neutral_tail(set: &TraceSet) -> String {
    let replay: Vec<Trace> = set
        .traces
        .iter()
        .find(|t| matches!(t.outcome, Outcome::Success))
        .cloned()
        .into_iter()
        .collect();
    assert!(!replay.is_empty(), "the corpus has successful runs");
    codec::encode(&TraceSet {
        methods: set.methods.clone(),
        objects: set.objects.clone(),
        channels: set.channels.clone(),
        traces: replay,
    })
}

/// One-shot over the same corpus bytes through the ordinary upload +
/// submit path on a fresh connection to the same server.
fn one_shot(connector: &InProcConnector, case: &CaseStudy, encoded: &str) -> DiscoveryResult {
    let mut client = AidClient::connect_in_proc(connector).expect("connect");
    client.hello("one-shot").expect("hello");
    let report = client
        .upload(
            encoded.as_bytes(),
            4096,
            AnalysisSpec::Case {
                name: case.name.to_string(),
            },
        )
        .expect("upload");
    assert!(report.analyzed);
    let mut spec = SubmitSpec::new(
        format!("{}/one-shot", case.name),
        ProgramSpec::Case {
            name: case.name.to_string(),
        },
    );
    spec.runs_per_round = case.runs_per_round as u32;
    let Admission::Accepted(session) = client.submit(&spec).expect("submit") else {
        panic!("fresh connection refused");
    };
    let (result, _) = client.wait(session).expect("wait");
    client.goodbye().expect("goodbye");
    result
}

/// A watch fed the corpus in two tails (the cut splits a line) converges
/// to the identical result as a one-shot submission, and a stat-neutral
/// tail afterwards is answered from the cache with zero engine traffic.
#[test]
fn streamed_watch_equals_one_shot_then_idles_on_cache() {
    let (server, connector) = Server::start_in_proc(ServeConfig::default());
    let case = all_cases().remove(0);
    let set = collect_logs_sized(&case, 10, 10);
    let encoded = codec::encode(&set);

    let direct = one_shot(&connector, &case, &encoded);

    let mut client = AidClient::connect_in_proc(&connector).expect("connect");
    client.hello("watcher").expect("hello");
    let Admission::Accepted(watch) = client
        .subscribe(&case_watch_spec(&case, "streamed"))
        .expect("subscribe")
    else {
        panic!("fresh connection refused a watch");
    };

    // Two tails; the cut lands mid-line so the decoder must carry state.
    let cut = encoded.len() / 2 + 3;
    client
        .stream_tail(watch, &encoded.as_bytes()[..cut], false)
        .expect("first tail");
    let report = client
        .stream_tail(watch, &encoded.as_bytes()[cut..], true)
        .expect("final tail");
    assert_eq!(report.traces, set.traces.len() as u64);
    let streamed = converged_result(&report.events).expect("full corpus converges");
    assert_eq!(
        *streamed, direct,
        "{}: streamed-tail discovery must equal the one-shot result",
        case.name
    );

    // Post-convergence economy: a stat-neutral tail republishes the
    // cached convergence without a single new engine execution.
    let before = server.stats();
    let idle_tail = stat_neutral_tail(&set);
    let report = client
        .stream_tail(watch, idle_tail.as_bytes(), true)
        .expect("stat-neutral tail");
    match report.events.as_slice() {
        [WatchEvent::Converged {
            result,
            resubmitted,
            reprobed,
            ..
        }] => {
            assert_eq!(result, &direct, "the cached convergence is republished");
            assert!(!resubmitted, "no re-discovery for a stat-neutral tail");
            assert_eq!(*reprobed, 0);
        }
        other => panic!("expected one cached Converged, got {other:?}"),
    }
    let after = server.stats();
    assert_eq!(
        after.executions, before.executions,
        "a stat-neutral tail costs zero intervention runs"
    );
    assert!(after.view_skipped > before.view_skipped);

    assert!(client.unsubscribe(watch).expect("unsubscribe"));
    client.goodbye().expect("goodbye");
    let stats = server.shutdown();
    assert_eq!(stats.watches_subscribed, 1);
    assert!(stats.watch_events >= 2, "convergence + cached republish");
    assert_eq!(stats.protocol_errors, 0);
}

/// The per-client watch bound refuses with `Overloaded { scope: Client }`
/// and frees on unsubscribe; `Synth` programs are `Unwatchable`; tails to
/// unknown ids are `UnknownWatch` (and do not kill the connection).
#[test]
fn watch_admission_and_typed_refusals() {
    let config = ServeConfig {
        max_watches_per_client: 1,
        ..ServeConfig::default()
    };
    let (server, connector) = Server::start_in_proc(config);
    let case = all_cases().remove(0);
    let mut client = AidClient::connect_in_proc(&connector).expect("connect");
    client.hello("bounded").expect("hello");

    let Admission::Accepted(watch) = client
        .subscribe(&case_watch_spec(&case, "first"))
        .expect("subscribe")
    else {
        panic!("the single slot is free");
    };
    let second = client
        .subscribe(&case_watch_spec(&case, "second"))
        .expect("subscribe");
    let Admission::Rejected(overload) = second else {
        panic!("the single slot is occupied: {second:?}");
    };
    assert_eq!(overload.scope, OverloadScope::Client);
    assert_eq!(overload.in_flight, 1);
    assert_eq!(overload.limit, 1);

    // A tail to an id the connection never subscribed is a typed error
    // that leaves the connection usable.
    match client.stream_tail(watch + 17, b"", false) {
        Err(aid_serve::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::UnknownWatch)
        }
        other => panic!("expected UnknownWatch, got {other:?}"),
    }

    // Unsubscribe frees the slot.
    assert!(client.unsubscribe(watch).expect("unsubscribe"));
    assert!(!client
        .unsubscribe(watch)
        .expect("second unsubscribe is a no-op"));

    // The synthetic oracle consumes no trace stream — refused even with a
    // free slot.
    let synth = WatchSpec::new(
        "synth",
        AnalysisSpec::Default,
        ProgramSpec::Synth { app_seed: 3 },
    );
    match client.subscribe(&synth) {
        Err(aid_serve::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::Unwatchable)
        }
        other => panic!("expected Unwatchable, got {other:?}"),
    }

    // The freed slot admits a retry.
    let Admission::Accepted(_) = client
        .subscribe(&case_watch_spec(&case, "retry"))
        .expect("subscribe")
    else {
        panic!("slot freed by unsubscribe");
    };

    client.goodbye().expect("goodbye");
    let stats = server.shutdown();
    assert_eq!(stats.rejected_client, 1);
    assert_eq!(stats.watches_subscribed, 2);
}

/// An idle connection under the reactor costs a registered waker and
/// nothing else: no handler wakeups fire between frames, yet the
/// connection answers the moment traffic resumes.
#[test]
fn idle_connections_back_off_and_stay_responsive() {
    let (server, connector) = Server::start_in_proc(ServeConfig::default());
    let mut client = AidClient::connect_in_proc(&connector).expect("connect");
    client.hello("idler").expect("hello");

    // Sit silent long enough that the old loop would have burned several
    // read-timeout wakeups.
    std::thread::sleep(std::time::Duration::from_millis(450));
    let stats = client.stats().expect("the connection still answers");
    // Exactly one dispatch per request so far (Hello, Metrics): silence
    // dispatched nothing.
    assert_eq!(
        stats.handler_dispatches, 2,
        "idle silence cost handler wakeups: {stats:?}"
    );

    // Still responsive after the silence, and each request costs exactly
    // one further dispatch.
    let again = client.stats().expect("stats after idling");
    assert_eq!(again.handler_dispatches, 3);

    client.goodbye().expect("goodbye");
    server.shutdown();
}

/// Tail appends are bounded *per frame*, not charged against the
/// cumulative upload quota that only `BeginUpload` resets — the
/// regression where a long-lived watcher eventually hit `UploadTooLarge`
/// no matter how small its tails were. A watcher streaming far more than
/// `max_upload_bytes` in total stays admitted; only an individual
/// oversized frame is refused, and the refusal doesn't kill the watch.
#[test]
fn tail_stream_total_is_unbounded_only_frames_are_capped() {
    let case = all_cases().remove(0);
    let set = collect_logs_sized(&case, 10, 10);
    let encoded = codec::encode(&set);

    // A quota far below the corpus: the old cumulative accounting would
    // refuse the stream partway through.
    let quota = 2048u64;
    assert!(
        encoded.len() as u64 > 4 * quota,
        "corpus must dwarf the quota for the regression to bite"
    );
    let config = ServeConfig {
        max_upload_bytes: quota,
        ..ServeConfig::default()
    };
    let (server, connector) = Server::start_in_proc(config);
    let mut client = AidClient::connect_in_proc(&connector).expect("connect");
    client.hello("long-lived-watcher").expect("hello");
    let Admission::Accepted(watch) = client
        .subscribe(&case_watch_spec(&case, "unbounded-total"))
        .expect("subscribe")
    else {
        panic!("fresh connection refused a watch");
    };

    // The whole corpus in sub-quota tails; every one must be admitted
    // even after the cumulative total passes the quota many times over.
    let chunks: Vec<&[u8]> = encoded.as_bytes().chunks(512).collect();
    let mut report = None;
    for (i, chunk) in chunks.iter().enumerate() {
        let fin = i + 1 == chunks.len();
        report =
            Some(client.stream_tail(watch, chunk, fin).unwrap_or_else(|e| {
                panic!("tail {i} refused after {} total bytes: {e:?}", i * 512)
            }));
    }
    let report = report.expect("corpus is non-empty");
    assert_eq!(report.traces, set.traces.len() as u64);
    converged_result(&report.events).expect("full corpus converges");

    // A single frame over the bound is a typed refusal…
    let oversized = vec![b'x'; quota as usize + 1];
    match client.stream_tail(watch, &oversized, false) {
        Err(aid_serve::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::UploadTooLarge)
        }
        other => panic!("expected UploadTooLarge, got {other:?}"),
    }

    // …that leaves the watch (and the connection) alive.
    let idle_tail = stat_neutral_tail(&set);
    client
        .stream_tail(watch, idle_tail.as_bytes(), true)
        .expect("watch survives the refused frame");

    assert!(client.unsubscribe(watch).expect("unsubscribe"));
    client.goodbye().expect("goodbye");
    let stats = server.shutdown();
    assert_eq!(
        stats.protocol_errors, 0,
        "the refusal is typed, not a protocol error"
    );
}
