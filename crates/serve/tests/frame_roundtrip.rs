//! Property tests for the wire protocol: every frame round-trips exactly,
//! every truncation is a typed `Truncated`, and no corruption of any
//! single byte can make decoding panic (it may decode to a different
//! valid frame — e.g. a flipped bit inside a string — but it must always
//! *return*).

// `Strategy` would collide with `proptest::prelude::Strategy`.
use aid_core::{DiscoveryResult, Phase, RoundLog, Strategy as DiscoveryStrategy};
use aid_lab::{BugClass, ScenarioSpec};
use aid_predicates::PredicateId;
use aid_serve::wire::{self, WireError};
use aid_serve::{
    AnalysisSpec, HistogramSnapshot, MetricEntry, MetricValue, MetricsSnapshot, ProgramSpec,
    Request, Response, SessionState,
};
use aid_trace::{FailureSignature, MethodId};
use aid_watch::WatchEvent;
use proptest::prelude::*;

const MAX: usize = wire::DEFAULT_MAX_FRAME_LEN;

/// Sampled raw material for one request: a variant selector, three
/// general-purpose integers, a name, and a byte payload.
type RawRequest = (u8, (u64, u64, u32), Vec<u8>, Vec<u8>);

fn raw_request() -> impl Strategy<Value = RawRequest> {
    (
        0u8..=12,
        (0u64..1 << 48, 0u64..1 << 48, 0u32..1 << 20),
        proptest::collection::vec(0u8..26, 0..12),
        proptest::collection::vec(0u8..=255, 0..64),
    )
}

fn name_from(alpha: &[u8]) -> String {
    alpha.iter().map(|b| (b'a' + b) as char).collect()
}

fn build_request((selector, (a, b, c), alpha, bytes): RawRequest) -> Request {
    let name = name_from(&alpha);
    match selector {
        0 => Request::Hello { client: name },
        1 => Request::BeginUpload {
            analysis: match a % 3 {
                0 => AnalysisSpec::Default,
                1 => AnalysisSpec::Case { name },
                _ => AnalysisSpec::Lab(ScenarioSpec {
                    seed: b,
                    attempt: c % 24,
                    bug_class: BugClass::ALL[(a % 5) as usize],
                    mirrors: (c % 10) as usize,
                    chain: (c % 4) as usize,
                    monitors: (c % 3) as usize,
                    noise_threads: (c % 4) as usize,
                }),
            },
        },
        2 => Request::UploadChunk { bytes },
        3 => Request::FinishUpload,
        4 => {
            // Rotate through all three program-spec variants.
            let program = match a % 3 {
                0 => ProgramSpec::Case { name: name.clone() },
                1 => ProgramSpec::Lab(ScenarioSpec {
                    seed: a,
                    attempt: c % 24,
                    bug_class: BugClass::ALL[(b % 5) as usize],
                    mirrors: (c % 10) as usize,
                    chain: (c % 4) as usize,
                    monitors: (c % 3) as usize,
                    noise_threads: (c % 4) as usize,
                }),
                _ => ProgramSpec::Synth { app_seed: a },
            };
            let strategy = match b % 5 {
                0 => DiscoveryStrategy::Aid,
                1 => DiscoveryStrategy::AidP,
                2 => DiscoveryStrategy::AidPB,
                3 => DiscoveryStrategy::Tagt,
                _ => DiscoveryStrategy::Custom {
                    branch: a % 2 == 0,
                    prune: b % 2 == 0,
                },
            };
            Request::SubmitDiscovery {
                name,
                program,
                strategy,
                discovery_seed: a,
                runs_per_round: c,
                first_seed: b,
                prune_quorum: c % 7,
            }
        }
        5 => Request::Poll { session: c },
        6 => Request::Stream { session: c },
        7 => Request::Metrics,
        8 => Request::Cancel { session: c },
        9 => Request::Subscribe {
            name: name.clone(),
            analysis: match a % 2 {
                0 => AnalysisSpec::Default,
                _ => AnalysisSpec::Lab(ScenarioSpec {
                    seed: b,
                    attempt: c % 24,
                    bug_class: BugClass::ALL[(a % 5) as usize],
                    mirrors: (c % 10) as usize,
                    chain: (c % 4) as usize,
                    monitors: (c % 3) as usize,
                    noise_threads: (c % 4) as usize,
                }),
            },
            program: ProgramSpec::Case { name: name.clone() },
            strategy: if b % 2 == 0 {
                DiscoveryStrategy::Aid
            } else {
                DiscoveryStrategy::Tagt
            },
            discovery_seed: a,
            runs_per_round: c,
            first_seed: b,
            prune_quorum: c % 7,
            retention_traces: a ^ b,
            retention_age: b.wrapping_mul(3),
            max_probe_runs: a.wrapping_add(b),
        },
        10 => Request::StreamTail {
            watch: c,
            bytes,
            fin: a % 2 == 0,
        },
        11 => Request::Unsubscribe { watch: c },
        _ => Request::Goodbye,
    }
}

/// Sampled raw material for one response: a selector, integers, a name,
/// and predicate-id pools for a synthesized discovery result.
type RawResponse = (u8, (u64, u64, u32), Vec<u8>, Vec<u32>, Vec<u32>);

fn raw_response() -> impl Strategy<Value = RawResponse> {
    (
        0u8..=12,
        (0u64..1 << 48, 0u64..1 << 48, 0u32..1 << 20),
        proptest::collection::vec(0u8..26, 0..12),
        proptest::collection::vec(0u32..1 << 16, 0..8),
        proptest::collection::vec(0u32..1 << 16, 0..6),
    )
}

fn predicates(raw: &[u32]) -> Vec<PredicateId> {
    raw.iter().map(|&i| PredicateId::from_raw(i)).collect()
}

fn build_response((selector, (a, b, c), alpha, ids, ids2): RawResponse) -> Response {
    let name = name_from(&alpha);
    match selector {
        0 => Response::HelloOk {
            version: (a % 250) as u8,
            server: name,
        },
        1 => Response::UploadAck {
            traces: a,
            quarantined: b,
            analyzed: c % 2 == 0,
        },
        2 => Response::Submitted { session: c },
        3 => Response::Overloaded {
            scope: match a % 3 {
                0 => aid_serve::OverloadScope::Client,
                1 => aid_serve::OverloadScope::Engine,
                _ => aid_serve::OverloadScope::Draining,
            },
            in_flight: c,
            limit: c / 2,
        },
        4 => {
            let state = match a % 4 {
                0 => SessionState::Pending,
                1 => SessionState::Done(DiscoveryResult {
                    causal: predicates(&ids),
                    spurious: predicates(&ids2),
                    failure: PredicateId::from_raw(c),
                    rounds: (b % 1000) as usize,
                    log: ids
                        .iter()
                        .map(|&i| RoundLog {
                            phase: match i % 3 {
                                0 => Phase::Branch,
                                1 => Phase::Giwp,
                                _ => Phase::Tagt,
                            },
                            intervened: predicates(&ids2),
                            stopped: i % 2 == 0,
                            confirmed: predicates(&ids[..ids.len().min(2)]),
                            pruned: vec![],
                        })
                        .collect(),
                }),
                2 => SessionState::Lost,
                _ => SessionState::Unknown,
            };
            Response::Status { session: c, state }
        }
        5 => Response::Progress {
            session: c,
            executions: a,
            cache_hits: b,
            sessions_completed: a ^ b,
        },
        6 => Response::MetricsReply(MetricsSnapshot {
            entries: vec![
                MetricEntry {
                    name: format!("serve.{name}"),
                    value: MetricValue::Counter(a),
                },
                MetricEntry {
                    name: "serve.active_connections".into(),
                    value: MetricValue::Gauge(b % 17),
                },
                MetricEntry {
                    name: "serve.frame_us".into(),
                    value: MetricValue::Histogram(HistogramSnapshot {
                        count: a,
                        sum: b,
                        max: u64::from(c),
                        buckets: ids
                            .iter()
                            .map(|&i| ((i % 64) as u8, u64::from(i)))
                            .collect(),
                    }),
                },
            ],
        }),
        7 => Response::Cancelled {
            session: c,
            existed: a % 2 == 0,
        },
        8 => Response::Error {
            code: match a % 9 {
                0 => aid_serve::ErrorCode::Malformed,
                1 => aid_serve::ErrorCode::UnknownCase,
                2 => aid_serve::ErrorCode::NoAnalysis,
                3 => aid_serve::ErrorCode::Internal,
                4 => aid_serve::ErrorCode::UploadTooLarge,
                5 => aid_serve::ErrorCode::TooManyConnections,
                6 => aid_serve::ErrorCode::UnknownWatch,
                7 => aid_serve::ErrorCode::Unwatchable,
                _ => aid_serve::ErrorCode::Draining,
            },
            message: name,
        },
        9 => Response::Subscribed { watch: c },
        10 => Response::WatchEvents {
            watch: c,
            traces: a,
            events: ids
                .iter()
                .map(|&i| {
                    let result = DiscoveryResult {
                        causal: predicates(&ids2),
                        spurious: predicates(&ids[..ids.len().min(3)]),
                        failure: PredicateId::from_raw(i),
                        rounds: (i % 50) as usize,
                        log: vec![],
                    };
                    match i % 4 {
                        0 => WatchEvent::Converged {
                            result,
                            reprobed: i ^ 1,
                            skipped: i ^ 2,
                            resubmitted: i % 8 < 4,
                        },
                        1 => WatchEvent::RootChanged {
                            root: (i % 3 == 0).then(|| PredicateId::from_raw(i / 2)),
                            result,
                        },
                        2 => WatchEvent::NewFailureClass {
                            signature: FailureSignature {
                                kind: name_from(&alpha),
                                method: MethodId::from_raw(i),
                            },
                            classes: i % 12,
                        },
                        _ => WatchEvent::BudgetExhausted {
                            probe_runs: a ^ u64::from(i),
                            budget: b ^ u64::from(i),
                        },
                    }
                })
                .collect(),
        },
        11 => Response::Unsubscribed {
            watch: c,
            existed: a % 2 == 0,
        },
        _ => Response::Bye,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// encode → decode is the identity on every request frame, and
    /// consumes exactly the frame.
    #[test]
    fn prop_request_roundtrip(raw in raw_request()) {
        let request = build_request(raw);
        let bytes = request.encode();
        let (back, consumed) = Request::decode(&bytes, MAX)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(back, request);
        prop_assert_eq!(consumed, bytes.len());
    }

    /// encode → decode is the identity on every response frame.
    #[test]
    fn prop_response_roundtrip(raw in raw_response()) {
        let response = build_response(raw);
        let bytes = response.encode();
        let (back, consumed) = Response::decode(&bytes, MAX)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(back, response);
        prop_assert_eq!(consumed, bytes.len());
    }

    /// Every proper prefix of a frame decodes to a typed `Truncated`,
    /// never a panic and never a value.
    #[test]
    fn prop_truncation_is_typed(raw in raw_request(), cut_seed in 0usize..1 << 16) {
        let bytes = build_request(raw).encode();
        let cut = cut_seed % bytes.len();
        match Request::decode(&bytes[..cut], MAX) {
            Err(WireError::Truncated { .. }) => {}
            other => return Err(TestCaseError::fail(format!(
                "cut at {cut}/{}: expected Truncated, got {other:?}", bytes.len()
            ))),
        }
    }

    /// Flipping any single byte never panics the decoder. Header
    /// corruption is always caught with the matching typed error; payload
    /// corruption may decode to a different valid frame (a flipped byte
    /// inside a string is still a string) but must always return.
    #[test]
    fn prop_corruption_never_panics(
        raw in raw_request(),
        pos_seed in 0usize..1 << 16,
        flip in 1u8..=255,
    ) {
        let mut bytes = build_request(raw).encode();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= flip;
        let decoded = Request::decode(&bytes, MAX);
        match pos {
            0..=3 => prop_assert_eq!(
                decoded.unwrap_err(),
                WireError::BadMagic(bytes[..4].try_into().unwrap())
            ),
            4 => prop_assert_eq!(
                decoded.unwrap_err(),
                WireError::UnsupportedVersion(bytes[4])
            ),
            _ => {
                // Kind, length, or payload damage: any typed error (or an
                // accidental different-but-valid frame) is acceptable —
                // reaching this line at all is the property.
                let _ = decoded;
            }
        }
    }

    /// Response frames under the same corruption property.
    #[test]
    fn prop_response_corruption_never_panics(
        raw in raw_response(),
        pos_seed in 0usize..1 << 16,
        flip in 1u8..=255,
    ) {
        let mut bytes = build_response(raw).encode();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= flip;
        let _ = Response::decode(&bytes, MAX);
    }
}
