//! The service's determinism contract: a discovery mediated by the wire
//! protocol, the server's per-connection store, and the shared engine is
//! *identical* — full `DiscoveryResult` equality, i.e. byte-identical
//! intervention schedules — to the same job submitted to an in-process
//! engine over the same corpus. Pinned for all six case studies.
//!
//! Also pins the service's cross-client economics: two clients replaying
//! the same scenario produce one set of executions — the second client is
//! answered entirely from the shared intervention cache.

use aid_cases::{all_cases, analyze_case, collect_logs_sized, CaseStudy};
use aid_core::{DiscoveryResult, Strategy};
use aid_engine::{DiscoveryJob, ShardedEngine};
use aid_serve::{
    Admission, AidClient, AnalysisSpec, InProcConnector, ProgramSpec, ServeConfig, Server,
    SubmitSpec,
};
use aid_sim::Simulator;
use aid_trace::codec;
use std::sync::Arc;

const DISCOVERY_SEED: u64 = 11;
const FIRST_SEED: u64 = 1_000_000;

fn direct_discovery(case: &CaseStudy, set: &aid_trace::TraceSet) -> DiscoveryResult {
    let analysis = analyze_case(case, set);
    let engine = ShardedEngine::with_workers(2);
    engine
        .submit(DiscoveryJob::sim(
            format!("{}/direct", case.name),
            Arc::new(analysis.dag.clone()),
            Arc::new(Simulator::new(case.program.clone())),
            Arc::new(analysis.extraction.catalog.clone()),
            analysis.extraction.failure,
            case.runs_per_round,
            FIRST_SEED,
            Strategy::Aid,
            DISCOVERY_SEED,
        ))
        .wait()
        .result
}

fn served_discovery(
    connector: &InProcConnector,
    case: &CaseStudy,
    encoded: &str,
) -> DiscoveryResult {
    let mut client = AidClient::connect_in_proc(connector).expect("connect");
    client
        .hello(&format!("{}-client", case.name))
        .expect("hello");
    // An awkward chunk size on purpose: chunks split lines anywhere and
    // the server-side streaming decoder must reassemble them.
    let report = client
        .upload(
            encoded.as_bytes(),
            97,
            AnalysisSpec::Case {
                name: case.name.to_string(),
            },
        )
        .expect("upload");
    assert_eq!(report.quarantined, 0, "{}: clean corpus", case.name);
    assert!(report.analyzed, "{}: corpus has failures", case.name);
    let mut spec = SubmitSpec::new(
        format!("{}/served", case.name),
        ProgramSpec::Case {
            name: case.name.to_string(),
        },
    );
    spec.runs_per_round = case.runs_per_round as u32;
    spec.first_seed = FIRST_SEED;
    spec.discovery_seed = DISCOVERY_SEED;
    let admission = client.submit(&spec).expect("submit");
    let Admission::Accepted(session) = admission else {
        panic!("{}: fresh connection was refused: {admission:?}", case.name);
    };
    let (result, _progress) = client.wait(session).expect("wait");
    client.goodbye().expect("goodbye");
    result
}

#[test]
fn served_discovery_equals_in_process_on_all_six_cases() {
    let (server, connector) = Server::start_in_proc(ServeConfig::default());
    let mut served_count = 0;
    for case in all_cases() {
        let set = collect_logs_sized(&case, 12, 12);
        let direct = direct_discovery(&case, &set);
        let served = served_discovery(&connector, &case, &codec::encode(&set));
        assert_eq!(
            served, direct,
            "{}: server-mediated discovery must equal in-process discovery",
            case.name
        );
        served_count += 1;
    }
    let stats = server.shutdown();
    assert_eq!(stats.sessions_delivered, served_count);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.rejections(), 0);
}

#[test]
fn clients_replaying_the_same_scenario_share_the_cache() {
    let (server, connector) = Server::start_in_proc(ServeConfig::default());
    let case = all_cases().remove(0);
    let set = collect_logs_sized(&case, 10, 10);
    let encoded = codec::encode(&set);

    let first = served_discovery(&connector, &case, &encoded);
    let after_first = server.stats();
    let second = served_discovery(&connector, &case, &encoded);
    let after_second = server.stats();

    assert_eq!(first, second, "replay returns the identical result");
    assert_eq!(
        after_second.executions, after_first.executions,
        "the second client re-executed nothing"
    );
    assert!(
        after_second.cache_hits > after_first.cache_hits,
        "the second client was served from the shared intervention cache"
    );
    server.shutdown();
}

/// The determinism contract extended to the synthetic lab: for one
/// scenario of each of the nine bug classes (`seed % 9` stratification,
/// seeds 1..=9), a reactor-mediated discovery — corpus uploaded in
/// chunks, job submitted as a wire `ProgramSpec::Lab`, result streamed
/// back — equals the same job run against an in-process engine, full
/// `DiscoveryResult` equality.
#[test]
fn served_discovery_equals_in_process_on_all_nine_lab_classes() {
    use aid_lab::{prepare_replay, LabParams};

    let items = prepare_replay(&LabParams::default(), 1..=9);
    let classes: std::collections::BTreeSet<_> = items
        .iter()
        .map(|i| i.scenario.spec.bug_class as usize)
        .collect();
    assert_eq!(classes.len(), 9, "seeds 1..=9 cover all nine bug classes");

    let (server, connector) = Server::start_in_proc(ServeConfig::default());
    for item in &items {
        // Direct: same corpus, same analysis config, same job knobs.
        let built = aid_lab::build(&item.scenario.spec);
        let analysis = aid_core::analyze(&item.corpus, &built.config);
        let engine = ShardedEngine::with_workers(2);
        let direct = engine
            .submit(DiscoveryJob::sim(
                format!("{}/direct", item.scenario.name),
                Arc::new(analysis.dag.clone()),
                Arc::new(Simulator::new(built.program)),
                Arc::new(analysis.extraction.catalog.clone()),
                analysis.extraction.failure,
                item.scenario.runs_per_round,
                FIRST_SEED,
                Strategy::Aid,
                DISCOVERY_SEED,
            ))
            .wait()
            .result;

        // Served: the wire path through the reactor.
        let mut client = AidClient::connect_in_proc(&connector).expect("connect");
        client.hello(&item.scenario.name).expect("hello");
        let report = client
            .upload(
                item.encoded.as_bytes(),
                97,
                AnalysisSpec::Lab(item.scenario.spec),
            )
            .expect("upload");
        assert_eq!(
            report.quarantined, 0,
            "{}: clean corpus",
            item.scenario.name
        );
        assert!(
            report.analyzed,
            "{}: corpus has failures",
            item.scenario.name
        );
        let mut spec = SubmitSpec::new(
            format!("{}/served", item.scenario.name),
            ProgramSpec::Lab(item.scenario.spec),
        );
        spec.runs_per_round = item.scenario.runs_per_round as u32;
        spec.first_seed = FIRST_SEED;
        spec.discovery_seed = DISCOVERY_SEED;
        let Admission::Accepted(session) = client.submit(&spec).expect("submit") else {
            panic!("{}: fresh connection refused", item.scenario.name);
        };
        let (served, _progress) = client.wait(session).expect("wait");
        client.goodbye().expect("goodbye");

        assert_eq!(
            served, direct,
            "{}: reactor-mediated discovery must equal in-process discovery",
            item.scenario.name
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.sessions_delivered, 9);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.rejections(), 0);
}
