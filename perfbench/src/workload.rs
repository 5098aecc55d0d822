//! The three workloads: their inputs and one op of each, driven through
//! the service's public client.

use aid_lab::{prepare_replay, LabParams, ReplayItem, Scenario};
use aid_serve::{
    Admission, AidClient, AnalysisSpec, ClientError, ProgramSpec, SubmitSpec, UploadReport,
    WatchSpec,
};
use aid_trace::{codec, Outcome, TraceSet};
use aid_watch::WatchEvent;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upload chunk size of a debugging session.
pub const CHUNK: usize = 4096;
/// Byte tails a standing query streams its corpus as.
pub const TAILS: usize = 8;
/// Tie-breaking seed of every discovery.
pub const DISCOVERY_SEED: u64 = 11;
/// First intervention seed of every discovery.
pub const FIRST_SEED: u64 = 1_000_000;
/// Definition-2 prune quorum of every discovery.
pub const PRUNE_QUORUM: u32 = 1;

/// Distinct `cold` scenarios generated per second of driving: about
/// 1.6 times the rate two clients complete them on a 2-core machine,
/// so a window does not run out of unseen scenarios.
pub const COLD_SCENARIOS_PER_SECOND: usize = 200;
/// Size of the shared `warm` scenario list (eight per bug class).
pub const WARM_SCENARIOS: usize = 72;
/// Size of the shared `standing` scenario list (four per bug class).
pub const STANDING_SCENARIOS: usize = 36;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// First-time debugging: distinct scenarios, disjoint across clients,
    /// so no intervention is a cache hit.
    Cold,
    /// Repeat triage: a shared scenario list a set-up pass already ran,
    /// so every intervention is a cache hit.
    Warm,
    /// Standing queries over a shared, pre-warmed scenario list.
    Standing,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Cold, Workload::Warm, Workload::Standing];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold",
            Workload::Warm => "warm",
            Workload::Standing => "standing",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether set-up runs every op once before the timed window.
    pub fn warms_up(self) -> bool {
        !matches!(self, Workload::Cold)
    }

    /// Scenarios to generate for `driving` of closed-loop driving.
    pub fn scenario_count(self, driving: Duration) -> usize {
        match self {
            Workload::Cold => {
                (COLD_SCENARIOS_PER_SECOND as f64 * driving.as_secs_f64()).ceil() as usize
            }
            Workload::Warm => WARM_SCENARIOS,
            Workload::Standing => STANDING_SCENARIOS,
        }
    }
}

/// One scenario's inputs, in the form the client sends them.
pub struct Item {
    /// The generated scenario (spec, program, extraction configuration).
    pub scenario: Scenario,
    /// The scenario's observation corpus in wire form.
    pub encoded: String,
    /// An encoded tail that moves no predicate statistic.
    pub neutral: String,
}

impl Item {
    /// The corpus as the [`TAILS`] byte tails a standing query streams;
    /// cuts land anywhere in a line.
    pub fn tails(&self) -> std::slice::Chunks<'_, u8> {
        let bytes = self.encoded.as_bytes();
        bytes.chunks(bytes.len().div_ceil(TAILS).max(1))
    }
}

/// Lab scenario seeds of workload seed `seed`: disjoint across workload
/// seeds, consecutive so they cycle through all nine bug classes.
pub fn scenario_seeds(seed: u64, count: usize) -> std::ops::Range<u64> {
    let base = (seed + 1) * 10_000_000;
    base..base + count as u64
}

/// Generates the inputs of `count` scenarios for workload seed `seed`.
pub fn generate(seed: u64, count: usize) -> Vec<Item> {
    scenario_seeds(seed, count).map(item).collect()
}

/// One scenario's inputs; its decoded corpus is dropped once encoded,
/// since only the wire form is sent.
fn item(seed: u64) -> Item {
    let ReplayItem {
        scenario,
        corpus,
        encoded,
    } = prepare_replay(&LabParams::default(), [seed])
        .pop()
        .expect("one seed yields one scenario");
    Item {
        neutral: neutral_tail(&corpus),
        scenario,
        encoded,
    }
}

/// A tail that moves no predicate statistic: a replay of a successful run
/// already in the corpus.
fn neutral_tail(corpus: &TraceSet) -> String {
    let replay = corpus
        .traces
        .iter()
        .find(|t| matches!(t.outcome, Outcome::Success))
        .cloned()
        .expect("lab corpora hold successful runs");
    codec::encode(&TraceSet {
        methods: corpus.methods.clone(),
        objects: corpus.objects.clone(),
        channels: corpus.channels.clone(),
        traces: vec![replay],
    })
}

/// Client-timed totals per call kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallTimes {
    /// `AidClient::upload` (begin, chunks, finish).
    pub upload: Duration,
    /// `AidClient::submit`.
    pub submit: Duration,
    /// `AidClient::wait`.
    pub wait: Duration,
    /// `AidClient::subscribe`.
    pub subscribe: Duration,
    /// `AidClient::stream_tail`, corpus and neutral tails.
    pub tail: Duration,
    /// `AidClient::unsubscribe`.
    pub unsubscribe: Duration,
}

impl CallTimes {
    /// Adds another total into this one.
    pub fn add(&mut self, o: &CallTimes) {
        self.upload += o.upload;
        self.submit += o.submit;
        self.wait += o.wait;
        self.subscribe += o.subscribe;
        self.tail += o.tail;
        self.unsubscribe += o.unsubscribe;
    }
}

/// Runs `call`, adding its duration to `slot` when timing is on.
fn timed<T>(slot: Option<&mut Duration>, call: impl FnOnce() -> T) -> T {
    match slot {
        Some(total) => {
            let started = Instant::now();
            let out = call();
            *total += started.elapsed();
            out
        }
        None => call(),
    }
}

/// What one served op returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Served {
    /// The causal path (raw predicate ids, root cause first).
    pub causal: Vec<u32>,
    /// Intervention rounds.
    pub rounds: usize,
}

/// One op as the client saw it.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// Index of the scenario in the input list.
    pub item: usize,
    /// Client-observed latency.
    pub latency: Duration,
    /// The result, or why the op failed.
    pub outcome: Result<Served, String>,
}

fn client_err(stage: &str, e: ClientError) -> String {
    format!("{stage}: {e}")
}

/// Runs one op of `workload` on `item`.
pub fn run_op(
    workload: Workload,
    client: &mut AidClient<TcpStream>,
    item: &Item,
    times: Option<&mut CallTimes>,
) -> Result<Served, String> {
    match workload {
        Workload::Cold | Workload::Warm => session_op(client, item, times),
        Workload::Standing => standing_op(client, item, times),
    }
}

/// A debugging session: upload the corpus in [`CHUNK`]-byte chunks,
/// submit discovery, wait for the result.
fn session_op(
    client: &mut AidClient<TcpStream>,
    item: &Item,
    mut times: Option<&mut CallTimes>,
) -> Result<Served, String> {
    let scenario = &item.scenario;
    let report: UploadReport = timed(times.as_deref_mut().map(|t| &mut t.upload), || {
        client.upload(
            item.encoded.as_bytes(),
            CHUNK,
            AnalysisSpec::Lab(scenario.spec),
        )
    })
    .map_err(|e| client_err("upload", e))?;
    if !report.analyzed || report.quarantined != 0 {
        return Err(format!(
            "upload of {}: analyzed={} quarantined={}",
            scenario.name, report.analyzed, report.quarantined
        ));
    }
    let spec = SubmitSpec {
        name: scenario.name.clone(),
        program: ProgramSpec::Lab(scenario.spec),
        strategy: aid_core::Strategy::Aid,
        discovery_seed: DISCOVERY_SEED,
        runs_per_round: scenario.runs_per_round as u32,
        first_seed: FIRST_SEED,
        prune_quorum: PRUNE_QUORUM,
    };
    let admission = timed(times.as_deref_mut().map(|t| &mut t.submit), || {
        client.submit(&spec)
    })
    .map_err(|e| client_err("submit", e))?;
    let session = match admission {
        Admission::Accepted(session) => session,
        Admission::Rejected(overload) => return Err(format!("submit rejected: {overload:?}")),
    };
    let (result, _progress) = timed(times.map(|t| &mut t.wait), || client.wait(session))
        .map_err(|e| client_err("wait", e))?;
    Ok(Served {
        causal: result.causal.iter().map(|p| p.raw()).collect(),
        rounds: result.rounds,
    })
}

/// A standing query: subscribe, stream the corpus as [`TAILS`] tails
/// until it converges, stream a stat-neutral tail that must be answered
/// from the cache, unsubscribe.
fn standing_op(
    client: &mut AidClient<TcpStream>,
    item: &Item,
    mut times: Option<&mut CallTimes>,
) -> Result<Served, String> {
    let scenario = &item.scenario;
    let mut spec = WatchSpec::new(
        scenario.name.clone(),
        AnalysisSpec::Lab(scenario.spec),
        ProgramSpec::Lab(scenario.spec),
    );
    spec.discovery_seed = DISCOVERY_SEED;
    spec.first_seed = FIRST_SEED;
    spec.runs_per_round = scenario.runs_per_round as u32;
    spec.prune_quorum = PRUNE_QUORUM;
    let admission = timed(times.as_deref_mut().map(|t| &mut t.subscribe), || {
        client.subscribe(&spec)
    })
    .map_err(|e| client_err("subscribe", e))?;
    let watch = match admission {
        Admission::Accepted(watch) => watch,
        Admission::Rejected(overload) => return Err(format!("subscribe rejected: {overload:?}")),
    };
    let mut last = Vec::new();
    let tails = item.tails().len();
    for (i, tail) in item.tails().enumerate() {
        let fin = i + 1 == tails;
        let report = timed(times.as_deref_mut().map(|t| &mut t.tail), || {
            client.stream_tail(watch, tail, fin)
        })
        .map_err(|e| client_err("stream_tail", e))?;
        last = report.events;
    }
    let served = last
        .iter()
        .rev()
        .find_map(|e| match e {
            WatchEvent::Converged { result, .. } | WatchEvent::RootChanged { result, .. } => {
                Some(Served {
                    causal: result.causal.iter().map(|p| p.raw()).collect(),
                    rounds: result.rounds,
                })
            }
            _ => None,
        })
        .ok_or_else(|| format!("{} never converged over the full corpus", scenario.name))?;
    let neutral = timed(times.as_deref_mut().map(|t| &mut t.tail), || {
        client.stream_tail(watch, item.neutral.as_bytes(), true)
    })
    .map_err(|e| client_err("neutral tail", e))?;
    if !matches!(
        neutral.events.as_slice(),
        [WatchEvent::Converged {
            resubmitted: false,
            ..
        }]
    ) {
        return Err(format!(
            "stat-neutral tail on {} was not served from the cache: {:?}",
            scenario.name, neutral.events
        ));
    }
    let existed = timed(times.map(|t| &mut t.unsubscribe), || {
        client.unsubscribe(watch)
    })
    .map_err(|e| client_err("unsubscribe", e))?;
    if !existed {
        return Err(format!("watch {watch} vanished before unsubscribe"));
    }
    Ok(served)
}

/// The order in which client `id` of `clients` visits `len` scenarios.
/// `cold` clients take disjoint interleaved halves once. The shared lists
/// cycle forever: `warm` clients in step, `standing` clients each from
/// its own offset.
pub fn visit_order(
    workload: Workload,
    id: usize,
    clients: usize,
    len: usize,
) -> Box<dyn Iterator<Item = usize> + Send> {
    match workload {
        Workload::Cold => Box::new((id..len).step_by(clients)),
        Workload::Warm => Box::new((0..len).cycle()),
        Workload::Standing => {
            let offset = id * len / clients;
            Box::new((0..len).cycle().skip(offset))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_halves_are_disjoint_and_cover_the_list() {
        let a: Vec<usize> = visit_order(Workload::Cold, 0, 2, 7).collect();
        let b: Vec<usize> = visit_order(Workload::Cold, 1, 2, 7).collect();
        assert_eq!(a, vec![0, 2, 4, 6]);
        assert_eq!(b, vec![1, 3, 5]);
    }

    #[test]
    fn shared_lists_cycle() {
        for id in 0..2 {
            let warm: Vec<usize> = visit_order(Workload::Warm, id, 2, 4).take(6).collect();
            assert_eq!(warm, vec![0, 1, 2, 3, 0, 1]);
        }
        let standing: Vec<usize> = visit_order(Workload::Standing, 1, 2, 4).take(6).collect();
        assert_eq!(standing, vec![2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn scenario_seeds_are_disjoint_across_workload_seeds() {
        let one = scenario_seeds(1, 5000);
        let two = scenario_seeds(2, 5000);
        assert!(one.end <= two.start);
    }

    #[test]
    fn generation_is_deterministic() {
        let one = generate(3, 5);
        let two = generate(3, 5);
        assert_eq!(one.len(), 5);
        for (a, b) in one.iter().zip(&two) {
            assert_eq!(a.scenario.name, b.scenario.name);
            assert_eq!(a.encoded, b.encoded);
            assert_eq!(a.neutral, b.neutral);
            assert_eq!(a.tails().collect::<Vec<_>>().concat(), a.encoded.as_bytes());
            assert!((1..=TAILS).contains(&a.tails().len()));
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hot"), None);
    }
}
