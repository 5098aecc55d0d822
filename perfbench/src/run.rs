//! One benchmark run: set-up, timed window(s), output checks, report.

use crate::delta::Delta;
use crate::layers::{per_layer, TracedWindow};
use crate::pin::{self, Placement};
use crate::procfs;
use crate::replay;
use crate::report::{metric, Metric};
use crate::stats::{highest_supported, median, percentile};
use crate::workload::{generate, run_op, visit_order, CallTimes, Item, OpRecord, Workload};
use aid_engine::EngineConfig;
use aid_serve::{AidClient, ServeConfig, Server, ServerHandle};
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Closed-loop clients, each on its own connection.
pub const CLIENTS: usize = 2;
/// Fresh servers a run sets up, one after another; `setup_s` is the
/// median of their set-up times. A plain run splits its window evenly
/// across them, because some service threads settle into one of two
/// speeds per server (see `README.md`); a traced run drives only the last.
pub const SERVERS: usize = 5;
/// Untimed closed-loop driving at the end of every set-up, so the timed
/// window starts with connections, threads and allocator already in the
/// state the workload keeps them in.
pub const BURN_IN: Duration = Duration::from_secs(1);
/// Scenarios a traced run replays in-process per workload.
pub const REPLAY_SAMPLE: usize = 27;

/// Command-line options.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed: fixes every generated input.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: u64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Options {
    /// Parses `--workload <name> [--seed <n>] [--seconds <n>] [--trace 0|1]`.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut options = Options {
            workload: Workload::Cold,
            seed: 1,
            seconds: 10,
            trace: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => options.seed = number()?,
                "--seconds" => options.seconds = number()?.max(1),
                "--trace" => {
                    options.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        options.workload = workload.ok_or("--workload is required (cold, warm or standing)")?;
        Ok(options)
    }
}

/// A run's outcome: op counts, correctness, and the metrics to report.
pub struct Outcome {
    /// Ops attempted in the timed window(s).
    pub attempted: u64,
    /// Ops that failed: client error, rejection, lost session, or a
    /// result differing from the in-process reference.
    pub failed: u64,
    /// Failures of the run's premises (e.g. a `warm` op that executed).
    pub premise_failures: Vec<String>,
    /// End-to-end metrics, or per-layer ones for a traced run.
    pub metrics: Vec<Metric>,
    /// Human-readable lines describing sample counts.
    pub notes: Vec<String>,
}

struct SetUp {
    items: Vec<Item>,
    server: ServerHandle,
    clients: Vec<AidClient<TcpStream>>,
    /// Where each client is in its visit order.
    cursors: Vec<Box<dyn Iterator<Item = usize> + Send>>,
    took: Duration,
}

/// Generates the inputs, starts a fresh server, connects the clients,
/// runs the warm-up pass where the workload has one, then drives the
/// workload untimed for [`BURN_IN`].
/// `driving` is how long the server is driven after set-up.
fn set_up(
    o: &Options,
    driving: Duration,
    workers: usize,
    placement: Option<&Placement>,
) -> Result<SetUp, String> {
    let started = Instant::now();
    let items = generate(o.seed, o.workload.scenario_count(driving + BURN_IN));
    let config = ServeConfig {
        engine: EngineConfig {
            workers,
            ..EngineConfig::default()
        },
        ..ServeConfig::default()
    };
    let (server, addr) =
        Server::start_tcp("127.0.0.1:0", config).map_err(|e| format!("bind loopback: {e}"))?;
    if let Some(p) = placement {
        let moved = pin::place_engine_workers(p, workers);
        if moved < workers {
            eprintln!(
                "note: {moved} of {workers} engine workers found; the rest stay on the serve CPU"
            );
        }
    }
    let mut clients = Vec::with_capacity(CLIENTS);
    for id in 0..CLIENTS {
        let mut client =
            AidClient::connect_tcp(addr).map_err(|e| format!("client {id} connect: {e}"))?;
        client
            .hello(&format!("perfbench-{id}"))
            .map_err(|e| format!("client {id} hello: {e}"))?;
        clients.push(client);
    }
    if o.workload.warms_up() {
        // One client runs every op once, so the pass fills the cache
        // without loading both cores right before the window.
        for item in &items {
            run_op(o.workload, &mut clients[0], item, None)
                .map_err(|e| format!("warm-up pass: {e}"))?;
        }
    }
    let cursors = (0..CLIENTS)
        .map(|id| visit_order(o.workload, id, CLIENTS, items.len()))
        .collect();
    let mut s = SetUp {
        items,
        server,
        clients,
        cursors,
        took: Duration::ZERO,
    };
    let burn_in = window(o, &mut s, BURN_IN, false);
    if let Some(e) = burn_in
        .records
        .iter()
        .find_map(|r| r.outcome.as_ref().err())
    {
        return Err(format!("burn-in: {e}"));
    }
    s.took = started.elapsed();
    Ok(s)
}

/// One timed window's observations.
struct Window {
    records: Vec<OpRecord>,
    calls: CallTimes,
    elapsed: Duration,
    cpu: Duration,
    /// A client ran out of scenarios before the window closed.
    exhausted: bool,
}

impl Window {
    fn served(&self) -> impl Iterator<Item = &OpRecord> {
        self.records.iter().filter(|r| r.outcome.is_ok())
    }

    fn ops_per_s(&self) -> f64 {
        self.served().count() as f64 / self.elapsed.as_secs_f64()
    }

    /// The windows as one: their ops, times and CPU added up.
    fn merge(windows: Vec<Window>) -> Window {
        let mut all = Window {
            records: Vec::new(),
            calls: CallTimes::default(),
            elapsed: Duration::ZERO,
            cpu: Duration::ZERO,
            exhausted: false,
        };
        for w in windows {
            all.records.extend(w.records);
            all.calls.add(&w.calls);
            all.elapsed += w.elapsed;
            all.cpu += w.cpu;
            all.exhausted |= w.exhausted;
        }
        all
    }
}

/// Drives every client closed-loop for `length`: each starts its next op
/// only when the previous one returned, and stops at its first failure.
fn window(o: &Options, s: &mut SetUp, length: Duration, traced: bool) -> Window {
    let cpu_before = procfs::cpu_time();
    let started = Instant::now();
    let deadline = started + length;
    let items = &s.items;
    let per_client: Vec<(Vec<OpRecord>, CallTimes, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .clients
            .iter_mut()
            .zip(s.cursors.iter_mut())
            .map(|(client, cursor)| {
                scope.spawn(move || {
                    let mut records = Vec::new();
                    let mut calls = CallTimes::default();
                    let mut exhausted = false;
                    while Instant::now() < deadline {
                        let Some(item) = cursor.next() else {
                            exhausted = true;
                            break;
                        };
                        let op_started = Instant::now();
                        let outcome = run_op(
                            o.workload,
                            client,
                            &items[item],
                            traced.then_some(&mut calls),
                        );
                        let failed = outcome.is_err();
                        records.push(OpRecord {
                            item,
                            latency: op_started.elapsed(),
                            outcome,
                        });
                        if failed {
                            break;
                        }
                    }
                    (records, calls, exhausted)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    let cpu = procfs::cpu_time().saturating_sub(cpu_before);
    let mut w = Window {
        records: Vec::new(),
        calls: CallTimes::default(),
        elapsed,
        cpu,
        exhausted: false,
    };
    for (records, calls, exhausted) in per_client {
        w.records.extend(records);
        w.calls.add(&calls);
        w.exhausted |= exhausted;
    }
    w
}

/// Checks every served op against the in-process reference result of
/// its scenario; returns the number of failed ops and their reasons.
fn check(items: &[Item], records: &[&OpRecord]) -> (u64, Vec<String>) {
    let mut distinct: Vec<usize> = records.iter().map(|r| r.item).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let reference: BTreeMap<usize, _> = distinct
        .iter()
        .copied()
        .zip(replay::reference(items, &distinct))
        .collect();
    let mut failed = 0;
    let mut reasons = Vec::new();
    for r in records {
        let name = &items[r.item].scenario.name;
        let problem = match (&r.outcome, &reference[&r.item]) {
            (Err(e), _) => Some(format!("{name}: {e}")),
            (Ok(_), Err(e)) => Some(format!("{name}: {e}")),
            (Ok(got), Ok(want)) if got != want => Some(format!(
                "{name}: served {got:?}, in-process reference {want:?}"
            )),
            _ => None,
        };
        if let Some(p) = problem {
            failed += 1;
            reasons.push(p);
        }
    }
    (failed, reasons)
}

/// Runs the benchmark described by `o`.
pub fn run(o: &Options) -> Result<Outcome, String> {
    // Counted before pinning, which would make it read one.
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    let placement = pin::pin_serve_path();
    let length = Duration::from_secs(o.seconds);
    let (slice, driving) = if o.trace {
        (length, 2 * length)
    } else {
        let slice = length / SERVERS as u32;
        (slice, slice)
    };

    // Each server is retired before the next one is set up. Peak memory
    // counts only while serving: the transient peak of generating the
    // inputs does not count, what set-up leaves resident does.
    let mut setup_times = Vec::with_capacity(SERVERS);
    let mut windows_run = Vec::new();
    let mut rss_peak = 0;
    let mut rss_reset = true;
    let mut items = Vec::new();
    let mut snapshots = None;
    for server in 0..SERVERS {
        let mut s = set_up(o, driving, workers, placement.as_ref())?;
        setup_times.push(s.took.as_secs_f64());
        let last = server + 1 == SERVERS;
        if o.trace && !last {
            retire(s);
            continue;
        }
        rss_reset &= procfs::reset_peak_rss();
        windows_run.push(window(o, &mut s, slice, false));
        if o.trace {
            let before = s.clients[0]
                .metrics()
                .map_err(|e| format!("metrics: {e}"))?;
            windows_run.push(window(o, &mut s, slice, true));
            let after = s.clients[0]
                .metrics()
                .map_err(|e| format!("metrics: {e}"))?;
            snapshots = Some((before, after));
        }
        rss_peak = rss_peak.max(procfs::peak_rss());
        // Every set-up generates the same inputs from the seed.
        items = retire(s);
    }
    let mut premise_failures = Vec::new();
    let mut notes = vec![format!(
        "set-up times (s): {:?}",
        setup_times
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
    )];
    notes.push(match &placement {
        Some(p) => format!(
            "placement: serve path on CPU {}, engine workers on {} other CPU(s)",
            p.serve,
            p.engine.len()
        ),
        None => "note: threads left unplaced (sched_setaffinity refused)".to_string(),
    });
    if !rss_reset {
        notes.push("note: peak RSS covers set-up too (clear_refs refused)".to_string());
    }

    let all: Vec<&OpRecord> = windows_run.iter().flat_map(|w| &w.records).collect();
    let attempted = all.len() as u64;
    let (failed, reasons) = check(&items, &all);
    for r in reasons.iter().take(5) {
        eprintln!("FAILED OP: {r}");
    }
    if windows_run.iter().any(|w| w.exhausted) {
        // The figures stay valid over the shorter window; the list is
        // sized well above today's rate, so say when it no longer is.
        notes.push(format!(
            "note: a client used up its share of the {} scenarios before the window closed",
            items.len()
        ));
    }

    let windows_measured = windows_run.len();
    let (untraced_ops_per_s, timed) = if o.trace {
        let traced = windows_run.pop().expect("a traced window ran");
        (windows_run[0].ops_per_s(), traced)
    } else {
        (0.0, Window::merge(windows_run))
    };
    let served = timed.served().count() as u64;
    let mut latencies: Vec<f64> = timed
        .served()
        .map(|r| r.latency.as_secs_f64() * 1e3)
        .collect();
    latencies.sort_by(f64::total_cmp);
    let p50 = percentile(&latencies, 0.5).map_or(0.0, |p| p.value);
    let p90 = percentile(&latencies, 0.9);
    notes.push(format!(
        "{}: {served} ops served in {:.3} s by {CLIENTS} clients ({attempted} attempted, \
         {failed} failed across {windows_measured} window(s)); {} latency samples, \
         {} beyond p90; highest percentile with >=10 beyond: {}; {workers} engine workers",
        o.workload.name(),
        timed.elapsed.as_secs_f64(),
        latencies.len(),
        p90.map_or(0, |p| p.beyond),
        highest_supported(latencies.len(), &[0.5, 0.9, 0.95, 0.99])
            .map_or("none".to_string(), |q| format!("p{}", q * 100.0)),
    ));
    let traced = snapshots.as_ref().map(|(before, after)| {
        let delta = Delta::new(before, after);
        if o.workload == Workload::Warm && delta.shard_counter("executions") > 0 {
            premise_failures.push(format!(
                "warm executed {} interventions; every one should be a cache hit",
                delta.shard_counter("executions")
            ));
        }
        let mut distinct: Vec<usize> = timed.served().map(|r| r.item).collect();
        distinct.sort_unstable();
        distinct.dedup();
        distinct.truncate(REPLAY_SAMPLE);
        let spans = replay::spans(o.workload, &items, &distinct);
        per_layer(&TracedWindow {
            ops: served,
            op_time: timed.served().map(|r| r.latency).sum(),
            rounds: timed
                .served()
                .filter_map(|r| r.outcome.as_ref().ok())
                .map(|r| r.rounds as u64)
                .sum(),
            calls: timed.calls,
            waits: if o.workload == Workload::Standing {
                0
            } else {
                served
            },
            delta,
            replay: spans,
            untraced_ops_per_s,
            traced_ops_per_s: timed.ops_per_s(),
        })
    });
    let metrics = traced.unwrap_or_else(|| {
        vec![
            metric("ops_per_s", timed.ops_per_s(), "1/s"),
            metric("op_p50_ms", p50, "ms"),
            metric("op_p90_ms", p90.map_or(0.0, |p| p.value), "ms"),
            metric(
                "cpu_ms_per_op",
                timed.cpu.as_secs_f64() * 1e3 / served.max(1) as f64,
                "ms",
            ),
            metric("rss_peak_mb", rss_peak as f64 / 1e6, "MB"),
            metric("setup_s", median(&setup_times).expect("set-up ran"), "s"),
        ]
    });
    Ok(Outcome {
        attempted,
        failed,
        premise_failures,
        metrics,
        notes,
    })
}

/// Says goodbye on every connection and drains the server; hands back
/// the inputs.
fn retire(s: SetUp) -> Vec<Item> {
    for client in s.clients {
        // A client that failed mid-op may have a broken connection; the
        // failure is already counted.
        let _ = client.goodbye();
    }
    s.server.shutdown();
    s.items
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let o = Options::parse(&args("--workload warm --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(
            o,
            Options {
                workload: Workload::Warm,
                seed: 7,
                seconds: 12,
                trace: true
            }
        );
        let o = Options::parse(&args("--workload cold")).unwrap();
        assert_eq!((o.seed, o.seconds, o.trace), (1, 10, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--seed 1",
            "--workload hot",
            "--workload cold --trace 2",
            "--workload cold --seconds ten",
            "--workload cold --bogus 1",
            "--workload",
        ] {
            assert!(Options::parse(&args(bad)).is_err(), "{bad:?} parsed");
        }
    }
}
