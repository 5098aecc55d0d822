//! The readiness-driven reactor: one thread multiplexing every
//! connection over `poll(2)` (TCP) and a [`ReadySignal`] (in-proc
//! duplex, handler completions), driving per-connection state machines.
//!
//! Each connection is a small state machine:
//!
//! | phase       | waiting on                  | transition                          |
//! |-------------|-----------------------------|-------------------------------------|
//! | `Reading`   | readiness (fd or waker)     | full frame decoded → `Handling`     |
//! | `Handling`  | handler-pool completion     | responses queued → `Reading`/stream |
//! | `Streaming` | `stream_poll` timer         | terminal `Status` → `Reading`       |
//!
//! The reactor never blocks on request work: decoded requests ship (with
//! the connection's [`ClientCtx`], by move) to a handler pool, because a
//! request may legitimately park — a watch tick runs discovery probes to
//! completion against the engine. Streams cost no handler thread at all:
//! the reactor polls the session ticket inline on its timer tick, which
//! is also where the drain flag is checked — a streaming client can no
//! longer hold `shutdown()` open until its session terminates.
//!
//! An idle connection costs a registered fd or waker and nothing else: no
//! thread, no timer, zero wakeups between frames (`handler_dispatches`
//! in the server stats is the observable form of that claim). When every
//! event source is signal-backed (the hermetic in-proc case) the reactor
//! parks on the signal's condvar and wakes only on real events; with fds
//! in play it parks in `poll(2)` with the park capped at
//! [`FD_POLL_CAP`], since the signal cannot interrupt a `poll(2)` sleep.

use crate::protocol::{ErrorCode, Request, Response, SessionState};
use crate::server::{handle_request, poll_session, After, ClientCtx, ServerShared};
use crate::transport::{EventConn, Listener, Readiness, ReadySignal};
use crate::wire::{self, FrameAccum, WireError};
use crossbeam::channel;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Token the listener registers under.
const LISTENER_TOKEN: usize = 0;
/// Token handler completions and external wakeups (drain) notify.
pub(crate) const WAKE_TOKEN: usize = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: usize = 2;

/// Longest `poll(2)` park while fds are in the watch set: completions
/// and the drain flag arrive via the signal, which cannot interrupt
/// `poll(2)`, so they are observed with at most this staleness.
const FD_POLL_CAP: Duration = Duration::from_millis(5);
/// Longest signal park with no fds and no armed timers — a pure safety
/// net; every real event notifies the signal and wakes the park early.
const IDLE_PARK_CAP: Duration = Duration::from_millis(250);

#[cfg(unix)]
mod sys {
    //! Minimal `poll(2)` binding. std already links libc; declaring the
    //! one symbol we need keeps the crate dependency-free offline.
    use std::os::raw::{c_int, c_ulong};

    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Polls `fds` for up to `timeout_ms`; returns the ready count (0 on
    /// timeout, negative on error — the caller treats both as "nothing").
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        if fds.is_empty() {
            return 0;
        }
        unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) }
    }
}

/// A request in flight to the handler pool, carrying the connection's
/// context by move — the reactor holds no reference to it meanwhile.
struct HandlerJob {
    token: usize,
    request: Request,
    ctx: ClientCtx,
    /// Dispatch instant, for the queue-wait and whole-frame histograms.
    queued: Instant,
}

/// A finished request: the context comes back with the responses.
struct HandlerDone {
    token: usize,
    ctx: ClientCtx,
    responses: Vec<Response>,
    after: After,
    /// The job's dispatch instant, carried through so the reactor can
    /// close the `serve.frame_us` measurement when it queues the
    /// responses for write.
    dispatched: Instant,
}

/// Where a connection's state machine currently is.
#[derive(Clone, Copy)]
enum Phase {
    /// Accumulating request bytes; the ctx is resident.
    Reading,
    /// A request (and the ctx) is out at the handler pool.
    Handling,
    /// Timer-armed `Stream` continuation; the ctx is resident.
    Streaming {
        session: u32,
        /// Last emitted (executions, cache_hits, sessions_completed) —
        /// `Progress` is only sent when these moved.
        last: (u64, u64, u64),
        next_tick: Instant,
    },
}

struct Conn<C: EventConn> {
    io: C,
    source: Readiness,
    accum: FrameAccum,
    /// Decoded requests not yet dispatched (clients may pipeline).
    pending: VecDeque<Request>,
    /// Resident except while a request is at the handler pool.
    ctx: Option<ClientCtx>,
    phase: Phase,
    outbuf: Vec<u8>,
    out_pos: usize,
    read_closed: bool,
    close_after_flush: bool,
    dead: bool,
}

impl<C: EventConn> Conn<C> {
    fn flushed(&self) -> bool {
        self.out_pos >= self.outbuf.len()
    }
}

/// Runs the server: accept, read, dispatch, stream, flush — one thread,
/// every connection. Returns when the drain flag is up and every
/// connection has retired.
pub(crate) fn reactor_loop<L>(listener: L, shared: Arc<ServerShared>, signal: Arc<ReadySignal>)
where
    L: Listener,
    L::Conn: EventConn,
{
    let (job_tx, job_rx) = channel::unbounded::<HandlerJob>();
    let (done_tx, done_rx) = channel::unbounded::<HandlerDone>();
    let mut handlers = Vec::new();
    for i in 0..shared.handler_threads() {
        let job_rx = job_rx.clone();
        let done_tx = done_tx.clone();
        let shared = Arc::clone(&shared);
        let signal = Arc::clone(&signal);
        handlers.push(
            std::thread::Builder::new()
                .name(format!("aid-serve-handler-{i}"))
                .spawn(move || {
                    while let Ok(HandlerJob {
                        token,
                        request,
                        mut ctx,
                        queued,
                    }) = job_rx.recv()
                    {
                        shared
                            .timings
                            .handler_queue_wait
                            .record_duration(queued.elapsed());
                        let handling = Instant::now();
                        let (responses, after) = handle_request(&shared, &mut ctx, request);
                        shared
                            .timings
                            .handler_handle
                            .record_duration(handling.elapsed());
                        if done_tx
                            .send(HandlerDone {
                                token,
                                ctx,
                                responses,
                                after,
                                dispatched: queued,
                            })
                            .is_err()
                        {
                            break;
                        }
                        signal.notify(WAKE_TOKEN);
                    }
                })
                .expect("spawn handler thread"),
        );
    }
    drop(job_rx);
    drop(done_tx);

    let listener_source = listener.register(&signal, LISTENER_TOKEN);
    let mut conns: HashMap<usize, Conn<L::Conn>> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut listener_alive = true;
    let mut scratch = vec![0u8; 16 * 1024];
    // Start of the current wakeup, for the reactor dwell histogram.
    let mut woke = Instant::now();

    loop {
        let shutting_down = shared.shutdown.load(Relaxed);

        // Handler completions: responses out, context back, next phase.
        while let Ok(done) = done_rx.try_recv() {
            let Some(conn) = conns.get_mut(&done.token) else {
                continue;
            };
            conn.ctx = Some(done.ctx);
            for response in &done.responses {
                queue_response(&shared, conn, response);
            }
            // Frame turnaround closes here: dispatch to responses queued.
            shared
                .timings
                .frame
                .record_duration(done.dispatched.elapsed());
            conn.phase = match done.after {
                After::Continue => Phase::Reading,
                After::Close => {
                    conn.close_after_flush = true;
                    Phase::Reading
                }
                After::Stream { session } => Phase::Streaming {
                    session,
                    last: (u64::MAX, u64::MAX, u64::MAX),
                    next_tick: Instant::now(),
                },
            };
        }

        // Drain: close everything not waiting on a handler. Streams get a
        // terminal typed error this tick — the in-flight session keeps
        // running engine-side, but the connection no longer holds the
        // drain open. Undispatched pipelined requests are discarded.
        if shutting_down {
            for conn in conns.values_mut() {
                if let Phase::Streaming { .. } = conn.phase {
                    queue_response(
                        &shared,
                        conn,
                        &Response::Error {
                            code: ErrorCode::Draining,
                            message: "server is draining; stream closed".into(),
                        },
                    );
                    conn.phase = Phase::Reading;
                }
                if !matches!(conn.phase, Phase::Handling) {
                    conn.pending.clear();
                    conn.close_after_flush = true;
                }
            }
        }

        // Armed stream timers that came due.
        let now = Instant::now();
        for conn in conns.values_mut() {
            stream_tick(&shared, conn, now);
        }

        // Dispatch: one request per connection at a time (responses stay
        // in request order); further pipelined frames wait in `pending`.
        for (token, conn) in conns.iter_mut() {
            if !matches!(conn.phase, Phase::Reading) || conn.close_after_flush || conn.dead {
                continue;
            }
            if let Some(request) = conn.pending.pop_front() {
                let ctx = conn.ctx.take().expect("reading phase holds the ctx");
                conn.phase = Phase::Handling;
                shared.counters.handler_dispatches.inc();
                job_tx
                    .send(HandlerJob {
                        token: *token,
                        request,
                        ctx,
                        queued: Instant::now(),
                    })
                    .expect("handler pool outlives the reactor");
            }
        }

        // Flush, then retire connections that are done. A connection at
        // the handler pool never retires — its ctx must come home first.
        for conn in conns.values_mut() {
            flush(conn);
        }
        conns.retain(|_, conn| {
            if matches!(conn.phase, Phase::Handling) {
                return true;
            }
            let retire = conn.dead
                || (conn.close_after_flush && conn.flushed())
                || (conn.read_closed
                    && conn.flushed()
                    && conn.pending.is_empty()
                    && matches!(conn.phase, Phase::Reading));
            if retire {
                if let Some(mut ctx) = conn.ctx.take() {
                    ctx.fold_final(&shared);
                }
                shared.counters.release_connection();
            }
            !retire
        });

        if shutting_down && conns.is_empty() {
            break;
        }

        // Park until something is ready (or the next stream tick). The
        // dwell histogram covers wake-to-park: everything this wakeup
        // spent draining, dispatching, flushing and retiring.
        shared.timings.reactor_dwell.record_duration(woke.elapsed());
        let timeout = park_timeout(&listener_source, &conns, now);
        let ready = wait_for_events(&signal, &listener_source, &mut conns, timeout);
        woke = Instant::now();

        // Accept — readiness-driven where the listener supports it,
        // speculative for `Poll` fallback listeners.
        if listener_alive
            && !shutting_down
            && (matches!(listener_source, Readiness::Poll) || ready.contains(&LISTENER_TOKEN))
        {
            listener_alive = accept_ready(&listener, &shared, &signal, &mut conns, &mut next_token);
        }

        // Read every connection that announced bytes (or might have any,
        // for `Poll` fallback sources).
        for (token, conn) in conns.iter_mut() {
            if matches!(conn.source, Readiness::Poll) || ready.contains(token) {
                read_conn(&shared, conn, &mut scratch);
            }
        }
    }

    drop(job_tx);
    for handler in handlers {
        let _ = handler.join();
    }
}

/// How long the reactor may park before something it must do on a clock
/// (stream ticks, speculative `Poll` reads) comes due.
fn park_timeout<C: EventConn>(
    listener_source: &Readiness,
    conns: &HashMap<usize, Conn<C>>,
    now: Instant,
) -> Duration {
    let mut timeout = IDLE_PARK_CAP;
    if matches!(listener_source, Readiness::Poll)
        || conns.values().any(|c| matches!(c.source, Readiness::Poll))
    {
        timeout = timeout.min(FD_POLL_CAP);
    }
    for conn in conns.values() {
        if let Phase::Streaming { next_tick, .. } = conn.phase {
            timeout = timeout.min(next_tick.saturating_duration_since(now));
        }
    }
    timeout
}

/// Parks until at least one event source fires (or `timeout` elapses) and
/// returns the ready tokens. With fds in the set this is `poll(2)` plus a
/// nonblocking signal drain; with none it is a pure condvar park on the
/// signal — zero polling for the hermetic in-proc transport.
fn wait_for_events<C: EventConn>(
    signal: &Arc<ReadySignal>,
    listener_source: &Readiness,
    conns: &mut HashMap<usize, Conn<C>>,
    timeout: Duration,
) -> Vec<usize> {
    #[cfg(unix)]
    {
        let mut fds: Vec<sys::PollFd> = Vec::new();
        let mut tokens: Vec<usize> = Vec::new();
        if let Readiness::Fd(fd) = *listener_source {
            fds.push(sys::PollFd {
                fd,
                events: sys::POLLIN,
                revents: 0,
            });
            tokens.push(LISTENER_TOKEN);
        }
        for (token, conn) in conns.iter() {
            if let Readiness::Fd(fd) = conn.source {
                let mut events = sys::POLLIN;
                if !conn.flushed() {
                    events |= sys::POLLOUT;
                }
                fds.push(sys::PollFd {
                    fd,
                    events,
                    revents: 0,
                });
                tokens.push(*token);
            }
        }
        if !fds.is_empty() {
            let mut ready = signal.drain();
            let park = if ready.is_empty() {
                timeout.min(FD_POLL_CAP).as_millis() as i32
            } else {
                0
            };
            if sys::poll_fds(&mut fds, park) > 0 {
                for (pollfd, token) in fds.iter().zip(&tokens) {
                    if pollfd.revents != 0 {
                        ready.push(*token);
                    }
                }
            }
            // Events that landed while we were inside poll(2).
            ready.extend(signal.drain());
            return ready;
        }
    }
    signal.drain_timeout(timeout)
}

fn accept_ready<L>(
    listener: &L,
    shared: &Arc<ServerShared>,
    signal: &Arc<ReadySignal>,
    conns: &mut HashMap<usize, Conn<L::Conn>>,
    next_token: &mut usize,
) -> bool
where
    L: Listener,
    L::Conn: EventConn,
{
    loop {
        match listener.try_accept() {
            Ok(Some(mut io)) => {
                // CAS reservation: the slot is claimed (or refused) in one
                // atomic step, so concurrent accept paths cannot over-admit
                // past the cap.
                if !shared
                    .counters
                    .try_reserve_connection(shared.config.max_connections as u64)
                {
                    shared.counters.connections_refused.inc();
                    let refusal = Response::Error {
                        code: ErrorCode::TooManyConnections,
                        message: format!(
                            "server is at its connection cap ({})",
                            shared.config.max_connections
                        ),
                    }
                    .encode();
                    // Not yet in event mode — write the refusal directly.
                    if wire::write_frame(&mut io, &refusal).is_ok() {
                        shared.counters.frames_out.inc();
                        shared.counters.bytes_out.add(refusal.len() as u64);
                    }
                    continue;
                }
                shared.counters.connections.inc();
                let token = *next_token;
                *next_token += 1;
                let source = match io
                    .set_event_mode()
                    .and_then(|()| io.register(signal, token))
                {
                    Ok(source) => source,
                    Err(_) => {
                        shared.counters.release_connection();
                        continue;
                    }
                };
                conns.insert(
                    token,
                    Conn {
                        io,
                        source,
                        accum: FrameAccum::new(shared.config.max_frame_len),
                        pending: VecDeque::new(),
                        ctx: Some(ClientCtx::new(shared)),
                        phase: Phase::Reading,
                        outbuf: Vec::new(),
                        out_pos: 0,
                        read_closed: false,
                        close_after_flush: false,
                        dead: false,
                    },
                );
            }
            Ok(None) => return true,
            // The listener died (e.g. every in-proc connector dropped):
            // nothing further can arrive; keep serving what is open.
            Err(_) => return false,
        }
    }
}

/// Drains readable bytes into the accumulator and decodes full frames
/// into the pending queue. Protocol violations answer with a typed
/// `Malformed` error and close; EOF mid-frame is a hangup, not an error.
fn read_conn<C: EventConn>(shared: &Arc<ServerShared>, conn: &mut Conn<C>, scratch: &mut [u8]) {
    if conn.dead || conn.read_closed {
        return;
    }
    loop {
        match conn.io.read(scratch) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => conn.accum.extend(&scratch[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    loop {
        match conn.accum.next_frame() {
            Ok(Some((kind, payload))) => {
                shared.counters.frames_in.inc();
                shared
                    .counters
                    .bytes_in
                    .add((wire::HEADER_LEN + payload.len()) as u64);
                match Request::decode_payload(kind, &payload) {
                    Ok(request) => conn.pending.push_back(request),
                    Err(e) => return protocol_error(shared, conn, e),
                }
            }
            Ok(None) => break,
            Err(e) => return protocol_error(shared, conn, e),
        }
    }
}

fn protocol_error<C: EventConn>(shared: &Arc<ServerShared>, conn: &mut Conn<C>, e: WireError) {
    shared.counters.protocol_errors.inc();
    queue_response(
        shared,
        conn,
        &Response::Error {
            code: ErrorCode::Malformed,
            message: e.to_string(),
        },
    );
    // Inside a corrupt byte stream frame boundaries are untrustworthy:
    // drop what was queued and hang up after the error flushes.
    conn.pending.clear();
    conn.close_after_flush = true;
}

/// Advances one connection's streaming continuation if its timer is due.
fn stream_tick<C: EventConn>(shared: &Arc<ServerShared>, conn: &mut Conn<C>, now: Instant) {
    let Phase::Streaming {
        session,
        last,
        next_tick,
    } = conn.phase
    else {
        return;
    };
    if now < next_tick || conn.dead {
        return;
    }
    let ctx = conn.ctx.as_mut().expect("streaming phase holds the ctx");
    match poll_session(shared, ctx, session) {
        SessionState::Pending => {
            // Emit Progress only when the engine-wide counters moved — an
            // unconditional frame per tick would spam ~1000 identical
            // frames/s per streaming client on a long session.
            let e = shared.engine.stats();
            let counters = (e.executions, e.cache_hits, e.sessions_completed);
            if counters != last {
                queue_response(
                    shared,
                    conn,
                    &Response::Progress {
                        session,
                        executions: e.executions,
                        cache_hits: e.cache_hits,
                        sessions_completed: e.sessions_completed,
                    },
                );
            }
            conn.phase = Phase::Streaming {
                session,
                last: counters,
                next_tick: now + shared.config.stream_poll,
            };
        }
        terminal => {
            queue_response(
                shared,
                conn,
                &Response::Status {
                    session,
                    state: terminal,
                },
            );
            conn.phase = Phase::Reading;
        }
    }
}

fn queue_response<C: EventConn>(
    shared: &Arc<ServerShared>,
    conn: &mut Conn<C>,
    response: &Response,
) {
    let frame = response.encode();
    shared.counters.frames_out.inc();
    shared.counters.bytes_out.add(frame.len() as u64);
    conn.outbuf.extend_from_slice(&frame);
}

/// Writes as much queued output as the transport accepts right now. A
/// partial write keeps its place; the fd stays armed for `POLLOUT`.
fn flush<C: EventConn>(conn: &mut Conn<C>) {
    if conn.dead {
        return;
    }
    while conn.out_pos < conn.outbuf.len() {
        match conn.io.write(&conn.outbuf[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    conn.outbuf.clear();
    conn.out_pos = 0;
}
