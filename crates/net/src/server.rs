//! The reactor-based VeriDB network server.
//!
//! One shared [`VeriDb`] engine serves many concurrent connections. Each
//! connection runs the §5.1 protocol over the untrusted wire:
//!
//! 1. `HELLO(channel, nonce)` → the server opens (or reuses) the channel's
//!    [`QueryPortal`] and replies `QUOTE` — the enclave quote binding the
//!    client nonce plus the simulated attested key exchange.
//! 2. `QUERY` frames are submitted to the portal; the reply is a `RESULT`
//!    (endorsed) or an `ERROR` carrying the portal's exact error.
//! 3. `BYE` (or idle expiry, or shutdown) closes the session.
//!
//! Portals are *per channel, not per connection*: a client that reconnects
//! to the same channel faces the same replay window and the same strictly
//! increasing sequence counter, so neither a dropped TCP connection nor a
//! malicious reconnect resets the §5.1 defenses.
//!
//! # Architecture
//!
//! A single **reactor** thread owns the listener and every socket. It
//! runs a level-triggered epoll loop (`crate::poll`), decodes bytes
//! incrementally ([`crate::frame::FrameDecoder`]), and dispatches
//! complete frames as **connection turns onto the process-wide scheduler
//! pool** ([`veridb_common::sched`]) — the same fixed worker set that
//! executes the engine's parallel regions, so the server no longer
//! layers its own executor pool on top of per-query pools (the old
//! `executor × workers` oversubscription). Each connection's frames are
//! processed serially by at most one turn at a time, so pipelined
//! queries on one connection yield `RESULT` frames in submission order;
//! different connections execute concurrently, and a turn that runs a
//! parallel query *helps execute its own job* on the pool, so queries
//! parallelize across whatever workers are idle. Turns never touch
//! sockets — they queue response frames on the connection's outbound
//! buffer and nudge the reactor through a wake pipe.
//!
//! The registry the reactor keys by token *is* the session table: each
//! entry pins the connection's portal (replay window + sequence counter +
//! channel key) for its lifetime.
//!
//! # Admission control
//!
//! Three bounds keep a busy or adversarial peer from exhausting memory:
//!
//! - **Connection cap** (`max_conns`): admission is one compare-and-swap
//!   loop on the active-connection count, so the cap holds exactly even
//!   under accept storms. At the cap the listener's readiness interest is
//!   dropped — pending connections wait in the kernel backlog instead of
//!   being reset — and is re-armed when a slot frees.
//! - **Global query queue** (`net_queue_depth`): decoded `QUERY` frames
//!   waiting for a worker are counted globally; past the limit a query is
//!   refused with a *retryable* [`Error::Overloaded`] frame. The refused
//!   query never reached a portal, so its qid is unspent and the client
//!   may resend the identical signed query — overload is a load
//!   condition, never a security violation.
//! - **Per-connection frame window**: a connection whose inbound or
//!   outbound queue fills has its read interest paused (bytes back up
//!   into TCP flow control) and resumed once the executor drains below
//!   half — so one fast pipeliner cannot starve the rest.
//!
//! Shutdown is graceful: accepting stops, outstanding connection turns
//! drain off the shared pool, responses flush, and every session gets a
//! `BYE`. A panicking turn is caught and surfaced through the
//! `net.worker_panics` counter; the shared pool's workers are process
//! lifetime and are never torn down by the server.

use crate::frame::{encode_frame, FrameDecoder};
use crate::poll::{Interest, Poller};
use crate::proto::{
    decode_hello, decode_query, decode_ship_ack, decode_ship_sub, encode_error, encode_quote,
    encode_result, encode_ship, encode_ship_meta, peek_query_qid, QuoteMsg, ShipMeta,
    MAX_SHIP_RECORDS, MSG_BYE, MSG_ERROR, MSG_HELLO, MSG_QUERY, MSG_QUOTE, MSG_RESULT, MSG_SHIP,
    MSG_SHIP_ACK, MSG_SHIP_META, MSG_SHIP_SUB, MSG_STATS, MSG_STATS_OK,
};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use veridb::{QueryPortal, QuotingEnclave, VeriDb};
use veridb_common::sync::Mutex;
use veridb_common::{sched, Error, Metric, Metrics, Result};

/// The simulated attestation-service signing key. Stands in for the Intel
/// attestation root of trust, which real clients ship baked in; both the
/// server's quoting enclave and remote verifiers derive from this value.
/// It authenticates the *quoting infrastructure*, not any particular
/// enclave — the enclave measurement check is separate and per-build.
pub const SIM_ATTESTATION_ROOT: [u8; 32] = *b"veridb-simulated-attestation-svc";

/// How long a connection may sit idle (no complete frame) before the
/// server reaps it, expressed as a multiple of the per-frame timeout.
const IDLE_TIMEOUT_FACTOR: u32 = 12;

/// epoll housekeeping tick: the longest the reactor sleeps when nothing
/// is ready. Idle CPU cost is one `epoll_wait` return per tick.
const TICK_MS: i32 = 100;

/// Idle/write-stall sweep cadence.
const SWEEP_EVERY: Duration = Duration::from_millis(500);

/// Frames a worker processes per turn before requeueing the connection —
/// round-robin fairness across busy connections.
const FAIR_BATCH: usize = 4;

/// Decoded frames buffered per connection before its read interest is
/// paused (TCP flow control takes over).
const INBOUND_CAP: usize = 64;

/// Encoded response frames buffered per connection before its read
/// interest is paused.
const OUTBOUND_CAP: usize = 128;

/// Bytes per `read(2)` call on a ready socket.
const READ_CHUNK: usize = 16 * 1024;

/// Records per SHIP frame pushed to a subscribed replica.
const SHIP_BATCH_RECORDS: usize = 512;

/// How long a shipper waits for the log tip to move before sending an
/// empty SHIP frame (a heartbeat) so the replica knows the subscription
/// is alive.
const SHIP_HEARTBEAT: Duration = Duration::from_millis(500);

/// Shipper backoff while the connection's outbound window is saturated
/// (a slow replica backpressures through TCP, not through memory).
const SHIP_STALL_PAUSE: Duration = Duration::from_millis(5);

/// Token for the reactor wake pipe.
const WAKE_TOKEN: u64 = u64::MAX;
/// Token for the listener.
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// Server tunables, derived from [`veridb_common::VeriDbConfig`].
#[derive(Debug, Clone)]
pub(crate) struct NetConfig {
    /// Maximum concurrent connections; beyond it the server stops
    /// accepting (backpressure), it does not reset queued connections.
    pub max_conns: usize,
    /// Per-frame write-stall timeout (a connection whose peer stops
    /// reading its responses for this long is reaped).
    pub timeout: Duration,
    /// Idle-session reaping deadline.
    pub idle_timeout: Duration,
    /// Global bound on decoded queries awaiting execution; past it new
    /// queries are refused with a retryable `Overloaded` error.
    pub queue_depth: usize,
}

impl NetConfig {
    /// Build from the engine configuration. Execution concurrency is no
    /// longer a net-layer knob: connection turns run on the process-wide
    /// scheduler pool (`pool_threads` / `VERIDB_POOL`, defaulting to
    /// machine parallelism), which bounds total threads regardless of
    /// how many connections are executing.
    pub fn from_config(config: &veridb_common::VeriDbConfig) -> Self {
        let timeout = Duration::from_millis(config.net_timeout_ms);
        NetConfig {
            max_conns: config.max_conns,
            timeout,
            idle_timeout: timeout * IDLE_TIMEOUT_FACTOR,
            queue_depth: config.net_queue_depth,
        }
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    wake_tx: UnixStream,
    reactor_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Graceful shutdown: stop accepting, drain queued queries through
    /// the executor pool, flush responses, close every session, join all
    /// threads.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = (&self.wake_tx).write(&[1]);
        if let Some(t) = self.reactor_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reserve one slot of a capped counter with a compare-and-swap loop.
/// Unlike a load-then-increment pair this can never over-admit: the
/// increment happens only if the observed value was still below the cap.
pub(crate) fn try_reserve_slot(counter: &AtomicUsize, cap: usize) -> bool {
    let mut cur = counter.load(Ordering::Relaxed);
    loop {
        if cur >= cap {
            return false;
        }
        match counter.compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(now) => cur = now,
        }
    }
}

// ---------------------------------------------------------------------------
// Shared state
// ---------------------------------------------------------------------------

struct ServerShared {
    db: Arc<VeriDb>,
    qe: QuotingEnclave,
    cfg: NetConfig,
    /// Channel name → portal. Persistent across reconnects so the replay
    /// window and sequence counter outlive any one TCP connection.
    portals: Mutex<HashMap<String, Arc<QueryPortal>>>,
    /// Active connections (admission-controlled by `try_reserve_slot`).
    active: AtomicUsize,
    /// Decoded QUERY frames awaiting execution, across all connections.
    queued: AtomicUsize,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
    /// Tokens whose outbound queue gained frames (worker → reactor).
    notify: Mutex<Vec<u64>>,
    /// Write end of the reactor wake pipe (nonblocking; a full pipe is
    /// fine — any pending byte wakes the reactor).
    wake_tx: UnixStream,
}

impl ServerShared {
    fn portal(&self, channel: &str) -> Arc<QueryPortal> {
        let mut portals = self.portals.lock();
        Arc::clone(
            portals
                .entry(channel.to_owned())
                .or_insert_with(|| Arc::new(self.db.portal(channel))),
        )
    }

    /// Tell the reactor `token` has fresh outbound frames (or state to
    /// re-examine) and wake it.
    fn notify_token(&self, token: u64) {
        self.notify.lock().push(token);
        let _ = (&self.wake_tx).write(&[1]);
    }
}

/// Per-connection state shared between the reactor and the executor.
struct Conn {
    token: u64,
    peer: String,
    /// Decoded frames awaiting a worker, in arrival order.
    inbound: Mutex<VecDeque<(u8, Vec<u8>)>>,
    /// Encoded response frames awaiting the socket, in production order.
    outbound: Mutex<Outbound>,
    /// Claim flag: true while the connection is queued on (or being
    /// processed by) the executor. Guarantees per-connection serial
    /// execution and hence in-order RESULT delivery.
    scheduled: AtomicBool,
    /// Close once the outbound queue drains.
    closing: AtomicBool,
    /// Read interest dropped due to a full inbound/outbound window.
    read_paused: AtomicBool,
    /// The session's portal, pinned at handshake.
    portal: Mutex<Option<Arc<QueryPortal>>>,
    /// Set once a SHIP_SUB claimed this connection for log shipping (at
    /// most one shipper thread per connection).
    shipping: AtomicBool,
}

#[derive(Default)]
struct Outbound {
    frames: VecDeque<Vec<u8>>,
    /// Bytes of the front frame already written.
    head_off: usize,
}

/// Frames coalesced into one `writev` per socket wakeup. 64 covers the
/// depth-16 pipelining window with headroom; beyond that the iovec setup
/// cost stops paying for itself.
const WRITEV_MAX_FRAMES: usize = 64;

impl Outbound {
    /// Collect up to [`WRITEV_MAX_FRAMES`] queued frames as IO slices,
    /// the first one starting at `head_off`.
    fn gather<'a>(&'a self, bufs: &mut Vec<std::io::IoSlice<'a>>) {
        for (i, f) in self.frames.iter().take(WRITEV_MAX_FRAMES).enumerate() {
            let s = if i == 0 { &f[self.head_off..] } else { &f[..] };
            bufs.push(std::io::IoSlice::new(s));
        }
    }

    /// Consume `n` freshly written bytes from the front of the queue.
    /// Returns `(completed_frames, completed_frame_bytes)` for the
    /// outbound metrics (bytes are credited when a frame completes,
    /// matching the serial write path's accounting).
    fn advance(&mut self, mut n: usize) -> (u64, u64) {
        let mut frames = 0u64;
        let mut bytes = 0u64;
        while n > 0 {
            let front_len = self.frames.front().expect("advance past queue end").len();
            let remaining = front_len - self.head_off;
            if n >= remaining {
                n -= remaining;
                self.frames.pop_front();
                self.head_off = 0;
                frames += 1;
                bytes += front_len as u64;
            } else {
                self.head_off += n;
                n = 0;
            }
        }
        (frames, bytes)
    }
}

fn push_out(conn: &Conn, kind: u8, payload: &[u8]) {
    conn.outbound
        .lock()
        .frames
        .push_back(encode_frame(kind, payload));
}

// ---------------------------------------------------------------------------
// Executor: connection turns on the shared scheduler pool
// ---------------------------------------------------------------------------

/// The turn dispatcher. Connections (not frames) are the scheduling
/// unit: a connection is claimed at most once (`Conn::scheduled`); each
/// claim spawns one **turn** as a task on the process-wide scheduler
/// pool ([`sched::spawn`]). A turn drains up to [`FAIR_BATCH`] of the
/// connection's frames, then either respawns itself (more work pending —
/// going to the back of the pool's task queue gives round-robin fairness
/// across busy connections) or releases the claim. The executor owns no
/// threads: total execution threads are bounded by the pool size no
/// matter how many connections are active, and a turn running a parallel
/// query help-executes that query's job on the same pool.
struct Executor {
    /// Turns spawned but not yet finished; graceful shutdown waits for
    /// zero instead of joining workers (the pool is process-lifetime).
    outstanding: AtomicUsize,
}

impl Executor {
    fn new() -> Arc<Executor> {
        Arc::new(Executor {
            outstanding: AtomicUsize::new(0),
        })
    }

    /// Queue a turn for `conn` unless one is already claimed.
    fn schedule(self: &Arc<Self>, conn: &Arc<Conn>, shared: &Arc<ServerShared>) {
        if !conn.scheduled.swap(true, Ordering::AcqRel) {
            self.submit(Arc::clone(conn), Arc::clone(shared));
        }
    }

    /// Spawn one turn task on the shared pool (claim already held).
    fn submit(self: &Arc<Self>, conn: Arc<Conn>, shared: Arc<ServerShared>) {
        self.outstanding.fetch_add(1, Ordering::AcqRel);
        let exec = Arc::clone(self);
        sched::spawn(move || exec.run_turn(conn, shared));
    }

    /// One turn: process a fair batch → respawn or release. A panic
    /// inside the turn is caught, counted (`net.worker_panics`), and the
    /// offending connection is torn down; the pool worker survives.
    fn run_turn(self: &Arc<Self>, conn: Arc<Conn>, shared: Arc<ServerShared>) {
        let turn = catch_unwind(AssertUnwindSafe(|| process_turn(&conn, &shared)));
        match turn {
            Ok(()) => {
                let more = !conn.inbound.lock().is_empty() && !conn.closing.load(Ordering::Acquire);
                if more {
                    // Fairness: back of the task queue, claim kept.
                    self.submit(conn, shared);
                } else {
                    conn.scheduled.store(false, Ordering::Release);
                    // Recheck: the reactor may have enqueued between our
                    // drain and the release; reclaim if it did not race a
                    // schedule of its own.
                    if !conn.inbound.lock().is_empty()
                        && !conn.scheduled.swap(true, Ordering::AcqRel)
                    {
                        self.submit(conn, shared);
                    }
                }
            }
            Err(_) => {
                shared.metrics.inc(Metric::NetWorkerPanics);
                // The session is unrecoverable mid-frame; drop it. The
                // reactor reconciles the queue accounting at close.
                conn.closing.store(true, Ordering::Release);
                conn.scheduled.store(false, Ordering::Release);
                shared.notify_token(conn.token);
            }
        }
        self.outstanding.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Test hook: turns for this token panic inside `process_turn`, so the
/// executor's catch-and-teardown path can be exercised (no production
/// frame can be made to panic deterministically).
#[cfg(test)]
static TEST_PANIC_TOKEN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(u64::MAX);

/// Process up to [`FAIR_BATCH`] frames of one connection.
fn process_turn(conn: &Arc<Conn>, shared: &Arc<ServerShared>) {
    #[cfg(test)]
    if conn.token == TEST_PANIC_TOKEN.load(Ordering::Relaxed) {
        panic!("injected turn panic");
    }
    let m = &shared.metrics;
    let mut handled = 0usize;
    while handled < FAIR_BATCH && !conn.closing.load(Ordering::Acquire) {
        let Some((kind, payload)) = conn.inbound.lock().pop_front() else {
            break;
        };
        handled += 1;
        let was_query = kind == MSG_QUERY;
        handle_frame(conn, shared, kind, &payload, m);
        if was_query {
            shared.queued.fetch_sub(1, Ordering::AcqRel);
            m.dec(Metric::NetQueued);
        }
    }
    if handled > 0 {
        shared.notify_token(conn.token);
    }
}

fn handle_frame(
    conn: &Arc<Conn>,
    shared: &Arc<ServerShared>,
    kind: u8,
    payload: &[u8],
    m: &Metrics,
) {
    match kind {
        MSG_QUERY => {
            let started = Instant::now();
            let q = match decode_query(payload) {
                Ok(q) => q,
                Err(e) => {
                    // Mangled payload behind a valid CRC: the framing
                    // layer is untrusted, so report and drop the
                    // connection; never guess at a query.
                    m.inc(Metric::NetFrameRejects);
                    push_out(conn, MSG_ERROR, &encode_error(0, &e));
                    conn.closing.store(true, Ordering::Release);
                    return;
                }
            };
            let portal = conn.portal.lock().clone();
            let Some(portal) = portal else {
                // Unreachable: the reactor admits QUERY frames only after
                // the handshake pinned a portal. Defensive close.
                conn.closing.store(true, Ordering::Release);
                return;
            };
            let reply = portal.submit(&q);
            if let Err(Error::AuthFailed(_) | Error::ReplayDetected { .. }) = &reply {
                m.inc(Metric::NetAuthRejects);
            }
            match reply {
                Ok(endorsed) => push_out(conn, MSG_RESULT, &encode_result(&endorsed)),
                Err(e) => push_out(conn, MSG_ERROR, &encode_error(q.qid, &e)),
            }
            m.record(Metric::NetWireNs, started.elapsed().as_nanos() as u64);
        }
        MSG_STATS => {
            let text = shared.db.metrics().to_string();
            push_out(conn, MSG_STATS_OK, text.as_bytes());
        }
        MSG_SHIP_SUB => {
            let refuse = |conn: &Conn, e: &Error| {
                push_out(conn, MSG_ERROR, &encode_error(0, e));
                conn.closing.store(true, Ordering::Release);
            };
            let Ok(from_lsn) = decode_ship_sub(payload) else {
                m.inc(Metric::NetFrameRejects);
                refuse(conn, &Error::Codec("mangled SHIP_SUB".into()));
                return;
            };
            let Some(durable) = shared.db.durable() else {
                refuse(
                    conn,
                    &Error::InvalidArgument(
                        "log shipping needs a durable server (start with --data-dir)".into(),
                    ),
                );
                return;
            };
            if conn.shipping.swap(true, Ordering::AcqRel) {
                refuse(
                    conn,
                    &Error::InvalidArgument("connection already has a ship subscription".into()),
                );
                return;
            }
            let meta = ShipMeta {
                epoch: durable.epoch(),
                durable_lsn: durable.wal().durable_lsn(),
                sealed_seed: durable.seed_bytes().to_vec(),
            };
            push_out(conn, MSG_SHIP_META, &encode_ship_meta(&meta));
            spawn_shipper(Arc::clone(shared), Arc::clone(conn), from_lsn.max(1));
        }
        MSG_SHIP_ACK => {
            let Ok(acked) = decode_ship_ack(payload) else {
                m.inc(Metric::NetFrameRejects);
                conn.closing.store(true, Ordering::Release);
                return;
            };
            if let Some(durable) = shared.db.durable() {
                durable.note_ship_lag(acked);
            }
        }
        MSG_BYE => conn.closing.store(true, Ordering::Release),
        other => {
            m.inc(Metric::NetFrameRejects);
            let e = Error::Net {
                peer: conn.peer.clone(),
                op: "read frame".into(),
                detail: format!("unexpected frame kind {other}"),
            };
            push_out(conn, MSG_ERROR, &encode_error(0, &e));
            conn.closing.store(true, Ordering::Release);
        }
    }
}

/// Stream the endorsed log to a subscribed replica on a dedicated thread.
///
/// The thread tails the WAL with [`Wal::wait_for_durable_past`] (it never
/// elects itself group-commit flusher — commit latency stays with the
/// committers) and pushes SHIP frames through the connection's normal
/// outbound queue, waking the reactor per batch. When the tip is idle it
/// emits an empty SHIP as a heartbeat. A saturated outbound window pauses
/// shipping rather than buffering without bound, and the thread exits as
/// soon as the connection closes or the server shuts down.
fn spawn_shipper(shared: Arc<ServerShared>, conn: Arc<Conn>, from_lsn: u64) {
    let conn_for_err = Arc::clone(&conn);
    let spawned = std::thread::Builder::new()
        .name("veridb-net-shipper".into())
        .spawn(move || {
            let Some(durable) = shared.db.durable().cloned() else {
                return;
            };
            let wal = Arc::clone(durable.wal());
            let mut next = from_lsn;
            while !shared.shutdown.load(Ordering::SeqCst) && !conn.closing.load(Ordering::Acquire) {
                if conn.outbound.lock().frames.len() >= OUTBOUND_CAP / 2 {
                    std::thread::sleep(SHIP_STALL_PAUSE);
                    continue;
                }
                let batch = match wal.records_from(next, SHIP_BATCH_RECORDS.min(MAX_SHIP_RECORDS)) {
                    Ok(batch) => batch,
                    Err(_) => break, // WAL poisoned/closed: drop the subscription
                };
                if batch.is_empty() {
                    // Wait for the durable tip to reach `next`; heartbeat
                    // if it does not within the window.
                    if wal.wait_for_durable_past(next - 1, SHIP_HEARTBEAT) < next {
                        push_out(&conn, MSG_SHIP, &encode_ship(&[]));
                        shared.notify_token(conn.token);
                    }
                    continue;
                }
                next = batch.last().expect("non-empty batch").lsn + 1;
                shared
                    .metrics
                    .add(Metric::LogShippedRecords, batch.len() as u64);
                push_out(&conn, MSG_SHIP, &encode_ship(&batch));
                shared.notify_token(conn.token);
            }
        });
    if spawned.is_err() {
        conn_for_err.closing.store(true, Ordering::Release);
    }
}

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

/// Registry entry: everything only the reactor touches for one socket.
struct ConnEntry {
    stream: TcpStream,
    conn: Arc<Conn>,
    decoder: FrameDecoder,
    interest: Interest,
    last_activity: Instant,
    /// Set while a write is blocked on a full socket buffer.
    write_stalled_since: Option<Instant>,
    handshaken: bool,
}

struct Reactor {
    poller: Poller,
    listener: TcpListener,
    listener_paused: bool,
    conns: HashMap<u64, ConnEntry>,
    next_token: u64,
    shared: Arc<ServerShared>,
    exec: Arc<Executor>,
    wake_rx: UnixStream,
}

/// Start serving `db` on `addr` ("host:port"; port 0 picks a free port).
/// Returns once the listener is bound; serving happens on background
/// threads until [`ServerHandle::shutdown`].
pub fn serve(db: Arc<VeriDb>, addr: &str) -> Result<ServerHandle> {
    let net_err = |op: &str, e: &dyn std::fmt::Display| Error::Net {
        peer: addr.to_owned(),
        op: op.into(),
        detail: e.to_string(),
    };
    let listener = TcpListener::bind(addr).map_err(|e| net_err("bind", &e))?;
    let local_addr = listener
        .local_addr()
        .map_err(|e| net_err("local_addr", &e))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| net_err("set_nonblocking", &e))?;

    let (wake_tx, wake_rx) = UnixStream::pair().map_err(|e| net_err("wake pipe", &e))?;
    wake_tx
        .set_nonblocking(true)
        .map_err(|e| net_err("wake pipe", &e))?;
    wake_rx
        .set_nonblocking(true)
        .map_err(|e| net_err("wake pipe", &e))?;
    let handle_wake = wake_tx.try_clone().map_err(|e| net_err("wake pipe", &e))?;

    let shutdown = Arc::new(AtomicBool::new(false));
    let metrics = Arc::clone(db.memory().metrics());
    let shared = Arc::new(ServerShared {
        qe: QuotingEnclave::new(SIM_ATTESTATION_ROOT),
        cfg: NetConfig::from_config(db.config()),
        db,
        portals: Mutex::new(HashMap::new()),
        active: AtomicUsize::new(0),
        queued: AtomicUsize::new(0),
        shutdown: Arc::clone(&shutdown),
        metrics,
        notify: Mutex::new(Vec::new()),
        wake_tx,
    });

    let poller = Poller::new().map_err(|e| net_err("epoll_create", &e))?;
    poller
        .add(wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::READ)
        .map_err(|e| net_err("epoll register wake", &e))?;
    poller
        .add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
        .map_err(|e| net_err("epoll register listener", &e))?;

    // No executor threads to spawn: connection turns run on the
    // process-wide scheduler pool, started lazily on first use.
    let exec = Executor::new();

    let reactor = Reactor {
        poller,
        listener,
        listener_paused: false,
        conns: HashMap::new(),
        next_token: 0,
        shared,
        exec,
        wake_rx,
    };
    let reactor_thread = std::thread::Builder::new()
        .name("veridb-net-reactor".into())
        .spawn(move || reactor.run())
        .map_err(|e| net_err("spawn reactor thread", &e))?;

    Ok(ServerHandle {
        local_addr,
        shutdown,
        wake_tx: handle_wake,
        reactor_thread: Some(reactor_thread),
    })
}

impl Reactor {
    fn run(mut self) {
        let mut events = Vec::new();
        let mut last_sweep = Instant::now();
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            match self.poller.wait(&mut events, TICK_MS) {
                Ok(_) => {}
                Err(e) => {
                    eprintln!("veridb-net: epoll_wait failed: {e}");
                    break;
                }
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            for ev in events.iter().copied() {
                match ev.token {
                    WAKE_TOKEN => self.drain_wake(),
                    LISTENER_TOKEN => self.accept_ready(),
                    token => self.conn_event(token, ev.readable || ev.hangup, ev.writable),
                }
            }
            self.flush_notified();
            if last_sweep.elapsed() >= SWEEP_EVERY {
                self.sweep(Instant::now());
                last_sweep = Instant::now();
            }
        }
        self.graceful_shutdown();
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut buf), Ok(n) if n > 0) {}
    }

    /// Accept as many pending connections as the cap admits; at the cap,
    /// pause the listener (kernel backlog holds the rest).
    fn accept_ready(&mut self) {
        loop {
            if !try_reserve_slot(&self.shared.active, self.shared.cfg.max_conns) {
                self.pause_listener();
                return;
            }
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    if let Err(e) = self.register_conn(stream, peer) {
                        eprintln!("veridb-net: failed to register {peer}: {e}");
                        self.shared.active.fetch_sub(1, Ordering::AcqRel);
                        self.shared.metrics.inc(Metric::NetRejected);
                    }
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.shared.active.fetch_sub(1, Ordering::AcqRel);
                    return;
                }
                Err(e) => {
                    eprintln!("veridb-net: accept failed: {e}");
                    self.shared.active.fetch_sub(1, Ordering::AcqRel);
                    return;
                }
            }
        }
    }

    fn register_conn(&mut self, stream: TcpStream, peer: SocketAddr) -> std::io::Result<()> {
        stream.set_nonblocking(true)?;
        // Responses are written as whole frames; don't let Nagle delay
        // the tail of a pipelined burst.
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        self.poller.add(stream.as_raw_fd(), token, Interest::READ)?;
        let conn = Arc::new(Conn {
            token,
            peer: peer.to_string(),
            inbound: Mutex::new(VecDeque::new()),
            outbound: Mutex::new(Outbound::default()),
            scheduled: AtomicBool::new(false),
            closing: AtomicBool::new(false),
            read_paused: AtomicBool::new(false),
            portal: Mutex::new(None),
            shipping: AtomicBool::new(false),
        });
        self.conns.insert(
            token,
            ConnEntry {
                stream,
                conn,
                decoder: FrameDecoder::new(),
                interest: Interest::READ,
                last_activity: Instant::now(),
                write_stalled_since: None,
                handshaken: false,
            },
        );
        self.shared.metrics.inc(Metric::NetAccepted);
        self.shared.metrics.inc(Metric::NetActiveConns);
        Ok(())
    }

    fn pause_listener(&mut self) {
        if !self.listener_paused {
            self.listener_paused = true;
            let _ = self
                .poller
                .modify(self.listener.as_raw_fd(), LISTENER_TOKEN, Interest::NONE);
        }
    }

    fn maybe_resume_listener(&mut self) {
        if self.listener_paused
            && self.shared.active.load(Ordering::Acquire) < self.shared.cfg.max_conns
        {
            self.listener_paused = false;
            let _ = self
                .poller
                .modify(self.listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ);
        }
    }

    fn conn_event(&mut self, token: u64, readable: bool, writable: bool) {
        let keep = match self.conns.get_mut(&token) {
            None => return,
            Some(entry) => {
                if readable {
                    entry.last_activity = Instant::now();
                    handle_readable(&self.poller, &self.shared, &self.exec, entry)
                } else {
                    true
                }
            }
        };
        if !keep {
            self.close_conn(token);
            return;
        }
        if readable || writable {
            self.flush_token(token);
        }
    }

    /// Flush connections whose workers queued fresh output (or flagged
    /// state changes like closing).
    fn flush_notified(&mut self) {
        let tokens = std::mem::take(&mut *self.shared.notify.lock());
        for token in tokens {
            self.flush_token(token);
        }
    }

    fn flush_token(&mut self, token: u64) {
        let keep = match self.conns.get_mut(&token) {
            None => return,
            Some(entry) => flush_entry(&self.poller, &self.shared, &self.exec, entry),
        };
        if !keep {
            self.close_conn(token);
        }
    }

    /// Reap idle sessions and write-stalled peers.
    fn sweep(&mut self, now: Instant) {
        let idle = self.shared.cfg.idle_timeout;
        let stall = self.shared.cfg.timeout;
        let mut doomed: Vec<(u64, bool)> = Vec::new();
        for (&token, entry) in &self.conns {
            if now.duration_since(entry.last_activity) >= idle
                && !entry.conn.closing.load(Ordering::Acquire)
            {
                doomed.push((token, true));
            } else if entry
                .write_stalled_since
                .is_some_and(|t| now.duration_since(t) >= stall)
            {
                doomed.push((token, false));
            }
        }
        for (token, send_bye) in doomed {
            self.shared.metrics.inc(Metric::NetTimeouts);
            if send_bye {
                if let Some(entry) = self.conns.get_mut(&token) {
                    push_out(&entry.conn, MSG_BYE, &[]);
                    let _ = flush_entry(&self.poller, &self.shared, &self.exec, entry);
                }
            }
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        let Some(entry) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.poller.delete(entry.stream.as_raw_fd());
        // Stop any in-flight worker turn at the next frame boundary and
        // reconcile the global queue count for frames it will never see.
        entry.conn.closing.store(true, Ordering::Release);
        let abandoned: Vec<(u8, Vec<u8>)> = entry.conn.inbound.lock().drain(..).collect();
        let m = &self.shared.metrics;
        for (kind, _) in abandoned {
            if kind == MSG_QUERY {
                self.shared.queued.fetch_sub(1, Ordering::AcqRel);
                m.dec(Metric::NetQueued);
            }
        }
        m.dec(Metric::NetActiveConns);
        if !entry.handshaken {
            m.inc(Metric::NetRejected);
        }
        self.shared.active.fetch_sub(1, Ordering::AcqRel);
        self.maybe_resume_listener();
        let _ = entry.stream.shutdown(std::net::Shutdown::Both);
    }

    /// One bounded iteration of the event loop — used while draining
    /// during shutdown, when the main loop has already exited.
    fn pump(&mut self, timeout_ms: i32) {
        let mut events = Vec::new();
        if self.poller.wait(&mut events, timeout_ms).is_err() {
            return;
        }
        for ev in events.iter().copied() {
            match ev.token {
                WAKE_TOKEN => self.drain_wake(),
                LISTENER_TOKEN => {}
                token => self.conn_event(token, ev.readable || ev.hangup, ev.writable),
            }
        }
        self.flush_notified();
        // Push on every pending outbound queue, not just notified ones.
        let tokens: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, e)| !e.conn.outbound.lock().frames.is_empty())
            .map(|(&t, _)| t)
            .collect();
        for t in tokens {
            self.flush_token(t);
        }
    }

    fn graceful_shutdown(&mut self) {
        // 1. Stop accepting.
        let _ = self.poller.delete(self.listener.as_raw_fd());
        self.listener_paused = true;
        // 2. Drain: every outstanding connection turn on the shared pool
        //    finishes (turns respawn themselves while frames remain, so
        //    zero outstanding + empty inbound queues = fully drained),
        //    while the reactor keeps pumping so responses flush.
        let deadline = Instant::now() + self.shared.cfg.idle_timeout;
        loop {
            let turns_done = self.exec.outstanding.load(Ordering::Acquire) == 0
                && self
                    .conns
                    .values()
                    .all(|e| e.conn.inbound.lock().is_empty());
            self.pump(25);
            let flushed = self
                .conns
                .values()
                .all(|e| e.conn.outbound.lock().frames.is_empty());
            if (turns_done && flushed) || Instant::now() >= deadline {
                break;
            }
        }
        // 3. Orderly goodbye to every remaining session. (No worker
        //    threads to join: the shared pool outlives the server.)
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in &tokens {
            if let Some(entry) = self.conns.get_mut(token) {
                push_out(&entry.conn, MSG_BYE, &[]);
            }
        }
        self.pump(0);
        self.pump(25);
        for token in tokens {
            self.close_conn(token);
        }
    }
}

// ---------------------------------------------------------------------------
// Reactor ↔ socket helpers (free functions so the borrow of one registry
// entry never aliases the whole reactor)
// ---------------------------------------------------------------------------

/// Read until `WouldBlock` (or pause/EOF/error), decoding and dispatching
/// complete frames. Returns false when the connection must close.
fn handle_readable(
    poller: &Poller,
    shared: &Arc<ServerShared>,
    exec: &Arc<Executor>,
    entry: &mut ConnEntry,
) -> bool {
    let mut buf = [0u8; READ_CHUNK];
    loop {
        if entry.conn.read_paused.load(Ordering::Acquire) {
            return true;
        }
        match entry.stream.read(&mut buf) {
            Ok(0) => return false,
            Ok(n) => {
                shared.metrics.add(Metric::NetBytesIn, n as u64);
                entry.decoder.extend(&buf[..n]);
                if !drain_decoded(poller, shared, exec, entry) {
                    return false;
                }
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// Dispatch every complete frame sitting in the decoder, stopping early
/// if dispatch pauses reading. Returns false when the connection must
/// close (framing error or protocol violation).
fn drain_decoded(
    poller: &Poller,
    shared: &Arc<ServerShared>,
    exec: &Arc<Executor>,
    entry: &mut ConnEntry,
) -> bool {
    loop {
        if entry.conn.read_paused.load(Ordering::Acquire) {
            return true;
        }
        match entry.decoder.next_frame(&entry.conn.peer) {
            Ok(None) => return true,
            Ok(Some((kind, payload))) => {
                shared.metrics.inc(Metric::NetFramesIn);
                if !dispatch_frame(poller, shared, exec, entry, kind, payload) {
                    return false;
                }
            }
            Err(_) => {
                // Any decoder failure is a framing reject: bad magic,
                // version, oversize, or CRC. Count and close; the byte
                // stream is unrecoverable.
                shared.metrics.inc(Metric::NetFrameRejects);
                return false;
            }
        }
    }
}

/// Route one complete frame: handshake inline (cheap — one quote), BYE /
/// STATS / QUERY through the executor for in-order processing. Returns
/// false when the connection must close.
fn dispatch_frame(
    poller: &Poller,
    shared: &Arc<ServerShared>,
    exec: &Arc<Executor>,
    entry: &mut ConnEntry,
    kind: u8,
    payload: Vec<u8>,
) -> bool {
    let m = &shared.metrics;
    if !entry.handshaken {
        if kind != MSG_HELLO {
            m.inc(Metric::NetFrameRejects);
            return false;
        }
        let Ok((channel, nonce)) = decode_hello(&payload) else {
            m.inc(Metric::NetFrameRejects);
            return false;
        };
        let portal = shared.portal(&channel);
        let quote = shared.db.enclave().quote(&shared.qe, &nonce);
        let msg = QuoteMsg {
            measurement: *quote.report.measurement.as_bytes(),
            user_data: quote.report.user_data,
            signature: quote.signature,
            key: portal
                .channel_key_for_attested_client()
                .key_exchange_bytes(),
        };
        *entry.conn.portal.lock() = Some(portal);
        entry.handshaken = true;
        push_out(&entry.conn, MSG_QUOTE, &encode_quote(&msg));
        return true;
    }
    match kind {
        MSG_QUERY => {
            // Admission: reserve a slot in the global query queue or
            // refuse visibly and retryably. The refused query never
            // reaches a portal, so its qid stays unspent.
            if !try_reserve_slot(&shared.queued, shared.cfg.queue_depth) {
                m.inc(Metric::NetOverloaded);
                let qid = peek_query_qid(&payload).unwrap_or(0);
                let e = Error::Overloaded {
                    queued: shared.queued.load(Ordering::Relaxed),
                    limit: shared.cfg.queue_depth,
                };
                push_out(&entry.conn, MSG_ERROR, &encode_error(qid, &e));
                return true;
            }
            m.inc(Metric::NetQueued);
            enqueue_inbound(poller, shared, exec, entry, kind, payload);
        }
        MSG_STATS | MSG_BYE | MSG_SHIP_SUB | MSG_SHIP_ACK => {
            // Through the inbound queue so they stay ordered behind any
            // pipelined queries ahead of them.
            enqueue_inbound(poller, shared, exec, entry, kind, payload);
        }
        other => {
            m.inc(Metric::NetFrameRejects);
            let e = Error::Net {
                peer: entry.conn.peer.clone(),
                op: "read frame".into(),
                detail: format!("unexpected frame kind {other}"),
            };
            push_out(&entry.conn, MSG_ERROR, &encode_error(0, &e));
            return false;
        }
    }
    true
}

fn enqueue_inbound(
    poller: &Poller,
    shared: &Arc<ServerShared>,
    exec: &Arc<Executor>,
    entry: &mut ConnEntry,
    kind: u8,
    payload: Vec<u8>,
) {
    let inbound_len = {
        let mut q = entry.conn.inbound.lock();
        q.push_back((kind, payload));
        q.len()
    };
    let outbound_len = entry.conn.outbound.lock().frames.len();
    if inbound_len >= INBOUND_CAP || outbound_len >= OUTBOUND_CAP {
        pause_read(poller, entry);
    }
    exec.schedule(&entry.conn, shared);
}

fn pause_read(poller: &Poller, entry: &mut ConnEntry) {
    if !entry.conn.read_paused.swap(true, Ordering::AcqRel) {
        entry.interest.readable = false;
        let _ = poller.modify(entry.stream.as_raw_fd(), entry.conn.token, entry.interest);
    }
}

/// Write as much queued output as the socket takes. Handles write-
/// interest arming, read resumption after backpressure, and deferred
/// close. Returns false when the connection must close.
fn flush_entry(
    poller: &Poller,
    shared: &Arc<ServerShared>,
    exec: &Arc<Executor>,
    entry: &mut ConnEntry,
) -> bool {
    let m = &shared.metrics;
    let drained = loop {
        let mut ob = entry.conn.outbound.lock();
        if ob.frames.is_empty() {
            break true;
        }
        // Coalesce every queued frame (up to the iovec cap) into one
        // vectored write — under depth-16 pipelining this turns one
        // syscall per frame into one per wakeup.
        let (wrote, nbufs) = {
            let mut bufs: Vec<std::io::IoSlice<'_>> =
                Vec::with_capacity(ob.frames.len().min(WRITEV_MAX_FRAMES));
            ob.gather(&mut bufs);
            (entry.stream.write_vectored(&bufs), bufs.len() as u64)
        };
        match wrote {
            // A 0-byte vectored write over non-empty slices means the
            // socket took nothing; treat it like a full buffer rather
            // than spinning.
            Ok(0) => {
                drop(ob);
                if !entry.interest.writable {
                    entry.interest.writable = true;
                    let _ =
                        poller.modify(entry.stream.as_raw_fd(), entry.conn.token, entry.interest);
                }
                entry.write_stalled_since.get_or_insert_with(Instant::now);
                break false;
            }
            Ok(n) => {
                let (frames, bytes) = ob.advance(n);
                m.record(Metric::NetWritevFrames, nbufs);
                m.add(Metric::NetFramesOut, frames);
                m.add(Metric::NetBytesOut, bytes);
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                drop(ob);
                if !entry.interest.writable {
                    entry.interest.writable = true;
                    let _ =
                        poller.modify(entry.stream.as_raw_fd(), entry.conn.token, entry.interest);
                }
                entry.write_stalled_since.get_or_insert_with(Instant::now);
                break false;
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    };
    if !drained {
        return true;
    }
    entry.write_stalled_since = None;
    if entry.interest.writable {
        entry.interest.writable = false;
        let _ = poller.modify(entry.stream.as_raw_fd(), entry.conn.token, entry.interest);
    }
    if entry.conn.closing.load(Ordering::Acquire)
        && !entry.conn.scheduled.load(Ordering::Acquire)
        && entry.conn.inbound.lock().is_empty()
    {
        return false;
    }
    maybe_resume_read(poller, shared, exec, entry);
    true
}

/// Re-arm read interest once the frame windows have drained below half,
/// then immediately dispatch any frames still buffered in the decoder —
/// the kernel will not re-signal readability for bytes we already read.
fn maybe_resume_read(
    poller: &Poller,
    shared: &Arc<ServerShared>,
    exec: &Arc<Executor>,
    entry: &mut ConnEntry,
) {
    if !entry.conn.read_paused.load(Ordering::Acquire) {
        return;
    }
    let inbound_len = entry.conn.inbound.lock().len();
    let outbound_len = entry.conn.outbound.lock().frames.len();
    if inbound_len > INBOUND_CAP / 2 || outbound_len > OUTBOUND_CAP / 2 {
        return;
    }
    entry.conn.read_paused.store(false, Ordering::Release);
    if !drain_decoded(poller, shared, exec, entry) {
        // Framing violation discovered in the backlog: defer the close
        // through the normal path.
        entry.conn.closing.store(true, Ordering::Release);
        shared.notify_token(entry.conn.token);
        return;
    }
    if !entry.conn.read_paused.load(Ordering::Acquire) && !entry.interest.readable {
        entry.interest.readable = true;
        let _ = poller.modify(entry.stream.as_raw_fd(), entry.conn.token, entry.interest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbound_gather_honors_head_offset_and_cap() {
        let mut ob = Outbound::default();
        for i in 0..(WRITEV_MAX_FRAMES + 5) {
            ob.frames.push_back(vec![i as u8; 10]);
        }
        ob.head_off = 3;
        let mut bufs = Vec::new();
        ob.gather(&mut bufs);
        assert_eq!(bufs.len(), WRITEV_MAX_FRAMES, "iovec count capped");
        assert_eq!(bufs[0].len(), 7, "first slice skips written prefix");
        assert_eq!(bufs[1].len(), 10, "later frames offered whole");
    }

    #[test]
    fn outbound_advance_matches_frame_boundaries() {
        let mut ob = Outbound::default();
        ob.frames.push_back(vec![0; 10]);
        ob.frames.push_back(vec![1; 20]);
        ob.frames.push_back(vec![2; 30]);

        // Partial write inside the first frame.
        assert_eq!(ob.advance(4), (0, 0));
        assert_eq!(ob.head_off, 4);
        // Finish frame 1, eat all of frame 2, stop mid-frame 3; completed
        // bytes are credited as whole frames (10 + 20).
        assert_eq!(ob.advance(6 + 20 + 5), (2, 30));
        assert_eq!(ob.frames.len(), 1);
        assert_eq!(ob.head_off, 5);
        // Drain the rest.
        assert_eq!(ob.advance(25), (1, 30));
        assert!(ob.frames.is_empty());
        assert_eq!(ob.head_off, 0);
    }

    #[test]
    fn cas_admission_never_exceeds_cap_under_contention() {
        // Satellite regression: the old accept loop did a load followed
        // by a separate fetch_add, so two racing admits could both pass
        // the cap check. The CAS loop cannot.
        let cap = 8;
        let counter = Arc::new(AtomicUsize::new(0));
        let admitted = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let counter = Arc::clone(&counter);
            let admitted = Arc::clone(&admitted);
            let peak = Arc::clone(&peak);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    if try_reserve_slot(&counter, cap) {
                        admitted.fetch_add(1, Ordering::Relaxed);
                        let now = counter.load(Ordering::Relaxed);
                        peak.fetch_max(now, Ordering::Relaxed);
                        assert!(now <= cap, "admitted past the cap: {now}");
                        counter.fetch_sub(1, Ordering::AcqRel);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(admitted.load(Ordering::Relaxed) > 0);
        assert!(peak.load(Ordering::Relaxed) <= cap);
        assert_eq!(counter.load(Ordering::Relaxed), 0);
    }

    fn make_conn(token: u64) -> Arc<Conn> {
        Arc::new(Conn {
            token,
            peer: format!("test-{token}"),
            inbound: Mutex::new(VecDeque::new()),
            outbound: Mutex::new(Outbound::default()),
            scheduled: AtomicBool::new(false),
            closing: AtomicBool::new(false),
            read_paused: AtomicBool::new(false),
            portal: Mutex::new(None),
            shipping: AtomicBool::new(false),
        })
    }

    /// A real `ServerShared` (the executor needs one to run turns); the
    /// returned wake-pipe read end must stay alive for `notify_token`.
    fn test_shared() -> (Arc<ServerShared>, UnixStream) {
        let db = Arc::new(
            VeriDb::open_with_entropy(veridb_common::VeriDbConfig::default(), "net-test", [7; 32])
                .unwrap(),
        );
        let (wake_tx, wake_rx) = UnixStream::pair().unwrap();
        wake_tx.set_nonblocking(true).unwrap();
        let shared = Arc::new(ServerShared {
            qe: QuotingEnclave::new(SIM_ATTESTATION_ROOT),
            cfg: NetConfig::from_config(db.config()),
            db,
            portals: Mutex::new(HashMap::new()),
            active: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            shutdown: Arc::new(AtomicBool::new(false)),
            metrics: Arc::new(Metrics::new()),
            notify: Mutex::new(Vec::new()),
            wake_tx,
        });
        (shared, wake_rx)
    }

    fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        cond()
    }

    #[test]
    fn executor_survives_a_panicking_turn() {
        // A turn that panics on the shared pool must be caught: the panic
        // is counted, the offending connection is torn down, and the pool
        // keeps serving other connections' turns.
        let (shared, _wake_rx) = test_shared();
        let exec = Executor::new();
        let bad = make_conn(0xDEAD);
        let good = make_conn(2);
        bad.inbound.lock().push_back((MSG_BYE, Vec::new()));
        good.inbound.lock().push_back((MSG_BYE, Vec::new()));
        TEST_PANIC_TOKEN.store(0xDEAD, Ordering::Relaxed);
        exec.schedule(&bad, &shared);
        exec.schedule(&good, &shared);
        assert!(
            wait_until(Duration::from_secs(30), || {
                exec.outstanding.load(Ordering::Acquire) == 0
                    && bad.closing.load(Ordering::Acquire)
                    && good.closing.load(Ordering::Acquire)
            }),
            "both turns must finish: the panic is caught, the pool survives"
        );
        assert_eq!(
            shared.metrics.get(Metric::NetWorkerPanics),
            1,
            "panic counted once"
        );
        assert!(
            !bad.scheduled.load(Ordering::Acquire),
            "claim released after the panic teardown"
        );
        // The good connection's BYE was actually processed — proof the
        // pool worker outlived the panicking turn.
        assert!(good.inbound.lock().is_empty());
    }

    #[test]
    fn executor_requeue_keeps_per_conn_serial_claim() {
        let (shared, _wake_rx) = test_shared();
        let exec = Executor::new();
        let conn = make_conn(7);
        // A held claim suppresses the spawn entirely: per-connection
        // frame order is guaranteed by at-most-one turn in flight.
        conn.scheduled.store(true, Ordering::Release);
        exec.schedule(&conn, &shared);
        assert_eq!(
            exec.outstanding.load(Ordering::Acquire),
            0,
            "scheduling a claimed connection must not spawn a second turn"
        );
        // Release and schedule for real: the turn drains the BYE on the
        // shared pool and gives the claim back.
        conn.inbound.lock().push_back((MSG_BYE, Vec::new()));
        conn.scheduled.store(false, Ordering::Release);
        exec.schedule(&conn, &shared);
        assert!(wait_until(Duration::from_secs(30), || {
            exec.outstanding.load(Ordering::Acquire) == 0 && !conn.scheduled.load(Ordering::Acquire)
        }));
        assert!(conn.closing.load(Ordering::Acquire), "BYE processed");
        assert!(conn.inbound.lock().is_empty());
    }
}
