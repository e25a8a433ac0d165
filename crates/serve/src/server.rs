//! The daemon: acceptor, bounded admission queue, worker pool,
//! deadlines, cancellation, and graceful drain.
//!
//! ```text
//!                    ┌────────────────────────── Shared ───────────────────────────┐
//!  client ──TCP──▶ acceptor ──▶ connection reader ──try_admit──▶ [bounded queue]   │
//!    ▲               │           │  └── full → `Busy` (never buffered)   │          │
//!    └──── connection writer ◀── reply (mpsc) ◀──────────── worker ◀─────┘          │
//!                    │               metrics ◀── everyone                          │
//!                    └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Design rules, in order:
//!
//! * **bounded memory** — a request is either executing, in the
//!   fixed-capacity queue, or refused with [`Response::Busy`]; there is
//!   no unbounded buffer anywhere (frames are length-checked before
//!   they are read, the queue before it is pushed);
//! * **deadlines propagate** — a request's `deadline_ms` becomes a
//!   tuner [`Budget::deadline`](fm_autotune::Budget) (endpoints without
//!   a budget check it before they run), and every admitted request
//!   carries a [`CancelToken`] that the connection latches when its
//!   client leaves, so an abandoned search stops burning cores between
//!   candidate evaluations;
//! * **drain, then exit** — shutdown closes admission first; admitted
//!   requests run to completion and their replies are delivered before
//!   any thread exits.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use fm_autotune::{Budget, CacheStatus, CancelToken, Tuner, TuningCache};
use fm_core::cost::Evaluator;
use fm_core::legality::check;
use fm_core::machine::MachineConfig;
use fm_core::search::MappingCandidate;
use fm_costmodel::CostModelKind;
use fm_grid::{SimConfig, Simulator};
use fm_workspan::ThreadPool;

use crate::fleet::{Fleet, FleetConfig};
use crate::metrics::{Metrics, StatsReply};
use crate::protocol::{
    decode_request_any, encode_response, encode_response_binary, is_binary, queue_frame,
    read_frame_until, BusyReply, EvaluateReply, EvaluateRequest, FailReply, HelloAckReply,
    MembershipReply, NoSuchSessionReply, Request, Response, SessionCloseRequest,
    SessionClosedReply, SessionEditRequest, SessionEditedReply, SessionOpenRequest,
    SessionOpenedReply, SessionTuneRequest, SessionTunedReply, ShardBest, SimulateReply,
    SimulateRequest, TuneReply, TuneRequest, TuneShardBody, TuneShardPart, TuneShardPartBody,
    TuneShardReply, TuneShardRequest, WireError, BINARY_HEADER, DEFAULT_MAX_FRAME,
    PROTOCOL_BINARY_VERSION,
};
use crate::session::{EditOutcome, SessionRegistry, SessionState};

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing admitted requests (each `Tune`
    /// additionally fans candidates across the shared tuner pool).
    pub workers: usize,
    /// Threads in the shared `fm-workspan` pool reused across requests.
    pub tuner_threads: usize,
    /// Admission-queue capacity: requests beyond this are refused with
    /// `Busy`, never buffered.
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Directory for the persistent tuning cache shared by `Tune`
    /// requests with `use_cache`; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Largest accepted frame payload.
    pub max_frame: usize,
    /// Run as a fleet coordinator over these shards: eligible `Tune`
    /// requests are partitioned across the backends and merged (see
    /// [`crate::fleet`]). `None` serves every request locally.
    pub fleet: Option<FleetConfig>,
    /// Scripted per-candidate slowdown for `TuneShard` work, in
    /// milliseconds: a bench/chaos hook that makes *this* server a
    /// deterministic straggler. Applied identically whatever the chunk
    /// size (it models slow compute, not slow frames), so comparisons
    /// between chunk sizes stay fair. `None` in production.
    pub straggle_ms_per_candidate: Option<u64>,
    /// Evict sessions idle for at least this long (no edit, tune, or
    /// close touched them). `None` keeps sessions until closed — fine
    /// for trusted clients, a leak under crash-prone ones.
    pub session_ttl: Option<Duration>,
    /// Coalesce queued `Tune` requests equal to the one a worker is
    /// about to run (decoded fields compared, `deadline_ms` excluded;
    /// a NaN never matches, `-0.0` matches `0.0`) into one search whose
    /// result fans out to every waiter. The search is deterministic, so
    /// waiters get bit-identical winners to the searches they skipped.
    /// The batch runs under the *first* request's cancellation token; a
    /// waiter disconnecting does not stop it.
    pub dedup_tunes: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ServerConfig {
            workers: 2,
            tuner_threads: cores.min(8),
            queue_capacity: 64,
            default_deadline_ms: None,
            cache_dir: None,
            max_frame: DEFAULT_MAX_FRAME,
            fleet: None,
            straggle_ms_per_candidate: None,
            session_ttl: None,
            dedup_tunes: true,
        }
    }
}

/// How one reply is framed: the correlation id and encoding of the
/// request frame that provoked it — binary with the id for a binary
/// envelope, classic JSON for JSON text.
#[derive(Clone, Copy)]
struct Tag {
    corr: u64,
    binary: bool,
}

impl Tag {
    fn encode(self, resp: &Response) -> Vec<u8> {
        if self.binary {
            encode_response_binary(self.corr, resp)
        } else {
            encode_response(resp)
        }
    }
}

/// Where a job's responses go: the writer channel of the connection
/// that admitted it, tagged like the request frame so a pipelined
/// connection can match out-of-order completions.
#[derive(Clone)]
struct Reply {
    tag: Tag,
    tx: mpsc::Sender<(Tag, Response)>,
}

impl Reply {
    /// Deliver the response; `false` means the connection side is gone
    /// (the reply is dropped, never an error for the worker).
    fn send(&self, resp: Response) -> bool {
        self.tx.send((self.tag, resp)).is_ok()
    }
}

/// One admitted request, waiting for (or undergoing) execution.
struct Job {
    request: Request,
    accepted: Instant,
    deadline: Option<Instant>,
    cancel: CancelToken,
    reply: Reply,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct Shared {
    config: ServerConfig,
    metrics: Metrics,
    pool: ThreadPool,
    cache: Option<TuningCache>,
    fleet: Option<Arc<Fleet>>,
    sessions: SessionRegistry,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    local_addr: SocketAddr,
    conn_handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Idempotently begin the drain: close admission, wake everyone.
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        {
            let mut q = self.queue.lock();
            q.closed = true;
        }
        self.queue_cv.notify_all();
        // Unblock the acceptor's blocking accept() with a throwaway
        // connection; it re-checks the flag on wake.
        let _ = TcpStream::connect(self.local_addr);
    }

    /// Push unless full or closed; `false` means refused (the job is
    /// dropped — it was never buffered).
    fn try_admit(&self, job: Job) -> bool {
        let depth = {
            let mut q = self.queue.lock();
            if q.closed || q.jobs.len() >= self.config.queue_capacity {
                return false;
            }
            q.jobs.push_back(job);
            q.jobs.len()
        };
        self.metrics.queue_pushed(depth);
        self.queue_cv.notify_one();
        true
    }

    /// Blocking pop; `None` once the queue is closed *and* empty (the
    /// drain guarantee: every admitted job is handed to a worker).
    fn pop(&self) -> Option<Job> {
        let mut q = self.queue.lock();
        loop {
            if let Some(job) = q.jobs.pop_front() {
                let depth = q.jobs.len();
                drop(q);
                self.metrics.queue_popped(depth);
                return Some(job);
            }
            if q.closed {
                return None;
            }
            self.queue_cv.wait_for(&mut q, Duration::from_millis(100));
        }
    }

    /// Remove every queued `Tune` that asks the same question as
    /// `primary` ([`same_tune`]). The caller answers them all from one
    /// execution.
    fn take_matching(&self, primary: &TuneRequest) -> VecDeque<Job> {
        let (taken, depth) = {
            let mut q = self.queue.lock();
            let (taken, kept): (VecDeque<Job>, _) = std::mem::take(&mut q.jobs)
                .into_iter()
                .partition(|job| matches!(&job.request, Request::Tune(t) if same_tune(primary, t)));
            q.jobs = kept;
            (taken, q.jobs.len())
        };
        if !taken.is_empty() {
            self.metrics.queue_popped(depth);
        }
        taken
    }
}

/// Whether two `Tune`s ask the same question: equal (derived
/// `PartialEq`) in every field but `deadline_ms`. The destructuring is
/// exhaustive, so a new field forces a decision here. Floats compare
/// as IEEE values: a NaN never coalesces, even bit-identical (a
/// rendered key wrote NaN and ±inf alike as `null`, letting different
/// problems share one search), and `-0.0` coalesces with `0.0`.
fn same_tune(a: &TuneRequest, b: &TuneRequest) -> bool {
    let TuneRequest {
        graph,
        machine,
        fom,
        candidates,
        deadline_ms: _,
        max_candidates,
        convergence_window,
        refinement,
        use_cache,
        cost_model,
    } = a;
    // Cheap scalars first; the graph, usually the bulk, last.
    *fom == b.fom
        && *max_candidates == b.max_candidates
        && *convergence_window == b.convergence_window
        && *refinement == b.refinement
        && *use_cache == b.use_cache
        && *cost_model == b.cost_model
        && *machine == b.machine
        && *candidates == b.candidates
        && *graph == b.graph
}

/// Resolve a request's optional `cost_model` name. Unknown names are a
/// typed refusal (kind `"cost-model"`), never a silent fall-back to
/// the default — a client asking for a model this server doesn't
/// implement must find out, not get analytic numbers labeled as
/// something else.
fn parse_cost_model(name: Option<&str>) -> Result<CostModelKind, FailReply> {
    match name {
        None => Ok(CostModelKind::Analytic),
        Some(n) => CostModelKind::from_name(n).ok_or_else(|| FailReply {
            kind: "cost-model".to_string(),
            error: format!("unknown cost model {n:?} (expected analytic, roofline, or spatial)"),
        }),
    }
}

/// Refuse a work request whose machine grid exceeds
/// [`MachineConfig::MAX_PES`] (kind `"limit"`). Evaluation allocates
/// per-PE arrays sized by the grid, so this runs at admission, before
/// any worker touches the request.
fn grid_refusal(work: &Request) -> Option<FailReply> {
    let machine = match work {
        Request::Tune(r) => &r.machine,
        Request::TuneShard(r) => &r.machine,
        Request::Evaluate(r) => &r.machine,
        Request::Simulate(r) => &r.machine,
        Request::SessionOpen(r) => &r.machine,
        _ => return None,
    };
    let pes = machine.pe_count();
    (pes > MachineConfig::MAX_PES).then(|| FailReply {
        kind: "limit".to_string(),
        error: format!(
            "machine grid {}x{} has {pes} PEs, above the limit of {}",
            machine.cols,
            machine.rows,
            MachineConfig::MAX_PES
        ),
    })
}

/// Apply a `ShardJoin`/`ShardLeave` to the fleet roster. Handled
/// inline (never queued), like `Stats`: membership changes must land
/// even — especially — when the admission queue is saturated with work
/// for the very shard that is leaving. On a non-coordinator server the
/// request is a typed refusal.
fn membership_change(shared: &Shared, addr: &str, join: bool) -> Response {
    let Some(fleet) = &shared.fleet else {
        return Response::Failed(FailReply {
            kind: "illegal".to_string(),
            error: "not a fleet coordinator (start with --fleet)".to_string(),
        });
    };
    let (epoch, changed) = if join {
        fleet.admit(addr)
    } else {
        fleet.retire(addr)
    };
    Response::Membership(MembershipReply {
        epoch,
        members: fleet.members(),
        changed,
    })
}

/// A running server. Obtain with [`Server::start`]; stop with
/// [`ServerHandle::shutdown`] + [`ServerHandle::join`] (or a wire
/// [`Request::Shutdown`]).
pub struct Server;

/// Handle to a running server.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start the
    /// acceptor and worker threads.
    pub fn start(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let cache = config.cache_dir.as_ref().and_then(TuningCache::open);
        let fleet = config.fleet.clone().map(Fleet::new);
        let metrics = Metrics::default();
        if let Some(f) = &fleet {
            metrics.set_fleet(f.metrics());
        }
        let shared = Arc::new(Shared {
            pool: ThreadPool::with_threads(config.tuner_threads.max(1)),
            metrics,
            cache,
            fleet,
            sessions: SessionRegistry::default(),
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            local_addr,
            conn_handles: Mutex::new(Vec::new()),
            config,
        });

        let mut workers: Vec<JoinHandle<()>> = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fm-serve-worker-{i}"))
                    .spawn(move || worker_main(&shared))
                    .expect("spawn worker")
            })
            .collect();

        // Idle-session sweeper: wakes a few times per TTL (but at
        // least every 500 ms, so shutdown join is never held hostage
        // by a long TTL) and evicts sessions untouched for a full TTL.
        if let Some(ttl) = shared.config.session_ttl {
            let shared = Arc::clone(&shared);
            let tick = (ttl / 4).clamp(Duration::from_millis(25), Duration::from_millis(500));
            workers.push(
                std::thread::Builder::new()
                    .name("fm-serve-session-sweeper".to_string())
                    .spawn(move || {
                        while !shared.is_shutdown() {
                            std::thread::sleep(tick);
                            let evicted = shared.sessions.evict_idle(ttl);
                            if evicted > 0 {
                                let s = &shared.metrics.sessions;
                                s.evicted.fetch_add(evicted, Ordering::Relaxed);
                                s.open.fetch_sub(evicted, Ordering::Relaxed);
                            }
                        }
                    })
                    .expect("spawn session sweeper"),
            );
        }

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fm-serve-acceptor".to_string())
                .spawn(move || acceptor_main(&shared, listener))
                .expect("spawn acceptor")
        };

        Ok(ServerHandle {
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }
}

impl ServerHandle {
    /// The bound address (with the actual port when 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Live metrics snapshot (same data as the `Stats` endpoint).
    pub fn stats(&self) -> StatsReply {
        self.shared
            .metrics
            .snapshot(self.shared.config.queue_capacity)
    }

    /// Begin the graceful drain (idempotent, non-blocking): admission
    /// closes immediately, admitted requests still complete.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Wait for the server to finish: blocks until shutdown is
    /// triggered (by [`ServerHandle::shutdown`] or a wire
    /// [`Request::Shutdown`]), the queue drains, every reply is
    /// delivered, and all threads exit. Returns the final stats.
    pub fn join(mut self) -> StatsReply {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        loop {
            let handle = self.shared.conn_handles.lock().pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared
            .metrics
            .snapshot(self.shared.config.queue_capacity)
    }

    /// Convenience: trigger the drain and wait it out.
    pub fn shutdown_and_join(self) -> StatsReply {
        self.shutdown();
        self.join()
    }
}

fn acceptor_main(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.is_shutdown() {
                    break;
                }
                shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
                let shared2 = Arc::clone(shared);
                // A failed spawn drops the stream with the closure: that
                // one connection is closed, and the acceptor goes on.
                let Ok(handle) = std::thread::Builder::new()
                    .name("fm-serve-conn".to_string())
                    .spawn(move || serve_connection(&shared2, stream))
                else {
                    continue;
                };
                // Reap finished connection threads as new ones arrive,
                // so a long-running server holds handles only for the
                // connections still open.
                let mut handles = shared.conn_handles.lock();
                for h in std::mem::take(&mut *handles) {
                    if h.is_finished() {
                        let _ = h.join();
                    } else {
                        handles.push(h);
                    }
                }
                handles.push(handle);
            }
            Err(_) => {
                if shared.is_shutdown() {
                    break;
                }
            }
        }
    }
}

/// A connection's in-flight ledger: correlation id → [`CancelToken`]
/// for every admitted request whose terminal reply is not yet written.
/// The reader enters a request before admission; the writer retires it
/// once the terminal reply is queued (streamed `TuneShardPart` frames
/// keep it alive).
#[derive(Default)]
struct Ledger {
    live: Mutex<HashMap<u64, CancelToken>>,
    emptied: Condvar,
}

impl Ledger {
    /// Enter a request; returns the new in-flight depth.
    fn enter(&self, corr: u64, cancel: CancelToken) -> u64 {
        let mut live = self.live.lock();
        live.insert(corr, cancel);
        live.len() as u64
    }

    fn retire(&self, corr: u64) {
        let mut live = self.live.lock();
        live.remove(&corr);
        if live.is_empty() {
            self.emptied.notify_all();
        }
    }

    /// Block until every entered request has its terminal reply queued.
    fn wait_empty(&self) {
        let mut live = self.live.lock();
        while !live.is_empty() {
            self.emptied.wait(&mut live);
        }
    }

    /// Nobody is left to read these replies: latch every live token,
    /// counting each in [`Metrics::cancelled`], and empty the ledger.
    fn cancel_all(&self, metrics: &Metrics) {
        let mut live = self.live.lock();
        for (_, cancel) in live.drain() {
            if !cancel.is_cancelled() {
                metrics.cancelled.fetch_add(1, Ordering::Relaxed);
                cancel.cancel();
            }
        }
        self.emptied.notify_all();
    }
}

/// Serve one connection until the peer leaves, sends an unreadable
/// frame, or the server drains.
///
/// The connection splits in two: this thread reads frames and answers
/// or admits them, and a writer thread owns the write half, writing
/// each reply in the encoding of the frame that provoked it ([`Tag`]).
/// The last `Hello` ack sets the mode:
///
/// * until a `Hello` negotiates pipelining, the reader holds each frame
///   until the [`Ledger`] is empty, so at most one request is in flight
///   and replies keep request order;
/// * pipelined, frames are admitted as fast as they arrive and replies
///   are written in *completion* order, matched by correlation id.
///
/// The ledger is also the drain and cancellation record. When the
/// reader sees EOF (or an unreadable frame), every live token is
/// cancelled — nobody is left to read those replies. On a drain the
/// connection lingers until the ledger empties, so every admitted
/// request's reply is written before the socket closes.
fn serve_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<(Tag, Response)>();
    let ledger = Arc::new(Ledger::default());
    let writer = {
        let ledger = Arc::clone(&ledger);
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("fm-serve-conn-writer".to_string())
            .spawn(move || connection_writer(&shared, write_half, &rx, &ledger))
            .expect("spawn connection writer")
    };

    let mut stop = || shared.is_shutdown();
    let mut pipeline = false;
    let mut negotiated_binary = false;
    let draining = loop {
        let payload = match read_frame_until(&mut stream, shared.config.max_frame, Some(&mut stop))
        {
            Ok(payload) => payload,
            Err(WireError::Closed) => break false,
            // Server-wide drain: stop reading, but deliver every
            // admitted reply before closing.
            Err(WireError::Stopped) => break true,
            Err(e) => {
                protocol_error(shared, &tx, &[], &e);
                break false;
            }
        };
        if !pipeline {
            ledger.wait_empty();
        }
        let (tag, request) = match decode_request_any(&payload) {
            Ok((corr, request, binary)) => (Tag { corr, binary }, request),
            Err(e) => {
                protocol_error(shared, &tx, &payload, &e);
                break false;
            }
        };
        let counter = if tag.binary {
            &shared.metrics.binary_requests
        } else {
            &shared.metrics.json_requests
        };
        counter.fetch_add(1, Ordering::Relaxed);

        let resp = match request {
            // Version negotiation: meet the client at the highest
            // version both sides speak. Pipelining needs the binary
            // envelope (correlation ids live in its header), so a
            // pipeline request only sticks when a binary version was
            // agreed.
            Request::Hello(h) => {
                let version = h.max_version.min(PROTOCOL_BINARY_VERSION);
                pipeline = h.pipeline && version > 0;
                if version > 0 && !negotiated_binary {
                    negotiated_binary = true;
                    shared
                        .metrics
                        .binary_connections
                        .fetch_add(1, Ordering::Relaxed);
                }
                Response::HelloAck(HelloAckReply { version, pipeline })
            }
            Request::Ping => {
                let ep = &shared.metrics.ping;
                ep.received.fetch_add(1, Ordering::Relaxed);
                ep.completed.fetch_add(1, Ordering::Relaxed);
                Response::Pong
            }
            // Stats bypasses admission entirely: it must answer even —
            // especially — when the queue is full.
            Request::Stats => {
                let t0 = Instant::now();
                let ep = &shared.metrics.stats;
                ep.received.fetch_add(1, Ordering::Relaxed);
                let snap = shared.metrics.snapshot(shared.config.queue_capacity);
                ep.completed.fetch_add(1, Ordering::Relaxed);
                ep.latency.record(t0.elapsed());
                Response::Stats(Box::new(snap))
            }
            Request::ShardJoin(j) => membership_change(shared, &j.addr, true),
            Request::ShardLeave(l) => membership_change(shared, &l.addr, false),
            Request::Shutdown => {
                let _ = tx.send((tag, Response::ShuttingDown));
                shared.begin_shutdown();
                break true;
            }
            work @ (Request::Tune(_)
            | Request::TuneShard(_)
            | Request::Evaluate(_)
            | Request::Simulate(_)
            | Request::SessionOpen(_)
            | Request::SessionEdit(_)
            | Request::SessionTune(_)
            | Request::SessionClose(_)) => {
                let endpoint = shared.metrics.endpoint(work.endpoint());
                endpoint.received.fetch_add(1, Ordering::Relaxed);
                if let Some(refusal) = grid_refusal(&work) {
                    endpoint.failed.fetch_add(1, Ordering::Relaxed);
                    Response::Failed(refusal)
                } else if shared.is_shutdown() {
                    let _ = tx.send((tag, Response::ShuttingDown));
                    break true;
                } else {
                    match admit(shared, work, tag, &tx, &ledger) {
                        None => continue,
                        Some(refusal) => refusal,
                    }
                }
            }
        };
        if tx.send((tag, resp)).is_err() {
            break false;
        }
    };

    if draining {
        // The writer empties the ledger itself if the socket dies, so
        // this cannot wait on a dead connection.
        ledger.wait_empty();
    } else {
        ledger.cancel_all(&shared.metrics);
    }
    drop(tx); // the writer's recv() disconnects once workers finish
    let _ = writer.join();
}

/// Answer an unreadable or undecodable frame (`payload` is empty when
/// no frame could be read) with a typed protocol failure — in binary,
/// under the frame's correlation id when its envelope header is intact,
/// so it lands on the right request; else in JSON. The framing state is
/// unrecoverable, so the caller closes the connection after it.
fn protocol_error(
    shared: &Shared,
    tx: &mpsc::Sender<(Tag, Response)>,
    payload: &[u8],
    e: &WireError,
) {
    shared
        .metrics
        .protocol_errors
        .fetch_add(1, Ordering::Relaxed);
    let binary = is_binary(payload);
    let corr = match payload.get(2..BINARY_HEADER) {
        Some(id) if binary => u64::from_be_bytes(id.try_into().expect("8 bytes")),
        _ => 0,
    };
    let fail = Response::Failed(FailReply {
        kind: "protocol".to_string(),
        error: e.to_string(),
    });
    let _ = tx.send((Tag { corr, binary }, fail));
}

/// Enter `work` in the connection's ledger and offer it to the
/// admission queue. Returns the refusal to send instead, if refused:
/// `Busy`, or `ShuttingDown` when the queue closed under a drain.
fn admit(
    shared: &Shared,
    work: Request,
    tag: Tag,
    tx: &mpsc::Sender<(Tag, Response)>,
    ledger: &Ledger,
) -> Option<Response> {
    let accepted = Instant::now();
    let deadline = work_deadline_ms(&work, shared.config.default_deadline_ms)
        .map(|ms| accepted + Duration::from_millis(ms));
    let cancel = CancelToken::new();
    let depth = ledger.enter(tag.corr, cancel.clone());
    shared
        .metrics
        .inflight_peak
        .fetch_max(depth, Ordering::Relaxed);
    let job = Job {
        request: work,
        accepted,
        deadline,
        cancel,
        reply: Reply {
            tag,
            tx: tx.clone(),
        },
    };
    if shared.try_admit(job) {
        return None;
    }
    ledger.retire(tag.corr);
    shared
        .metrics
        .busy_rejections
        .fetch_add(1, Ordering::Relaxed);
    Some(if shared.is_shutdown() {
        Response::ShuttingDown
    } else {
        Response::Busy(BusyReply {
            queue_depth: shared.config.queue_capacity as u64,
            queue_capacity: shared.config.queue_capacity as u64,
        })
    })
}

/// The effective deadline for a work request: its own `deadline_ms` if
/// present, else the server default. Open/edit/close are bookkeeping,
/// not searches: they run to completion rather than racing a default
/// deadline into a half-opened session.
fn work_deadline_ms(work: &Request, default_ms: Option<u64>) -> Option<u64> {
    match work {
        Request::Tune(t) => t.deadline_ms.or(default_ms),
        Request::TuneShard(t) => t.deadline_ms.or(default_ms),
        Request::Evaluate(e) => e.deadline_ms.or(default_ms),
        Request::Simulate(s) => s.deadline_ms.or(default_ms),
        Request::SessionTune(t) => t.deadline_ms.or(default_ms),
        Request::SessionOpen(_) | Request::SessionEdit(_) | Request::SessionClose(_) => None,
        _ => unreachable!("only work requests reach here"),
    }
}

/// The write half of a connection: sole owner of outbound frames.
/// Bursts of completions are coalesced — every message already sitting
/// in the channel is queued into one `BufWriter`, then flushed together
/// — so N small replies cost one syscall, not N. When the socket dies
/// under it, it cancels everything still in flight, empties the ledger
/// (so a draining reader cannot wait forever), and slams the read half
/// so the reader wakes promptly.
fn connection_writer(
    shared: &Shared,
    stream: TcpStream,
    rx: &mpsc::Receiver<(Tag, Response)>,
    ledger: &Ledger,
) {
    use std::io::Write as _;
    let mut w = std::io::BufWriter::with_capacity(64 << 10, &stream);
    // Ends once every sender is gone: the reader exited and every
    // worker reply is delivered.
    while let Ok(first) = rx.recv() {
        let written = std::iter::once(first)
            .chain(rx.try_iter())
            .try_for_each(|(tag, resp)| {
                queue_frame(&mut w, &tag.encode(&resp))?;
                if !matches!(resp, Response::TuneShardPart(_)) {
                    ledger.retire(tag.corr);
                }
                Ok(())
            });
        if written.and_then(|()| w.flush()).is_err() {
            ledger.cancel_all(&shared.metrics);
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return;
        }
    }
}

fn worker_main(shared: &Arc<Shared>) {
    while let Some(job) = shared.pop() {
        let Job {
            request,
            accepted,
            deadline,
            cancel,
            reply,
        } = job;
        let endpoint_name = request.endpoint();

        // A request that expired while queued is not worth starting —
        // except Tune, whose contract is "best effort within the
        // deadline": it still answers, with the fallback mapping.
        let expired = deadline.is_some_and(|d| Instant::now() >= d);
        if expired {
            shared
                .metrics
                .deadline_expired
                .fetch_add(1, Ordering::Relaxed);
            cancel.cancel();
        }

        // Dedup-batched admission: claim every queued Tune asking the
        // identical question *before* running it, then answer them all
        // from the one deterministic search. An expired primary skips
        // the claim — fanning a degraded best-effort fallback out to
        // waiters whose own deadlines may still be generous would
        // trade their correctness for speed.
        let waiters = match &request {
            Request::Tune(t) if shared.config.dedup_tunes && !expired => shared.take_matching(t),
            _ => VecDeque::new(),
        };

        let response = catch_unwind(AssertUnwindSafe(|| match request {
            Request::Tune(req) => exec_tune(shared, req, &cancel, deadline),
            Request::TuneShard(req) => exec_tune_shard(shared, req, &cancel, deadline, &reply),
            Request::Evaluate(_) | Request::Simulate(_) if expired => Response::Failed(FailReply {
                kind: "deadline".to_string(),
                error: "deadline expired before execution".to_string(),
            }),
            Request::Evaluate(req) => exec_evaluate(req),
            Request::Simulate(req) => exec_simulate(req),
            Request::SessionOpen(req) => exec_session_open(shared, req),
            Request::SessionEdit(req) => exec_session_edit(shared, req),
            Request::SessionTune(req) => exec_session_tune(shared, req, &cancel, deadline),
            Request::SessionClose(req) => exec_session_close(shared, req),
            other => Response::Failed(FailReply {
                kind: "internal".to_string(),
                error: format!("{} is not a queued request", other.endpoint()),
            }),
        }))
        .unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "request execution panicked".to_string());
            Response::Failed(FailReply {
                kind: "internal".to_string(),
                error: msg,
            })
        });

        let endpoint = shared.metrics.endpoint(endpoint_name);
        match &response {
            Response::Failed(_) => {
                endpoint.failed.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                endpoint.completed.fetch_add(1, Ordering::Relaxed);
                endpoint.latency.record(accepted.elapsed());
            }
        }
        // Fan the one answer out to every coalesced waiter, with full
        // per-waiter accounting (each was a real admitted request; the
        // books must reconcile exactly as if each had run).
        if !waiters.is_empty() {
            shared.metrics.dedup_batches.fetch_add(1, Ordering::Relaxed);
            shared
                .metrics
                .dedup_waiters_served
                .fetch_add(waiters.len() as u64, Ordering::Relaxed);
            for waiter in &waiters {
                match &response {
                    Response::Failed(_) => {
                        endpoint.failed.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {
                        endpoint.completed.fetch_add(1, Ordering::Relaxed);
                        endpoint.latency.record(waiter.accepted.elapsed());
                    }
                }
                waiter.reply.send(response.clone());
            }
        }
        // The connection's writer may have left (the socket died) —
        // then the send fails and the result is simply dropped.
        reply.send(response);
    }
}

/// Answer one `Tune`: through the fleet when this server coordinates
/// one and the request is eligible, locally otherwise. Either way the
/// winner lands in the cost-model observatory.
fn exec_tune(
    shared: &Shared,
    req: TuneRequest,
    cancel: &CancelToken,
    deadline: Option<Instant>,
) -> Response {
    let cost_model = match parse_cost_model(req.cost_model.as_deref()) {
        Ok(kind) => kind,
        Err(refusal) => return Response::Failed(refusal),
    };
    let reply = match &shared.fleet {
        Some(fleet) if fleet.eligible(&req) => {
            fleet.tune(&req, cost_model, cancel, deadline, &shared.pool)
        }
        _ => tune_locally(shared, &req, cost_model, cancel, deadline),
    };
    if let Some(best) = &reply.best {
        let point = Evaluator::new(&req.graph, &req.machine)
            .with_cost_model(cost_model)
            .roofline(&best.report);
        shared
            .metrics
            .cost_models
            .observe(cost_model, &point, &best.report);
    }
    Response::Tuned(reply)
}

/// Run `req` on this server's own tuner pool, through the tuning cache
/// when the request asks for it.
fn tune_locally(
    shared: &Shared,
    req: &TuneRequest,
    cost_model: CostModelKind,
    cancel: &CancelToken,
    deadline: Option<Instant>,
) -> TuneReply {
    let TuneRequest {
        graph,
        machine,
        fom,
        candidates,
        max_candidates,
        convergence_window,
        refinement,
        use_cache,
        ..
    } = req;
    let evaluator = Evaluator::new(graph, machine).with_cost_model(cost_model);
    let mut tuner = Tuner::new(&evaluator, graph, machine, *fom)
        .with_pool(&shared.pool)
        .with_budget(budget(
            max_candidates.map(|n| n as usize),
            convergence_window.map(|w| w as usize),
            deadline,
        ))
        .with_cancel(cancel.clone());
    if let Some(r) = refinement {
        tuner = tuner.with_refinement(*r);
    }
    if *use_cache {
        if let Some(cache) = &shared.cache {
            tuner = tuner.with_cache(cache.clone());
        }
    }
    let report = tuner.tune(candidates);
    match report.cache {
        CacheStatus::Hit => shared.metrics.cache_hits.fetch_add(1, Ordering::Relaxed),
        CacheStatus::Miss => shared.metrics.cache_misses.fetch_add(1, Ordering::Relaxed),
        CacheStatus::Stale => shared.metrics.cache_stale.fetch_add(1, Ordering::Relaxed),
        CacheStatus::Disabled => 0,
    };
    report.into()
}

/// The tuner budget for a request: its two deterministic limits, plus
/// whatever is left of `deadline` right now.
pub(crate) fn budget(
    max_candidates: Option<usize>,
    convergence_window: Option<usize>,
    deadline: Option<Instant>,
) -> Budget {
    Budget {
        max_candidates,
        convergence_window,
        deadline: deadline.map(|d| d.saturating_duration_since(Instant::now())),
    }
}

/// Open a session: build the warm cache once from the initial graph and
/// register the state. The per-session budget is fixed at open time so
/// every `SessionTune` against this session searches the same way a
/// cold `Tune` with these knobs would.
fn exec_session_open(shared: &Shared, req: SessionOpenRequest) -> Response {
    let SessionOpenRequest {
        graph,
        machine,
        fom,
        candidates,
        max_candidates,
        convergence_window,
        cost_model,
    } = req;
    let cost_model = match parse_cost_model(cost_model.as_deref()) {
        Ok(kind) => kind,
        Err(refusal) => return Response::Failed(refusal),
    };
    let n = candidates.len() as u64;
    let budget = budget(
        max_candidates.map(|n| n as usize),
        convergence_window.map(|w| w as usize),
        None,
    );
    let state = SessionState::open(graph, machine, fom, candidates, budget, cost_model);
    let session_id = shared.sessions.open(state);
    shared
        .metrics
        .sessions
        .opened
        .fetch_add(1, Ordering::Relaxed);
    shared.metrics.sessions.open.fetch_add(1, Ordering::Relaxed);
    Response::SessionOpened(SessionOpenedReply {
        session_id,
        epoch: 0,
        candidates: n,
    })
}

/// Apply one sealed edit batch to a session. The checksum gate runs
/// before the session is even looked up — a corrupt batch never
/// touches state. All batch outcomes short of `Applied` leave the
/// session exactly as it was (all-or-nothing, see
/// [`SessionState::apply_batch`]).
fn exec_session_edit(shared: &Shared, req: SessionEditRequest) -> Response {
    if let Err(want) = req.verify() {
        return Response::Failed(FailReply {
            kind: "session".to_string(),
            error: format!(
                "edit batch checksum mismatch: got {:#018x}, recomputed {want:#018x}; \
                 refusing the whole batch",
                req.checksum
            ),
        });
    }
    let Some(slot) = shared.sessions.get(req.session_id) else {
        shared
            .metrics
            .sessions
            .no_such
            .fetch_add(1, Ordering::Relaxed);
        return Response::NoSuchSession(NoSuchSessionReply {
            session_id: req.session_id,
        });
    };
    let mut state = slot.lock();
    match state.apply_batch(req.epoch, &req.edits) {
        EditOutcome::Applied {
            epoch,
            applied,
            cone,
        } => {
            let s = &shared.metrics.sessions;
            s.edit_batches.fetch_add(1, Ordering::Relaxed);
            s.edits_applied.fetch_add(applied, Ordering::Relaxed);
            s.dirty_cone_total.fetch_add(cone, Ordering::Relaxed);
            Response::SessionEdited(SessionEditedReply {
                session_id: req.session_id,
                epoch,
                applied,
                cone,
            })
        }
        EditOutcome::StaleEpoch { got, expected } => Response::Failed(FailReply {
            kind: "session".to_string(),
            error: format!("stale epoch {got} (session is at {expected}); batch not applied"),
        }),
        EditOutcome::Rejected { index, error } => Response::Failed(FailReply {
            kind: "session".to_string(),
            error: format!("edit {index} refused: {error}; batch not applied"),
        }),
    }
}

/// Re-tune a session from its warm cache. Repaired candidate costs make
/// this cheap after small edits; the reply says whether the tune ran
/// fully warm (`rebuilds == 0`) so clients can tell repair apart from
/// a silent cold rebuild.
fn exec_session_tune(
    shared: &Shared,
    req: SessionTuneRequest,
    cancel: &CancelToken,
    deadline: Option<Instant>,
) -> Response {
    let requested = match parse_cost_model(req.cost_model.as_deref()) {
        Ok(kind) => kind,
        Err(refusal) => return Response::Failed(refusal),
    };
    let Some(slot) = shared.sessions.get(req.session_id) else {
        shared
            .metrics
            .sessions
            .no_such
            .fetch_add(1, Ordering::Relaxed);
        return Response::NoSuchSession(NoSuchSessionReply {
            session_id: req.session_id,
        });
    };
    let mut state = slot.lock();
    // The backend is baked at open: warm per-candidate scores are only
    // comparable under the model that produced them, so a mid-session
    // switch is refused rather than silently re-ranked.
    if req.cost_model.is_some() && requested != state.cost_model() {
        return Response::Failed(FailReply {
            kind: "cost-model".to_string(),
            error: format!(
                "session {} was opened under cost model {:?} but the tune asked for {:?}; \
                 open a new session to switch models",
                req.session_id,
                state.cost_model().name(),
                requested.name()
            ),
        });
    }
    let out = state.tune(deadline, cancel);
    let s = &shared.metrics.sessions;
    if out.warm {
        s.warm_tunes.fetch_add(1, Ordering::Relaxed);
    } else {
        s.cold_tunes.fetch_add(1, Ordering::Relaxed);
        s.cold_rebuilds.fetch_add(out.rebuilds, Ordering::Relaxed);
    }
    let report = out.report;
    if let Some(best) = &report.best {
        let point = state.roofline(&best.report);
        shared
            .metrics
            .cost_models
            .observe(state.cost_model(), &point, &best.report);
    }
    Response::SessionTuned(Box::new(SessionTunedReply {
        session_id: req.session_id,
        epoch: out.epoch,
        warm: out.warm,
        rebuilds: out.rebuilds,
        reply: report.into(),
    }))
}

/// Close a session and report its lifetime tallies. Closing an unknown
/// (or already-evicted) id is the same typed miss as editing one.
fn exec_session_close(shared: &Shared, req: SessionCloseRequest) -> Response {
    match shared.sessions.remove(req.session_id) {
        Some(slot) => {
            let state = slot.lock();
            let s = &shared.metrics.sessions;
            s.closed.fetch_add(1, Ordering::Relaxed);
            s.open.fetch_sub(1, Ordering::Relaxed);
            Response::SessionClosed(SessionClosedReply {
                session_id: req.session_id,
                epoch: state.epoch,
                edits_applied: state.edits_applied,
                tunes: state.tunes,
            })
        }
        None => {
            shared
                .metrics
                .sessions
                .no_such
                .fetch_add(1, Ordering::Relaxed);
            Response::NoSuchSession(NoSuchSessionReply {
                session_id: req.session_id,
            })
        }
    }
}

/// Cancellably sleep `n × ms` (the scripted-straggler hook), in small
/// slices so a deadline or disconnect interrupts promptly. Returns
/// `false` when interrupted.
fn straggle(
    ms_per_candidate: u64,
    n: u64,
    cancel: &CancelToken,
    deadline: Option<Instant>,
) -> bool {
    let mut left = Duration::from_millis(ms_per_candidate.saturating_mul(n));
    while !left.is_zero() {
        if cancel.is_cancelled() || deadline.is_some_and(|d| Instant::now() >= d) {
            return false;
        }
        let slice = left.min(Duration::from_millis(10));
        std::thread::sleep(slice);
        left -= slice;
    }
    true
}

/// Evaluate one contiguous sub-range of a fleet tune: plain budgeted
/// tunes (no refinement, no cache — raw candidate scores are what the
/// coordinator's `(score, index)` merge needs) over chunks of
/// `stream_every` candidates (the whole range when it is `None` or
/// `0`), sealed into a checksummed, epoch-stamped terminal reply.
/// Chunks are evaluated in ascending index order and each carries its
/// chunk-local first minimum, so an ascending strict-`<` fold over
/// chunks reproduces the flat scan's first minimum exactly.
///
/// When `stream_every` is set, each finished chunk is also announced
/// with a sealed [`Response::TuneShardPart`] through `reply` (the
/// connection's writer forwards it to the socket); that is the only
/// difference the field makes. A deadline or disconnect that stops the
/// sweep early still answers — with `evaluated < count`, so the
/// coordinator discards the reply as incomplete rather than merging a
/// winner that depends on where the shard gave up. Its `best` covers
/// the finished chunks only; every part already emitted stands on its
/// own.
fn exec_tune_shard(
    shared: &Shared,
    req: TuneShardRequest,
    cancel: &CancelToken,
    deadline: Option<Instant>,
    reply: &Reply,
) -> Response {
    let TuneShardRequest {
        graph,
        machine,
        fom,
        candidates,
        start_index,
        epoch,
        stream_every,
        cost_model,
        ..
    } = req;
    let cost_model = match parse_cost_model(cost_model.as_deref()) {
        Ok(kind) => kind,
        Err(refusal) => return Response::Failed(refusal),
    };
    let evaluator = Evaluator::new(&graph, &machine).with_cost_model(cost_model);
    let count = candidates.len() as u64;
    let straggle_ms = shared.config.straggle_ms_per_candidate.unwrap_or(0);
    let stream = stream_every.filter(|&k| k > 0);
    let chunk = stream.map_or(candidates.len(), |k| k as usize);

    let run_slice = |slice: &[MappingCandidate]| {
        Tuner::new(&evaluator, &graph, &machine, fom)
            .with_pool(&shared.pool)
            .with_budget(budget(None, None, deadline))
            .with_cancel(cancel.clone())
            .tune(slice)
    };
    // `best_index.zip(best)` keeps only genuine in-range winners: a
    // default-mapper fallback (nothing legal) has no index and must
    // not masquerade as a candidate.
    let slice_best = |lo: usize, report: fm_autotune::TuneReport| {
        report.best_index.zip(report.best).map(|(i, b)| ShardBest {
            index: start_index + (lo + i) as u64,
            label: b.label,
            score: b.score,
            resolved: b.resolved,
            report: b.report,
        })
    };

    let mut evaluated = 0u64;
    let mut cancelled = false;
    let mut best: Option<ShardBest> = None;
    let mut lo = 0usize;
    while lo < candidates.len() {
        let hi = (lo + chunk).min(candidates.len());
        let n = (hi - lo) as u64;
        if straggle_ms > 0 && !straggle(straggle_ms, n, cancel, deadline) {
            cancelled = true;
            break;
        }
        let report = run_slice(&candidates[lo..hi]);
        if report.cancelled || (report.evaluated as u64) < n {
            // Interrupted mid-chunk: the chunk is never announced; the
            // terminal reply admits the shortfall.
            evaluated += report.evaluated as u64;
            cancelled = true;
            break;
        }
        evaluated += n;
        let chunk_best = slice_best(lo, report);
        // Ascending chunks + strict `<` keep the earliest minimum.
        match (&best, &chunk_best) {
            (Some(b), Some(c)) if c.score < b.score => best = chunk_best.clone(),
            (None, Some(_)) => best = chunk_best.clone(),
            _ => {}
        }
        if stream.is_some() {
            let part = TuneShardPart::seal(
                epoch,
                TuneShardPartBody {
                    start_index: start_index + lo as u64,
                    count: n,
                    best: chunk_best,
                },
            );
            shared
                .metrics
                .tune_shard_parts
                .fetch_add(1, Ordering::Relaxed);
            if !reply.send(Response::TuneShardPart(part)) {
                // The connection's writer is gone: nobody will read
                // further frames. Stop burning cores.
                cancel.cancel();
                cancelled = true;
                break;
            }
        }
        lo = hi;
    }
    let body = TuneShardBody {
        start_index,
        count,
        evaluated,
        cancelled,
        best,
    };
    Response::TuneSharded(TuneShardReply::seal(epoch, body))
}

fn exec_evaluate(req: EvaluateRequest) -> Response {
    let EvaluateRequest {
        graph,
        machine,
        mapping,
        ..
    } = req;
    if mapping.place.len() != graph.len() || mapping.time.len() != graph.len() {
        return Response::Failed(FailReply {
            kind: "illegal".to_string(),
            error: format!(
                "mapping covers {} nodes but the graph has {}",
                mapping.place.len(),
                graph.len()
            ),
        });
    }
    let legality = check(&graph, &mapping, &machine);
    if !legality.is_legal() {
        return Response::Evaluated(EvaluateReply {
            legal: false,
            violations: legality.total_violations,
            report: None,
        });
    }
    let report = Evaluator::new(&graph, &machine).evaluate(&mapping);
    Response::Evaluated(EvaluateReply {
        legal: true,
        violations: 0,
        report: Some(report),
    })
}

fn exec_simulate(req: SimulateRequest) -> Response {
    let SimulateRequest {
        graph,
        machine,
        mapping,
        inputs,
        contention,
        ..
    } = req;
    if mapping.place.len() != graph.len() || mapping.time.len() != graph.len() {
        return Response::Failed(FailReply {
            kind: "illegal".to_string(),
            error: format!(
                "mapping covers {} nodes but the graph has {}",
                mapping.place.len(),
                graph.len()
            ),
        });
    }
    let legality = check(&graph, &mapping, &machine);
    if !legality.is_legal() {
        return Response::Failed(FailReply {
            kind: "illegal".to_string(),
            error: format!(
                "mapping is illegal ({} violations); the simulator only executes legal mappings",
                legality.total_violations
            ),
        });
    }
    let predicted = Evaluator::new(&graph, &machine).evaluate(&mapping);
    let sim = Simulator::new(machine).with_config(SimConfig {
        contention,
        ..SimConfig::default()
    });
    match sim.run(&graph, &mapping, &inputs, &[]) {
        Ok(result) => Response::Simulated(SimulateReply {
            cycles_scheduled: result.cycles_scheduled,
            cycles_actual: result.cycles_actual,
            slowdown: result.slowdown(),
            stalled_elements: result.stalled_elements,
            total_stall_cycles: result.total_stall_cycles,
            messages_delivered: result.messages_delivered,
            link_wait_cycles: result.link_wait_cycles,
            predicted_energy_fj: predicted.energy().raw(),
            simulated_energy_fj: result.ledger.energy.total().raw(),
        }),
        Err(e) => Response::Failed(FailReply {
            kind: "sim".to_string(),
            error: e.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_response, write_request};
    use fm_autotune::Refinement;
    use fm_core::dataflow::{CExpr, DataflowGraph};
    use fm_core::mapping::Mapping;
    use fm_core::search::FigureOfMerit;
    use fm_core::value::Value;

    fn graph(n: usize) -> DataflowGraph {
        let mut g = DataflowGraph::new("dedup", 32);
        for i in 0..n {
            g.add_node(CExpr::konst(Value::real(i as f64)), vec![], vec![i as i64]);
        }
        g
    }

    fn tune(n: usize) -> TuneRequest {
        let g = graph(n);
        TuneRequest {
            candidates: vec![MappingCandidate::new("serial", Mapping::serial(&g))],
            graph: g,
            machine: MachineConfig::linear(4),
            fom: FigureOfMerit::Time,
            deadline_ms: None,
            max_candidates: None,
            convergence_window: None,
            refinement: None,
            use_cache: false,
            cost_model: None,
        }
    }

    #[test]
    fn dedup_coalesces_exactly_the_requests_equal_but_for_their_deadline() {
        type Edit = fn(&mut TuneRequest);
        let apart: [(&str, Edit); 10] = [
            ("graph", |r| r.graph = graph(3)),
            ("machine", |r| r.machine = MachineConfig::linear(8)),
            ("fom", |r| r.fom = FigureOfMerit::Energy),
            ("candidates", |r| r.candidates[0].label = "other".into()),
            ("max_candidates", |r| r.max_candidates = Some(1)),
            ("convergence_window", |r| r.convergence_window = Some(1)),
            ("refinement", |r| {
                r.refinement = Some(Refinement {
                    chains: 1,
                    iters: 1,
                    seed: 0,
                })
            }),
            ("use_cache", |r| r.use_cache = true),
            ("cost_model", |r| r.cost_model = Some("roofline".into())),
            ("cost_model default", |r| {
                r.cost_model = Some("analytic".into())
            }),
        ];
        let base = tune(2);
        let mut patient = tune(2);
        patient.deadline_ms = Some(5_000);
        assert!(same_tune(&base, &patient), "deadline alone never separates");
        assert!(same_tune(&patient, &base));
        for (field, edit) in apart {
            let mut other = tune(2);
            edit(&mut other);
            assert!(!same_tune(&base, &other), "{field} must keep them apart");
            assert!(!same_tune(&other, &base), "{field} must keep them apart");
        }

        // Floats compare as IEEE values on the decoded request.
        let mut nan = tune(2);
        nan.machine.tech.wire_energy_fj_per_bit_mm = f64::NAN;
        assert!(!same_tune(&nan, &nan.clone()), "a NaN never coalesces");
        let mut neg_zero = tune(2);
        neg_zero.machine.tech.wire_energy_fj_per_bit_mm = -0.0;
        let mut pos_zero = tune(2);
        pos_zero.machine.tech.wire_energy_fj_per_bit_mm = 0.0;
        assert!(same_tune(&neg_zero, &pos_zero), "-0.0 coalesces with 0.0");
    }

    #[test]
    fn finished_connection_threads_are_reaped_on_accept() {
        let config = ServerConfig {
            workers: 1,
            tuner_threads: 1,
            ..ServerConfig::default()
        };
        let server = Server::start("127.0.0.1:0", config).unwrap();
        for _ in 0..64 {
            let mut conn = TcpStream::connect(server.local_addr()).unwrap();
            write_request(&mut conn, &Request::Ping).unwrap();
            let reply = read_response(&mut conn, DEFAULT_MAX_FRAME).unwrap();
            assert!(matches!(reply, Response::Pong));
        }
        let held = server.shared.conn_handles.lock().len();
        assert!(
            held <= 8,
            "64 closed connections left {held} thread handles behind"
        );
        server.shutdown_and_join();
    }
}
