//! What every workload shares: the pinned server configuration, a
//! scratch directory inside the checkout, request classification, the
//! per-phase sample log and the per-layer log of the traced run.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fm_serve::protocol::DEFAULT_MAX_FRAME;
use fm_serve::{Client, ClientError, Request, Response, Server, ServerConfig, ServerHandle};

use crate::replay::TuneCounts;
use crate::stats::{median, Latency};
use crate::trace::{is_layer, RoundLayers, Tracer};

/// The benchmark machine has two cores; the pool is pinned to them
/// rather than sized from the host, so numbers do not move with it.
pub fn server_config(cache_dir: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        workers: 2,
        tuner_threads: 2,
        queue_capacity: 64,
        default_deadline_ms: None,
        cache_dir,
        max_frame: DEFAULT_MAX_FRAME,
        fleet: None,
        straggle_ms_per_candidate: None,
        session_ttl: None,
        dedup_tunes: true,
    }
}

pub fn start_server(cache_dir: Option<PathBuf>) -> Result<ServerHandle, String> {
    Server::start("127.0.0.1:0", server_config(cache_dir)).map_err(|e| format!("server start: {e}"))
}

/// A binary-framed, pipelining-capable connection to `server`.
pub fn connect(server: &ServerHandle) -> Result<Client, String> {
    let client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    if !client.is_binary() {
        return Err("server did not negotiate binary framing".to_string());
    }
    Ok(client)
}

/// A fresh directory under `servebench/out/tmp/`, removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> Result<ScratchDir, String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir()
            .join("tmp")
            .join(format!("{label}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind once the last run is done.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Where the benchmark writes: its own ignored `out/` directory.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Make every thread allocate from glibc's one main malloc arena.
/// Otherwise glibc opens a new arena whenever threads contend for one,
/// how many it opens depends on scheduling, and `rss_peak_mb` follows
/// the arena count rather than what the program allocates. Call before
/// any thread starts.
pub fn pin_malloc_arenas() -> Result<(), String> {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` takes two integers and only sets an allocator
    // parameter; no other thread exists yet to race with it.
    match unsafe { mallopt(M_ARENA_MAX, 1) } {
        1 => Ok(()),
        _ => Err("mallopt(M_ARENA_MAX, 1) was refused".to_string()),
    }
}

/// CPU time this process has used so far, summed over all of its
/// threads (exited ones included), in seconds.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: on 64-bit Linux a `struct timespec` is two 64-bit integers,
    // as `Timespec` declares; `ts` is valid for writes, and
    // `clock_gettime` writes only that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Why a request got no answer. Both kinds count as failed requests.
pub enum CallError {
    /// `Busy`, `Failed`, `NoSuchSession` or `ShuttingDown`: the
    /// connection is still usable.
    Refused(String),
    /// The connection itself broke.
    Transport(String),
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::Refused(m) | CallError::Transport(m) => f.write_str(m),
        }
    }
}

/// Send one request and wait for its answer, timing the round trip.
pub fn call(client: &mut Client, request: &Request) -> Result<(Response, Duration), CallError> {
    let t0 = Instant::now();
    let resp = client
        .call(request)
        .map_err(|e: ClientError| CallError::Transport(e.to_string()))?;
    let rtt = t0.elapsed();
    let refused = |m: String| Err(CallError::Refused(m));
    match resp {
        Response::Busy(b) => refused(format!(
            "busy: queue {}/{}",
            b.queue_depth, b.queue_capacity
        )),
        Response::Failed(f) => refused(format!("failed ({}): {}", f.kind, f.error)),
        Response::NoSuchSession(s) => refused(format!("no such session {}", s.session_id)),
        Response::ShuttingDown => refused("server shutting down".to_string()),
        other => Ok((other, rtt)),
    }
}

/// [`call`], counting the attempt and any failure in `phase`. `None`
/// when the request was refused; an error when the connection broke.
pub fn attempt(
    client: &mut Client,
    request: &Request,
    phase: &mut Phase,
) -> Result<Option<(Response, Duration)>, String> {
    phase.attempted += 1;
    match call(client, request) {
        Ok(answer) => Ok(Some(answer)),
        Err(CallError::Refused(_)) => {
            phase.failed += 1;
            Ok(None)
        }
        Err(CallError::Transport(e)) => {
            phase.failed += 1;
            Err(e)
        }
    }
}

/// The `Stats` counters the metrics read.
#[derive(Clone, Copy, Default)]
pub struct StatsSnap {
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub queue_peak: u64,
}

pub fn stats(client: &mut Client) -> Result<StatsSnap, String> {
    let s = client.stats().map_err(|e| format!("stats: {e}"))?;
    Ok(StatsSnap {
        cache_hits: s.cache_hits,
        cache_lookups: s.cache_hits + s.cache_misses + s.cache_stale,
        queue_peak: s.queue_peak,
    })
}

/// Client-observed samples from one measured phase.
#[derive(Default)]
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
    pub rounds: u64,
    pub seconds: f64,
    /// CPU seconds the whole process (client and server) used.
    pub cpu_s: f64,
    /// `Tune` (or `SessionTune`) round trips, ms.
    pub tune_ms: Vec<f64>,
    /// The round's other request (`Simulate` or `SessionEdit`), ms.
    pub aux_ms: Vec<f64>,
    /// Whole rounds (the sum of the round's round trips), ms.
    pub round_ms: Vec<f64>,
    pub stats_before: StatsSnap,
    pub stats_after: StatsSnap,
    pub layers: LayerLog,
    /// The traced phase's spans.
    pub tracer: Option<Tracer>,
}

impl Phase {
    /// Fold in another connection's samples from the same phase.
    pub fn merge(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.rounds += other.rounds;
        self.seconds = self.seconds.max(other.seconds);
        self.tune_ms.extend(other.tune_ms);
        self.aux_ms.extend(other.aux_ms);
        self.round_ms.extend(other.round_ms);
        self.layers.merge(other.layers);
        match (&mut self.tracer, other.tracer) {
            (Some(mine), Some(theirs)) => mine.absorb(theirs),
            (mine @ None, theirs) => *mine = theirs,
            (Some(_), None) => {}
        }
    }
}

/// Per-round layer times and per-request counts from the traced phase.
#[derive(Default)]
pub struct LayerLog {
    pub rounds: Vec<RoundLayers>,
    /// Sum of the round's client round trips, ms.
    pub rtt_ms: Vec<f64>,
    /// Per round: round trip − server `wall_ms` − codec spans, over the
    /// round's requests that report `wall_ms`.
    pub residual_ms: Vec<f64>,
    pub req_bytes: Vec<f64>,
    pub resp_bytes: Vec<f64>,
    pub evaluated: u64,
    pub legal: u64,
    pub refinements: u64,
    pub improved: u64,
    pub moves: u64,
    pub cone: Vec<f64>,
    pub rebuilds: u64,
    pub session_tunes: u64,
    pub warm_tunes: u64,
}

/// One round's client-side totals while its requests are replayed.
#[derive(Default)]
pub struct RoundAcc {
    pub rtt_ms: f64,
    pub residual_ms: Option<f64>,
    pub req_bytes: usize,
    pub resp_bytes: usize,
}

impl LayerLog {
    /// Close a traced round: its spans' self times and its totals.
    pub fn close_round(&mut self, t: &mut Tracer, acc: RoundAcc) {
        self.rounds.push(t.close_round());
        self.rtt_ms.push(acc.rtt_ms);
        self.residual_ms.extend(acc.residual_ms);
        self.req_bytes.push(acc.req_bytes as f64);
        self.resp_bytes.push(acc.resp_bytes as f64);
    }

    pub fn add_tune(&mut self, c: &TuneCounts) {
        self.evaluated += c.evaluated;
        self.legal += c.legal;
        if c.refined {
            self.refinements += 1;
            self.moves += c.moves;
            self.improved += u64::from(c.improved);
        }
    }

    pub fn merge(&mut self, o: LayerLog) {
        self.rounds.extend(o.rounds);
        self.rtt_ms.extend(o.rtt_ms);
        self.residual_ms.extend(o.residual_ms);
        self.req_bytes.extend(o.req_bytes);
        self.resp_bytes.extend(o.resp_bytes);
        self.evaluated += o.evaluated;
        self.legal += o.legal;
        self.refinements += o.refinements;
        self.improved += o.improved;
        self.moves += o.moves;
        self.cone.extend(o.cone);
        self.rebuilds += o.rebuilds;
        self.session_tunes += o.session_tunes;
        self.warm_tunes += o.warm_tunes;
    }

    /// Median over rounds of `f(round)`, over the rounds where the layer
    /// ran; 0 when it never ran on this workload.
    fn per_round(&self, f: impl Fn(&RoundLayers) -> Option<f64>) -> f64 {
        let v: Vec<f64> = self.rounds.iter().filter_map(f).collect();
        median(&v)
    }

    fn layer(&self, name: &str) -> f64 {
        self.per_round(|r| r.get(name).copied())
    }

    fn total(&self, name: &str) -> f64 {
        self.rounds.iter().filter_map(|r| r.get(name)).sum()
    }

    /// Every per-layer metric, in `BENCHMARK.json` order. `overhead` is
    /// the traced `Tune` p50 over the untraced one, minus one.
    pub fn metrics(&self, phase: &Phase, overhead: f64) -> Vec<Metric> {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let per_s = |count: u64, ms: f64| {
            if ms > 0.0 {
                count as f64 / (ms / 1e3)
            } else {
                0.0
            }
        };
        let eval_total = self.total("flat.eval");
        let unattributed: Vec<f64> = self
            .rounds
            .iter()
            .zip(&self.rtt_ms)
            .map(|(r, rtt)| {
                let covered: f64 = r.iter().filter(|(n, _)| is_layer(n)).map(|(_, v)| v).sum();
                ((rtt - covered) / rtt).max(0.0)
            })
            .collect();
        let (before, after) = (phase.stats_before, phase.stats_after);
        vec![
            Metric::ms("protocol.req_encode_ms", self.layer("protocol.req_encode")),
            Metric::ms("protocol.req_decode_ms", self.layer("protocol.req_decode")),
            Metric::ms(
                "protocol.resp_encode_ms",
                self.layer("protocol.resp_encode"),
            ),
            Metric::ms(
                "protocol.resp_decode_ms",
                self.layer("protocol.resp_decode"),
            ),
            Metric::new("protocol.req_bytes", median(&self.req_bytes), "bytes"),
            Metric::new("protocol.resp_bytes", median(&self.resp_bytes), "bytes"),
            Metric::ms("server.residual_ms", median(&self.residual_ms)),
            Metric::new("server.queue_peak", after.queue_peak as f64, "count"),
            Metric::ms("mapping.resolve_ms", self.layer("mapping.resolve")),
            Metric::ms("flat.context_ms", self.layer("flat.context")),
            // The eval span re-resolves internally; the separately timed
            // resolve is taken out so the two layers do not overlap.
            Metric::ms(
                "flat.eval_ms",
                self.per_round(|r| {
                    let eval = r.get("flat.eval")?;
                    Some(eval - r.get("mapping.resolve").copied().unwrap_or(0.0))
                }),
            ),
            Metric::new("flat.evals_per_s", per_s(self.evaluated, eval_total), "1/s"),
            Metric::new(
                "flat.legal_frac",
                ratio(self.legal, self.evaluated),
                "ratio",
            ),
            Metric::ms("search.rank_ms", self.layer("search.rank")),
            Metric::ms("anneal.refine_ms", self.layer("anneal.refine")),
            Metric::new(
                "anneal.moves_per_s",
                per_s(self.moves, self.total("anneal.refine")),
                "1/s",
            ),
            Metric::new(
                "anneal.improved_frac",
                ratio(self.improved, self.refinements),
                "ratio",
            ),
            Metric::ms("cache.fingerprint_ms", self.layer("cache.fingerprint")),
            Metric::ms("cache.load_ms", self.layer("cache.load")),
            Metric::ms("cache.replay_check_ms", self.layer("cache.replay_check")),
            Metric::new(
                "cache.hit_frac",
                ratio(
                    after.cache_hits - before.cache_hits,
                    after.cache_lookups - before.cache_lookups,
                ),
                "ratio",
            ),
            Metric::ms("grid.predict_ms", self.layer("grid.predict")),
            Metric::ms("grid.sim_ms", self.layer("grid.sim")),
            Metric::ms("session.checksum_ms", self.layer("session.checksum")),
            Metric::ms("session.rehearse_ms", self.layer("session.rehearse")),
            Metric::ms("delta.repair_ms", self.layer("delta.repair")),
            Metric::ms("session.tune_ms", self.layer("session.tune")),
            Metric::new("session.cone_nodes", median(&self.cone), "count"),
            Metric::new("session.rebuilds", self.rebuilds as f64, "count"),
            Metric::new(
                "session.warm_frac",
                ratio(self.warm_tunes, self.session_tunes),
                "ratio",
            ),
            Metric::new("trace.unattributed_frac", median(&unattributed), "ratio"),
            Metric::new("trace.overhead_frac", overhead, "ratio"),
        ]
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }

    pub fn ms(name: &'static str, value: f64) -> Metric {
        Metric::new(name, value, "ms")
    }
}

/// The end-to-end metrics of an untraced phase, in `BENCHMARK.json`
/// order, plus human-readable lines for what the JSON does not carry.
///
/// Only CPU time and memory are reported. The guest this benchmark
/// targets has two vCPUs whose steal time swings between 5% and 30%
/// from one run to the next, and that moves every wall-clock figure
/// (latency percentiles, rounds per second, wall set-up time) by more
/// than the largest bound a reported metric may have. They are printed.
pub fn end_to_end(
    phase: &Phase,
    aux: Option<&str>,
    setup: &Setup,
    rss_mb: f64,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let tune = Latency::of(&phase.tune_ms)
        .ok_or_else(|| format!("only {} tune samples; need 11", phase.tune_ms.len()))?;
    let round = Latency::of(&phase.round_ms)
        .ok_or_else(|| format!("only {} round samples; need 11", phase.round_ms.len()))?;
    let mut lines = vec![tune.describe("tune"), round.describe("round")];
    if let Some(name) = aux {
        let l = Latency::of(&phase.aux_ms)
            .ok_or_else(|| format!("only {} {name} samples; need 11", phase.aux_ms.len()))?;
        lines.push(l.describe(name));
    }
    lines.push(format!(
        "rounds_per_s: {:.3}",
        phase.rounds as f64 / phase.seconds
    ));
    lines.push(format!(
        "failed_frac: {} of {} requests ({:.4})",
        phase.failed,
        phase.attempted,
        phase.failed as f64 / phase.attempted.max(1) as f64
    ));
    lines.push(format!(
        "set-up: CPU {:?} s, wall {:?} s",
        setup.cpu_s, setup.wall_s
    ));
    let metrics = vec![
        Metric::ms("cpu_ms_per_round", phase.cpu_s * 1e3 / phase.rounds as f64),
        Metric::new("setup_s", median(&setup.cpu_s), "s"),
        Metric::new("rss_peak_mb", rss_mb, "MiB"),
    ];
    Ok((metrics, lines))
}

/// CPU and wall time of each set-up in a run.
#[derive(Default)]
pub struct Setup {
    pub cpu_s: Vec<f64>,
    pub wall_s: Vec<f64>,
}
