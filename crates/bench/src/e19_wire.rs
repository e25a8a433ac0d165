//! **E19 — wire transport and dedup-batched admission** (`fm-serve`).
//!
//! Two claims from the binary-protocol work, measured end to end:
//!
//! 1. **Transport** (part A): for small requests the old
//!    one-JSON-frame-per-round-trip loop is dominated by encode cost
//!    and socket latency, not by the server's actual work. A request
//!    sweep drives the same Evaluate/Simulate bodies through both
//!    arms — sequential blocking JSON vs. negotiated binary frames
//!    with a window of requests in flight — and reports effective
//!    per-request p50 (median inter-completion gap for the pipelined
//!    arm, cross-checked against wall/M).
//! 2. **Dedup** (part B): a duplicate-heavy trace (K identical Tunes
//!    queued behind a held worker) collapses into one search under
//!    `dedup_tunes` — the server's books say how many searches really
//!    ran — and every one of the four arms (JSON/binary ×
//!    dedup-on/off) hands back the **bit-identical** winner, asserted
//!    here, not eyeballed.

use std::time::Instant;

use fm_autotune::TunedMapping;
use fm_core::affine::IdxExpr;
use fm_core::dataflow::{CExpr, DataflowGraph};
use fm_core::machine::MachineConfig;
use fm_core::mapping::{AffineMap, Mapping, PlaceExpr};
use fm_core::search::FigureOfMerit;
use fm_core::value::Value;
use fm_serve::client::Client;
use fm_serve::protocol::{
    EvaluateRequest, Request, Response, SimulateRequest, TuneRequest, TuneShardRequest,
    WireCandidate,
};
use fm_serve::server::{Server, ServerConfig};
use serde::Serialize;

use crate::table;

/// One (endpoint, size) point of the transport sweep.
#[derive(Debug, Clone, Serialize)]
pub struct SweepRow {
    /// Endpoint driven (`evaluate` / `simulate`).
    pub endpoint: String,
    /// Graph nodes in the request body (request-size proxy).
    pub nodes: usize,
    /// Requests completed per arm.
    pub requests: usize,
    /// Blocking JSON arm: median per-request latency, ms.
    pub json_p50_ms: f64,
    /// Blocking JSON arm: mean per-request latency, ms.
    pub json_mean_ms: f64,
    /// Pipelined binary arm: median inter-completion gap, ms.
    pub binary_p50_ms: f64,
    /// Pipelined binary arm: wall / M, ms (cross-check on the gaps).
    pub binary_mean_ms: f64,
    /// `json_p50_ms / binary_p50_ms`.
    pub speedup_p50: f64,
    /// `json_mean_ms / binary_mean_ms`.
    pub speedup_mean: f64,
}

/// One arm of the duplicate-heavy trace.
#[derive(Debug, Clone, Serialize)]
pub struct DedupRow {
    /// `json` (one connection per duplicate) or `binary` (one
    /// pipelined connection).
    pub transport: String,
    /// Whether `dedup_tunes` was on for this arm.
    pub dedup: bool,
    /// Identical Tune requests issued.
    pub dupes: u64,
    /// Searches the server actually executed for them
    /// (`completed - waiters_served`).
    pub searches_executed: u64,
    /// Requests answered from another request's search.
    pub waiters_served: u64,
    /// Dedup batches the server formed.
    pub dedup_batches: u64,
    /// Wall time to answer all duplicates once the worker is
    /// released, ms.
    pub wall_ms: f64,
    /// Winning candidate label (identical across every arm).
    pub winner: String,
}

/// Both parts, serialized together as `BENCH_e19.json`.
#[derive(Debug, Clone, Serialize)]
pub struct Results {
    /// Part A: transport sweep.
    pub sweep: Vec<SweepRow>,
    /// Part B: duplicate-heavy trace.
    pub dedup: Vec<DedupRow>,
}

fn wide(n: usize) -> DataflowGraph {
    let mut g = DataflowGraph::new("e19-wide", 32);
    for i in 0..n {
        g.add_node(CExpr::konst(Value::real(i as f64)), vec![], vec![i as i64]);
    }
    g
}

fn candidates(n: usize, cols: u32) -> Vec<WireCandidate> {
    (0..n)
        .map(|i| {
            let w = (i as i64 % cols as i64) + 1;
            WireCandidate {
                label: format!("fold-{i}-w{w}"),
                mapping: Mapping::Affine(AffineMap {
                    place: PlaceExpr::row0(IdxExpr::ModC(Box::new(IdxExpr::i()), w)),
                    time: IdxExpr::i().div(w),
                }),
            }
        })
        .collect()
}

fn tune_request(graph: &DataflowGraph, machine: &MachineConfig, ncand: usize) -> TuneRequest {
    TuneRequest {
        graph: graph.clone(),
        machine: machine.clone(),
        fom: FigureOfMerit::Time,
        candidates: candidates(ncand, machine.cols),
        deadline_ms: None,
        max_candidates: None,
        convergence_window: None,
        refinement: None,
        use_cache: false,
        cost_model: None,
    }
}

fn quantile_ms(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sequential blocking arm: one JSON round trip per request, the old
/// client's exact behavior. Returns per-request latencies in ms.
fn json_arm(addr: std::net::SocketAddr, request: &Request, m: usize) -> Vec<f64> {
    let mut client = Client::connect_json(addr).expect("connect_json");
    assert!(!client.is_binary() && !client.is_pipelined());
    let mut lat = Vec::with_capacity(m);
    for _ in 0..m {
        let t = Instant::now();
        let corr = client.send_request(request).expect("send");
        let (rcorr, resp) = client.recv_response().expect("recv");
        assert_eq!(corr, rcorr);
        check_work_reply(&resp);
        lat.push(t.elapsed().as_secs_f64() * 1e3);
    }
    lat.sort_by(|a, b| a.total_cmp(b));
    lat
}

/// Pipelined binary arm: keep `window` requests in flight on one
/// negotiated connection. Returns (sorted inter-completion gaps in ms,
/// wall-clock mean per request in ms).
fn binary_arm(
    addr: std::net::SocketAddr,
    request: &Request,
    m: usize,
    window: usize,
) -> (Vec<f64>, f64) {
    let mut client = Client::connect(addr).expect("connect");
    assert!(
        client.is_binary() && client.is_pipelined(),
        "E19 needs a negotiated binary pipelined connection"
    );
    let mut sent = 0usize;
    let mut done = 0usize;
    let t0 = Instant::now();
    let mut stamps = Vec::with_capacity(m);
    while sent < window.min(m) {
        client.send_request(request).expect("send");
        sent += 1;
    }
    while done < m {
        let (_corr, resp) = client.recv_response().expect("recv");
        check_work_reply(&resp);
        stamps.push(t0.elapsed().as_secs_f64() * 1e3);
        done += 1;
        if sent < m {
            client.send_request(request).expect("send");
            sent += 1;
        }
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut gaps: Vec<f64> = stamps
        .iter()
        .zip(std::iter::once(&0.0).chain(stamps.iter()))
        .map(|(now, prev)| now - prev)
        .collect();
    gaps.sort_by(|a, b| a.total_cmp(b));
    (gaps, wall_ms / m as f64)
}

fn check_work_reply(resp: &Response) {
    match resp {
        Response::Evaluated(r) => assert!(r.legal),
        Response::Simulated(_) | Response::Tuned(_) => {}
        Response::Busy(_) => panic!("E19 window exceeded the admission queue"),
        other => panic!("unexpected reply {}", other.kind()),
    }
}

fn sweep_point(
    addr: std::net::SocketAddr,
    endpoint: &str,
    nodes: usize,
    m: usize,
    window: usize,
) -> SweepRow {
    let graph = wide(nodes);
    let machine = MachineConfig::linear(8);
    let resolved = Mapping::serial(&graph).resolve(&graph, &machine).unwrap();
    let request = match endpoint {
        "evaluate" => Request::Evaluate(EvaluateRequest {
            graph,
            machine,
            mapping: resolved,
            deadline_ms: None,
        }),
        "simulate" => Request::Simulate(SimulateRequest {
            graph,
            machine,
            mapping: resolved,
            inputs: Vec::new(),
            contention: false,
            deadline_ms: None,
        }),
        other => panic!("unknown endpoint {other}"),
    };
    let json_lat = json_arm(addr, &request, m);
    let (bin_gaps, bin_mean) = binary_arm(addr, &request, m, window);
    let json_p50 = quantile_ms(&json_lat, 0.50);
    let json_mean = json_lat.iter().sum::<f64>() / m as f64;
    let bin_p50 = quantile_ms(&bin_gaps, 0.50);
    SweepRow {
        endpoint: endpoint.to_string(),
        nodes,
        requests: m,
        json_p50_ms: json_p50,
        json_mean_ms: json_mean,
        binary_p50_ms: bin_p50,
        binary_mean_ms: bin_mean,
        speedup_p50: json_p50 / bin_p50.max(1e-9),
        speedup_mean: json_mean / bin_mean.max(1e-9),
    }
}

fn winner_of(reply_best: Option<TunedMapping>) -> TunedMapping {
    reply_best.expect("every dedup arm finds a winner")
}

fn assert_same_winner(got: &TunedMapping, expected: &TunedMapping, arm: &str) {
    assert_eq!(got.label, expected.label, "{arm}: winner label diverged");
    assert_eq!(
        got.score.to_bits(),
        expected.score.to_bits(),
        "{arm}: winner score diverged bitwise"
    );
    assert_eq!(
        got.resolved, expected.resolved,
        "{arm}: resolved mapping diverged"
    );
}

/// Scripted per-candidate straggle of part B's servers, ms.
const STRAGGLE_MS: u64 = 10;

/// Hold the single worker with a straggling `TuneShard` (10 s of
/// scripted straggle, streamed one candidate per part). Returns once
/// the first part arrives, so the shard is executing and the queue is
/// empty. Dropping the returned client cancels the straggle and frees
/// the worker.
fn occupy_worker(addr: std::net::SocketAddr) -> Client {
    let machine = MachineConfig::linear(8);
    let mut client = Client::connect(addr).expect("connect blocker");
    let shard = TuneShardRequest {
        graph: wide(8),
        candidates: candidates((10_000 / STRAGGLE_MS) as usize, machine.cols),
        machine,
        fom: FigureOfMerit::Time,
        start_index: 0,
        epoch: 1,
        deadline_ms: None,
        stream_every: Some(1),
        cost_model: None,
    };
    client
        .send_request(&Request::TuneShard(shard))
        .expect("send blocker");
    match client.recv_response().expect("first blocker part") {
        (_, Response::TuneShardPart(_)) => client,
        (_, other) => panic!("blocker: expected a streamed part, got {}", other.kind()),
    }
}

/// One arm of part B. A straggling `TuneShard` holds the single worker
/// until every duplicate is queued — the scenario dedup batching
/// exists for — so the arm's books do not depend on timing.
fn dedup_arm(binary: bool, dedup: bool, dupes: u64, expected: &TunedMapping) -> DedupRow {
    let graph = wide(32);
    let machine = MachineConfig::linear(8);
    let config = ServerConfig {
        workers: 1,
        straggle_ms_per_candidate: Some(STRAGGLE_MS),
        dedup_tunes: dedup,
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let arm = format!(
        "{}/dedup-{}",
        if binary { "binary" } else { "json" },
        if dedup { "on" } else { "off" }
    );
    let dupe = Request::Tune(tune_request(&graph, &machine, 24));
    let blocker = occupy_worker(addr);

    let wall_ms = if binary {
        // The reader answers a Ping inline only after admitting every
        // frame sent before it, and no Tune can finish while the
        // worker is held, so the Pong means every duplicate is queued.
        let mut client = Client::connect(addr).expect("connect");
        assert!(client.is_pipelined());
        for _ in 0..dupes {
            client.send_request(&dupe).expect("send dupe");
        }
        let ping = client.send_request(&Request::Ping).expect("send ping");
        let (first, pong) = client.recv_response().expect("recv pong");
        assert!(
            first == ping && matches!(pong, Response::Pong),
            "{arm}: no Tune can finish while the worker is held"
        );
        let t0 = Instant::now();
        drop(blocker);
        for _ in 0..dupes {
            let (_corr, resp) = client.recv_response().expect("recv");
            match resp {
                Response::Tuned(r) => {
                    assert_same_winner(&winner_of(r.best), expected, &arm);
                }
                other => panic!("{arm}: unexpected reply {}", other.kind()),
            }
        }
        t0.elapsed().as_secs_f64() * 1e3
    } else {
        // The old client's shape: one JSON connection per duplicate.
        let joins: Vec<_> = (0..dupes)
            .map(|_| {
                let dupe = dupe.clone();
                let mut client = Client::connect_json(addr).expect("connect dupe");
                std::thread::spawn(move || {
                    let corr = client.send_request(&dupe).unwrap();
                    let (rcorr, resp) = client.recv_response().unwrap();
                    assert_eq!(corr, rcorr);
                    match resp {
                        Response::Tuned(r) => winner_of(r.best),
                        other => panic!("unexpected reply {}", other.kind()),
                    }
                })
            })
            .collect();
        // Nothing leaves the queue while the worker is held, so its
        // high-water mark reaches `dupes` exactly when every duplicate
        // is queued.
        let mut stats_client = Client::connect(addr).expect("connect stats");
        while stats_client.stats().expect("stats").queue_peak < dupes {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let t0 = Instant::now();
        drop(blocker);
        for j in joins {
            let winner = j.join().expect("dupe thread");
            assert_same_winner(&winner, expected, &arm);
        }
        t0.elapsed().as_secs_f64() * 1e3
    };

    let stats = server.shutdown_and_join();
    let tunes = stats.tune.completed;
    assert_eq!(tunes, dupes, "{arm}: every duplicate must be answered");
    if !dedup {
        assert_eq!(stats.dedup_batches, 0, "{arm}: dedup was off");
        assert_eq!(stats.dedup_waiters_served, 0, "{arm}: dedup was off");
    }
    DedupRow {
        transport: if binary { "binary" } else { "json" }.to_string(),
        dedup,
        dupes,
        searches_executed: tunes - stats.dedup_waiters_served,
        waiters_served: stats.dedup_waiters_served,
        dedup_batches: stats.dedup_batches,
        wall_ms,
        winner: expected.label.clone(),
    }
}

/// Run both parts. `quick` shrinks request counts and the duplicate
/// trace, not the workload shape or any correctness assertion.
pub fn run(quick: bool) -> Results {
    let m = if quick { 48 } else { 256 };
    let window = if quick { 8 } else { 16 };
    let dupes: u64 = if quick { 4 } else { 16 };

    // Part A: one resident server for the whole sweep, arms run
    // back-to-back against it.
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let mut sweep = Vec::new();
    for endpoint in ["evaluate", "simulate"] {
        for nodes in [4usize, 16, 64] {
            sweep.push(sweep_point(addr, endpoint, nodes, m, window));
        }
    }
    server.shutdown_and_join();

    // The transport headline: on the smallest requests — where framing
    // overhead dominates real work — pipelined binary must beat
    // blocking JSON by >= 5x at the median. Quick smoke runs on a
    // loaded CI box only get the direction, not the factor.
    if !quick {
        for r in sweep.iter().filter(|r| r.nodes == 4) {
            assert!(
                r.speedup_p50 >= 5.0,
                "{} @ {} nodes: p50 speedup {:.2}x < 5x",
                r.endpoint,
                r.nodes,
                r.speedup_p50
            );
        }
    }

    // Part B: each arm gets a fresh one-worker server so the books
    // (searches executed vs. waiters served) are the arm's alone.
    let graph = wide(32);
    let machine = MachineConfig::linear(8);
    let expected = {
        use fm_core::cost::Evaluator;
        use fm_core::search::MappingCandidate;
        let evaluator = Evaluator::new(&graph, &machine);
        let cands: Vec<MappingCandidate> = candidates(24, machine.cols)
            .into_iter()
            .map(|c| MappingCandidate::new(c.label, c.mapping))
            .collect();
        fm_autotune::Tuner::new(&evaluator, &graph, &machine, FigureOfMerit::Time)
            .tune(&cands)
            .best
            .expect("direct winner")
    };
    let mut dedup = Vec::new();
    for (binary, on) in [(false, true), (false, false), (true, true), (true, false)] {
        dedup.push(dedup_arm(binary, on, dupes, &expected));
    }

    // The headline collapse: with dedup on, duplicates queued behind
    // the held worker are answered by far fewer real searches.
    for row in dedup.iter().filter(|r| r.dedup) {
        assert!(
            row.dedup_batches >= 1 && row.waiters_served >= dupes / 2,
            "{}/dedup-on: expected an >= {}-way collapse, got {} waiters in {} batches",
            row.transport,
            dupes / 2,
            row.waiters_served,
            row.dedup_batches
        );
    }

    Results { sweep, dedup }
}

/// Render both tables.
pub fn print(results: &Results) -> String {
    let mut out = String::from(
        "E19 — wire transport and dedup-batched admission\n\n\
         Part A: blocking JSON vs. pipelined binary, per-request p50\n\n",
    );
    let sweep_rows: Vec<Vec<String>> = results
        .sweep
        .iter()
        .map(|r| {
            vec![
                r.endpoint.clone(),
                r.nodes.to_string(),
                r.requests.to_string(),
                table::f(r.json_p50_ms),
                table::f(r.binary_p50_ms),
                table::f(r.speedup_p50),
                table::f(r.json_mean_ms),
                table::f(r.binary_mean_ms),
                table::f(r.speedup_mean),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &[
            "endpoint",
            "nodes",
            "reqs",
            "json p50",
            "bin p50",
            "x p50",
            "json mean",
            "bin mean",
            "x mean",
        ],
        &sweep_rows,
    ));
    out.push_str("\nPart B: K identical Tunes queued behind a held worker (1 worker)\n\n");
    let dedup_rows: Vec<Vec<String>> = results
        .dedup
        .iter()
        .map(|r| {
            vec![
                r.transport.clone(),
                if r.dedup { "on" } else { "off" }.to_string(),
                r.dupes.to_string(),
                r.searches_executed.to_string(),
                r.waiters_served.to_string(),
                r.dedup_batches.to_string(),
                table::f(r.wall_ms),
                r.winner.clone(),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &[
            "transport",
            "dedup",
            "dupes",
            "searches",
            "waiters",
            "batches",
            "wall ms",
            "winner",
        ],
        &dedup_rows,
    ));
    out.push_str(
        "\nwinners are bit-identical across all four arms and equal to a\n\
         direct in-process tune — encoding and batching change latency,\n\
         never answers.\n",
    );
    out
}

/// The results as a JSON document (`BENCH_e19.json`).
pub fn to_json(results: &Results) -> String {
    serde_json::to_string_pretty(results).expect("Results serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_collapses_duplicates_and_agrees_on_winners() {
        let results = run(true);
        assert_eq!(results.sweep.len(), 6);
        for r in &results.sweep {
            assert!(r.json_p50_ms > 0.0 && r.binary_p50_ms > 0.0);
            // Pipelined binary must never be slower than blocking
            // JSON at the median (the full run shows >= 5x on small
            // requests; quick runs on loaded CI get a loose floor).
            assert!(
                r.speedup_p50 > 1.0,
                "{} @ {} nodes: pipelined binary slower than blocking JSON ({:.2}x)",
                r.endpoint,
                r.nodes,
                r.speedup_p50
            );
        }
        assert_eq!(results.dedup.len(), 4);
        for r in &results.dedup {
            assert_eq!(r.searches_executed + r.waiters_served, r.dupes);
            if !r.dedup {
                assert_eq!(r.searches_executed, r.dupes);
            }
        }
        // run() already asserted the collapse and winner identity.
    }

    #[test]
    fn quantile_picks_sorted_ranks() {
        let lat = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_ms(&lat, 0.50), 2.0);
        assert_eq!(quantile_ms(&lat, 1.0), 4.0);
        assert_eq!(quantile_ms(&[], 0.5), 0.0);
    }

    #[test]
    fn json_round_trips() {
        let results = Results {
            sweep: vec![SweepRow {
                endpoint: "evaluate".into(),
                nodes: 4,
                requests: 10,
                json_p50_ms: 1.0,
                json_mean_ms: 1.1,
                binary_p50_ms: 0.1,
                binary_mean_ms: 0.2,
                speedup_p50: 10.0,
                speedup_mean: 5.5,
            }],
            dedup: vec![DedupRow {
                transport: "binary".into(),
                dedup: true,
                dupes: 8,
                searches_executed: 1,
                waiters_served: 7,
                dedup_batches: 1,
                wall_ms: 12.0,
                winner: "fold-0-w1".into(),
            }],
        };
        let j = to_json(&results);
        serde_json::from_str_value(&j).unwrap();
        assert!(j.contains("\"speedup_p50\": 10"), "{j}");
        assert!(j.contains("\"waiters_served\": 7"), "{j}");
    }
}
