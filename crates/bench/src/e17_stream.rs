//! **E17 — streaming shard replies + latency-weighted partitioning**
//! (`fm-serve --fleet`).
//!
//! The fleet's tail-latency fix, measured: a 2-shard topology where
//! shard 0 is a *scripted straggler* (the server's deterministic
//! `straggle_ms_per_candidate` hook slows its per-candidate compute,
//! identically in both rows, so they race on even terms). The same
//! sequence of tunes runs twice through the one fleet path:
//!
//! * **blocking** — the baseline of a fleet without streaming or
//!   weights: `stream_every = ncand`, so every range is a single chunk,
//!   and a fresh coordinator per tune, so its weights are always cold
//!   and every split is the equal split. Only the tunes are timed, not
//!   the coordinator start-ups. It pays the straggler's full range on
//!   *every* tune.
//! * **streaming+weighted** — one long-lived coordinator with
//!   `stream_every = 4`: it banks the straggler's finished prefix as
//!   sealed `TuneShardPart` frames, hedges only the unfinished suffix,
//!   and — because part arrival times feed the per-shard EWMA
//!   throughput tracker that persists across requests — every tune
//!   after the first hands the straggler a proportionally tiny range to
//!   begin with.
//!
//! The invariant is unchanged and checked per tune: bit-identical
//! winner to a single-machine `Tuner::tune`, and zero streamed-prefix
//! candidates discarded. The speedup is the headline; the parity bit
//! is the contract.

use std::time::{Duration, Instant};

use fm_autotune::{TunedMapping, Tuner};
use fm_core::affine::IdxExpr;
use fm_core::cost::Evaluator;
use fm_core::dataflow::{CExpr, DataflowGraph};
use fm_core::machine::MachineConfig;
use fm_core::mapping::{AffineMap, Mapping, PlaceExpr};
use fm_core::search::FigureOfMerit;
use fm_core::value::Value;
use fm_serve::client::Client;
use fm_serve::fleet::FleetConfig;
use fm_serve::metrics::FleetStatsReply;
use fm_serve::protocol::{TuneRequest, WireCandidate};
use fm_serve::server::{Server, ServerConfig, ServerHandle};
use serde::Serialize;

use crate::table;

/// One protocol's view of the straggler topology.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Protocol (`blocking` / `streaming+weighted`).
    pub scenario: String,
    /// Tunes issued sequentially (all completed).
    pub tunes: u64,
    /// Sum of the per-tune latencies, milliseconds (coordinator
    /// start-ups are not timed).
    pub total_wall_ms: f64,
    /// Median per-tune latency, milliseconds.
    pub p50_ms: f64,
    /// Maximum per-tune latency, milliseconds.
    pub max_ms: f64,
    /// Verified streamed parts merged into range ledgers.
    pub parts_merged: u64,
    /// Streamed parts discarded by validation — the acceptance
    /// criterion demands exactly zero.
    pub parts_discarded: u64,
    /// Retries/hedges that dispatched only an unfinished suffix.
    pub suffix_redispatches: u64,
    /// Candidates banked from attempts that later died mid-stream.
    pub prefix_candidates_saved: u64,
    /// Hedged duplicate attempts launched.
    pub hedges: u64,
    /// This row's speedup over the blocking row (blocking = 1.0).
    pub speedup_vs_blocking: f64,
    /// Did every tune return the bit-identical single-machine winner?
    pub winner_bit_identical: bool,
}

fn wide(n: usize) -> DataflowGraph {
    let mut g = DataflowGraph::new("e17-wide", 32);
    for i in 0..n {
        g.add_node(CExpr::konst(Value::real(i as f64)), vec![], vec![i as i64]);
    }
    g
}

/// Legal fold-onto-`w`-PEs candidates (place `i mod w`, time `i div w`).
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

fn direct_winner(graph: &DataflowGraph, machine: &MachineConfig, ncand: usize) -> TunedMapping {
    let evaluator = Evaluator::new(graph, machine);
    Tuner::new(&evaluator, graph, machine, FigureOfMerit::Time)
        .tune(&candidates(ncand, machine.cols))
        .best
        .expect("direct tuner found a winner")
}

fn quantile_ms(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Issue `tunes` identical tunes sequentially, returning each tune's
/// latency and whether every winner matched `expected`.
fn drive(
    addr: std::net::SocketAddr,
    graph: &DataflowGraph,
    machine: &MachineConfig,
    ncand: usize,
    tunes: usize,
    expected: &TunedMapping,
) -> (Vec<f64>, bool) {
    let mut client = Client::connect(addr).expect("connect");
    let mut lat = Vec::with_capacity(tunes);
    let mut identical = true;
    for _ in 0..tunes {
        let t = Instant::now();
        let reply = client
            .tune(TuneRequest {
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
            })
            .expect("tune");
        lat.push(t.elapsed().as_secs_f64() * 1e3);
        let best = reply.best.expect("a winner");
        identical &= best.label == expected.label
            && best.score.to_bits() == expected.score.to_bits()
            && best.resolved == expected.resolved;
    }
    (lat, identical)
}

/// One row from per-tune latencies (the total is their sum) and the
/// fleet counters of every coordinator that served them.
fn row(scenario: &str, mut lat: Vec<f64>, fleets: &[FleetStatsReply], ok: bool) -> Row {
    lat.sort_by(|a, b| a.total_cmp(b));
    let sum = |counter: fn(&FleetStatsReply) -> u64| fleets.iter().map(counter).sum();
    Row {
        scenario: scenario.to_string(),
        tunes: lat.len() as u64,
        total_wall_ms: lat.iter().sum(),
        p50_ms: quantile_ms(&lat, 0.50),
        max_ms: lat.last().copied().unwrap_or(0.0),
        parts_merged: sum(|f| f.parts_merged),
        parts_discarded: sum(|f| f.parts_discarded),
        suffix_redispatches: sum(|f| f.suffix_redispatches),
        prefix_candidates_saved: sum(|f| f.prefix_candidates_saved),
        hedges: sum(|f| f.hedges),
        speedup_vs_blocking: 1.0,
        winner_bit_identical: ok,
    }
}

/// Run both protocols over the scripted-straggler topology. `quick`
/// shrinks the tune count and the straggle factor, not the shape.
pub fn run(quick: bool) -> Vec<Row> {
    let tunes = if quick { 3 } else { 8 };
    let straggle_ms = if quick { 10 } else { 15 };
    let ncand = 48;
    let graph = wide(20);
    let machine = MachineConfig::linear(8);
    let expected = direct_winner(&graph, &machine, ncand);

    // Shard 0 is the scripted straggler; shard 1 is healthy. The
    // straggle hook slows *compute*, identically for both protocols.
    let start_shards = || -> Vec<ServerHandle> {
        [Some(straggle_ms), None]
            .into_iter()
            .map(|straggle| {
                let config = ServerConfig {
                    straggle_ms_per_candidate: straggle,
                    ..ServerConfig::default()
                };
                Server::start("127.0.0.1:0", config).expect("bind shard")
            })
            .collect()
    };
    let start_coordinator = |addrs: &[String], stream_every: u64| -> ServerHandle {
        let mut f = FleetConfig::new(addrs.to_vec());
        f.connect_timeout = Duration::from_millis(200);
        f.attempt_timeout = Duration::from_secs(5);
        f.backoff_base = Duration::from_millis(5);
        f.backoff_max = Duration::from_millis(40);
        f.hedge_after = Some(Duration::from_millis(250));
        f.stream_every = stream_every;
        let config = ServerConfig {
            fleet: Some(f),
            ..ServerConfig::default()
        };
        Server::start("127.0.0.1:0", config).expect("bind coordinator")
    };

    let mut rows = Vec::new();
    for (scenario, streaming) in [("blocking", false), ("streaming+weighted", true)] {
        let shards = start_shards();
        let addrs: Vec<String> = shards.iter().map(|s| s.local_addr().to_string()).collect();
        // The baseline gets one chunk per range and a fresh (cold,
        // hence equally split) coordinator per tune; streaming keeps
        // one coordinator, and so its weights, for the whole sequence.
        let (stream_every, tunes_per_coordinator) = if streaming {
            (4, tunes)
        } else {
            (ncand as u64, 1)
        };
        let (mut lat, mut ok, mut fleets) = (Vec::new(), true, Vec::new());
        for _ in 0..tunes / tunes_per_coordinator {
            let coord = start_coordinator(&addrs, stream_every);
            let (l, same) = drive(
                coord.local_addr(),
                &graph,
                &machine,
                ncand,
                tunes_per_coordinator,
                &expected,
            );
            lat.extend(l);
            ok &= same;
            let stats = coord.shutdown_and_join();
            fleets.push(stats.fleet.expect("coordinator exports fleet"));
        }
        rows.push(row(scenario, lat, &fleets, ok));
        for s in shards {
            s.shutdown_and_join();
        }
    }

    let blocking_wall = rows[0].total_wall_ms;
    for r in &mut rows {
        r.speedup_vs_blocking = blocking_wall / r.total_wall_ms.max(1e-9);
    }
    rows
}

/// Render.
pub fn print(rows: &[Row]) -> String {
    let mut out = String::from(
        "E17 — streaming shard replies + latency-weighted partitioning (scripted straggler)\n\n",
    );
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.tunes.to_string(),
                table::f(r.total_wall_ms),
                table::f(r.p50_ms),
                table::f(r.max_ms),
                r.parts_merged.to_string(),
                r.parts_discarded.to_string(),
                r.suffix_redispatches.to_string(),
                r.hedges.to_string(),
                format!("{:.2}x", r.speedup_vs_blocking),
                if r.winner_bit_identical { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &[
            "scenario",
            "tunes",
            "total ms",
            "p50 ms",
            "max ms",
            "parts",
            "discard",
            "suffix",
            "hedge",
            "speedup",
            "bit-identical",
        ],
        &table_rows,
    ));
    out.push_str(
        "\nblocking re-pays the straggler's whole range every tune; streaming banks\n\
         its finished prefix and the EWMA-weighted split stops assigning it one.\n\
         the winner is bit-identical to a single-machine tune in every row.\n",
    );
    out
}

/// The rows as a JSON document (`BENCH_e17.json`).
pub fn to_json(rows: &[Row]) -> String {
    serde_json::to_string_pretty(rows).expect("Row serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_streams_saves_and_keeps_winner_parity() {
        let rows = run(true);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.winner_bit_identical, "{}: winner diverged", r.scenario);
            assert_eq!(r.parts_discarded, 0, "{}: discarded parts", r.scenario);
            assert!(r.p50_ms <= r.max_ms, "{}", r.scenario);
        }
        let blocking = &rows[0];
        let streaming = &rows[1];
        // One chunk per range: the baseline never banks a partial range.
        assert!(
            blocking.prefix_candidates_saved == 0 && blocking.suffix_redispatches == 0,
            "blocking baseline banked a partial range"
        );
        assert!(
            streaming.parts_merged > 0,
            "streaming path produced no parts"
        );
        // The headline: even the quick run clears a comfortable margin
        // under the full run's 1.5x acceptance bar.
        assert!(
            streaming.speedup_vs_blocking >= 1.2,
            "streaming+weighted speedup {:.2}x under 1.2x",
            streaming.speedup_vs_blocking
        );
    }

    #[test]
    fn json_round_trips() {
        let rows = vec![Row {
            scenario: "streaming+weighted".into(),
            tunes: 8,
            total_wall_ms: 700.0,
            p50_ms: 65.0,
            max_ms: 280.0,
            parts_merged: 40,
            parts_discarded: 0,
            suffix_redispatches: 1,
            prefix_candidates_saved: 0,
            hedges: 1,
            speedup_vs_blocking: 2.9,
            winner_bit_identical: true,
        }];
        let j = to_json(&rows);
        serde_json::from_str_value(&j).unwrap();
        assert!(j.contains("\"scenario\": \"streaming+weighted\""), "{j}");
        assert!(j.contains("\"parts_discarded\": 0"), "{j}");
    }
}
