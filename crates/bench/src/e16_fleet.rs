//! **E16 — fault-tolerant fleet tuning** (`fm-serve --fleet`).
//!
//! The fleet's pitch is determinism under partial failure: a
//! coordinator partitions each tune across backend shards and merges
//! by `(score, index)`, so the winner is bit-identical to one machine
//! sweeping the whole candidate list — even while shards drop, stall,
//! truncate, corrupt, or die outright. This experiment runs the same
//! tune workload through four topologies — local only, a healthy
//! 3-shard fleet, the same fleet behind deterministic fault-injection
//! proxies, and a fleet whose every shard is dead — and reports
//! latency quantiles next to the recovery counters (retries, hedges,
//! reassignments, discarded replies, local fallbacks). Every row
//! asserts the winner matched the single-machine reference, bit for
//! bit.

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
use fm_serve::fault::{FaultPlan, FaultProxy};
use fm_serve::fleet::FleetConfig;
use fm_serve::metrics::FleetStatsReply;
use fm_serve::protocol::{TuneRequest, WireCandidate};
use fm_serve::server::{Server, ServerConfig, ServerHandle};
use serde::Serialize;

use crate::table;

/// One topology's view of the run: latency quantiles plus the fleet's
/// recovery counters, with the determinism check made explicit.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Topology (`local` / `fleet` / `fleet+faults` / `fleet-outage`).
    pub scenario: String,
    /// Tunes issued (all completed).
    pub tunes: u64,
    /// Completed tunes per second.
    pub throughput_rps: f64,
    /// Median tune latency, milliseconds.
    pub p50_ms: f64,
    /// 95th percentile tune latency, milliseconds.
    pub p95_ms: f64,
    /// Maximum tune latency, milliseconds.
    pub max_ms: f64,
    /// Retry waves after failed attempts.
    pub retries: u64,
    /// Hedged duplicate requests launched.
    pub hedges: u64,
    /// Sub-ranges served by a non-first-choice shard.
    pub reassignments: u64,
    /// Replies discarded by validation (corrupt + stale + incomplete).
    pub discarded: u64,
    /// Sub-ranges that fell back to coordinator-local evaluation.
    pub local_fallback_ranges: u64,
    /// Did every tune return the bit-identical single-machine winner?
    pub winner_bit_identical: bool,
}

fn wide(n: usize) -> DataflowGraph {
    let mut g = DataflowGraph::new("e16-wide", 32);
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

fn quantile_ms(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Recovery timeouts tightened so fault handling happens in bench
/// time; the production defaults only stretch the same machinery.
fn fleet_config(shards: Vec<String>) -> FleetConfig {
    let mut f = FleetConfig::new(shards);
    f.connect_timeout = Duration::from_millis(200);
    f.attempt_timeout = Duration::from_secs(3);
    f.backoff_base = Duration::from_millis(5);
    f.backoff_max = Duration::from_millis(40);
    f.hedge_after = Some(Duration::from_millis(60));
    f.breaker_cooldown = Duration::from_millis(400);
    f
}

fn direct_winner(graph: &DataflowGraph, machine: &MachineConfig, ncand: usize) -> TunedMapping {
    let evaluator = Evaluator::new(graph, machine);
    Tuner::new(&evaluator, graph, machine, FigureOfMerit::Time)
        .tune(&candidates(ncand, machine.cols))
        .best
        .expect("direct tuner found a winner")
}

/// An address that refuses connects (bound once, then released).
fn dead_addr() -> String {
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    probe.local_addr().unwrap().to_string()
}

/// Issue `tunes` identical tunes at `addr`, checking each winner
/// against `expected`; returns per-tune latencies and the parity bit.
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
    lat.sort_by(|a, b| a.total_cmp(b));
    (lat, identical)
}

fn row(scenario: &str, lat: &[f64], wall: f64, fleet: Option<&FleetStatsReply>, ok: bool) -> Row {
    Row {
        scenario: scenario.to_string(),
        tunes: lat.len() as u64,
        throughput_rps: lat.len() as f64 / wall.max(1e-9),
        p50_ms: quantile_ms(lat, 0.50),
        p95_ms: quantile_ms(lat, 0.95),
        max_ms: lat.last().copied().unwrap_or(0.0),
        retries: fleet.map_or(0, |f| f.retries),
        hedges: fleet.map_or(0, |f| f.hedges),
        reassignments: fleet.map_or(0, |f| f.reassignments),
        discarded: fleet.map_or(0, |f| {
            f.corrupt_discarded + f.stale_discarded + f.incomplete_discarded
        }),
        local_fallback_ranges: fleet.map_or(0, |f| f.local_fallback_ranges),
        winner_bit_identical: ok,
    }
}

/// Run all four topologies. `quick` shrinks the tune count, not the
/// workload shape or the fault mix.
pub fn run(quick: bool) -> Vec<Row> {
    let tunes = if quick { 3 } else { 12 };
    let ncand = 40;
    let graph = wide(20);
    let machine = MachineConfig::linear(8);
    let expected = direct_winner(&graph, &machine, ncand);
    let mut rows = Vec::new();

    // Local baseline: one server, no fleet.
    {
        let server = Server::start("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let t0 = Instant::now();
        let (lat, ok) = drive(
            server.local_addr(),
            &graph,
            &machine,
            ncand,
            tunes,
            &expected,
        );
        let wall = t0.elapsed().as_secs_f64();
        server.shutdown_and_join();
        rows.push(row("local", &lat, wall, None, ok));
    }

    let start_shards = |n: usize| -> Vec<ServerHandle> {
        (0..n)
            .map(|_| Server::start("127.0.0.1:0", ServerConfig::default()).expect("bind shard"))
            .collect()
    };
    let coordinator = |fleet: FleetConfig| -> ServerHandle {
        let config = ServerConfig {
            fleet: Some(fleet),
            ..ServerConfig::default()
        };
        Server::start("127.0.0.1:0", config).expect("bind coordinator")
    };

    // Healthy 3-shard fleet.
    {
        let shards = start_shards(3);
        let addrs = shards.iter().map(|s| s.local_addr().to_string()).collect();
        let coord = coordinator(fleet_config(addrs));
        let t0 = Instant::now();
        let (lat, ok) = drive(
            coord.local_addr(),
            &graph,
            &machine,
            ncand,
            tunes,
            &expected,
        );
        let wall = t0.elapsed().as_secs_f64();
        let stats = coord.shutdown_and_join();
        rows.push(row("fleet", &lat, wall, stats.fleet.as_ref(), ok));
        for s in shards {
            s.shutdown_and_join();
        }
    }

    // Same fleet, every shard behind a seeded fault-injection proxy
    // (drops, delays, truncations, corruptions, mid-reply disconnects
    // — deterministic per seed, clean once the schedule is spent).
    {
        let shards = start_shards(3);
        let proxies: Vec<FaultProxy> = shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                FaultProxy::start(s.local_addr(), FaultPlan::seeded(0xE16 + i as u64, 4))
                    .expect("proxy")
            })
            .collect();
        let addrs = proxies.iter().map(|p| p.local_addr().to_string()).collect();
        let coord = coordinator(fleet_config(addrs));
        let t0 = Instant::now();
        let (lat, ok) = drive(
            coord.local_addr(),
            &graph,
            &machine,
            ncand,
            tunes,
            &expected,
        );
        let wall = t0.elapsed().as_secs_f64();
        let stats = coord.shutdown_and_join();
        rows.push(row("fleet+faults", &lat, wall, stats.fleet.as_ref(), ok));
        for p in proxies {
            p.stop();
        }
        for s in shards {
            s.shutdown_and_join();
        }
    }

    // Full outage: every shard address refuses connects; the
    // coordinator must degrade to pure-local search, same winner.
    {
        let coord = coordinator(fleet_config(vec![dead_addr(), dead_addr(), dead_addr()]));
        let t0 = Instant::now();
        let (lat, ok) = drive(
            coord.local_addr(),
            &graph,
            &machine,
            ncand,
            tunes,
            &expected,
        );
        let wall = t0.elapsed().as_secs_f64();
        let stats = coord.shutdown_and_join();
        rows.push(row("fleet-outage", &lat, wall, stats.fleet.as_ref(), ok));
    }

    rows
}

/// Render.
pub fn print(rows: &[Row]) -> String {
    let mut out =
        String::from("E16 — fault-tolerant fleet tuning (winner parity under injected faults)\n\n");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.tunes.to_string(),
                table::f(r.throughput_rps),
                table::f(r.p50_ms),
                table::f(r.p95_ms),
                table::f(r.max_ms),
                r.retries.to_string(),
                r.hedges.to_string(),
                r.reassignments.to_string(),
                r.discarded.to_string(),
                r.local_fallback_ranges.to_string(),
                if r.winner_bit_identical { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &[
            "scenario",
            "tunes",
            "tune/s",
            "p50 ms",
            "p95 ms",
            "max ms",
            "retry",
            "hedge",
            "reassign",
            "discard",
            "local",
            "bit-identical",
        ],
        &table_rows,
    ));
    out.push_str(
        "\nevery topology — healthy, faulted, and fully dead — must return the\n\
         single-machine winner bit for bit; the counters show what it cost.\n",
    );
    out
}

/// The rows as a JSON document (`BENCH_e16.json`).
pub fn to_json(rows: &[Row]) -> String {
    serde_json::to_string_pretty(rows).expect("Row serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_keeps_every_winner_bit_identical() {
        let rows = run(true);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.winner_bit_identical, "{}: winner diverged", r.scenario);
            assert!(r.tunes > 0 && r.throughput_rps > 0.0, "{}", r.scenario);
            assert!(
                r.p50_ms <= r.p95_ms && r.p95_ms <= r.max_ms,
                "{}",
                r.scenario
            );
        }
        let outage = rows.iter().find(|r| r.scenario == "fleet-outage").unwrap();
        assert!(
            outage.local_fallback_ranges >= 1,
            "outage must have fallen back locally"
        );
    }

    #[test]
    fn json_round_trips() {
        let rows = vec![Row {
            scenario: "fleet".into(),
            tunes: 12,
            throughput_rps: 8.0,
            p50_ms: 10.0,
            p95_ms: 20.0,
            max_ms: 30.0,
            retries: 1,
            hedges: 2,
            reassignments: 1,
            discarded: 3,
            local_fallback_ranges: 0,
            winner_bit_identical: true,
        }];
        let j = to_json(&rows);
        serde_json::from_str_value(&j).unwrap();
        assert!(j.contains("\"scenario\": \"fleet\""), "{j}");
        assert!(j.contains("\"winner_bit_identical\": true"), "{j}");
    }
}
