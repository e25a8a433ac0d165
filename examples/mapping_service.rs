//! Talk to the mapping service: tune, evaluate, and read live metrics
//! over the wire.
//!
//! By default this starts an in-process `fm-serve` server on an
//! ephemeral port and exercises it — a self-contained demo. Set
//! `FM_SERVE_ADDR=host:port` to talk to an external daemon instead
//! (that is how `ci.sh`'s serve-smoke job uses it, against a real
//! `fm-serve` process), and `FM_SERVE_SHUTDOWN=1` to send the daemon a
//! graceful drain-then-exit request at the end.
//!
//! `FM_SERVE_UNCACHED=1` sends the tune with `use_cache: false`. Cached
//! tunes are pinned to the server they hit, so this is also the switch
//! that lets a `--fleet` coordinator shard the search: point
//! `FM_SERVE_ADDR` at a coordinator and the tune fans out across its
//! backends (watch the `tune_shard` counters on the shards move).
//!
//! Run with: `cargo run --release --example mapping_service`

use fm_repro::core::machine::MachineConfig;
use fm_repro::core::search::FigureOfMerit;
use fm_repro::kernels::fft::{fft_graph, FftFamily, FftVariant};
use fm_repro::serve::client::Client;
use fm_repro::serve::protocol::{EvaluateRequest, TuneRequest};
use fm_repro::serve::server::{Server, ServerConfig};

fn main() {
    // 1. Find a server: external via FM_SERVE_ADDR, or in-process.
    let external = std::env::var("FM_SERVE_ADDR").ok();
    let handle = if external.is_none() {
        let h = Server::start("127.0.0.1:0", ServerConfig::default()).expect("bind server");
        println!("started in-process server on {}", h.local_addr());
        Some(h)
    } else {
        None
    };
    let addr = external
        .clone()
        .unwrap_or_else(|| handle.as_ref().unwrap().local_addr().to_string());

    let mut client = Client::connect(&*addr).expect("connect");
    client.ping().expect("ping");
    println!("connected to {addr}");

    // 2. The workload: a 64-point FFT on an 8-PE linear machine, with
    //    the standard placement×P candidate family.
    let graph = fft_graph(64, FftVariant::Dit);
    let machine = MachineConfig::linear(8);
    let family = FftFamily {
        n: 64,
        p_values: vec![1, 2, 4, 8],
    };
    let candidates = family.candidates_for(&graph, &machine);
    println!(
        "tuning fft64-dit: {} nodes, {} candidates, objective EDP",
        graph.len(),
        candidates.len()
    );

    // 3. Tune on the server (deadline-bounded: a slow search returns
    //    its best-so-far prefix rather than blowing the budget).
    let reply = client
        .tune(TuneRequest {
            graph: graph.clone(),
            machine: machine.clone(),
            fom: FigureOfMerit::Edp,
            candidates,
            deadline_ms: Some(30_000),
            max_candidates: None,
            convergence_window: None,
            refinement: None,
            use_cache: std::env::var("FM_SERVE_UNCACHED").as_deref() != Ok("1"),
            cost_model: None,
        })
        .expect("tune");
    let best = reply.best.expect("a legal mapping exists");
    println!(
        "winner: {} (score {:.3e}, {} of {} candidates evaluated, cache {}, {:.1} ms server-side)",
        best.label, best.score, reply.evaluated, reply.offered, reply.cache, reply.wall_ms
    );

    // 4. Evaluate the winner's resolved mapping — the round trip any
    //    compiler pass would do with a mapping it got from elsewhere.
    let eval = client
        .evaluate(EvaluateRequest {
            graph,
            machine,
            mapping: best.resolved.clone(),
            deadline_ms: Some(5_000),
        })
        .expect("evaluate");
    assert!(eval.legal, "the tuned winner must be legal");
    let report = eval.report.expect("legal mappings have a cost");
    println!(
        "evaluated winner: {} cycles, {:.2} pJ",
        report.cycles,
        report.energy().raw() / 1e3
    );

    // 5. Live metrics from the server's registry.
    let stats = client.stats().expect("stats");
    println!(
        "server stats: {} tune / {} evaluate served, tune p99 {:.1} ms, queue peak {}/{}, cache hit rate {:.0}%",
        stats.tune.completed,
        stats.evaluate.completed,
        stats.tune.latency.p99_us / 1e3,
        stats.queue_peak,
        stats.queue_capacity,
        stats.cache_hit_rate() * 100.0
    );

    // 6. Shut down whatever we own (and the external daemon if asked).
    if std::env::var("FM_SERVE_SHUTDOWN").as_deref() == Ok("1") {
        client.shutdown().expect("shutdown request");
        println!("sent shutdown; server is draining");
    }
    if let Some(h) = handle {
        let final_stats = h.shutdown_and_join();
        println!(
            "in-process server drained: {} requests total",
            final_stats.work_received()
        );
    }
}
