//! End-to-end tests: a real server on an ephemeral port, real TCP
//! clients, concurrency, backpressure, deadlines, and drain.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fm_autotune::Tuner;
use fm_core::affine::IdxExpr;
use fm_core::cost::Evaluator;
use fm_core::dataflow::{CExpr, DataflowGraph};
use fm_core::machine::MachineConfig;
use fm_core::mapping::ResolvedMapping;
use fm_core::mapping::{AffineMap, Mapping, PlaceExpr};
use fm_core::search::{FigureOfMerit, MappingCandidate};
use fm_core::value::Value;
use fm_serve::client::{Client, ClientError};
use fm_serve::protocol::{
    EvaluateRequest, SessionOpenRequest, SimulateRequest, TuneRequest, TuneShardRequest,
    WireCandidate,
};
use fm_serve::server::{Server, ServerConfig};

fn wide(n: usize) -> DataflowGraph {
    let mut g = DataflowGraph::new("serve-wide", 32);
    for i in 0..n {
        g.add_node(CExpr::konst(Value::real(i as f64)), vec![], vec![i as i64]);
    }
    g
}

/// `n` affine candidates folding the iteration space onto `w = 1..cols`
/// processing elements: place `i mod w`, time `i div w`. All legal on a
/// linear machine with `cols` columns, with genuinely different
/// time/energy trade-offs, so tunes have real ranking work to do.
fn affine_candidates(n: usize, cols: u32) -> Vec<WireCandidate> {
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

fn tune_request(
    graph: &DataflowGraph,
    machine: &MachineConfig,
    ncand: usize,
    deadline_ms: Option<u64>,
) -> TuneRequest {
    TuneRequest {
        graph: graph.clone(),
        machine: machine.clone(),
        fom: FigureOfMerit::Time,
        candidates: affine_candidates(ncand, machine.cols),
        deadline_ms,
        max_candidates: None,
        convergence_window: None,
        refinement: None,
        use_cache: false,
        cost_model: None,
    }
}

fn start(config: ServerConfig) -> fm_serve::server::ServerHandle {
    Server::start("127.0.0.1:0", config).expect("bind ephemeral port")
}

#[test]
fn tune_through_server_is_bit_identical_to_direct_tuner() {
    let graph = wide(24);
    let machine = MachineConfig::linear(8);
    let handle = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let reply = client
        .tune(tune_request(&graph, &machine, 40, None))
        .unwrap();
    let served = reply.best.expect("server found a winner");
    assert!(!reply.fell_back);
    assert!(!reply.cancelled);
    assert_eq!(reply.evaluated, 40);

    // The reference run: the serial tuner, no server, same defaults.
    // Ordered reduction makes the parallel server-side search land on
    // the identical winner, score bits included.
    let evaluator = Evaluator::new(&graph, &machine);
    let candidates: Vec<MappingCandidate> = affine_candidates(40, machine.cols)
        .into_iter()
        .map(|c| MappingCandidate::new(c.label, c.mapping))
        .collect();
    let direct = Tuner::new(&evaluator, &graph, &machine, FigureOfMerit::Time).tune(&candidates);
    let expected = direct.best.expect("direct tuner found a winner");

    assert_eq!(served.label, expected.label);
    assert_eq!(served.score.to_bits(), expected.score.to_bits());
    assert_eq!(served.resolved, expected.resolved);

    handle.shutdown_and_join();
}

#[test]
fn concurrent_mixed_workload_reconciles_with_server_stats() {
    const THREADS: usize = 6;
    const TUNES: u64 = 2;
    const EVALS: u64 = 3;

    let graph = wide(16);
    let machine = MachineConfig::linear(8);
    let handle = start(ServerConfig::default());
    let addr = handle.local_addr();
    let resolved = Mapping::serial(&graph).resolve(&graph, &machine).unwrap();

    let ok = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..THREADS)
        .map(|_| {
            let graph = graph.clone();
            let machine = machine.clone();
            let resolved = resolved.clone();
            let ok = Arc::clone(&ok);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..TUNES {
                    let reply = client
                        .tune(tune_request(&graph, &machine, 10, None))
                        .unwrap();
                    assert!(reply.best.is_some());
                }
                for _ in 0..EVALS {
                    let reply = client
                        .evaluate(EvaluateRequest {
                            graph: graph.clone(),
                            machine: machine.clone(),
                            mapping: resolved.clone(),
                            deadline_ms: None,
                        })
                        .unwrap();
                    assert!(reply.legal);
                    assert!(reply.report.is_some());
                }
                // Stats answers even while work is in flight.
                let stats = client.stats().unwrap();
                assert!(stats.queue_depth <= stats.queue_capacity);
                ok.fetch_add(1, Ordering::Relaxed);
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(ok.load(Ordering::Relaxed), THREADS as u64);

    // Server-side counters must reconcile exactly with what the
    // clients sent: nothing lost, nothing double-counted.
    let stats = handle.stats();
    assert_eq!(stats.tune.received, THREADS as u64 * TUNES);
    assert_eq!(stats.tune.completed, THREADS as u64 * TUNES);
    assert_eq!(stats.evaluate.received, THREADS as u64 * EVALS);
    assert_eq!(stats.evaluate.completed, THREADS as u64 * EVALS);
    assert_eq!(stats.stats.received, THREADS as u64);
    assert_eq!(stats.busy_rejections, 0);
    assert_eq!(stats.tune.failed + stats.evaluate.failed, 0);
    assert!(stats.tune.latency.p50_us > 0.0);
    assert!(stats.tune.latency.p99_us >= stats.tune.latency.p50_us);

    // Drain must leave nothing behind.
    let last = handle.shutdown_and_join();
    assert_eq!(last.queue_depth, 0);
    assert_eq!(last.tune.completed, THREADS as u64 * TUNES);
}

#[test]
fn saturation_yields_busy_and_the_queue_stays_bounded() {
    const CLIENTS: usize = 8;
    let graph = wide(48);
    let machine = MachineConfig::linear(8);
    // One worker, a one-slot queue, and slow requests: with 8 clients
    // firing at once, most must be refused — and refused *immediately*
    // (bounded memory), not buffered.
    let handle = start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();

    let busy = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(std::sync::Barrier::new(CLIENTS));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let graph = graph.clone();
            let machine = machine.clone();
            let busy = Arc::clone(&busy);
            let served = Arc::clone(&served);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                match client.tune(tune_request(&graph, &machine, 3000, None)) {
                    Ok(reply) => {
                        assert!(reply.best.is_some());
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(ClientError::Busy(b)) => {
                        assert_eq!(b.queue_capacity, 1);
                        busy.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(other) => panic!("unexpected failure: {other}"),
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let busy = busy.load(Ordering::Relaxed);
    let served = served.load(Ordering::Relaxed);
    assert_eq!(busy + served, CLIENTS as u64);
    assert!(served >= 1, "at least the first request is served");
    assert!(
        busy >= 1,
        "8 simultaneous heavy tunes on a 1-slot queue must refuse some"
    );

    let stats = handle.shutdown_and_join();
    assert_eq!(stats.busy_rejections, busy);
    assert!(stats.queue_peak <= 1, "queue never exceeds capacity");
    assert_eq!(stats.tune.received, CLIENTS as u64);
    assert_eq!(stats.tune.completed, served);
}

#[test]
fn expired_deadline_fails_evaluate_and_bounds_tune() {
    let graph = wide(32);
    let machine = MachineConfig::linear(8);
    let handle = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // An already-expired Evaluate is refused with a typed failure.
    match client.evaluate(EvaluateRequest {
        graph: graph.clone(),
        machine: machine.clone(),
        mapping: Mapping::serial(&graph).resolve(&graph, &machine).unwrap(),
        deadline_ms: Some(0),
    }) {
        Err(ClientError::Failed(f)) => assert_eq!(f.kind, "deadline"),
        other => panic!("expected a deadline failure, got {other:?}"),
    }

    // A Tune with a tiny deadline still answers — with a partial
    // search, not an error: best-effort is the endpoint's contract.
    let reply = client
        .tune(tune_request(&graph, &machine, 5000, Some(1)))
        .unwrap();
    assert!(
        reply.evaluated < reply.offered || reply.fell_back,
        "a 1 ms deadline cannot evaluate all 5000 candidates (evaluated {} of {})",
        reply.evaluated,
        reply.offered
    );

    let stats = handle.shutdown_and_join();
    assert!(stats.deadline_expired >= 1);
}

#[test]
fn shutdown_drains_and_refuses_late_work() {
    let graph = wide(16);
    let machine = MachineConfig::linear(8);
    let handle = start(ServerConfig::default());
    let addr = handle.local_addr();

    let mut working = Client::connect(addr).unwrap();
    let reply = working
        .tune(tune_request(&graph, &machine, 20, None))
        .unwrap();
    assert!(reply.best.is_some());

    // A second, already-connected client triggers the drain.
    let mut trigger = Client::connect(addr).unwrap();
    trigger.shutdown().unwrap();

    // Work submitted after the drain began is refused (either with an
    // explicit ShuttingDown or because the connection already closed).
    match working.tune(tune_request(&graph, &machine, 20, None)) {
        Err(ClientError::ShuttingDown) | Err(ClientError::Wire(_)) => {}
        Ok(_) => panic!("work accepted after shutdown"),
        Err(other) => panic!("unexpected error: {other}"),
    }

    // join() returns: every thread exited, the queue is empty, and the
    // pre-shutdown request was fully served.
    let stats = handle.join();
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.tune.completed, 1);
}

#[test]
fn unknown_cost_model_is_a_typed_refusal_on_both_framings() {
    let graph = wide(6);
    let machine = MachineConfig::linear(4);
    let handle = start(ServerConfig::default());

    let json = Client::connect_json(handle.local_addr()).unwrap();
    let binary = Client::connect(handle.local_addr()).unwrap();
    assert!(binary.is_binary(), "new server must negotiate binary");
    for mut client in [json, binary] {
        let mut req = tune_request(&graph, &machine, 4, None);
        req.cost_model = Some("quantum".to_string());
        let err = client.tune(req).expect_err("unknown model must refuse");
        assert!(err.is_unknown_cost_model(), "got {err}");
        match err {
            ClientError::UnknownCostModel(f) => {
                assert_eq!(f.kind, "cost-model");
                assert!(
                    f.error.contains("quantum"),
                    "error names the model: {}",
                    f.error
                );
                assert!(
                    f.error.contains("roofline"),
                    "error lists the options: {}",
                    f.error
                );
            }
            other => panic!("expected UnknownCostModel, got {other}"),
        }
        // The refusal is a reply, not a protocol error: the connection
        // survives and the next request is served normally.
        client
            .ping()
            .expect("connection stays usable after refusal");
        let ok = client
            .tune(tune_request(&graph, &machine, 4, None))
            .unwrap();
        assert!(ok.best.is_some());
    }
    let stats = handle.shutdown_and_join();
    assert_eq!(stats.tune.failed, 2, "one typed failure per framing");
}

#[test]
fn oversized_grid_is_a_typed_refusal_on_both_framings() {
    // 60000 × 60000 PEs: evaluating even one node would allocate a
    // multi-gigabyte per-PE buffer, so admission must refuse it.
    let graph = wide(1);
    let machine = MachineConfig::n5(60_000, 60_000);
    assert!(machine.pe_count() > MachineConfig::MAX_PES);
    let mapping = ResolvedMapping {
        place: vec![(0, 0)],
        time: vec![0],
    };
    let handle = start(ServerConfig::default());

    let json = Client::connect_json(handle.local_addr()).unwrap();
    let binary = Client::connect(handle.local_addr()).unwrap();
    assert!(binary.is_binary(), "new server must negotiate binary");
    for mut client in [json, binary] {
        let refusals = [
            client
                .tune(tune_request(&graph, &machine, 2, None))
                .map(drop),
            client
                .tune_shard(TuneShardRequest {
                    graph: graph.clone(),
                    machine: machine.clone(),
                    fom: FigureOfMerit::Time,
                    candidates: affine_candidates(2, 2),
                    start_index: 0,
                    epoch: 1,
                    deadline_ms: None,
                    stream_every: None,
                    cost_model: None,
                })
                .map(drop),
            client
                .evaluate(EvaluateRequest {
                    graph: graph.clone(),
                    machine: machine.clone(),
                    mapping: mapping.clone(),
                    deadline_ms: None,
                })
                .map(drop),
            client
                .simulate(SimulateRequest {
                    graph: graph.clone(),
                    machine: machine.clone(),
                    mapping: mapping.clone(),
                    inputs: vec![],
                    contention: false,
                    deadline_ms: None,
                })
                .map(drop),
            client
                .session_open(SessionOpenRequest {
                    graph: graph.clone(),
                    machine: machine.clone(),
                    fom: FigureOfMerit::Time,
                    candidates: affine_candidates(2, 2),
                    max_candidates: None,
                    convergence_window: None,
                    cost_model: None,
                })
                .map(drop),
        ];
        for r in refusals {
            match r {
                Err(ClientError::Failed(f)) => {
                    assert_eq!(f.kind, "limit");
                    assert!(
                        f.error.contains("60000x60000"),
                        "names the grid: {}",
                        f.error
                    );
                }
                other => panic!("expected a limit refusal, got {other:?}"),
            }
        }
        // The refusal is a reply: the same server answers Stats next.
        let stats = client.stats().expect("stats after refusal");
        assert_eq!(stats.queue_depth, 0);
    }
    let stats = handle.shutdown_and_join();
    assert_eq!(stats.tune.failed, 2, "one refusal per framing");
    assert_eq!(stats.session_open.failed, 2);
}

#[test]
fn named_backends_rank_like_their_direct_evaluators() {
    let graph = wide(24);
    let machine = MachineConfig::linear(8);
    let handle = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let candidates: Vec<MappingCandidate> = affine_candidates(40, machine.cols)
        .into_iter()
        .map(|c| MappingCandidate::new(c.label, c.mapping))
        .collect();
    for (name, kind) in [
        ("analytic", fm_costmodel::CostModelKind::Analytic),
        ("roofline", fm_costmodel::CostModelKind::Roofline),
        ("spatial", fm_costmodel::CostModelKind::Spatial),
    ] {
        let mut req = tune_request(&graph, &machine, 40, None);
        req.cost_model = Some(name.to_string());
        let served = client.tune(req).unwrap().best.expect("winner");

        let evaluator = Evaluator::new(&graph, &machine).with_cost_model(kind);
        let direct = Tuner::new(&evaluator, &graph, &machine, FigureOfMerit::Time)
            .tune(&candidates)
            .best
            .expect("direct winner");
        assert_eq!(served.label, direct.label, "winner under {name}");
        assert_eq!(
            served.score.to_bits(),
            direct.score.to_bits(),
            "score bits under {name}"
        );
    }

    // Every backend's winner passed through the roofline observatory.
    let stats = handle.shutdown_and_join();
    assert_eq!(stats.cost_models.len(), 3);
    for row in &stats.cost_models {
        assert_eq!(row.tunes, 1, "{} saw one tune", row.model);
        assert_eq!(
            row.compute_bound + row.onchip_bound + row.offchip_bound,
            1,
            "{} winner landed on exactly one roof",
            row.model
        );
    }
}
