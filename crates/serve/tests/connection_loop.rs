//! End-to-end tests for the one connection loop: JSON and negotiated
//! binary connections share the same reader/writer path, so
//! cancellation accounting, hostile-frame handling and reply order must
//! agree across both framings.

use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use fm_core::affine::IdxExpr;
use fm_core::dataflow::{CExpr, DataflowGraph};
use fm_core::machine::MachineConfig;
use fm_core::mapping::{AffineMap, Mapping, PlaceExpr};
use fm_core::search::FigureOfMerit;
use fm_core::value::Value;
use fm_serve::metrics::StatsReply;
use fm_serve::protocol::{
    decode_response_any, read_frame, read_response, write_frame, write_request, HelloRequest,
    Request, Response, TuneRequest, TuneShardRequest, WireCandidate, BINARY_MAGIC,
    DEFAULT_MAX_FRAME, PROTOCOL_BINARY_VERSION,
};
use fm_serve::server::{Server, ServerConfig, ServerHandle};
use fm_serve::Client;

fn wide(n: usize) -> DataflowGraph {
    let mut g = DataflowGraph::new("loop-wide", 32);
    for i in 0..n {
        g.add_node(CExpr::konst(Value::real(i as f64)), vec![], vec![i as i64]);
    }
    g
}

fn folds(n: usize, machine: &MachineConfig) -> Vec<WireCandidate> {
    (0..n as i64)
        .map(|i| {
            let w = i % machine.cols as i64 + 1;
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

fn tune(deadline_ms: Option<u64>) -> Request {
    let machine = MachineConfig::linear(8);
    Request::Tune(TuneRequest {
        graph: wide(48),
        candidates: folds(8, &machine),
        machine,
        fom: FigureOfMerit::Time,
        deadline_ms,
        max_candidates: None,
        convergence_window: None,
        refinement: None,
        use_cache: false,
        cost_model: None,
    })
}

/// Scripted straggle per `TuneShard` candidate on [`start`]'s server.
const STRAGGLE_MS: u64 = 10;

/// One worker, so a straggling `TuneShard` can hold it while other
/// requests wait in the queue.
fn start() -> ServerHandle {
    let config = ServerConfig {
        workers: 1,
        straggle_ms_per_candidate: Some(STRAGGLE_MS),
        ..ServerConfig::default()
    };
    Server::start("127.0.0.1:0", config).unwrap()
}

fn stats(addr: SocketAddr) -> StatsReply {
    Client::connect(addr).unwrap().stats().unwrap()
}

/// Occupy the single worker for about `ms` with a straggling
/// `TuneShard`: a request sent next is admitted but waits in the queue,
/// in flight with no reply written. Dropping the returned client
/// cancels the straggle.
fn occupy_worker(addr: SocketAddr, ms: u64) -> Client {
    let before = stats(addr).tune_shard.received;
    let machine = MachineConfig::linear(8);
    let mut client = Client::connect(addr).unwrap();
    let shard = TuneShardRequest {
        graph: wide(8),
        candidates: folds((ms / STRAGGLE_MS) as usize, &machine),
        machine,
        fom: FigureOfMerit::Time,
        start_index: 0,
        epoch: 1,
        deadline_ms: None,
        stream_every: None,
        cost_model: None,
    };
    client.send_request(&Request::TuneShard(shard)).unwrap();
    while stats(addr).tune_shard.received == before {
        thread::sleep(Duration::from_millis(1));
    }
    client
}

/// One rule on both framings: `cancelled` counts requests whose client
/// left before the reply was written. A Tune whose deadline passes
/// while it waits is not a cancellation: it counts in
/// `deadline_expired` and still gets its best-effort reply.
#[test]
fn deadline_bound_tune_counts_the_same_cancelled_on_both_framings() {
    let server = start();
    let addr = server.local_addr();
    let mut deltas = Vec::new();
    for mut client in [
        Client::connect_json(addr).unwrap(),
        Client::connect(addr).unwrap(),
    ] {
        let blocker = occupy_worker(addr, 200);
        let before = stats(addr);
        assert!(matches!(
            client.call(&tune(Some(30))),
            Ok(Response::Tuned(_))
        ));
        let after = stats(addr);
        assert_eq!(after.deadline_expired, before.deadline_expired + 1);
        deltas.push(after.cancelled - before.cancelled);
        drop(blocker);
    }
    assert_eq!(deltas[0], deltas[1], "JSON vs binary cancelled deltas");
    server.shutdown_and_join();
}

/// A JSON client that hangs up while its Tune is in flight (admitted,
/// queued behind the blocker, no reply yet) is seen by the reader's
/// EOF, which cancels the Tune.
#[test]
fn json_client_dropping_mid_tune_is_counted_cancelled() {
    let server = start();
    let addr = server.local_addr();
    let blocker = occupy_worker(addr, 10_000);
    let mut conn = TcpStream::connect(addr).unwrap();
    write_request(&mut conn, &tune(None)).unwrap();
    let t0 = Instant::now();
    while stats(addr).tune.received == 0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "tune never arrived");
        thread::sleep(Duration::from_millis(5));
    }
    drop(conn);
    let t0 = Instant::now();
    while stats(addr).cancelled == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "the dropped JSON client's tune was never cancelled"
        );
        thread::sleep(Duration::from_millis(10));
    }
    drop(blocker);
    server.shutdown_and_join();
}

/// Every hostile frame gets a typed protocol failure on both framings,
/// is counted once, and leaves the server answering fresh connections.
#[test]
fn hostile_frames_get_protocol_failures_on_both_framings() {
    const MAX_FRAME: usize = 1 << 16;
    let config = ServerConfig {
        max_frame: MAX_FRAME,
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    let mut garbage_json = Vec::new();
    write_frame(&mut garbage_json, b"{\"Tune\": [[[ not json").unwrap();
    // A binary envelope cut short inside its 10-byte header.
    let mut cut_binary = Vec::new();
    write_frame(
        &mut cut_binary,
        &[BINARY_MAGIC, PROTOCOL_BINARY_VERSION, 0, 0],
    )
    .unwrap();
    let oversized = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();

    for negotiate in [false, true] {
        for hostile in [&garbage_json, &cut_binary, &oversized] {
            let before = stats(addr).protocol_errors;
            let mut conn = TcpStream::connect(addr).unwrap();
            if negotiate {
                let hello = Request::Hello(HelloRequest {
                    max_version: PROTOCOL_BINARY_VERSION,
                    pipeline: true,
                });
                write_request(&mut conn, &hello).unwrap();
                let ack = read_response(&mut conn, DEFAULT_MAX_FRAME).unwrap();
                assert!(matches!(ack, Response::HelloAck(a) if a.pipeline));
            }
            std::io::Write::write_all(&mut conn, hostile).unwrap();
            let payload = read_frame(&mut conn, DEFAULT_MAX_FRAME).unwrap();
            match decode_response_any(&payload).unwrap().1 {
                Response::Failed(f) => assert_eq!(f.kind, "protocol"),
                other => panic!("expected a protocol failure, got {}", other.kind()),
            }
            assert_eq!(stats(addr).protocol_errors, before + 1);
        }
    }
    server.shutdown_and_join();
}

/// A JSON frame of 10 KB of `[` nests far past the parser's depth
/// bound. The connection's reader thread (default stack) refuses it
/// with a typed protocol failure instead of overflowing, and the server
/// keeps answering fresh connections.
#[test]
fn deeply_nested_json_frame_gets_a_protocol_failure() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut conn = TcpStream::connect(addr).unwrap();
    write_frame(&mut conn, "[".repeat(10_000).as_bytes()).unwrap();
    let payload = read_frame(&mut conn, DEFAULT_MAX_FRAME).unwrap();
    match decode_response_any(&payload).unwrap().1 {
        Response::Failed(f) => assert_eq!(f.kind, "protocol"),
        other => panic!("expected a protocol failure, got {}", other.kind()),
    }
    let mut fresh = Client::connect(addr).unwrap();
    assert!(matches!(fresh.call(&Request::Ping), Ok(Response::Pong)));
    server.shutdown_and_join();
}

/// A connection that never negotiated pipelining keeps request order:
/// a Ping written right behind a queued Tune is answered after it.
#[test]
fn json_replies_keep_request_order() {
    let server = start();
    let blocker = occupy_worker(server.local_addr(), 100);
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    write_request(&mut conn, &tune(None)).unwrap();
    write_request(&mut conn, &Request::Ping).unwrap();
    let first = read_response(&mut conn, DEFAULT_MAX_FRAME).unwrap();
    assert!(matches!(first, Response::Tuned(_)), "got {}", first.kind());
    let second = read_response(&mut conn, DEFAULT_MAX_FRAME).unwrap();
    assert!(matches!(second, Response::Pong), "got {}", second.kind());
    drop(blocker);
    server.shutdown_and_join();
}
