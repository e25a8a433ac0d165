//! The streamed codecs checked against tree-based reference encoders.
//!
//! The reference encoders are the codecs' previous implementation:
//! build the value tree with `to_json`, then walk it. They stay here as
//! oracles only. The property test drives every request and response
//! variant, with NaN, ±inf and −0.0 among the floats, and checks that
//! the streamed binary bytes and JSON text equal the oracles' and that
//! decoding the streamed bytes gives the value back, floats by bits.

use std::io::{self, Write};

use proptest::prelude::*;
use serde::Json;

use fm_autotune::{Refinement, TunedMapping};
use fm_core::affine::IdxExpr;
use fm_core::cost::Evaluator;
use fm_core::dataflow::CExpr;
use fm_core::mapping::{AffineMap, Mapping, PlaceExpr};
use fm_core::mutate::GraphEdit;

use super::*;

// ---- the tree-based reference encoders ------------------------------

pub(super) fn put_varint(mut n: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (n & 0x7f) as u8;
        n >>= 7;
        if n == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(n: i64) -> u64 {
    ((n << 1) ^ (n >> 63)) as u64
}

fn put_value(v: &Json, out: &mut Vec<u8>) {
    match v {
        Json::Null => out.push(0x00),
        Json::Bool(false) => out.push(0x01),
        Json::Bool(true) => out.push(0x02),
        Json::I64(n) => {
            out.push(0x03);
            put_varint(zigzag(*n), out);
        }
        Json::U64(n) => {
            out.push(0x04);
            put_varint(*n, out);
        }
        Json::F64(f) => {
            out.push(0x05);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Json::Str(s) => {
            out.push(0x06);
            put_varint(s.len() as u64, out);
            out.extend_from_slice(s.as_bytes());
        }
        Json::Arr(items) => {
            out.push(0x07);
            put_varint(items.len() as u64, out);
            for item in items {
                put_value(item, out);
            }
        }
        Json::Obj(fields) => {
            out.push(0x08);
            put_varint(fields.len() as u64, out);
            for (k, val) in fields {
                put_varint(k.len() as u64, out);
                out.extend_from_slice(k.as_bytes());
                put_value(val, out);
            }
        }
    }
}

fn oracle_binary<T: Serialize>(corr: u64, v: &T) -> Vec<u8> {
    let mut out = vec![BINARY_MAGIC, PROTOCOL_BINARY_VERSION];
    out.extend_from_slice(&corr.to_be_bytes());
    put_value(&v.to_json(), &mut out);
    out
}

fn write_json<W: Write>(
    v: &Json,
    out: &mut W,
    indent: Option<usize>,
    depth: usize,
) -> io::Result<()> {
    match v {
        Json::Null => out.write_all(b"null"),
        Json::Bool(true) => out.write_all(b"true"),
        Json::Bool(false) => out.write_all(b"false"),
        Json::I64(n) => write!(out, "{n}"),
        Json::U64(n) => write!(out, "{n}"),
        Json::F64(f) => write_f64(*f, out),
        Json::Str(s) => write_escaped(s, out),
        Json::Arr(items) => {
            if items.is_empty() {
                return out.write_all(b"[]");
            }
            out.write_all(b"[")?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_all(b",")?;
                }
                newline_indent(out, indent, depth + 1)?;
                write_json(item, out, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth)?;
            out.write_all(b"]")
        }
        Json::Obj(fields) => {
            if fields.is_empty() {
                return out.write_all(b"{}");
            }
            out.write_all(b"{")?;
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.write_all(b",")?;
                }
                newline_indent(out, indent, depth + 1)?;
                write_escaped(k, out)?;
                out.write_all(if indent.is_some() { b": " } else { b":" })?;
                write_json(val, out, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth)?;
            out.write_all(b"}")
        }
    }
}

fn newline_indent<W: Write>(out: &mut W, indent: Option<usize>, depth: usize) -> io::Result<()> {
    match indent {
        Some(step) => write!(out, "\n{:width$}", "", width = depth * step),
        None => Ok(()),
    }
}

fn write_f64<W: Write>(f: f64, out: &mut W) -> io::Result<()> {
    if !f.is_finite() {
        return out.write_all(b"null");
    }
    write!(out, "{f}")?;
    if f.fract() == 0.0 {
        out.write_all(b".0")?;
    }
    Ok(())
}

fn write_escaped<W: Write>(s: &str, out: &mut W) -> io::Result<()> {
    out.write_all(b"\"")?;
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x08 => b"\\b",
            0x0C => b"\\f",
            b if b < 0x20 => {
                out.write_all(&bytes[run..i])?;
                write!(out, "\\u{b:04x}")?;
                run = i + 1;
                continue;
            }
            _ => continue,
        };
        out.write_all(&bytes[run..i])?;
        out.write_all(escape)?;
        run = i + 1;
    }
    out.write_all(&bytes[run..])?;
    out.write_all(b"\"")
}

fn oracle_text<T: Serialize>(v: &T, indent: Option<usize>) -> String {
    let mut out = Vec::new();
    write_json(&v.to_json(), &mut out, indent, 0).unwrap();
    String::from_utf8(out).unwrap()
}

// ---- generators -----------------------------------------------------

/// A float from a selector and random bits: the special values first,
/// then arbitrary bit patterns (NaN payloads and subnormals included).
fn float(select: u8, bits: u64) -> f64 {
    match select % 8 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 1e21,
        5 => 3.0,
        _ => f64::from_bits(bits),
    }
}

/// `n` floats drawn from one selector and one bit pattern.
fn floats(select: u8, bits: u64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            float(
                select.wrapping_add(i as u8),
                bits.rotate_left(13 * i as u32),
            )
        })
        .collect()
}

const AWKWARD: &str = "quote\" back\\ tab\t nl\n ctl\u{1} é 😀";

fn graph(nodes: usize, xs: &[f64]) -> DataflowGraph {
    let mut g = DataflowGraph::new(AWKWARD, 32);
    for i in 0..nodes {
        let x = xs[i % xs.len()];
        let expr = if i % 3 == 2 {
            CExpr::Neg(Box::new(CExpr::konst(Value::real(x)).add(CExpr::dep(0))))
        } else {
            CExpr::konst(Value { re: x, im: -x })
        };
        let deps = if i % 3 == 2 {
            vec![i as u32 - 1]
        } else {
            vec![]
        };
        g.add_node(expr, deps, vec![i as i64, -(i as i64)]);
    }
    g
}

fn machine(cols: u32, xs: &[f64]) -> MachineConfig {
    let mut m = MachineConfig::linear(cols);
    m.tech.add_energy_fj_per_bit = xs[0];
    m.tech.offchip_latency_ps = xs[1];
    m
}

fn candidates(n: usize) -> Vec<WireCandidate> {
    (0..n)
        .map(|i| WireCandidate {
            label: format!("cand-{i}"),
            mapping: if i % 2 == 0 {
                Mapping::Affine(AffineMap {
                    place: PlaceExpr::row0(IdxExpr::i()),
                    time: IdxExpr::c(i as i64 - 1),
                })
            } else {
                Mapping::Table(ResolvedMapping {
                    place: vec![(i as i64, 0); 3],
                    time: vec![0, 1, i64::MIN],
                })
            },
        })
        .collect()
}

fn requests(corr: u64, nodes: usize, cols: u32, xs: &[f64], flag: bool) -> Vec<Request> {
    let g = graph(nodes, xs);
    let m = machine(cols, xs);
    let mapping = Mapping::serial(&g).resolve(&g, &m).unwrap();
    let some = |n: u64| flag.then_some(n);
    vec![
        Request::Hello(HelloRequest {
            max_version: corr as u8,
            pipeline: flag,
        }),
        Request::Ping,
        Request::Tune(TuneRequest {
            graph: g.clone(),
            machine: m.clone(),
            fom: FigureOfMerit::Edp,
            candidates: candidates(nodes % 4),
            deadline_ms: some(corr),
            max_candidates: some(u64::MAX),
            convergence_window: some(0),
            refinement: flag.then_some(Refinement {
                chains: 2,
                iters: 3000,
                seed: corr,
            }),
            use_cache: flag,
            cost_model: flag.then(|| AWKWARD.to_string()),
        }),
        Request::TuneShard(TuneShardRequest {
            graph: g.clone(),
            machine: m.clone(),
            fom: FigureOfMerit::Footprint,
            candidates: candidates(2),
            start_index: corr,
            epoch: u64::MAX - corr,
            deadline_ms: None,
            stream_every: some(16),
            cost_model: None,
        }),
        Request::Evaluate(EvaluateRequest {
            graph: g.clone(),
            machine: m.clone(),
            mapping: mapping.clone(),
            deadline_ms: some(7),
        }),
        Request::Simulate(SimulateRequest {
            graph: g.clone(),
            machine: m.clone(),
            mapping,
            inputs: vec![xs.iter().map(|&x| Value::real(x)).collect(), vec![]],
            contention: flag,
            deadline_ms: None,
        }),
        Request::SessionOpen(SessionOpenRequest {
            graph: g,
            machine: m,
            fom: FigureOfMerit::Time,
            candidates: candidates(3),
            max_candidates: None,
            convergence_window: some(8),
            cost_model: Some("roofline".to_string()),
        }),
        Request::SessionEdit(SessionEditRequest::seal(
            corr,
            corr >> 3,
            vec![
                GraphEdit::AddNode {
                    expr: CExpr::konst(Value::real(xs[2])),
                    deps: vec![],
                    index: vec![-1],
                    output: flag,
                },
                GraphEdit::RemoveNode { id: 0 },
                GraphEdit::RetargetEdge {
                    node: 1,
                    slot: 0,
                    new_dep: 2,
                },
                GraphEdit::ResizeTile { tile_bits: corr },
            ],
        )),
        Request::SessionTune(SessionTuneRequest {
            session_id: corr,
            deadline_ms: some(1),
            cost_model: None,
        }),
        Request::SessionClose(SessionCloseRequest { session_id: corr }),
        Request::ShardJoin(ShardJoinRequest {
            addr: "127.0.0.1:9".to_string(),
        }),
        Request::ShardLeave(ShardLeaveRequest {
            addr: AWKWARD.to_string(),
        }),
        Request::Stats,
        Request::Shutdown,
    ]
}

fn responses(corr: u64, nodes: usize, cols: u32, xs: &[f64], flag: bool) -> Vec<Response> {
    // A real cost report, evaluated on finite machine parameters, with
    // the drawn floats patched in afterwards.
    let g = graph(nodes, xs);
    let m = MachineConfig::linear(cols);
    let resolved = Mapping::serial(&g).resolve(&g, &m).unwrap();
    let mut report = Evaluator::new(&g, &m).evaluate(&resolved);
    report.utilization = xs[3];
    report.name = AWKWARD.to_string();
    let tuned = TuneReply {
        best: flag.then(|| TunedMapping {
            label: "best".to_string(),
            resolved: resolved.clone(),
            report: report.clone(),
            score: xs[0],
        }),
        offered: corr,
        evaluated: corr / 2,
        pruned: u64::MAX,
        cache: "miss".to_string(),
        fell_back: flag,
        cancelled: !flag,
        wall_ms: xs[1],
    };
    let best = ShardBest {
        index: corr,
        label: AWKWARD.to_string(),
        score: xs[2],
        resolved,
        report: report.clone(),
    };
    vec![
        Response::HelloAck(HelloAckReply {
            version: 1,
            pipeline: flag,
        }),
        Response::Pong,
        Response::Tuned(tuned.clone()),
        Response::TuneSharded(TuneShardReply::seal(
            corr,
            TuneShardBody {
                start_index: 0,
                count: 3,
                evaluated: 3,
                cancelled: flag,
                best: Some(best.clone()),
            },
        )),
        Response::TuneShardPart(TuneShardPart::seal(
            corr,
            TuneShardPartBody {
                start_index: 1,
                count: 2,
                best: flag.then_some(best),
            },
        )),
        Response::Evaluated(EvaluateReply {
            legal: flag,
            violations: corr,
            report: Some(report),
        }),
        Response::Simulated(SimulateReply {
            cycles_scheduled: -(corr as i64),
            cycles_actual: i64::MAX,
            slowdown: xs[3],
            stalled_elements: 0,
            total_stall_cycles: corr,
            messages_delivered: 1,
            link_wait_cycles: 2,
            predicted_energy_fj: xs[0],
            simulated_energy_fj: xs[1],
        }),
        Response::SessionOpened(SessionOpenedReply {
            session_id: corr,
            epoch: 0,
            candidates: 9,
        }),
        Response::SessionEdited(SessionEditedReply {
            session_id: corr,
            epoch: 1,
            applied: 4,
            cone: u64::MAX,
        }),
        Response::SessionTuned(Box::new(SessionTunedReply {
            session_id: corr,
            epoch: 2,
            warm: flag,
            rebuilds: 0,
            reply: tuned,
        })),
        Response::SessionClosed(SessionClosedReply {
            session_id: corr,
            epoch: 3,
            edits_applied: 4,
            tunes: 5,
        }),
        Response::NoSuchSession(NoSuchSessionReply { session_id: corr }),
        Response::Membership(MembershipReply {
            epoch: corr,
            members: vec!["a:1".to_string(), AWKWARD.to_string()],
            changed: flag,
        }),
        Response::Stats(Box::new(crate::metrics::Metrics::default().snapshot(nodes))),
        Response::Busy(BusyReply {
            queue_depth: corr,
            queue_capacity: 64,
        }),
        Response::ShuttingDown,
        Response::Failed(FailReply {
            kind: "protocol".to_string(),
            error: AWKWARD.to_string(),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streamed_codecs_match_the_tree_oracles(
        corr in any::<u64>(),
        nodes in 1usize..7,
        cols in 1u32..6,
        select in any::<u8>(),
        bits in any::<u64>(),
        flag in any::<bool>(),
    ) {
        let xs = floats(select, bits, 4);
        for req in requests(corr, nodes, cols, &xs, flag) {
            let streamed = encode_request_binary(corr, &req);
            prop_assert_eq!(&streamed, &oracle_binary(corr, &req), "{} binary", req.endpoint());
            prop_assert_eq!(serde_json::to_string(&req).unwrap(), oracle_text(&req, None));
            prop_assert_eq!(serde_json::to_string_pretty(&req).unwrap(), oracle_text(&req, Some(2)));
            let (got_corr, back, _) = decode_request_any(&streamed).unwrap();
            prop_assert_eq!(got_corr, corr);
            prop_assert_eq!(encode_request_binary(corr, &back), streamed, "{} decode", req.endpoint());
        }
        for resp in responses(corr, nodes, cols, &xs, flag) {
            let streamed = encode_response_binary(corr, &resp);
            prop_assert_eq!(&streamed, &oracle_binary(corr, &resp), "{} binary", resp.kind());
            prop_assert_eq!(serde_json::to_string(&resp).unwrap(), oracle_text(&resp, None));
            prop_assert_eq!(serde_json::to_string_pretty(&resp).unwrap(), oracle_text(&resp, Some(2)));
            let (got_corr, back, _) = decode_response_any(&streamed).unwrap();
            prop_assert_eq!(got_corr, corr);
            prop_assert_eq!(encode_response_binary(corr, &back), streamed, "{} decode", resp.kind());
        }
    }
}
