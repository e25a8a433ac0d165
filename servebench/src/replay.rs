//! In-process re-execution of a served request, one span per call into
//! a layer's public functions, in the order the server runs them. The
//! server's own code is not instrumented; these spans time the same
//! calls from outside, on the same inputs.

use std::time::{Duration, Instant};

use fm_autotune::{fingerprint_with_model, Refinement, TunedMapping, Tuner, TuningCache};
use fm_core::cost::Evaluator;
use fm_core::dataflow::DataflowGraph;
use fm_core::legality::check;
use fm_core::search::{assemble_outcome, CandidateEval, FigureOfMerit, MappingCandidate};
use fm_core::value::Value;
use fm_core::{BatchEvaluator, EvalScratch, MachineConfig, ResolvedMapping};
use fm_costmodel::CostModelKind;
use fm_grid::{SimConfig, Simulator};
use fm_serve::protocol::{
    decode_request_any, decode_response_any, encode_request_binary, encode_response_binary,
};
use fm_serve::{Request, Response, TuneRequest};
use fm_workspan::ThreadPool;

use crate::gen;
use crate::harness::RoundAcc;
use crate::trace::Tracer;

/// One generated `Tune` problem: the wire request and the in-process
/// form of the same inputs.
pub struct TuneProblem {
    pub graph: DataflowGraph,
    pub machine: MachineConfig,
    pub fom: FigureOfMerit,
    pub candidates: Vec<MappingCandidate>,
    pub refinement: Option<Refinement>,
    pub request: Request,
}

impl TuneProblem {
    pub fn new(
        graph: DataflowGraph,
        machine: MachineConfig,
        fom: FigureOfMerit,
        candidates: Vec<MappingCandidate>,
        refinement: Option<Refinement>,
        use_cache: bool,
    ) -> TuneProblem {
        let request = Request::Tune(TuneRequest {
            graph: graph.clone(),
            machine: machine.clone(),
            fom,
            candidates: gen::wire(&candidates),
            deadline_ms: None,
            max_candidates: None,
            convergence_window: None,
            refinement,
            use_cache,
            cost_model: None,
        });
        TuneProblem {
            graph,
            machine,
            fom,
            candidates,
            refinement,
            request,
        }
    }

    /// The in-process reference: a serial, uncached `Tuner::tune` of the
    /// same problem under the same refinement. Returns the winner and
    /// its index in the candidate list.
    pub fn reference(&self) -> (Option<TunedMapping>, Option<usize>) {
        let ev = Evaluator::new(&self.graph, &self.machine);
        let mut tuner = Tuner::new(&ev, &self.graph, &self.machine, self.fom);
        if let Some(r) = self.refinement {
            tuner = tuner.with_refinement(r);
        }
        let report = tuner.tune(&self.candidates);
        (report.best, report.best_index)
    }

    /// Index of the candidate a served winner came from, by label (a
    /// refined winner carries a ` +anneal#k` suffix).
    pub fn index_of(&self, label: &str) -> Option<usize> {
        let base = label.split(" +anneal#").next().unwrap_or(label);
        self.candidates.iter().position(|c| c.label == base)
    }
}

/// Codec spans for a request: client encode, server decode. Returns the
/// frame's payload size and the time both spans took, ms.
fn request_codec(t: &mut Tracer, id: u64, request: &Request) -> (usize, f64) {
    let a = t.begin("protocol.req_encode", id);
    let payload = encode_request_binary(id, request);
    t.end(a);
    let b = t.begin("protocol.req_decode", id);
    let decoded = decode_request_any(&payload).expect("own encoding decodes");
    t.end(b);
    std::hint::black_box(decoded);
    (payload.len(), t.duration_ms(a) + t.duration_ms(b))
}

/// Codec spans for a response: server encode, client decode.
fn response_codec(t: &mut Tracer, id: u64, response: &Response) -> (usize, f64) {
    let a = t.begin("protocol.resp_encode", id);
    let payload = encode_response_binary(id, response);
    t.end(a);
    let b = t.begin("protocol.resp_decode", id);
    let decoded = decode_response_any(&payload).expect("own encoding decodes");
    t.end(b);
    std::hint::black_box(decoded);
    (payload.len(), t.duration_ms(a) + t.duration_ms(b))
}

/// Record one served request's client round trip, then replay it:
/// request codec, `body` (the server's work), response codec. Adds the
/// request to the round's totals; with `wall_ms` (the server-reported
/// execution time) also to its residual.
#[allow(clippy::too_many_arguments)]
pub fn traced(
    t: &mut Tracer,
    acc: &mut RoundAcc,
    id: u64,
    names: (&'static str, &'static str),
    start: Instant,
    rtt: Duration,
    exchange: (&Request, &Response),
    wall_ms: Option<f64>,
    body: impl FnOnce(&mut Tracer),
) {
    t.record(names.0, id, start, start + rtt);
    let root = t.begin(names.1, id);
    let (req_bytes, req_ms) = request_codec(t, id, exchange.0);
    body(t);
    let (resp_bytes, resp_ms) = response_codec(t, id, exchange.1);
    t.end(root);
    let rtt_ms = rtt.as_secs_f64() * 1e3;
    acc.rtt_ms += rtt_ms;
    acc.req_bytes += req_bytes;
    acc.resp_bytes += resp_bytes;
    if let Some(wall) = wall_ms {
        *acc.residual_ms.get_or_insert(0.0) += rtt_ms - wall - req_ms - resp_ms;
    }
}

/// Buffers the tune replay keeps across requests, as a server worker
/// keeps its thread-local scratch arena.
pub struct TuneScratch {
    eval: EvalScratch,
    place: Vec<(i64, i64)>,
    time: Vec<i64>,
    pool: ThreadPool,
}

impl TuneScratch {
    pub fn new() -> TuneScratch {
        TuneScratch {
            eval: EvalScratch::new(),
            place: Vec::new(),
            time: Vec::new(),
            // The server's tuner pool size: refinement chains run on it.
            pool: ThreadPool::with_threads(2),
        }
    }
}

/// What a replayed tune did, for the per-request counts.
#[derive(Default)]
pub struct TuneCounts {
    pub evaluated: u64,
    pub legal: u64,
    pub moves: u64,
    pub refined: bool,
    pub improved: bool,
    pub cache_hit: bool,
    pub best: Option<(String, u64)>,
}

/// Re-execute `exec_tune` + `Tuner::tune` for a problem: cache probe
/// (when `cache` is given), flat context, per-candidate resolve and
/// evaluation, refinement and ranking. Candidates are evaluated
/// serially here; the server spreads them over its tuner pool.
pub fn tune(
    t: &mut Tracer,
    id: u64,
    p: &TuneProblem,
    cache: Option<&TuningCache>,
    s: &mut TuneScratch,
) -> TuneCounts {
    let mut counts = TuneCounts::default();
    let server = t.begin("server.tune", id);
    let ev = Evaluator::new(&p.graph, &p.machine).with_cost_model(CostModelKind::Analytic);
    if let Some(cache) = cache {
        let fp = t.time("cache.fingerprint", id, || {
            fingerprint_with_model(
                &p.graph,
                &p.machine,
                p.fom,
                &p.candidates,
                p.refinement,
                ev.cost_model(),
            )
        });
        let entry = t.time("cache.load", id, || cache.load(fp));
        if let Some(entry) = entry {
            let rm = &entry.best.resolved;
            let replayable = t.time("cache.replay_check", id, || {
                rm.place.len() == p.graph.len()
                    && rm.time.len() == p.graph.len()
                    && check(&p.graph, rm, &p.machine).is_legal()
            });
            if replayable {
                t.end(server);
                counts.cache_hit = true;
                counts.best = Some((entry.best.label.clone(), entry.best.score.to_bits()));
                return counts;
            }
        }
    }
    let batch = t.time("flat.context", id, || {
        BatchEvaluator::new(&ev, &p.graph, &p.machine, p.fom)
    });
    let mut evals = Vec::with_capacity(p.candidates.len());
    let mut best: Option<(usize, f64)> = None;
    for (i, c) in p.candidates.iter().enumerate() {
        let _ = t.time("mapping.resolve", id, || {
            c.mapping
                .resolve_into(&p.graph, &p.machine, &mut s.place, &mut s.time)
        });
        let eval = t.time("flat.eval", id, || {
            batch.evaluate_candidate_in(c, &mut s.eval)
        });
        if let CandidateEval::Legal { score, .. } = &eval {
            counts.legal += 1;
            if best.is_none_or(|(_, b)| *score < b) {
                best = Some((i, *score));
            }
        }
        evals.push(eval);
    }
    counts.evaluated = evals.len() as u64;
    let mut winner = best.map(|(i, _)| {
        let CandidateEval::Legal {
            resolved,
            report,
            score,
        } = evals[i].clone()
        else {
            unreachable!("best index points at a legal eval")
        };
        TunedMapping {
            label: p.candidates[i].label.clone(),
            resolved,
            report,
            score,
        }
    });
    if let Some(w) = winner.as_mut() {
        let mut tuner = Tuner::new(&ev, &p.graph, &p.machine, p.fom).with_pool(&s.pool);
        if let Some(r) = p.refinement {
            tuner = tuner.with_refinement(r);
            counts.refined = true;
            counts.moves = r.chains as u64 * u64::from(r.iters);
        }
        let before = w.score;
        t.time("anneal.refine", id, || tuner.refine_winner(w));
        counts.improved = w.score < before;
        counts.best = Some((w.label.clone(), w.score.to_bits()));
    }
    let outcome = t.time("search.rank", id, || assemble_outcome(&p.candidates, evals));
    std::hint::black_box(outcome);
    t.end(server);
    counts
}

/// Re-execute `exec_simulate`: legality, the analytic prediction and the
/// cycle-level run with contention.
pub fn simulate(
    t: &mut Tracer,
    id: u64,
    graph: &DataflowGraph,
    machine: &MachineConfig,
    mapping: &ResolvedMapping,
    inputs: &[Vec<Value>],
) {
    let server = t.begin("server.simulate", id);
    let legal = t.time("legality.check", id, || {
        check(graph, mapping, machine).is_legal()
    });
    assert!(legal, "a served winner is legal");
    let predicted = t.time("grid.predict", id, || {
        Evaluator::new(graph, machine).evaluate(mapping)
    });
    let sim = Simulator::new(machine.clone()).with_config(SimConfig {
        contention: true,
        ..SimConfig::default()
    });
    let result = t.time("grid.sim", id, || sim.run(graph, mapping, inputs, &[]));
    std::hint::black_box((predicted, result.expect("a served simulation succeeds")));
    t.end(server);
}
