//! `search-wide` and `anneal-refine`: closed-loop cold `Tune`s over a
//! seeded problem pool, each connection cycling through its own share
//! of the pool (disjoint shares, so two connections never send the same
//! body at once and admission dedup never merges them).

use std::time::{Duration, Instant};

use fm_autotune::Refinement;
use fm_core::mapping::LinearOrder;
use fm_core::search::{FigureOfMerit, MappingCandidate};
use fm_core::MachineConfig;
use fm_kernels::editdist::{edit_recurrence, Scoring};
use fm_kernels::stencil::{blocked_mapping, stencil_recurrence};
use fm_serve::{Client, Response, ServerHandle};

use crate::gen::{self, Rng};
use crate::harness::{self, Phase, RoundAcc};
use crate::replay::{self, TuneProblem, TuneScratch};
use crate::trace::Tracer;
use crate::Workload;

/// `search-wide` problems per connection (`anneal-refine` has twice as
/// many on its one connection: its graphs are small and varied).
const SHARE: usize = 8;

pub struct TuneLoop {
    problems: Vec<TuneProblem>,
    connections: usize,
}

/// 2 connections; 128 compact affine candidates over wavefront graphs
/// of 512–2048 nodes, no cache, no refinement.
pub fn search_wide(seed: u64) -> TuneLoop {
    let mut rng = Rng::new(seed, 1);
    let connections = 2;
    let sizes = gen::stratified(&mut rng, SHARE * connections, 512, 2048);
    // Interleave so both connections get the same size mix.
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by_key(|&k| (k % connections, k));
    let problems = order
        .into_iter()
        .map(|k| {
            let (n, m) = gen::domain_2d(&mut rng, sizes[k], 12);
            // Each connection gets as many diagonal graphs as plain ones.
            let graph = gen::wavefront(n, m, (k / connections) % 2 == 0);
            let mut candidates = Vec::with_capacity(128);
            for p in 1..=32i64 {
                candidates.push(MappingCandidate::new(
                    format!("skew-serp P={p}"),
                    gen::skew(p, m, LinearOrder::Serpentine, false),
                ));
                candidates.push(MappingCandidate::new(
                    format!("skew-row P={p}"),
                    gen::skew(p, m, LinearOrder::RowMajor, false),
                ));
                candidates.push(MappingCandidate::new(
                    format!("skew-col P={p}"),
                    gen::skew(p, n, LinearOrder::Serpentine, true),
                ));
                candidates.push(MappingCandidate::new(
                    format!("literal P={p}"),
                    gen::literal(p, m),
                ));
            }
            rng.shuffle(&mut candidates);
            let machine = MachineConfig::n5(8, 4);
            TuneProblem::new(graph, machine, FigureOfMerit::Edp, candidates, None, false)
        })
        .collect();
    TuneLoop {
        problems,
        connections,
    }
}

/// 1 connection; small edit-distance and stencil graphs with skewed and
/// blocked candidates, refined by two annealing chains.
pub fn anneal_refine(seed: u64) -> TuneLoop {
    let mut rng = Rng::new(seed, 2);
    let sizes = gen::stratified(&mut rng, 2 * SHARE, 96, 192);
    let problems = sizes
        .into_iter()
        .enumerate()
        .map(|(k, nodes)| {
            let (rows, cols) = gen::domain_2d(&mut rng, nodes, 6);
            let (graph, candidates) = if k % 2 == 0 {
                let graph = edit_recurrence(rows, cols, Scoring::levenshtein())
                    .elaborate()
                    .expect("edit-distance recurrence elaborates");
                let cands = [1i64, 2, 4, 8, 16]
                    .iter()
                    .map(|&p| {
                        MappingCandidate::new(
                            format!("skewed P={p}"),
                            gen::skew(p, cols, LinearOrder::Serpentine, false),
                        )
                    })
                    .collect();
                (graph, cands)
            } else {
                let graph = stencil_recurrence(rows, cols)
                    .elaborate()
                    .expect("stencil recurrence elaborates");
                let mut cands: Vec<MappingCandidate> = [1i64, 2, 4]
                    .iter()
                    .map(|&p| {
                        MappingCandidate::new(format!("blocked P={p}"), blocked_mapping(cols, p))
                    })
                    .collect();
                cands.extend([2i64, 4, 8].iter().map(|&p| {
                    MappingCandidate::new(
                        format!("skewed P={p}"),
                        gen::skew(p, cols, LinearOrder::Serpentine, false),
                    )
                }));
                (graph, cands)
            };
            let refinement = Refinement {
                chains: 2,
                iters: ANNEAL_ITERS,
                seed: rng.next_u64() >> 1,
            };
            TuneProblem::new(
                graph,
                MachineConfig::n5(4, 4),
                FigureOfMerit::Edp,
                candidates,
                Some(refinement),
                false,
            )
        })
        .collect();
    TuneLoop {
        problems,
        connections: 1,
    }
}

/// Annealing iterations per chain.
const ANNEAL_ITERS: u32 = 3000;

/// A winner's label and score bits.
type Winner = Option<(String, u64)>;

/// A served winner and the problem it answers.
type Answer = (usize, Winner);

pub struct Live {
    server: ServerHandle,
    conns: Vec<Conn>,
}

struct Conn {
    client: Client,
    /// Index of this connection's first problem.
    offset: usize,
    next: usize,
    answers: Vec<Answer>,
    replay: Option<TuneScratch>,
}

impl TuneLoop {
    /// The problems of connection `c`.
    fn share(&self, c: usize) -> &[TuneProblem] {
        let per = self.problems.len() / self.connections;
        &self.problems[c * per..(c + 1) * per]
    }
}

impl Workload for TuneLoop {
    type Live = Live;

    fn aux(&self) -> Option<&'static str> {
        None
    }

    fn setup(&self) -> Result<Live, String> {
        let server = harness::start_server(None)?;
        let mut conns = Vec::with_capacity(self.connections);
        for c in 0..self.connections {
            conns.push(Conn {
                client: harness::connect(&server)?,
                offset: c * self.share(0).len(),
                next: 0,
                answers: Vec::new(),
                replay: None,
            });
        }
        // Warm-up: two requests per connection, answers checked later.
        for (c, conn) in conns.iter_mut().enumerate() {
            let mut sink = Phase::default();
            for _ in 0..2 {
                one(self.share(c), conn, &mut sink, None)?;
            }
        }
        Ok(Live { server, conns })
    }

    fn phase(&self, live: &mut Live, seconds: f64, traced: bool) -> Result<Phase, String> {
        let before = harness::stats(&mut live.conns[0].client)?;
        let until = Instant::now() + Duration::from_secs_f64(seconds);
        let start = Instant::now();
        let phases: Vec<Result<Phase, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = live
                .conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    let share = self.share(c);
                    s.spawn(move || {
                        let mut phase = Phase::default();
                        let mut tracer = traced.then(|| Tracer::new(start));
                        if traced && conn.replay.is_none() {
                            conn.replay = Some(TuneScratch::new());
                        }
                        while Instant::now() < until {
                            one(share, conn, &mut phase, tracer.as_mut())?;
                        }
                        phase.seconds = start.elapsed().as_secs_f64();
                        phase.tracer = tracer;
                        Ok(phase)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("connection thread panicked"))
                .collect()
        });
        let mut total = Phase::default();
        for p in phases {
            total.merge(p?);
        }
        total.stats_before = before;
        total.stats_after = harness::stats(&mut live.conns[0].client)?;
        Ok(total)
    }

    fn finish(&self, live: Live, verify: bool) -> Result<Vec<String>, String> {
        let Live { server, conns } = live;
        let answers: Vec<Answer> = conns.into_iter().flat_map(|c| c.answers).collect();
        server.shutdown_and_join();
        if !verify {
            return Ok(Vec::new());
        }
        // One in-process reference per problem served: the winner's
        // candidate index and the winner.
        let mut refs: Vec<Option<(usize, Winner)>> = vec![None; self.problems.len()];
        for (k, served) in &answers {
            let p = &self.problems[*k];
            let (want_index, want) = refs[*k].get_or_insert_with(|| {
                let (best, index) = p.reference();
                (
                    index.unwrap_or(usize::MAX),
                    best.map(|b| (b.label, b.score.to_bits())),
                )
            });
            let index = served
                .as_ref()
                .and_then(|(label, _)| p.index_of(label))
                .unwrap_or(usize::MAX);
            if served != want || index != *want_index {
                return Err(format!(
                    "problem {k}: served winner {served:?} (index {index}) but an in-process \
                     tune picks {want:?} (index {want_index})"
                ));
            }
        }
        Ok(vec![format!(
            "checked {} answers against {} in-process tunes",
            answers.len(),
            refs.iter().flatten().count()
        )])
    }
}

/// One closed-loop request on `conn`, replayed under spans when a
/// tracer is given.
fn one(
    share: &[TuneProblem],
    conn: &mut Conn,
    phase: &mut Phase,
    tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    let k = conn.next % share.len();
    conn.next += 1;
    let p = &share[k];
    let start = Instant::now();
    let Some((resp, rtt)) = harness::attempt(&mut conn.client, &p.request, phase)? else {
        return Ok(());
    };
    let Response::Tuned(reply) = &resp else {
        return Err(format!("Tune answered with {}", resp.kind()));
    };
    let ms = rtt.as_secs_f64() * 1e3;
    phase.tune_ms.push(ms);
    phase.round_ms.push(ms);
    phase.rounds += 1;
    let best = reply
        .best
        .as_ref()
        .map(|b| (b.label.clone(), b.score.to_bits()));
    if let Some(t) = tracer {
        let id = ((conn.offset as u64) << 32) | conn.next as u64;
        let scratch = conn.replay.as_mut().expect("replay scratch set up");
        let mut acc = RoundAcc::default();
        let mut counts = None;
        replay::traced(
            t,
            &mut acc,
            id,
            ("client.tune", "replay.tune"),
            start,
            rtt,
            (&p.request, &resp),
            Some(reply.wall_ms),
            |t| counts = Some(replay::tune(t, id, p, None, scratch)),
        );
        let counts = counts.expect("replay ran");
        if counts.best != best {
            return Err(format!(
                "replayed tune picked {:?}, the server {:?}",
                counts.best, best
            ));
        }
        phase.layers.add_tune(&counts);
        phase.layers.close_round(t, acc);
    }
    conn.answers.push((conn.offset + k, best));
    Ok(())
}
