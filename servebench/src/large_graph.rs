//! `large-graph`: each round is a cached `Tune` of a 2304-node-class FFT
//! with table-mapped candidates, then a `Simulate` of the returned
//! winner with contention on. The cache is filled during set-up, in a
//! fresh directory, so every timed `Tune` is a hit.

use std::time::{Duration, Instant};

use fm_autotune::TuningCache;
use fm_core::search::FigureOfMerit;
use fm_core::value::Value;
use fm_core::{MachineConfig, ResolvedMapping};
use fm_kernels::fft::{fft_graph, fft_radix4_graph, FftFamily, FftVariant};
use fm_serve::{Client, Request, Response, ServerHandle, SimulateRequest};

use crate::gen::{self, Rng};
use crate::harness::{self, Phase, RoundAcc, ScratchDir};
use crate::replay::{self, TuneProblem, TuneScratch};
use crate::trace::Tracer;
use crate::Workload;

/// Largest relative gap allowed between simulated and predicted energy.
const ENERGY_DRIFT_MAX: f64 = 1e-6;

/// FFT lanes: 9 stage layers of 256 (DIT), 10 (DIF), 5 (radix-4).
const LANES: usize = 256;

pub struct LargeGraph {
    problems: Vec<TuneProblem>,
    inputs: Vec<Vec<Vec<Value>>>,
}

impl LargeGraph {
    pub fn new(seed: u64) -> LargeGraph {
        let mut rng = Rng::new(seed, 3);
        let mut problems = Vec::new();
        let mut inputs = Vec::new();
        for k in 0..6 {
            let graph = match k % 3 {
                0 => fft_graph(LANES, FftVariant::Dit),
                1 => fft_graph(LANES, FftVariant::Dif),
                _ => fft_radix4_graph(LANES),
            };
            let machine = MachineConfig::linear([8, 16][k / 3]);
            // Every seed offers the same family; the seed orders it and
            // draws the simulation inputs, so problem cost stays put.
            let family = FftFamily {
                n: LANES,
                p_values: vec![2, 4, 8, 16],
            };
            let mut candidates = family.candidates_for(&graph, &machine);
            rng.shuffle(&mut candidates);
            inputs.push(gen::inputs(&mut rng, &graph));
            problems.push(TuneProblem::new(
                graph,
                machine,
                FigureOfMerit::Edp,
                candidates,
                None,
                true,
            ));
        }
        LargeGraph { problems, inputs }
    }
}

/// What a round's answers showed; checked after the run.
struct Answer {
    problem: usize,
    hit: bool,
    same_as_cold: bool,
    predicted_fj: f64,
    simulated_fj: f64,
    slowdown: f64,
}

struct Cold {
    label: String,
    score_bits: u64,
    resolved: ResolvedMapping,
    simulate: Request,
}

pub struct Live {
    server: ServerHandle,
    client: Client,
    cache_dir: ScratchDir,
    cold: Vec<Cold>,
    next: usize,
    answers: Vec<Answer>,
    replay: Option<(TuningCache, TuneScratch)>,
}

impl Workload for LargeGraph {
    type Live = Live;

    fn aux(&self) -> Option<&'static str> {
        Some("simulate")
    }

    fn setup(&self) -> Result<Live, String> {
        let cache_dir = ScratchDir::new("cache")?;
        let server = harness::start_server(Some(cache_dir.path().to_path_buf()))?;
        let mut client = harness::connect(&server)?;
        // Fill the cache: one cold tune per problem. Its winner is the
        // reference every later hit must reproduce.
        let mut cold = Vec::with_capacity(self.problems.len());
        for (p, inputs) in self.problems.iter().zip(&self.inputs) {
            let (resp, _) =
                harness::call(&mut client, &p.request).map_err(|e| format!("cache fill: {e}"))?;
            let Response::Tuned(reply) = resp else {
                return Err(format!("cache fill answered with {}", resp.kind()));
            };
            if reply.cache != "miss" {
                return Err(format!(
                    "cache fill in a fresh directory was a {}",
                    reply.cache
                ));
            }
            let best = reply.best.ok_or("cache fill found no winner")?;
            let simulate = Request::Simulate(SimulateRequest {
                graph: p.graph.clone(),
                machine: p.machine.clone(),
                mapping: best.resolved.clone(),
                inputs: inputs.clone(),
                contention: true,
                deadline_ms: None,
            });
            cold.push(Cold {
                label: best.label,
                score_bits: best.score.to_bits(),
                resolved: best.resolved,
                simulate,
            });
        }
        let mut live = Live {
            server,
            client,
            cache_dir,
            cold,
            next: 0,
            answers: Vec::new(),
            replay: None,
        };
        let mut sink = Phase::default();
        for _ in 0..2 {
            self.round(&mut live, &mut sink, None)?;
        }
        Ok(live)
    }

    fn phase(&self, live: &mut Live, seconds: f64, traced: bool) -> Result<Phase, String> {
        let mut phase = Phase {
            stats_before: harness::stats(&mut live.client)?,
            ..Phase::default()
        };
        let start = Instant::now();
        let mut tracer = traced.then(|| Tracer::new(start));
        if traced && live.replay.is_none() {
            let cache = TuningCache::open(live.cache_dir.path()).ok_or("cache dir unusable")?;
            live.replay = Some((cache, TuneScratch::new()));
        }
        let until = Instant::now() + Duration::from_secs_f64(seconds);
        while Instant::now() < until {
            self.round(live, &mut phase, tracer.as_mut())?;
        }
        phase.seconds = start.elapsed().as_secs_f64();
        phase.stats_after = harness::stats(&mut live.client)?;
        phase.tracer = tracer;
        // The timed phase must be all hits: hit and miss latencies never mix.
        let (b, a) = (phase.stats_before, phase.stats_after);
        if a.cache_hits - b.cache_hits != a.cache_lookups - b.cache_lookups {
            return Err(format!(
                "cache hit fraction below 1 in the timed phase: {} hits of {} lookups",
                a.cache_hits - b.cache_hits,
                a.cache_lookups - b.cache_lookups
            ));
        }
        Ok(phase)
    }

    fn finish(&self, live: Live, verify: bool) -> Result<Vec<String>, String> {
        let Live {
            server,
            client,
            cache_dir,
            answers,
            ..
        } = live;
        drop(client);
        server.shutdown_and_join();
        drop(cache_dir);
        if !verify {
            return Ok(Vec::new());
        }
        let mut max_drift = 0.0f64;
        for a in &answers {
            let k = a.problem;
            if !a.hit || !a.same_as_cold {
                return Err(format!(
                    "problem {k}: cached tune (hit: {}) differs from the cold winner",
                    a.hit
                ));
            }
            // The tolerance of the repository's own sim-agreement test:
            // the two ledgers sum the same terms in different orders.
            let drift = (a.simulated_fj - a.predicted_fj).abs() / a.predicted_fj;
            max_drift = max_drift.max(drift);
            if drift > ENERGY_DRIFT_MAX || a.slowdown < 1.0 {
                return Err(format!(
                    "problem {k}: simulated {} fJ vs predicted {} fJ, slowdown {}",
                    a.simulated_fj, a.predicted_fj, a.slowdown
                ));
            }
        }
        Ok(vec![format!(
            "checked {} rounds: every tune a hit equal to the cold winner; \
             simulated vs predicted energy drift at most {max_drift:e}",
            answers.len()
        )])
    }
}

impl LargeGraph {
    fn round(
        &self,
        live: &mut Live,
        phase: &mut Phase,
        tracer: Option<&mut Tracer>,
    ) -> Result<(), String> {
        let k = live.next % self.problems.len();
        live.next += 1;
        let p = &self.problems[k];
        let cold = &live.cold[k];

        let tune_start = Instant::now();
        let Some((tune_resp, tune_rtt)) = harness::attempt(&mut live.client, &p.request, phase)?
        else {
            return Ok(());
        };
        let Response::Tuned(reply) = &tune_resp else {
            return Err(format!("Tune answered with {}", tune_resp.kind()));
        };
        let best = reply
            .best
            .as_ref()
            .ok_or("cached tune returned no winner")?;
        let same_as_cold = best.label == cold.label
            && best.score.to_bits() == cold.score_bits
            && best.resolved == cold.resolved;
        let hit = reply.cache == "hit";

        let sim_start = Instant::now();
        let Some((sim_resp, sim_rtt)) = harness::attempt(&mut live.client, &cold.simulate, phase)?
        else {
            return Ok(());
        };
        let Response::Simulated(sim) = &sim_resp else {
            return Err(format!("Simulate answered with {}", sim_resp.kind()));
        };
        let (tune_ms, sim_ms) = (tune_rtt.as_secs_f64() * 1e3, sim_rtt.as_secs_f64() * 1e3);
        phase.tune_ms.push(tune_ms);
        phase.aux_ms.push(sim_ms);
        phase.round_ms.push(tune_ms + sim_ms);
        phase.rounds += 1;
        live.answers.push(Answer {
            problem: k,
            hit,
            same_as_cold,
            predicted_fj: sim.predicted_energy_fj,
            simulated_fj: sim.simulated_energy_fj,
            slowdown: sim.slowdown,
        });

        if let Some(t) = tracer {
            let (cache, scratch) = live.replay.as_mut().expect("replay state set up");
            let id = live.next as u64 * 2;
            let mut acc = RoundAcc::default();
            let mut counts = None;
            replay::traced(
                t,
                &mut acc,
                id,
                ("client.tune", "replay.tune"),
                tune_start,
                tune_rtt,
                (&p.request, &tune_resp),
                Some(reply.wall_ms),
                |t| counts = Some(replay::tune(t, id, p, Some(cache), scratch)),
            );
            let counts = counts.expect("replay ran");
            if !counts.cache_hit {
                return Err("replayed tune missed the cache".to_string());
            }
            let Request::Simulate(req) = &cold.simulate else {
                unreachable!("built as a Simulate request")
            };
            replay::traced(
                t,
                &mut acc,
                id + 1,
                ("client.simulate", "replay.simulate"),
                sim_start,
                sim_rtt,
                (&cold.simulate, &sim_resp),
                None,
                |t| {
                    replay::simulate(
                        t,
                        id + 1,
                        &req.graph,
                        &req.machine,
                        &req.mapping,
                        &req.inputs,
                    )
                },
            );
            phase.layers.add_tune(&counts);
            phase.layers.close_round(t, acc);
        }
        Ok(())
    }
}
