//! `session-stream`: one session over a seeded ~2.2k-node graph with nine
//! affine candidates. Each round is one `SessionEdit` batch of 1–4
//! edits, then one `SessionTune`. Every round's winner is checked after
//! the run by replaying the edit stream against a cold tune.

use std::time::{Duration, Instant};

use fm_autotune::{fnv1a64, Budget, Tuner, WarmCache};
use fm_core::cost::Evaluator;
use fm_core::dataflow::DataflowGraph;
use fm_core::mutate::{apply_edit, GraphEdit};
use fm_core::search::{FigureOfMerit, MappingCandidate};
use fm_core::{MachineConfig, ResolvedMapping};
use fm_serve::{
    Client, Request, Response, ServerHandle, SessionEditRequest, SessionOpenRequest,
    SessionTuneRequest,
};
use fm_workspan::ThreadPool;

use crate::gen::{self, EditStream, Rng};
use crate::harness::{self, Phase, RoundAcc};
use crate::replay;
use crate::trace::Tracer;
use crate::Workload;

const FOM: FigureOfMerit = FigureOfMerit::Edp;

pub struct SessionStream {
    seed: u64,
    graph: DataflowGraph,
    machine: MachineConfig,
    candidates: Vec<MappingCandidate>,
    open: Request,
}

impl SessionStream {
    pub fn new(seed: u64) -> SessionStream {
        let mut rng = Rng::new(seed, 4);
        // The edit stream keeps the node count within 1/32 of this, so
        // between 2048 and 4096 for every seed. A band that straddles a
        // power of two lets some seeds double the session's vectors and
        // not others, and `rss_peak_mb` then follows the seed.
        let nodes = 2200 - 16 + rng.range(0, 32);
        let graph = gen::session_graph(&mut rng, nodes);
        let machine = MachineConfig::linear(8);
        let candidates = gen::session_candidates(&mut rng);
        let open = Request::SessionOpen(SessionOpenRequest {
            graph: graph.clone(),
            machine: machine.clone(),
            fom: FOM,
            candidates: gen::wire(&candidates),
            max_candidates: None,
            convergence_window: None,
            cost_model: None,
        });
        SessionStream {
            seed,
            graph,
            machine,
            candidates,
            open,
        }
    }
}

/// A served winner: label, score bits and a hash of its tables.
type Winner = Option<(String, u64, u64)>;

fn winner_of(best: Option<(&str, f64, &ResolvedMapping)>) -> Winner {
    best.map(|(label, score, rm)| {
        let mut bytes = Vec::with_capacity(rm.place.len() * 24);
        for ((x, y), t) in rm.place.iter().zip(&rm.time) {
            bytes.extend_from_slice(&x.to_le_bytes());
            bytes.extend_from_slice(&y.to_le_bytes());
            bytes.extend_from_slice(&t.to_le_bytes());
        }
        (label.to_string(), score.to_bits(), fnv1a64(&bytes))
    })
}

pub struct Live {
    server: ServerHandle,
    client: Client,
    session_id: u64,
    epoch: u64,
    stream: EditStream,
    /// The traced run's mirror of the session's graph and machine, as of
    /// the first `mirrored` rounds.
    graph: DataflowGraph,
    machine: MachineConfig,
    mirrored: usize,
    /// Every round since open: its edit batch and the served winner.
    rounds: Vec<(Vec<GraphEdit>, Winner)>,
    /// The traced run's mirror of the session's warm state.
    warm: Option<WarmCache>,
}

impl Workload for SessionStream {
    type Live = Live;

    fn aux(&self) -> Option<&'static str> {
        Some("edit")
    }

    fn setup(&self) -> Result<Live, String> {
        let server = harness::start_server(None)?;
        let mut client = harness::connect(&server)?;
        let (resp, _) =
            harness::call(&mut client, &self.open).map_err(|e| format!("session open: {e}"))?;
        let Response::SessionOpened(opened) = resp else {
            return Err(format!("SessionOpen answered with {}", resp.kind()));
        };
        let mut live = Live {
            server,
            client,
            session_id: opened.session_id,
            epoch: opened.epoch,
            stream: EditStream::new(self.seed, &self.graph, &self.machine),
            graph: self.graph.clone(),
            machine: self.machine.clone(),
            mirrored: 0,
            rounds: Vec::new(),
            warm: None,
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
        if traced && live.warm.is_none() {
            // Catch the mirror up with the untraced rounds, then build its
            // warm state; both stay in step with the session from here.
            for (edits, _) in &live.rounds[live.mirrored..] {
                for e in edits {
                    apply_edit(&mut live.graph, &mut live.machine, e)
                        .map_err(|e| format!("mirror: {e}"))?;
                }
            }
            live.mirrored = live.rounds.len();
            let ev = Evaluator::new(&live.graph, &live.machine);
            live.warm = Some(WarmCache::new(&ev, self.candidates.clone()));
        }
        let until = Instant::now() + Duration::from_secs_f64(seconds);
        while Instant::now() < until {
            self.round(live, &mut phase, tracer.as_mut())?;
        }
        phase.seconds = start.elapsed().as_secs_f64();
        phase.stats_after = harness::stats(&mut live.client)?;
        phase.tracer = tracer;
        Ok(phase)
    }

    fn finish(&self, live: Live, verify: bool) -> Result<Vec<String>, String> {
        let Live {
            server,
            client,
            rounds,
            ..
        } = live;
        drop(client);
        server.shutdown_and_join();
        if !verify {
            return Ok(Vec::new());
        }
        // Replay the edit stream from the opening graph; after each
        // batch, a cold tune of the mirrored graph must pick the winner
        // the session served.
        let pool = ThreadPool::with_threads(2);
        let mut g = self.graph.clone();
        let mut m = self.machine.clone();
        for (r, (edits, served)) in rounds.iter().enumerate() {
            for e in edits {
                apply_edit(&mut g, &mut m, e).map_err(|e| format!("round {r}: replay: {e}"))?;
            }
            let ev = Evaluator::new(&g, &m);
            let cold = Tuner::new(&ev, &g, &m, FOM)
                .with_pool(&pool)
                .tune(&self.candidates);
            let want = winner_of(
                cold.best
                    .as_ref()
                    .map(|b| (b.label.as_str(), b.score, &b.resolved)),
            );
            if *served != want {
                return Err(format!(
                    "round {r}: session served {served:?}, a cold tune picks {want:?}"
                ));
            }
        }
        Ok(vec![format!(
            "checked {} rounds against cold tunes of the replayed graph ({} nodes at the end)",
            rounds.len(),
            g.len()
        )])
    }
}

impl SessionStream {
    /// One `SessionEdit` + `SessionTune` round. Any failure ends the
    /// run: the client's mirror of the session would no longer match.
    fn round(
        &self,
        live: &mut Live,
        phase: &mut Phase,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<(), String> {
        let edits = live.stream.batch();
        let edit = Request::SessionEdit(SessionEditRequest::seal(
            live.session_id,
            live.epoch,
            edits.clone(),
        ));
        let edit_start = Instant::now();
        let (edit_resp, edit_rtt) =
            harness::attempt(&mut live.client, &edit, phase)?.ok_or("SessionEdit refused")?;
        let Response::SessionEdited(edited) = &edit_resp else {
            return Err(format!("SessionEdit answered with {}", edit_resp.kind()));
        };
        live.epoch = edited.epoch;
        let mut acc = RoundAcc::default();
        let id = live.rounds.len() as u64 * 2;
        if let Some(t) = tracer.as_deref_mut() {
            replay::traced(
                t,
                &mut acc,
                id,
                ("client.session_edit", "replay.session_edit"),
                edit_start,
                edit_rtt,
                (&edit, &edit_resp),
                None,
                |t| replay_edit(t, id, live, &edits),
            );
        }

        let tune = Request::SessionTune(SessionTuneRequest {
            session_id: live.session_id,
            deadline_ms: None,
            cost_model: None,
        });
        let tune_start = Instant::now();
        let (tune_resp, tune_rtt) =
            harness::attempt(&mut live.client, &tune, phase)?.ok_or("SessionTune refused")?;
        let Response::SessionTuned(tuned) = &tune_resp else {
            return Err(format!("SessionTune answered with {}", tune_resp.kind()));
        };
        let served = winner_of(
            tuned
                .reply
                .best
                .as_ref()
                .map(|b| (b.label.as_str(), b.score, &b.resolved)),
        );
        if let Some(t) = tracer {
            let mut replayed = None;
            replay::traced(
                t,
                &mut acc,
                id + 1,
                ("client.session_tune", "replay.session_tune"),
                tune_start,
                tune_rtt,
                (&tune, &tune_resp),
                Some(tuned.reply.wall_ms),
                |t| replayed = Some(replay_tune(t, id + 1, live)),
            );
            if replayed != Some(served.clone()) {
                return Err(format!(
                    "replayed session tune picked {replayed:?}, the server {served:?}"
                ));
            }
            let log = &mut phase.layers;
            log.cone.push(edited.cone as f64);
            log.rebuilds += tuned.rebuilds;
            log.session_tunes += 1;
            log.warm_tunes += u64::from(tuned.warm);
            log.close_round(t, acc);
        }
        let (edit_ms, tune_ms) = (edit_rtt.as_secs_f64() * 1e3, tune_rtt.as_secs_f64() * 1e3);
        phase.aux_ms.push(edit_ms);
        phase.tune_ms.push(tune_ms);
        phase.round_ms.push(edit_ms + tune_ms);
        phase.rounds += 1;
        live.rounds.push((edits, served));
        if live.warm.is_some() {
            live.mirrored = live.rounds.len();
        }
        Ok(())
    }
}

/// Re-execute `exec_session_edit` on the client's mirror: checksum
/// verification, the all-or-nothing rehearsal on clones, then each edit
/// applied and the warm state repaired over its dirty cone.
fn replay_edit(t: &mut Tracer, id: u64, live: &mut Live, edits: &[GraphEdit]) {
    let server = t.begin("server.session_edit", id);
    let checksum = t.time("session.checksum", id, || {
        SessionEditRequest::checksum_of(live.epoch - 1, edits)
    });
    std::hint::black_box(checksum);
    t.time("session.rehearse", id, || {
        let mut g = live.graph.clone();
        let mut m = live.machine.clone();
        for e in edits {
            apply_edit(&mut g, &mut m, e).expect("generated edit applies");
        }
    });
    let warm = live.warm.as_mut().expect("mirror warm state set up");
    t.time("delta.repair", id, || {
        for e in edits {
            let receipt =
                apply_edit(&mut live.graph, &mut live.machine, e).expect("generated edit applies");
            let ev = Evaluator::new(&live.graph, &live.machine);
            warm.apply_edit(&ev, &receipt);
        }
    });
    t.end(server);
}

/// Re-execute `exec_session_tune` on the mirror: a warm re-tune.
fn replay_tune(t: &mut Tracer, id: u64, live: &mut Live) -> Winner {
    let server = t.begin("server.session_tune", id);
    let warm = live.warm.as_mut().expect("mirror warm state set up");
    let ev = Evaluator::new(&live.graph, &live.machine);
    let report = t.time("session.tune", id, || {
        Tuner::new(&ev, &live.graph, &live.machine, FOM)
            .with_budget(Budget::unlimited())
            .tune_warm(warm)
    });
    t.end(server);
    winner_of(
        report
            .best
            .as_ref()
            .map(|b| (b.label.as_str(), b.score, &b.resolved)),
    )
}
