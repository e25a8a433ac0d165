//! End-to-end benchmark of a served `fm-serve` instance.
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Starts an in-process server with a pinned configuration, drives it
//! over loopback with binary-framed clients in a closed loop, checks
//! every answer, and prints the metrics by name with their units; the
//! last line of standard output is one JSON object. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` first measures untraced for half
//! the time (for the tracing overhead), then traced, and reports the
//! per-layer metrics. Any wrong answer exits non-zero before a number
//! is printed. See `README.md` for what each workload is for.

// The harness reads `/proc/self` and the process CPU clock through the
// 64-bit Linux ABI, and pins glibc's malloc arenas.
#[cfg(not(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64")))]
compile_error!("servebench runs on 64-bit Linux with glibc only");

mod gen;
mod harness;
mod large_graph;
mod replay;
mod session_stream;
mod stats;
mod trace;
mod tune_loop;

use std::process::ExitCode;
use std::time::Instant;

use harness::{Metric, Phase};
use stats::median;

/// Set-ups per untraced run; `setup_s` is the median of their CPU time.
const SETUP_REPEATS: usize = 15;

/// One workload: set up a served instance, drive it, check it.
pub trait Workload {
    type Live;

    /// The round's second request kind, if any (`simulate`, `edit`).
    fn aux(&self) -> Option<&'static str>;

    /// Start a server and do everything up to the first timed request.
    fn setup(&self) -> Result<Self::Live, String>;

    /// Drive the closed loop for `seconds`; with `traced`, replay every
    /// request in-process under spans.
    fn phase(&self, live: &mut Self::Live, seconds: f64, traced: bool) -> Result<Phase, String>;

    /// Stop the server; with `verify`, check every answer recorded since
    /// set-up against the reference and say what was checked.
    fn finish(&self, live: Self::Live, verify: bool) -> Result<Vec<String>, String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

struct Output {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    lines: Vec<String>,
}

fn run<W: Workload>(w: &W, args: &Args) -> Result<Output, String> {
    let mut setup = harness::Setup::default();
    if !args.trace {
        // Half the set-ups come before the timed phase and half after
        // it, so their median does not hang on one moment of the host.
        for _ in 0..SETUP_REPEATS / 2 {
            let live = timed_setup(w, &mut setup)?;
            w.finish(live, false)?;
        }
    }
    let mut live = timed_setup(w, &mut setup)?;

    if !args.trace {
        let cpu0 = harness::cpu_seconds();
        let mut phase = w.phase(&mut live, args.seconds, false)?;
        phase.cpu_s = harness::cpu_seconds() - cpu0;
        // Read before the reference work, which is not the program's.
        let rss_mb = harness::rss_peak_mb()?;
        // The correctness gate comes before any number.
        let checked = w.finish(live, true)?;
        while setup.cpu_s.len() < SETUP_REPEATS {
            let live = timed_setup(w, &mut setup)?;
            w.finish(live, false)?;
        }
        let (metrics, mut lines) = harness::end_to_end(&phase, w.aux(), &setup, rss_mb)?;
        lines.extend(checked);
        return Ok(Output {
            attempted: phase.attempted,
            failed: phase.failed,
            metrics,
            lines,
        });
    }

    let plain = w.phase(&mut live, args.seconds / 2.0, false)?;
    let traced = w.phase(&mut live, args.seconds / 2.0, true)?;
    let mut lines = w.finish(live, true)?;
    let overhead = median(&traced.tune_ms) / median(&plain.tune_ms) - 1.0;
    let metrics = traced.layers.metrics(&traced, overhead);
    let path = harness::out_dir().join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    let tracer = traced.tracer.as_ref().ok_or("traced phase kept no spans")?;
    tracer
        .write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Output {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
        lines: {
            lines.push(format!("{} traced rounds", traced.layers.rounds.len()));
            lines.push(format!("spans written to {}", path.display()));
            lines
        },
    })
}

/// Set up `w` once, recording the set-up's CPU and wall time.
fn timed_setup<W: Workload>(w: &W, setup: &mut harness::Setup) -> Result<W::Live, String> {
    let (cpu0, t0) = (harness::cpu_seconds(), Instant::now());
    let live = w.setup()?;
    setup.cpu_s.push(harness::cpu_seconds() - cpu0);
    setup.wall_s.push(t0.elapsed().as_secs_f64());
    Ok(live)
}

fn main() -> ExitCode {
    if let Err(e) = harness::pin_malloc_arenas() {
        eprintln!("servebench: {e}");
        return ExitCode::from(1);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "search-wide" => run(&tune_loop::search_wide(args.seed), &args),
        "anneal-refine" => run(&tune_loop::anneal_refine(args.seed), &args),
        "large-graph" => run(&large_graph::LargeGraph::new(args.seed), &args),
        "session-stream" => run(&session_stream::SessionStream::new(args.seed), &args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("servebench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("servebench: {} is not finite", m.name);
        return ExitCode::from(1);
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &out.lines {
        println!("{line}");
    }
    for m in &out.metrics {
        println!("{:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
