//! `fm-serve` — run the mapping service daemon.
//!
//! ```text
//! fm-serve [--addr HOST:PORT] [--workers N] [--threads N] [--queue N]
//!          [--deadline-ms MS] [--cache DIR] [--max-frame BYTES]
//!          [--session-ttl SECS] [--dedup on|off]
//!          [--fleet HOST:PORT,...] [--fleet-attempts N]
//!          [--fleet-connect-ms MS] [--fleet-hedge-ms MS]
//!          [--stream-every K] [--weighted on|off]
//!          [--fleet-admit HOST:PORT,...] [--fleet-ledger PATH]
//!          [--weight-decay-tunes N] [--cliff-fraction F]
//!          [--cliff-stall-ms MS]
//! ```
//!
//! With `--fleet`, this instance becomes a coordinator: eligible
//! `Tune` requests are partitioned across the listed backend shards
//! and merged by `(score, index)`; everything else (and every tune
//! when the shards are down) is served locally.
//!
//! The daemon runs until it receives a wire `Shutdown` request, then
//! drains admitted work and exits, printing a final stats summary.

use std::process::ExitCode;
use std::time::Duration;

use fm_serve::fleet::FleetConfig;
use fm_serve::server::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: fm-serve [--addr HOST:PORT] [--workers N] [--threads N] [--queue N]\n\
         \x20               [--deadline-ms MS] [--cache DIR] [--max-frame BYTES]\n\
         \x20               [--session-ttl SECS] [--dedup on|off]\n\
         \x20               [--fleet HOST:PORT,...] [--fleet-attempts N]\n\
         \x20               [--fleet-connect-ms MS] [--fleet-hedge-ms MS]\n\
         \x20               [--stream-every K] [--weighted on|off]\n\
         \x20               [--fleet-admit HOST:PORT,...] [--fleet-ledger PATH]\n\
         \x20               [--weight-decay-tunes N] [--cliff-fraction F]\n\
         \x20               [--cliff-stall-ms MS]\n\
         \n\
         \x20 --addr HOST:PORT   bind address (default 127.0.0.1:7171; port 0 = ephemeral)\n\
         \x20 --workers N        request worker threads (default 2)\n\
         \x20 --threads N        shared tuner pool threads (default min(cores, 8))\n\
         \x20 --queue N          admission queue capacity (default 64)\n\
         \x20 --deadline-ms MS   default per-request deadline (default none)\n\
         \x20 --cache DIR        persistent tuning cache directory (default off)\n\
         \x20 --max-frame BYTES  largest accepted frame (default 16 MiB)\n\
         \x20 --session-ttl SECS evict sessions idle this long; 0 = never (default)\n\
         \x20 --dedup on|off     collapse queued duplicate tunes into one search\n\
         \x20                    and fan the answer back to every waiter (default on)\n\
         \x20 --fleet A,B,...    coordinate tunes across these shard addresses\n\
         \x20 --fleet-attempts N       attempt waves per sub-range before local\n\
         \x20                          fallback (default 3)\n\
         \x20 --fleet-connect-ms MS    per-attempt connect timeout (default 250)\n\
         \x20 --fleet-hedge-ms MS      hedge stragglers after MS; 0 disables\n\
         \x20                          (default 500)\n\
         \x20 --stream-every K         shards stream a sealed partial result every K\n\
         \x20                          evaluated candidates; 0 = classic blocking\n\
         \x20                          replies (default 16)\n\
         \x20 --weighted on|off        size shard ranges by observed per-shard EWMA\n\
         \x20                          throughput instead of equally (default on)\n\
         \x20 --fleet-admit A,B,...    additionally admit these shards at startup\n\
         \x20                          (same as ShardJoin requests; bumps the epoch)\n\
         \x20 --fleet-ledger PATH      persist per-shard EWMA weights + breaker state\n\
         \x20                          to this JSON file across coordinator restarts\n\
         \x20                          (corrupt or stale ledgers fall back to cold)\n\
         \x20 --weight-decay-tunes N   decay a shard's weight toward uniform after N\n\
         \x20                          tunes without a fresh sample; 0 = never\n\
         \x20                          (default 64)\n\
         \x20 --cliff-fraction F       re-dispatch a range's suffix when its shard's\n\
         \x20                          throughput falls below F x trailing peak while\n\
         \x20                          the watermark stalls; 0 disables (default 0.35)\n\
         \x20 --cliff-stall-ms MS      watermark stall before the cliff check fires\n\
         \x20                          (default 200)"
    );
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    match value.and_then(|v| v.parse().ok()) {
        Some(n) => n,
        None => {
            eprintln!("fm-serve: {flag} needs a numeric argument");
            usage();
        }
    }
}

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:7171".to_string();
    let mut config = ServerConfig::default();
    let mut fleet_shards: Option<Vec<String>> = None;
    let mut fleet_attempts: Option<u32> = None;
    let mut fleet_connect_ms: Option<u64> = None;
    let mut fleet_hedge_ms: Option<u64> = None;
    let mut stream_every: Option<u64> = None;
    let mut weighted: Option<bool> = None;
    let mut fleet_admit: Option<Vec<String>> = None;
    let mut fleet_ledger: Option<String> = None;
    let mut weight_decay_tunes: Option<u64> = None;
    let mut cliff_fraction: Option<f64> = None;
    let mut cliff_stall_ms: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(a) => addr = a,
                None => usage(),
            },
            "--workers" => config.workers = parse_num("--workers", args.next()),
            "--threads" => config.tuner_threads = parse_num("--threads", args.next()),
            "--queue" => config.queue_capacity = parse_num("--queue", args.next()),
            "--deadline-ms" => {
                config.default_deadline_ms = Some(parse_num("--deadline-ms", args.next()))
            }
            "--cache" => match args.next() {
                Some(dir) => config.cache_dir = Some(dir.into()),
                None => usage(),
            },
            "--max-frame" => config.max_frame = parse_num("--max-frame", args.next()),
            "--session-ttl" => {
                let secs: u64 = parse_num("--session-ttl", args.next());
                config.session_ttl = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--dedup" => match args.next().as_deref() {
                Some("on") => config.dedup_tunes = true,
                Some("off") => config.dedup_tunes = false,
                _ => {
                    eprintln!("fm-serve: --dedup needs `on` or `off`");
                    usage();
                }
            },
            "--fleet" => match args.next() {
                Some(list) => {
                    let shards: Vec<String> = list
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(str::to_string)
                        .collect();
                    if shards.is_empty() {
                        eprintln!("fm-serve: --fleet needs at least one HOST:PORT");
                        usage();
                    }
                    fleet_shards = Some(shards);
                }
                None => usage(),
            },
            "--fleet-attempts" => fleet_attempts = Some(parse_num("--fleet-attempts", args.next())),
            "--fleet-connect-ms" => {
                fleet_connect_ms = Some(parse_num("--fleet-connect-ms", args.next()))
            }
            "--fleet-hedge-ms" => fleet_hedge_ms = Some(parse_num("--fleet-hedge-ms", args.next())),
            "--stream-every" => stream_every = Some(parse_num("--stream-every", args.next())),
            "--weighted" => match args.next().as_deref() {
                Some("on") => weighted = Some(true),
                Some("off") => weighted = Some(false),
                _ => {
                    eprintln!("fm-serve: --weighted needs `on` or `off`");
                    usage();
                }
            },
            "--fleet-admit" => match args.next() {
                Some(list) => {
                    let extra: Vec<String> = list
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(str::to_string)
                        .collect();
                    if extra.is_empty() {
                        eprintln!("fm-serve: --fleet-admit needs at least one HOST:PORT");
                        usage();
                    }
                    fleet_admit = Some(extra);
                }
                None => usage(),
            },
            "--fleet-ledger" => match args.next() {
                Some(path) => fleet_ledger = Some(path),
                None => usage(),
            },
            "--weight-decay-tunes" => {
                weight_decay_tunes = Some(parse_num("--weight-decay-tunes", args.next()))
            }
            "--cliff-fraction" => cliff_fraction = Some(parse_num("--cliff-fraction", args.next())),
            "--cliff-stall-ms" => cliff_stall_ms = Some(parse_num("--cliff-stall-ms", args.next())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("fm-serve: unknown argument {other:?}");
                usage();
            }
        }
    }

    if let Some(shards) = fleet_shards {
        let mut fleet = FleetConfig::new(shards);
        if let Some(n) = fleet_attempts {
            fleet.attempts = n.max(1);
        }
        if let Some(ms) = fleet_connect_ms {
            fleet.connect_timeout = Duration::from_millis(ms.max(1));
        }
        if let Some(ms) = fleet_hedge_ms {
            fleet.hedge_after = (ms > 0).then(|| Duration::from_millis(ms));
        }
        if let Some(k) = stream_every {
            fleet.stream_every = (k > 0).then_some(k);
        }
        if let Some(w) = weighted {
            fleet.weighted = w;
        }
        if let Some(extra) = fleet_admit {
            fleet.admit = extra;
        }
        if let Some(path) = fleet_ledger {
            fleet.weight_ledger = Some(path.into());
        }
        if let Some(n) = weight_decay_tunes {
            fleet.weight_decay_tunes = n;
        }
        if let Some(f) = cliff_fraction {
            if !(0.0..=1.0).contains(&f) {
                eprintln!("fm-serve: --cliff-fraction needs a value in [0, 1]");
                usage();
            }
            fleet.cliff_fraction = f;
        }
        if let Some(ms) = cliff_stall_ms {
            fleet.cliff_stall = Duration::from_millis(ms.max(1));
        }
        config.fleet = Some(fleet);
    } else if fleet_attempts.is_some()
        || fleet_connect_ms.is_some()
        || fleet_hedge_ms.is_some()
        || stream_every.is_some()
        || weighted.is_some()
        || fleet_admit.is_some()
        || fleet_ledger.is_some()
        || weight_decay_tunes.is_some()
        || cliff_fraction.is_some()
        || cliff_stall_ms.is_some()
    {
        eprintln!("fm-serve: --fleet-* knobs need --fleet HOST:PORT,...");
        usage();
    }

    let fleet_banner = config
        .fleet
        .as_ref()
        .map(|f| format!(" (fleet coordinator over {} shards)", f.shards.len()));
    let handle = match Server::start(&addr, config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("fm-serve: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Parseable by scripts (ci.sh greps this line for the port).
    println!(
        "fm-serve listening on {}{}",
        handle.local_addr(),
        fleet_banner.unwrap_or_default()
    );

    let stats = handle.join();
    println!(
        "fm-serve: drained and exiting — {} requests ({} tune / {} shard / {} evaluate / \
         {} simulate), {} busy rejections, {} protocol errors, cache hit rate {:.0}%, \
         {} sessions opened ({} edits, {} warm / {} cold re-tunes, {} evicted)",
        stats.work_received(),
        stats.tune.received,
        stats.tune_shard.received,
        stats.evaluate.received,
        stats.simulate.received,
        stats.busy_rejections,
        stats.protocol_errors,
        stats.cache_hit_rate() * 100.0,
        stats.sessions.opened,
        stats.sessions.edits_applied,
        stats.sessions.warm_tunes,
        stats.sessions.cold_tunes,
        stats.sessions.evicted
    );
    println!(
        "fm-serve: wire — {} binary connections, {} binary / {} json requests, \
         in-flight peak {}, {} dedup batches serving {} extra waiters",
        stats.binary_connections,
        stats.binary_requests,
        stats.json_requests,
        stats.inflight_peak,
        stats.dedup_batches,
        stats.dedup_waiters_served
    );
    if let Some(fleet) = &stats.fleet {
        let weights: Vec<String> = fleet
            .shards
            .iter()
            .map(|s| {
                let mark = if s.departed { "!" } else { "" };
                format!("{}{}={}", mark, s.addr, s.weight_source)
            })
            .collect();
        println!(
            "fm-serve: fleet — epoch {}, {} members ({} joins / {} leaves), {} tunes, \
             {} hedges, {} cliff / {} departed suffix re-dispatches, \
             {} cliff quarantines, weight sources [{}]",
            fleet.membership_epoch,
            fleet.members,
            fleet.joins,
            fleet.leaves,
            fleet.fleet_tunes,
            fleet.hedges,
            fleet.cliff_redispatches,
            fleet.departed_redispatches,
            fleet.cliff_quarantines,
            weights.join(", ")
        );
    }
    ExitCode::SUCCESS
}
