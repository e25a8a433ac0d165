//! Deterministic fault injection for fleet testing.
//!
//! A [`FaultProxy`] is a tiny TCP proxy that sits between a fleet
//! coordinator and one shard and misbehaves **on purpose, on
//! schedule**: each accepted connection is assigned a [`FaultAction`]
//! from a [`FaultPlan`] — an explicit script or a seeded pseudo-random
//! schedule — so every failure mode the coordinator defends against
//! (dead shard, slow shard, corrupt frame, mid-reply disconnect) has a
//! *reproducible* end-to-end test. Runs of the same plan misbehave
//! identically; there is no wall-clock or OS randomness in which
//! connection gets which fault.
//!
//! The proxy is frame-aware on the reply direction (it parses the
//! length prefix so it can truncate or corrupt *inside* a frame) and a
//! plain byte pump on the request direction (propagating the client's
//! EOF upstream, which is how a coordinator abandoning an attempt
//! reaches the shard's connection reader, which cancels the work).

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use crate::protocol::{decode_response_any, read_frame_until, Response, DEFAULT_MAX_FRAME};

/// What the proxy does to one proxied connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Forward faithfully in both directions.
    Pass,
    /// Close the client connection on accept, before any byte moves
    /// (a dead shard: connect succeeds, then immediate EOF).
    Drop,
    /// Hold the connection for this many milliseconds before
    /// forwarding anything (a straggler shard; the coordinator's
    /// hedging fires past its threshold).
    Delay(u64),
    /// Forward the request; send the reply's length prefix and the
    /// first third of its payload, then close (EOF inside a frame).
    Truncate,
    /// Forward the request; flip one ASCII digit inside the reply
    /// payload. Frame and JSON stay valid — only the reply checksum
    /// can tell.
    Corrupt,
    /// Forward the request and two thirds of the reply payload, then
    /// close mid-frame (the shard "died" while answering).
    DisconnectMidReply,
    /// Forward reply frames faithfully until frame `n` (0-based), flip
    /// one ASCII digit inside that frame, then keep forwarding. With
    /// streaming replies this corrupts a single [`TuneShardPart`] in
    /// the middle of an otherwise healthy stream — only its checksum
    /// can tell.
    ///
    /// [`TuneShardPart`]: crate::protocol::TuneShardPart
    CorruptFrame(u32),
    /// Forward reply frames faithfully until frame `n` (0-based), send
    /// that frame's length prefix and the first third of its payload,
    /// then close — EOF inside a mid-stream part, after real progress
    /// was already delivered.
    TruncateFrame(u32),
    /// Forward everything, but sleep this many milliseconds before
    /// each reply frame: a shard whose *stream* is slow. Blocking
    /// coordinators see one big stall; streaming coordinators watch
    /// the covered watermark crawl and can judge the shard per frame.
    StallBetweenFrames(u64),
    /// Forward reply frames at full speed until frame `after_frame`
    /// (0-based); from then on, sleep `ms_per_candidate` milliseconds
    /// *per candidate the frame covers* before forwarding it. This is
    /// a throughput collapse, not a failure: the connection stays
    /// healthy, frames keep arriving, checksums keep passing — only
    /// the candidates-per-second rate craters. It is the shape the
    /// coordinator's cliff detector must catch with no disconnect or
    /// corruption to lean on, and (unlike a flat stall) the penalty
    /// scales with how much work is still routed to the sick shard.
    ThroughputCliff {
        /// First reply frame (0-based) the collapse applies to.
        after_frame: u32,
        /// Added latency per candidate in each slowed frame.
        ms_per_candidate: u64,
    },
}

/// splitmix64: the one-shot bit mixer used wherever the fleet needs
/// reproducible pseudo-randomness (fault schedules, backoff jitter)
/// without a `rand` dependency.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A reproducible schedule of per-connection fault actions.
///
/// Connection `n` (0-based, in accept order) gets `actions[n]`;
/// connections beyond the schedule get [`FaultAction::Pass`]. A plan is
/// therefore always *finitely* faulty: a coordinator that keeps
/// retrying eventually reaches a clean connection, which is what makes
/// "the winner never changes under any seeded plan" a provable
/// property rather than a probabilistic one.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    actions: Vec<FaultAction>,
}

impl FaultPlan {
    /// A plan that never misbehaves.
    pub fn passthrough() -> FaultPlan {
        FaultPlan::script(Vec::new())
    }

    /// An explicit per-connection script (then `Pass` forever).
    pub fn script(actions: Vec<FaultAction>) -> FaultPlan {
        FaultPlan { actions }
    }

    /// A pseudo-random schedule of `len` actions derived entirely from
    /// `seed`: same seed, same faults, same order.
    pub fn seeded(seed: u64, len: usize) -> FaultPlan {
        let actions = (0..len as u64)
            .map(|i| {
                let r = mix64(seed ^ mix64(i));
                match r % 10 {
                    0 => FaultAction::Pass,
                    1 => FaultAction::Drop,
                    2 => FaultAction::Delay(10 + (r >> 8) % 50),
                    3 => FaultAction::Truncate,
                    4 => FaultAction::Corrupt,
                    5 => FaultAction::DisconnectMidReply,
                    6 => FaultAction::CorruptFrame(((r >> 8) % 4) as u32),
                    7 => FaultAction::TruncateFrame(((r >> 8) % 4) as u32),
                    8 => FaultAction::StallBetweenFrames(5 + (r >> 8) % 30),
                    _ => FaultAction::ThroughputCliff {
                        after_frame: ((r >> 8) % 4) as u32,
                        ms_per_candidate: 1 + (r >> 16) % 3,
                    },
                }
            })
            .collect();
        FaultPlan { actions }
    }

    /// The action for connection `n` (accept order).
    pub fn action(&self, n: u64) -> FaultAction {
        usize::try_from(n)
            .ok()
            .and_then(|i| self.actions.get(i).copied())
            .unwrap_or(FaultAction::Pass)
    }

    /// Scheduled actions (excluding the implicit `Pass` tail).
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the plan is pure passthrough.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

/// A running fault-injection proxy in front of one upstream address.
///
/// Listens on an ephemeral localhost port ([`FaultProxy::local_addr`]);
/// point the coordinator's shard address at it instead of the shard.
pub struct FaultProxy {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    accepted: Arc<AtomicU64>,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl FaultProxy {
    /// Start proxying `127.0.0.1:0` → `upstream` under `plan`.
    pub fn start(upstream: SocketAddr, plan: FaultPlan) -> std::io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accepted = Arc::new(AtomicU64::new(0));
        let conns = Arc::new(Mutex::new(Vec::new()));

        let acceptor = {
            let stop = Arc::clone(&stop);
            let accepted = Arc::clone(&accepted);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("fault-proxy".to_string())
                .spawn(move || loop {
                    match listener.accept() {
                        Ok((client, _)) => {
                            if stop.load(Ordering::Acquire) {
                                break;
                            }
                            let n = accepted.fetch_add(1, Ordering::Relaxed);
                            let action = plan.action(n);
                            let stop2 = Arc::clone(&stop);
                            let handle = std::thread::Builder::new()
                                .name("fault-proxy-conn".to_string())
                                .spawn(move || proxy_connection(client, upstream, action, &stop2))
                                .expect("spawn proxy connection thread");
                            conns.lock().push(handle);
                        }
                        Err(_) => {
                            if stop.load(Ordering::Acquire) {
                                break;
                            }
                        }
                    }
                })?
        };

        Ok(FaultProxy {
            local,
            stop,
            accepted,
            acceptor: Some(acceptor),
            conns,
        })
    }

    /// The address the coordinator should dial.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Connections accepted so far (== plan positions consumed).
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Stop accepting, sever live connections, join every thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the acceptor's blocking accept().
        let _ = TcpStream::connect(self.local);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        loop {
            let handle = self.conns.lock().pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }
}

/// Sleep `ms` in slices, returning early (false) if `stop` fires.
fn nap(ms: u64, stop: &AtomicBool) -> bool {
    let mut left = ms;
    while left > 0 {
        if stop.load(Ordering::Acquire) {
            return false;
        }
        let step = left.min(20);
        std::thread::sleep(Duration::from_millis(step));
        left -= step;
    }
    !stop.load(Ordering::Acquire)
}

/// Flip the last ASCII digit in `payload` (keeps JSON shape valid so
/// the corruption can only be caught by the reply checksum). Last, not
/// first: in a serialized shard reply the first digit is the epoch
/// field, whose tampering reads as staleness; the last digit sits in
/// the body, where only the checksum can catch it.
fn corrupt_digit(payload: &mut [u8]) {
    if let Some(b) = payload.iter_mut().rev().find(|b| b.is_ascii_digit()) {
        *b = if *b == b'9' { b'1' } else { *b + 1 };
    }
}

fn proxy_connection(
    mut client: TcpStream,
    upstream: SocketAddr,
    action: FaultAction,
    stop: &AtomicBool,
) {
    match action {
        FaultAction::Drop => return, // client socket drops: immediate EOF
        FaultAction::Delay(ms) if !nap(ms, stop) => return,
        _ => {}
    }
    let mut upstream = match TcpStream::connect_timeout(&upstream, Duration::from_secs(2)) {
        Ok(s) => s,
        Err(_) => return,
    };
    let _ = client.set_nodelay(true);
    let _ = upstream.set_nodelay(true);

    // Request direction: dumb byte pump, client → upstream. EOF (or a
    // severed client) propagates as a write-shutdown so the shard's
    // connection reader sees the peer leave.
    let pump = {
        let mut c = match client.try_clone() {
            Ok(c) => c,
            Err(_) => return,
        };
        let mut u = match upstream.try_clone() {
            Ok(u) => u,
            Err(_) => return,
        };
        let _ = c.set_read_timeout(Some(Duration::from_millis(25)));
        let stop2 = Arc::new(AtomicBool::new(false)); // local: pump dies with conn
        let stop2c = Arc::clone(&stop2);
        let handle = std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            loop {
                if stop2c.load(Ordering::Acquire) {
                    break;
                }
                match c.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => {
                        if u.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        continue
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
            let _ = u.shutdown(Shutdown::Write);
        });
        (handle, stop2)
    };

    // Reply direction: frame-aware, so faults land *inside* frames —
    // and frame-indexed, so stream-aware faults land on a *specific*
    // frame of a multi-part reply.
    let mut frame: u32 = 0;
    let _ = upstream.set_read_timeout(Some(Duration::from_millis(25)));
    let mut stopped = || stop.load(Ordering::Acquire);
    while let Ok(mut payload) =
        read_frame_until(&mut upstream, DEFAULT_MAX_FRAME, Some(&mut stopped))
    {
        let len = payload.len() as u32;
        let forward = |client: &mut TcpStream, payload: &[u8]| {
            client
                .write_all(&len.to_be_bytes())
                .and_then(|()| client.write_all(payload))
                .map(|()| true)
        };
        let cut = |client: &mut TcpStream, payload: &[u8], keep: usize| {
            client
                .write_all(&len.to_be_bytes())
                .and_then(|()| client.write_all(&payload[..keep]))
                .map(|()| false)
        };
        let sent = match action {
            FaultAction::Pass | FaultAction::Delay(_) => forward(&mut client, &payload),
            FaultAction::Corrupt => {
                corrupt_digit(&mut payload);
                forward(&mut client, &payload)
            }
            FaultAction::CorruptFrame(n) => {
                if frame == n {
                    corrupt_digit(&mut payload);
                }
                forward(&mut client, &payload)
            }
            FaultAction::Truncate => cut(&mut client, &payload, payload.len() / 3),
            FaultAction::TruncateFrame(n) => {
                if frame == n {
                    cut(&mut client, &payload, payload.len() / 3)
                } else {
                    forward(&mut client, &payload)
                }
            }
            FaultAction::DisconnectMidReply => cut(&mut client, &payload, payload.len() * 2 / 3),
            FaultAction::StallBetweenFrames(ms) => {
                if !nap(ms, stop) {
                    break;
                }
                forward(&mut client, &payload)
            }
            FaultAction::ThroughputCliff {
                after_frame,
                ms_per_candidate,
            } => {
                if frame >= after_frame {
                    // Charge per candidate the frame carries, so the
                    // stall tracks the work actually routed here.
                    let count = match decode_response_any(&payload) {
                        Ok((_, Response::TuneShardPart(p), _)) => p.body.count,
                        Ok((_, Response::TuneSharded(t), _)) => t.body.count,
                        _ => 1,
                    };
                    if !nap(count.saturating_mul(ms_per_candidate), stop) {
                        break;
                    }
                }
                forward(&mut client, &payload)
            }
            FaultAction::Drop => unreachable!("Drop closes before any byte moves"),
        };
        frame += 1;
        match sent {
            Ok(true) => continue,
            Ok(false) | Err(_) => break, // fault delivered (or client gone)
        }
    }

    // Sever both halves so the pump exits, then reap it.
    let _ = client.shutdown(Shutdown::Both);
    let _ = upstream.shutdown(Shutdown::Both);
    pump.1.store(true, Ordering::Release);
    let _ = pump.0.join();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible_and_finite() {
        let a = FaultPlan::seeded(42, 16);
        let b = FaultPlan::seeded(42, 16);
        for n in 0..20 {
            assert_eq!(a.action(n), b.action(n));
        }
        // Beyond the schedule: always Pass (finitely faulty).
        assert_eq!(a.action(16), FaultAction::Pass);
        assert_eq!(a.action(1_000_000), FaultAction::Pass);
        // Different seeds should differ somewhere in a 16-slot plan.
        let c = FaultPlan::seeded(43, 16);
        assert!((0..16).any(|n| a.action(n) != c.action(n)));
    }

    #[test]
    fn corrupt_digit_flips_exactly_one_digit() {
        let mut payload = b"{\"score\":123}".to_vec();
        let before = payload.clone();
        corrupt_digit(&mut payload);
        let diffs: Vec<usize> = (0..payload.len())
            .filter(|&i| payload[i] != before[i])
            .collect();
        assert_eq!(diffs.len(), 1);
        assert!(before[diffs[0]].is_ascii_digit());
        assert!(payload[diffs[0]].is_ascii_digit());
    }
}
