//! cp-chaos-proxy — a deterministic in-process TCP fault proxy.
//!
//! Sits between a replication (or HTTP) client and its server and applies
//! a scheduled sequence of network faults to everything that flows
//! through it:
//!
//! * `open` — pass-through, both directions;
//! * `cut` — full partition: existing connections are torn down and new
//!   ones are reset on arrival, exactly what a yanked cable looks like;
//! * `stall` / `stall_up` / `stall_down` — bytes stop flowing (in one or
//!   both directions) but connections stay up: the silent-peer case that
//!   must trip ack deadlines, not error paths;
//! * `drop_up` / `drop_down` — one-way byte loss: data is read off the
//!   socket and discarded, so the sender sees progress while the receiver
//!   sees silence (the asymmetric-partition case);
//! * `throttle=N` — both directions trickle at N bytes/second in small
//!   seeded chunks, the slow-link case that must demote a follower to
//!   behind without killing its stream.
//!
//! Faults come from a *schedule* — `open:500,cut:1000,open:0` holds each
//! phase for its duration in ms, `0` meaning forever — so a chaos run is
//! reproducible from its spec alone: same schedule, same seed, same
//! connection pattern → same observable fault sequence. Tests drive
//! phases directly via [`ChaosProxy::set_phase`] for exact control; the
//! `cp-serve chaos-proxy` subcommand and `scripts/cluster.sh` drive them
//! from the wall-clock schedule.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a pump thread re-checks the phase while idle or stalled.
const PUMP_TICK: Duration = Duration::from_millis(5);

/// Pump read timeout: bounds how stale a pump's view of the phase can be.
const PUMP_READ_TIMEOUT: Duration = Duration::from_millis(10);

/// One network condition the proxy imposes on its streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Pass-through.
    Open,
    /// Full partition: connections die, new ones are reset.
    Cut,
    /// No bytes move in either direction; connections stay up.
    Stall,
    /// Client→server bytes stop; server→client still flows.
    StallUp,
    /// Server→client bytes stop; client→server still flows.
    StallDown,
    /// Client→server bytes are read and discarded.
    DropUp,
    /// Server→client bytes are read and discarded.
    DropDown,
    /// Both directions limited to this many bytes per second.
    Throttle(u32),
}

impl Phase {
    /// The schedule-spec name (inverse of [`parse_schedule`]'s entries).
    pub fn label(&self) -> String {
        match self {
            Phase::Open => "open".to_string(),
            Phase::Cut => "cut".to_string(),
            Phase::Stall => "stall".to_string(),
            Phase::StallUp => "stall_up".to_string(),
            Phase::StallDown => "stall_down".to_string(),
            Phase::DropUp => "drop_up".to_string(),
            Phase::DropDown => "drop_down".to_string(),
            Phase::Throttle(rate) => format!("throttle={rate}"),
        }
    }

    /// Packs the phase into one atomic word: tag in the high bits, the
    /// throttle rate in the low 32. Pumps decode this every tick without
    /// taking a lock.
    fn encode(self) -> u64 {
        match self {
            Phase::Open => 0 << 32,
            Phase::Cut => 1 << 32,
            Phase::Stall => 2 << 32,
            Phase::StallUp => 3 << 32,
            Phase::StallDown => 4 << 32,
            Phase::DropUp => 5 << 32,
            Phase::DropDown => 6 << 32,
            Phase::Throttle(rate) => (7 << 32) | u64::from(rate),
        }
    }

    fn decode(word: u64) -> Phase {
        match word >> 32 {
            0 => Phase::Open,
            1 => Phase::Cut,
            2 => Phase::Stall,
            3 => Phase::StallUp,
            4 => Phase::StallDown,
            5 => Phase::DropUp,
            6 => Phase::DropDown,
            _ => Phase::Throttle(word as u32),
        }
    }
}

/// Parses a `phase:duration_ms[,phase:duration_ms...]` schedule spec.
/// Duration `0` means "hold forever" (only meaningful on the last entry;
/// later entries would never run). `throttle=RATE:ms` sets the rate.
pub fn parse_schedule(spec: &str) -> Result<Vec<(Phase, Duration)>, String> {
    let mut schedule = Vec::new();
    for entry in spec.split(',').filter(|e| !e.is_empty()) {
        let (name, duration) = entry
            .rsplit_once(':')
            .ok_or_else(|| format!("schedule entry {entry:?} must be PHASE:DURATION_MS"))?;
        let millis: u64 = duration
            .parse()
            .map_err(|_| format!("schedule entry {entry:?} has a non-numeric duration"))?;
        let phase = match name {
            "open" => Phase::Open,
            "cut" => Phase::Cut,
            "stall" => Phase::Stall,
            "stall_up" => Phase::StallUp,
            "stall_down" => Phase::StallDown,
            "drop_up" => Phase::DropUp,
            "drop_down" => Phase::DropDown,
            other => match other.strip_prefix("throttle=") {
                Some(rate) => {
                    Phase::Throttle(rate.parse::<u32>().ok().filter(|&r| r >= 1).ok_or_else(
                        || format!("throttle rate {rate:?} must be a positive integer"),
                    )?)
                }
                None => return Err(format!("unknown phase {name:?}")),
            },
        };
        schedule.push((phase, Duration::from_millis(millis)));
    }
    if schedule.is_empty() {
        return Err("schedule must have at least one phase".to_string());
    }
    Ok(schedule)
}

struct ProxyInner {
    target: String,
    phase: AtomicU64,
    /// Bumped on every transition *into* `cut`: pumps born before the
    /// bump tear down even if the phase has already moved on by the time
    /// they notice — a partition kills connections exactly once.
    cut_epoch: AtomicU64,
    seed: u64,
    shutting_down: AtomicBool,
    addr: SocketAddr,
}

/// A running fault proxy. Dropping the handle shuts it down.
pub struct ChaosProxy {
    inner: Arc<ProxyInner>,
    acceptor: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds `listen` (`host:port`, port 0 picks free) and forwards every
    /// connection to `target` under the current phase (initially `open`).
    pub fn start(listen: &str, target: &str, seed: u64) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(ProxyInner {
            target: target.to_string(),
            phase: AtomicU64::new(Phase::Open.encode()),
            cut_epoch: AtomicU64::new(0),
            seed,
            shutting_down: AtomicBool::new(false),
            addr,
        });
        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || proxy_accept_loop(&inner, &listener))
        };
        Ok(ChaosProxy { inner, acceptor: Some(acceptor) })
    }

    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The current phase.
    pub fn phase(&self) -> Phase {
        Phase::decode(self.inner.phase.load(Ordering::Acquire))
    }

    /// Switches the imposed fault. Entering `cut` tears every live
    /// proxied connection down within a pump tick.
    pub fn set_phase(&self, phase: Phase) {
        if phase == Phase::Cut {
            self.inner.cut_epoch.fetch_add(1, Ordering::AcqRel);
        }
        self.inner.phase.store(phase.encode(), Ordering::Release);
    }

    /// Runs a parsed schedule to completion (the last phase holds until
    /// shutdown when its duration is zero — otherwise the proxy ends
    /// `open`). Logs each transition to stderr with its offset from
    /// start, so a captured transcript documents the fault sequence.
    pub fn run_schedule(&self, schedule: &[(Phase, Duration)]) {
        let started = Instant::now();
        for (i, (phase, hold)) in schedule.iter().enumerate() {
            if self.inner.shutting_down.load(Ordering::SeqCst) {
                return;
            }
            self.set_phase(*phase);
            eprintln!(
                "cp-chaos-proxy: t={}ms phase -> {}",
                started.elapsed().as_millis(),
                phase.label()
            );
            let forever = hold.is_zero() && i == schedule.len() - 1;
            let deadline = Instant::now() + *hold;
            while forever || Instant::now() < deadline {
                if self.inner.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(PUMP_TICK);
            }
        }
    }

    /// Stops accepting and unblocks the acceptor (idempotent).
    pub fn shutdown(&self) {
        if !self.inner.shutting_down.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.inner.addr, Duration::from_secs(1));
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

fn proxy_accept_loop(inner: &Arc<ProxyInner>, listener: &TcpListener) {
    loop {
        let client = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) if inner.shutting_down.load(Ordering::SeqCst) => break,
            Err(_) => continue,
        };
        if inner.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        // During a partition a new connection dies on arrival — the
        // dialer sees a reset on its first read, like a dead route.
        if Phase::decode(inner.phase.load(Ordering::Acquire)) == Phase::Cut {
            drop(client);
            continue;
        }
        let server = match TcpStream::connect(&inner.target) {
            Ok(server) => server,
            Err(_) => continue, // target down: the client sees the reset
        };
        let _ = client.set_nodelay(true);
        let _ = server.set_nodelay(true);
        spawn_pump(inner, &client, &server, true);
        spawn_pump(inner, &server, &client, false);
    }
}

/// Starts one direction's pump thread. `up` is client→server.
fn spawn_pump(inner: &Arc<ProxyInner>, from: &TcpStream, to: &TcpStream, up: bool) {
    let (Ok(from), Ok(to)) = (from.try_clone(), to.try_clone()) else { return };
    let inner = Arc::clone(inner);
    std::thread::spawn(move || pump(&inner, from, to, up));
}

/// Forwards bytes `from` → `to` under the current phase until either side
/// dies, a cut fires, or the proxy shuts down.
fn pump(inner: &Arc<ProxyInner>, mut from: TcpStream, mut to: TcpStream, up: bool) {
    let born_epoch = inner.cut_epoch.load(Ordering::Acquire);
    let _ = from.set_read_timeout(Some(PUMP_READ_TIMEOUT));
    let mut buf = [0u8; 16 * 1024];
    // Throttle bookkeeping: bytes already forwarded in the current
    // one-second window.
    let mut window_start = Instant::now();
    let mut window_bytes: u64 = 0;
    let mut chunk_counter: u64 = 0;
    loop {
        if inner.shutting_down.load(Ordering::SeqCst)
            || inner.cut_epoch.load(Ordering::Acquire) != born_epoch
        {
            break;
        }
        let phase = Phase::decode(inner.phase.load(Ordering::Acquire));
        let stalled = matches!(phase, Phase::Stall)
            || (up && phase == Phase::StallUp)
            || (!up && phase == Phase::StallDown);
        if phase == Phase::Cut {
            break;
        }
        if stalled {
            // Leave the bytes in the kernel buffer: on heal they flow
            // again, intact — a stall delays, it does not corrupt.
            std::thread::sleep(PUMP_TICK);
            continue;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => break, // clean EOF: propagate by closing both
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => break,
        };
        let dropping = (up && phase == Phase::DropUp) || (!up && phase == Phase::DropDown);
        if dropping {
            continue; // read and discarded: one-way loss
        }
        let mut sent = 0usize;
        while sent < n {
            let slice = if let Phase::Throttle(rate) = phase {
                // Refill the byte budget once per second; trickle it out
                // in small seeded chunks so frame boundaries land at
                // deterministic—but unaligned—offsets.
                if window_start.elapsed() >= Duration::from_secs(1) {
                    window_start = Instant::now();
                    window_bytes = 0;
                }
                if window_bytes >= u64::from(rate) {
                    std::thread::sleep(PUMP_TICK);
                    continue;
                }
                chunk_counter += 1;
                let max_chunk = (u64::from(rate) - window_bytes).clamp(1, 256);
                1 + (mix(inner.seed, chunk_counter) % max_chunk) as usize
            } else {
                n - sent
            };
            let end = (sent + slice).min(n);
            match to.write_all(&buf[sent..end]) {
                Ok(()) => {
                    window_bytes += (end - sent) as u64;
                    sent = end;
                }
                Err(_) => {
                    teardown(&from, &to);
                    return;
                }
            }
        }
    }
    teardown(&from, &to);
}

/// Closes both halves so the counterpart pump and the endpoints all see
/// the connection die promptly.
fn teardown(a: &TcpStream, b: &TcpStream) {
    let _ = a.shutdown(Shutdown::Both);
    let _ = b.shutdown(Shutdown::Both);
}

/// SplitMix64-style avalanche over (seed, counter) — the deterministic
/// chunk-size stream for throttled forwarding.
fn mix(seed: u64, counter: u64) -> u64 {
    let mut z = seed ^ counter.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_parsing_round_trips() {
        let schedule = parse_schedule("open:500,cut:1000,throttle=1024:250,open:0").unwrap();
        assert_eq!(
            schedule,
            vec![
                (Phase::Open, Duration::from_millis(500)),
                (Phase::Cut, Duration::from_millis(1000)),
                (Phase::Throttle(1024), Duration::from_millis(250)),
                (Phase::Open, Duration::ZERO),
            ]
        );
        for bad in ["", "nope:10", "open", "open:abc", "throttle=0:10", "throttle=x:10"] {
            assert!(parse_schedule(bad).is_err(), "{bad:?} must be rejected");
        }
        // Labels invert the parse.
        for (phase, _) in &schedule {
            let spec = format!("{}:1", phase.label());
            assert_eq!(parse_schedule(&spec).unwrap()[0].0, *phase);
        }
    }

    #[test]
    fn phase_word_round_trips() {
        for phase in [
            Phase::Open,
            Phase::Cut,
            Phase::Stall,
            Phase::StallUp,
            Phase::StallDown,
            Phase::DropUp,
            Phase::DropDown,
            Phase::Throttle(1),
            Phase::Throttle(u32::MAX),
        ] {
            assert_eq!(Phase::decode(phase.encode()), phase);
        }
    }

    /// An echo server for pump tests: reads lines, writes them back.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            while let Ok((mut stream, _)) = listener.accept() {
                let mut buf = [0u8; 1024];
                loop {
                    match stream.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if stream.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
            }
        });
        (addr, handle)
    }

    fn read_some(stream: &mut TcpStream, want: usize) -> std::io::Result<Vec<u8>> {
        let mut out = vec![0u8; want];
        let mut filled = 0;
        while filled < want {
            match stream.read(&mut out[filled..]) {
                Ok(0) => return Err(std::io::Error::other("eof")),
                Ok(n) => filled += n,
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    #[test]
    fn open_passes_cut_kills_heal_reconnects() {
        let (addr, _server) = echo_server();
        let proxy = ChaosProxy::start("127.0.0.1:0", &addr.to_string(), 7).unwrap();
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        conn.write_all(b"hello").unwrap();
        assert_eq!(read_some(&mut conn, 5).unwrap(), b"hello");

        // Cut: the live connection dies and new ones are reset.
        proxy.set_phase(Phase::Cut);
        std::thread::sleep(Duration::from_millis(50));
        conn.write_all(b"into the void").ok();
        let mut buf = [0u8; 1];
        assert!(
            matches!(conn.read(&mut buf), Ok(0) | Err(_)),
            "partitioned connection must be dead"
        );
        let mut fresh = TcpStream::connect(proxy.addr()).unwrap();
        fresh.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
        fresh.write_all(b"x").ok();
        assert!(
            matches!(fresh.read(&mut buf), Ok(0) | Err(_)),
            "connections during a partition must be reset"
        );

        // Heal: a fresh connection works again.
        proxy.set_phase(Phase::Open);
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        conn.write_all(b"back").unwrap();
        assert_eq!(read_some(&mut conn, 4).unwrap(), b"back");
    }

    #[test]
    fn stall_delays_without_losing_bytes() {
        let (addr, _server) = echo_server();
        let proxy = ChaosProxy::start("127.0.0.1:0", &addr.to_string(), 7).unwrap();
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
        proxy.set_phase(Phase::Stall);
        std::thread::sleep(Duration::from_millis(30));
        conn.write_all(b"delayed").unwrap();
        let mut buf = [0u8; 7];
        assert!(conn.read(&mut buf).is_err(), "stalled bytes must not arrive");
        proxy.set_phase(Phase::Open);
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        assert_eq!(read_some(&mut conn, 7).unwrap(), b"delayed", "healed stall loses nothing");
    }

    #[test]
    fn drop_up_loses_bytes_but_keeps_the_connection() {
        let (addr, _server) = echo_server();
        let proxy = ChaosProxy::start("127.0.0.1:0", &addr.to_string(), 7).unwrap();
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
        proxy.set_phase(Phase::DropUp);
        std::thread::sleep(Duration::from_millis(30));
        conn.write_all(b"lost").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let mut buf = [0u8; 4];
        assert!(conn.read(&mut buf).is_err(), "dropped bytes never echo back");
        proxy.set_phase(Phase::Open);
        // A pump mid-read may still hold the stale DropUp phase for one
        // read-timeout tick; write after it has certainly re-sampled.
        std::thread::sleep(Duration::from_millis(50));
        conn.write_all(b"kept").unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        assert_eq!(read_some(&mut conn, 4).unwrap(), b"kept", "the connection survived the drop");
    }

    #[test]
    fn throttle_paces_and_preserves_bytes() {
        let (addr, _server) = echo_server();
        let proxy = ChaosProxy::start("127.0.0.1:0", &addr.to_string(), 7).unwrap();
        proxy.set_phase(Phase::Throttle(100_000));
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let payload: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
        conn.write_all(&payload).unwrap();
        let echoed = read_some(&mut conn, payload.len()).unwrap();
        assert_eq!(echoed, payload, "throttled bytes arrive complete and in order");
    }
}
