//! The serving path of both the node and the router: sharded nonblocking
//! event loops.
//!
//! `shards` threads each own a [`cp_runtime::net::Poller`], a slice of
//! connections, and a clone of the shared listener, registered
//! `EPOLLEXCLUSIVE` on Linux so one polling shard wakes per accept
//! without a dedicated acceptor thread (the `poll(2)` backend on other
//! unix targets wakes every polling shard and one wins the accept). A
//! service that blocks inside `route` (the router) also balances accepts
//! ([`Service::BALANCE_ACCEPTS`]). Each connection carries a read buffer
//! feeding the incremental request parser and a write buffer holding
//! fully assembled responses (head + body contiguous), flushed with
//! single `write` calls. There are no per-connection threads and no locks
//! on the hot path: a request is read, parsed, routed, recorded, and
//! serialized entirely on its shard.
//!
//! What a request routes to is the [`Service`] behind the loop: the
//! node's handlers, or the router's proxy. Non-unix targets have no
//! poller; [`spawn`] fails there with [`io::ErrorKind::Unsupported`]
//! before any thread starts.

use std::borrow::Cow;
use std::io;
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cp_runtime::json::Json;

use crate::http::{HttpRequest, Limits};
use crate::metrics::{Endpoint, ServiceMetrics};

/// What an event loop serves: the node ([`crate::server`]) or the router
/// ([`crate::router`]).
pub(crate) trait Service: Send + Sync + 'static {
    /// State each shard keeps across the requests it routes (the router's
    /// keep-alive upstream clients); `()` when there is none.
    type ShardState: Default + Send;

    /// Spread connections over the shards: only the shards holding the
    /// fewest connections poll the listener, a shard inside `route` counts
    /// as fullest, and an accepting shard stops as soon as another holds
    /// fewer. Worth it only when `route` blocks, since connections that
    /// share a shard then wait on each other; off, the kernel picks the
    /// shard.
    const BALANCE_ACCEPTS: bool = false;

    /// Routes one parsed request.
    fn route(&self, state: &mut Self::ShardState, request: &HttpRequest) -> Routed;

    /// The registry every request, wakeup, and close is recorded in.
    fn metrics(&self) -> &ServiceMetrics;

    /// Whether shutdown has begun: new connections are dropped, responses
    /// carry `Connection: close`, and idle connections close.
    fn shutting_down(&self) -> bool;
}

/// A routed response; the reason phrase follows from the status
/// ([`crate::http::reason`]).
pub(crate) struct Routed {
    /// The endpoint the request is recorded under.
    pub(crate) endpoint: Endpoint,
    pub(crate) status: u16,
    /// Borrowed for the node's fixed types; owned when the router relays
    /// a backend's.
    pub(crate) content_type: Cow<'static, str>,
    pub(crate) body: Vec<u8>,
}

impl Routed {
    /// A JSON response.
    pub(crate) fn json(endpoint: Endpoint, status: u16, body: Vec<u8>) -> Routed {
        Routed { endpoint, status, content_type: Cow::Borrowed("application/json"), body }
    }

    /// A `{"error": msg}` JSON response.
    pub(crate) fn error(endpoint: Endpoint, status: u16, msg: &str) -> Routed {
        Routed::json(endpoint, status, error_json(msg))
    }
}

/// The `{"error": msg}` body of every error response.
pub(crate) fn error_json(msg: &str) -> Vec<u8> {
    Json::object().set("error", msg).to_compact().into_bytes()
}

#[cfg(unix)]
pub(crate) use imp::spawn;

/// Non-unix targets have no poller.
#[cfg(not(unix))]
pub(crate) fn spawn<S: Service>(
    _: &Arc<S>,
    _: &TcpListener,
    _: usize,
    _: usize,
    _: Duration,
    _: Duration,
    _: Limits,
) -> io::Result<Vec<JoinHandle<()>>> {
    Err(io::Error::new(io::ErrorKind::Unsupported, "no poller on this platform"))
}

#[cfg(unix)]
mod imp {
    use std::collections::HashMap;
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;
    use std::os::unix::io::AsRawFd;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

    use cp_runtime::net::{PollEvent, Poller};

    use super::*;
    use crate::http::{append_response, parse_request_buffer, reason, write_response, HttpError};

    /// The listener's registration token; connections start at 1.
    const LISTENER_TOKEN: u64 = 0;

    /// Upper bound between housekeeping passes (timeout sweeps, drain
    /// checks): the loop wakes at least this often even when idle.
    const TICK: Duration = Duration::from_millis(100);

    /// Per-`read` chunk size; larger requests just take extra reads.
    const READ_CHUNK: usize = 16 * 1024;

    /// Spawns `shards` (at least 1) loop threads serving `service` on
    /// `listener`. At most `max_conns` connections are open at once across
    /// all shards; an accept beyond that is answered `503` and closed.
    /// Fails before any thread starts when no poller can be created.
    pub(crate) fn spawn<S: Service>(
        service: &Arc<S>,
        listener: &TcpListener,
        shards: usize,
        max_conns: usize,
        read_timeout: Duration,
        write_timeout: Duration,
        limits: Limits,
    ) -> io::Result<Vec<JoinHandle<()>>> {
        // Create every poller up front so a failure returns before any
        // thread spawns or the listener changes mode.
        let mut pollers = Vec::with_capacity(shards);
        for _ in 0..shards {
            pollers.push(Poller::new()?);
        }
        // Nonblocking applies to the shared file description: every
        // shard's clone inherits it.
        listener.set_nonblocking(true)?;
        // The count is global so the cap holds regardless of which shard
        // the kernel wakes.
        let conn_count = Arc::new(AtomicUsize::new(0));
        let loads: Arc<[AtomicUsize]> = pollers.iter().map(|_| AtomicUsize::new(0)).collect();
        pollers
            .into_iter()
            .enumerate()
            .map(|(index, poller)| {
                let shard = Shard {
                    service: Arc::clone(service),
                    state: S::ShardState::default(),
                    listener: listener.try_clone()?,
                    poller,
                    accepting: true,
                    index,
                    loads: Arc::clone(&loads),
                    conn_count: Arc::clone(&conn_count),
                    max_conns,
                    read_timeout,
                    write_timeout,
                    limits,
                    conns: HashMap::new(),
                    next_token: LISTENER_TOKEN + 1,
                };
                Ok(std::thread::spawn(move || shard.run()))
            })
            .collect()
    }

    /// One connection owned by a shard.
    struct Conn {
        stream: TcpStream,
        /// Bytes received but not yet parsed into a request.
        inbuf: Vec<u8>,
        /// Assembled responses (head + body) not yet on the wire.
        outbuf: Vec<u8>,
        /// How much of `outbuf` has been written.
        out_pos: usize,
        /// Last byte of progress in either direction; timeout sweeps key
        /// off this.
        last_activity: Instant,
        /// Close (recording `close_cause`) once `outbuf` drains.
        close_after_flush: bool,
        close_cause: &'static str,
        /// Currently registered for write readiness.
        want_write: bool,
    }

    enum Flushed {
        Done,
        Pending,
        Failed,
    }

    struct Shard<S: Service> {
        service: Arc<S>,
        state: S::ShardState,
        listener: TcpListener,
        poller: Poller,
        /// The listener is registered with `poller`.
        accepting: bool,
        /// This shard's slot in `loads`.
        index: usize,
        /// Open connections per shard, published by each shard.
        loads: Arc<[AtomicUsize]>,
        conn_count: Arc<AtomicUsize>,
        max_conns: usize,
        read_timeout: Duration,
        write_timeout: Duration,
        limits: Limits,
        conns: HashMap<u64, Conn>,
        next_token: u64,
    }

    impl<S: Service> Shard<S> {
        fn run(mut self) {
            if self.poller.add_exclusive(self.listener.as_raw_fd(), LISTENER_TOKEN).is_err() {
                return; // dead poller: bail rather than spin
            }
            let mut events: Vec<PollEvent> = Vec::new();
            loop {
                events.clear();
                let timeout = TICK.min(self.read_timeout);
                let _ = self.poller.wait(&mut events, Some(timeout));
                let metrics = self.service.metrics();
                metrics.event_loop_wakeups.inc();
                metrics.ready_conns.set(events.len() as i64);
                for ev in events.iter().copied() {
                    if ev.token == LISTENER_TOKEN {
                        self.accept_burst();
                    } else {
                        self.drive(ev);
                    }
                }
                self.sweep_timeouts();
                if S::BALANCE_ACCEPTS {
                    self.balance_accepts();
                }
                if self.service.shutting_down() {
                    self.drain();
                    if self.conns.is_empty() {
                        break;
                    }
                }
            }
        }

        /// Accepts until the backlog is empty (the listener is
        /// level-triggered, so anything left re-fires the next wait) or,
        /// when balancing, until another shard holds fewer connections
        /// (what is left wakes a shard still polling the listener).
        fn accept_burst(&mut self) {
            while !S::BALANCE_ACCEPTS || self.least_loaded() {
                let stream = match self.listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                };
                if self.service.shutting_down() {
                    continue; // the shutdown wake-up self-connect, or a late arrival
                }
                self.service.metrics().connections_total.inc();
                if self.conn_count.fetch_add(1, Ordering::AcqRel) >= self.max_conns {
                    self.conn_count.fetch_sub(1, Ordering::AcqRel);
                    self.shed(stream);
                    continue;
                }
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    self.conn_count.fetch_sub(1, Ordering::AcqRel);
                    continue;
                }
                let token = self.next_token;
                self.next_token += 1;
                if self.poller.add(stream.as_raw_fd(), token, false).is_err() {
                    self.conn_count.fetch_sub(1, Ordering::AcqRel);
                    continue;
                }
                self.conns.insert(
                    token,
                    Conn {
                        stream,
                        inbuf: Vec::new(),
                        outbuf: Vec::new(),
                        out_pos: 0,
                        last_activity: Instant::now(),
                        close_after_flush: false,
                        close_cause: "client",
                        want_write: false,
                    },
                );
            }
        }

        /// Publishes this shard's connection count and says whether no
        /// shard holds fewer.
        fn least_loaded(&self) -> bool {
            let mine = self.conns.len();
            // Relaxed: the counts are balancing hints and guard no data.
            self.loads[self.index].store(mine, Ordering::Relaxed);
            self.loads.iter().all(|load| load.load(Ordering::Relaxed) >= mine)
        }

        /// Polls the listener only while no shard holds fewer connections:
        /// a shard that stayed registered while `accept_burst` refuses
        /// would be woken by the same pending connect on every wait, in
        /// place of a shard that takes it. Runs at the end of each pass,
        /// so a shard blocked in `route` (published as fullest by `drive`)
        /// leaves the listener to the others from their next pass, at
        /// most one [`TICK`] away.
        fn balance_accepts(&mut self) {
            let want = self.least_loaded();
            if want != self.accepting {
                let fd = self.listener.as_raw_fd();
                let changed = if want {
                    self.poller.add_exclusive(fd, LISTENER_TOKEN)
                } else {
                    self.poller.remove(fd)
                };
                if changed.is_ok() {
                    self.accepting = want;
                }
            }
        }

        /// Over-capacity admission: answer `503` inline and drop. The
        /// just-accepted socket is still blocking, so the write needs no
        /// registration — it either lands in the socket buffer or the
        /// write timeout gives up.
        fn shed(&self, mut stream: TcpStream) {
            let metrics = self.service.metrics();
            metrics.rejected_total.inc();
            metrics.record_conn_closed("shed");
            let _ = stream.set_write_timeout(Some(self.write_timeout));
            let body = error_json("server overloaded");
            let _ = write_response(&mut stream, 503, reason(503), "application/json", &body, false);
        }

        /// One readiness event on a connection: read + serve, then flush.
        fn drive(&mut self, ev: PollEvent) {
            let Some(conn) = self.conns.get_mut(&ev.token) else { return };
            if ev.readable && !conn.close_after_flush {
                if S::BALANCE_ACCEPTS {
                    // Fullest until the pass ends: `route` may block.
                    self.loads[self.index].store(usize::MAX, Ordering::Relaxed);
                }
                let served = fill_and_serve(&*self.service, &mut self.state, &self.limits, conn);
                if let Some(cause) = served {
                    self.close(ev.token, cause);
                    return;
                }
            }
            self.flush(ev.token);
        }

        /// Writes as much of `outbuf` as the socket takes, adjusting the
        /// write-interest registration around partial flushes.
        fn flush(&mut self, token: u64) {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            let result = flush_conn(conn);
            let fd = conn.stream.as_raw_fd();
            let close_after = conn.close_after_flush;
            let cause = conn.close_cause;
            let want_write = conn.want_write;
            match result {
                Flushed::Failed => self.close(token, "write_failed"),
                Flushed::Done if close_after => self.close(token, cause),
                Flushed::Done => {
                    if want_write {
                        let _ = self.poller.modify(fd, token, false);
                        if let Some(conn) = self.conns.get_mut(&token) {
                            conn.want_write = false;
                        }
                    }
                }
                Flushed::Pending => {
                    if !want_write {
                        let _ = self.poller.modify(fd, token, true);
                        if let Some(conn) = self.conns.get_mut(&token) {
                            conn.want_write = true;
                        }
                    }
                }
            }
        }

        fn close(&mut self, token: u64, cause: &str) {
            if let Some(conn) = self.conns.remove(&token) {
                let _ = self.poller.remove(conn.stream.as_raw_fd());
                self.conn_count.fetch_sub(1, Ordering::AcqRel);
                self.service.metrics().record_conn_closed(cause);
            }
        }

        /// Closes connections that stalled: readers idle past the read
        /// timeout get nothing (the slowloris contract — no response
        /// bytes, just a close), writers stuck past the write timeout are
        /// abandoned.
        fn sweep_timeouts(&mut self) {
            let now = Instant::now();
            let mut expired: Vec<(u64, &'static str)> = Vec::new();
            for (token, conn) in &self.conns {
                let idle = now.duration_since(conn.last_activity);
                if conn.out_pos < conn.outbuf.len() {
                    if idle > self.write_timeout {
                        expired.push((*token, "write_failed"));
                    }
                } else if idle > self.read_timeout {
                    expired.push((*token, "timeout"));
                }
            }
            for (token, cause) in expired {
                self.close(token, cause);
            }
        }

        /// Drain pass once shutdown begins: idle connections close now;
        /// anything mid-flush finishes first (its close is already
        /// scheduled by the `Connection: close` the response carried).
        fn drain(&mut self) {
            let idle: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, conn)| conn.outbuf.is_empty())
                .map(|(token, _)| *token)
                .collect();
            for token in idle {
                self.close(token, "drain");
            }
        }
    }

    /// Reads whatever the socket has, serves every complete request in
    /// the buffer (pipelining included), and returns a close cause when
    /// the connection is already finished (EOF or transport error) —
    /// `None` means keep it registered.
    fn fill_and_serve<S: Service>(
        service: &S,
        state: &mut S::ShardState,
        limits: &Limits,
        conn: &mut Conn,
    ) -> Option<&'static str> {
        let mut chunk = [0u8; READ_CHUNK];
        let mut eof = false;
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.inbuf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                    if n < chunk.len() {
                        break; // short read: the socket is drained
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Some("error"),
            }
        }
        while !conn.close_after_flush {
            match parse_request_buffer(&conn.inbuf, limits) {
                Ok(Some((request, consumed))) => {
                    conn.inbuf.drain(..consumed);
                    serve_request(service, state, conn, &request);
                }
                Ok(None) => break,
                Err(HttpError::BodyTooLarge) => {
                    error_response(service, conn, 413, "body too large");
                }
                Err(err) => {
                    // Malformed / HeadTooLarge / BadVersion → 400, then
                    // close: framing may be lost.
                    let msg = err.to_string();
                    error_response(service, conn, 400, &msg);
                }
            }
        }
        if eof {
            if !conn.close_after_flush {
                conn.close_after_flush = true;
                // EOF mid-request is a transport fault; a clean hangup
                // between requests is just the client moving on.
                conn.close_cause = if conn.inbuf.is_empty() { "client" } else { "error" };
            }
            if conn.outbuf[conn.out_pos..].is_empty() {
                return Some(conn.close_cause); // nothing to flush: close now
            }
        }
        None
    }

    /// Routes one parsed request and appends the response — head and body
    /// assembled contiguously so the flush is a single `write`.
    fn serve_request<S: Service>(
        service: &S,
        state: &mut S::ShardState,
        conn: &mut Conn,
        request: &HttpRequest,
    ) {
        let started = Instant::now();
        let routed = service.route(state, request);
        // Re-read after routing: `/v1/shutdown` flips the flag and its own
        // response must already carry `Connection: close`.
        let draining = service.shutting_down();
        let keep_alive = request.keep_alive() && !draining && routed.status < 500;
        // Record BEFORE the bytes leave: anyone who has seen the response
        // (e.g. a load generator cross-checking /metrics after its last
        // request) must also see its counters.
        let micros = started.elapsed().as_micros() as u64;
        service.metrics().record(routed.endpoint, routed.status, micros);
        append_response(
            &mut conn.outbuf,
            routed.status,
            reason(routed.status),
            &routed.content_type,
            &routed.body,
            keep_alive,
        );
        if !keep_alive {
            conn.close_after_flush = true;
            conn.close_cause = if !request.keep_alive() {
                "client" // HTTP/1.0 or an explicit `Connection: close`
            } else if draining {
                "drain"
            } else {
                "error" // 5xx: close so the peer re-syncs on a fresh conn
            };
        }
    }

    fn error_response<S: Service>(service: &S, conn: &mut Conn, status: u16, msg: &str) {
        service.metrics().record(Endpoint::Other, status, 0);
        append_response(
            &mut conn.outbuf,
            status,
            reason(status),
            "application/json",
            &error_json(msg),
            false,
        );
        conn.close_after_flush = true;
        conn.close_cause = "error";
    }

    fn flush_conn(conn: &mut Conn) -> Flushed {
        while conn.out_pos < conn.outbuf.len() {
            match conn.stream.write(&conn.outbuf[conn.out_pos..]) {
                Ok(0) => return Flushed::Failed,
                Ok(n) => {
                    conn.out_pos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Flushed::Pending,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Flushed::Failed,
            }
        }
        conn.outbuf.clear();
        conn.out_pos = 0;
        Flushed::Done
    }
}

#[cfg(all(test, unix))]
mod tests {
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    use super::*;
    use crate::http::{write_request, HttpConn};

    /// How long a `/block` request waits for the gate before giving up.
    const GATE_TIMEOUT: Duration = Duration::from_secs(10);

    /// Answers every request with the id of the shard thread serving it.
    /// `/block` instead holds its shard until the test opens the gate,
    /// then answers `opened` (or `timed out`).
    #[derive(Default)]
    struct WhoServes {
        metrics: ServiceMetrics,
        /// (a `/block` request is waiting, the gate is open)
        gate: Mutex<(bool, bool)>,
        gate_moved: Condvar,
        shutting_down: AtomicBool,
    }

    impl Service for WhoServes {
        type ShardState = ();
        const BALANCE_ACCEPTS: bool = true;

        fn route(&self, _: &mut (), request: &HttpRequest) -> Routed {
            let body = if request.target == "/block" {
                let mut gate = self.gate.lock().unwrap();
                gate.0 = true;
                self.gate_moved.notify_all();
                let (_gate, wait) =
                    self.gate_moved.wait_timeout_while(gate, GATE_TIMEOUT, |g| !g.1).unwrap();
                if wait.timed_out() { "timed out" } else { "opened" }.to_string()
            } else {
                format!("{:?}", std::thread::current().id())
            };
            Routed::json(Endpoint::Other, 200, body.into_bytes())
        }

        fn metrics(&self) -> &ServiceMetrics {
            &self.metrics
        }

        fn shutting_down(&self) -> bool {
            self.shutting_down.load(Ordering::SeqCst)
        }
    }

    fn two_shards() -> (Arc<WhoServes>, TcpListener, Vec<JoinHandle<()>>) {
        let service = Arc::new(WhoServes::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        // Past the gate's timeout, so no idle close frees a shard early.
        let timeout = 3 * GATE_TIMEOUT;
        let shards = spawn(&service, &listener, 2, 8, timeout, timeout, Limits::default()).unwrap();
        (service, listener, shards)
    }

    fn send(conn: &mut HttpConn<TcpStream>, target: &str) {
        write_request(conn.stream_mut(), "GET", target, "test", b"").unwrap();
    }

    /// Connects and returns the connection with the shard that served its
    /// first request. Serving a request takes a loop pass after the one
    /// that accepted the connection, so once this returns, that shard has
    /// published its new count.
    fn connect(listener: &TcpListener) -> (HttpConn<TcpStream>, String) {
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut conn = HttpConn::new(stream, Limits::default());
        send(&mut conn, "/");
        let shard = conn.read_response().unwrap().body_string();
        (conn, shard)
    }

    fn stop(service: &WhoServes, conns: Vec<HttpConn<TcpStream>>, shards: Vec<JoinHandle<()>>) {
        service.shutting_down.store(true, Ordering::SeqCst);
        drop(conns);
        for shard in shards {
            shard.join().unwrap();
        }
    }

    #[test]
    fn connections_to_idle_shards_spread_across_them() {
        let (service, listener, shards) = two_shards();
        let (first, first_shard) = connect(&listener);
        let (second, second_shard) = connect(&listener);
        assert_ne!(first_shard, second_shard, "both connections landed on one shard");
        stop(&service, vec![first, second], shards);
    }

    #[test]
    fn simultaneous_connects_spread_across_shards() {
        let (service, listener, shards) = two_shards();
        // Both connects complete in the kernel before either is served,
        // so one shard may find both in the backlog.
        let mut conns: Vec<_> = (0..2)
            .map(|_| {
                let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                HttpConn::new(stream, Limits::default())
            })
            .collect();
        let mut served_by = Vec::new();
        for conn in &mut conns {
            send(conn, "/");
            served_by.push(conn.read_response().unwrap().body_string());
        }
        assert_ne!(served_by[0], served_by[1], "both connections landed on one shard");
        stop(&service, conns, shards);
    }

    #[test]
    fn a_shard_blocked_in_route_leaves_accepts_to_the_others() {
        let (service, listener, shards) = two_shards();
        let mut conns = Vec::new();
        let mut served_by = Vec::new();
        for _ in 0..3 {
            let (conn, shard) = connect(&listener);
            conns.push(conn);
            served_by.push(shard);
        }
        // One shard holds two connections; block the other, the least
        // loaded, inside `route`.
        let fuller = &served_by[2];
        let lone = served_by.iter().position(|shard| shard != fuller).expect("two shards used");
        send(&mut conns[lone], "/block");
        drop(service.gate_moved.wait_while(service.gate.lock().unwrap(), |g| !g.0).unwrap());
        let (conn, shard) = connect(&listener);
        assert_eq!(&shard, fuller, "the blocked shard cannot have served it");
        service.gate.lock().unwrap().1 = true;
        service.gate_moved.notify_all();
        let blocked = conns[lone].read_response().unwrap().body_string();
        assert_eq!(blocked, "opened", "the connect waited for the blocked shard");
        conns.push(conn);
        stop(&service, conns, shards);
    }
}
