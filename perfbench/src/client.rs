//! The open-loop client: replays a slice of the trace over
//! [`CONNECTIONS`] keep-alive connections from one thread.
//!
//! The thread never sleeps: it writes each request when its scheduled time
//! comes, pipelined on its host's connection, and reads whatever responses
//! have arrived in between, on nonblocking sockets. Responses arrive in
//! each connection's request order. A connection carries at most
//! [`MAX_IN_FLIGHT`] unanswered requests; a request due behind a full one
//! (and every request after it) waits for a response. Latency is taken
//! from the scheduled send, so a stall also delays what was due behind
//! it; how late the send itself was is kept as the send lag. Spinning keeps the client's CPU
//! awake, so its own wake-ups add nothing to the latency; the run pins the
//! client to a CPU the servers do not use.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::check::Outcome;
use crate::trace::{Request, CONNECTIONS};

/// What one replay over TCP observed, per request of the slice.
pub struct Observed {
    /// Response outcome; `None` for a transport failure or timeout.
    pub outcomes: Vec<Option<Outcome>>,
    /// Scheduled send → response parsed, nanoseconds, per request (`None`
    /// when it never completed or the slice was not timed).
    pub latency_ns: Vec<Option<u64>>,
    /// Actual send − scheduled send, nanoseconds (timed slices only).
    pub send_lag_ns: Vec<u64>,
}

/// Gives up this long after the last request sent or response received.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);
/// Head start before the first scheduled send.
const LEAD: Duration = Duration::from_millis(2);
/// Unanswered requests per connection. It bounds what a stall of either
/// side piles up in the server's connection buffers, so the server's peak
/// memory does not follow the host's pauses; at the offered rates the
/// pipeline is rarely more than a few requests deep.
pub const MAX_IN_FLIGHT: usize = 16;

struct Conn {
    stream: TcpStream,
    /// Bytes written but not yet accepted by the socket.
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    /// Trace indices of this connection's requests, in order.
    order: Vec<usize>,
    /// Requests written so far.
    sent: usize,
    /// Responses received so far.
    next: usize,
    open: bool,
}

impl Conn {
    fn flush(&mut self) {
        while self.open && self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => self.open = false,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.open = false,
            }
        }
        self.out.clear();
        self.out_pos = 0;
    }

    fn full(&self) -> bool {
        self.open && self.sent - self.next >= MAX_IN_FLIGHT
    }

    fn done(&self) -> bool {
        !self.open || self.next == self.order.len()
    }
}

/// Sends `requests` to `addr` and collects the responses. With `timed`,
/// each request waits for its `at_ns`; otherwise each goes as soon as its
/// connection has room.
pub fn run(addr: SocketAddr, requests: &[Request], timed: bool) -> std::io::Result<Observed> {
    let mut conns = Vec::with_capacity(CONNECTIONS);
    for c in 0..CONNECTIONS {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let order = (0..requests.len()).filter(|&i| requests[i].conn == c).collect();
        conns.push(Conn {
            stream,
            out: Vec::with_capacity(64 * 1024),
            out_pos: 0,
            inbuf: Vec::with_capacity(64 * 1024),
            order,
            sent: 0,
            next: 0,
            open: true,
        });
    }
    let mut outcomes: Vec<Option<Outcome>> = vec![None; requests.len()];
    let mut latency_ns = vec![None; requests.len()];
    let mut send_lag_ns = Vec::with_capacity(if timed { requests.len() } else { 0 });
    let mut chunk = vec![0u8; 64 * 1024];
    let origin = Instant::now() + LEAD;
    let due = |i: usize| origin + Duration::from_nanos(requests[i].at_ns);
    let mut sent = 0usize;
    let mut last_progress = Instant::now();

    while !conns.iter().all(Conn::done) {
        let now = Instant::now();
        while sent < requests.len()
            && (!timed || due(sent) <= now)
            && !conns[requests[sent].conn].full()
        {
            let request = &requests[sent];
            if timed {
                send_lag_ns.push(now.saturating_duration_since(due(sent)).as_nanos() as u64);
            }
            let conn = &mut conns[request.conn];
            conn.out.extend_from_slice(&request.wire);
            conn.sent += 1;
            sent += 1;
            last_progress = now;
        }
        for conn in conns.iter_mut() {
            conn.flush();
            if !conn.open || conn.next == conn.order.len() {
                continue;
            }
            let n = match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.open = false;
                    continue;
                }
                Ok(n) => n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    continue
                }
                Err(_) => {
                    conn.open = false;
                    continue;
                }
            };
            let now = Instant::now();
            last_progress = now;
            conn.inbuf.extend_from_slice(&chunk[..n]);
            let mut consumed = 0;
            while let Some((status, body, used)) = parse_response(&conn.inbuf[consumed..]) {
                let Some(&i) = conn.order.get(conn.next) else {
                    conn.open = false; // a response nobody asked for
                    break;
                };
                conn.next += 1;
                let body = &conn.inbuf[consumed + body.start..consumed + body.end];
                outcomes[i] = Some(Outcome::from_response(requests[i].kind, status, body));
                if timed {
                    latency_ns[i] = Some(now.saturating_duration_since(due(i)).as_nanos() as u64);
                }
                consumed += used;
            }
            conn.inbuf.drain(..consumed);
        }
        if last_progress.elapsed() > DRAIN_TIMEOUT {
            break; // nothing sent or received for that long
        }
        // Free the CPU if anything else is queued on it; returns at once
        // on the client's own core.
        std::thread::yield_now();
    }
    Ok(Observed { outcomes, latency_ns, send_lag_ns })
}

/// One parsed response: status, body range, bytes consumed.
fn parse_response(buf: &[u8]) -> Option<(u16, std::ops::Range<usize>, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let mut length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().ok()?;
            }
        }
    }
    let end = head_end + length;
    (buf.len() >= end).then_some((status, head_end..end, end))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_responses() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab";
        let (status, body, used) = parse_response(wire).unwrap();
        assert_eq!((status, &wire[body], used), (200, &b"{}"[..], 64));
        let (status, body, used2) = parse_response(&wire[used..]).unwrap();
        assert_eq!((status, body.len()), (404, 0));
        assert!(parse_response(&wire[used + used2..]).is_none(), "incomplete body");
    }

    #[test]
    fn caps_unanswered_requests_per_connection() {
        use crate::trace::Kind;
        use std::net::TcpListener;

        const N: usize = 40;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let wire = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".to_vec();
        let requests: Vec<Request> = (0..N)
            .map(|_| Request {
                kind: Kind::Healthz,
                conn: 0,
                host: String::new(),
                at_ns: 0,
                wire: wire.clone(),
            })
            .collect();
        // Answers only once the client has gone quiet, and reports the
        // most requests it ever held unanswered.
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let (_idle, _) = listener.accept().unwrap();
            stream.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
            let (mut seen, mut answered, mut most) = (Vec::new(), 0, 0);
            let mut buf = [0u8; 4096];
            while answered < N {
                match stream.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => seen.extend_from_slice(&buf[..n]),
                    Err(_) => {
                        let received = seen.windows(4).filter(|w| w == b"\r\n\r\n").count();
                        most = most.max(received - answered);
                        for _ in answered..received {
                            stream
                                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
                                .unwrap();
                        }
                        answered = received;
                    }
                }
            }
            most
        });
        let observed = run(addr, &requests, false).unwrap();
        assert!(observed.outcomes.iter().all(|o| o.as_ref().is_some_and(|o| o.status == 200)));
        assert_eq!(server.join().unwrap(), MAX_IN_FLIGHT);
    }
}
