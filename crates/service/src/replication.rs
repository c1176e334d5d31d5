//! Replication: a node's log is its replication stream. A primary streams
//! the in-memory tail of its log ([`Backlog`]) to each follower from that
//! follower's cursor; the follower appends the frames verbatim, under the
//! same sequence numbers, to its own log. See `DESIGN.md` §15–§16.
//!
//! ```text
//! primary  → follower  [b"CPREPL02"][generation u64 LE]                 16-byte handshake
//! follower → primary   [status u8][generation u64][seq u64][lineage u64] 25-byte reply
//! primary  → follower  [len u32 LE][fnv1a64 u64 LE][payload] …           log frames
//! follower → primary   [seq u64 LE] …                                    one ack per record
//! ```
//!
//! Status 1 **fences** the handshake: its generation is older than one the
//! follower has witnessed (or equal to the follower's own as a primary),
//! so the sender is a stale primary. Otherwise the reply names the
//! follower's last record and that record's generation — its *lineage*.
//! The primary streams from there only if its own log holds a record of
//! the same generation there: one generation has one primary and followers
//! copy its frames verbatim, so logs that agree on a record's generation
//! agree on every record up to it. (Generation 0 is the exception: every
//! node sequences its standalone writes under it, so it matches only an
//! empty log.) Any other follower — behind the tail, ahead of the primary,
//! or holding records a deposed primary never got acked — is sent a
//! `BOOTSTRAP` control frame naming the primary's HTTP address: it
//! installs `GET /v1/repl/snapshot` (dropping its unacked tail) while its
//! sender backs off, and the next handshake finds it on the primary's
//! lineage. Control frames set the length word's high bit
//! ([`CONTROL_BIT`]); the log's own `GENERATION` frames travel the same
//! way.
//!
//! An ack of `n` implies records `1..=n` (every follower holds a prefix of
//! the primary's log), which is what makes quorum acks sufficient for
//! failover: promoting the follower with the highest `(generation, seq)`
//! loses no acked write. Each follower's cursor has its own sender thread,
//! started by [`Replicator::connect`] and stopped by
//! [`Replicator::retire`]: it writes every record past the cursor in one
//! go, reads the acks, and redials with seeded jittered backoff when the
//! stream dies. A write waits at most [`ACK_DEADLINE`] for the followers
//! that are not behind; one that misses it is demoted
//! (`cp_repl_slow_demotions_total`) and not waited on again until its
//! cursor reaches the head.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, MutexGuard};
use std::time::{Duration, Instant};

use cp_runtime::sync::Mutex;

use crate::metrics::ServiceMetrics;
use crate::store::ShardedStore;
use crate::wal::{
    control_frame, frame_checksum, VisitEvent, CONTROL_BIT, CONTROL_GENERATION, HEADER_BYTES,
    MAX_RECORD_BYTES,
};

/// Handshake magic: protocol name + version.
pub const REPL_MAGIC: &[u8; 8] = b"CPREPL02";

/// Primary → follower handshake length (magic + generation).
pub const HANDSHAKE_BYTES: usize = 16;

/// Follower → primary handshake reply length (status + witnessed
/// generation + log position: sequence number and its generation).
pub const HANDSHAKE_REPLY_BYTES: usize = 25;

/// Socket timeouts on replication streams outside the ack path
/// (handshakes, frame writes, bootstrap installs). Generous: a stall this
/// long is indistinguishable from a dead peer.
const STREAM_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a write waits for one follower's ack before demoting it. This
/// bounds the stall one slow follower can add to a client write.
pub const ACK_DEADLINE: Duration = Duration::from_millis(250);

/// Default capacity of a node's in-memory log tail — how far a
/// reconnecting follower may be behind and still resync from memory
/// instead of a snapshot bootstrap.
pub const DEFAULT_BACKLOG_CAP: usize = 4096;

/// Control frame kind: "bootstrap from `GET /v1/repl/snapshot` at the HTTP
/// address in this payload".
const CONTROL_BOOTSTRAP: u8 = 1;

/// Largest accepted control payload (kind byte + an address).
const MAX_CONTROL_BYTES: u32 = 1024;

/// How long an idle sender waits for records before it re-checks the
/// retire flag.
const IDLE_TICK: Duration = Duration::from_millis(100);

/// Redial backoff bounds (jittered, doubling per attempt).
const REDIAL_BASE: Duration = Duration::from_millis(100);
const REDIAL_MAX: Duration = Duration::from_secs(2);

/// Most records a sender writes before it reads their acks — which keeps
/// the acks the follower writes meanwhile well inside a socket buffer.
const MAX_BATCH: usize = 1024;

/// How many follower acks must land before a write is acknowledged to the
/// client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplAckPolicy {
    /// Ship asynchronously; ack the client on the local append alone.
    None,
    /// Ack once a majority of the cluster (primary included) holds the
    /// record — the smallest policy that survives any single node death.
    #[default]
    Quorum,
    /// Ack only when every follower holds the record.
    All,
}

impl ReplAckPolicy {
    /// Parses a `--repl-ack` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(ReplAckPolicy::None),
            "quorum" => Some(ReplAckPolicy::Quorum),
            "all" => Some(ReplAckPolicy::All),
            _ => None,
        }
    }

    /// The flag spelling.
    pub fn label(self) -> &'static str {
        match self {
            ReplAckPolicy::None => "none",
            ReplAckPolicy::Quorum => "quorum",
            ReplAckPolicy::All => "all",
        }
    }

    /// Follower acks required before the client sees a response, for a
    /// cluster of `followers` + 1 primary. Quorum counts the primary
    /// itself toward the majority: with 2 followers (3 nodes) one
    /// follower ack makes 2 of 3.
    pub fn required_acks(self, followers: usize) -> usize {
        match self {
            ReplAckPolicy::None => 0,
            ReplAckPolicy::Quorum => followers.div_ceil(2),
            ReplAckPolicy::All => followers,
        }
    }
}

/// What this node currently is, cluster-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Not participating in replication.
    Standalone,
    /// Accepting writes and shipping them to followers.
    Primary,
    /// Applying a primary's stream; rejects direct writes.
    Follower,
}

impl Role {
    /// The `/healthz` label.
    pub fn label(self) -> &'static str {
        match self {
            Role::Standalone => "standalone",
            Role::Primary => "primary",
            Role::Follower => "follower",
        }
    }
}

/// The node's cluster identity: its role and the highest generation it has
/// witnessed. The generation is monotone — it only ever moves forward, and
/// every fencing decision compares against it.
#[derive(Debug, Default)]
pub struct ClusterState {
    role: AtomicU8,
    generation: AtomicU64,
    /// Bumped under [`apply_gate`](Self::apply_gate) whenever a follower
    /// stream is adopted. A stream applies records only while its epoch is
    /// current, so a superseded stream can never slip an apply in after a
    /// newer stream's handshake reply reported `applied_seq` — which would
    /// make the primary's gap arithmetic resend (double-apply) a record.
    stream_epoch: AtomicU64,
    /// Serializes follower-stream adoption, record application, and
    /// snapshot-bootstrap installs against each other.
    apply_gate: Mutex<()>,
}

impl ClusterState {
    pub fn new() -> Self {
        ClusterState::default()
    }

    pub fn role(&self) -> Role {
        match self.role.load(Ordering::Acquire) {
            1 => Role::Primary,
            2 => Role::Follower,
            _ => Role::Standalone,
        }
    }

    pub fn set_role(&self, role: Role) {
        self.role.store(role as u8, Ordering::Release);
    }

    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Advances the witnessed generation (never backwards).
    pub fn witness_generation(&self, generation: u64) {
        self.generation.fetch_max(generation, Ordering::AcqRel);
    }
}

/// The in-memory tail of a node's log: the frames of its most recent
/// records, byte for byte as the WAL holds them, with the generation each
/// was sequenced under. It is also the log's sequencer: `head` is the
/// sequence number of the node's last record, and the tail retains the
/// frames of `(head - len, head]`. A primary's senders stream from it; a
/// follower fills it with the frames it applies, so it can serve resyncs
/// as soon as it is promoted.
#[derive(Debug)]
pub struct Backlog {
    frames: VecDeque<Vec<u8>>,
    head: u64,
    capacity: usize,
    /// `(generation, first sequence number)` of each run of records of one
    /// generation, oldest first; the first run covers `head - len`, the
    /// record just before the oldest retained frame.
    epochs: VecDeque<(u64, u64)>,
}

impl Backlog {
    pub fn new(capacity: usize) -> Self {
        Backlog {
            frames: VecDeque::new(),
            head: 0,
            capacity: capacity.max(1),
            epochs: VecDeque::from([(0, 0)]),
        }
    }

    /// The log frame of `record` sequenced under `generation`: the record,
    /// preceded by a `GENERATION` frame when that generation differs from
    /// the last record's.
    pub fn frame(&self, record: Vec<u8>, generation: u64) -> Vec<u8> {
        if generation == self.last_generation() {
            return record;
        }
        [control_frame(CONTROL_GENERATION, &generation.to_le_bytes()), record].concat()
    }

    /// Appends one record's [`frame`](Self::frame), sequenced under
    /// `generation`. Returns the record's sequence number.
    pub fn push(&mut self, frame: Vec<u8>, generation: u64) -> u64 {
        self.frames.push_back(frame);
        self.sequence(generation)
    }

    /// Sequences a record without retaining its frame — the standalone
    /// write path, which encodes nothing for the tail. The gap makes the
    /// tail useless for replay, so it is cleared; a later follower of this
    /// node bootstraps from a snapshot instead.
    pub fn advance(&mut self, generation: u64) -> u64 {
        self.frames.clear();
        self.sequence(generation)
    }

    fn sequence(&mut self, generation: u64) -> u64 {
        self.head += 1;
        if self.last_generation() != generation {
            self.epochs.push_back((generation, self.head));
        }
        self.trim();
        self.head
    }

    /// Drops frames beyond the capacity and epochs no longer covered.
    fn trim(&mut self) {
        while self.frames.len() > self.capacity {
            self.frames.pop_front();
        }
        let base = self.base();
        while self.epochs.len() > 1 && self.epochs[1].1 <= base {
            self.epochs.pop_front();
        }
    }

    /// The oldest cursor the tail can stream from.
    fn base(&self) -> u64 {
        self.head - self.frames.len() as u64
    }

    /// Re-anchors the log at record `seq` of `generation` (a recovery or a
    /// snapshot bootstrap) with an empty tail.
    pub fn reset_to(&mut self, seq: u64, generation: u64) {
        self.frames.clear();
        self.head = seq;
        self.epochs = VecDeque::from([(generation, seq)]);
    }

    /// Sequence number of the most recent record.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Generation of the most recent record.
    pub fn last_generation(&self) -> u64 {
        self.epochs.back().expect("the tail always has an epoch").0
    }

    /// The generation of record `seq` when the tail can stream every record
    /// after it; `None` when `seq` is before the tail or past the head.
    pub fn generation_at(&self, seq: u64) -> Option<u64> {
        if seq < self.base() || seq > self.head {
            return None;
        }
        self.epochs
            .iter()
            .rev()
            .find(|&&(_, first)| first <= seq)
            .map(|&(generation, _)| generation)
    }

    /// Whether a follower whose log ends at record `seq` of `lineage`
    /// holds a prefix of this log that the tail can extend. Generation 0
    /// is every standalone node's, so two logs agree on it only when both
    /// are empty.
    pub fn continues(&self, seq: u64, lineage: u64) -> bool {
        (lineage != 0 || seq == 0) && self.generation_at(seq) == Some(lineage)
    }

    /// Appends the frames of the (at most `max`) records after `after` to
    /// `out`, as stored. Returns the new cursor; `None` when the tail no
    /// longer covers `after`.
    pub fn write_after(&self, after: u64, max: usize, out: &mut Vec<u8>) -> Option<u64> {
        self.generation_at(after)?;
        let mut cursor = after;
        for frame in self.frames.iter().skip((after - self.base()) as usize).take(max) {
            out.extend_from_slice(frame);
            cursor += 1;
        }
        Some(cursor)
    }

    /// Changes the capacity, trimming if it shrank.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        self.trim();
    }
}

/// One follower's `/healthz` row.
#[derive(Debug, Clone)]
pub struct PeerStatus {
    pub addr: String,
    /// `live` (writes wait for it), `behind` (catching up; writes do not
    /// wait) or `down` (being redialed).
    pub state: &'static str,
    pub connected: bool,
    pub acked_seq: u64,
}

/// A follower's cursor as writes see it.
#[derive(Debug)]
struct Peer {
    addr: String,
    connected: bool,
    /// Not waited on by writes: demoted for missing the ack deadline, or
    /// reconnected and not caught up since.
    behind: bool,
    /// The follower's cumulative ack: it holds every record up to here.
    acked: u64,
}

/// The watermarks writes and senders share.
#[derive(Debug)]
struct Marks {
    /// The highest committed sequence number.
    head: u64,
    peers: Vec<Peer>,
}

impl Marks {
    /// Max records any connected follower is behind the head.
    fn lag(&self) -> u64 {
        let connected = self.peers.iter().filter(|p| p.connected);
        connected.map(|p| self.head.saturating_sub(p.acked)).max().unwrap_or(0)
    }
}

/// What a replicator's writes and sender threads share.
#[derive(Debug)]
struct Shared {
    marks: Mutex<Marks>,
    /// Signalled when the head moves or the replicator retires.
    work: Condvar,
    /// Signalled when an ack or a disconnect lands.
    acks: Condvar,
    backlog: Arc<Mutex<Backlog>>,
    generation: u64,
    /// This primary's HTTP address, sent in bootstrap hints.
    advertise: String,
    retired: AtomicBool,
    metrics: Arc<ServiceMetrics>,
}

/// Waits on `condvar` for at most `timeout`, returning the guard.
fn wait<'a>(
    condvar: &Condvar,
    guard: MutexGuard<'a, Marks>,
    timeout: Duration,
) -> MutexGuard<'a, Marks> {
    condvar.wait_timeout(guard, timeout).map_or_else(|e| e.into_inner().0, |(guard, _)| guard)
}

impl Shared {
    fn retired(&self) -> bool {
        self.retired.load(Ordering::Acquire)
    }

    /// Sleeps `timeout`, waking early only on retirement (not on the
    /// writes that also signal `work`).
    fn pause(&self, timeout: Duration) {
        let marks = self.marks.lock();
        drop(self.work.wait_timeout_while(marks, timeout, |_| !self.retired()));
    }

    /// Records the follower `idx` as streaming from `cursor`: behind
    /// unless that is the head.
    fn attach(&self, idx: usize, cursor: u64) {
        let mut marks = self.marks.lock();
        let head = marks.head;
        let peer = &mut marks.peers[idx];
        (peer.connected, peer.acked) = (true, cursor);
        peer.behind |= cursor < head;
        self.settle(peer, head);
        self.metrics.set_repl_peer_up(idx, true);
    }

    /// Records the follower `idx` as disconnected.
    fn detach(&self, idx: usize) {
        let mut marks = self.marks.lock();
        let peer = &mut marks.peers[idx];
        (peer.connected, peer.behind) = (false, true);
        self.metrics.set_repl_peer_up(idx, false);
        drop(marks);
        self.acks.notify_all();
    }

    /// Records a cumulative ack from follower `idx`.
    fn ack(&self, idx: usize, acked: u64) {
        let mut marks = self.marks.lock();
        let head = marks.head;
        let peer = &mut marks.peers[idx];
        if acked > peer.acked {
            self.metrics.record_repl_acks(idx, acked - peer.acked);
            peer.acked = acked;
        }
        self.settle(peer, head);
        drop(marks);
        self.acks.notify_all();
    }

    /// A behind peer whose cursor reached the head is waited on again — a
    /// completed resync. (A live peer's ack trailing the head is just the
    /// next batch in flight; only a missed deadline demotes it.)
    fn settle(&self, peer: &mut Peer, head: u64) {
        if peer.behind && peer.acked >= head {
            peer.behind = false;
            self.metrics.repl_resync_total.inc();
        }
    }

    /// Blocks until there are records past follower `idx`'s cursor
    /// `sent`; returns whether the follower is behind, or `None` once the
    /// replicator retired.
    fn await_work(&self, idx: usize, sent: u64) -> Option<bool> {
        let mut marks = self.marks.lock();
        while !self.retired() {
            if marks.head > sent {
                return Some(marks.peers[idx].behind);
            }
            marks = wait(&self.work, marks, IDLE_TICK);
        }
        None
    }
}

/// The primary side of replication: a cursor per follower, each served by
/// its own sender thread, over the node's log tail.
#[derive(Debug)]
pub struct Replicator {
    shared: Arc<Shared>,
    required: usize,
}

impl Replicator {
    /// Handshakes every follower and starts one sender thread per follower
    /// streaming `backlog` from its cursor. Fails — without becoming
    /// primary — if any follower is unreachable or fences the generation
    /// (its reply names a newer one). A follower that is behind is not an
    /// error: it is streamed the gap, or — off this log's lineage — hinted
    /// to bootstrap from this node's snapshot at `advertise`, and its
    /// sender redials it once the install is done. Writes do not wait for
    /// it meanwhile.
    pub fn connect(
        followers: &[String],
        generation: u64,
        policy: ReplAckPolicy,
        advertise: String,
        backlog: Arc<Mutex<Backlog>>,
        metrics: Arc<ServiceMetrics>,
    ) -> std::io::Result<Replicator> {
        let mut streams = Vec::with_capacity(followers.len());
        for addr in followers {
            streams.push(establish(addr, generation, &advertise, &backlog, &metrics)?);
        }
        let head = backlog.lock().head();
        let peers = followers
            .iter()
            .zip(&streams)
            .map(|(addr, stream)| Peer {
                addr: addr.clone(),
                connected: false,
                behind: stream.is_none(),
                acked: 0,
            })
            .collect();
        let shared = Arc::new(Shared {
            marks: Mutex::new(Marks { head, peers }),
            work: Condvar::new(),
            acks: Condvar::new(),
            backlog,
            generation,
            advertise,
            retired: AtomicBool::new(false),
            metrics,
        });
        shared.metrics.set_repl_peers(followers.len());
        shared.metrics.repl_lag_records.set(0);
        for (idx, stream) in streams.into_iter().enumerate() {
            if let Some((_, cursor)) = &stream {
                shared.attach(idx, *cursor);
            }
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run_sender(&shared, idx, stream));
        }
        Ok(Replicator { shared, required: policy.required_acks(followers.len()) })
    }

    /// The generation this replicator streams under.
    pub fn generation(&self) -> u64 {
        self.shared.generation
    }

    /// Stops the sender threads; called when the node is demoted or shuts
    /// down (and on drop).
    pub fn retire(&self) {
        self.shared.retired.store(true, Ordering::Release);
        self.shared.work.notify_all();
        self.shared.acks.notify_all();
    }

    /// Max records any *connected* follower is behind the head. Down peers
    /// are excluded: a dead peer's lag grows without bound and says nothing
    /// about the streams actually carrying writes (it comes back as
    /// `cp_repl_peer_up == 0` instead).
    pub fn lag(&self) -> u64 {
        self.shared.marks.lock().lag()
    }

    /// Per-peer rows for `/healthz`.
    pub fn peer_statuses(&self) -> Vec<PeerStatus> {
        let marks = self.shared.marks.lock();
        let status = |p: &Peer| PeerStatus {
            addr: p.addr.clone(),
            state: match (p.connected, p.behind) {
                (false, _) => "down",
                (true, true) => "behind",
                (true, false) => "live",
            },
            connected: p.connected,
            acked_seq: p.acked,
        };
        marks.peers.iter().map(status).collect()
    }

    /// Appends `event` to this replicator's log tail and
    /// [`commit`](Self::commit)s it — replication on its own, for a tail
    /// no store writes to.
    pub fn ship(&self, event: &VisitEvent) -> std::io::Result<()> {
        let generation = self.shared.generation;
        let mut tail = self.shared.backlog.lock();
        let frame = tail.frame(event.encode_record(), generation);
        let seq = tail.push(frame, generation);
        drop(tail);
        self.commit(seq)
    }

    /// Wakes the senders for record `seq` (already in the tail) and waits
    /// up to [`ACK_DEADLINE`] for every follower that is not behind to ack
    /// it; one that misses the deadline is demoted. `Err` when fewer than
    /// the policy's required followers hold the record — the caller must
    /// then *not* acknowledge the write to its client (it is applied
    /// locally but unacked, exactly like a torn WAL tail: present on this
    /// node, invisible to the contract).
    pub fn commit(&self, seq: u64) -> std::io::Result<()> {
        let shared = &*self.shared;
        let started = Instant::now();
        let deadline = started + ACK_DEADLINE;
        let mut marks = shared.marks.lock();
        if seq > marks.head {
            marks.head = seq;
            shared.work.notify_all();
        }
        while marks.peers.iter().any(|p| !p.behind && p.acked < seq) {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                for peer in marks.peers.iter_mut().filter(|p| !p.behind && p.acked < seq) {
                    peer.behind = true;
                    shared.metrics.repl_slow_demotions_total.inc();
                }
                break;
            };
            marks = wait(&shared.acks, marks, left);
        }
        let acks = marks.peers.iter().filter(|p| p.acked >= seq).count();
        let lag = marks.lag();
        drop(marks);
        let metrics = &shared.metrics;
        metrics.repl_lag_records.set(lag.min(i64::MAX as u64) as i64);
        let waited = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        metrics.repl_ack_micros.observe(waited);
        metrics.repl_ack_stall_max_micros.set_max(waited.min(i64::MAX as u64) as i64);
        if acks < self.required {
            return Err(std::io::Error::other(format!(
                "replication quorum lost: {acks} of {} required follower acks",
                self.required
            )));
        }
        Ok(())
    }
}

impl Drop for Replicator {
    fn drop(&mut self) {
        self.retire();
    }
}

/// Seeded jittered backoff: doubling base capped at [`REDIAL_MAX`], plus
/// up to 50 ms of deterministic jitter so a fleet of primaries redialing
/// one recovered follower does not thundering-herd it.
fn redial_backoff(generation: u64, idx: usize, attempts: u32) -> Duration {
    let base = REDIAL_BASE.saturating_mul(1u32 << attempts.min(4)).min(REDIAL_MAX);
    let mut x = generation
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(idx as u64)
        .wrapping_mul(0x2545_F491_4F6C_DD1D)
        .wrapping_add(u64::from(attempts));
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    base + Duration::from_millis(x % 50)
}

/// One follower's sender thread: streams from the cursor, and redials
/// whenever the stream ends — backing off while the follower is
/// unreachable, fenced, or installing the snapshot it was hinted to —
/// until the replicator retires.
fn run_sender(shared: &Shared, idx: usize, mut stream: Option<(TcpStream, u64)>) {
    let addr = shared.marks.lock().peers[idx].addr.clone();
    let mut attempts = 0u32;
    while !shared.retired() {
        let Some((stream, cursor)) = stream.take() else {
            let (generation, advertise) = (shared.generation, &shared.advertise);
            stream = establish(&addr, generation, advertise, &shared.backlog, &shared.metrics)
                .ok()
                .flatten();
            match &stream {
                Some((_, cursor)) => {
                    attempts = 0;
                    shared.attach(idx, *cursor);
                }
                None => {
                    attempts = attempts.saturating_add(1);
                    shared.pause(redial_backoff(generation, idx, attempts));
                }
            }
            continue;
        };
        stream_from(shared, idx, stream, cursor);
        shared.detach(idx);
    }
}

/// Streams the log to follower `idx` from cursor `sent` until the stream
/// fails, the tail no longer covers the cursor (the follower is then
/// hinted to bootstrap), or the replicator retires. One batch is in flight
/// at a time: every record past the cursor in one write, then its acks.
fn stream_from(shared: &Shared, idx: usize, mut stream: TcpStream, mut sent: u64) {
    let (mut out, mut acks) = (Vec::new(), Vec::new());
    while let Some(behind) = shared.await_work(idx, sent) {
        out.clear();
        let Some(last) = shared.backlog.lock().write_after(sent, MAX_BATCH, &mut out) else {
            if send_bootstrap_hint(&mut stream, &shared.advertise).is_ok() {
                shared.metrics.repl_bootstrap_hints_total.inc();
            }
            return;
        };
        // The follower acks every record with its sequence number.
        acks.resize(8 * (last - sent) as usize, 0);
        if stream.write_all(&out).is_err() || stream.read_exact(&mut acks).is_err() {
            return;
        }
        if behind {
            shared.metrics.repl_resync_records_total.add(last - sent);
        }
        sent = last;
        shared.ack(idx, u64::from_le_bytes(acks[acks.len() - 8..].try_into().expect("8 bytes")));
    }
}

/// Dials `addr`, handshakes `generation`, and returns the stream with the
/// follower's cursor — its log position — when this log's tail
/// [continues](Backlog::continues) it. A follower at any other position
/// is hinted to bootstrap from this primary's snapshot instead, and
/// `None` is returned: it installs the snapshot while its sender backs
/// off, and the next handshake finds it on this lineage. `Err` for
/// unreachable or fenced followers.
fn establish(
    addr: &str,
    generation: u64,
    advertise: &str,
    backlog: &Mutex<Backlog>,
    metrics: &ServiceMetrics,
) -> std::io::Result<Option<(TcpStream, u64)>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(STREAM_TIMEOUT))?;
    stream.set_write_timeout(Some(STREAM_TIMEOUT))?;
    let mut handshake = [0u8; HANDSHAKE_BYTES];
    handshake[..8].copy_from_slice(REPL_MAGIC);
    handshake[8..].copy_from_slice(&generation.to_le_bytes());
    stream.write_all(&handshake)?;
    let mut reply = [0u8; HANDSHAKE_REPLY_BYTES];
    stream.read_exact(&mut reply)?;
    let word = |i: usize| u64::from_le_bytes(reply[1 + 8 * i..9 + 8 * i].try_into().expect("8"));
    if reply[0] != 0 {
        return Err(std::io::Error::other(format!(
            "follower {addr} fenced generation {generation}: it has already \
             witnessed generation {}",
            word(0)
        )));
    }
    let (seq, lineage) = (word(1), word(2));
    if backlog.lock().continues(seq, lineage) {
        return Ok(Some((stream, seq)));
    }
    send_bootstrap_hint(&mut stream, advertise)?;
    metrics.repl_bootstrap_hints_total.inc();
    Ok(None)
}

/// Sends one bootstrap control frame naming this primary's HTTP address.
fn send_bootstrap_hint(stream: &mut TcpStream, advertise: &str) -> std::io::Result<()> {
    stream.write_all(&control_frame(CONTROL_BOOTSTRAP, advertise.as_bytes()))
}

/// Reads exactly `buf.len()` bytes, riding out socket timeouts so an idle
/// primary does not kill the stream; bails on EOF, real errors, or when
/// shutdown has begun.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], shutting_down: &AtomicBool) -> bool {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return false,
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shutting_down.load(Ordering::Acquire) {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
    true
}

/// Fetches a full snapshot from `addr`'s `/v1/repl/snapshot` and installs
/// it, re-anchoring this node at the primary's applied sequence. Caller
/// holds the cluster apply gate.
fn bootstrap_from(addr: &str, store: &ShardedStore) -> std::io::Result<u64> {
    let (host, port) = addr
        .rsplit_once(':')
        .ok_or_else(|| std::io::Error::other(format!("malformed bootstrap address {addr}")))?;
    let port: u16 = port
        .parse()
        .map_err(|_| std::io::Error::other(format!("malformed bootstrap port in {addr}")))?;
    let mut client = crate::loadgen::Client::with_policy(host, port, 2, Duration::from_millis(25));
    let response = client
        .request("GET", "/v1/repl/snapshot", &[])
        .map_err(|e| std::io::Error::other(format!("snapshot fetch from {addr} failed: {e:?}")))?;
    if response.status != 200 {
        return Err(std::io::Error::other(format!(
            "snapshot fetch from {addr} failed: status {}",
            response.status
        )));
    }
    store.install_bootstrap(&response.body)
}

/// Serves one inbound replication stream on the follower side: validate
/// the handshake (fencing stale generations), reply with this node's log
/// position, then append each record to the local log through the same
/// [`SiteEntry::apply`](crate::store::SiteEntry) path recovery uses and
/// ack it with its sequence number.
///
/// Accepting a handshake adopts its generation: the node becomes (or
/// stays) a follower of that primary and drops any replicator it held —
/// a primary receiving a newer generation's stream has been superseded
/// and steps down. If a newer generation arrives mid-stream (on another
/// connection), this stream stops acking and closes: a record from a
/// dead generation is never applied after the succession. Adoption,
/// application and snapshot installs are serialized under the cluster's
/// apply gate with a stream epoch, so a superseded stream can never apply
/// a record after a newer stream's handshake reply reported the node's
/// position — and a new handshake never reports a position an install is
/// about to replace.
pub fn serve_follower_stream(
    mut stream: TcpStream,
    store: &ShardedStore,
    cluster: &ClusterState,
    shutting_down: &AtomicBool,
    metrics: &ServiceMetrics,
) {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(STREAM_TIMEOUT)).ok();
    stream.set_write_timeout(Some(STREAM_TIMEOUT)).ok();
    let mut handshake = [0u8; HANDSHAKE_BYTES];
    if !read_full(&mut stream, &mut handshake, shutting_down) || &handshake[..8] != REPL_MAGIC {
        return;
    }
    let generation = u64::from_le_bytes(handshake[8..].try_into().expect("8-byte slice"));
    let (my_epoch, mut lineage) = {
        let _gate = cluster.apply_gate.lock();
        let current = cluster.generation();
        // Strictly older generations are fenced; an equal generation is
        // fenced too when this node is that generation's primary (two
        // primaries of one generation would be split brain).
        let stale =
            generation < current || (generation == current && cluster.role() == Role::Primary);
        let (seq, lineage) = store.log_position();
        let mut reply = [0u8; HANDSHAKE_REPLY_BYTES];
        reply[0] = u8::from(stale);
        for (i, word) in [current, seq, lineage].into_iter().enumerate() {
            reply[1 + 8 * i..9 + 8 * i].copy_from_slice(&word.to_le_bytes());
        }
        if stream.write_all(&reply).is_err() || stale {
            return;
        }
        cluster.witness_generation(generation);
        cluster.set_role(Role::Follower);
        store.set_replicator(None);
        (cluster.stream_epoch.fetch_add(1, Ordering::AcqRel) + 1, lineage)
    };
    loop {
        let mut frame = vec![0u8; HEADER_BYTES];
        if !read_full(&mut stream, &mut frame, shutting_down) {
            return;
        }
        let len_le: [u8; 4] = frame[..4].try_into().expect("4-byte slice");
        let raw_len = u32::from_le_bytes(len_le);
        let control = raw_len & CONTROL_BIT != 0;
        let len = raw_len & !CONTROL_BIT;
        if len == 0 || len > MAX_RECORD_BYTES || (control && len > MAX_CONTROL_BYTES) {
            return;
        }
        let sum = u64::from_le_bytes(frame[4..].try_into().expect("8-byte slice"));
        frame.resize(HEADER_BYTES + len as usize, 0);
        if !read_full(&mut stream, &mut frame[HEADER_BYTES..], shutting_down)
            || frame_checksum(&len_le, &frame[HEADER_BYTES..]) != sum
        {
            return;
        }
        let gate = cluster.apply_gate.lock();
        // Fence mid-stream: a newer primary may have adopted this node
        // since the handshake. Never apply (or ack) a dead generation's
        // record after the succession.
        if cluster.stream_epoch.load(Ordering::Acquire) != my_epoch
            || cluster.generation() != generation
            || cluster.role() != Role::Follower
        {
            return;
        }
        let event = match &frame[HEADER_BYTES..] {
            [CONTROL_GENERATION, g @ ..] if control && g.len() == 8 => {
                lineage = u64::from_le_bytes(g.try_into().expect("8-byte slice"));
                continue;
            }
            [CONTROL_BOOTSTRAP, addr @ ..] if control => {
                // The whole install runs under the apply gate, so the
                // primary's next handshake waits for it to finish.
                let installed = std::str::from_utf8(addr).map(|addr| bootstrap_from(addr, store));
                if matches!(installed, Ok(Ok(_))) {
                    metrics.repl_bootstrap_total.inc();
                }
                return;
            }
            payload if !control => VisitEvent::decode_payload(payload),
            _ => None,
        };
        let Some(Ok(seq)) = event.map(|event| store.apply_replicated(&event, frame, lineage))
        else {
            return;
        };
        drop(gate);
        if stream.write_all(&seq.to_le_bytes()).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_policy_parse_and_label_round_trip() {
        for policy in [ReplAckPolicy::None, ReplAckPolicy::Quorum, ReplAckPolicy::All] {
            assert_eq!(ReplAckPolicy::parse(policy.label()), Some(policy));
        }
        assert_eq!(ReplAckPolicy::parse("majority"), None);
        assert_eq!(ReplAckPolicy::default(), ReplAckPolicy::Quorum);
    }

    #[test]
    fn quorum_counts_the_primary_toward_the_majority() {
        // followers → required follower acks (primary + acks is a majority
        // of followers + 1 nodes).
        for (followers, required) in [(0, 0), (1, 1), (2, 1), (3, 2), (4, 2), (5, 3)] {
            assert_eq!(
                ReplAckPolicy::Quorum.required_acks(followers),
                required,
                "{followers} followers"
            );
        }
        assert_eq!(ReplAckPolicy::None.required_acks(4), 0);
        assert_eq!(ReplAckPolicy::All.required_acks(4), 4);
    }

    #[test]
    fn cluster_generation_is_monotone() {
        let cluster = ClusterState::new();
        assert_eq!(cluster.role(), Role::Standalone);
        assert_eq!(cluster.generation(), 0);
        cluster.witness_generation(3);
        cluster.witness_generation(2);
        assert_eq!(cluster.generation(), 3, "generations never move backwards");
        cluster.set_role(Role::Primary);
        assert_eq!(cluster.role(), Role::Primary);
        assert_eq!(cluster.role().label(), "primary");
    }

    fn rec(i: u64) -> Vec<u8> {
        vec![i as u8; 4]
    }

    #[test]
    fn backlog_tail_retains_a_bounded_suffix() {
        let mut backlog = Backlog::new(4);
        assert_eq!(backlog.head(), 0);
        assert_eq!(backlog.generation_at(0), Some(0), "an empty tail covers its own head");
        for i in 1..=10u64 {
            assert_eq!(backlog.push(rec(i), 1), i);
        }
        assert_eq!(backlog.head(), 10);
        // Capacity 4 retains (6, 10]: cursors 6..=10 can be streamed.
        assert_eq!(backlog.generation_at(6), Some(1));
        assert_eq!(backlog.generation_at(5), None, "before the tail");
        assert_eq!(backlog.generation_at(11), None, "past the head");
        let mut out = Vec::new();
        assert_eq!(backlog.write_after(7, 100, &mut out), Some(10));
        assert_eq!(out, [vec![8u8; 4], vec![9; 4], vec![10; 4]].concat(), "frames verbatim");
        out.clear();
        assert_eq!(backlog.write_after(6, 2, &mut out), Some(8), "one batch at most");
        assert_eq!(out, [vec![7u8; 4], vec![8; 4]].concat());
        out.clear();
        assert_eq!(backlog.write_after(10, 100, &mut out), Some(10));
        assert!(out.is_empty(), "caught up → nothing to send");
        assert_eq!(backlog.write_after(5, 100, &mut out), None, "overrun");
    }

    #[test]
    fn backlog_advance_gives_up_replay_but_keeps_the_sequence() {
        let mut backlog = Backlog::new(8);
        backlog.push(rec(1), 0);
        backlog.push(rec(2), 0);
        assert_eq!(backlog.advance(0), 3, "standalone writes keep the sequence");
        assert_eq!(backlog.generation_at(3), Some(0), "head itself is always covered");
        assert_eq!(backlog.generation_at(2), None, "the gap poisons replay");
        backlog.reset_to(42, 5);
        assert_eq!((backlog.head(), backlog.last_generation()), (42, 5));
        assert_eq!(backlog.generation_at(42), Some(5));
        assert_eq!(backlog.generation_at(41), None);
    }

    #[test]
    fn generation_zero_continues_only_an_empty_log() {
        // Two standalone logs can both end at record 3 of generation 0
        // and hold different records: neither continues the other.
        let mut backlog = Backlog::new(8);
        assert!(backlog.continues(0, 0), "an empty follower of an empty log");
        for _ in 0..3 {
            backlog.advance(0);
        }
        assert_eq!(backlog.generation_at(3), Some(0));
        assert!(!backlog.continues(3, 0), "equal standalone positions are no lineage");
        assert!(!backlog.continues(0, 0), "the tail no longer reaches back to 0");
        backlog.push(rec(4), 1);
        assert!(backlog.continues(4, 1), "a primary's generation is its own lineage");
        assert!(!backlog.continues(4, 2));
        let mut fresh = Backlog::new(8);
        fresh.push(rec(1), 1);
        assert!(fresh.continues(0, 0), "an empty follower is streamed from the start");
    }

    #[test]
    fn a_down_followers_redials_keep_their_backoff_under_write_load() {
        // The follower takes one stream, then drops every connection.
        // Every write signals the senders; only the backoff may pace the
        // redials.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (redials, done) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicBool::new(false)));
        let follower = {
            let (redials, done) = (Arc::clone(&redials), Arc::clone(&done));
            std::thread::spawn(move || {
                let (mut first, _) = listener.accept().unwrap();
                first.read_exact(&mut [0u8; HANDSHAKE_BYTES]).unwrap();
                // An empty follower of generation 0: streamed from record 1.
                first.write_all(&[0u8; HANDSHAKE_REPLY_BYTES]).unwrap();
                drop(first);
                listener.set_nonblocking(true).unwrap();
                while !done.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok(_) => drop(redials.fetch_add(1, Ordering::AcqRel)),
                        Err(_) => std::thread::sleep(Duration::from_millis(2)),
                    }
                }
            })
        };
        let backlog = Arc::new(Mutex::new(Backlog::new(64)));
        let metrics = Arc::new(ServiceMetrics::new());
        let advertise = "127.0.0.1:9".to_string();
        let replicator =
            Replicator::connect(&[addr], 1, ReplAckPolicy::None, advertise, backlog, metrics)
                .unwrap();
        let event = VisitEvent {
            host: "a.example".into(),
            observed: vec!["sid".into()],
            kind: crate::wal::EventKind::Observe,
        };
        let (started, mut writes) = (Instant::now(), 0);
        while started.elapsed() < Duration::from_millis(1500) {
            replicator.ship(&event).unwrap();
            writes += 1;
            std::thread::sleep(Duration::from_millis(1));
        }
        replicator.retire();
        done.store(true, Ordering::Release);
        follower.join().unwrap();
        // Backoff 200, 400, 800 ms (+ jitter) fits three redials in 1.5 s.
        let redials = redials.load(Ordering::Acquire);
        assert!(redials <= 5, "{redials} redials during {writes} writes");
    }

    #[test]
    fn backlog_capacity_shrink_trims_oldest() {
        let mut backlog = Backlog::new(8);
        for i in 1..=8u64 {
            backlog.push(rec(i), 1);
        }
        backlog.set_capacity(2);
        assert!(backlog.generation_at(6).is_some());
        assert!(backlog.generation_at(5).is_none());
    }

    #[test]
    fn backlog_tracks_each_records_generation_and_frames_the_changes() {
        let mut backlog = Backlog::new(3);
        let gen2 = control_frame(CONTROL_GENERATION, &2u64.to_le_bytes());
        assert_eq!(backlog.frame(vec![9], 0), vec![9], "same generation: the bare record");
        assert_eq!(backlog.frame(vec![9], 2), [gen2, vec![9]].concat());
        backlog.push(rec(1), 1);
        backlog.push(rec(2), 1);
        backlog.push(rec(3), 2);
        backlog.push(rec(4), 3);
        // Capacity 3 keeps records 2..=4; record 1 is the oldest cursor.
        let lineage: Vec<_> = (0..=4).map(|seq| backlog.generation_at(seq)).collect();
        assert_eq!(lineage, vec![None, Some(1), Some(1), Some(2), Some(3)]);
        assert_eq!(backlog.last_generation(), 3);
        // Trimming drops epochs the tail no longer covers.
        backlog.push(rec(5), 3);
        backlog.push(rec(6), 3);
        assert_eq!(backlog.epochs, VecDeque::from([(2, 3), (3, 4)]));
        assert_eq!(backlog.generation_at(3), Some(2));
    }

    #[test]
    fn redial_backoff_is_bounded_and_deterministic() {
        for attempts in 0..12 {
            let d = redial_backoff(3, 1, attempts);
            assert!(d >= REDIAL_BASE, "{attempts} attempts → {d:?}");
            assert!(d <= REDIAL_MAX + Duration::from_millis(50), "{attempts} attempts → {d:?}");
        }
        assert_eq!(redial_backoff(7, 2, 3), redial_backoff(7, 2, 3), "seeded jitter is stable");
    }

    #[test]
    fn control_frames_use_the_high_length_bit() {
        const { assert!(MAX_RECORD_BYTES < CONTROL_BIT, "record lengths can never look like control") };
        let payload = [CONTROL_BOOTSTRAP, b'x'];
        let len_le = (payload.len() as u32 | CONTROL_BIT).to_le_bytes();
        let raw = u32::from_le_bytes(len_le);
        assert_ne!(raw & CONTROL_BIT, 0);
        assert_eq!(raw & !CONTROL_BIT, 2);
    }
}
