//! Service metrics and their Prometheus text rendering.
//!
//! A fixed, allocation-free registry: every series the server exports is a
//! named field, bumped through atomics ([`cp_runtime::metrics`]) on the hot
//! path. `GET /metrics` renders the classic text exposition format:
//!
//! ```text
//! cp_requests_total{endpoint="visit"} 9000
//! cp_request_micros_bucket{route="visit",le="1024"} 4123
//! cp_decisions_total{verdict="useful"} 211
//! cp_ready_conns 0
//! ```

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use cp_runtime::metrics::{Counter, Gauge, Histogram};

/// `result` label values for `cp_hidden_fetch_total`, in rendering order.
pub const HIDDEN_FETCH_RESULTS: [&str; 6] =
    ["ok", "drop", "reset", "http_5xx", "truncated", "deadline"];

/// `reason` label values for `cp_probe_inconclusive_total`, in rendering
/// order — mirrors `cookiepicker_core::InconclusiveReason::ALL`.
pub const INCONCLUSIVE_REASONS: [&str; 4] = ["transport", "deadline", "server_error", "truncated"];

/// `result` label values for `cp_site_derive_total`, in rendering order.
pub const SITE_DERIVE_RESULTS: [&str; 3] = ["hit", "miss", "unknown"];

/// `cause` label values for `cp_conn_closed_total`, in rendering order.
/// `client` covers clean peer closes and client-requested closes
/// (HTTP/1.0, `Connection: close`); `timeout` a stalled read (slowloris,
/// half-sent body); `error` protocol violations (400/413), 5xx responses
/// and transport faults; `shed` the admission cap's inline 503; `drain`
/// keep-alives ended by shutdown; `write_failed` a response the peer
/// stopped reading.
pub const CONN_CLOSE_CAUSES: [&str; 6] =
    ["client", "timeout", "error", "shed", "drain", "write_failed"];

/// `kind` label values for `cp_wal_faults_total`, in rendering order —
/// the injected storage-fault taxonomy (`crate::storage::StorageFaults`).
pub const WAL_FAULT_KINDS: [&str; 4] = ["short_write", "torn_write", "enospc", "fsync"];

/// The endpoints the server distinguishes in its per-endpoint series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
    /// `POST /v1/classify`.
    Classify,
    /// `POST /v1/visit`.
    Visit,
    /// `GET /v1/sites/{host}`.
    Sites,
    /// `GET /v1/marks`.
    Marks,
    /// `POST /v1/expire`.
    Expire,
    /// `POST /v1/repl/lead` (cluster control plane).
    Repl,
    /// `POST /v1/shutdown`.
    Shutdown,
    /// Anything else (404s, bad requests).
    Other,
}

impl Endpoint {
    /// All endpoints, in rendering order.
    pub const ALL: [Endpoint; 10] = [
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Classify,
        Endpoint::Visit,
        Endpoint::Sites,
        Endpoint::Marks,
        Endpoint::Expire,
        Endpoint::Repl,
        Endpoint::Shutdown,
        Endpoint::Other,
    ];

    /// The `endpoint` label value.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Classify => "classify",
            Endpoint::Visit => "visit",
            Endpoint::Sites => "sites",
            Endpoint::Marks => "marks",
            Endpoint::Expire => "expire",
            Endpoint::Repl => "repl",
            Endpoint::Shutdown => "shutdown",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        Endpoint::ALL.iter().position(|e| *e == self).expect("endpoint in ALL")
    }
}

/// Bucket bounds for the detection-time histogram, in microseconds. Powers
/// of two: detection times span roughly three orders of magnitude between
/// a cache-hit re-comparison and a cold parse of a large page, and
/// power-of-two buckets keep relative error constant across that range.
pub const DETECTION_BUCKETS_MICROS: [u64; 14] =
    [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192];

/// Bucket bounds for the WAL fsync-latency histogram, in microseconds.
/// Wider than the detection buckets: an fsync is tens of microseconds on
/// a warm SSD page cache but can stall for hundreds of milliseconds when
/// the device queue backs up, and both tails matter for the fsync-policy
/// trade-off.
pub const WAL_FSYNC_BUCKETS_MICROS: [u64; 12] =
    [8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536, 262144];

/// Bucket bounds for the per-route request-time histogram
/// (`cp_request_micros`), in microseconds. Powers of two from 1µs to
/// ~32ms: a cached healthz is single-digit microseconds while a cold
/// classify parse can run tens of milliseconds, and constant relative
/// error across that span is what a latency SLO needs.
pub const REQUEST_BUCKETS_MICROS: [u64; 16] =
    [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768];

/// Bucket bounds for the crawler revisit-lag histogram, in scheduler
/// ticks. Lag is zero when the frontier keeps up and grows by whole
/// politeness windows when it falls behind, so power-of-two tick buckets
/// resolve both regimes.
pub const CRAWL_LAG_BUCKETS_TICKS: [u64; 10] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512];

/// Follower slots the fixed registry reserves for
/// `cp_repl_records_total{peer}` — the registry is allocation-free, so
/// the per-peer counters are a fixed array and peers beyond it share the
/// last slot.
pub const MAX_REPL_PEERS: usize = 8;

/// The server's metric registry.
#[derive(Debug)]
pub struct ServiceMetrics {
    /// Requests routed to each endpoint, indexed like [`Endpoint::ALL`].
    requests: [Counter; 10],
    /// Per-route request time in power-of-two buckets
    /// ([`REQUEST_BUCKETS_MICROS`]), indexed like `requests`.
    request_micros: [Histogram; 10],
    /// Event-loop wakeups (`epoll_wait` returns with ≥1 event).
    pub event_loop_wakeups: Counter,
    /// Connections with readiness events in the event-loop pass being
    /// processed right now (the readiness-loop analogue of queue depth).
    pub ready_conns: Gauge,
    /// Responses by status class.
    pub responses_2xx: Counter,
    /// 4xx responses (bad requests, 404s, 413s).
    pub responses_4xx: Counter,
    /// 5xx responses (handler panics).
    pub responses_5xx: Counter,
    /// Detection verdicts: difference attributed to cookies.
    pub decisions_useful: Counter,
    /// Detection verdicts: page-dynamics noise.
    pub decisions_noise: Counter,
    /// Server-side detection time (`decide` proper, excluding transport
    /// and body parsing), in microseconds.
    pub detection: Histogram,
    /// Page-analysis cache hits (body already compiled).
    pub cache_hits: Counter,
    /// Page-analysis cache misses (parse + extract ran).
    pub cache_misses: Counter,
    /// Site lookups by result, indexed by [`SITE_DERIVE_RESULTS`].
    site_derive: [Counter; 3],
    /// Time to derive one site from the universe (cache misses only), in
    /// microseconds.
    pub site_derive_micros: Histogram,
    /// Connections accepted over the server's lifetime.
    pub connections_total: Counter,
    /// Connections rejected because the admission cap was reached.
    pub rejected_total: Counter,
    /// Hidden-fetch outcomes by result, indexed by [`HIDDEN_FETCH_RESULTS`].
    hidden_fetch: [Counter; 6],
    /// Deferred probes by reason, indexed by [`INCONCLUSIVE_REASONS`].
    probe_inconclusive: [Counter; 4],
    /// Hidden-fetch retries issued (attempts beyond the first).
    pub retry_total: Counter,
    /// Detections that overran the configured deadline.
    pub deadline_exceeded_total: Counter,
    /// Detection-deadline threshold, in microseconds (`u64::MAX` = off).
    detection_deadline_micros: AtomicU64,
    /// Connection closes by cause, indexed by [`CONN_CLOSE_CAUSES`].
    conn_closed: [Counter; 6],
    /// WAL records appended (and therefore durably acked).
    pub wal_records_total: Counter,
    /// WAL fsync latency, in microseconds.
    pub wal_fsync: Histogram,
    /// Snapshots written, by `result` (`ok` / `error`).
    snapshot: [Counter; 2],
    /// Injected storage faults handled, indexed by [`WAL_FAULT_KINDS`].
    wal_faults: [Counter; 4],
    /// Replicated records acked per follower, indexed by peer position;
    /// only the first `repl_peer_count` render ([`MAX_REPL_PEERS`] slots).
    repl_records: [Counter; MAX_REPL_PEERS],
    /// Followers the current replicator streams to (bounds the rendered
    /// `cp_repl_records_total{peer}` series).
    repl_peer_count: AtomicUsize,
    /// Max records any *connected* follower trails the primary's log head
    /// (down peers are excluded — see `cp_repl_peer_up`).
    pub repl_lag_records: Gauge,
    /// 1 while the peer's stream is connected (live or behind),
    /// 0 while it is down; indexed like `repl_records`.
    repl_peer_up: [Gauge; MAX_REPL_PEERS],
    /// Time a write waits for its followers' acks (every live follower
    /// acked, or the deadline), in microseconds.
    pub repl_ack_micros: Histogram,
    /// Peers brought back to the live stream after a disconnect or
    /// demotion (each is one completed resync).
    pub repl_resync_total: Counter,
    /// Log-tail records streamed to peers that were behind the head.
    pub repl_resync_records_total: Counter,
    /// Live peers demoted to behind for missing a write's ack deadline.
    pub repl_slow_demotions_total: Counter,
    /// Bootstrap hints sent to peers the log tail cannot stream to
    /// (primary side).
    pub repl_bootstrap_hints_total: Counter,
    /// Snapshot bootstraps installed (follower side).
    pub repl_bootstrap_total: Counter,
    /// Worst single ack wait since start, in microseconds — the stall a
    /// slow follower actually added to a client write.
    pub repl_ack_stall_max_micros: Gauge,
    /// Primary promotions performed (bumped by the router tier).
    pub failover_total: Counter,
    /// Ring reads failed over to the next alive backend after a transport
    /// error (router tier).
    pub route_read_failover_total: Counter,
    /// Sum of `cp_repl_resync_total` across the backends a router
    /// heartbeats (router tier).
    pub route_resyncs_observed: Gauge,
    /// Max `cp_repl_ack_stall_max_micros` across those backends.
    pub route_max_ack_stall_micros: Gauge,
    /// WAL records replayed by the last startup recovery.
    pub recovery_records_replayed: Gauge,
    /// Torn-tail bytes discarded by the last startup recovery.
    pub recovery_torn_tail_bytes: Gauge,
    /// Hosts currently queued in the crawler frontier.
    pub crawl_frontier_depth: Gauge,
    /// Visits the crawler completed (any outcome).
    pub crawl_visits_total: Counter,
    /// Hosts the crawler discovered via keyset enumeration.
    pub crawl_discovered_total: Counter,
    /// Crawler visits whose probe deferred (`ProbeOutcome::Inconclusive`).
    pub crawl_inconclusive_total: Counter,
    /// Crawler reschedules forced by backoff (inconclusive or transport).
    pub crawl_backoff_total: Counter,
    /// Crawled hosts the resolver rejected (dropped from the frontier).
    pub crawl_unknown_host_total: Counter,
    /// Marks expired by the usefulness TTL into the re-verification queue.
    pub crawl_expired_marks_total: Counter,
    /// Lag between a revisit's due tick and its actual visit tick, in
    /// ticks (scheduler pressure: 0-lag means the frontier keeps up).
    pub crawl_revisit_lag: Histogram,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        ServiceMetrics::new()
    }
}

impl ServiceMetrics {
    /// Creates a zeroed registry.
    pub fn new() -> Self {
        ServiceMetrics {
            requests: Default::default(),
            request_micros: std::array::from_fn(|_| {
                Histogram::with_bounds(&REQUEST_BUCKETS_MICROS)
            }),
            event_loop_wakeups: Counter::new(),
            ready_conns: Gauge::new(),
            responses_2xx: Counter::new(),
            responses_4xx: Counter::new(),
            responses_5xx: Counter::new(),
            decisions_useful: Counter::new(),
            decisions_noise: Counter::new(),
            detection: Histogram::with_bounds(&DETECTION_BUCKETS_MICROS),
            cache_hits: Counter::new(),
            cache_misses: Counter::new(),
            site_derive: Default::default(),
            site_derive_micros: Histogram::with_bounds(&DETECTION_BUCKETS_MICROS),
            connections_total: Counter::new(),
            rejected_total: Counter::new(),
            hidden_fetch: Default::default(),
            probe_inconclusive: Default::default(),
            retry_total: Counter::new(),
            deadline_exceeded_total: Counter::new(),
            detection_deadline_micros: AtomicU64::new(u64::MAX),
            conn_closed: Default::default(),
            wal_records_total: Counter::new(),
            wal_fsync: Histogram::with_bounds(&WAL_FSYNC_BUCKETS_MICROS),
            snapshot: Default::default(),
            wal_faults: Default::default(),
            repl_records: Default::default(),
            repl_peer_count: AtomicUsize::new(0),
            repl_lag_records: Gauge::new(),
            repl_peer_up: Default::default(),
            repl_ack_micros: Histogram::with_bounds(&WAL_FSYNC_BUCKETS_MICROS),
            repl_resync_total: Counter::new(),
            repl_resync_records_total: Counter::new(),
            repl_slow_demotions_total: Counter::new(),
            repl_bootstrap_hints_total: Counter::new(),
            repl_bootstrap_total: Counter::new(),
            repl_ack_stall_max_micros: Gauge::new(),
            failover_total: Counter::new(),
            route_read_failover_total: Counter::new(),
            route_resyncs_observed: Gauge::new(),
            route_max_ack_stall_micros: Gauge::new(),
            recovery_records_replayed: Gauge::new(),
            recovery_torn_tail_bytes: Gauge::new(),
            crawl_frontier_depth: Gauge::new(),
            crawl_visits_total: Counter::new(),
            crawl_discovered_total: Counter::new(),
            crawl_inconclusive_total: Counter::new(),
            crawl_backoff_total: Counter::new(),
            crawl_unknown_host_total: Counter::new(),
            crawl_expired_marks_total: Counter::new(),
            crawl_revisit_lag: Histogram::with_bounds(&CRAWL_LAG_BUCKETS_TICKS),
        }
    }

    /// The request counter for `endpoint`.
    pub fn requests(&self, endpoint: Endpoint) -> &Counter {
        &self.requests[endpoint.index()]
    }

    /// The power-of-two request-time histogram for `endpoint`.
    pub fn request_micros(&self, endpoint: Endpoint) -> &Histogram {
        &self.request_micros[endpoint.index()]
    }

    /// Records one handled request.
    pub fn record(&self, endpoint: Endpoint, status: u16, micros: u64) {
        self.requests[endpoint.index()].inc();
        self.request_micros[endpoint.index()].observe(micros);
        match status {
            200..=299 => self.responses_2xx.inc(),
            500..=599 => self.responses_5xx.inc(),
            _ => self.responses_4xx.inc(),
        }
    }

    /// Records one decision verdict.
    pub fn record_verdict(&self, useful: bool) {
        if useful {
            self.decisions_useful.inc();
        } else {
            self.decisions_noise.inc();
        }
    }

    /// Records one page-analysis cache lookup.
    pub fn record_cache(&self, hit: bool) {
        if hit {
            self.cache_hits.inc();
        } else {
            self.cache_misses.inc();
        }
    }

    /// Sets the detection-deadline threshold. Detections observed through
    /// [`record_detection`](Self::record_detection) that take longer bump
    /// `cp_deadline_exceeded_total`. `u64::MAX` (the default) disables it.
    pub fn set_detection_deadline_micros(&self, micros: u64) {
        self.detection_deadline_micros.store(micros, Ordering::Relaxed);
    }

    /// Observes one detection time and checks it against the deadline.
    pub fn record_detection(&self, micros: u64) {
        self.detection.observe(micros);
        if micros > self.detection_deadline_micros.load(Ordering::Relaxed) {
            self.deadline_exceeded_total.inc();
        }
    }

    /// Records one hidden-fetch outcome; `result` must be a
    /// [`HIDDEN_FETCH_RESULTS`] label (anything else is ignored).
    pub fn record_hidden_fetch(&self, result: &str) {
        if let Some(i) = HIDDEN_FETCH_RESULTS.iter().position(|r| *r == result) {
            self.hidden_fetch[i].inc();
        }
    }

    /// Records one site lookup against the lazy world; `result` must be a
    /// [`SITE_DERIVE_RESULTS`] label (anything else is ignored). `micros`
    /// is the derivation time for cache misses (`None` when nothing was
    /// derived, so the histogram measures derivation proper).
    pub fn record_site_derive(&self, result: &str, micros: Option<u64>) {
        if let Some(i) = SITE_DERIVE_RESULTS.iter().position(|r| *r == result) {
            self.site_derive[i].inc();
        }
        if let Some(micros) = micros {
            self.site_derive_micros.observe(micros);
        }
    }

    /// The current value of one `cp_site_derive_total` series.
    pub fn site_derive_count(&self, result: &str) -> u64 {
        SITE_DERIVE_RESULTS
            .iter()
            .position(|r| *r == result)
            .map_or(0, |i| self.site_derive[i].get())
    }

    /// Records one deferred probe; `reason` must be an
    /// [`INCONCLUSIVE_REASONS`] label (anything else is ignored).
    pub fn record_inconclusive(&self, reason: &str) {
        if let Some(i) = INCONCLUSIVE_REASONS.iter().position(|r| *r == reason) {
            self.probe_inconclusive[i].inc();
        }
    }

    /// Records one connection close; `cause` must be a
    /// [`CONN_CLOSE_CAUSES`] label (anything else is ignored).
    pub fn record_conn_closed(&self, cause: &str) {
        if let Some(i) = CONN_CLOSE_CAUSES.iter().position(|c| *c == cause) {
            self.conn_closed[i].inc();
        }
    }

    /// Records one handled storage fault; `kind` must be a
    /// [`WAL_FAULT_KINDS`] label (anything else is ignored).
    pub fn record_wal_fault(&self, kind: &str) {
        if let Some(i) = WAL_FAULT_KINDS.iter().position(|k| *k == kind) {
            self.wal_faults[i].inc();
        }
    }

    /// Total injected storage faults handled, across all kinds.
    pub fn wal_fault_total(&self) -> u64 {
        self.wal_faults.iter().map(Counter::get).sum()
    }

    /// Sets how many `cp_repl_records_total{peer}` series render (the
    /// follower count of the current replicator, capped at
    /// [`MAX_REPL_PEERS`]).
    pub fn set_repl_peers(&self, peers: usize) {
        self.repl_peer_count.store(peers.min(MAX_REPL_PEERS), Ordering::Relaxed);
    }

    /// Flips one `cp_repl_peer_up{peer}` series (out-of-range indices are
    /// dropped, mirroring the render cap).
    pub fn set_repl_peer_up(&self, idx: usize, up: bool) {
        if let Some(gauge) = self.repl_peer_up.get(idx) {
            gauge.set(i64::from(up));
        }
    }

    /// Records `records` newly acked replicated records for follower
    /// `peer` (peers beyond the fixed slots share the last one).
    pub fn record_repl_acks(&self, peer: usize, records: u64) {
        self.repl_records[peer.min(MAX_REPL_PEERS - 1)].add(records);
    }

    /// The current value of one `cp_repl_records_total{peer}` series.
    pub fn repl_records_count(&self, peer: usize) -> u64 {
        self.repl_records.get(peer).map_or(0, Counter::get)
    }

    /// Records one snapshot attempt.
    pub fn record_snapshot(&self, ok: bool) {
        self.snapshot[usize::from(!ok)].inc();
    }

    /// The current value of one `cp_snapshot_total` series.
    pub fn snapshot_count(&self, result: &str) -> u64 {
        match result {
            "ok" => self.snapshot[0].get(),
            "error" => self.snapshot[1].get(),
            _ => 0,
        }
    }

    /// The current value of one `cp_hidden_fetch_total` series.
    pub fn hidden_fetch_count(&self, result: &str) -> u64 {
        HIDDEN_FETCH_RESULTS
            .iter()
            .position(|r| *r == result)
            .map_or(0, |i| self.hidden_fetch[i].get())
    }

    /// The current value of one `cp_conn_closed_total` series.
    pub fn conn_closed_count(&self, cause: &str) -> u64 {
        CONN_CLOSE_CAUSES.iter().position(|c| *c == cause).map_or(0, |i| self.conn_closed[i].get())
    }

    /// Renders the Prometheus text exposition.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("# TYPE cp_requests_total counter\n");
        for e in Endpoint::ALL {
            let _ = writeln!(
                out,
                "cp_requests_total{{endpoint=\"{}\"}} {}",
                e.label(),
                self.requests(e).get()
            );
        }
        out.push_str("# TYPE cp_request_micros histogram\n");
        for e in Endpoint::ALL {
            let route = format!("route=\"{}\"", e.label());
            render_histogram(&mut out, "cp_request_micros", &route, self.request_micros(e));
        }
        out.push_str("# TYPE cp_responses_total counter\n");
        for (class, counter) in [
            ("2xx", &self.responses_2xx),
            ("4xx", &self.responses_4xx),
            ("5xx", &self.responses_5xx),
        ] {
            let _ = writeln!(out, "cp_responses_total{{class=\"{class}\"}} {}", counter.get());
        }
        out.push_str("# TYPE cp_decisions_total counter\n");
        let _ = writeln!(
            out,
            "cp_decisions_total{{verdict=\"useful\"}} {}",
            self.decisions_useful.get()
        );
        let _ =
            writeln!(out, "cp_decisions_total{{verdict=\"noise\"}} {}", self.decisions_noise.get());
        out.push_str("# TYPE cp_detection_micros histogram\n");
        render_histogram(&mut out, "cp_detection_micros", "", &self.detection);
        out.push_str("# TYPE cp_hidden_fetch_total counter\n");
        for (label, counter) in HIDDEN_FETCH_RESULTS.iter().zip(&self.hidden_fetch) {
            let _ = writeln!(out, "cp_hidden_fetch_total{{result=\"{label}\"}} {}", counter.get());
        }
        out.push_str("# TYPE cp_probe_inconclusive_total counter\n");
        for (label, counter) in INCONCLUSIVE_REASONS.iter().zip(&self.probe_inconclusive) {
            let _ = writeln!(
                out,
                "cp_probe_inconclusive_total{{reason=\"{label}\"}} {}",
                counter.get()
            );
        }
        counter(&mut out, "cp_retry_total", self.retry_total.get());
        counter(&mut out, "cp_deadline_exceeded_total", self.deadline_exceeded_total.get());
        out.push_str("# TYPE cp_analysis_cache_total counter\n");
        let _ =
            writeln!(out, "cp_analysis_cache_total{{result=\"hit\"}} {}", self.cache_hits.get());
        let _ =
            writeln!(out, "cp_analysis_cache_total{{result=\"miss\"}} {}", self.cache_misses.get());
        out.push_str("# TYPE cp_site_derive_total counter\n");
        for (label, counter) in SITE_DERIVE_RESULTS.iter().zip(&self.site_derive) {
            let _ = writeln!(out, "cp_site_derive_total{{result=\"{label}\"}} {}", counter.get());
        }
        out.push_str("# TYPE cp_site_derive_micros histogram\n");
        render_histogram(&mut out, "cp_site_derive_micros", "", &self.site_derive_micros);
        gauge(&mut out, "cp_ready_conns", self.ready_conns.get());
        counter(&mut out, "cp_event_loop_wakeups_total", self.event_loop_wakeups.get());
        counter(&mut out, "cp_connections_total", self.connections_total.get());
        counter(&mut out, "cp_rejected_total", self.rejected_total.get());
        out.push_str("# TYPE cp_conn_closed_total counter\n");
        for (label, counter) in CONN_CLOSE_CAUSES.iter().zip(&self.conn_closed) {
            let _ = writeln!(out, "cp_conn_closed_total{{cause=\"{label}\"}} {}", counter.get());
        }
        counter(&mut out, "cp_wal_records_total", self.wal_records_total.get());
        out.push_str("# TYPE cp_wal_fsync_micros histogram\n");
        render_histogram(&mut out, "cp_wal_fsync_micros", "", &self.wal_fsync);
        out.push_str("# TYPE cp_snapshot_total counter\n");
        for (result, counter) in ["ok", "error"].iter().zip(&self.snapshot) {
            let _ = writeln!(out, "cp_snapshot_total{{result=\"{result}\"}} {}", counter.get());
        }
        out.push_str("# TYPE cp_wal_faults_total counter\n");
        for (label, counter) in WAL_FAULT_KINDS.iter().zip(&self.wal_faults) {
            let _ = writeln!(out, "cp_wal_faults_total{{kind=\"{label}\"}} {}", counter.get());
        }
        out.push_str("# TYPE cp_repl_records_total counter\n");
        for peer in 0..self.repl_peer_count.load(Ordering::Relaxed) {
            let _ = writeln!(
                out,
                "cp_repl_records_total{{peer=\"{peer}\"}} {}",
                self.repl_records[peer].get()
            );
        }
        out.push_str("# TYPE cp_repl_peer_up gauge\n");
        for peer in 0..self.repl_peer_count.load(Ordering::Relaxed) {
            let _ = writeln!(
                out,
                "cp_repl_peer_up{{peer=\"{peer}\"}} {}",
                self.repl_peer_up[peer].get()
            );
        }
        gauge(&mut out, "cp_repl_lag_records", self.repl_lag_records.get());
        counter(&mut out, "cp_repl_resync_total", self.repl_resync_total.get());
        counter(&mut out, "cp_repl_resync_records_total", self.repl_resync_records_total.get());
        counter(&mut out, "cp_repl_slow_demotions_total", self.repl_slow_demotions_total.get());
        counter(&mut out, "cp_repl_bootstrap_hints_total", self.repl_bootstrap_hints_total.get());
        counter(&mut out, "cp_repl_bootstrap_total", self.repl_bootstrap_total.get());
        gauge(&mut out, "cp_repl_ack_stall_max_micros", self.repl_ack_stall_max_micros.get());
        out.push_str("# TYPE cp_repl_ack_micros histogram\n");
        render_histogram(&mut out, "cp_repl_ack_micros", "", &self.repl_ack_micros);
        counter(&mut out, "cp_failover_total", self.failover_total.get());
        counter(&mut out, "cp_route_read_failover_total", self.route_read_failover_total.get());
        gauge(&mut out, "cp_route_resyncs_observed", self.route_resyncs_observed.get());
        gauge(&mut out, "cp_route_max_ack_stall_micros", self.route_max_ack_stall_micros.get());
        gauge(&mut out, "cp_crawl_frontier_depth", self.crawl_frontier_depth.get());
        counter(&mut out, "cp_crawl_visits_total", self.crawl_visits_total.get());
        counter(&mut out, "cp_crawl_discovered_total", self.crawl_discovered_total.get());
        counter(&mut out, "cp_crawl_inconclusive_total", self.crawl_inconclusive_total.get());
        counter(&mut out, "cp_crawl_backoff_total", self.crawl_backoff_total.get());
        counter(&mut out, "cp_crawl_unknown_host_total", self.crawl_unknown_host_total.get());
        counter(&mut out, "cp_crawl_expired_marks_total", self.crawl_expired_marks_total.get());
        out.push_str("# TYPE cp_crawl_revisit_lag_ticks histogram\n");
        render_histogram(&mut out, "cp_crawl_revisit_lag_ticks", "", &self.crawl_revisit_lag);
        gauge(&mut out, "cp_recovery_records_replayed", self.recovery_records_replayed.get());
        gauge(&mut out, "cp_recovery_torn_tail_bytes", self.recovery_torn_tail_bytes.get());
        out
    }
}

/// Appends an unlabelled counter with its `# TYPE` line.
fn counter(out: &mut String, name: &str, value: u64) {
    let _ = writeln!(out, "# TYPE {name} counter\n{name} {value}");
}

/// Appends an unlabelled gauge with its `# TYPE` line.
fn gauge(out: &mut String, name: &str, value: i64) {
    let _ = writeln!(out, "# TYPE {name} gauge\n{name} {value}");
}

/// Appends a histogram's `_bucket`, `_sum` and `_count` lines, each
/// carrying `label` (e.g. `route="visit"`, or empty for none). An idle
/// histogram renders nothing: no buckets until observed.
fn render_histogram(out: &mut String, name: &str, label: &str, hist: &Histogram) {
    if hist.count() == 0 {
        return;
    }
    let (sep, braced) =
        if label.is_empty() { ("", String::new()) } else { (",", format!("{{{label}}}")) };
    for (bound, cumulative) in hist.snapshot() {
        let le = if bound == u64::MAX { "+Inf".to_string() } else { bound.to_string() };
        let _ = writeln!(out, "{name}_bucket{{{label}{sep}le=\"{le}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{name}_sum{braced} {}", hist.sum_micros());
    let _ = writeln!(out, "{name}_count{braced} {}", hist.count());
}

/// Parses a counter value out of a Prometheus exposition, e.g.
/// `scrape_counter(text, "cp_decisions_total{verdict=\"useful\"}")`.
/// Returns `None` when the exact series line is absent.
pub fn scrape_counter(exposition: &str, series: &str) -> Option<u64> {
    exposition.lines().find_map(|line| {
        let rest = line.strip_prefix(series)?;
        rest.trim().parse().ok()
    })
}

/// Parses the cumulative buckets of a label-free histogram out of a
/// Prometheus exposition: `scrape_histogram(text, "cp_detection_micros")`
/// returns `(upper_bound, cumulative_count)` pairs in exposition order,
/// with `+Inf` mapped to `u64::MAX`. Empty when the histogram was not
/// rendered (no observations).
pub fn scrape_histogram(exposition: &str, name: &str) -> Vec<(u64, u64)> {
    let prefix = format!("{name}_bucket{{le=\"");
    let mut buckets = Vec::new();
    for line in exposition.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else { continue };
        let Some((le, value)) = rest.split_once("\"}") else { continue };
        let bound = if le == "+Inf" { Some(u64::MAX) } else { le.parse().ok() };
        if let (Some(bound), Ok(cumulative)) = (bound, value.trim().parse()) {
            buckets.push((bound, cumulative));
        }
    }
    buckets
}

/// Estimates a quantile from cumulative histogram buckets (as returned by
/// [`scrape_histogram`]), linearly interpolating within the winning bucket
/// — the scrape-side mirror of `Histogram::quantile_micros`. Returns `0.0`
/// for an empty histogram.
pub fn quantile_from_buckets(buckets: &[(u64, u64)], q: f64) -> f64 {
    let total = buckets.last().map(|&(_, c)| c).unwrap_or(0);
    if total == 0 {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut lower = 0u64;
    let mut below = 0u64;
    for &(bound, cumulative) in buckets {
        if cumulative >= rank {
            let in_bucket = cumulative - below;
            let upper = if bound == u64::MAX { lower.saturating_mul(2).max(1) } else { bound };
            let fraction = (rank - below) as f64 / in_bucket.max(1) as f64;
            return lower as f64 + fraction * (upper.saturating_sub(lower)) as f64;
        }
        below = cumulative;
        if bound != u64::MAX {
            lower = bound;
        }
    }
    lower as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_routes_to_series() {
        let m = ServiceMetrics::new();
        m.record(Endpoint::Visit, 200, 500);
        m.record(Endpoint::Visit, 400, 100);
        m.record(Endpoint::Classify, 500, 100);
        assert_eq!(m.requests(Endpoint::Visit).get(), 2);
        assert_eq!(m.responses_2xx.get(), 1);
        assert_eq!(m.responses_4xx.get(), 1);
        assert_eq!(m.responses_5xx.get(), 1);
        assert_eq!(m.request_micros(Endpoint::Visit).count(), 2);
    }

    #[test]
    fn prometheus_text_is_scrapable() {
        let m = ServiceMetrics::new();
        m.record(Endpoint::Healthz, 200, 42);
        m.record_verdict(true);
        m.record_verdict(false);
        m.record_verdict(false);
        m.ready_conns.set(3);
        let text = m.render_prometheus();
        assert_eq!(scrape_counter(&text, "cp_requests_total{endpoint=\"healthz\"}"), Some(1));
        assert_eq!(scrape_counter(&text, "cp_requests_total{endpoint=\"visit\"}"), Some(0));
        assert_eq!(scrape_counter(&text, "cp_decisions_total{verdict=\"useful\"}"), Some(1));
        assert_eq!(scrape_counter(&text, "cp_decisions_total{verdict=\"noise\"}"), Some(2));
        assert_eq!(scrape_counter(&text, "cp_ready_conns"), Some(3));
        assert!(text.contains("cp_request_micros_bucket{route=\"healthz\",le=\"64\"} 1"));
        assert!(text.contains("le=\"+Inf\""));
        assert_eq!(scrape_counter(&text, "nope"), None);
        // Idle endpoints emit no histogram series.
        assert!(!text.contains("cp_request_micros_count{route=\"visit\"}"));
    }

    #[test]
    fn detection_histogram_and_cache_counters_render() {
        let m = ServiceMetrics::new();
        let empty = m.render_prometheus();
        // Idle detection histogram emits no buckets, but the cache
        // counters always render (zero is meaningful there).
        assert!(!empty.contains("cp_detection_micros_bucket"));
        assert_eq!(scrape_counter(&empty, "cp_analysis_cache_total{result=\"hit\"}"), Some(0));

        m.detection.observe(3);
        m.detection.observe(100);
        m.record_cache(true);
        m.record_cache(false);
        m.record_cache(false);
        let text = m.render_prometheus();
        assert!(text.contains("cp_detection_micros_bucket{le=\"4\"} 1"));
        assert!(text.contains("cp_detection_micros_bucket{le=\"+Inf\"} 2"));
        assert_eq!(scrape_counter(&text, "cp_detection_micros_count"), Some(2));
        assert_eq!(scrape_counter(&text, "cp_analysis_cache_total{result=\"hit\"}"), Some(1));
        assert_eq!(scrape_counter(&text, "cp_analysis_cache_total{result=\"miss\"}"), Some(2));
    }

    #[test]
    fn fault_series_render_with_zeros_and_count_by_label() {
        let m = ServiceMetrics::new();
        let empty = m.render_prometheus();
        // Zero is meaningful for all fault series (it says "no faults"),
        // so every label renders even on an untouched registry.
        for label in HIDDEN_FETCH_RESULTS {
            let series = format!("cp_hidden_fetch_total{{result=\"{label}\"}}");
            assert_eq!(scrape_counter(&empty, &series), Some(0), "{series}");
        }
        for label in INCONCLUSIVE_REASONS {
            let series = format!("cp_probe_inconclusive_total{{reason=\"{label}\"}}");
            assert_eq!(scrape_counter(&empty, &series), Some(0), "{series}");
        }
        for label in CONN_CLOSE_CAUSES {
            let series = format!("cp_conn_closed_total{{cause=\"{label}\"}}");
            assert_eq!(scrape_counter(&empty, &series), Some(0), "{series}");
        }
        assert_eq!(scrape_counter(&empty, "cp_retry_total"), Some(0));
        assert_eq!(scrape_counter(&empty, "cp_deadline_exceeded_total"), Some(0));

        m.record_hidden_fetch("ok");
        m.record_hidden_fetch("ok");
        m.record_hidden_fetch("truncated");
        m.record_hidden_fetch("bogus"); // unknown labels are ignored
        m.record_inconclusive("server_error");
        m.record_conn_closed("timeout");
        m.record_conn_closed("shed");
        m.retry_total.inc();
        let text = m.render_prometheus();
        assert_eq!(scrape_counter(&text, "cp_hidden_fetch_total{result=\"ok\"}"), Some(2));
        assert_eq!(scrape_counter(&text, "cp_hidden_fetch_total{result=\"truncated\"}"), Some(1));
        assert_eq!(m.hidden_fetch_count("ok"), 2);
        assert_eq!(m.hidden_fetch_count("bogus"), 0);
        assert_eq!(
            scrape_counter(&text, "cp_probe_inconclusive_total{reason=\"server_error\"}"),
            Some(1)
        );
        assert_eq!(scrape_counter(&text, "cp_conn_closed_total{cause=\"timeout\"}"), Some(1));
        assert_eq!(m.conn_closed_count("shed"), 1);
        assert_eq!(scrape_counter(&text, "cp_retry_total"), Some(1));
    }

    #[test]
    fn detection_deadline_counts_overruns_only() {
        let m = ServiceMetrics::new();
        // Default deadline is off: nothing can exceed u64::MAX.
        m.record_detection(u64::MAX - 1);
        assert_eq!(m.deadline_exceeded_total.get(), 0);
        m.set_detection_deadline_micros(1_000);
        m.record_detection(999);
        m.record_detection(1_000); // at the deadline is still on time
        m.record_detection(1_001);
        m.record_detection(50_000);
        assert_eq!(m.deadline_exceeded_total.get(), 2);
        assert_eq!(m.detection.count(), 5);
    }

    #[test]
    fn durability_series_render_with_zeros() {
        let m = ServiceMetrics::new();
        let empty = m.render_prometheus();
        // Durability counters always render: zero says "no records / no
        // faults / no snapshots", which is meaningful. The fsync histogram
        // follows the idle-histogram rule (no buckets until observed).
        assert_eq!(scrape_counter(&empty, "cp_wal_records_total"), Some(0));
        assert_eq!(scrape_counter(&empty, "cp_snapshot_total{result=\"ok\"}"), Some(0));
        assert_eq!(scrape_counter(&empty, "cp_snapshot_total{result=\"error\"}"), Some(0));
        for kind in WAL_FAULT_KINDS {
            let series = format!("cp_wal_faults_total{{kind=\"{kind}\"}}");
            assert_eq!(scrape_counter(&empty, &series), Some(0), "{series}");
        }
        assert_eq!(scrape_counter(&empty, "cp_recovery_records_replayed"), Some(0));
        assert_eq!(scrape_counter(&empty, "cp_recovery_torn_tail_bytes"), Some(0));
        assert!(!empty.contains("cp_wal_fsync_micros_bucket"));

        m.wal_records_total.add(5);
        m.wal_fsync.observe(40);
        m.record_snapshot(true);
        m.record_snapshot(true);
        m.record_snapshot(false);
        m.record_wal_fault("torn_write");
        m.record_wal_fault("enospc");
        m.record_wal_fault("bogus"); // unknown kinds are ignored
        m.recovery_records_replayed.set(17);
        m.recovery_torn_tail_bytes.set(3);
        let text = m.render_prometheus();
        assert_eq!(scrape_counter(&text, "cp_wal_records_total"), Some(5));
        assert_eq!(scrape_counter(&text, "cp_wal_fsync_micros_count"), Some(1));
        assert_eq!(scrape_counter(&text, "cp_snapshot_total{result=\"ok\"}"), Some(2));
        assert_eq!(scrape_counter(&text, "cp_snapshot_total{result=\"error\"}"), Some(1));
        assert_eq!(m.snapshot_count("ok"), 2);
        assert_eq!(m.snapshot_count("error"), 1);
        assert_eq!(scrape_counter(&text, "cp_wal_faults_total{kind=\"torn_write\"}"), Some(1));
        assert_eq!(m.wal_fault_total(), 2);
        assert_eq!(scrape_counter(&text, "cp_recovery_records_replayed"), Some(17));
        assert_eq!(scrape_counter(&text, "cp_recovery_torn_tail_bytes"), Some(3));
    }

    #[test]
    fn replication_series_render() {
        let m = ServiceMetrics::new();
        let empty = m.render_prometheus();
        // No replicator → no per-peer series; the lag gauge and the
        // failover counter always render (zero is meaningful for both).
        assert!(!empty.contains("cp_repl_records_total{peer="));
        assert_eq!(scrape_counter(&empty, "cp_repl_lag_records"), Some(0));
        assert_eq!(scrape_counter(&empty, "cp_failover_total"), Some(0));
        assert!(!empty.contains("cp_repl_ack_micros_bucket"));

        m.set_repl_peers(2);
        m.record_repl_acks(0, 2);
        m.record_repl_acks(1, 1);
        m.repl_lag_records.set(3);
        m.repl_ack_micros.observe(120);
        m.failover_total.inc();
        m.set_repl_peer_up(0, true);
        m.repl_resync_total.inc();
        m.repl_resync_records_total.add(5);
        m.repl_slow_demotions_total.inc();
        m.repl_bootstrap_hints_total.inc();
        m.repl_bootstrap_total.inc();
        m.repl_ack_stall_max_micros.set_max(900);
        m.repl_ack_stall_max_micros.set_max(40);
        m.route_read_failover_total.inc();
        m.route_resyncs_observed.set(2);
        m.route_max_ack_stall_micros.set(900);
        let text = m.render_prometheus();
        assert_eq!(scrape_counter(&text, "cp_repl_records_total{peer=\"0\"}"), Some(2));
        assert_eq!(scrape_counter(&text, "cp_repl_records_total{peer=\"1\"}"), Some(1));
        assert!(!text.contains("cp_repl_records_total{peer=\"2\"}"));
        assert_eq!(m.repl_records_count(0), 2);
        assert_eq!(scrape_counter(&text, "cp_repl_lag_records"), Some(3));
        assert_eq!(scrape_counter(&text, "cp_repl_ack_micros_count"), Some(1));
        assert_eq!(scrape_counter(&text, "cp_repl_peer_up{peer=\"0\"}"), Some(1));
        assert_eq!(scrape_counter(&text, "cp_repl_peer_up{peer=\"1\"}"), Some(0));
        assert_eq!(scrape_counter(&text, "cp_repl_resync_total"), Some(1));
        assert_eq!(scrape_counter(&text, "cp_repl_resync_records_total"), Some(5));
        assert_eq!(scrape_counter(&text, "cp_repl_slow_demotions_total"), Some(1));
        assert_eq!(scrape_counter(&text, "cp_repl_bootstrap_hints_total"), Some(1));
        assert_eq!(scrape_counter(&text, "cp_repl_bootstrap_total"), Some(1));
        // set_max is a running maximum: the later, smaller sample is ignored.
        assert_eq!(scrape_counter(&text, "cp_repl_ack_stall_max_micros"), Some(900));
        assert_eq!(scrape_counter(&text, "cp_route_read_failover_total"), Some(1));
        assert_eq!(scrape_counter(&text, "cp_route_resyncs_observed"), Some(2));
        assert_eq!(scrape_counter(&text, "cp_route_max_ack_stall_micros"), Some(900));
        assert_eq!(scrape_counter(&text, "cp_failover_total"), Some(1));
        // Peers beyond the fixed slots share the last counter; the peer
        // count is capped to the rendered range.
        m.set_repl_peers(64);
        m.record_repl_acks(63, 1);
        assert_eq!(m.repl_records_count(MAX_REPL_PEERS - 1), 1);
        let text = m.render_prometheus();
        assert!(text.contains("cp_repl_records_total{peer=\"7\"}"));
        assert!(!text.contains("cp_repl_records_total{peer=\"8\"}"));
        // The repl control endpoint participates in the per-endpoint series.
        m.record(Endpoint::Repl, 200, 10);
        let text = m.render_prometheus();
        assert_eq!(scrape_counter(&text, "cp_requests_total{endpoint=\"repl\"}"), Some(1));
    }

    #[test]
    fn crawl_series_render_with_zeros() {
        let m = ServiceMetrics::new();
        let empty = m.render_prometheus();
        // Crawl counters always render (zero = "crawler idle"); the lag
        // histogram follows the idle-histogram rule.
        assert_eq!(scrape_counter(&empty, "cp_crawl_frontier_depth"), Some(0));
        assert_eq!(scrape_counter(&empty, "cp_crawl_visits_total"), Some(0));
        assert_eq!(scrape_counter(&empty, "cp_crawl_unknown_host_total"), Some(0));
        assert_eq!(scrape_counter(&empty, "cp_crawl_expired_marks_total"), Some(0));
        assert!(!empty.contains("cp_crawl_revisit_lag_ticks_bucket"));

        m.crawl_frontier_depth.set(12);
        m.crawl_visits_total.add(7);
        m.crawl_discovered_total.add(3);
        m.crawl_inconclusive_total.inc();
        m.crawl_backoff_total.inc();
        m.crawl_unknown_host_total.inc();
        m.crawl_expired_marks_total.add(2);
        m.crawl_revisit_lag.observe(0);
        m.crawl_revisit_lag.observe(9);
        let text = m.render_prometheus();
        assert_eq!(scrape_counter(&text, "cp_crawl_frontier_depth"), Some(12));
        assert_eq!(scrape_counter(&text, "cp_crawl_visits_total"), Some(7));
        assert_eq!(scrape_counter(&text, "cp_crawl_discovered_total"), Some(3));
        assert_eq!(scrape_counter(&text, "cp_crawl_inconclusive_total"), Some(1));
        assert_eq!(scrape_counter(&text, "cp_crawl_backoff_total"), Some(1));
        assert_eq!(scrape_counter(&text, "cp_crawl_unknown_host_total"), Some(1));
        assert_eq!(scrape_counter(&text, "cp_crawl_expired_marks_total"), Some(2));
        assert_eq!(scrape_counter(&text, "cp_crawl_revisit_lag_ticks_count"), Some(2));
        let buckets = scrape_histogram(&text, "cp_crawl_revisit_lag_ticks");
        assert_eq!(buckets.first(), Some(&(1, 1)));
        // The expire endpoint participates in the per-endpoint series.
        m.record(Endpoint::Expire, 200, 10);
        let text = m.render_prometheus();
        assert_eq!(scrape_counter(&text, "cp_requests_total{endpoint=\"expire\"}"), Some(1));
    }

    #[test]
    fn event_loop_series_render() {
        let m = ServiceMetrics::new();
        let empty = m.render_prometheus();
        // Wakeups and the ready-conns gauge always render (zero says "no
        // loop activity"); the per-route pow2 histogram follows the
        // idle-histogram rule.
        assert_eq!(scrape_counter(&empty, "cp_event_loop_wakeups_total"), Some(0));
        assert_eq!(scrape_counter(&empty, "cp_ready_conns"), Some(0));
        assert!(!empty.contains("cp_request_micros_bucket"));

        m.event_loop_wakeups.add(4);
        m.ready_conns.set(2);
        m.record(Endpoint::Healthz, 200, 7);
        m.record(Endpoint::Healthz, 200, 100);
        let text = m.render_prometheus();
        assert_eq!(scrape_counter(&text, "cp_event_loop_wakeups_total"), Some(4));
        assert_eq!(scrape_counter(&text, "cp_ready_conns"), Some(2));
        // 7µs lands in the le="8" pow2 bucket; idle routes stay absent.
        assert!(text.contains("cp_request_micros_bucket{route=\"healthz\",le=\"8\"} 1"));
        assert!(text.contains("cp_request_micros_count{route=\"healthz\"} 2"));
        assert!(!text.contains("cp_request_micros_count{route=\"visit\"}"));
        assert_eq!(m.request_micros(Endpoint::Healthz).count(), 2);
    }

    #[test]
    fn inconclusive_labels_match_core_taxonomy() {
        let labels: Vec<&str> =
            cookiepicker_core::InconclusiveReason::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels, INCONCLUSIVE_REASONS);
    }

    #[test]
    fn scrape_histogram_round_trips_the_rendering() {
        let m = ServiceMetrics::new();
        for micros in [1, 3, 3, 50, 5000, 100_000] {
            m.detection.observe(micros);
        }
        let text = m.render_prometheus();
        let buckets = scrape_histogram(&text, "cp_detection_micros");
        assert_eq!(buckets, m.detection.snapshot());
        assert_eq!(buckets.last().unwrap(), &(u64::MAX, 6));
        // Quantiles estimated from the scrape agree with the histogram's
        // own interpolation.
        for q in [0.5, 0.9, 0.99] {
            let scraped = quantile_from_buckets(&buckets, q);
            let native = m.detection.quantile_micros(q);
            assert!((scraped - native).abs() < 1e-9, "q={q}: {scraped} vs {native}");
        }
        assert_eq!(quantile_from_buckets(&[], 0.5), 0.0);
        assert!(scrape_histogram(&text, "cp_request_micros").is_empty());
    }
}
