//! The in-process replay: the same trace through the layers' public
//! functions, in trace order, on one thread.
//!
//! It is the output oracle of every run and, with spans on, the traced
//! run behind the per-layer metrics. The handlers mirror the server's
//! routes for the four request kinds; spans sit around each call the
//! replay makes. Work a call does internally (WAL append, checkpoint,
//! render, analysis and detection inside `plan_visit`) shows up in that
//! call's self time.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cookiepicker_core::{decide_analyzed, CookiePickerConfig};
use cp_runtime::json::{Json, ToJson};
use cp_runtime::sync::Mutex;
use cp_serve::http::{append_response, parse_request_buffer, Limits};
use cp_serve::metrics::ServiceMetrics;
use cp_serve::replication::{Backlog, DEFAULT_BACKLOG_CAP};
use cp_serve::store::DEFAULT_SNAPSHOT_EVERY;
use cp_serve::world::VisitPlan;
use cp_serve::{
    AnalysisCache, DurabilityConfig, EmbeddedWorld, FsyncPolicy, ReplAckPolicy, Replicator,
    ServeConfig, ServerHandle, ShardedStore, DEFAULT_SITE_CACHE,
};

use crate::check::Outcome;
use crate::spans::{self_times, Span, Tracer};
use crate::trace::{Kind, Trace, Workload, WORLD_SEED};

/// Store shards, as `cookiepicker serve` defaults to.
pub const SHARDS: usize = 16;
/// Analysis-cache entries, as `cookiepicker serve` defaults to.
pub const ANALYSIS_CACHE: usize = 512;

/// Per span name: calls, summed duration, summed self time, allocations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Summed allocations.
    pub allocs: u64,
}

impl SpanTotals {
    /// Mean duration in microseconds (0 when no span was recorded).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// Mean self time in microseconds.
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// What one replay produced.
pub struct Replayed {
    /// The oracle: one outcome per trace request.
    pub outcomes: Vec<Outcome>,
    /// Every useful mark at the end, sorted `host cookie` lines.
    pub marks: Vec<String>,
    /// Wall time of the request loop, seconds.
    pub wall_s: f64,
    /// Sites with training state at the end.
    pub sites: usize,
    /// Largest `Replicator::lag` seen after a ship (cluster only).
    pub repl_lag_max: u64,
    /// Spans (empty unless traced).
    pub spans: Vec<Span>,
}

impl Replayed {
    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.end - span.start;
            t.self_ns += self_ns;
            t.allocs += span.allocs;
        }
        out
    }
}

/// In-process stand-ins for the cluster's two followers.
struct Followers {
    servers: Vec<ServerHandle>,
    replicator: Replicator,
}

fn start_followers(
    dir: &Path,
    world: cp_serve::WorldKind,
    metrics: &Arc<ServiceMetrics>,
) -> std::io::Result<Followers> {
    let mut servers = Vec::new();
    let mut addrs: Vec<String> = Vec::new();
    for i in 0..2 {
        let server = cp_serve::start(ServeConfig {
            seed: WORLD_SEED,
            world,
            workers: 1,
            repl_port: Some(0),
            data_dir: Some(dir.join(format!("follower{i}"))),
            fsync: FsyncPolicy::Batch,
            ..ServeConfig::default()
        })?;
        let addr: SocketAddr = server.repl_addr().expect("repl_port was set");
        addrs.push(addr.to_string());
        servers.push(server);
    }
    let replicator = Replicator::connect(
        &addrs,
        1,
        ReplAckPolicy::Quorum,
        "127.0.0.1:0".to_string(),
        Arc::new(Mutex::new(Backlog::new(DEFAULT_BACKLOG_CAP))),
        Arc::clone(metrics),
    )?;
    Ok(Followers { servers, replicator })
}

/// Replays `trace` against fresh in-process layers whose files live
/// under `dir` (emptied first). With `traced`, spans are recorded.
///
/// For `cluster-quorum` the store's writes are shipped through the public
/// `Replicator` to two in-process followers (`cp_serve::start`); the ship
/// runs right after `ShardedStore::transact` returns instead of inside
/// it, so it has a span of its own.
pub fn replay(trace: &Trace, dir: &Path, traced: bool) -> std::io::Result<Replayed> {
    let workload = trace.workload;
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    let world = EmbeddedWorld::with_world(WORLD_SEED, workload.world(), DEFAULT_SITE_CACHE);
    let metrics = Arc::new(ServiceMetrics::new());
    let picker = CookiePickerConfig::default();
    let cache = AnalysisCache::new(ANALYSIS_CACHE);
    let durability = workload.durable().then(|| DurabilityConfig {
        dir: dir.join("primary"),
        fsync: FsyncPolicy::Batch,
        snapshot_every: DEFAULT_SNAPSHOT_EVERY,
        faults: None,
    });
    let (store, _) =
        ShardedStore::open(SHARDS, picker.stability_window, durability, Arc::clone(&metrics))?;
    let followers = if workload == Workload::ClusterQuorum {
        Some(start_followers(dir, workload.world(), &metrics)?)
    } else {
        None
    };
    let limits = Limits::default();
    let tracer = Tracer::new(traced, trace.requests.len() * 8);
    let mut outcomes = Vec::with_capacity(trace.requests.len());
    let mut wire_out: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut repl_lag_max = 0u64;

    let started = Instant::now();
    for (i, request) in trace.requests.iter().enumerate() {
        tracer.set_request(i as u32);
        let root = tracer.begin("request");
        let (parsed, _) = tracer
            .span("http.parse", || parse_request_buffer(&request.wire, &limits))
            .ok()
            .flatten()
            .expect("generated requests parse");
        let (status, reason, content_type, body, outcome) = match request.kind {
            Kind::Healthz => {
                let body = b"{\"status\":\"ok\"}".to_vec();
                (200, "OK", "application/json", body, Outcome::plain(200))
            }
            Kind::SiteRead => {
                let summary = tracer.span("store.summary", || store.summary(&request.host));
                match summary {
                    Some(summary) => {
                        let body = tracer.span("http.body_encode", || {
                            summary.to_json().to_compact().into_bytes()
                        });
                        (200, "OK", "application/json", body, Outcome::plain(200))
                    }
                    None => (404, "Not Found", "application/json", Vec::new(), Outcome::plain(404)),
                }
            }
            Kind::Classify => {
                let json = tracer.span("http.body_decode", || {
                    Json::parse(std::str::from_utf8(&parsed.body).expect("utf-8 body"))
                        .expect("json body")
                });
                let regular = json.get("regular").and_then(Json::as_str).expect("regular page");
                let hidden = json.get("hidden").and_then(Json::as_str).expect("hidden page");
                let analyze = |html: &str| {
                    let open = tracer.begin("analysis.build");
                    let (analysis, hit) = cache.get_or_analyze(html, picker.compare_from_body);
                    tracer.end_as(open, if hit { "cache.hit" } else { "analysis.build" });
                    metrics.record_cache(hit);
                    analysis
                };
                let a = analyze(regular);
                let b = analyze(hidden);
                let decision = tracer.span("detect.decide", || decide_analyzed(&a, &b, &picker));
                let verdict = decision.cookies_caused_difference;
                let body = tracer
                    .span("http.body_encode", || decision.to_json().to_compact().into_bytes());
                (
                    200,
                    "OK",
                    "application/json",
                    body,
                    Outcome { status: 200, verdict: Some(verdict), marked_now: Vec::new() },
                )
            }
            Kind::Visit => {
                let json = tracer.span("http.body_decode", || {
                    Json::parse(std::str::from_utf8(&parsed.body).expect("utf-8 body"))
                        .expect("json body")
                });
                let host = json.get("host").and_then(Json::as_str).expect("visit host");
                let path = json.get("path").and_then(Json::as_str).unwrap_or("/");
                let cookie = json.get("cookie").and_then(Json::as_str);
                let misses = metrics.site_derive_count("miss");
                let open = tracer.begin("world.derive");
                world.site_recorded(host, &metrics).expect("trace hosts exist");
                let missed = metrics.site_derive_count("miss") > misses;
                tracer.end_as(open, if missed { "world.derive" } else { "world.site_hit" });
                let mut shipped = None;
                let result = tracer.span("store.transact", || {
                    store.transact(
                        host,
                        |entry| {
                            let planned = tracer.span("world.plan_visit", || {
                                world.plan_visit(
                                    entry, host, path, cookie, &picker, &cache, &metrics,
                                )
                            });
                            match planned {
                                Some((event, plan)) => {
                                    if followers.is_some() {
                                        shipped = Some(event.clone());
                                    }
                                    (Some(event), Some(plan))
                                }
                                None => (None, None),
                            }
                        },
                        |entry, marked_now, plan: Option<VisitPlan>| {
                            tracer
                                .span("world.finish", || plan.map(|p| p.finish(entry, marked_now)))
                        },
                    )
                });
                let result = match (result, &followers, shipped) {
                    (Ok(outcome), Some(f), Some(event)) => {
                        let shipped = tracer.span("replication.ship", || f.replicator.ship(&event));
                        repl_lag_max = repl_lag_max.max(f.replicator.lag());
                        shipped.map(|()| outcome)
                    }
                    (result, _, _) => result,
                };
                match result {
                    Ok(outcome) => {
                        let outcome = outcome.expect("host exists");
                        let verdict =
                            outcome.record.as_ref().map(|r| r.decision.cookies_caused_difference);
                        let marked_now = outcome.marked_now.clone();
                        let body = tracer
                            .span("http.body_encode", || outcome.to_compact_json().into_bytes());
                        (
                            200,
                            "OK",
                            "application/json",
                            body,
                            Outcome { status: 200, verdict, marked_now },
                        )
                    }
                    Err(_) => (
                        503,
                        "Service Unavailable",
                        "application/json",
                        Vec::new(),
                        Outcome::plain(503),
                    ),
                }
            }
        };
        wire_out.clear();
        tracer.span("http.serialize", || {
            append_response(&mut wire_out, status, reason, content_type, &body, true)
        });
        std::hint::black_box(&wire_out);
        tracer.end(root);
        outcomes.push(outcome);
    }
    let wall_s = started.elapsed().as_secs_f64();

    let marks = store.marks();
    let sites = store.site_count();
    if let Some(f) = followers {
        f.replicator.retire();
        for server in &f.servers {
            server.shutdown();
        }
        drop(f.servers);
    }
    drop(store);
    Ok(Replayed { outcomes, marks, wall_s, sites, repl_lag_max, spans: tracer.into_spans() })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(name: &str) -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../.bench_run/test").join(name)
    }

    /// Spans whose allocation counts repeat exactly between same-seed
    /// replays in one process (after a first replay has run the program's
    /// one-time initialisation, as the oracle does in a benchmark run).
    const EXACT: [&str; 7] = [
        "http.parse",
        "http.body_decode",
        "http.serialize",
        "world.derive",
        "analysis.build",
        "detect.decide",
        "store.summary",
    ];

    #[test]
    fn same_seed_traced_replays_repeat_outcomes_and_allocation_counts() {
        for workload in [Workload::Table1Mixed, Workload::ZipfCold] {
            let name = workload.name();
            let trace = Trace::generate(workload, 5, 0.3);
            let off = replay(&trace, &test_dir(&format!("{name}-off")), false).unwrap();
            assert!(off.spans.is_empty());
            assert!(off.outcomes.iter().all(|o| o.status == 200));
            let a = replay(&trace, &test_dir(&format!("{name}-a")), true).unwrap();
            let b = replay(&trace, &test_dir(&format!("{name}-b")), true).unwrap();
            assert_eq!(a.outcomes, off.outcomes, "spans must not change outcomes");
            assert_eq!(a.outcomes, b.outcomes);
            assert_eq!(a.marks, b.marks);
            let (ta, tb) = (a.totals(), b.totals());
            for span in EXACT {
                assert_eq!(
                    ta.get(span).map(|t| t.allocs),
                    tb.get(span).map(|t| t.allocs),
                    "{name}: {span}"
                );
            }
            // `plan_visit` goes through the program's hash maps, whose
            // per-process random seeds move where eviction tombstones force
            // a resize, and response bodies carry wall-clock timings; those
            // counts agree only to within a few allocations.
            for span in ["world.plan_visit", "http.body_encode"] {
                let (x, y) = (ta[span].allocs as f64, tb[span].allocs as f64);
                assert!((x - y).abs() <= 1e-3 * x.max(y), "{name}: {span} {x} vs {y}");
            }
        }
    }
}
