//! The CookiePicker benchmark: one seeded workload per run.
//!
//! ```text
//! perfbench --bin <cookiepicker> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run generates the workload's trace, replays it in-process as the
//! output oracle (and, with `--trace 1`, again with spans on), sets the
//! served processes up several times, replays the timed part of the trace
//! open-loop over TCP, checks every response and the final state against
//! the oracle, and prints the metrics. The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. Any failed check
//! makes the exit code nonzero. See `perfbench/README.md`.

mod check;
mod client;
mod procs;
mod replay;
mod spans;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cp_runtime::json::Json;

use crate::check::{failures, tally};
use crate::procs::Deployment;
use crate::replay::{replay, Replayed};
use crate::trace::{Trace, Workload};

#[global_allocator]
static ALLOC: spans::CountingAlloc = spans::CountingAlloc;

/// Set-ups per run; `setup_s` and `setup.wall_s` are their medians.
const SETUPS: usize = 9;
/// Latency percentiles are taken per window of this many consecutive
/// timed requests (so a window's p99 has 10 samples beyond it) and
/// reported as the median over windows: a stall of the shared host moves
/// the windows it falls in, not the run's figure.
const WINDOW: usize = 1_000;
/// Where a run keeps its files, relative to the checkout root.
const RUN_DIR: &str = ".bench_run";

struct Args {
    bin: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut bin = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--bin" => bin = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        bin: bin.ok_or("--bin is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One `/metrics` scrape per node, plus the per-node files that matter.
struct NodeSample {
    text: String,
    wal_bytes: u64,
    snapshot_bytes: u64,
}

fn sample_nodes(d: &Deployment) -> std::io::Result<Vec<NodeSample>> {
    d.nodes()
        .map(|node| {
            let (wal_bytes, snapshot_bytes) = match &node.data_dir {
                Some(dir) => (
                    procs::bytes_with_prefix(dir, "wal-"),
                    procs::bytes_with_prefix(dir, "snapshot-"),
                ),
                None => (0, 0),
            };
            Ok(NodeSample { text: procs::metrics(node.addr)?, wal_bytes, snapshot_bytes })
        })
        .collect()
}

fn sum_counter(samples: &[NodeSample], series: &str) -> u64 {
    samples.iter().map(|s| procs::counter(&s.text, series)).sum()
}

/// What the end-of-run state checks found; each is one checked operation.
struct StateChecks {
    names: Vec<String>,
    failed: Vec<String>,
}

impl StateChecks {
    fn check(&mut self, name: String, ok: bool) {
        if !ok {
            self.failed.push(name.clone());
        }
        self.names.push(name);
    }
}

/// Drains replication, then compares every node's marks and the summed
/// decision counters with the oracle.
fn check_state(d: &Deployment, oracle: &Replayed, after: &[NodeSample], checks: &mut StateChecks) {
    let nodes: Vec<_> = d.nodes().collect();
    if nodes.len() > 1 {
        let seq = |addr| {
            procs::healthz(addr)
                .and_then(|h| h.get("replication_applied_seq").and_then(Json::as_f64))
                .map(|v| v as u64)
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        let converged = loop {
            let primary = seq(nodes[0].addr);
            let all_equal = primary.is_some() && nodes[1..].iter().all(|n| seq(n.addr) == primary);
            if all_equal || Instant::now() > deadline {
                break all_equal;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        checks.check("followers' replication_applied_seq equals the primary's".into(), converged);
    }
    let want = oracle.marks.join("\n");
    for (n, node) in nodes.iter().enumerate() {
        let got = procs::request(node.addr, "GET", "/v1/marks")
            .map(|r| r.body_string())
            .unwrap_or_default();
        checks
            .check(format!("node{n} /v1/marks equals the oracle's marks"), got.trim_end() == want);
    }
    let (useful, noise) = tally(&oracle.outcomes);
    let server = (
        sum_counter(after, "cp_decisions_total{verdict=\"useful\"}"),
        sum_counter(after, "cp_decisions_total{verdict=\"noise\"}"),
    );
    checks.check(
        format!(
            "decision counters summed over nodes {server:?} equal the oracle's ({useful}, {noise})"
        ),
        server == (useful, noise),
    );
}

fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    match head.trim().strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.trim().is_empty() => head.trim().to_string(),
        None => "unknown (not a git checkout)".into(),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .and_then(|r| r.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn run(args: &Args) -> Result<bool, String> {
    let io = |what: &str| {
        let what = what.to_string();
        move |e: std::io::Error| format!("{what}: {e}")
    };
    let workload = args.workload;
    let dir = Path::new(RUN_DIR).join(workload.name());
    std::fs::create_dir_all(&dir).map_err(io("creating the run directory"))?;

    // Inputs and oracle, before any server starts.
    let trace = Trace::generate(workload, args.seed, args.seconds);
    let n = trace.requests.len();
    let timed_n = n - trace.warmup;
    let oracle = replay(&trace, &dir.join("replay"), false).map_err(io("oracle replay"))?;
    // The traced replay runs between the oracle and a second untraced
    // replay; the overhead compares it with the later, equally warm one.
    let traced = if args.traced {
        let traced =
            replay(&trace, &dir.join("replay-traced"), true).map_err(io("traced replay"))?;
        spans::write_spans(&dir.join("spans.tsv"), &traced.spans).map_err(io("writing spans"))?;
        let untraced = replay(&trace, &dir.join("replay"), false).map_err(io("untraced replay"))?;
        if untraced.outcomes != traced.outcomes || untraced.outcomes != oracle.outcomes {
            return Err("replay outcomes differ between runs of the same trace".into());
        }
        Some((traced, untraced.wall_s))
    } else {
        None
    };

    // Set-up, several times; the last deployment takes the timed phase.
    // From here on the client keeps to its own CPU.
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let placement = procs::Placement::split();
    if let Some(p) = &placement {
        procs::pin(&p.client).map_err(io("pinning the client"))?;
    }
    let mut attempted = 0u64;
    let mut failed = 0u64;
    // Each set-up is timed twice: its wall time, and the on-CPU time the
    // served processes spent from their spawn to the end of the warm-up
    // (`setup_s`; with paravirtual steal accounting the scheduler does not
    // charge a vCPU's steal time to it, where steal moves the wall time).
    let cpu_ns = |pids: &[u32]| pids.iter().map(|&p| procs::cpu_ns(p)).sum::<u64>();
    let mut setup_wall_s = Vec::with_capacity(SETUPS);
    let mut setup_cpu_s = Vec::with_capacity(SETUPS);
    let mut deployment = None;
    for k in 0..SETUPS {
        let started = Instant::now();
        let d = Deployment::start(&args.bin, workload, &dir.join("servers"), placement.as_ref())
            .map_err(io("starting servers"))?;
        let warm = client::run(d.front(), &trace.requests[..trace.warmup], false)
            .map_err(io("warm-up"))?;
        setup_wall_s.push(started.elapsed().as_secs_f64());
        setup_cpu_s.push(cpu_ns(&d.pids()) as f64 / 1e9);
        attempted += trace.warmup as u64;
        failed += failures(&oracle.outcomes[..trace.warmup], &warm.outcomes).len() as u64;
        if k + 1 < SETUPS {
            d.stop();
        } else {
            deployment = Some(d);
        }
    }
    let d = deployment.expect("SETUPS >= 1");

    // The timed, open-loop phase.
    let pids = d.pids();
    let before = sample_nodes(&d).map_err(io("scraping before the timed phase"))?;
    let host0 = procs::host_cpu();
    let cpu0 = cpu_ns(&pids);
    let run = client::run(d.front(), trace.timed(), true).map_err(io("timed phase"))?;
    let cpu1 = cpu_ns(&pids);
    let host1 = procs::host_cpu();
    let after = sample_nodes(&d).map_err(io("scraping after the timed phase"))?;
    let router_text = match d.router() {
        Some(router) => procs::metrics(router.addr).map_err(io("scraping the router"))?,
        None => String::new(),
    };
    let peak_rss_kb: u64 = pids.iter().map(|&p| procs::peak_rss_kb(p).unwrap_or(0)).sum();

    let timed_failures = failures(&oracle.outcomes[trace.warmup..], &run.outcomes);
    attempted += timed_n as u64;
    failed += timed_failures.len() as u64;
    let mut checks = StateChecks { names: Vec::new(), failed: Vec::new() };
    check_state(&d, &oracle, &after, &mut checks);
    attempted += checks.names.len() as u64;
    failed += checks.failed.len() as u64;
    d.stop();

    // End-to-end metrics.
    let completed = run.outcomes.iter().filter(|o| o.is_some()).count() as u64;
    let mut latencies: Vec<u64> = run.latency_ns.iter().flatten().copied().collect();
    latencies.sort_unstable();
    let windows = latency_windows(&run.latency_ns);
    let p50_us = window_latency(&windows, 0.50);
    let p99_us = window_latency(&windows, 0.99);
    let cpu_us_per_req = ratio(cpu1.saturating_sub(cpu0) as f64 / 1e3, completed as f64);
    let steal_frac = ratio((host1.0 - host0.0) as f64, (host1.1 - host0.1) as f64);
    let setup_median = median(&mut setup_cpu_s.clone());
    let setup_wall_median = median(&mut setup_wall_s.clone());

    let e2e: Vec<(&str, f64, &str)> = vec![
        ("server_cpu_us_per_req", cpu_us_per_req, "us"),
        ("server_peak_rss_mb", peak_rss_kb as f64 / 1024.0, "MB"),
        ("setup_s", setup_median, "s"),
    ];
    let error_rate = ratio(failed as f64, attempted as f64);

    let per_layer = traced.as_ref().map(|(traced, untraced_wall_s)| {
        let probed_visits = trace
            .requests
            .iter()
            .zip(&oracle.outcomes)
            .filter(|(r, o)| r.kind == trace::Kind::Visit && o.verdict.is_some())
            .count();
        layer_metrics(&LayerInputs {
            probed_visits,
            untraced_wall_s: *untraced_wall_s,
            traced,
            before: &before,
            after: &after,
            router: &router_text,
            timed_n,
            latency_p50_us: p50_us,
            latency_p99_us: p99_us,
            send_lag: &run.send_lag_ns,
            steal_frac,
            setup_wall_s: setup_wall_median,
        })
    });

    // Human-readable lines, the run record, then the result line.
    for (name, value, unit) in &e2e {
        println!("{name} {value:.4} {unit}");
    }
    println!("latency_p50_us {p50_us:.4} us (median over windows; per-layer, no bound)");
    println!("setup wall {setup_wall_median:.4} s (median of set-ups; per-layer, no bound)");
    println!("error_rate {error_rate:.6} ratio ({failed} failed of {attempted} attempted)");
    let smallest = windows.iter().map(Vec::len).min().unwrap_or(0);
    println!(
        "latency samples {} in {} windows of {} requests (smallest {}, {} beyond its p99)",
        latencies.len(),
        windows.len(),
        WINDOW,
        smallest,
        smallest / 100
    );
    let mut lags = run.send_lag_ns.clone();
    lags.sort_unstable();
    for (what, sorted) in [("latency (whole run)", &latencies), ("send lag", &lags)] {
        let q = |p| percentile(sorted, p) as f64 / 1e3;
        println!(
            "{what} us: p50 {:.1} p90 {:.1} p99 {:.1} p99.9 {:.1} max {:.1}",
            q(0.5),
            q(0.9),
            q(0.99),
            q(0.999),
            q(1.0)
        );
    }
    for &i in timed_failures.iter().take(5) {
        let want = &oracle.outcomes[trace.warmup + i];
        eprintln!("mismatch at timed request {i}: want {want:?}, got {:?}", run.outcomes[i]);
    }
    for f in &checks.failed {
        eprintln!("state check failed: {f}");
    }
    let record = Json::object()
        .set("workload", workload.name())
        .set("seed", args.seed)
        .set("confirm_seed", args.seed ^ 0x9E37_79B9)
        .set("trace", u64::from(args.traced))
        .set("seconds", args.seconds)
        .set("offered_rate_rps", workload.rate())
        .set("fsync", if workload.durable() { "batch" } else { "none (in-memory)" })
        .set("nproc", nproc as u64)
        .set("cpu_model", cpu_model())
        .set(
            "kernel",
            std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default().trim(),
        )
        .set("git_commit", git_commit())
        .set("trace_digest", format!("{:016x}", trace::fnv1a(&trace.to_bytes())))
        .set("requests_warmup", trace.warmup as u64)
        .set("requests_timed", timed_n as u64)
        .set("latency_samples", latencies.len() as u64)
        .set(
            "latency_us",
            Json::object()
                .set("run_p50", percentile(&latencies, 0.5) as f64 / 1e3)
                .set("run_p99", percentile(&latencies, 0.99) as f64 / 1e3)
                .set("run_p999", percentile(&latencies, 0.999) as f64 / 1e3),
        )
        .set("setup_cpu_runs_s", setup_cpu_s.clone())
        .set("setup_wall_runs_s", setup_wall_s.clone())
        .set("host.steal_frac", steal_frac)
        .set("error_rate", error_rate)
        .set("state_checks", checks.names.clone())
        .set("state_checks_failed", checks.failed.clone())
        .set(
            "end_to_end",
            Json::Object(e2e.iter().map(|(n, v, _)| (n.to_string(), Json::from(*v))).collect()),
        )
        .set("latency_p50_us", p50_us)
        .set("latency_p99_us", p99_us)
        .set(
            "per_layer",
            per_layer.as_ref().map_or(Json::Null, |m| {
                Json::Object(m.iter().map(|(n, v, _)| (n.to_string(), Json::from(*v))).collect())
            }),
        );
    let record_path =
        dir.join(format!("record-seed{}-trace{}.json", args.seed, u64::from(args.traced)));
    std::fs::write(&record_path, record.to_compact()).map_err(io("writing the run record"))?;
    println!("record {}", record.to_compact());

    let shown = per_layer.unwrap_or(e2e);
    let metrics: BTreeMap<String, Json> = shown
        .iter()
        .map(|(n, v, u)| (n.to_string(), Json::object().set("value", *v).set("unit", *u)))
        .collect();
    let result = Json::object()
        .set("correct", failed == 0)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", Json::Object(metrics));
    println!("{}", result.to_compact());
    Ok(failed == 0)
}

/// The timed phase cut into windows of [`WINDOW`] consecutive requests,
/// each the sorted latencies of its completed requests.
fn latency_windows(latency_ns: &[Option<u64>]) -> Vec<Vec<u64>> {
    latency_ns
        .chunks_exact(WINDOW)
        .map(|w| {
            let mut sorted: Vec<u64> = w.iter().flatten().copied().collect();
            sorted.sort_unstable();
            sorted
        })
        .collect()
}

/// Median over `windows` of each window's `q` percentile, microseconds.
fn window_latency(windows: &[Vec<u64>], q: f64) -> f64 {
    let mut per_window: Vec<f64> = windows.iter().map(|w| percentile(w, q) as f64 / 1e3).collect();
    if per_window.is_empty() {
        return 0.0;
    }
    median(&mut per_window)
}

struct LayerInputs<'a> {
    probed_visits: usize,
    untraced_wall_s: f64,
    traced: &'a Replayed,
    before: &'a [NodeSample],
    after: &'a [NodeSample],
    router: &'a str,
    timed_n: usize,
    latency_p50_us: f64,
    latency_p99_us: f64,
    send_lag: &'a [u64],
    steal_frac: f64,
    setup_wall_s: f64,
}

/// The per-layer metrics, in `BENCHMARK.json` order.
fn layer_metrics(x: &LayerInputs<'_>) -> Vec<(&'static str, f64, &'static str)> {
    let totals = x.traced.totals();
    let t = |name: &str| totals.get(name).copied().unwrap_or_default();
    let requests = x.traced.outcomes.len() as f64;
    let visits = t("store.transact").count as f64;
    let http_allocs: u64 =
        ["http.parse", "http.body_decode", "http.serialize"].iter().map(|n| t(n).allocs).sum();
    let world_allocs: u64 = ["world.derive", "world.site_hit", "world.plan_visit", "world.finish"]
        .iter()
        .map(|n| t(n).allocs)
        .sum();
    let derive = t("world.derive");
    let site_hits = t("world.site_hit");
    let build = t("analysis.build");

    let texts: Vec<&str> = x.after.iter().map(|s| s.text.as_str()).collect();
    let primary = texts[0];
    let merged = |name: &str| {
        procs::merge_histograms(
            &texts.iter().map(|t| procs::histogram(t, name)).collect::<Vec<_>>(),
        )
    };
    let request_hist = merged("cp_request_micros");
    let request_p50 = procs::quantile(&request_hist, 0.50);
    let delta =
        |series: &str| sum_counter(x.after, series).saturating_sub(sum_counter(x.before, series));
    let primary_delta = |series: &str| {
        procs::counter(primary, series).saturating_sub(procs::counter(&x.before[0].text, series))
    };
    let cache_hits = sum_counter(x.after, "cp_analysis_cache_total{result=\"hit\"}") as f64;
    let cache_misses = sum_counter(x.after, "cp_analysis_cache_total{result=\"miss\"}") as f64;
    let wal_writes = primary_delta("cp_wal_records_total") as f64;
    let wal_growth = x.after[0].wal_bytes.saturating_sub(x.before[0].wal_bytes) as f64;
    let fsync_count =
        |text: &str| procs::histogram(text, "cp_wal_fsync_micros").last().map_or(0, |b| b.1);
    let fsyncs = fsync_count(primary).saturating_sub(fsync_count(&x.before[0].text));
    let ack = procs::histogram(primary, "cp_repl_ack_micros");
    let router_p50 = if x.router.is_empty() {
        0.0
    } else {
        procs::quantile(&procs::histogram(x.router, "cp_request_micros"), 0.50)
            - procs::quantile(&procs::histogram(primary, "cp_request_micros"), 0.50)
    };
    let mut lags = x.send_lag.to_vec();
    lags.sort_unstable();
    let layer_self_ns: u64 =
        totals.iter().filter(|(n, _)| **n != "request").map(|(_, t)| t.self_ns).sum();
    let server_request_us: u64 =
        texts.iter().map(|t| procs::histogram_sum(t, "cp_request_micros")).sum();

    vec![
        ("client.latency_p50_us", x.latency_p50_us, "us"),
        ("client.latency_p99_us", x.latency_p99_us, "us"),
        ("client.send_lag_p99_us", percentile(&lags, 0.99) as f64 / 1e3, "us"),
        ("host.steal_frac", x.steal_frac, "ratio"),
        ("setup.wall_s", x.setup_wall_s, "s"),
        ("eventloop.request_p50_us", request_p50, "us"),
        ("eventloop.request_p99_us", procs::quantile(&request_hist, 0.99), "us"),
        (
            "eventloop.wakeups_per_req",
            ratio(delta("cp_event_loop_wakeups_total") as f64, x.timed_n as f64),
            "count",
        ),
        ("eventloop.gap_p50_us", x.latency_p50_us - request_p50, "us"),
        ("http.parse_us", t("http.parse").mean_self_us(), "us"),
        ("http.serialize_us", t("http.serialize").mean_self_us(), "us"),
        ("http.allocs_per_req", ratio(http_allocs as f64, requests), "count"),
        ("world.derive_us", derive.mean_us(), "us"),
        (
            "world.derive_hit_ratio",
            ratio(site_hits.count as f64, (site_hits.count + derive.count) as f64),
            "ratio",
        ),
        ("world.plan_visit_us", t("world.plan_visit").mean_us(), "us"),
        ("world.allocs_per_visit", ratio(world_allocs as f64, visits), "count"),
        ("cache.hit_ratio", ratio(cache_hits, cache_hits + cache_misses), "ratio"),
        ("analysis.build_us", build.mean_us(), "us"),
        ("analysis.allocs_per_page", ratio(build.allocs as f64, build.count as f64), "count"),
        ("detect.decide_us", t("detect.decide").mean_us(), "us"),
        ("detect.server_p99_us", procs::quantile(&merged("cp_detection_micros"), 0.99), "us"),
        ("detect.probes_per_visit", ratio(x.probed_visits as f64, visits), "ratio"),
        ("store.transact_us", t("store.transact").mean_us(), "us"),
        ("store.transact_self_us", t("store.transact").mean_self_us(), "us"),
        ("store.sites", x.traced.sites as f64, "count"),
        ("wal.bytes_per_write", ratio(wal_growth, wal_writes), "B"),
        ("wal.fsyncs_per_1k_writes", ratio(fsyncs as f64 * 1e3, wal_writes), "count"),
        (
            "wal.fsync_p99_us",
            procs::quantile(&procs::histogram(primary, "cp_wal_fsync_micros"), 0.99),
            "us",
        ),
        (
            "snapshot.count",
            sum_counter(x.after, "cp_snapshot_total{result=\"ok\"}") as f64,
            "count",
        ),
        ("snapshot.bytes", x.after.iter().map(|s| s.snapshot_bytes).sum::<u64>() as f64, "B"),
        ("replication.ack_p50_us", procs::quantile(&ack, 0.50), "us"),
        ("replication.ack_p99_us", procs::quantile(&ack, 0.99), "us"),
        ("replication.lag_max_records", x.traced.repl_lag_max as f64, "count"),
        (
            "replication.demotions",
            procs::counter(primary, "cp_repl_slow_demotions_total") as f64,
            "count",
        ),
        ("router.hop_p50_us", router_p50, "us"),
        (
            "router.read_failovers",
            procs::counter(x.router, "cp_route_read_failover_total") as f64,
            "count",
        ),
        (
            "trace.overhead_frac",
            ratio(x.traced.wall_s - x.untraced_wall_s, x.untraced_wall_s),
            "ratio",
        ),
        (
            "trace.coverage_frac",
            ratio(layer_self_ns as f64 / 1e3, server_request_us as f64),
            "ratio",
        ),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
