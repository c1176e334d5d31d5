//! The served processes: spawning `cookiepicker serve` / `route`, waiting
//! for readiness, stopping them, and reading their counters from `/proc`
//! and `/metrics`.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use cp_runtime::json::Json;
use cp_serve::http::HttpResponse;
use cp_serve::loadgen::Client;

use crate::trace::{Workload, CONNECTIONS, UNIFORM_HOSTS, WORLD_SEED};

/// Event-loop shards per serving node. One, so which thread serves a
/// connection never depends on which one the kernel wakes first: with
/// two, a connection now and then lands on the second shard, whose own
/// malloc arena adds about 4 MB to the peak resident set of `zipf-cold`.
/// The served processes share one CPU on a 2-vCPU host anyway (see
/// [`Placement`]).
pub const SERVER_WORKERS: usize = 1;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Mask words: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

/// Which CPUs the client and the served processes run on: the client
/// gets the first CPU this process may use and the servers the rest, so
/// client work never competes with server work for a core. `None` with
/// fewer than two CPUs.
pub struct Placement {
    /// CPUs of the benchmark's own threads.
    pub client: Vec<usize>,
    /// CPUs of every spawned process.
    pub servers: Vec<usize>,
}

impl Placement {
    /// Splits the CPUs the calling thread may run on.
    pub fn split() -> Option<Placement> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a live buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return None;
        }
        let cpus: Vec<usize> = (0..MASK_WORDS * 64)
            .filter(|&cpu| mask[cpu / 64] & (1u64 << (cpu % 64)) != 0)
            .collect();
        (cpus.len() >= 2)
            .then(|| Placement { client: cpus[..1].to_vec(), servers: cpus[1..].to_vec() })
    }
}

/// Restricts the calling thread (and the threads and processes it starts
/// from now on) to `cpus`.
pub fn pin(cpus: &[usize]) -> std::io::Result<()> {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        mask[cpu / 64] |= 1u64 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// One spawned process.
pub struct Proc {
    /// `serve` or `route`.
    pub role: &'static str,
    child: Child,
    /// HTTP address.
    pub addr: SocketAddr,
    /// Replication listener, for nodes that have one.
    pub repl: Option<SocketAddr>,
    /// Data directory, for durable nodes.
    pub data_dir: Option<PathBuf>,
}

impl Proc {
    /// The OS process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

/// The processes of one workload; the router (if any) comes last.
pub struct Deployment {
    /// Nodes first, then the router.
    pub procs: Vec<Proc>,
}

fn addr_after(line: &str, marker: &str) -> Option<SocketAddr> {
    let rest = &line[line.find(marker)? + marker.len()..];
    let end = rest.find([' ', ')']).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Spawns `bin args...` and reads its banner for the bound addresses.
fn spawn(
    bin: &Path,
    role: &'static str,
    args: &[String],
    log: &Path,
    data_dir: Option<PathBuf>,
) -> std::io::Result<Proc> {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::from(std::fs::File::create(log)?))
        .spawn()?;
    let stdout = child.stdout.take().expect("piped");
    let mut reader = BufReader::new(stdout);
    let mut addr = None;
    let mut repl = None;
    let wants_repl = args.iter().any(|a| a == "--repl-port");
    let mut line = String::new();
    while addr.is_none() || (wants_repl && repl.is_none()) {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other(format!(
                "{role} exited before its banner; see {}",
                log.display()
            )));
        }
        addr = addr.or_else(|| addr_after(&line, "listening on http://"));
        repl = repl.or_else(|| addr_after(&line, "replication on "));
    }
    // The rest of the banner (and the exit line) fits the pipe buffer;
    // nobody reads it.
    child.stdout = Some(reader.into_inner());
    Ok(Proc { role, child, addr: addr.expect("loop ends with one"), repl, data_dir })
}

fn node_args(workload: Workload, data_dir: Option<&Path>, repl: bool) -> Vec<String> {
    let mut args: Vec<String> =
        ["serve", "--port", "0", "--seed"].iter().map(|s| s.to_string()).collect();
    args.push(WORLD_SEED.to_string());
    args.extend(["--workers".to_string(), SERVER_WORKERS.to_string()]);
    if workload == Workload::ZipfCold {
        args.extend(["--world".to_string(), format!("uniform:{UNIFORM_HOSTS}")]);
    }
    if let Some(dir) = data_dir {
        args.extend(["--data-dir".to_string(), dir.display().to_string()]);
        args.extend(["--fsync".to_string(), "batch".to_string()]);
    }
    if repl {
        args.extend(["--repl-port", "0", "--repl-ack", "quorum"].iter().map(|s| s.to_string()));
    }
    args
}

/// Sends one request on a fresh connection.
pub fn request(addr: SocketAddr, method: &str, target: &str) -> std::io::Result<HttpResponse> {
    let mut client =
        Client::with_policy(&addr.ip().to_string(), addr.port(), 0, Duration::from_millis(1));
    client.request(method, target, b"").map_err(|e| std::io::Error::other(e.to_string()))
}

/// `/healthz` as JSON, when the process answers 200.
pub fn healthz(addr: SocketAddr) -> Option<Json> {
    let response = request(addr, "GET", "/healthz").ok().filter(|r| r.status == 200)?;
    Json::parse(&response.body_string()).ok()
}

/// `/metrics` text.
pub fn metrics(addr: SocketAddr) -> std::io::Result<String> {
    Ok(request(addr, "GET", "/metrics")?.body_string())
}

fn wait_until(
    what: &str,
    timeout: Duration,
    mut ready: impl FnMut() -> bool,
) -> std::io::Result<()> {
    let deadline = Instant::now() + timeout;
    while !ready() {
        if Instant::now() > deadline {
            return Err(std::io::Error::other(format!("timed out waiting for {what}")));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    Ok(())
}

impl Deployment {
    /// Starts the workload's processes under `dir` (on the placement's
    /// server CPUs) and waits until every one answers `/healthz` and, for
    /// the cluster, the router has a primary whose two followers are
    /// connected and live.
    pub fn start(
        bin: &Path,
        workload: Workload,
        dir: &Path,
        placement: Option<&Placement>,
    ) -> std::io::Result<Deployment> {
        if let Some(p) = placement {
            pin(&p.servers)?;
        }
        let deployment = Deployment::spawn_all(bin, workload, dir);
        if let Some(p) = placement {
            pin(&p.client)?;
        }
        let deployment = deployment?;
        deployment.wait_ready()?;
        Ok(deployment)
    }

    fn spawn_all(bin: &Path, workload: Workload, dir: &Path) -> std::io::Result<Deployment> {
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        std::fs::create_dir_all(dir)?;
        let mut deployment = Deployment { procs: Vec::new() };
        let nodes = if workload == Workload::ClusterQuorum { 3 } else { 1 };
        for n in 0..nodes {
            let data = workload.durable().then(|| dir.join(format!("node{n}")));
            let args = node_args(workload, data.as_deref(), nodes > 1);
            let log = dir.join(format!("node{n}.log"));
            deployment.procs.push(spawn(bin, "serve", &args, &log, data)?);
        }
        if nodes > 1 {
            let mut args: Vec<String> =
                ["route", "--port", "0", "--ack", "quorum"].iter().map(|s| s.to_string()).collect();
            // The router's workers each serve one connection at a time.
            args.extend(["--workers".to_string(), CONNECTIONS.to_string()]);
            for node in &deployment.procs {
                args.push("--backend".to_string());
                args.push(format!("{},{}", node.addr, node.repl.expect("cluster nodes replicate")));
            }
            let log = dir.join("router.log");
            deployment.procs.push(spawn(bin, "route", &args, &log, None)?);
        }
        Ok(deployment)
    }

    fn wait_ready(&self) -> std::io::Result<()> {
        for proc in &self.procs {
            wait_until("/healthz", Duration::from_secs(10), || healthz(proc.addr).is_some())?;
        }
        if self.router().is_some() {
            let primary = self.procs[0].addr;
            wait_until("live followers", Duration::from_secs(10), || {
                healthz(primary)
                    .and_then(|h| {
                        h.get("replication_peers").and_then(Json::as_array).map(<[Json]>::to_vec)
                    })
                    .is_some_and(|peers| {
                        peers.len() == 2
                            && peers.iter().all(|p| {
                                p.get("connected").and_then(Json::as_bool) == Some(true)
                                    && p.get("state").and_then(Json::as_str) == Some("live")
                            })
                    })
            })?;
        }
        Ok(())
    }

    /// The address clients send the trace to (the router, or the node).
    pub fn front(&self) -> SocketAddr {
        self.procs.last().expect("at least one process").addr
    }

    /// The serving nodes (everything but the router).
    pub fn nodes(&self) -> impl Iterator<Item = &Proc> {
        self.procs.iter().filter(|p| p.role == "serve")
    }

    /// The router, when the workload has one.
    pub fn router(&self) -> Option<&Proc> {
        self.procs.iter().find(|p| p.role == "route")
    }

    /// Process ids of every server process.
    pub fn pids(&self) -> Vec<u32> {
        self.procs.iter().map(Proc::pid).collect()
    }

    /// Stops every process (router first) through `/v1/shutdown`, killing
    /// any that has not exited within 10 s, and waits for each.
    pub fn stop(mut self) {
        for proc in self.procs.iter_mut().rev() {
            let _ = request(proc.addr, "POST", "/v1/shutdown");
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                match proc.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    _ => {
                        let _ = proc.child.kill();
                        let _ = proc.child.wait();
                        break;
                    }
                }
            }
        }
        self.procs.clear();
    }
}

impl Drop for Deployment {
    /// A deployment dropped on an error path is killed, never leaked.
    fn drop(&mut self) {
        for proc in &mut self.procs {
            let _ = proc.child.kill();
            let _ = proc.child.wait();
        }
    }
}

/// CPU time of `pid` in nanoseconds: the sum over its threads of the
/// scheduler's on-CPU time (`/proc/<pid>/task/*/schedstat`, first field).
/// Exact to the nanosecond, where `utime`/`stime` are sampled per clock
/// tick; a thread that exits takes its time with it, and the served
/// processes keep theirs for their lifetime.
pub fn cpu_ns(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else { return 0 };
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Peak resident set of `pid` (`VmHWM`), in kB.
pub fn peak_rss_kb(pid: u32) -> std::io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    Ok(status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0))
}

/// Host-wide `(steal, total)` jiffies from the first line of `/proc/stat`.
pub fn host_cpu() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user/nice).
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().take(8).sum())
}

/// Sum of the sizes of the files in `dir` whose names start with `prefix`.
pub fn bytes_with_prefix(dir: &Path, prefix: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A counter from an exposition (0 when absent).
pub fn counter(exposition: &str, series: &str) -> u64 {
    cp_serve::metrics::scrape_counter(exposition, series).unwrap_or(0)
}

/// Cumulative `(bound, count)` buckets of histogram `name`, summed over
/// every label set (routes, for `cp_request_micros`).
pub fn histogram(exposition: &str, name: &str) -> Vec<(u64, u64)> {
    let prefix = format!("{name}_bucket{{");
    let mut merged: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for line in exposition.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else { continue };
        let Some(le_at) = rest.find("le=\"") else { continue };
        let rest = &rest[le_at + 4..];
        let Some((le, value)) = rest.split_once("\"}") else { continue };
        let bound = if le == "+Inf" { u64::MAX } else { le.parse().unwrap_or(u64::MAX) };
        *merged.entry(bound).or_default() += value.trim().parse::<u64>().unwrap_or(0);
    }
    merged.into_iter().collect()
}

/// Sums bucket lists with the same bounds (one per node).
pub fn merge_histograms(parts: &[Vec<(u64, u64)>]) -> Vec<(u64, u64)> {
    let mut merged: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for part in parts {
        for &(bound, count) in part {
            *merged.entry(bound).or_default() += count;
        }
    }
    merged.into_iter().collect()
}

/// Quantile of merged buckets (0 when empty).
pub fn quantile(buckets: &[(u64, u64)], q: f64) -> f64 {
    cp_serve::metrics::quantile_from_buckets(buckets, q)
}

/// `_sum` of a histogram over every label set.
pub fn histogram_sum(exposition: &str, name: &str) -> u64 {
    let prefix = format!("{name}_sum");
    exposition
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .filter_map(|rest| rest.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_labelled_histograms() {
        let text = "cp_request_micros_bucket{route=\"visit\",le=\"8\"} 3\n\
                    cp_request_micros_bucket{route=\"visit\",le=\"+Inf\"} 4\n\
                    cp_request_micros_sum{route=\"visit\"} 40\n\
                    cp_request_micros_bucket{route=\"healthz\",le=\"8\"} 1\n\
                    cp_request_micros_bucket{route=\"healthz\",le=\"+Inf\"} 1\n\
                    cp_request_micros_sum{route=\"healthz\"} 2\n\
                    cp_wal_fsync_micros_bucket{le=\"8\"} 5\n";
        assert_eq!(histogram(text, "cp_request_micros"), vec![(8, 4), (u64::MAX, 5)]);
        assert_eq!(histogram_sum(text, "cp_request_micros"), 42);
        assert_eq!(histogram(text, "cp_wal_fsync_micros"), vec![(8, 5)]);
        assert_eq!(
            addr_after(
                "cp-serve listening on http://127.0.0.1:4000 (seed 7)",
                "listening on http://"
            ),
            Some("127.0.0.1:4000".parse().unwrap())
        );
    }
}
