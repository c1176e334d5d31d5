//! The workloads and their seeded request traces.
//!
//! A trace is generated in full before any server starts and is a pure
//! function of `(workload, seed, seconds)`. Cookie headers come from the
//! world's `DerivedSite::issued_for`, simulated per host in trace order,
//! so no request depends on a response or on timing. Every host is pinned
//! to one connection, which keeps its visits in trace order on the wire.

use std::collections::{HashMap, HashSet};

use cp_cookies::SimTime;
use cp_runtime::json::Json;
use cp_runtime::rng::{Rng, SeedableRng, StdRng, Zipf};
use cp_serve::http::append_request;
use cp_serve::{EmbeddedWorld, WorldKind};
use cp_webworld::render::{render_page, RenderInput};
use cp_webworld::uniform_host;

/// World seed of every server and replay. The benchmark seed varies the
/// trace only, so runs on different seeds exercise the same sites.
pub const WORLD_SEED: u64 = 7;
/// Hosts in the `zipf-cold` world.
pub const UNIFORM_HOSTS: u64 = 1_000_000;
/// Zipf exponent of `zipf-cold` host draws (rank 1 is host index 0).
pub const ZIPF_EXPONENT: f64 = 1.1;
/// Keep-alive connections the client replays over, one per vCPU of a
/// 2-vCPU host.
pub const CONNECTIONS: usize = 2;
/// Untimed `zipf-cold` prefix that fills the caches before timing.
const ZIPF_WARMUP: usize = 2_000;
/// Derived-site cache of the generator's own world (generation only).
const GEN_SITE_CACHE: usize = 4_096;
/// Host header on every request; the server does not route on it.
pub const HOST_HEADER: &str = "perfbench";

/// One named workload: a server configuration plus a traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-memory single node, Table-1 world.
    Table1Mixed,
    /// Durable single node, `uniform:1000000` world, Zipf hosts.
    ZipfCold,
    /// Router in front of three durable nodes with quorum acks.
    ClusterQuorum,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::Table1Mixed, Workload::ZipfCold, Workload::ClusterQuorum];

    /// Looks a workload up by its benchmark name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Mixed => "table1-mixed",
            Workload::ZipfCold => "zipf-cold",
            Workload::ClusterQuorum => "cluster-quorum",
        }
    }

    /// The world the servers (and the replay) derive sites from.
    pub fn world(self) -> WorldKind {
        match self {
            Workload::ZipfCold => WorldKind::Uniform(UNIFORM_HOSTS),
            _ => WorldKind::Table1,
        }
    }

    /// Whether the servers journal to a WAL (`--fsync batch`).
    pub fn durable(self) -> bool {
        self != Workload::Table1Mixed
    }

    /// Offered rate of the timed phase, requests per second. Each keeps
    /// the servers' core 20-45% busy: far enough from saturation that the
    /// open loop builds no backlog, busy enough that waking an idle vCPU,
    /// whose cost follows the host, does not dominate CPU per request.
    pub fn rate(self) -> f64 {
        match self {
            Workload::Table1Mixed => 8_000.0,
            Workload::ZipfCold => 2_000.0,
            Workload::ClusterQuorum => 3_000.0,
        }
    }

    fn salt(self) -> u64 {
        match self {
            Workload::Table1Mixed => 0x7AB1_E001,
            Workload::ZipfCold => 0x21BF_C01D,
            Workload::ClusterQuorum => 0xC1B5_7E42,
        }
    }
}

/// What a request asks for (the mix's four slices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `POST /v1/visit`: one FORCUM training step.
    Visit,
    /// `GET /healthz`.
    Healthz,
    /// `GET /v1/sites/{host}` for a host visited earlier in the trace.
    SiteRead,
    /// `POST /v1/classify` on a page pair.
    Classify,
}

impl Kind {
    fn code(self) -> u8 {
        match self {
            Kind::Visit => 0,
            Kind::Healthz => 1,
            Kind::SiteRead => 2,
            Kind::Classify => 3,
        }
    }
}

/// One request of a trace, with its bytes on the wire.
#[derive(Debug, Clone)]
pub struct Request {
    /// The mix slice.
    pub kind: Kind,
    /// Connection the request travels on.
    pub conn: usize,
    /// Visited or read host; empty for healthz and classify.
    pub host: String,
    /// Scheduled send time, nanoseconds after the timed phase starts
    /// (0 for the untimed prefix).
    pub at_ns: u64,
    /// The complete HTTP/1.1 request.
    pub wire: Vec<u8>,
}

/// A generated trace: an untimed warm-up prefix, then the timed phase.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The workload it was generated for.
    pub workload: Workload,
    /// The benchmark seed.
    pub seed: u64,
    /// Length of the warm-up prefix.
    pub warmup: usize,
    /// Every request in trace order.
    pub requests: Vec<Request>,
}

/// Deterministic (regular, hidden) page pairs for `table1-mixed` and
/// `cluster-quorum` classify requests, the same three pairs the repo's
/// load generator sends: the first differs structurally, the others not.
const FIXED_PAIRS: [(&str, &str); 3] = [
    (
        "<html><body><h1>Home</h1><ul><li>saved item</li><li>saved item</li></ul>\
         <div><p>personalized shelf</p><p>another row</p></div></body></html>",
        "<html><body><h1>Home</h1><p>log in to see your items</p></body></html>",
    ),
    (
        "<html><body><h1>News</h1><p>story one</p><p>story two</p></body></html>",
        "<html><body><h1>News</h1><p>story one</p><p>story two</p></body></html>",
    ),
    (
        "<html><body><div><p>banner A</p><p>content</p></div></body></html>",
        "<html><body><div><p>banner B</p><p>content</p></div></body></html>",
    ),
];

/// FNV-1a, for connection pinning and per-page noise seeds.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The connection every request about `host` travels on.
pub fn conn_of(host: &str) -> usize {
    (fnv1a(host.as_bytes()) % CONNECTIONS as u64) as usize
}

struct Generator {
    rng: StdRng,
    world: EmbeddedWorld,
    hosts: Vec<String>,
    zipf: Option<Zipf>,
    jars: HashMap<String, Vec<String>>,
    visited: HashSet<String>,
    last_visited: Option<String>,
    fixed_bodies: Vec<String>,
}

impl Generator {
    fn new(workload: Workload, seed: u64) -> Generator {
        let world = EmbeddedWorld::with_world(WORLD_SEED, workload.world(), GEN_SITE_CACHE);
        let zipf =
            (workload == Workload::ZipfCold).then(|| Zipf::new(UNIFORM_HOSTS, ZIPF_EXPONENT));
        let hosts = if zipf.is_some() { Vec::new() } else { world.hosts() };
        let fixed_bodies = FIXED_PAIRS
            .iter()
            .map(|(r, h)| Json::object().set("regular", *r).set("hidden", *h).to_compact())
            .collect();
        Generator {
            rng: StdRng::seed_from_u64(seed ^ workload.salt()),
            world,
            hosts,
            zipf,
            jars: HashMap::new(),
            visited: HashSet::new(),
            last_visited: None,
            fixed_bodies,
        }
    }

    fn pick_host(&mut self) -> String {
        match &self.zipf {
            Some(zipf) => uniform_host(zipf.sample(&mut self.rng) - 1),
            None => self.hosts[self.rng.gen_range(0..self.hosts.len())].clone(),
        }
    }

    fn pick_path(&mut self) -> String {
        match self.rng.gen_range(0..5u64) {
            0 => "/".to_string(),
            n => format!("/page/{n}"),
        }
    }

    fn request(
        &self,
        kind: Kind,
        conn: usize,
        host: String,
        method: &str,
        target: &str,
        body: &str,
    ) -> Request {
        let mut wire = Vec::with_capacity(body.len() + 128);
        append_request(&mut wire, method, target, HOST_HEADER, body.as_bytes());
        Request { kind, conn, host, at_ns: 0, wire }
    }

    /// A visit carrying the host's simulated jar; the jar then takes the
    /// cookies the site issues on the (redirect-resolved) path.
    fn visit(&mut self, host: String) -> Request {
        let path = self.pick_path();
        let site = self.world.site(&host).expect("trace hosts exist in the world");
        let jar = self.jars.entry(host.clone()).or_default();
        let body = if jar.is_empty() {
            format!("{{\"host\":\"{host}\",\"path\":\"{path}\"}}")
        } else {
            format!("{{\"cookie\":\"{}\",\"host\":\"{host}\",\"path\":\"{path}\"}}", jar.join("; "))
        };
        let resolved =
            if site.spec.entry_redirect && path == "/" { "/home" } else { path.as_str() };
        for cookie in site.issued_for(resolved) {
            if !jar.contains(&cookie) {
                jar.push(cookie);
            }
        }
        self.visited.insert(host.clone());
        self.last_visited = Some(host.clone());
        let conn = conn_of(&host);
        self.request(Kind::Visit, conn, host, "POST", "/v1/visit", &body)
    }

    /// A site read of a host the trace already visited, so it is never
    /// a 404 (in `zipf-cold` a not-yet-visited draw falls back to the
    /// latest visited host).
    fn site_read(&mut self) -> Request {
        let mut host = self.pick_host();
        if self.zipf.is_some() && !self.visited.contains(&host) {
            host = self.last_visited.clone().expect("the warm-up visits first");
        }
        let conn = conn_of(&host);
        let target = format!("/v1/sites/{host}");
        self.request(Kind::SiteRead, conn, host, "GET", &target, "")
    }

    fn classify(&mut self) -> Request {
        let conn = self.rng.gen_range(0..CONNECTIONS as u64) as usize;
        let body = if self.zipf.is_some() {
            self.rendered_pair()
        } else {
            self.fixed_bodies[self.rng.gen_range(0..FIXED_PAIRS.len() as u64) as usize].clone()
        };
        self.request(Kind::Classify, conn, String::new(), "POST", "/v1/classify", &body)
    }

    /// A (regular, hidden) pair rendered from a Zipf-drawn uniform-world
    /// site: the regular page sees every cookie the path issues, the
    /// hidden one loses the persistent ones. Noise is seeded by host and
    /// path, so hot pages repeat byte for byte and cold ones miss every
    /// cache.
    fn rendered_pair(&mut self) -> String {
        let host = self.pick_host();
        let path = self.pick_path();
        let site = self.world.site(&host).expect("trace hosts exist in the world");
        let spec = &site.spec;
        let path = if spec.entry_redirect && path == "/" { "/home".to_string() } else { path };
        let all: Vec<(String, String)> = site
            .issued_for(&path)
            .iter()
            .filter_map(|c| c.split_once('='))
            .map(|(n, v)| (n.to_string(), v.to_string()))
            .collect();
        let kept: Vec<(String, String)> = all
            .iter()
            .filter(|(n, _)| !spec.cookies.iter().any(|c| &c.name == n && c.is_persistent()))
            .cloned()
            .collect();
        let key = fnv1a(format!("{host}{path}").as_bytes());
        let render = |cookies: &[(String, String)], salt: u64| {
            let input = RenderInput { spec, path: &path, cookies, now: SimTime::EPOCH };
            render_page(&input, &mut StdRng::seed_from_u64(key ^ salt))
        };
        let regular = render(&all, 0x5245_4755);
        let hidden = render(&kept, 0x4849_4444);
        Json::object().set("regular", regular).set("hidden", hidden).to_compact()
    }

    fn healthz(&mut self) -> Request {
        let conn = self.rng.gen_range(0..CONNECTIONS as u64) as usize;
        self.request(Kind::Healthz, conn, String::new(), "GET", "/healthz", "")
    }

    /// One draw of the mix: 86% visit, 4% healthz, 4% site read, 6%
    /// classify.
    fn next(&mut self) -> Request {
        let roll = self.rng.gen_range(0..100u64);
        if roll < 86 {
            let host = self.pick_host();
            self.visit(host)
        } else if roll < 90 {
            self.healthz()
        } else if roll < 94 {
            self.site_read()
        } else {
            self.classify()
        }
    }

    /// The untimed prefix. Table-1 workloads visit every host once (so
    /// every later site read, on any replica, finds its host) and send
    /// each fixed classify pair once; `zipf-cold` sends a slice of the
    /// mix that starts with a visit.
    fn warmup(&mut self) -> Vec<Request> {
        if self.zipf.is_some() {
            let host = self.pick_host();
            let mut out = vec![self.visit(host)];
            while out.len() < ZIPF_WARMUP {
                out.push(self.next());
            }
            return out;
        }
        let mut order = self.hosts.clone();
        for i in (1..order.len()).rev() {
            let j = self.rng.gen_range(0..=i as u64) as usize;
            order.swap(i, j);
        }
        let mut out: Vec<Request> = order.into_iter().map(|h| self.visit(h)).collect();
        for (i, body) in self.fixed_bodies.clone().iter().enumerate() {
            out.push(self.request(
                Kind::Classify,
                i % CONNECTIONS,
                String::new(),
                "POST",
                "/v1/classify",
                body,
            ));
        }
        out
    }
}

impl Trace {
    /// Generates the trace: the warm-up prefix, then Poisson arrivals at
    /// the workload's offered rate for `seconds`.
    pub fn generate(workload: Workload, seed: u64, seconds: f64) -> Trace {
        let mut gen = Generator::new(workload, seed);
        let mut requests = gen.warmup();
        let warmup = requests.len();
        let horizon_ns = seconds * 1e9;
        let mean_gap_ns = 1e9 / workload.rate();
        let mut t = 0.0f64;
        loop {
            // Exponential gap; 1 - u keeps ln away from 0.
            let u: f64 = gen.rng.gen_range(0.0..1.0);
            t += -(1.0 - u).ln() * mean_gap_ns;
            if t >= horizon_ns {
                break;
            }
            let mut request = gen.next();
            request.at_ns = t as u64;
            requests.push(request);
        }
        Trace { workload, seed, warmup, requests }
    }

    /// The timed requests.
    pub fn timed(&self) -> &[Request] {
        &self.requests[self.warmup..]
    }

    /// A canonical byte encoding (identity checks and the trace digest).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(self.workload.name().as_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&(self.warmup as u64).to_le_bytes());
        for r in &self.requests {
            out.push(r.kind.code());
            out.push(r.conn as u8);
            out.extend_from_slice(&r.at_ns.to_le_bytes());
            out.extend_from_slice(&(r.host.len() as u64).to_le_bytes());
            out.extend_from_slice(r.host.as_bytes());
            out.extend_from_slice(&(r.wire.len() as u64).to_le_bytes());
            out.extend_from_slice(&r.wire);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_and_different_seed_differs() {
        for workload in [Workload::Table1Mixed, Workload::ZipfCold] {
            let a = Trace::generate(workload, 11, 0.2).to_bytes();
            let b = Trace::generate(workload, 11, 0.2).to_bytes();
            let c = Trace::generate(workload, 12, 0.2).to_bytes();
            assert_eq!(a, b, "{}: same seed must give a byte-identical trace", workload.name());
            assert_ne!(a, c, "{}: different seeds must give different traces", workload.name());
        }
    }

    #[test]
    fn hosts_stay_on_one_connection_and_reads_follow_visits() {
        let trace = Trace::generate(Workload::ZipfCold, 3, 0.5);
        let mut seen = HashSet::new();
        for r in &trace.requests {
            match r.kind {
                Kind::Visit => {
                    assert_eq!(r.conn, conn_of(&r.host));
                    seen.insert(r.host.clone());
                }
                Kind::SiteRead => {
                    assert_eq!(r.conn, conn_of(&r.host));
                    assert!(seen.contains(&r.host), "read of an unvisited host {}", r.host);
                }
                _ => {}
            }
        }
        let timed = trace.timed();
        assert!(timed.windows(2).all(|w| w[0].at_ns <= w[1].at_ns), "schedule must be sorted");
    }
}
