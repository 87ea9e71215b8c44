//! `serve_mix`: the unmodified `rascad serve` release binary on
//! loopback at default settings, driven in an open loop by two client
//! lanes (one keep-alive connection; one fresh `Connection: close`
//! connection per request), plus the daemon probe the in-process
//! workloads' traced runs use for the serve-layer rows.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rascad_core::{report, Engine};
use rascad_markov::{SolveOptions, SteadyStateMethod};
use rascad_obs::json::{self, Value};
use rascad_serve::api;
use rascad_spec::{Block, SystemSpec};

use crate::inputs::{self, Kind, Request, LATENCY_LIMIT_MS};
use crate::layers::{self, time_us, vec_mul_steps, Rows};
use crate::rng::Rng;
use crate::stats::{self, Metrics};
use crate::{Args, RunResult};

// ------------------------------------------------------------------ daemon

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

pub struct Daemon {
    child: Child,
    pub addr: String,
    /// Drains the daemon's stderr; ends when the daemon exits.
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `rascad serve` on an ephemeral loopback port and waits
    /// until `/readyz` answers 200. `threads` pins the engine's worker
    /// count (`RASCAD_THREADS`); `None` keeps the default.
    pub fn start(rascad: &str, threads: Option<usize>) -> Daemon {
        let mut cmd = Command::new(rascad);
        if let Some(n) = threads {
            cmd.env("RASCAD_THREADS", n.to_string());
        }
        let mut child = cmd
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| fail(&format!("cannot start `{rascad} serve`: {e}")));
        let mut lines = BufReader::new(child.stderr.take().expect("piped stderr")).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(rest) = line.split("listening on http://").nth(1) {
                        break rest.split_whitespace().next().unwrap_or_default().to_string();
                    }
                }
                _ => fail("daemon exited before it listened"),
            }
        };
        // Keep draining stderr so a chatty daemon never blocks on a
        // full pipe.
        let drain = Some(std::thread::spawn(move || lines.for_each(drop)));
        let d = Daemon { child, addr, drain };
        let until = Instant::now() + Duration::from_secs(20);
        while Instant::now() < until {
            if matches!(d.request("GET", "/readyz", ""), Ok((200, _))) {
                return d;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        fail("daemon never became ready");
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// One request on a fresh `Connection: close` connection.
    pub fn request(&self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        Conn::open(&self.addr)?.send(method, path, body, true)
    }

    /// SIGTERM (a graceful drain), then wait; `Drop` kills a daemon
    /// still running after 40 s.
    pub fn stop(mut self) {
        // SAFETY: `kill` has no memory-safety preconditions, and the pid
        // is our unreaped child's, so it cannot name another process.
        unsafe {
            kill(self.child.id() as i32, SIGTERM);
        }
        let until = Instant::now() + Duration::from_secs(40);
        while Instant::now() < until {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    /// A daemon never outlives the benchmark, even on an early exit.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

pub fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(1)
}

/// A client connection with its own read buffer.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn { stream, buf: Vec::new() })
    }

    /// Writes one request in a single write and reads one response.
    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        close: bool,
    ) -> std::io::Result<(u16, String)> {
        let mut req = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n");
        if !body.is_empty() {
            req.push_str("Content-Type: application/json\r\n");
        }
        req.push_str(&format!("Content-Length: {}\r\n", body.len()));
        if close {
            req.push_str("Connection: close\r\n");
        }
        req.push_str("\r\n");
        req.push_str(body);
        self.stream.write_all(req.as_bytes())?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<(u16, String)> {
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-response"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length").then(|| v.trim().parse().ok())?
            })
            .ok_or_else(|| bad("no content-length"))?;
        while self.buf.len() < head_end + len {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8_lossy(&self.buf[head_end..head_end + len]).to_string();
        self.buf.drain(..head_end + len);
        Ok((status, body))
    }
}

/// The sum (ms) of the daemon's `serve.latency` histogram: handler time
/// of every request answered so far.
fn dispatch_sum(page: &str) -> f64 {
    let key = rascad_obs::prometheus::family_name("serve.latency") + "_sum";
    page.lines()
        .find_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            (k.split('{').next() == Some(key.as_str())).then(|| v.parse::<f64>().ok())?
        })
        .unwrap_or(0.0)
}

// ------------------------------------------------------------------ load

/// What the client saw for one scheduled request.
#[derive(Debug, Clone)]
struct Seen {
    /// Index into the schedule.
    idx: usize,
    latency_ms: f64,
    /// Send time minus when the lane could first have sent, ms.
    lateness_ms: f64,
    status: u16,
    body: String,
}

/// Drives one lane of the schedule from `start`; returns what it saw.
fn lane(addr: &str, lane: usize, schedule: &[Request], start: Instant) -> Vec<Seen> {
    let mut seen = Vec::new();
    let mut keep: Option<Conn> = None;
    let mut free = start;
    for (idx, r) in schedule.iter().enumerate().filter(|(_, r)| r.lane == lane) {
        let due = start + Duration::from_secs_f64(r.due);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let ready = due.max(free);
        let method = if r.kind == Kind::Scrape { "GET" } else { "POST" };
        let result = if lane == 0 {
            // The keep-alive lane reconnects only if the daemon closed
            // the connection; it never asks for a close itself.
            let mut result = Err(std::io::ErrorKind::NotConnected.into());
            for _ in 0..2 {
                if keep.is_none() {
                    keep = Conn::open(addr).ok();
                }
                if let Some(c) = keep.as_mut() {
                    result = c.send(method, r.kind.path(), &r.body, false);
                }
                if result.is_ok() {
                    break;
                }
                keep = None;
            }
            result
        } else {
            Conn::open(addr).and_then(|mut c| c.send(method, r.kind.path(), &r.body, true))
        };
        let done = Instant::now();
        free = done;
        let (status, body) = result.unwrap_or((0, String::new()));
        seen.push(Seen {
            idx,
            latency_ms: (done - due).as_secs_f64() * 1e3,
            lateness_ms: (sent - ready).as_secs_f64() * 1e3,
            status,
            body,
        });
    }
    seen
}

/// Runs the whole schedule on two lane threads; results in schedule order.
fn drive(addr: &str, schedule: &[Request]) -> (Vec<Seen>, f64) {
    let start = Instant::now() + Duration::from_millis(20);
    let mut all: Vec<Seen> = std::thread::scope(|s| {
        let lanes: Vec<_> =
            (0..2).map(|l| s.spawn(move || lane(addr, l, schedule, start))).collect();
        lanes.into_iter().flat_map(|h| h.join().expect("lane thread")).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    all.sort_by_key(|s| s.idx);
    (all, wall)
}

// ------------------------------------------------------------------ checks

/// The in-process mirror of the daemon's state: an engine whose cache
/// sees the same solves and a copy of every tenant's stored specs.
struct Mirror {
    engine: Engine,
    store: HashMap<(String, String), SystemSpec>,
}

fn num_bits(v: Option<&Value>) -> Option<u64> {
    match v {
        Some(Value::Num(x)) => Some(x.to_bits()),
        Some(Value::Int(i)) => Some((*i as f64).to_bits()),
        _ => None,
    }
}

fn sweep_values(body: &Value) -> Vec<f64> {
    let from = body.get("from").and_then(Value::as_f64).unwrap_or(0.0);
    let to = body.get("to").and_then(Value::as_f64).unwrap_or(0.0);
    let points = body.get("points").and_then(Value::as_i64).unwrap_or(2) as usize;
    (0..points).map(|i| from + (to - from) * (i as f64) / ((points - 1) as f64)).collect()
}

/// Outcome of checking one response.
enum Checked {
    Ok,
    Failed(&'static str),
    Wrong(String),
}

impl Mirror {
    fn new(bases: &[SystemSpec], engine: Engine) -> Mirror {
        let mut store = HashMap::new();
        for lane in inputs::LANE_TENANTS {
            for t in lane {
                for (i, name) in inputs::PAPER_NAMES.iter().enumerate() {
                    store.insert((t.to_string(), name.to_string()), bases[i].clone());
                }
            }
        }
        Mirror { engine, store }
    }

    fn spec_of(&self, r: &Request, body: &Value) -> Option<SystemSpec> {
        match body.get("spec").and_then(Value::as_str) {
            Some(text) => SystemSpec::from_dsl(text).ok(),
            None => self.store.get(&(r.tenant.to_string(), r.spec_name?.to_string())).cloned(),
        }
    }

    /// Checks one answered request against the in-process solve and
    /// applies its effect (a put) to the mirror.
    fn check(&mut self, r: &Request, seen: &Seen) -> Checked {
        let body = json::parse(&r.body).expect("generated bodies parse");
        let expect = if r.kind == Kind::Put { 201 } else { 200 };
        if r.kind == Kind::Put {
            if let Some(spec) = self.spec_of(r, &body) {
                let name = r.spec_name.expect("puts name their spec");
                self.store.insert((r.tenant.to_string(), name.to_string()), spec);
            }
        }
        if seen.status == 429 {
            return Checked::Failed("429 shed");
        }
        if seen.status >= 500 || seen.status == 0 {
            return Checked::Failed("5xx or transport error");
        }
        if seen.status != expect {
            return Checked::Failed("unexpected status");
        }
        let got = json::parse(&seen.body).unwrap_or(Value::Null);
        match r.kind {
            Kind::Warm | Kind::Cold => {
                let Some(spec) = self.spec_of(r, &body) else {
                    return Checked::Wrong(format!("request {}: spec does not parse", seen.idx));
                };
                let want =
                    self.engine.solve_spec(&spec).ok().map(|s| s.system.availability.to_bits());
                let have = num_bits(got.get("system").and_then(|s| s.get("availability")));
                if want != have {
                    return Checked::Wrong(format!(
                        "request {}: availability {have:?} differs from the in-process {want:?}",
                        seen.idx
                    ));
                }
            }
            Kind::Sweep => {
                let Some(spec) = self.spec_of(r, &body) else {
                    return Checked::Wrong(format!("request {}: no stored spec", seen.idx));
                };
                let block = body.get("block").and_then(Value::as_str).unwrap_or_default();
                let values = sweep_values(&body);
                let want: Vec<u64> = self
                    .engine
                    .sweep(&spec, &values, |s, v| {
                        if let Some(b) = s.root.find_mut(block) {
                            b.params.mtbf = rascad_spec::units::Hours(v);
                        }
                    })
                    .map(|pts| {
                        pts.iter().map(|p| p.solution.system.availability.to_bits()).collect()
                    })
                    .unwrap_or_default();
                let have: Vec<u64> = match got.get("points") {
                    Some(Value::Arr(pts)) => {
                        pts.iter().filter_map(|p| num_bits(p.get("availability"))).collect()
                    }
                    _ => Vec::new(),
                };
                if want != have {
                    return Checked::Wrong(format!("request {}: sweep points differ", seen.idx));
                }
            }
            Kind::Lint => {
                let text = body.get("spec").and_then(Value::as_str).unwrap_or_default();
                let want = SystemSpec::from_dsl(text)
                    .map(|s| rascad_lint::lint_spec(&s).counts().0 as i64)
                    .ok();
                if got.get("errors").and_then(Value::as_i64) != want {
                    return Checked::Wrong(format!("request {}: lint counts differ", seen.idx));
                }
            }
            Kind::Put | Kind::Scrape => {}
        }
        if seen.latency_ms > LATENCY_LIMIT_MS as f64 {
            return Checked::Failed("over the latency limit");
        }
        Checked::Ok
    }
}

/// Six seeded answered solves re-solved on `Engine::sequential()`:
/// availability, interval availability and MTTF must be bit-identical.
fn sequential_sample(
    seed: u64,
    schedule: &[Request],
    seen: &[Seen],
    specs: &HashMap<usize, SystemSpec>,
) -> Vec<String> {
    let mut rng = Rng::new(seed).fork(0x5E0);
    let mut idx: Vec<usize> = specs.keys().copied().collect();
    idx.sort_unstable();
    let reference = Engine::sequential();
    let mut wrong = Vec::new();
    for _ in 0..6.min(idx.len()) {
        let i = idx[rng.index(idx.len())];
        let s = &seen[i];
        let got = json::parse(&s.body).unwrap_or(Value::Null);
        let sys = got.get("system");
        let have = ["availability", "interval_availability", "mttf_hours"]
            .map(|k| num_bits(sys.and_then(|v| v.get(k))));
        let want = reference.solve_spec(&specs[&i]).map(|sol| {
            let m = &sol.system;
            [m.availability, m.interval_availability, m.mttf_hours]
                .map(|x| x.is_finite().then(|| x.to_bits()))
        });
        if want.as_ref().ok() != Some(&have) {
            wrong.push(format!(
                "request {i} ({:?}): {have:?} differs from the sequential engine's {want:?}",
                schedule[i].kind
            ));
        }
    }
    wrong
}

/// Checks every answered request; returns `(failed, wrong, causes)`.
fn check_all(
    seed: u64,
    bases: &[SystemSpec],
    schedule: &[Request],
    seen: &[Seen],
) -> (u64, Vec<String>, BTreeMap<&'static str, u64>) {
    let mut mirror = Mirror::new(bases, Engine::new());
    let mut failed = 0;
    let mut wrong = Vec::new();
    let mut causes = BTreeMap::new();
    let mut solved_ok = HashMap::new();
    for s in seen {
        let r = &schedule[s.idx];
        if r.kind == Kind::Scrape {
            continue;
        }
        let spec = json::parse(&r.body).ok().and_then(|b| mirror.spec_of(r, &b));
        match mirror.check(r, s) {
            Checked::Ok => {
                if matches!(r.kind, Kind::Warm | Kind::Cold) {
                    if let Some(spec) = spec {
                        solved_ok.insert(s.idx, spec);
                    }
                }
                continue;
            }
            Checked::Failed(c) => {
                let n = causes.entry(c).or_insert(0);
                *n += 1;
                if *n <= 3 {
                    let body: String = s.body.chars().take(200).collect();
                    eprintln!(
                        "perfbench: request {} ({:?}) failed, {c}: {} {body}",
                        s.idx, r.kind, s.status
                    );
                }
            }
            Checked::Wrong(why) => {
                wrong.push(why);
                *causes.entry("wrong result").or_insert(0) += 1;
            }
        }
        failed += 1;
    }
    let mismatched = sequential_sample(seed, schedule, seen, &solved_ok);
    if !mismatched.is_empty() {
        failed += mismatched.len() as u64;
        *causes.entry("wrong result").or_insert(0) += mismatched.len() as u64;
        wrong.extend(mismatched);
    }
    (failed, wrong, causes)
}

// ------------------------------------------------------------------ runs

/// Set-up: daemon spawn, `/readyz` 200 and the initial spec puts,
/// three times; returns the last daemon and the median time.
fn setup(args: &Args, bases: &[SystemSpec]) -> (Daemon, f64) {
    let rascad = args.rascad.as_deref().unwrap_or_else(|| fail("--rascad is required"));
    let puts = inputs::initial_puts(bases);
    let mut times = Vec::new();
    let mut daemon = None;
    for round in 0..3 {
        let t = Instant::now();
        // The traced run's daemon solves on one worker, as the
        // in-process replay it is compared with does.
        let d = Daemon::start(rascad, args.trace.then_some(1));
        for (_, _, body) in &puts {
            match d.request("POST", "/v1/specs", body) {
                Ok((201, _)) => {}
                other => fail(&format!("initial put failed: {other:?}")),
            }
        }
        times.push(t.elapsed().as_secs_f64());
        if round < 2 {
            d.stop();
        } else {
            daemon = Some(d);
        }
    }
    (daemon.expect("three rounds"), stats::median(&times))
}

/// Lateness beyond which the generator, not the daemon, set the pace:
/// the run is then invalid.
pub const LATENESS_BOUND_MS: f64 = 10.0;

struct Load {
    seen: Vec<Seen>,
    wall_s: f64,
    /// Client latencies of the non-scrape requests.
    latencies: Vec<f64>,
    late_p99: f64,
}

fn load(daemon: &Daemon, schedule: &[Request]) -> Load {
    let (seen, wall_s) = drive(&daemon.addr, schedule);
    let latencies = seen
        .iter()
        .filter(|s| schedule[s.idx].kind != Kind::Scrape)
        .map(|s| s.latency_ms)
        .collect();
    let mut late: Vec<f64> = seen.iter().map(|s| s.lateness_ms).collect();
    late.sort_by(f64::total_cmp);
    let late_p99 = late.get((late.len() * 99) / 100).copied().unwrap_or(0.0);
    Load { seen, wall_s, latencies, late_p99 }
}

pub fn run(args: &Args) -> RunResult {
    let bases = inputs::paper_bases();
    let (daemon, setup_s) = setup(args, &bases);
    if args.trace {
        return traced(args, &bases, daemon);
    }
    let schedule = inputs::schedule(args.seed, args.seconds, &bases);
    let l = load(&daemon, &schedule);
    let rss = stats::peak_rss_mb(&daemon.pid());
    daemon.stop();
    let (failed, mut wrong, causes) = check_all(args.seed, &bases, &schedule, &l.seen);
    let attempted = l.latencies.len() as u64;
    if l.late_p99 > LATENESS_BOUND_MS {
        wrong.push(format!(
            "invalid run: generator lateness p99 {:.3} ms exceeds {LATENESS_BOUND_MS} ms",
            l.late_p99
        ));
    }
    let within = l.latencies.iter().filter(|&&ms| ms <= LATENCY_LIMIT_MS as f64).count();
    let deadline_ratios: Vec<f64> = l
        .seen
        .iter()
        .filter(|s| matches!(schedule[s.idx].kind, Kind::Warm | Kind::Cold))
        .map(|s| s.latency_ms / LATENCY_LIMIT_MS as f64)
        .collect();
    let (tail, pct) = stats::tail(&l.latencies);
    let mut groups: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in &l.seen {
        let r = &schedule[s.idx];
        groups.entry(format!("lane{}/{:?}", r.lane, r.kind)).or_default().push(s.latency_ms);
    }
    for (g, v) in &groups {
        println!(
            "  {g:<18} n {:>4}  p50 {:>9.3} ms  tail {:>9.3} ms",
            v.len(),
            stats::median(v),
            stats::tail(v).0
        );
    }
    println!(
        "serve_mix: {attempted} requests + {} scrapes in {:.3} s; tail is p{pct:.2}; generator lateness p99 {:.3} ms; failed_ratio {:.4}; causes {causes:?}",
        l.seen.len() as u64 - attempted,
        l.wall_s,
        l.late_p99,
        failed as f64 / attempted.max(1) as f64
    );
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("latency_ms_p50", stats::median(&l.latencies), "ms");
    m.put("latency_ms_tail", tail, "ms");
    m.put("throughput_ops_s", within as f64 / l.wall_s, "1/s");
    m.put("deadline_overshoot_p50", stats::median(&deadline_ratios), "ratio");
    m.put("peak_rss_mb", rss, "MB");
    RunResult { attempted, failed, wrong, metrics: m }
}

/// The serve-layer rows (ms or µs per request) of a traced run.
#[derive(Debug, Default)]
pub struct ServeRows {
    pub parse_body_us: f64,
    pub encode_us: f64,
    pub dispatch_ms: f64,
    pub transport_ms: f64,
    pub shed_ratio: f64,
    pub scrape_first_ms: f64,
    pub scrape_last_ms: f64,
}

impl ServeRows {
    pub fn put_rows(&self, m: &mut Metrics) {
        m.put("serve.parse_body_us", self.parse_body_us, "us");
        m.put("serve.encode_us", self.encode_us, "us");
        m.put("serve.dispatch_ms", self.dispatch_ms, "ms");
        m.put("serve.transport_ms", self.transport_ms, "ms");
        m.put("serve.shed_ratio", self.shed_ratio, "ratio");
        m.put("obs.scrape_ms_first", self.scrape_first_ms, "ms");
        m.put("obs.scrape_ms_last", self.scrape_last_ms, "ms");
    }
}

pub fn solve_body(dsl: &str, deadline_ms: Option<u64>) -> String {
    let mut pairs = vec![("spec".to_string(), Value::Str(dsl.to_string()))];
    if let Some(d) = deadline_ms {
        pairs.push(("deadline_ms".to_string(), Value::Int(d as i64)));
    }
    Value::Obj(pairs).to_string_compact()
}

/// The serve-layer rows for a few in-process operations, sent inline to
/// a daemon of their own on one keep-alive connection. Used by the
/// in-process workloads' traced runs; off their operation path.
pub fn probe(args: &Args, bodies: &[String]) -> ServeRows {
    let rascad = args.rascad.as_deref().unwrap_or_else(|| fail("--rascad is required"));
    let d = Daemon::start(rascad, None);
    let scrape = |d: &Daemon| {
        let (page, ms) = time_us(|| d.request("GET", "/metrics", "").map(|r| r.1));
        (page.unwrap_or_default(), ms / 1e3)
    };
    let (page0, first) = scrape(&d);
    let mut conn = Conn::open(&d.addr).unwrap_or_else(|e| fail(&format!("probe connect: {e}")));
    let mut client_ms = 0.0;
    let mut shed = 0;
    let mut parse = 0.0;
    let mut encode = 0.0;
    let engine = Engine::sequential();
    for b in bodies {
        let (resp, us) = time_us(|| conn.send("POST", "/v1/solve", b, false));
        client_ms += us / 1e3;
        if matches!(resp, Ok((429, _))) {
            shed += 1;
        }
        let (body, us) = time_us(|| api::parse_body(b).ok());
        parse += us;
        let sol = body
            .and_then(|v| SystemSpec::from_dsl(v.get("spec")?.as_str()?).ok())
            .and_then(|s| engine.solve_spec(&s).ok());
        if let Some(sol) = sol {
            encode += time_us(|| black_box(api::solution_json(&sol).to_string_compact())).1;
        }
    }
    drop(conn);
    let (page1, last) = scrape(&d);
    d.stop();
    // The window's dispatch total also holds the first scrape's own
    // handler time, spread over the solves.
    let n = bodies.len().max(1) as f64;
    let dispatch = (dispatch_sum(&page1) - dispatch_sum(&page0)) / n;
    ServeRows {
        parse_body_us: parse / n,
        encode_us: encode / n,
        dispatch_ms: dispatch,
        transport_ms: client_ms / n - dispatch,
        shed_ratio: f64::from(shed) / n,
        scrape_first_ms: first,
        scrape_last_ms: last,
    }
}

/// Replays the answered requests in-process, in schedule order, on a
/// mirror of the daemon's engine and store; only those from index
/// `timed_from` on are timed. Each solve or sweep first runs on the
/// mirror untimed, which keeps the mirror's cache in step with the
/// daemon's. The blocks the daemon computed for it (first sight of
/// their parameters) are then timed through the per-block public
/// calls, and the engine row is the same call again with every block
/// cached: batch spawn, roll-up, cache lookups and chain generation.
/// Returns the per-request rows and the timed cache hit ratio.
fn replay(
    bases: &[SystemSpec],
    schedule: &[Request],
    seen: &[Seen],
    timed_from: usize,
) -> (Rows, f64) {
    // One worker, as the traced run's daemon has, so that the rows are
    // sequential times on both sides.
    let mut mirror = Mirror::new(bases, Engine::with_threads(1));
    let key = |b: &Block, s: &SystemSpec| format!("{:?}{:?}", b.params, s.globals);
    let mut cached: HashSet<String> = HashSet::new();
    let mut r = Rows::default();
    let mut hits = (0u64, 0u64);
    let mut n = 0usize;
    for s in seen {
        let req = &schedule[s.idx];
        if req.kind == Kind::Scrape {
            continue;
        }
        let timed = s.idx >= timed_from;
        n += usize::from(timed);
        let t = |us: f64, row: &mut f64| {
            if timed {
                *row += us;
            }
        };
        let (body, us) = time_us(|| api::parse_body(&req.body).ok());
        t(us, &mut r.parse_body);
        let Some(body) = body else { continue };
        let spec = match body.get("spec").and_then(Value::as_str) {
            Some(text) => {
                let (spec, us) = time_us(|| SystemSpec::from_dsl(text).ok());
                t(us, &mut r.from_dsl);
                spec
            }
            None => mirror.spec_of(req, &body),
        };
        let Some(spec) = spec else { continue };
        match req.kind {
            Kind::Put | Kind::Lint => {
                let (_, us) = time_us(|| black_box(rascad_lint::lint_spec(&spec)));
                t(us, &mut r.lint);
                if req.kind == Kind::Put {
                    let name = req.spec_name.unwrap_or_default();
                    mirror.store.insert((req.tenant.into(), name.into()), spec);
                }
                continue;
            }
            Kind::Warm | Kind::Cold | Kind::Sweep => {}
            Kind::Scrape => unreachable!("skipped above"),
        }
        let block = body.get("block").and_then(Value::as_str).unwrap_or_default().to_string();
        let set_mtbf = |s: &mut SystemSpec, v: f64| {
            if let Some(b) = s.root.find_mut(&block) {
                b.params.mtbf = rascad_spec::units::Hours(v);
            }
        };
        let values = sweep_values(&body);
        let call = |e: &Engine| {
            if req.kind == Kind::Sweep {
                let _ = black_box(e.sweep(&spec, &values, set_mtbf));
                None
            } else {
                e.solve_spec_with_options(&spec, SteadyStateMethod::Gth, &SolveOptions::default())
                    .ok()
            }
        };
        let variants: Vec<SystemSpec> = if req.kind == Kind::Sweep {
            values
                .iter()
                .map(|&v| {
                    let mut s = spec.clone();
                    set_mtbf(&mut s, v);
                    s
                })
                .collect()
        } else {
            vec![spec.clone()]
        };
        let before = mirror.engine.cache_stats();
        let sol = call(&mirror.engine);
        if !timed {
            for v in &variants {
                v.root.walk(&mut |_, _, b| {
                    cached.insert(key(b, v));
                });
            }
            continue;
        }
        let after = mirror.engine.cache_stats();
        hits.0 += after.hits - before.hits;
        hits.1 += (after.hits + after.misses) - (before.hits + before.misses);
        let steps0 = vec_mul_steps();
        for v in &variants {
            layers::per_block(v, |b| cached.insert(key(b, v)), &mut r);
        }
        r.vec_mul_steps += vec_mul_steps() - steps0;
        r.engine += time_us(|| call(&mirror.engine)).1;
        if let Some(sol) = sol {
            let (_, us) = time_us(|| black_box(api::solution_json(&sol).to_string_compact()));
            r.encode += us;
            // Off the request path: what the CLI's text report would add.
            let (_, us) = time_us(|| black_box(report::system_report(&spec.root.name, &sol)));
            r.report += us;
        }
    }
    r.divide(n);
    let hit_ratio = if hits.1 == 0 { 0.0 } else { hits.0 as f64 / hits.1 as f64 };
    (r, hit_ratio)
}

/// The traced run: the first half of the schedule untraced, the second
/// half bracketed by `/metrics` scrapes for the daemon's dispatch time,
/// then the in-process replay, timed over the second half.
fn traced(args: &Args, bases: &[SystemSpec], daemon: Daemon) -> RunResult {
    let schedule = inputs::schedule(args.seed, args.seconds, bases);
    let half = args.seconds / 2.0;
    let k = schedule.partition_point(|r| r.due < half);
    let second: Vec<Request> =
        schedule[k..].iter().map(|r| Request { due: r.due - half, ..r.clone() }).collect();
    let untraced = load(&daemon, &schedule[..k]);
    let page0 = daemon.request("GET", "/metrics", "").map(|r| r.1).unwrap_or_default();
    let traced = load(&daemon, &second);
    let page1 = daemon.request("GET", "/metrics", "").map(|r| r.1).unwrap_or_default();
    daemon.stop();
    let mut seen = untraced.seen.clone();
    seen.extend(traced.seen.iter().map(|s| Seen { idx: s.idx + k, ..s.clone() }));
    let n = traced.latencies.len().max(1) as f64;
    // Handler time per request over the traced half; the first scrape's
    // own (sub-millisecond) handler time is spread over the requests.
    let dispatch = (dispatch_sum(&page1) - dispatch_sum(&page0)) / n;
    rascad_obs::install(Vec::new());
    let (rep, hit_ratio) = replay(bases, &schedule, &seen, k);
    rascad_obs::uninstall();
    let op_ms = stats::mean(&traced.latencies);
    let transport = op_ms - dispatch;
    let in_process_us =
        rep.parse_body + rep.from_dsl + rep.lint + rep.blocks() + rep.engine + rep.encode;
    let sheds = seen[k..].iter().filter(|s| s.status == 429).count();
    let tenth = args.seconds / 10.0;
    let scrape_mean = |keep: &dyn Fn(f64) -> bool| {
        let v: Vec<f64> = seen
            .iter()
            .filter(|s| schedule[s.idx].kind == Kind::Scrape && keep(schedule[s.idx].due))
            .map(|s| s.latency_ms)
            .collect();
        stats::mean(&v)
    };
    let (failed, wrong, causes) = check_all(args.seed, bases, &schedule, &seen);
    println!(
        "serve_mix traced: {} + {} requests; dispatch {dispatch:.4} ms/request; failed {causes:?}",
        untraced.latencies.len(),
        traced.latencies.len()
    );
    let mut m = Metrics::default();
    m.put("trace.op_us", op_ms * 1e3, "us");
    m.put(
        "trace.overhead_ms",
        stats::median(&traced.latencies) - stats::median(&untraced.latencies),
        "ms",
    );
    rep.put_core(hit_ratio, &mut m);
    ServeRows {
        parse_body_us: rep.parse_body,
        encode_us: rep.encode,
        dispatch_ms: dispatch,
        transport_ms: transport,
        shed_ratio: sheds as f64 / n,
        scrape_first_ms: scrape_mean(&|d| d < tenth),
        scrape_last_ms: scrape_mean(&|d| d >= args.seconds - tenth),
    }
    .put_rows(&mut m);
    m.put("unattributed_us", op_ms * 1e3 - transport * 1e3 - in_process_us, "us");
    let attempted = (untraced.latencies.len() + traced.latencies.len()) as u64;
    m.put("failed_ratio", failed as f64 / attempted.max(1) as f64, "ratio");
    RunResult { attempted, failed, wrong, metrics: m }
}

/// The byte-level schedule for the self-test.
pub fn fingerprint_schedule(seed: u64, seconds: f64) -> String {
    let bases = inputs::paper_bases();
    inputs::schedule(seed, seconds, &bases)
        .iter()
        .map(|r| format!("{:.9}|{}|{:?}|{}|{}\n", r.due, r.lane, r.kind, r.tenant, r.body))
        .collect()
}
