//! `serve-distinct` and `serve-shared`: an `sdd-server` process with
//! default settings, fed closed-loop `submit`/`behavior` requests on
//! s1196 over at most `nproc` client connections.
//!
//! * `serve-distinct`: each request carries its own chip's per-site ATPG
//!   pattern set, observed at the sweep clock where that chip first
//!   fails (plus the campaign's extra steps). No two requests share a
//!   dictionary key, so every request misses the cache.
//! * `serve-shared`: one test program for every chip — a fixed merged
//!   pattern set at one fixed clock; only chips that fail it are
//!   submitted. Every request shares one dictionary key, so the cache's
//!   extend/hit path and its per-key lock do the work.
//!
//! Each workload serves a fixed pool of chips drawn from one campaign
//! stream, in an order shuffled by the run seed. A run is a series of
//! passes; each pass starts a fresh server, makes it ready, serves the
//! whole pool and shuts it down. Metrics are medians over passes, so the
//! work per pass (and with it the server's memory) is the same for every
//! version of the program.

use crate::chips::{self, Env, SpanCtx};
use crate::common::{check_rankings, cpu_ms, hit_rate_pct, peak_rss_mb, ratio, RunResult};
use crate::stats::{
    failed_pct, highest_supported_percentile, latency_percentile, median, relative_spread,
};
use crate::trace::Tracer;
use rayon::prelude::*;
use sdd_atpg::dictionary::BitMatrix;
use sdd_atpg::{PatternSet, TestPattern};
use sdd_core::diagnoser::RankedSite;
use sdd_core::inject::{tested_delay_samples_from_batch, CampaignConfig};
use sdd_core::metrics::{CampaignMetrics, MetricsReport};
use sdd_core::{ArtifactLayer, BehaviorMatrix, ErrorFunction, ObservedBehavior};
use sdd_netlist::EdgeId;
use sdd_server::{Request, Response, WireBehavior, WirePattern};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The profile every request diagnoses on.
pub const CIRCUIT: &str = "s1196";

/// Seed of the served circuit and of the campaign stream the chips are
/// drawn from. Fixed, like a real netlist and its production test.
const CAMPAIGN_SEED: u64 = 1;

/// Requests per pass (the whole pool). Enough that p90 has ten samples
/// beyond it several times over.
const POOL: usize = 250;

/// A request that takes longer than this counts as failed (timeout).
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Served requests re-diagnosed in process as an oracle, per run.
const ORACLE_SAMPLE: usize = 6;

/// Patterns in the shared test program.
const SHARED_PATTERNS: usize = 14;

/// Tested-delay quantile the shared test program is clocked at.
const SHARED_CLOCK_QUANTILE: f64 = 1.0;

/// Version of the pool generator; part of the memo file name.
const POOL_VERSION: u32 = 1;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mix {
    Distinct,
    Shared,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::Distinct => "distinct",
            Mix::Shared => "shared",
        }
    }
}

/// One generated request and its ground truth.
#[derive(Clone, Serialize, Deserialize)]
pub struct Input {
    /// Index of the injected arc.
    pub injected: u64,
    pub behavior: WireBehavior,
}

fn config() -> CampaignConfig {
    CampaignConfig::quick(CAMPAIGN_SEED)
}

fn wire(patterns: &PatternSet, behavior: &BehaviorMatrix) -> WireBehavior {
    WireBehavior {
        patterns: patterns
            .iter()
            .map(|p| WirePattern {
                v1: p.v1.clone(),
                v2: p.v2.clone(),
            })
            .collect(),
        fails: (0..behavior.num_outputs())
            .map(|i| {
                (0..behavior.num_patterns())
                    .map(|j| behavior.fails(i, j))
                    .collect()
            })
            .collect(),
        clk: behavior.clk(),
    }
}

fn request_line(tenant: &str, behavior: &WireBehavior) -> String {
    let mut r = Request::new("submit");
    r.tenant = tenant.into();
    r.circuit = CIRCUIT.into();
    r.config = Some(config());
    r.behavior = Some(behavior.clone());
    serde_json::to_string(&r).expect("request serializes")
}

fn pattern_fingerprint(patterns: &PatternSet) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for p in patterns.iter() {
        p.v1.hash(&mut h);
        p.v2.hash(&mut h);
    }
    h.finish()
}

/// Chips injected per parallel batch while generating the pool.
const CHUNK: u64 = 32;

/// The campaign's first defect draw for chip `index`.
fn defect_seed(env: &Env, index: u64) -> u64 {
    env.config.seed.wrapping_add(1 + index.wrapping_mul(131))
}

/// Generates the pool: one warm-up input followed by [`POOL`] inputs.
fn generate_pool(mix: Mix) -> Result<Vec<Input>, String> {
    let env = Env::new(CIRCUIT, config())?;
    let batch = env.tested_batch();
    let cache = sdd_core::DictionaryCache::new();
    let atpg = env.atpg();
    let library_patterns = |site: EdgeId, _ctx: SpanCtx<'_>| {
        cache.patterns_for_site(
            &env.circuit,
            &env.timing,
            site,
            &atpg,
            env.site_seed(site),
            None,
        )
    };
    let wanted = POOL + 1;
    let limit = 500 * wanted as u64;
    let mut out: Vec<Input> = Vec::with_capacity(wanted);
    match mix {
        Mix::Distinct => {
            // Chips in campaign order, keeping the first chip of every
            // (pattern set, clock) dictionary key.
            let mut keys = HashSet::new();
            let mut next = 0u64;
            while out.len() < wanted && next < limit {
                let indices: Vec<u64> = (next..next + CHUNK).collect();
                next += CHUNK;
                let chunk: Vec<Option<chips::InjectedChip>> = indices
                    .par_iter()
                    .map(|&i| {
                        let mut patterns_for = library_patterns;
                        chips::inject_chip(&env, i, &batch, SpanCtx::OFF, &mut patterns_for)
                    })
                    .collect();
                for chip in chunk.into_iter().flatten() {
                    let key = (
                        pattern_fingerprint(&chip.patterns),
                        chip.behavior.clk().to_bits(),
                    );
                    if out.len() < wanted && keys.insert(key) {
                        out.push(Input {
                            injected: chip.injected.index() as u64,
                            behavior: wire(&chip.patterns, &chip.behavior),
                        });
                    }
                }
            }
        }
        Mix::Shared => {
            // The test program: the site sets of the campaign's first
            // defects, merged in order, clocked near the top of its
            // tested-delay distribution so that chips fail it mostly
            // through their defect.
            let mut program = PatternSet::new();
            for index in 0..limit {
                if program.len() >= SHARED_PATTERNS {
                    break;
                }
                let defect = env
                    .model
                    .sample_defect(&env.circuit, defect_seed(&env, index));
                for p in library_patterns(defect.edge, SpanCtx::OFF).iter() {
                    if program.len() < SHARED_PATTERNS {
                        program.push(p.clone());
                    }
                }
            }
            let clk = tested_delay_samples_from_batch(&env.circuit, &program, &batch)
                .quantile(SHARED_CLOCK_QUANTILE);
            let mut next = 0u64;
            while out.len() < wanted && next < limit {
                let indices: Vec<u64> = (next..next + CHUNK * 8).collect();
                next += CHUNK * 8;
                let chunk: Vec<Option<Input>> = indices
                    .par_iter()
                    .map(|&index| {
                        let chip = env
                            .timing
                            .sample_instance_indexed(env.config.seed ^ 0xC41F, index);
                        let defect = env
                            .model
                            .sample_defect(&env.circuit, defect_seed(&env, index));
                        let behavior = ObservedBehavior::capture(
                            &env.circuit,
                            &program,
                            &defect.apply(&chip),
                            env.config.capture,
                        )
                        .matrix_at(clk);
                        (!behavior.all_pass()).then(|| Input {
                            injected: defect.edge.index() as u64,
                            behavior: wire(&program, &behavior),
                        })
                    })
                    .collect();
                out.extend(chunk.into_iter().flatten().take(wanted - out.len()));
            }
        }
    }
    if out.len() < wanted {
        return Err(format!(
            "only {} of {wanted} {mix:?} inputs found",
            out.len()
        ));
    }
    Ok(out)
}

/// The pool, generated once per checkout and kept under `memo_dir`:
/// it depends on nothing but the generator and the program's pure
/// functions. A missing or unreadable memo is regenerated.
fn pool(mix: Mix, memo_dir: &Path) -> Result<Vec<Input>, String> {
    let path = memo_dir.join(format!("pool-{}-v{POOL_VERSION}-{POOL}.json", mix.name()));
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(inputs) = serde_json::from_str::<Vec<Input>>(&text) {
            if inputs.len() == POOL + 1 {
                return Ok(inputs);
            }
        }
    }
    let inputs = generate_pool(mix)?;
    std::fs::create_dir_all(memo_dir).map_err(|e| format!("memo dir: {e}"))?;
    let tmp = path.with_extension("tmp");
    let json = serde_json::to_string(&inputs).expect("pool serializes");
    std::fs::write(&tmp, json)
        .and_then(|()| std::fs::rename(&tmp, &path))
        .map_err(|e| format!("writing pool memo: {e}"))?;
    Ok(inputs)
}

/// `0..n` shuffled by `seed` (Fisher–Yates over splitmix64).
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// A minimal JSON-lines connection with a read deadline.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    fn recv(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::other("server closed the connection"));
        }
        serde_json::from_str(&line).map_err(|e| io::Error::other(format!("bad response: {e}")))
    }

    fn request(&mut self, r: &Request) -> io::Result<Response> {
        self.send(&serde_json::to_string(r).expect("request serializes"))?;
        self.recv()
    }

    /// Sends one submit and collects its responses up to `done` (a
    /// `busy` or `error` response ends the stream alone).
    fn submit(&mut self, line: &str) -> io::Result<Vec<Response>> {
        self.send(line)?;
        let mut out = Vec::new();
        loop {
            let r = self.recv()?;
            match r.op.as_str() {
                "done" => return Ok(out),
                "busy" | "error" => {
                    out.push(r);
                    return Ok(out);
                }
                _ => out.push(r),
            }
        }
    }
}

/// A running `sdd-server` process; killed and reaped on drop unless it
/// already shut down.
struct ServerProc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl ServerProc {
    fn spawn(bin: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("sdd-server listening on ")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerProc {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "server did not announce its address (got {line:?})"
                ))
            }
        }
    }

    /// Graceful shutdown, then waits for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let bye = Conn::connect(&self.addr)
            .and_then(|mut c| c.request(&Request::new("shutdown")))
            .map_err(|e| format!("shutdown: {e}"))?;
        if bye.op != "bye" {
            return Err(format!("shutdown answered {:?}", bye.op));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("server did not exit after shutdown".into()),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Starts a server and makes it ready: `pong` plus one warm-up request
/// outside the timed pool. Returns the server and the time to ready.
fn start_ready(bin: &Path, warmup: &str) -> Result<(ServerProc, f64), String> {
    let start = Instant::now();
    let server = ServerProc::spawn(bin)?;
    let mut conn = Conn::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
    let pong = conn
        .request(&Request::new("ping"))
        .map_err(|e| format!("ping: {e}"))?;
    if pong.op != "pong" {
        return Err(format!("ping answered {:?}", pong.op));
    }
    let warm = conn.submit(warmup).map_err(|e| format!("warm-up: {e}"))?;
    if warm.len() != 1 || warm[0].op != "outcome" {
        let ops: Vec<&String> = warm.iter().map(|r| &r.op).collect();
        return Err(format!("warm-up request answered {ops:?}"));
    }
    Ok((server, start.elapsed().as_secs_f64()))
}

/// One request as the client saw it.
struct Done {
    /// Pool index of the input.
    index: usize,
    start: Instant,
    end: Instant,
    /// `Ok(rankings)` (empty for an undiagnosable behaviour) or the
    /// failure kind.
    result: Result<Vec<Vec<RankedSite>>, String>,
}

impl Done {
    fn ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

fn client_count() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

fn tenant(client: usize) -> String {
    format!("perfbench-{client}")
}

/// Closed loop: each client sends its next request when the previous one
/// is answered, taking pool indices in `order` until all are served.
/// Returns the requests (sorted by pool index) and the load's wall time.
fn drive(addr: &str, lines: &[Vec<String>], order: &[usize]) -> (Vec<Done>, f64) {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for lines in lines {
            let (next, done) = (&next, &done);
            s.spawn(move || {
                let mut conn: Option<Conn> = None;
                let mut mine = Vec::new();
                while let Some(&index) = order.get(next.fetch_add(1, Ordering::SeqCst)) {
                    if conn.is_none() {
                        conn = Conn::connect(addr).ok();
                    }
                    let t0 = Instant::now();
                    let result = match conn.as_mut() {
                        None => Err("transport: connect failed".to_string()),
                        Some(c) => c.submit(&lines[index]).map(classify).unwrap_or_else(|e| {
                            conn = None;
                            Err(format!("transport: {e}"))
                        }),
                    };
                    mine.push(Done {
                        index,
                        start: t0,
                        end: Instant::now(),
                        result,
                    });
                }
                done.lock().expect("results").extend(mine);
            });
        }
    });
    let mut done = done.into_inner().expect("results");
    done.sort_by_key(|d| d.index);
    (done, start.elapsed().as_secs_f64())
}

fn classify(responses: Vec<Response>) -> Result<Vec<Vec<RankedSite>>, String> {
    match responses.as_slice() {
        [r] if r.op == "outcome" => {
            let names: Vec<&str> = ErrorFunction::EXTENDED.iter().map(|f| f.name()).collect();
            if r.detected && r.functions != names {
                return Err(format!("outcome names functions {:?}", r.functions));
            }
            Ok(r.rankings.clone())
        }
        [r] => Err(format!("{}: {}", r.op, r.error)),
        other => Err(format!("{} responses to one submit", other.len())),
    }
}

/// The in-process answer for one wire behaviour: a fresh layer and a
/// default session, `diagnose_behavior` on the same inputs.
fn oracle(env: &Env, behavior: &WireBehavior) -> Result<Vec<Vec<RankedSite>>, String> {
    let mut patterns = PatternSet::new();
    for p in &behavior.patterns {
        patterns.push(TestPattern::new(p.v1.clone(), p.v2.clone()));
    }
    let mut bits = BitMatrix::zeros(behavior.fails.len(), patterns.len());
    for (i, row) in behavior.fails.iter().enumerate() {
        for (j, &f) in row.iter().enumerate() {
            bits.set(i, j, f);
        }
    }
    let b = BehaviorMatrix::from_bits(bits, behavior.clk);
    match ArtifactLayer::new().session("oracle").diagnose_behavior(
        &env.circuit,
        &env.timing,
        &patterns,
        &env.model.size_dist(),
        &b,
    ) {
        Ok(r) => Ok(r),
        Err(sdd_core::DiagnosisError::NoSuspects) => Ok(Vec::new()),
        Err(e) => Err(e.to_string()),
    }
}

/// Every tenant's metrics report, and how many fail `validate()`.
fn tenant_reports(addr: &str, clients: usize) -> Result<(Vec<MetricsReport>, usize), String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("metrics connect: {e}"))?;
    let mut reports = Vec::new();
    let mut invalid = 0;
    for c in 0..clients {
        let mut r = Request::new("metrics");
        r.tenant = tenant(c);
        let resp = conn.request(&r).map_err(|e| format!("metrics: {e}"))?;
        if let Some(report) = resp.metrics {
            invalid += report.validate().is_err() as usize;
            reports.push(report);
        }
    }
    Ok((reports, invalid))
}

/// The pool and its request lines, one copy per client tenant.
struct Prepared {
    pool: Vec<Input>,
    warmup: String,
    lines: Vec<Vec<String>>,
    order: Vec<usize>,
}

fn prepare(mix: Mix, seed: u64, memo_dir: &Path) -> Result<Prepared, String> {
    let mut pool = pool(mix, memo_dir)?;
    let warmup = request_line("perfbench-warmup", &pool.remove(0).behavior);
    let lines = (0..client_count())
        .map(|c| {
            pool.iter()
                .map(|i| request_line(&tenant(c), &i.behavior))
                .collect()
        })
        .collect();
    Ok(Prepared {
        order: shuffled(pool.len(), seed),
        pool,
        warmup,
        lines,
    })
}

/// One pass: a fresh server made ready, the whole pool served, the
/// tenants' reports fetched, the server shut down.
struct Pass {
    setup_s: f64,
    done: Vec<Done>,
    wall: f64,
    cpu_ms_per_op: f64,
    rss_mb: f64,
    reports: Vec<MetricsReport>,
    invalid: usize,
}

impl Pass {
    fn completed_ms(&self) -> Vec<f64> {
        self.done
            .iter()
            .filter(|d| d.result.is_ok())
            .map(Done::ms)
            .collect()
    }

    fn failed(&self) -> usize {
        self.done.iter().filter(|d| d.result.is_err()).count()
    }

    fn rps(&self) -> f64 {
        (self.done.len() - self.failed()) as f64 / self.wall
    }

    /// A latency percentile with failed requests counted as missing it;
    /// a missed percentile reads as the request timeout.
    fn latency(&self, pct: f64) -> f64 {
        latency_percentile(&self.completed_ms(), self.failed(), pct)
            .unwrap_or(REQUEST_TIMEOUT.as_secs_f64() * 1e3)
    }
}

fn pass(bin: &Path, prep: &Prepared) -> Result<Pass, String> {
    let (server, setup_s) = start_ready(bin, &prep.warmup)?;
    let pid = server.child.id();
    let cpu0 = cpu_ms(pid).unwrap_or(0.0);
    let (done, wall) = drive(&server.addr, &prep.lines, &prep.order);
    let cpu = cpu_ms(pid).unwrap_or(0.0) - cpu0;
    let (reports, invalid) = tenant_reports(&server.addr, prep.lines.len())?;
    let rss_mb = peak_rss_mb(pid).unwrap_or(0.0);
    server.shutdown()?;
    let completed = done.iter().filter(|d| d.result.is_ok()).count();
    Ok(Pass {
        setup_s,
        cpu_ms_per_op: cpu / completed.max(1) as f64,
        done,
        wall,
        rss_mb,
        reports,
        invalid,
    })
}

fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>()).expect("at least one pass")
}

pub fn run(
    mix: Mix,
    seed: u64,
    seconds: f64,
    bin: &Path,
    memo_dir: &Path,
) -> Result<RunResult, String> {
    let prep = prepare(mix, seed, memo_dir)?;
    let mut out = RunResult::default();
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    // Passes run back to back while the next one is expected to end
    // inside the window; at least two, so every figure is a median.
    loop {
        let t = Instant::now();
        passes.push(pass(bin, &prep)?);
        let typical = t.elapsed().as_secs_f64();
        if passes.len() >= 2 && start.elapsed().as_secs_f64() + typical > seconds {
            break;
        }
    }
    for p in &passes {
        out.attempted += p.done.len() as u64;
        out.failed += p.failed() as u64;
    }
    out.set("campaign_chips_per_s", median_of(&passes, Pass::rps));
    out.set("serve_rps", median_of(&passes, Pass::rps));
    out.set("request_p50_ms", median_of(&passes, |p| p.latency(50.0)));
    out.set("request_p90_ms", median_of(&passes, |p| p.latency(90.0)));
    out.set("setup_s", median_of(&passes, |p| p.setup_s));
    out.set("peak_rss_mb", median_of(&passes, |p| p.rss_mb));
    out.set("cpu_ms_per_op", median_of(&passes, |p| p.cpu_ms_per_op));
    out.note(format!(
        "{} pass(es) of {} requests over {} client(s); req/s {:?}; set-ups {:?} s",
        passes.len(),
        prep.pool.len(),
        prep.lines.len(),
        passes
            .iter()
            .map(|p| (p.rps() * 10.0).round() / 10.0)
            .collect::<Vec<_>>(),
        passes
            .iter()
            .map(|p| (p.setup_s * 1e4).round() / 1e4)
            .collect::<Vec<_>>(),
    ));
    let rps: Vec<f64> = passes.iter().map(Pass::rps).collect();
    out.note(format!(
        "req/s spread across passes (IQR/median): {:?}; highest percentile with ten \
         samples beyond it per pass: p{:?}",
        relative_spread(&rps),
        highest_supported_percentile(prep.pool.len())
    ));
    let invalid: usize = passes.iter().map(|p| p.invalid).sum();
    let reports: usize = passes.iter().map(|p| p.reports.len()).sum();
    out.note(format!(
        "server.metrics_invalid: {invalid} of {reports} tenant report(s) fail validate()"
    ));
    check_outputs(&prep, &passes, &mut out)?;
    Ok(out)
}

/// Output checks over every pass, and the hit rate over the pool.
fn check_outputs(prep: &Prepared, passes: &[Pass], out: &mut RunResult) -> Result<(), String> {
    let first = &passes[0];
    for p in passes {
        let errors = p
            .done
            .iter()
            .filter_map(|d| Some((d.index, d.result.as_ref().err()?)));
        for (index, error) in errors.take(3) {
            out.note(format!("request {index} failed: {error}"));
        }
        for (d, d0) in p.done.iter().zip(&first.done) {
            if let (Ok(r), Ok(r0)) = (&d.result, &d0.result) {
                if r != r0 {
                    out.fail_check(format!(
                        "request {}: rankings differ between passes",
                        d.index
                    ));
                }
            }
        }
    }
    for d in &first.done {
        if let Ok(r) = &d.result {
            if let Err(e) = check_rankings(r) {
                out.fail_check(format!("request {}: {e}", d.index));
            }
        }
    }
    // A failed request counts as a miss; with no failures the figure is
    // fixed by the pool.
    let outcomes: Vec<(EdgeId, &[Vec<RankedSite>])> = first
        .done
        .iter()
        .map(|d| {
            let edge = EdgeId::from_index(prep.pool[d.index].injected as usize);
            (edge, d.result.as_deref().unwrap_or(&[]))
        })
        .collect();
    out.set(
        "hit_rate_pct",
        hit_rate_pct(&outcomes, &sdd_bench::table1_k_values(CIRCUIT)),
    );
    let completed: Vec<&Done> = first.done.iter().filter(|d| d.result.is_ok()).collect();
    if completed.is_empty() {
        return Ok(());
    }
    let env = Env::new(CIRCUIT, config())?;
    let step = (completed.len() / ORACLE_SAMPLE).max(1);
    for d in completed.iter().step_by(step).take(ORACLE_SAMPLE) {
        let served = d.result.as_ref().expect("completed");
        match oracle(&env, &prep.pool[d.index].behavior) {
            Ok(expected) if &expected == served => {}
            Ok(_) => out.fail_check(format!(
                "request {}: served rankings differ from in-process diagnose_behavior",
                d.index
            )),
            Err(e) => out.fail_check(format!(
                "request {}: in-process oracle failed: {e}",
                d.index
            )),
        }
    }
    Ok(())
}

/// The traced run: one untraced pass and one traced pass, each on a
/// fresh server, plus spans around the circuit environment every submit
/// rebuilds. Layer figures come from the traced pass: its request spans
/// and the tenants' own metrics reports.
pub fn run_traced(
    mix: Mix,
    seed: u64,
    bin: &Path,
    memo_dir: &Path,
    tracer: &Tracer,
) -> Result<RunResult, String> {
    let prep = prepare(mix, seed, memo_dir)?;
    let mut out = RunResult::default();
    chips::trace_env_build(tracer, CIRCUIT, &config())?;
    let untraced = pass(bin, &prep)?;
    let traced = tracer.span("server.pass", None, 0, |_| pass(bin, &prep))?;
    for d in &traced.done {
        tracer.record("server.request", d.start, d.end, d.index as u64);
    }
    out.attempted = traced.done.len() as u64;
    out.failed = traced.failed() as u64;
    check_outputs(&prep, std::slice::from_ref(&traced), &mut out)?;
    out.metrics.remove("hit_rate_pct");

    let mut c = CampaignMetrics::default();
    let mut suspects = 0u64;
    for r in &traced.reports {
        let m = &r.counters;
        c.dictionary_nanos += m.dictionary_nanos;
        c.rank_nanos += m.rank_nanos;
        c.cone_evals += m.cone_evals;
        c.samples_simulated += m.samples_simulated;
        c.dict_cache_hits += m.dict_cache_hits;
        c.dict_cache_misses += m.dict_cache_misses;
        c.session_latency.merge(&m.session_latency);
        suspects += r.traces.iter().map(|t| t.n_suspects).sum::<u64>();
    }
    let ops = c.session_latency.count().max(1) as f64;
    let ok_ms = traced.completed_ms();
    let client_mean = ok_ms.iter().sum::<f64>() / ok_ms.len().max(1) as f64;
    let session_ms = c.session_latency.sum() as f64 / 1e6 / ops;
    let busy = traced
        .done
        .iter()
        .filter(|d| matches!(&d.result, Err(e) if e.starts_with("busy")))
        .count();
    let (rps_u, rps_t) = (untraced.rps(), traced.rps());
    out.set("netlist.generate_ms", tracer.median_ms("netlist.generate"));
    out.set(
        "timing.characterize_ms",
        tracer.median_ms("timing.characterize"),
    );
    out.set("dictionary.build_ms", c.dictionary_nanos as f64 / 1e6 / ops);
    out.set("dictionary.suspects_per_op", suspects as f64 / ops);
    out.set("dictionary.cone_evals_per_op", c.cone_evals as f64 / ops);
    out.set(
        "dictionary.samples_per_op",
        c.samples_simulated as f64 / ops,
    );
    out.set(
        "dictionary.cache_hit_ratio",
        ratio(c.dict_cache_hits, c.dict_cache_hits + c.dict_cache_misses),
    );
    out.set("rank.ms", c.rank_nanos as f64 / 1e6 / ops);
    out.set("server.session_ms", session_ms);
    out.set("server.overhead_ms", client_mean - session_ms);
    out.set(
        "server.busy_pct",
        failed_pct(traced.done.len() as u64, busy as u64),
    );
    out.set("server.metrics_invalid", traced.invalid as f64);
    out.set("trace.serve_rps_untraced", rps_u);
    out.set("trace.serve_rps_traced", rps_t);
    out.set("trace.overhead_pct", 100.0 * (rps_u - rps_t) / rps_u);
    out.note(format!(
        "untraced pass {rps_u:.2} req/s, traced pass {rps_t:.2} req/s; \
         {} of {} tenant report(s) fail validate()",
        traced.invalid,
        traced.reports.len()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::samples_beyond;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(50, 7);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(a, shuffled(50, 7));
        assert_ne!(a, shuffled(50, 8));
    }

    #[test]
    fn a_pass_supports_p90_with_ten_beyond() {
        assert!(samples_beyond(POOL, 90.0) >= 10);
    }
}
