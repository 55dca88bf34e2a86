//! The serving workloads, driven over TCP against the `server` binary
//! (`--threads 1 --sessions 2`, started from the mmap snapshot).
//!
//! - `serve-param`: two closed-loop sessions, each paced to a fixed
//!   rate, drawing a template uniformly and its constant uniformly (with
//!   replacement) from the template's domain in the generated data.
//! - `serve-churn`: the server logs to a WAL at `--fsync never`. One
//!   closed-loop reader cycles the 12 paper queries; one writer runs an
//!   open-loop schedule of rounds, each `INSERT`ing a fresh batch,
//!   `DELETE`ing the batch of two rounds before, and `APPLY`ing.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use eh_srv::{respond, QueryService, ServiceConfig};
use emptyheaded::{Engine, PlannerConfig};

use crate::gen::{self, Domains, ParamRead, ParamStream, TEMPLATES};
use crate::{
    end_to_end, median, ms, peak_rss_mib, quantile, time_set_up, us, Ctx, Report, Workload,
    SETUP_REPS,
};

/// The writer's schedule on `serve-churn`: one round every this long,
/// the period of the repository's `updates` harness (`WRITE_EVERY_MS`
/// in `eh-bench`'s `src/bin/updates.rs`).
pub const WRITE_PERIOD: Duration = Duration::from_millis(50);
/// Each `serve-param` session sends its reads this far apart (300 a
/// second), or back to back when a reply comes later than that. The
/// server answers 1,200–1,500 reads a second with cold caches, so the
/// sessions keep to the schedule, and a run's read count (which sets how
/// warm the result cache gets, and so the mix of hits and misses) does
/// not depend on how fast the host happens to be during the run.
pub const PARAM_READ_PERIOD: Duration = Duration::from_micros(3_333);
/// A reply slower than this is a failed op.
const TIMEOUT: Duration = Duration::from_secs(30);

/// A blocking line-protocol connection with a read timeout.
pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Conn { reader: BufReader::new(stream) })
    }

    /// Send one request line; read one reply line, or for an `OK` reply
    /// to `QUERY` every line through `END`.
    pub fn send(&mut self, request: &str) -> std::io::Result<String> {
        self.reader.get_mut().write_all(format!("{request}\n").as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::other("server closed the connection"));
        }
        if request.starts_with("QUERY ") && reply.starts_with("OK") {
            loop {
                let mark = reply.len();
                if self.reader.read_line(&mut reply)? == 0 {
                    return Err(std::io::Error::other("reply truncated"));
                }
                if &reply[mark..] == "END\n" {
                    break;
                }
            }
        }
        Ok(reply)
    }

    /// Send `requests` (none of them `QUERY`) in one write, then read
    /// their one-line replies in order.
    pub fn pipeline(&mut self, requests: &[String]) -> std::io::Result<Vec<String>> {
        let text: String = requests.iter().map(|r| format!("{r}\n")).collect();
        self.reader.get_mut().write_all(text.as_bytes())?;
        let mut replies = Vec::with_capacity(requests.len());
        for _ in requests {
            let mut reply = String::new();
            if self.reader.read_line(&mut reply)? == 0 {
                return Err(std::io::Error::other("server closed the connection"));
            }
            replies.push(reply);
        }
        Ok(replies)
    }
}

/// A running `server` process; killed and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    pub fn spawn(bin: &Path, snapshot: &Path, wal: Option<&Path>) -> Server {
        let mut cmd = Command::new(bin);
        cmd.arg("--snapshot").arg(snapshot);
        cmd.args(["--port", "0", "--threads", "1", "--sessions", "2"]);
        if let Some(wal) = wal {
            let _ = std::fs::remove_file(wal);
            cmd.arg("--wal").arg(wal).args(["--fsync", "never"]);
        }
        let child =
            cmd.stdout(Stdio::piped()).stdin(Stdio::null()).spawn().expect("spawn the server");
        // From here on, drop kills and reaps the process on every path.
        let mut server = Server { child, addr: String::new(), drain: None };
        let mut out = BufReader::new(server.child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        loop {
            line.clear();
            assert!(out.read_line(&mut line).unwrap_or(0) > 0, "server exited before serving");
            let addr = line
                .strip_prefix("serving ")
                .and_then(|l| l.split(" on ").nth(1))
                .and_then(|r| r.split_whitespace().next());
            if let Some(addr) = addr {
                server.addr = addr.to_string();
                // Keep draining so a late print can never block the server.
                server.drain = Some(std::thread::spawn(move || {
                    let _ = std::io::copy(&mut out, &mut std::io::sink());
                }));
                return server;
            }
        }
    }

    pub fn peak_rss_mib(&self) -> f64 {
        peak_rss_mib(&self.child.id().to_string()).expect("read the server's VmHWM")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Parse `key=value` pairs of a `STATS` reply.
pub fn stat(reply: &str, key: &str) -> Option<f64> {
    reply.split_whitespace().find_map(|kv| kv.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

/// Reference answers for `serve-param`, computed before the timed phase:
/// each template is run once with its constant lifted into a projected
/// variable, and the rows are grouped by that constant.
pub struct ParamRefs {
    headers: Vec<String>,
    rows: Vec<HashMap<String, Vec<String>>>,
}

impl ParamRefs {
    pub fn build(engine: &Engine) -> ParamRefs {
        let store = engine.store();
        let mut headers = Vec::new();
        let mut rows = Vec::new();
        for t in &TEMPLATES {
            let result = engine.run_sparql(&t.lifted_line()).expect("lifted template runs");
            let last = result.columns().len() - 1;
            headers.push(result.columns()[..last].join(" "));
            let mut by: HashMap<String, Vec<String>> = HashMap::new();
            for i in 0..result.cardinality() {
                let row = result.decode_row(&store, i);
                let text: Vec<String> = row[..last].iter().map(|t| t.to_string()).collect();
                by.entry(row[last].to_string()).or_default().push(text.join("\t"));
            }
            by.values_mut().for_each(|v| v.sort_unstable());
            rows.push(by);
        }
        ParamRefs { headers, rows }
    }

    /// Whether `reply` is the right answer to `read`. A reply seen and
    /// verified before is compared byte for byte via `memo`.
    pub fn check(
        &self,
        read: ParamRead,
        domains: &Domains,
        reply: &str,
        memo: &mut HashMap<ParamRead, String>,
    ) -> bool {
        if memo.get(&read).is_some_and(|m| m == reply) {
            return true;
        }
        let constant = &domains.per_template[read.template][read.constant];
        let want = self.rows[read.template].get(constant).map_or(&[][..], Vec::as_slice);
        let mut lines = reply.lines();
        let header = format!("OK {} {}", want.len(), self.headers[read.template]);
        if lines.next() != Some(header.as_str()) || !reply.ends_with("\nEND\n") {
            return false;
        }
        let mut got: Vec<&str> = lines.collect();
        got.pop();
        got.sort_unstable();
        let ok = got.len() == want.len() && got.iter().zip(want).all(|(g, w)| *g == w);
        if ok {
            memo.insert(read, reply.to_string());
        }
        ok
    }
}

/// What one live phase measured.
#[derive(Default)]
pub struct Live {
    /// Client-observed latency of every correct read, µs.
    pub read_us: Vec<f64>,
    pub reads: u64,
    pub reads_failed: u64,
    /// Writer round trips from each round's due time, ms.
    pub apply_ms: Vec<f64>,
    /// How late the writer started each round, ms.
    pub late_ms: Vec<f64>,
    pub applies: u64,
    pub writes_failed: u64,
    pub elapsed_s: f64,
}

/// What the live phase checks answers against.
pub enum Refs<'a> {
    Param {
        refs: &'a ParamRefs,
        domains: &'a Domains,
    },
    /// Byte-exact replies to the 12 paper queries on the cold store.
    Churn {
        cold: &'a [String],
        domains: &'a Domains,
    },
}

/// The byte-exact replies of a cold in-process service to the 12 paper
/// queries: the same `respond` the server writes to the wire.
pub fn cold_replies(snapshot: &Path) -> Vec<String> {
    let config = ServiceConfig { planner: PlannerConfig::default(), ..ServiceConfig::default() };
    let service = QueryService::from_snapshot_mmap(snapshot, config).expect("load the snapshot");
    gen::paper_query_lines().iter().map(|l| respond(&service, &format!("QUERY {l}"))).collect()
}

/// One warm pass: every template (`serve-param`, first constant of each
/// domain) or every paper query (`serve-churn`), answers checked.
pub fn warm_pass(conn: &mut Conn, refs: &Refs, report: &mut Report) {
    match refs {
        Refs::Param { refs, domains } => {
            let mut memo = HashMap::new();
            for (template, t) in TEMPLATES.iter().enumerate() {
                let read = ParamRead { template, constant: 0 };
                let reply = conn.send(&format!("QUERY {}", read.line(domains)));
                if !reply.is_ok_and(|r| refs.check(read, domains, &r, &mut memo)) {
                    report.fail(format!("warm Q{} answered wrongly", t.query));
                }
            }
        }
        Refs::Churn { cold, .. } => {
            for (line, want) in gen::paper_query_lines().iter().zip(cold.iter()) {
                if !conn.send(&format!("QUERY {line}")).is_ok_and(|r| r == *want) {
                    report.fail(format!("warm read differs from the cold reply: {line}"));
                }
            }
        }
    }
}

fn param_session(
    addr: &str,
    seed: u64,
    session: u64,
    refs: &ParamRefs,
    domains: &Domains,
    start: Instant,
    deadline: Instant,
) -> Live {
    let mut live = Live::default();
    let mut memo = HashMap::new();
    let mut conn = Conn::connect(addr).ok();
    // The second session's schedule runs half a period behind the first.
    let first_due = start + PARAM_READ_PERIOD * session as u32 / 2;
    for (i, read) in ParamStream::new(seed, session, domains).enumerate() {
        let due = first_due + PARAM_READ_PERIOD * i as u32;
        if due >= deadline {
            break;
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let line = format!("QUERY {}", read.line(domains));
        live.reads += 1;
        let t = Instant::now();
        let reply = conn.as_mut().map(|c| c.send(&line));
        let took = t.elapsed();
        match reply {
            Some(Ok(r)) if refs.check(read, domains, &r, &mut memo) => live.read_us.push(us(took)),
            Some(Ok(r)) => {
                live.reads_failed += 1;
                eprintln!("wrong answer to {line}: {}", r.lines().next().unwrap_or(""));
            }
            _ => {
                live.reads_failed += 1;
                conn = Conn::connect(addr).ok();
            }
        }
    }
    live
}

fn churn_reader(addr: &str, cold: &[String], deadline: Instant) -> Live {
    let mut live = Live::default();
    let lines: Vec<String> =
        gen::paper_query_lines().iter().map(|l| format!("QUERY {l}")).collect();
    let mut conn = Conn::connect(addr).ok();
    for i in (0..lines.len()).cycle() {
        if Instant::now() >= deadline {
            break;
        }
        live.reads += 1;
        let t = Instant::now();
        let reply = conn.as_mut().map(|c| c.send(&lines[i]));
        let took = t.elapsed();
        match reply {
            Some(Ok(r)) if r == cold[i] => live.read_us.push(us(took)),
            Some(Ok(_)) => {
                live.reads_failed += 1;
                eprintln!("read {i} differs from the cold reply");
            }
            _ => {
                live.reads_failed += 1;
                conn = Conn::connect(addr).ok();
            }
        }
    }
    live
}

/// Send one writer round (inserts, then deletes, then `APPLY`) in one
/// pipelined write and check every reply: each line staged, and the
/// APPLY counting exactly what was sent.
fn write_round(conn: &mut Conn, inserts: &[String], deletes: &[String]) -> bool {
    let mut requests: Vec<String> = inserts.iter().map(|l| format!("INSERT {l}")).collect();
    requests.extend(deletes.iter().map(|l| format!("DELETE {l}")));
    requests.push("APPLY".to_string());
    let Ok(replies) = conn.pipeline(&requests) else {
        return false;
    };
    let want = format!("OK applied inserted={} deleted={} ", inserts.len(), deletes.len());
    let (apply, staged) = replies.split_last().expect("APPLY reply");
    staged.iter().all(|r| r.starts_with("OK pending")) && apply.starts_with(&want)
}

fn churn_writer(addr: &str, seed: u64, domains: &Domains, deadline: Instant) -> Live {
    let mut live = Live::default();
    let Ok(mut conn) = Conn::connect(addr) else {
        live.writes_failed += 1;
        return live;
    };
    let batch = |round: u64| gen::churn_batch(seed, round, domains);
    let start = Instant::now();
    let mut round = 0u64;
    loop {
        let due = start + WRITE_PERIOD * round as u32;
        if due >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        live.late_ms.push(ms(Instant::now() - due));
        let deletes = if round >= 2 { batch(round - 2) } else { Vec::new() };
        let ok = write_round(&mut conn, &batch(round), &deletes);
        live.apply_ms.push(ms(Instant::now() - due));
        live.applies += 1;
        if !ok {
            live.writes_failed += 1;
        }
        round += 1;
    }
    // Drain: delete what is still resident, so the store ends as it began.
    if round > 0 {
        let resident: Vec<String> = (round.saturating_sub(2)..round).flat_map(batch).collect();
        live.applies += 1;
        if !write_round(&mut conn, &[], &resident) {
            live.writes_failed += 1;
        }
    }
    live
}

/// Run the workload's sessions against `server` for `seconds`.
pub fn live(addr: &str, seed: u64, refs: &Refs, seconds: f64) -> Live {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let parts: Vec<Live> = std::thread::scope(|s| {
        let handles: Vec<_> = match *refs {
            Refs::Param { refs, domains } => (0..2)
                .map(|session| {
                    s.spawn(move || {
                        param_session(addr, seed, session, refs, domains, start, deadline)
                    })
                })
                .collect(),
            Refs::Churn { cold, domains } => vec![
                s.spawn(move || churn_reader(addr, cold, deadline)),
                s.spawn(move || churn_writer(addr, seed, domains, deadline)),
            ],
        };
        handles.into_iter().map(|h| h.join().expect("session thread")).collect()
    });
    let mut out = Live { elapsed_s: start.elapsed().as_secs_f64(), ..Live::default() };
    for p in parts {
        out.read_us.extend(p.read_us);
        out.reads += p.reads;
        out.reads_failed += p.reads_failed;
        out.apply_ms.extend(p.apply_ms);
        out.late_ms.extend(p.late_ms);
        out.applies += p.applies;
        out.writes_failed += p.writes_failed;
    }
    out
}

/// After a churn phase: `STATS` must count exactly the writer's APPLYs
/// and no no-op batch, and every paper query must still read cold.
pub fn check_churn_end(conn: &mut Conn, live: &Live, cold: &[String], report: &mut Report) {
    let stats = conn.send("STATS").unwrap_or_default();
    if stat(&stats, "updates") != Some(live.applies as f64) {
        report.fail(format!("STATS {stats} vs {} writer APPLYs", live.applies));
    }
    if stat(&stats, "updates_noop") != Some(0.0) {
        report.fail(format!("no-op APPLYs: {stats}"));
    }
    for (line, want) in gen::paper_query_lines().iter().zip(cold) {
        if !conn.send(&format!("QUERY {line}")).is_ok_and(|r| r == *want) {
            report.fail(format!("final read differs from the cold reply: {line}"));
        }
    }
}

/// Everything a serving run loads before its first server starts.
pub struct Inputs {
    pub domains: Domains,
    pub param: Option<ParamRefs>,
    pub cold: Vec<String>,
}

impl Inputs {
    pub fn load(ctx: &Ctx) -> Inputs {
        let engine = Engine::from_snapshot_mmap(&ctx.snapshot, PlannerConfig::default())
            .expect("load the snapshot");
        let domains = Domains::read(&engine);
        eprintln!("template domains: {}", domains.describe());
        let param = (ctx.workload == Workload::ServeParam).then(|| ParamRefs::build(&engine));
        let cold = if ctx.workload == Workload::ServeChurn {
            cold_replies(&ctx.snapshot)
        } else {
            Vec::new()
        };
        Inputs { domains, param, cold }
    }

    pub fn refs(&self) -> Refs<'_> {
        match &self.param {
            Some(refs) => Refs::Param { refs, domains: &self.domains },
            None => Refs::Churn { cold: &self.cold, domains: &self.domains },
        }
    }
}

/// Spawn the workload's server and run one checked warm pass: one set-up.
pub fn start(ctx: &Ctx, refs: &Refs, report: &mut Report) -> Server {
    let wal: Option<PathBuf> =
        (ctx.workload == Workload::ServeChurn).then(|| ctx.scratch.join("churn.wal"));
    let server = Server::spawn(&ctx.server, &ctx.snapshot, wal.as_deref());
    match Conn::connect(&server.addr) {
        Ok(mut conn) => warm_pass(&mut conn, refs, report),
        Err(e) => report.fail(format!("connect: {e}")),
    }
    server
}

pub fn timed(ctx: &Ctx) -> Report {
    let mut report = Report::new();
    let inputs = Inputs::load(ctx);
    let refs = inputs.refs();
    let mut setup_s = Vec::new();
    for _ in 1..SETUP_REPS / 2 {
        drop(time_set_up(&mut setup_s, || start(ctx, &refs, &mut report)));
    }
    let server = time_set_up(&mut setup_s, || start(ctx, &refs, &mut report));

    let live = live(&server.addr, ctx.seed, &refs, ctx.seconds);
    // Sampled before the end checks: their reads, which no APPLY follows,
    // would fill the result cache as the workload never does.
    let rss = server.peak_rss_mib();
    if let Refs::Churn { cold, .. } = refs {
        match Conn::connect(&server.addr) {
            Ok(mut conn) => check_churn_end(&mut conn, &live, cold, &mut report),
            Err(e) => report.fail(format!("connect: {e}")),
        }
    }
    drop(server);
    for _ in 0..SETUP_REPS / 2 {
        drop(time_set_up(&mut setup_s, || start(ctx, &refs, &mut report)));
    }

    eprintln!("set-up seconds: {setup_s:.3?}");
    report.attempted = live.reads + live.applies;
    report.failed = live.reads_failed + live.writes_failed;
    if report.failed > 0 {
        report.fail(format!("{} of {} ops failed", report.failed, report.attempted));
    }
    // One op is one client-observed read.
    let op_ms: Vec<f64> = live.read_us.iter().map(|u| u / 1e3).collect();
    eprintln!(
        "{} reads ({} failed), {} applies (apply p50 {:.2} ms p99 {:.2} ms, late p99 {:.2} ms) in {:.2} s",
        live.reads,
        live.reads_failed,
        live.applies,
        median(&live.apply_ms),
        quantile(&live.apply_ms, 0.99),
        quantile(&live.late_ms, 0.99),
        live.elapsed_s
    );
    end_to_end(&mut report, &setup_s, &op_ms, rss);
    report
}
