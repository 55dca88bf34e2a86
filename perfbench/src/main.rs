//! One seeded LUBM benchmark over three workloads:
//!
//! - `table2`: the paper's 12 queries in-process on `Engine::run_plan`,
//!   plans built and tries warmed during set-up (§IV-A4);
//! - `serve-param`: the `server` binary answering the nine paper
//!   templates that hold a constant, constants drawn from the data;
//! - `serve-churn`: the same server with a write-ahead log, one reader
//!   cycling the 12 queries beside an open-loop writer.
//!
//! ```text
//! perfbench --workload table2 --seed 1 --seconds 10 --trace 0 \
//!     --server target/release/server --work .bench_work
//! ```
//!
//! `--trace 0` times the workload untraced and reports the end-to-end
//! metrics; `--trace 1` replays it in-process with spans around every
//! layer call and reports the per-layer metrics. The last stdout line is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod gen;
mod layers;
mod serve;
mod table2;
mod trace;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use eh_lubm::generate_store;
use emptyheaded::{Engine, OptFlags};

/// Set-ups per run, of which `setup_s` is the median: on `table2` one
/// before each of as many segments of the timed phase, on `serve-*` half
/// before and half after it, so the set-ups sample the machine across
/// the run.
const SETUP_REPS: usize = 6;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table2,
    ServeParam,
    ServeChurn,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "table2" => Some(Workload::Table2),
            "serve-param" => Some(Workload::ServeParam),
            "serve-churn" => Some(Workload::ServeChurn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2 => "table2",
            Workload::ServeParam => "serve-param",
            Workload::ServeChurn => "serve-churn",
        }
    }
}

/// What every workload runner needs.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// The LUBM snapshot generated for this seed.
    pub snapshot: PathBuf,
    /// Scratch directory of this run (removed at exit).
    pub scratch: PathBuf,
    /// Where traced runs leave their spans and rollups.
    pub traces: PathBuf,
    pub server: PathBuf,
    /// `nproc`: the runtime threads of the wide engine that the
    /// `par.speedup_*` probes compare with the one-thread engine.
    pub threads: usize,
}

/// One metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The run's outcome: the contract's last stdout line.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn new() -> Report {
        Report { correct: true, ..Report::default() }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Record a failed check: the run is not correct.
    pub fn fail(&mut self, why: impl std::fmt::Display) {
        eprintln!("CHECK FAILED: {why}");
        self.correct = false;
    }

    fn print(&self) {
        for m in &self.metrics {
            println!("{:<34} {:>14.4} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "{} is not finite", m.name);
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The end-to-end metrics every untraced run reports.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("op_p95_ms", "ms"), ("peak_rss_mb", "MiB")];

/// Report [`END_TO_END`]: median set-up time, the 95th percentile of op
/// latency and the store process's peak RSS.
///
/// There is no median op latency and no reads per second: on a shared
/// host whose speed alternates, for seconds to minutes at a time, between
/// a fast and a slow state (the same `table2` pass takes about 6 ms in one
/// and 10 ms in the other), both depend on how long each state held, and
/// between runs of one build they spread 0.16–0.34 of their median. The
/// 95th percentile lies in the slow state and in each workload's costliest
/// class of ops, which every run reaches. `README.md` gives the figures.
pub fn end_to_end(report: &mut Report, setup_s: &[f64], op_ms: &[f64], rss_mib: f64) {
    let values = [median(setup_s), quantile(op_ms, 0.95), rss_mib];
    for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
        report.metric(name, value, unit);
    }
}

/// Run one set-up, pushing its wall time in seconds onto `samples`.
pub fn time_set_up<T>(samples: &mut Vec<f64>, set_up: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = set_up();
    samples.push(t0.elapsed().as_secs_f64());
    out
}

/// Linear-interpolated quantile `q` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median wall time of calls of `f`, in microseconds: at least `runs`
/// calls, and more (up to 5,000) until they add up to 50 ms, so a
/// microsecond-scale call is timed as steadily as a slow one.
pub fn median_us(runs: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < runs || (times.len() < 5_000 && start.elapsed() < Duration::from_millis(50))
    {
        let t = Instant::now();
        f();
        times.push(us(t.elapsed()));
    }
    median(&times)
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: Option<PathBuf>,
    work: Option<PathBuf>,
    /// `prepare <out>`: generate the seed's data and write its snapshot.
    prepare: Option<PathBuf>,
}

fn usage(why: &str) -> ! {
    eprintln!(
        "perfbench: {why}\nusage: perfbench --workload table2|serve-param|serve-churn --seed N \
         --seconds S --trace 0|1 --server <server binary> --work <dir>\n       \
         perfbench prepare <snapshot path> --seed N"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        server: None,
        work: None,
        prepare: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1).map(String::as_str).unwrap_or_else(|| usage("missing value"));
        match argv[i].as_str() {
            "prepare" => args.prepare = Some(PathBuf::from(value)),
            "--workload" => {
                args.workload =
                    Some(Workload::parse(value).unwrap_or_else(|| usage("unknown workload")))
            }
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    usage("--seconds must be positive");
                }
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--server" => args.server = Some(PathBuf::from(value)),
            "--work" => args.work = Some(PathBuf::from(value)),
            other => usage(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    args
}

/// Generate the seed's LUBM data and write its snapshot. Runs in a child
/// process so the generator's memory never counts toward `peak_rss_mb`.
fn prepare(out: &Path, seed: u64) {
    let t0 = Instant::now();
    let store = generate_store(&gen::data_config(seed));
    let engine = Engine::new(store, OptFlags::all());
    let (bytes, triples) = engine.save_snapshot(out).expect("write the snapshot");
    eprintln!(
        "generated LUBM({}) seed {seed}: {triples} triples, {bytes} snapshot bytes in {:.2} s",
        gen::UNIVERSITIES,
        t0.elapsed().as_secs_f64()
    );
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = parse_args();
    if let Some(out) = &args.prepare {
        prepare(out, args.seed);
        return;
    }
    let workload = args.workload.unwrap_or_else(|| usage("--workload is required"));
    let server = args.server.unwrap_or_else(|| usage("--server is required"));
    let work = args.work.unwrap_or_else(|| usage("--work is required"));
    if !server.is_file() {
        usage(&format!("no server binary at {}", server.display()));
    }
    let scratch = Scratch(work.join(format!("run-{}", std::process::id())));
    let traces = work.join("traces");
    std::fs::create_dir_all(&scratch.0).expect("create the scratch directory");
    std::fs::create_dir_all(&traces).expect("create the traces directory");

    let snapshot = scratch.0.join("lubm.snap");
    let exe = std::env::current_exe().expect("own executable path");
    let status = Command::new(exe)
        .arg("prepare")
        .arg(&snapshot)
        .args(["--seed", &args.seed.to_string()])
        .status()
        .expect("spawn the data generator");
    assert!(status.success(), "data generation failed: {status}");

    let ctx = Ctx {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        snapshot,
        scratch: scratch.0.clone(),
        traces,
        server,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    eprintln!(
        "workload {} seed {} for {} s, trace={} (nproc={})",
        workload.name(),
        ctx.seed,
        ctx.seconds,
        args.trace,
        ctx.threads
    );
    let report = match (workload, args.trace) {
        (_, true) => layers::traced(&ctx),
        (Workload::Table2, false) => table2::timed(&ctx),
        (_, false) => serve::timed(&ctx),
    };
    drop(scratch);
    report.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names a metric list in `BENCHMARK.json` declares, in order.
    fn declared(list: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find(&format!("\"{list}\"")).expect("list present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split("\"name\": \"").skip(1).map(|r| r[..r.find('"').unwrap()].to_string()).collect()
    }

    #[test]
    fn reported_metrics_match_the_benchmark_declaration() {
        let e2e: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<String> = layers::PER_LAYER.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }
}
