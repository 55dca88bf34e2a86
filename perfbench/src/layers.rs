//! The traced run: per-layer metrics, measured from outside by timing
//! calls into the public functions of each crate.
//!
//! 1. `rdf`: repeated `Engine::from_snapshot_mmap` loads.
//! 2. Probes of the 12 paper queries on the `table2` engine (one
//!    thread), the same on every workload: plan and join times, kernel
//!    dispatches, 1-thread over `nproc`-thread speedups, and EH against
//!    the RDF-3X-style and TripleBit-style baselines, whose row sets must
//!    equal the engine's.
//! 3. The workload's seeded op sequence replayed in one in-process
//!    thread, alternating traced requests (a span around every layer
//!    call) with untraced ones for the tracing overhead; on `serve-*`
//!    through a real `QueryService`, whose inner layers are then probed
//!    on a sample of the reads it could not answer from its result
//!    cache. Spans and a per-layer self-time rollup are written under
//!    the traces directory.
//! 4. On `serve-*`, a short live phase against the server for the cache
//!    hit ratios, the wire cost and the load generator's own numbers.
//!
//! A layer the workload does not exercise reports 0.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use eh_baselines::{QueryEngine, Rdf3xStyle, TripleBitStyle};
use eh_lubm::queries::QUERY_NUMBERS;
use eh_query::{canonicalize, parse_sparql, ConjunctiveQuery};
use eh_rdf::parse_ntriples;
use eh_srv::{respond, QueryService, ServiceConfig, UpdateBatch, UpdateSummary};
use emptyheaded::{Engine, FsyncPolicy, Plan, PlannerConfig};

use crate::gen::{self, Domains, ParamStream};
use crate::serve::{self, Conn, Inputs, Refs};
use crate::table2::{self, Prepared};
use crate::trace::{self, Span, Tracer};
use crate::{median, median_us, ms, quantile, us, Ctx, Report, Workload};

/// Every per-layer metric, with its unit. Each traced run reports all of
/// them; see `README.md` for which end-to-end metric each should move.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rdf.snapshot_load_ms", "ms"),
    ("rdf.snapshot_bytes_per_triple", "B"),
    ("rdf.mapped_bytes", "B"),
    ("query.parse_us", "us"),
    ("query.canon_us", "us"),
    ("planner.plan_us_p50", "us"),
    ("planner.plan_us_p99", "us"),
    ("planner.plans_per_read", "count"),
    ("planner.q2_us", "us"),
    ("planner.q4_us", "us"),
    ("planner.q8_us", "us"),
    ("planner.q9_us", "us"),
    ("catalog.warm_us_p50", "us"),
    ("catalog.warm_us_p99", "us"),
    ("join.q1_us", "us"),
    ("join.q2_us", "us"),
    ("join.q3_us", "us"),
    ("join.q4_us", "us"),
    ("join.q5_us", "us"),
    ("join.q7_us", "us"),
    ("join.q8_us", "us"),
    ("join.q9_us", "us"),
    ("join.q11_us", "us"),
    ("join.q12_us", "us"),
    ("join.q13_us", "us"),
    ("join.q14_us", "us"),
    ("join.read_us_p50", "us"),
    ("setops.word_and", "count"),
    ("setops.probe_smallest", "count"),
    ("setops.fold_merge", "count"),
    ("setops.single_iter", "count"),
    ("par.speedup_q2", "x"),
    ("par.speedup_q8", "x"),
    ("par.speedup_q9", "x"),
    ("srv.result_hit_ratio", "ratio"),
    ("srv.plan_hit_ratio", "ratio"),
    ("srv.render_us_p50", "us"),
    ("srv.render_us_p99", "us"),
    ("srv.response_bytes_p50", "B"),
    ("srv.cached_read_us", "us"),
    ("srv.wire_us_p50", "us"),
    ("update.apply_us_p50", "us"),
    ("update.apply_us_p99", "us"),
    ("update.rebuilt_tries", "count"),
    ("update.compactions", "count"),
    ("update.compaction_pause_ms", "ms"),
    ("update.staged_pairs", "count"),
    ("wal.bytes_per_batch", "B"),
    ("paper.q1_eh_over_best", "x"),
    ("paper.q2_eh_over_best", "x"),
    ("paper.q3_eh_over_best", "x"),
    ("paper.q4_eh_over_best", "x"),
    ("paper.q5_eh_over_best", "x"),
    ("paper.q7_eh_over_best", "x"),
    ("paper.q8_eh_over_best", "x"),
    ("paper.q9_eh_over_best", "x"),
    ("paper.q11_eh_over_best", "x"),
    ("paper.q12_eh_over_best", "x"),
    ("paper.q13_eh_over_best", "x"),
    ("paper.q14_eh_over_best", "x"),
    ("load.reads_sent", "count"),
    ("load.reads_failed", "count"),
    ("load.writer_late_p99_ms", "ms"),
    ("load.apply_p50_ms", "ms"),
    ("load.apply_p99_ms", "ms"),
    ("trace.overhead_ratio", "x"),
];

/// Runs per timed probe (at least; see [`median_us`]); each probe
/// reports the median.
const PROBE_RUNS: usize = 21;
const PLAN_RUNS: usize = 5;

type Values = BTreeMap<&'static str, f64>;

pub fn traced(ctx: &Ctx) -> Report {
    let mut report = Report::new();
    let mut v = Values::new();
    let replay_s = ctx.seconds / 2.0;
    rdf_layer(ctx, &mut v);
    query_probes(ctx, &mut v, &mut report);
    srv_cached_read(ctx, &mut v);
    let replay = if ctx.workload == Workload::Table2 {
        let replay = replay_table2(ctx, replay_s);
        replay.record(ctx, &mut v);
        replay
    } else {
        let inputs = Inputs::load(ctx);
        let replay = replay_serving(ctx, &inputs, replay_s);
        replay.record(ctx, &mut v);
        live_phase(ctx, &inputs, replay_s, median(&replay.untraced_us), &mut v, &mut report);
        replay
    };
    report.attempted = replay.ops;
    report.failed = replay.failed;
    if replay.failed > 0 {
        report.fail(format!("{} replayed ops answered wrongly", replay.failed));
    }
    for &(name, unit) in PER_LAYER {
        report.metric(name, v.get(name).copied().unwrap_or(0.0), unit);
    }
    report
}

fn rdf_layer(ctx: &Ctx, v: &mut Values) {
    // Load on the engine runtime the workloads use: one thread, on
    // `table2` and in the server alike.
    let config = PlannerConfig::default().with_threads(table2::ENGINE_THREADS);
    let mut load_ms = Vec::new();
    let mut last = None;
    for _ in 0..5 {
        drop(last.take());
        let t = Instant::now();
        last = Some(Engine::from_snapshot_mmap(&ctx.snapshot, config).expect("load the snapshot"));
        load_ms.push(ms(t.elapsed()));
    }
    let engine = last.expect("loaded");
    let bytes = std::fs::metadata(&ctx.snapshot).expect("snapshot metadata").len();
    let triples = engine.store().stats().triples;
    v.insert("rdf.snapshot_load_ms", median(&load_ms));
    v.insert("rdf.snapshot_bytes_per_triple", bytes as f64 / triples as f64);
    v.insert("rdf.mapped_bytes", engine.load_info().map_or(0, |l| l.mapped_bytes) as f64);
}

/// Name of a per-query metric, e.g. `join.q8_us`.
fn per_query(prefix: &str, n: u32, suffix: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|&(name, _)| name)
        .find(|name| *name == format!("{prefix}{n}{suffix}"))
        .expect("a listed per-query metric")
}

fn query_probes(ctx: &Ctx, v: &mut Values, report: &mut Report) {
    let p = table2::set_up(ctx, table2::ENGINE_THREADS);
    table2::check_against_baselines(&p, report);
    let engine = &p.engine;
    for (i, &n) in QUERY_NUMBERS.iter().enumerate() {
        let (q, plan) = &p.queries[i];
        if [2, 4, 8, 9].contains(&n) {
            v.insert(
                per_query("planner.q", n, "_us"),
                median_us(PLAN_RUNS, || {
                    std::hint::black_box(engine.plan(q).expect("plans"));
                }),
            );
        }
        v.insert(
            per_query("join.q", n, "_us"),
            median_us(PROBE_RUNS, || {
                std::hint::black_box(engine.run_plan(q, plan));
            }),
        );
    }
    // Kernel dispatches of one pass.
    let mut kernels = [0u64; 4];
    for (q, plan) in &p.queries {
        let k = engine.run_plan_profiled(q, plan).1.kernel_totals();
        for (sum, add) in
            kernels.iter_mut().zip([k.word_and, k.probe_smallest, k.fold_merge, k.single_iter])
        {
            *sum += add;
        }
    }
    for (name, k) in
        ["setops.word_and", "setops.probe_smallest", "setops.fold_merge", "setops.single_iter"]
            .into_iter()
            .zip(kernels)
    {
        v.insert(name, k as f64);
    }
    par_speedups(ctx, &p, v);
    paper_ratios(&p, v);
}

fn par_speedups(ctx: &Ctx, p: &Prepared, v: &mut Values) {
    let wide = table2::set_up(ctx, ctx.threads);
    for (i, &n) in QUERY_NUMBERS.iter().enumerate() {
        if ![2, 8, 9].contains(&n) {
            continue;
        }
        let (q, plan) = &p.queries[i];
        let one = median_us(PROBE_RUNS, || {
            std::hint::black_box(p.engine.run_plan(q, plan));
        });
        let many = median_us(PROBE_RUNS, || {
            std::hint::black_box(wide.engine.run_plan(q, plan));
        });
        v.insert(per_query("par.speedup_q", n, ""), one / many);
    }
}

fn paper_ratios(p: &Prepared, v: &mut Values) {
    let store = p.engine.store();
    let rdf3x = Rdf3xStyle::new(&store);
    let triplebit = TripleBitStyle::new(&store);
    for (i, &n) in QUERY_NUMBERS.iter().enumerate() {
        let q = &p.queries[i].0;
        let best = [&rdf3x as &dyn QueryEngine, &triplebit]
            .into_iter()
            .map(|e| {
                median_us(PROBE_RUNS, || {
                    std::hint::black_box(e.execute(q));
                })
            })
            .fold(f64::INFINITY, f64::min);
        let eh = v[per_query("join.q", n, "_us")];
        v.insert(per_query("paper.q", n, "_eh_over_best"), eh / best);
    }
}

/// `QueryService::query_sparql` answered from the result cache.
fn srv_cached_read(ctx: &Ctx, v: &mut Values) {
    let service = QueryService::from_snapshot_mmap(&ctx.snapshot, service_config(1))
        .expect("load the snapshot");
    let line = gen::paper_query_line(4);
    service.query_sparql(&line).expect("Q4 answers");
    v.insert(
        "srv.cached_read_us",
        median_us(101, || {
            std::hint::black_box(service.query_sparql(&line).expect("Q4 answers"));
        }),
    );
}

fn service_config(threads: usize) -> ServiceConfig {
    ServiceConfig {
        planner: PlannerConfig::default().with_threads(threads).with_wal_fsync(FsyncPolicy::Never),
        slow_query_ms: None,
        ..ServiceConfig::default()
    }
}

/// What a replay measured.
#[derive(Default)]
struct Replay {
    spans: Vec<Span>,
    ops: u64,
    failed: u64,
    /// Request latency of the traced and of the untraced requests, µs.
    traced_us: Vec<f64>,
    untraced_us: Vec<f64>,
    response_bytes: Vec<f64>,
    /// Plans the service built per replayed read (`serve-*`).
    plans_per_read: f64,
    /// `Engine::warm` time net of the plan it runs itself, µs.
    warm_us: Vec<f64>,
    updates: Vec<UpdateSummary>,
    staged_pairs_max: u64,
}

impl Replay {
    fn note_request(&mut self, traced: bool, us: f64) {
        if traced {
            self.traced_us.push(us);
        } else {
            self.untraced_us.push(us);
        }
    }

    fn record(&self, ctx: &Ctx, v: &mut Values) {
        let stem = format!("{}-seed{}", ctx.workload.name(), ctx.seed);
        let write = |ext: &str, text: String| {
            let path = ctx.traces.join(format!("{stem}.{ext}"));
            std::fs::write(&path, text).expect("write the trace output");
            eprintln!("wrote {}", path.display());
        };
        write("spans.jsonl", trace::spans_jsonl(&self.spans));
        write("rollup.json", trace::rollup_json(&self.spans));

        let own = trace::self_times_by_name(&self.spans);
        let us_of = |name: &str| -> Vec<f64> {
            own.get(name).map_or(Vec::new(), |ns| ns.iter().map(|&n| n as f64 / 1e3).collect())
        };
        v.insert("query.parse_us", median(&us_of("query.parse")));
        v.insert("query.canon_us", median(&us_of("query.canon")));
        let plans = us_of("planner.plan");
        v.insert("planner.plan_us_p50", median(&plans));
        v.insert("planner.plan_us_p99", quantile(&plans, 0.99));
        v.insert("planner.plans_per_read", self.plans_per_read);
        v.insert("catalog.warm_us_p50", median(&self.warm_us));
        v.insert("catalog.warm_us_p99", quantile(&self.warm_us, 0.99));
        v.insert("join.read_us_p50", median(&us_of("join.run_plan")));
        let render = us_of("srv.render");
        v.insert("srv.render_us_p50", median(&render));
        v.insert("srv.render_us_p99", quantile(&render, 0.99));
        v.insert("srv.response_bytes_p50", median(&self.response_bytes));

        let apply = us_of("update.apply");
        v.insert("update.apply_us_p50", median(&apply));
        v.insert("update.apply_us_p99", quantile(&apply, 0.99));
        let sum = |f: fn(&UpdateSummary) -> u64| self.updates.iter().map(f).sum::<u64>() as f64;
        v.insert("update.rebuilt_tries", sum(|s| s.rebuilt_tries as u64));
        v.insert("update.compactions", sum(|s| s.compacted_predicates as u64));
        v.insert(
            "update.compaction_pause_ms",
            sum(|s| s.shard_pauses.iter().map(|p| p.1).sum()) / 1e3,
        );
        v.insert("update.staged_pairs", self.staged_pairs_max as f64);
        let wal: Vec<f64> = self
            .updates
            .iter()
            .filter_map(|s| s.wal.map(|w| w.wal_bytes as f64))
            .collect::<Vec<_>>()
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect();
        v.insert("wal.bytes_per_batch", median(&wal));
        if !self.untraced_us.is_empty() {
            v.insert("trace.overhead_ratio", median(&self.traced_us) / median(&self.untraced_us));
        }
    }
}

/// Plan `q` (in a `planner.plan` span when `traced_plan`), then warm it.
/// Returns the plan and the warm's time net of the plan `Engine::warm`
/// runs itself, µs.
fn plan_then_warm(
    t: &Tracer,
    engine: &Engine,
    q: &ConjunctiveQuery,
    traced_plan: bool,
) -> (Plan, f64) {
    let t0 = Instant::now();
    let plan = if traced_plan { t.span("planner.plan", || engine.plan(q)) } else { engine.plan(q) };
    let plan_us = us(t0.elapsed());
    let t1 = Instant::now();
    t.span("catalog.warm", || engine.warm(q)).expect("warms");
    (plan.expect("plans"), (us(t1.elapsed()) - plan_us).max(0.0))
}

/// `table2` replayed: set-up (load, parse, plan, warm), then passes of
/// `run_plan`, each pass one request. Even passes are traced, odd ones
/// not, so the overhead compares requests of one engine at one time.
fn replay_table2(ctx: &Ctx, seconds: f64) -> Replay {
    let tracer = Tracer::new();
    let config = PlannerConfig::default().with_threads(table2::ENGINE_THREADS);
    let engine = tracer.request(0, "rdf.snapshot_load", || {
        Engine::from_snapshot_mmap(&ctx.snapshot, config).expect("load the snapshot")
    });
    let mut out = Replay::default();
    let queries: Vec<(ConjunctiveQuery, Plan)> = tracer.request(0, "setup", || {
        gen::paper_query_lines()
            .iter()
            .map(|line| {
                let q = tracer
                    .span("query.parse", || parse_sparql(line, &engine.store()))
                    .expect("paper query parses");
                let (plan, warm_us) = plan_then_warm(&tracer, &engine, &q, true);
                out.warm_us.push(warm_us);
                (q, plan)
            })
            .collect()
    });
    let cards: Vec<usize> =
        queries.iter().map(|(q, plan)| engine.run_plan(q, plan).cardinality()).collect();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        out.ops += 1;
        tracer.set_enabled(out.ops.is_multiple_of(2));
        let t = Instant::now();
        let ok = tracer.request(out.ops, "pass", || {
            queries.iter().zip(&cards).all(|((q, plan), &card)| {
                tracer.span("join.run_plan", || engine.run_plan(q, plan)).cardinality() == card
            })
        });
        out.note_request(tracer.enabled(), us(t.elapsed()));
        out.failed += u64::from(!ok);
    }
    out.spans = tracer.spans();
    out
}

/// One traced read through the service: `parse_sparql`, then
/// `QueryService::query` (canonicalize, result cache, plan cache, plan,
/// join, render on a miss), then the reply as `respond` frames it.
fn traced_read(t: &Tracer, service: &QueryService, line: &str) -> String {
    let Ok(q) = t.span("query.parse", || parse_sparql(line, &service.store())) else {
        return "ERR parse\n".to_string();
    };
    let Ok(answer) = t.span("srv.query", || service.query(&q)) else {
        return "ERR query\n".to_string();
    };
    t.span("srv.reply", || {
        let mut out = format!("OK {}", answer.result.cardinality());
        for col in &answer.columns {
            out.push(' ');
            out.push_str(col);
        }
        out.push('\n');
        out.push_str(answer.result.rendered_rows(&service.store()));
        out.push_str("END\n");
        out
    })
}

fn update_batch(inserts: &[String], deletes: &[String]) -> UpdateBatch {
    let triple = |l: &String| parse_ntriples(l).expect("writer lines parse").remove(0);
    let mut batch = UpdateBatch::new();
    for l in inserts {
        batch.insert(triple(l));
    }
    for l in deletes {
        batch.delete(triple(l));
    }
    batch
}

/// Writer round `round` of `serve-churn`: its fresh batch, and the batch
/// of two rounds before to delete.
fn churn_round(ctx: &Ctx, domains: &Domains, round: u64) -> (Vec<String>, Vec<String>) {
    let batch = |r: u64| gen::churn_batch(ctx.seed, r, domains);
    (batch(round), if round >= 2 { batch(round - 2) } else { Vec::new() })
}

/// A read the replayed service answered without its result cache.
struct Miss {
    line: String,
    /// Whether the service also missed its plan cache and planned.
    planned: bool,
}

/// `serve-*` replayed in one thread on a real `QueryService` (the
/// server's caches and configuration, with a WAL at `--fsync never` on
/// `serve-churn`): `serve-param` alternates the two sessions' streams,
/// one read every half `PARAM_READ_PERIOD`, as the live sessions send;
/// `serve-churn` cycles the 12 paper queries, and before each read
/// applies every writer round due by then on the live writer's
/// `WRITE_PERIOD` schedule, then drains what is resident at the end, as
/// the live writer does. Traced reads go through [`traced_read`];
/// untraced ones through `respond`, the server's own request handler.
/// Reads alternate between the two (by pass of 12 on `serve-churn`);
/// writes are always traced. The layers inside `QueryService::query`
/// are then probed on a sample of the reads that missed the result
/// cache (see [`probe_misses`]).
fn replay_serving(ctx: &Ctx, inputs: &Inputs, seconds: f64) -> Replay {
    let refs = inputs.refs();
    let domains: &Domains = &inputs.domains;
    let paper = gen::paper_query_lines();
    let mut param = ParamStream::new(ctx.seed, 0, domains)
        .zip(ParamStream::new(ctx.seed, 1, domains))
        .flat_map(|(a, b)| [a, b]);
    let churn = ctx.workload == Workload::ServeChurn;
    let mut service = QueryService::from_snapshot_mmap(&ctx.snapshot, service_config(1))
        .expect("load the snapshot");
    if churn {
        let wal = ctx.scratch.join("replay.wal");
        let _ = std::fs::remove_file(&wal);
        service.open_wal(&wal).expect("open the replay WAL");
    }
    let tracer = Tracer::new();
    let mut memo = HashMap::new();
    let mut out = Replay::default();
    let mut misses = Vec::new();
    let write = |out: &mut Replay, id: u64, inserts: &[String], deletes: &[String]| {
        tracer.set_enabled(true);
        let batch = update_batch(inserts, deletes);
        let s =
            tracer.request(id, "write", || tracer.span("update.apply", || service.update(batch)));
        out.failed += u64::from(s.inserted != inserts.len() || s.deleted != deletes.len());
        out.staged_pairs_max = out.staged_pairs_max.max(service.stats().staged_pairs);
        out.updates.push(s);
        out.ops += 1;
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut rounds = 0u64;
    let mut reads = 0u64;
    let mut id = 0u64;
    let before = service.stats();
    while Instant::now() < deadline {
        while churn && start + serve::WRITE_PERIOD * rounds as u32 <= Instant::now() {
            let (inserts, deletes) = churn_round(ctx, domains, rounds);
            id += 1;
            write(&mut out, id, &inserts, &deletes);
            rounds += 1;
        }
        let (read, k, text) = if churn {
            let k = reads as usize % paper.len();
            (None, k, paper[k].clone())
        } else {
            let due = start + serve::PARAM_READ_PERIOD * reads as u32 / 2;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let r = param.next().expect("endless stream");
            (Some(r), 0, r.line(domains))
        };
        let pass = if churn { reads / paper.len() as u64 } else { reads };
        let traced = pass.is_multiple_of(2);
        tracer.set_enabled(traced);
        let request = format!("QUERY {text}");
        let stats = service.stats();
        id += 1;
        let t = Instant::now();
        let reply = if traced {
            tracer.request(id, "request", || traced_read(&tracer, &service, &text))
        } else {
            respond(&service, &request)
        };
        out.note_request(traced, us(t.elapsed()));
        let after = service.stats();
        if after.result_misses > stats.result_misses {
            misses.push(Miss { line: text, planned: after.plan_misses > stats.plan_misses });
        }
        out.response_bytes.push(reply.len() as f64);
        let ok = match (&refs, read) {
            (Refs::Param { refs, domains }, Some(read)) => {
                refs.check(read, domains, &reply, &mut memo)
            }
            (Refs::Churn { cold, .. }, None) => reply == cold[k],
            _ => false,
        };
        out.failed += u64::from(!ok);
        out.ops += 1;
        reads += 1;
    }
    out.plans_per_read =
        (service.stats().plan_misses - before.plan_misses) as f64 / reads.max(1) as f64;
    if rounds > 0 {
        let resident: Vec<String> = (rounds.saturating_sub(2)..rounds)
            .flat_map(|r| gen::churn_batch(ctx.seed, r, domains))
            .collect();
        write(&mut out, id + 1, &[], &resident);
    }
    probe_misses(ctx, domains, rounds, &misses, &tracer, &mut out);
    out.spans = tracer.spans();
    out
}

/// Reads drawn (seeded, uniformly, with replacement) from the replay's
/// result-cache misses. Random rather than evenly spaced draws, so the
/// sample cannot alias with `serve-churn`'s 12-query cycle.
const PROBE_SAMPLE: usize = 48;
/// The seed's random stream for those draws, apart from the op streams
/// of `gen.rs` (sessions 1 and 2, writer rounds `1 << 32 | round`).
const PROBE_STREAM: u64 = 1 << 33;

/// The layers inside `QueryService::query`, probed on a sample of the
/// replay's result-cache misses. A second service over the same store
/// state (on `serve-churn`, the replay's writer rounds applied in
/// order) and with no result cache times each read's public calls in
/// turn: `parse_sparql`, `canonicalize`, `Engine::plan` (for the reads
/// the service planned), `Engine::warm` net of its own plan,
/// `Engine::run_plan`, and the service's renderer
/// (`CachedResult::rendered_rows` of a fresh `QueryService::query`
/// answer, which a result cache with no budget never renders itself).
fn probe_misses(
    ctx: &Ctx,
    domains: &Domains,
    rounds: u64,
    misses: &[Miss],
    t: &Tracer,
    out: &mut Replay,
) {
    let config = ServiceConfig { result_cache_bytes: 0, ..service_config(1) };
    let probe = QueryService::from_snapshot_mmap(&ctx.snapshot, config).expect("load the snapshot");
    for round in 0..rounds {
        let (inserts, deletes) = churn_round(ctx, domains, round);
        probe.update(update_batch(&inserts, &deletes));
    }
    t.set_enabled(true);
    let engine = probe.engine();
    let mut rng = gen::Rng::new(ctx.seed, PROBE_STREAM);
    let draws = if misses.is_empty() { 0 } else { PROBE_SAMPLE };
    for i in 0..draws {
        let miss = &misses[rng.below(misses.len())];
        t.request(u64::MAX - i as u64, "probe", || {
            let q = parse_sparql(&miss.line, &probe.store()).expect("replayed read parses");
            let query = t.span("query.canon", || canonicalize(&q)).to_query().expect("rebuilds");
            let (plan, warm_us) = plan_then_warm(t, engine, &query, miss.planned);
            out.warm_us.push(warm_us);
            t.span("join.run_plan", || engine.run_plan(&query, &plan));
            let answer = probe.query(&q).expect("replayed read answers");
            t.span("srv.render", || answer.result.rendered_rows(&probe.store()).len());
        });
    }
}

/// `serve-*` live against the server for `seconds`: cache hit ratios
/// from `STATS`, the wire cost over the in-process replay, and the load
/// generator's own numbers.
fn live_phase(
    ctx: &Ctx,
    inputs: &Inputs,
    seconds: f64,
    in_process_p50_us: f64,
    v: &mut Values,
    report: &mut Report,
) {
    let refs = inputs.refs();
    let server = serve::start(ctx, &refs, report);
    let live = serve::live(&server.addr, ctx.seed, &refs, seconds);
    let mut conn = Conn::connect(&server.addr).expect("connect to the server");
    let stats = conn.send("STATS").unwrap_or_default();
    if let Refs::Churn { cold, .. } = refs {
        serve::check_churn_end(&mut conn, &live, cold, report);
    }
    drop(server);
    if live.reads_failed + live.writes_failed > 0 {
        report.fail(format!("{} live reads failed", live.reads_failed + live.writes_failed));
    }
    let ratio = |hits: &str, misses: &str| {
        let h = serve::stat(&stats, hits).unwrap_or(0.0);
        let m = serve::stat(&stats, misses).unwrap_or(0.0);
        if h + m > 0.0 {
            h / (h + m)
        } else {
            0.0
        }
    };
    v.insert("srv.result_hit_ratio", ratio("result_hits", "result_misses"));
    v.insert("srv.plan_hit_ratio", ratio("plan_hits", "plan_misses"));
    v.insert("srv.wire_us_p50", median(&live.read_us) - in_process_p50_us);
    v.insert("load.reads_sent", live.reads as f64);
    v.insert("load.reads_failed", live.reads_failed as f64);
    v.insert("load.writer_late_p99_ms", quantile(&live.late_ms, 0.99));
    v.insert("load.apply_p50_ms", median(&live.apply_ms));
    v.insert("load.apply_p99_ms", quantile(&live.apply_ms, 0.99));
}
