//! `table2`: the paper's 12 LUBM queries in-process on
//! `Engine::run_plan`, one caller, a one-thread engine runtime. Plans
//! are built and tries warmed during set-up (§IV-A4); one op is one pass
//! over the 12 queries.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use eh_baselines::{QueryEngine, Rdf3xStyle, TripleBitStyle};
use eh_query::{parse_sparql, ConjunctiveQuery};
use emptyheaded::{Engine, Plan, PlannerConfig, QueryResult};

use crate::{end_to_end, gen, ms, peak_rss_mib, time_set_up, Ctx, Report, SETUP_REPS};

/// Runtime threads of the timed engine. One, not `nproc`: on a 2-vCPU
/// shared host the 2-thread runtime ran passes slower than one thread
/// (12–19 ms against 9–10 ms median) and spread 2–3 times as wide
/// between runs, so it timed the host's scheduler rather than the joins.
/// The parallel runtime is measured by the `par.speedup_*` probes.
pub const ENGINE_THREADS: usize = 1;

/// A loaded engine with the 12 queries planned and warmed.
pub struct Prepared {
    pub engine: Engine,
    pub queries: Vec<(ConjunctiveQuery, Plan)>,
    /// The first warm answer of each query.
    pub first: Vec<QueryResult>,
}

/// Load the snapshot, plan and warm the 12 queries, and run each once.
/// The time this takes is one `setup_s` sample.
pub fn set_up(ctx: &Ctx, threads: usize) -> Prepared {
    let config = PlannerConfig::default().with_threads(threads);
    let engine = Engine::from_snapshot_mmap(&ctx.snapshot, config).expect("load the snapshot");
    let queries: Vec<(ConjunctiveQuery, Plan)> = gen::paper_query_lines()
        .iter()
        .map(|line| {
            let q = parse_sparql(line, &engine.store()).expect("paper query parses");
            let plan = engine.plan(&q).expect("paper query plans");
            engine.warm(&q).expect("paper query warms");
            (q, plan)
        })
        .collect();
    let first = queries.iter().map(|(q, plan)| engine.run_plan(q, plan)).collect();
    Prepared { engine, queries, first }
}

fn rows(result: &QueryResult) -> BTreeSet<Vec<u32>> {
    result.iter().map(<[u32]>::to_vec).collect()
}

/// Check every query's row set against the RDF-3X-style and
/// TripleBit-style baselines over the same store.
pub fn check_against_baselines(p: &Prepared, report: &mut Report) {
    let store = p.engine.store();
    let rdf3x = Rdf3xStyle::new(&store);
    let triplebit = TripleBitStyle::new(&store);
    for ((q, _), first) in p.queries.iter().zip(&p.first) {
        let want = rows(first);
        for engine in [&rdf3x as &dyn QueryEngine, &triplebit] {
            let got: BTreeSet<Vec<u32>> = engine.execute(q).rows().map(<[u32]>::to_vec).collect();
            if got != want {
                report.fail(format!(
                    "{} returns {} rows where the engine returns {}",
                    engine.name(),
                    got.len(),
                    want.len()
                ));
            }
        }
    }
}

/// The timed phase runs in [`SETUP_REPS`] equal segments, each on an
/// engine set up afresh: `setup_s` then samples the host at as many
/// moments spread over the run (its speed drifts over seconds to
/// minutes), and only one engine is alive at a time, so none of the
/// set-ups adds to `peak_rss_mb`.
pub fn timed(ctx: &Ctx) -> Report {
    let mut report = Report::new();
    let mut setup_s = Vec::new();
    let mut pass_ms = Vec::new();
    let mut cards: Option<Vec<usize>> = None;
    let mut last: Option<Prepared> = None;
    let segment = Duration::from_secs_f64(ctx.seconds / SETUP_REPS as f64);
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let p = time_set_up(&mut setup_s, || set_up(ctx, ENGINE_THREADS));
        let first: Vec<usize> = p.first.iter().map(QueryResult::cardinality).collect();
        let cards = cards.get_or_insert_with(|| {
            eprintln!("cardinalities: {first:?}");
            first.clone()
        });
        if *cards != first {
            report.fail(format!("a fresh set-up answered {first:?}, the first {cards:?}"));
        }
        let deadline = Instant::now() + segment;
        while Instant::now() < deadline {
            let t = Instant::now();
            let mut ok = true;
            for ((q, plan), &card) in p.queries.iter().zip(cards.iter()) {
                ok &= std::hint::black_box(p.engine.run_plan(q, plan)).cardinality() == card;
            }
            pass_ms.push(ms(t.elapsed()));
            report.attempted += 1;
            if !ok {
                report.failed += 1;
            }
        }
        last = Some(p);
    }
    let rss = peak_rss_mib("self").expect("read own VmHWM");
    // After the RSS sample, so the baselines' indexes don't count.
    check_against_baselines(&last.expect("at least one segment"), &mut report);
    eprintln!("set-up seconds: {setup_s:.3?}");
    if report.failed > 0 {
        report.fail(format!("{} passes returned a wrong cardinality", report.failed));
    }

    eprintln!("{} passes in {:.2} s", pass_ms.len(), pass_ms.iter().sum::<f64>() / 1e3);
    end_to_end(&mut report, &setup_s, &pass_ms, rss);
    report
}
