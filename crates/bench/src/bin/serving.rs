//! Serving-tier load generator: a Zipfian LUBM query mix fired at a real
//! TCP [`eh_srv::serve`] instance from concurrent client sessions, with
//! an optional writer session applying live updates, scraped through the
//! `METRICS` verb at the end of the run.
//!
//! Three things come out of a run:
//!
//! 1. `BENCH_serving.json` — client-observed p50/p99 latency and
//!    throughput, plus the server-side percentiles from `STATS`.
//! 2. Hard assertions that the observability surface is live: the
//!    exposition parses, query/cache/update series are non-zero, and
//!    every response stayed byte-identical to its cold reference.
//! 3. An instrumentation-overhead gate: warm cached request loops with
//!    `record_metrics` on vs off must stay within `--max-overhead`
//!    percent of each other (default 5).
//!
//! ```text
//! cargo run --release -p eh-bench --bin serving -- --quick
//! cargo run --release -p eh-bench --bin serving -- --universities 1 --sessions 8 --writer
//! ```

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use eh_bench::{BenchReport, TablePrinter};
use eh_lubm::queries::{lubm_sparql, QUERY_NUMBERS};
use eh_lubm::{generate_store, GeneratorConfig};
use eh_obs::{parse_exposition, Histogram, Sample};
use eh_par::RuntimeConfig;
use eh_rdf::TripleStore;
use eh_srv::{respond, serve, Client, QueryService, ServiceConfig};
use emptyheaded::{OptFlags, PlannerConfig};

struct Args {
    universities: u32,
    seed: u64,
    sessions: usize,
    /// Requests issued per client session.
    requests: usize,
    writer: bool,
    quick: bool,
    max_overhead_pct: f64,
}

fn usage() -> ! {
    eprintln!(
        "usage: serving [--universities N] [--seed S] [--sessions N] [--requests N] \
         [--writer] [--quick] [--max-overhead PCT]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        universities: 1,
        seed: 42,
        sessions: 4,
        requests: 400,
        writer: false,
        quick: false,
        max_overhead_pct: 5.0,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value =
            |i: usize| -> &str { argv.get(i + 1).map(|s| s.as_str()).unwrap_or_else(|| usage()) };
        match argv[i].as_str() {
            "--universities" => args.universities = value(i).parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value(i).parse().unwrap_or_else(|_| usage()),
            "--sessions" => args.sessions = value(i).parse().unwrap_or_else(|_| usage()),
            "--requests" => args.requests = value(i).parse().unwrap_or_else(|_| usage()),
            "--max-overhead" => {
                args.max_overhead_pct = value(i).parse().unwrap_or_else(|_| usage())
            }
            "--writer" => {
                args.writer = true;
                i += 1;
                continue;
            }
            "--quick" => {
                args.quick = true;
                i += 1;
                continue;
            }
            _ => usage(),
        }
        i += 2;
    }
    if args.quick {
        args.sessions = args.sessions.min(2);
        args.requests = args.requests.min(120);
        args.writer = true; // the CI run must exercise the update series too
    }
    if args.sessions == 0 || args.requests == 0 {
        usage();
    }
    args
}

/// Deterministic 64-bit LCG (same multiplier/increment as the synthetic
/// set generator in `eh_bench::synth_set`), mapped to a uniform f64 in
/// [0, 1).
fn lcg_uniform(state: &mut u64) -> f64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// Zipfian CDF over ranks 1..=n with weight 1/rank: the first queries of
/// the mix dominate, the tail still appears — a cache-friendly skew with
/// guaranteed coverage of every query over a few hundred draws.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|rank| 1.0 / rank as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn draw(cdf: &[f64], state: &mut u64) -> usize {
    let u = lcg_uniform(state);
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

fn sample_value(samples: &[Sample], name: &str) -> Option<f64> {
    samples.iter().find(|s| s.name == name).map(|s| s.value)
}

/// Strip the `OK <VERB>\n ... END\n` framing from a multi-line response.
fn frame_body(response: &str, verb: &str) -> String {
    let header = format!("OK {verb}\n");
    assert!(response.starts_with(&header), "unexpected {verb} response: {response}");
    let body = &response[header.len()..];
    let body = body.strip_suffix("END\n").expect("framed response ends with END");
    body.to_string()
}

fn field_u64(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {key}= field in: {line}"))
}

/// Warm cached QPS through `respond` with metrics recording on or off:
/// the request path is parse + plan-cache hit + result-cache hit + string
/// clone, so any instrumentation cost shows up undiluted.
fn warm_cached_qps(store: &TripleStore, mix: &[String], rounds: usize, record: bool) -> f64 {
    let service = QueryService::new(
        store.clone(),
        ServiceConfig {
            planner: PlannerConfig::with_flags(OptFlags::all()),
            result_cache_bytes: ServiceConfig::DEFAULT_RESULT_CACHE_BYTES,
            plan_cache_entries: ServiceConfig::DEFAULT_PLAN_CACHE_ENTRIES,
            server_sessions: ServiceConfig::DEFAULT_SERVER_SESSIONS,
            record_metrics: record,
            slow_query_ms: None,
        },
    );
    let requests: Vec<String> = mix.iter().map(|q| format!("QUERY {q}")).collect();
    for r in &requests {
        std::hint::black_box(respond(&service, r)); // populate both caches
    }
    let t0 = Instant::now();
    for _ in 0..rounds {
        for r in &requests {
            std::hint::black_box(respond(&service, r));
        }
    }
    (rounds * requests.len()) as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    let args = parse_args();
    let runtime = RuntimeConfig::from_env();
    let cfg = if args.quick {
        GeneratorConfig::tiny(args.universities).with_seed(args.seed)
    } else {
        GeneratorConfig::scale(args.universities).with_seed(args.seed)
    };
    eprintln!(
        "generating LUBM({}){} ...",
        args.universities,
        if args.quick { " (tiny)" } else { "" }
    );
    let store = generate_store(&cfg);
    let mix: Vec<String> =
        QUERY_NUMBERS.iter().map(|&n| lubm_sparql(n).expect("workload query")).collect();
    println!(
        "Serving load — LUBM({}) = {} triples, {} sessions x {} requests, writer={}, {} engine threads",
        args.universities,
        store.stats().triples,
        args.sessions,
        args.requests,
        args.writer,
        runtime.num_threads
    );

    let service = QueryService::new(
        store.clone(),
        ServiceConfig {
            planner: PlannerConfig::with_flags(OptFlags::all()).with_runtime(runtime),
            result_cache_bytes: ServiceConfig::DEFAULT_RESULT_CACHE_BYTES,
            plan_cache_entries: ServiceConfig::DEFAULT_PLAN_CACHE_ENTRIES,
            server_sessions: args.sessions + 2, // clients + writer + scraper
            record_metrics: true,
            slow_query_ms: None,
        },
    );

    // Cold reference answers, computed in-process before any traffic: the
    // writer only ever touches its own bench-local predicate, so every
    // served answer — cached or re-executed after an epoch bump — must
    // stay byte-identical to these.
    let reference: Vec<String> =
        mix.iter().map(|q| respond(&service, &format!("QUERY {q}"))).collect();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
    let addr = listener.local_addr().expect("bound socket has an address");
    let shutdown = AtomicBool::new(false);
    let clients_done = AtomicBool::new(false);
    let latency = Histogram::new(); // microseconds, client-observed
    let cdf = zipf_cdf(mix.len());

    let mut total = 0usize;
    let mut writer_applies = 0u64;
    let wall = std::thread::scope(|scope| {
        let (service, shutdown) = (&service, &shutdown);
        scope.spawn(move || serve(service, listener, shutdown));

        if args.writer {
            let (clients_done, writer_applies) = (&clients_done, &mut writer_applies);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("writer connects");
                let mut i = 0u64;
                while !clients_done.load(Ordering::Acquire) {
                    // Insert-then-delete on a bench-local predicate: the
                    // version advances and caches invalidate, but no LUBM
                    // answer changes. Apply `i` and `i + 1` share triple
                    // `k`, so every DELETE removes what the INSERT before
                    // it added and every APPLY changes the store.
                    let k = i / 2;
                    let triple = format!(
                        "<http://bench.local/s{k}> <http://bench.local/touched> \
                         <http://bench.local/o{k}> ."
                    );
                    let verb = if i.is_multiple_of(2) { "INSERT" } else { "DELETE" };
                    let ok = client.send(&format!("{verb} {triple}")).expect("stage op");
                    assert!(ok.starts_with("OK"), "stage failed: {ok}");
                    let applied = client.send("APPLY").expect("apply");
                    assert!(applied.starts_with("OK applied"), "apply failed: {applied}");
                    *writer_applies += 1;
                    i += 1;
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                let _ = client.send("QUIT");
            });
        }

        let t0 = Instant::now();
        std::thread::scope(|clients| {
            for s in 0..args.sessions {
                let (mix, reference, cdf, latency) = (&mix, &reference, &cdf, &latency);
                clients.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    let mut rng = args.seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(s as u64 + 1));
                    for _ in 0..args.requests {
                        let idx = draw(cdf, &mut rng);
                        let q0 = Instant::now();
                        let got =
                            client.send(&format!("QUERY {}", mix[idx])).expect("query round trip");
                        latency.record(q0.elapsed().as_micros() as u64);
                        assert_eq!(
                            got, reference[idx],
                            "served answer diverged from cold reference (query index {idx})"
                        );
                    }
                    let _ = client.send("QUIT");
                });
            }
        });
        let wall = t0.elapsed();
        total = args.sessions * args.requests;
        clients_done.store(true, Ordering::Release);

        // Scrape the observability surface over the wire before shutdown.
        let mut scraper = Client::connect(addr).expect("scraper connects");
        let stats_line = scraper.send("STATS").expect("stats");
        let metrics_body = frame_body(&scraper.send("METRICS").expect("metrics"), "METRICS");
        let _ = scraper.send("QUIT");
        shutdown.store(true, Ordering::Release);
        (wall, stats_line, metrics_body)
    });
    let (wall, stats_line, metrics_body) = wall;

    // The exposition must parse and the series the dashboards would sit
    // on must be live — this is the CI assertion surface.
    let samples = parse_exposition(&metrics_body).expect("exposition parses");
    let queries = sample_value(&samples, "eh_query_latency_us_count").unwrap_or(0.0);
    let result_hits = sample_value(&samples, "eh_result_cache_hits_total").unwrap_or(0.0);
    let result_misses = sample_value(&samples, "eh_result_cache_misses_total").unwrap_or(0.0);
    let query_requests = samples
        .iter()
        .find(|s| s.name == "eh_requests_total" && s.label("verb") == Some("query"))
        .map(|s| s.value)
        .unwrap_or(0.0);
    assert!(
        queries >= total as f64,
        "METRICS reports {queries} recorded queries, expected at least {total}"
    );
    assert!(query_requests >= total as f64, "per-verb request counter undercounts");
    assert!(result_hits > 0.0, "warm Zipfian mix must hit the result cache");
    assert!(result_misses > 0.0, "cold pass must miss the result cache");
    if args.writer {
        let applied = sample_value(&samples, "eh_updates_applied_total").unwrap_or(0.0);
        assert!(
            applied >= writer_applies as f64,
            "METRICS reports {applied} applied updates, writer performed {writer_applies}"
        );
    }

    let qps = total as f64 / wall.as_secs_f64();
    let (p50, p99) = (latency.p50(), latency.p99());
    let server_p50 = field_u64(&stats_line, "query_p50_us");
    let server_p99 = field_u64(&stats_line, "query_p99_us");
    assert!(p50 >= 1 && p99 >= p50, "client latency percentiles must be finite and ordered");
    assert!(server_p50 >= 1, "server-side percentiles must be live");

    let mut table = TablePrinter::new(&["Measure", "Value"]);
    table.row(&["requests".into(), total.to_string()]);
    table.row(&["throughput (QPS)".into(), format!("{qps:.0}")]);
    table.row(&["client p50 (us)".into(), p50.to_string()]);
    table.row(&["client p99 (us)".into(), p99.to_string()]);
    table.row(&["server p50 (us)".into(), server_p50.to_string()]);
    table.row(&["server p99 (us)".into(), server_p99.to_string()]);
    table.row(&["result-cache hit ratio".into(), {
        format!("{:.3}", result_hits / (result_hits + result_misses))
    }]);
    if args.writer {
        table.row(&["writer applies".into(), writer_applies.to_string()]);
    }
    println!("\n{}", table.render());

    // Instrumentation-overhead gate: interleaved best-of runs so one
    // scheduler hiccup cannot fail the build. The cached request path is
    // the worst case for relative overhead — nothing amortizes the
    // atomics there.
    let rounds = if args.quick { 1000 } else { 3000 };
    let mut best_off = 0f64;
    let mut best_on = 0f64;
    for _ in 0..5 {
        best_off = best_off.max(warm_cached_qps(&store, &mix, rounds, false));
        best_on = best_on.max(warm_cached_qps(&store, &mix, rounds, true));
    }
    let overhead_pct = (1.0 - best_on / best_off) * 100.0;
    println!(
        "instrumentation overhead: {overhead_pct:.2}% \
         (uninstrumented {best_off:.0} QPS, instrumented {best_on:.0} QPS, gate {:.1}%)",
        args.max_overhead_pct
    );
    assert!(
        overhead_pct <= args.max_overhead_pct,
        "instrumented warm cached throughput fell {overhead_pct:.2}% below uninstrumented \
         (gate {:.1}%)",
        args.max_overhead_pct
    );

    let mut report = BenchReport::new("serving");
    report
        .meta("universities", args.universities)
        .meta("seed", args.seed)
        .meta("sessions", args.sessions)
        .meta("quick", args.quick)
        .meta("writer", args.writer)
        .metric("requests", total as f64)
        .metric("qps", qps)
        .metric("p50_us", p50 as f64)
        .metric("p99_us", p99 as f64)
        .metric("server_p50_us", server_p50 as f64)
        .metric("server_p99_us", server_p99 as f64)
        .metric("result_hit_ratio", result_hits / (result_hits + result_misses))
        .metric("overhead_pct", overhead_pct);
    match report.write() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH json: {e}"),
    }
}
