//! Live updates over the wire: start a serving tier, mutate the store
//! through the line protocol, and watch answers (and caches) follow.
//!
//! ```text
//! cargo run --release --example live_updates
//! ```
//!
//! `INSERT`/`DELETE` lines stage N-Triples into the connection's batch;
//! `APPLY` commits the batch atomically as the next store version —
//! deletes first, then inserts — keeping every untouched predicate's
//! tries and advancing the version sequence (`epoch=`) that retires
//! cached plans and results.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};

use wcoj_rdf::emptyheaded::{OptFlags, PlannerConfig};
use wcoj_rdf::rdf::{parse_ntriples, TripleStore};
use wcoj_rdf::srv::{Client, QueryService, ServiceConfig};

const DATA: &str = r#"
<http://ex/alice> <http://ex/follows> <http://ex/bob> .
<http://ex/bob>   <http://ex/follows> <http://ex/carol> .
<http://ex/alice> <http://ex/follows> <http://ex/carol> .
"#;

fn main() {
    let store = TripleStore::from_triples(parse_ntriples(DATA).expect("well-formed N-Triples"));
    let service = QueryService::new(
        store,
        ServiceConfig {
            planner: PlannerConfig::with_flags(OptFlags::all()).with_threads(2),
            result_cache_bytes: 16 << 20,
            plan_cache_entries: 1024,
            server_sessions: 4,
            record_metrics: true,
            slow_query_ms: None,
        },
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let (service_ref, shutdown_ref) = (&service, &shutdown);
        scope.spawn(move || wcoj_rdf::srv::serve(service_ref, listener, shutdown_ref));

        let mut client = Client::connect(addr).expect("connect");
        let triangles = "SELECT ?x ?y ?z WHERE { \
                         ?x <http://ex/follows> ?y . \
                         ?y <http://ex/follows> ?z . \
                         ?x <http://ex/follows> ?z }";

        let before = client.query(triangles).expect("query");
        println!("before update: {}", before.lines().next().unwrap_or_default());

        // Stage a batch: close a second triangle, retract one edge of the
        // first. Nothing is visible until APPLY.
        for line in [
            "INSERT <http://ex/carol> <http://ex/follows> <http://ex/dave> .",
            "INSERT <http://ex/bob>   <http://ex/follows> <http://ex/dave> .",
            "DELETE <http://ex/alice> <http://ex/follows> <http://ex/bob> .",
        ] {
            println!("  {line}\n    -> {}", client.send(line).expect("stage").trim_end());
        }
        println!("  APPLY\n    -> {}", client.send("APPLY").expect("apply").trim_end());

        let after = client.query(triangles).expect("query");
        println!("after update:  {}", after.lines().next().unwrap_or_default());
        print!("{}", client.send("STATS").expect("stats"));

        client.send("QUIT").ok();
        drop(client);
        shutdown.store(true, Ordering::Release);
    });
    println!("server drained, bye");
}
