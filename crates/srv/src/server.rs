//! The line-delimited TCP front end and its client.
//!
//! ## Protocol
//!
//! Requests are single lines (`\n`-terminated; SPARQL must be flattened
//! to one line — any whitespace works for the parser):
//!
//! | Request | Response |
//! |---|---|
//! | `QUERY <sparql>` | `OK <rows> <col> <col> ...` then one tab-separated N-Triples-encoded line per row, then `END` |
//! | `PROFILE <sparql>` | `OK PROFILE` then the `EXPLAIN ANALYZE` text (plan + measured execution profile), then `END` |
//! | `METRICS` | `OK METRICS` then the Prometheus text-format exposition, then `END` |
//! | `INSERT <s> <p> <o> .` | `OK pending inserts=<n> deletes=<n>` (staged, N-Triples term syntax) |
//! | `DELETE <s> <p> <o> .` | `OK pending inserts=<n> deletes=<n>` (staged) |
//! | `APPLY` | `OK applied inserted=<n> deleted=<n> predicates=<n> compacted=<n> epoch=<n>` (staged batch applied atomically) |
//! | `COMPACT` | `OK compacted predicates=<n> rebuilt=<n> epoch=<n>` (staged deltas folded into fresh base tables) |
//! | `STATS` | `OK plan_hits=<n> plan_misses=<n> result_hits=<n> result_misses=<n> plan_entries=<n> cache_entries=<n> cache_bytes=<n> epoch=<n> updates=<n> updates_noop=<n> inserted=<n> deleted=<n> staged=<n> query_p50_us=<n> query_p99_us=<n> partitions=<n> max_shard_skew=<x.xx> load_mode=<mmap\|copy> mapped_bytes=<n> wal_seq=<n> wal_bytes=<n> wal_fsync_mode=<always\|never\|interval:<ms>\|off>` |
//! | `INVALIDATE` | `OK epoch=<n>` (caches and cached tries dropped, version sequence advanced) |
//! | `SAVE <path>` | `OK saved bytes=<n> triples=<n>` (snapshot written server-side; restart with `--snapshot <path>`; with a WAL attached, also truncates the log down to the new image) |
//! | `REPLAY <path>` | `OK replayed records=<n> inserted=<n> deleted=<n> epoch=<n>` (a WAL file on the server's filesystem replayed through the update path — replica catch-up) |
//! | `QUIT` | `OK bye`, then the connection closes |
//! | anything else | `ERR <message>` (single line; the connection stays open) |
//!
//! `PROFILE` executes the query with full instrumentation (bypassing the
//! result cache — the point is to measure a real run) and renders the
//! plan annotated with per-depth kernel choices, candidate counts, and
//! wall times; timing lines are `~`-prefixed, the rest is deterministic.
//! `METRICS` dumps every service metric (latency histograms, per-verb
//! request counters, cache hit/miss counters, occupancy gauges) in
//! Prometheus text format, `END`-framed like a query response.
//!
//! `SAVE` writes to — and `REPLAY` reads from — a path on the
//! **server's** filesystem: they are operator verbs for the trusted
//! deployments this line protocol serves, not something to expose to
//! untrusted internet traffic.
//!
//! When the server was started with `--wal <path>`, every applied batch
//! is appended to the write-ahead log (fsynced per `--fsync`) *before*
//! it stages, `STATS` reports `wal_seq=`/`wal_bytes=`/`wal_fsync_mode=`,
//! and a restart with the same `--wal` replays the tail since the last
//! `SAVE` — no acknowledged batch is lost.
//!
//! Updates are **batched per connection**: `INSERT`/`DELETE` lines stage
//! triples into the session's pending batch and nothing changes until
//! `APPLY`, which applies the whole batch atomically (deletes first, then
//! inserts — SPARQL Update convention) and reports what actually changed.
//! A connection that drops (or `QUIT`s) with a pending batch discards it.
//! The applied counts reflect real change: inserting a resident triple or
//! deleting an absent one counts zero and a fully no-op batch does not
//! advance the epoch.
//!
//! `epoch=` in every reply is the sequence number of the newest committed
//! store version: 0 at load, +1 per batch that changed something, per
//! `COMPACT` that folded something, and per `INVALIDATE`. Each query runs
//! entirely on one version, and cached answers are keyed by it.
//!
//! An applied batch stages its triples into per-predicate delta overlays
//! (cost proportional to the batch, not the predicate); `compacted=` in
//! the reply counts predicates whose overlays crossed the compaction
//! threshold and were folded inline. `COMPACT` folds everything staged on
//! demand — `STATS`' `staged=` gauge shows how many delta pairs are
//! resident and therefore what a `COMPACT` would reclaim.
//!
//! Responses are deterministic bytes: a `QUERY` answer is a pure function
//! of the store contents and the query text, whether it came from cache
//! or from a fresh (sequential or parallel) execution — tests assert this
//! byte-for-byte.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use eh_par::WorkQueue;
use eh_rdf::parse_ntriples;
use emptyheaded::UpdateBatch;

use crate::service::QueryService;

/// Per-connection protocol state: the update batch staged by
/// `INSERT`/`DELETE` lines, waiting for `APPLY`.
#[derive(Debug, Default)]
pub struct Session {
    pending: UpdateBatch,
}

impl Session {
    /// A fresh session with nothing staged.
    pub fn new() -> Session {
        Session::default()
    }

    /// Triples currently staged (inserts + deletes).
    pub fn pending_ops(&self) -> usize {
        self.pending.len()
    }
}

/// Compute the full response (including trailing newline) for one request
/// line of a *stateful* session. This is the protocol's single source of
/// truth: the TCP server writes exactly these bytes, and tests can call
/// it directly to obtain reference responses without a socket.
pub fn respond_in_session(service: &QueryService, session: &mut Session, line: &str) -> String {
    let line = line.trim();
    let (cmd, rest) = match line.split_once(char::is_whitespace) {
        Some((cmd, rest)) => (cmd, rest.trim()),
        None => (line, ""),
    };
    let verb = cmd.to_ascii_uppercase();
    if service.metrics_on() {
        const VERBS: &[&str] = &[
            "QUERY",
            "PROFILE",
            "METRICS",
            "INSERT",
            "DELETE",
            "APPLY",
            "COMPACT",
            "STATS",
            "INVALIDATE",
            "SAVE",
            "REPLAY",
            "QUIT",
        ];
        let label = if VERBS.contains(&verb.as_str()) {
            verb.to_ascii_lowercase()
        } else {
            "other".to_string()
        };
        service.metrics().note_request(&label);
    }
    match verb.as_str() {
        "QUERY" if !rest.is_empty() => match service.query_sparql(rest) {
            Ok(answer) => {
                let mut out = String::new();
                out.push_str(&format!("OK {}", answer.result.cardinality()));
                for col in &answer.columns {
                    out.push(' ');
                    out.push_str(col);
                }
                out.push('\n');
                // Row text is rendered once per cached result and reused
                // by every subsequent hit (see CachedResult).
                out.push_str(answer.result.rendered_rows(&service.store()));
                out.push_str("END\n");
                out
            }
            Err(e) => format!("ERR {}\n", e.to_string().replace(['\n', '\r'], " ")),
        },
        "QUERY" => "ERR QUERY needs a SPARQL string on the same line\n".to_string(),
        "PROFILE" if !rest.is_empty() => match service.profile_sparql(rest) {
            Ok(report) => {
                let mut out = String::from("OK PROFILE\n");
                out.push_str(&report);
                if !out.ends_with('\n') {
                    out.push('\n');
                }
                out.push_str("END\n");
                out
            }
            Err(e) => format!("ERR {}\n", e.to_string().replace(['\n', '\r'], " ")),
        },
        "PROFILE" => "ERR PROFILE needs a SPARQL string on the same line\n".to_string(),
        "METRICS" => {
            let mut out = String::from("OK METRICS\n");
            out.push_str(&service.metrics_text());
            out.push_str("END\n");
            out
        }
        verb @ ("INSERT" | "DELETE") if !rest.is_empty() => match parse_ntriples(rest) {
            Ok(mut triples) if triples.len() == 1 => {
                let t = triples.pop().expect("length checked");
                if verb == "INSERT" {
                    session.pending.insert(t);
                } else {
                    session.pending.delete(t);
                }
                format!(
                    "OK pending inserts={} deletes={}\n",
                    session.pending.inserts.len(),
                    session.pending.deletes.len()
                )
            }
            Ok(_) => format!("ERR {verb} stages exactly one triple per line\n"),
            Err(e) => format!("ERR {}\n", e.to_string().replace(['\n', '\r'], " ")),
        },
        "INSERT" => "ERR INSERT needs an N-Triples triple on the same line\n".to_string(),
        "DELETE" => "ERR DELETE needs an N-Triples triple on the same line\n".to_string(),
        "APPLY" => {
            let batch = std::mem::take(&mut session.pending);
            let s = service.update(batch);
            format!(
                "OK applied inserted={} deleted={} predicates={} compacted={} epoch={}\n",
                s.inserted, s.deleted, s.changed_predicates, s.compacted_predicates, s.epoch
            )
        }
        "COMPACT" => {
            let s = service.compact();
            format!(
                "OK compacted predicates={} rebuilt={} epoch={}\n",
                s.compacted_predicates, s.rebuilt_tries, s.epoch
            )
        }
        "STATS" => {
            let s = service.stats();
            format!(
                "OK plan_hits={} plan_misses={} result_hits={} result_misses={} \
                 plan_entries={} cache_entries={} cache_bytes={} epoch={} \
                 updates={} updates_noop={} inserted={} deleted={} staged={} \
                 query_p50_us={} query_p99_us={} partitions={} max_shard_skew={:.2} \
                 load_mode={} mapped_bytes={} wal_seq={} wal_bytes={} wal_fsync_mode={}\n",
                s.plan_hits,
                s.plan_misses,
                s.result_hits,
                s.result_misses,
                s.plan_cache_entries,
                s.result_cache_entries,
                s.result_cache_bytes,
                s.epoch,
                s.updates_applied,
                s.updates_noop,
                s.triples_inserted,
                s.triples_deleted,
                s.staged_pairs,
                s.query_p50_us,
                s.query_p99_us,
                s.partitions,
                s.max_shard_skew,
                s.load_mode,
                s.mapped_bytes,
                s.wal_seq,
                s.wal_bytes,
                s.wal_fsync.map_or("off".to_string(), |p| p.to_string())
            )
        }
        "INVALIDATE" => format!("OK epoch={}\n", service.invalidate()),
        "SAVE" if !rest.is_empty() => match service.save_snapshot(rest) {
            // The count comes from the saved image itself, so the reply
            // can't disagree with the file when an APPLY lands mid-save.
            Ok((bytes, triples)) => format!("OK saved bytes={bytes} triples={triples}\n"),
            Err(e) => format!("ERR {}\n", e.to_string().replace(['\n', '\r'], " ")),
        },
        "SAVE" => "ERR SAVE needs a file path on the same line\n".to_string(),
        "REPLAY" if !rest.is_empty() => match service.replay(rest) {
            Ok(r) => format!(
                "OK replayed records={} inserted={} deleted={} epoch={}\n",
                r.replayed,
                r.inserted,
                r.deleted,
                service.engine().catalog().seq()
            ),
            Err(e) => format!("ERR {}\n", e.to_string().replace(['\n', '\r'], " ")),
        },
        "REPLAY" => "ERR REPLAY needs a wal file path on the same line\n".to_string(),
        "QUIT" => "OK bye\n".to_string(),
        "" => "ERR empty request\n".to_string(),
        other => format!(
            "ERR unknown command '{other}' \
             (try QUERY/PROFILE/METRICS/INSERT/DELETE/APPLY/COMPACT/STATS/INVALIDATE/SAVE/REPLAY/QUIT)\n"
        ),
    }
}

/// Stateless convenience for read-only traffic (`QUERY`/`STATS`/...):
/// each call gets a throwaway [`Session`]. The update verbs need state
/// that survives across lines, so here they answer `ERR` instead of
/// silently staging into a batch nobody can ever `APPLY`.
pub fn respond(service: &QueryService, line: &str) -> String {
    let verb = line.split_whitespace().next().unwrap_or("").to_ascii_uppercase();
    if matches!(verb.as_str(), "INSERT" | "DELETE" | "APPLY") {
        return format!("ERR {verb} needs a stateful session (connect over TCP)\n");
    }
    respond_in_session(service, &mut Session::new(), line)
}

/// Longest accepted request line (1 MiB — generous for any SPARQL text).
/// Longer lines answer `ERR` and drop the session: without a cap, one
/// client streaming bytes with no newline would grow server memory
/// without bound.
const MAX_REQUEST_BYTES: u64 = 1 << 20;

/// Serve one accepted connection: answer request lines until the client
/// sends `QUIT` or disconnects. Each connection owns a [`Session`], so
/// its staged updates die with it unless `APPLY`ed. I/O errors end the
/// session quietly — the peer is gone, there is nobody left to report to.
fn handle_connection(service: &QueryService, stream: TcpStream) {
    let mut reader = BufReader::new(stream);
    let mut session = Session::new();
    let mut line = String::new();
    loop {
        line.clear();
        match std::io::Read::take(&mut reader, MAX_REQUEST_BYTES).read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // The cap cut a multi-byte character in half, or the
                // bytes were never valid UTF-8 — either way, explain
                // before dropping the session.
                let _ =
                    reader.get_mut().write_all(b"ERR request line too long or not valid UTF-8\n");
                return;
            }
            Err(_) => return,
        }
        if line.len() as u64 >= MAX_REQUEST_BYTES && !line.ends_with('\n') {
            let _ = reader.get_mut().write_all(b"ERR request line too long\n");
            return;
        }
        // Same command parse as respond(): QUIT with trailing text still
        // quits, so the "OK bye" reply and the close always agree.
        let quitting =
            line.split_whitespace().next().is_some_and(|cmd| cmd.eq_ignore_ascii_case("QUIT"));
        let response = respond_in_session(service, &mut session, &line);
        if reader.get_mut().write_all(response.as_bytes()).is_err() {
            return;
        }
        if quitting {
            return;
        }
    }
}

/// Run the TCP front end until `shutdown` turns true: the calling thread
/// accepts connections and a pool of
/// [`server_sessions`](crate::ServiceConfig::server_sessions) workers
/// answers them, so N clients execute concurrently against the one shared
/// catalog (each request still runs on the engine's
/// [`eh_par::RuntimeConfig`] for execution parallelism — the two pools
/// are deliberately separate, because a session occupies its worker for
/// the whole connection, idle time included).
///
/// Shutdown drains rather than hangs: in-flight requests finish and their
/// responses are written, then every session's read side is shut down, so
/// workers blocked waiting for a next request wake with EOF and exit —
/// an idle client cannot pin the server open. The listener is switched to
/// non-blocking so the accept loop can observe the flag.
///
/// Known limit: a connected session occupies its pool worker until it
/// disconnects, so `server_sessions` *idle* clients stall later arrivals
/// (accepted, queued, not yet served) until one leaves — there is no idle
/// timeout yet. Size the pool for the expected number of concurrent
/// connections, not concurrent queries.
pub fn serve(service: &QueryService, listener: TcpListener, shutdown: &AtomicBool) {
    let workers = service.config().server_sessions.max(1);
    listener.set_nonblocking(true).expect("listener into non-blocking mode");
    let queue: WorkQueue<(u64, TcpStream)> = WorkQueue::new();
    // Read-side handles of live sessions, for shutdown wake-up. Workers
    // remove their entry when a session ends, so the map tracks only
    // open connections.
    let sessions: std::sync::Mutex<std::collections::HashMap<u64, TcpStream>> =
        std::sync::Mutex::new(std::collections::HashMap::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (queue, sessions) = (&queue, &sessions);
            scope.spawn(move || {
                while let Some((id, stream)) = queue.pop() {
                    // The gauge counts sessions being *served* (connected
                    // and assigned a worker), bracketing the whole
                    // connection lifetime including idle stretches.
                    if service.metrics_on() {
                        service.metrics().active_sessions.inc();
                    }
                    handle_connection(service, stream);
                    if service.metrics_on() {
                        service.metrics().active_sessions.dec();
                    }
                    sessions.lock().unwrap_or_else(std::sync::PoisonError::into_inner).remove(&id);
                }
            });
        }
        let mut next_id = 0u64;
        while !shutdown.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((stream, _)) => {
                    // Hand the connection to the pool in blocking mode. A
                    // session that cannot be registered (fd exhaustion)
                    // is refused outright: unregistered sessions would be
                    // unreachable by the shutdown wake-up below.
                    let _ = stream.set_nonblocking(false);
                    match stream.try_clone() {
                        Ok(handle) => {
                            sessions
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .insert(next_id, handle);
                            queue.push((next_id, stream));
                            next_id += 1;
                        }
                        Err(_) => drop(stream),
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // Idle poll: 20 ms bounds both shutdown latency and
                    // the wakeup rate of an otherwise quiet server.
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => break,
            }
        }
        queue.close();
        // Wake workers parked in read_line on idle sessions: closing the
        // read side delivers EOF without cutting off a response that is
        // still being written.
        for stream in sessions.lock().unwrap_or_else(std::sync::PoisonError::into_inner).values() {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
    });
}

/// A minimal blocking client for the line protocol, used by the examples,
/// the stress test, and the throughput harness.
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to a serving [`QueryService`].
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let addr: SocketAddr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other("no address resolved"))?;
        let stream = TcpStream::connect(addr)?;
        Ok(Client { reader: BufReader::new(stream) })
    }

    /// Send one request line and read the complete framed response
    /// (multi-line for `QUERY`/`PROFILE`/`METRICS`, single-line
    /// otherwise), returned verbatim.
    pub fn send(&mut self, request: &str) -> std::io::Result<String> {
        let line = request.replace(['\n', '\r'], " ");
        let upper = line.trim_start().to_ascii_uppercase();
        let is_query = ["QUERY", "PROFILE", "METRICS"].iter().any(|v| upper.starts_with(v));
        self.reader.get_mut().write_all(format!("{line}\n").as_bytes())?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::other("server closed the connection"));
        }
        if is_query && response.starts_with("OK") {
            loop {
                let mark = response.len();
                if self.reader.read_line(&mut response)? == 0 {
                    return Err(std::io::Error::other("response truncated"));
                }
                if response[mark..].trim_end() == "END" {
                    break;
                }
            }
        }
        Ok(response)
    }

    /// `QUERY` convenience: newlines in the SPARQL text are flattened.
    pub fn query(&mut self, sparql: &str) -> std::io::Result<String> {
        self.send(&format!("QUERY {sparql}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use eh_rdf::{Term, Triple, TripleStore};
    use emptyheaded::{OptFlags, PlannerConfig, SharedStore};

    fn store() -> SharedStore {
        SharedStore::from_triples(vec![
            Triple::new(Term::iri("a"), Term::iri("p"), Term::iri("b")),
            Triple::new(Term::iri("b"), Term::iri("p"), Term::iri("c")),
            Triple::new(Term::iri("a"), Term::iri("q"), Term::literal("lit")),
        ])
    }

    fn config(threads: usize) -> ServiceConfig {
        ServiceConfig {
            planner: PlannerConfig::with_flags(OptFlags::all()).with_threads(threads),
            result_cache_bytes: 1 << 20,
            plan_cache_entries: ServiceConfig::DEFAULT_PLAN_CACHE_ENTRIES,
            server_sessions: ServiceConfig::DEFAULT_SERVER_SESSIONS,
            record_metrics: true,
            slow_query_ms: None,
        }
    }

    #[test]
    fn respond_formats_queries_stats_and_errors() {
        let store = store();
        let svc = QueryService::new(store.clone(), config(1));
        let r = respond(&svc, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");
        assert_eq!(r, "OK 2 x y\n<a>\t<b>\n<b>\t<c>\nEND\n");
        let r = respond(&svc, "QUERY SELECT ?x WHERE { ?x <q> \"lit\" }");
        assert_eq!(r, "OK 1 x\n<a>\nEND\n");
        assert!(respond(&svc, "QUERY SELECT nope").starts_with("ERR "));
        assert!(respond(&svc, "QUERY").starts_with("ERR "));
        assert!(respond(&svc, "").starts_with("ERR empty"));
        assert!(respond(&svc, "FLY me to the moon").starts_with("ERR unknown command"));
        let stats = respond(&svc, "STATS");
        assert!(stats.starts_with("OK plan_hits=") && stats.contains("epoch=0"), "{stats}");
        assert_eq!(respond(&svc, "INVALIDATE"), "OK epoch=1\n");
        assert_eq!(respond(&svc, "quit"), "OK bye\n");
    }

    #[test]
    fn update_verbs_stage_and_apply_in_a_session() {
        let store = store();
        let svc = QueryService::new(store.clone(), config(1));
        let mut session = Session::new();
        let before =
            respond_in_session(&svc, &mut session, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");
        assert!(before.starts_with("OK 2"), "{before}");

        // Stage: nothing visible until APPLY.
        let r = respond_in_session(&svc, &mut session, "INSERT <c> <p> <d> .");
        assert_eq!(r, "OK pending inserts=1 deletes=0\n");
        let r = respond_in_session(&svc, &mut session, "delete <a> <p> <b> .");
        assert_eq!(r, "OK pending inserts=1 deletes=1\n");
        assert_eq!(session.pending_ops(), 2);
        let unchanged =
            respond_in_session(&svc, &mut session, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");
        assert_eq!(unchanged, before);

        let r = respond_in_session(&svc, &mut session, "APPLY");
        assert_eq!(r, "OK applied inserted=1 deleted=1 predicates=1 compacted=0 epoch=1\n");
        assert_eq!(session.pending_ops(), 0);
        let after =
            respond_in_session(&svc, &mut session, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");
        assert_eq!(after, "OK 2 x y\n<b>\t<c>\n<c>\t<d>\nEND\n");

        // Malformed and empty stagings answer ERR without side effects.
        assert!(respond_in_session(&svc, &mut session, "INSERT <a> <b>").starts_with("ERR "));
        assert!(respond_in_session(&svc, &mut session, "INSERT").starts_with("ERR "));
        // An empty APPLY is a no-op: nothing changed, epoch stays, and it
        // lands in the updates_noop series, not the applied counter.
        let r = respond_in_session(&svc, &mut session, "APPLY");
        assert_eq!(r, "OK applied inserted=0 deleted=0 predicates=0 compacted=0 epoch=1\n");
        let stats = respond_in_session(&svc, &mut session, "STATS");
        assert!(stats.contains("updates=1 updates_noop=1 inserted=1 deleted=1"), "{stats}");

        // The applied batch staged its triples as overlay deltas (visible
        // in STATS) and an explicit COMPACT folds them into the base,
        // advancing the epoch; a second COMPACT has nothing to fold.
        assert!(stats.contains("staged=2"), "{stats}");
        let r = respond_in_session(&svc, &mut session, "COMPACT");
        assert!(r.starts_with("OK compacted predicates=1 rebuilt="), "{r}");
        assert!(r.ends_with("epoch=2\n"), "{r}");
        let stats = respond_in_session(&svc, &mut session, "STATS");
        assert!(stats.contains("staged=0"), "{stats}");
        let r = respond_in_session(&svc, &mut session, "COMPACT");
        assert_eq!(r, "OK compacted predicates=0 rebuilt=0 epoch=2\n");
        // Query answers are unchanged by compaction.
        let post = respond_in_session(&svc, &mut session, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");
        assert_eq!(post, "OK 2 x y\n<b>\t<c>\n<c>\t<d>\nEND\n");
    }

    #[test]
    fn profile_verb_reports_a_measured_run() {
        let store = store();
        let svc = QueryService::new(store.clone(), config(1));
        let r = respond(&svc, "PROFILE SELECT ?x ?y WHERE { ?x <p> ?y }");
        assert!(r.starts_with("OK PROFILE\n"), "{r}");
        assert!(r.ends_with("END\n"), "{r}");
        assert!(r.contains("profile:"), "{r}");
        assert!(r.contains("kernels {"), "{r}");
        assert!(r.contains("result rows: 2"), "{r}");
        assert!(respond(&svc, "PROFILE").starts_with("ERR PROFILE needs"));
        assert!(respond(&svc, "PROFILE SELECT nope").starts_with("ERR "));
    }

    #[test]
    fn metrics_verb_exposes_parseable_nonzero_series() {
        let store = store();
        let svc = QueryService::new(store.clone(), config(1));
        // Traffic: one miss, one hit, one update.
        respond(&svc, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");
        respond(&svc, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");
        let mut session = Session::new();
        respond_in_session(&svc, &mut session, "INSERT <c> <p> <d> .");
        respond_in_session(&svc, &mut session, "APPLY");

        let m = respond(&svc, "METRICS");
        assert!(m.starts_with("OK METRICS\n") && m.ends_with("END\n"), "{m}");
        let body = &m["OK METRICS\n".len()..m.len() - "END\n".len()];
        let samples = eh_obs::parse_exposition(body).expect("exposition parses");
        let total = |name: &str| -> f64 {
            samples.iter().filter(|s| s.name == name).map(|s| s.value).sum()
        };
        assert!(total("eh_query_latency_us_count") >= 2.0, "{body}");
        assert!(total("eh_result_cache_hits_total") >= 1.0, "{body}");
        assert!(total("eh_result_cache_misses_total") >= 1.0, "{body}");
        assert!(total("eh_update_apply_latency_us_count") >= 1.0, "{body}");
        assert!(total("eh_updates_applied_total") >= 1.0, "{body}");
        // Per-verb counters carry the verb label.
        let query_requests: f64 = samples
            .iter()
            .filter(|s| s.name == "eh_requests_total" && s.label("verb") == Some("query"))
            .map(|s| s.value)
            .sum();
        assert!(query_requests >= 2.0, "{body}");
    }

    #[test]
    fn stats_reports_latency_percentiles() {
        let store = store();
        let svc = QueryService::new(store.clone(), config(1));
        respond(&svc, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");
        let stats = respond(&svc, "STATS");
        assert!(stats.contains("query_p50_us="), "{stats}");
        assert!(stats.contains("query_p99_us="), "{stats}");
        let p50: u64 = stats
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("query_p50_us="))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        // The histogram quantizes to bucket upper bounds (>= 1), so any
        // recorded query yields a non-zero percentile.
        assert!(p50 >= 1, "{stats}");
    }

    #[test]
    fn metrics_off_records_nothing() {
        let store = store();
        let mut cfg = config(1);
        cfg.record_metrics = false;
        let svc = QueryService::new(store.clone(), cfg);
        respond(&svc, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");
        let stats = respond(&svc, "STATS");
        assert!(stats.contains("query_p50_us=0 query_p99_us=0"), "{stats}");
        let m = respond(&svc, "METRICS");
        let body = &m["OK METRICS\n".len()..m.len() - "END\n".len()];
        let samples = eh_obs::parse_exposition(body).expect("exposition parses");
        let count: f64 =
            samples.iter().filter(|s| s.name == "eh_query_latency_us_count").map(|s| s.value).sum();
        assert_eq!(count, 0.0, "{body}");
    }

    #[test]
    fn slow_query_log_captures_over_threshold_queries() {
        let store = store();
        let mut cfg = config(1);
        cfg.slow_query_ms = Some(0); // everything is "slow"
        let svc = QueryService::new(store.clone(), cfg);
        assert!(svc.slow_queries().is_empty());
        respond(&svc, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");
        let log = svc.slow_queries();
        assert_eq!(log.len(), 1, "{log:?}");
        assert!(log[0].contains("SELECT ?x ?y"), "{log:?}");
        let m = respond(&svc, "METRICS");
        assert!(m.contains("eh_slow_queries_total 1"), "{m}");
    }

    #[test]
    fn save_verb_writes_a_loadable_snapshot() {
        let store = store();
        let svc = QueryService::new(store.clone(), config(1));
        let q = "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }";
        let expect = respond(&svc, q);

        let path = std::env::temp_dir().join(format!("eh-save-verb-{}.snap", std::process::id()));
        let r = respond(&svc, &format!("SAVE {}", path.display()));
        assert!(r.starts_with("OK saved bytes="), "{r}");
        assert!(r.contains("triples=3"), "{r}");

        // A service restarted from the snapshot serves identical bytes —
        // and starts warm (tries preloaded before any query ran).
        let restarted = QueryService::from_snapshot(&path, config(1)).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(restarted.engine().catalog().cached_tries() > 0);
        assert_eq!(respond(&restarted, q), expect);

        // Failure modes answer ERR, they don't kill the session.
        assert!(respond(&svc, "SAVE").starts_with("ERR SAVE needs"));
        assert!(respond(&svc, "SAVE /nonexistent-dir-zzz/x.snap").starts_with("ERR "));
    }

    #[test]
    fn mmap_loaded_service_reports_its_mode_and_serves_identical_bytes() {
        let store = store();
        let svc = QueryService::new(store.clone(), config(1));
        let q = "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }";
        let expect = respond(&svc, q);
        // A cold-built service is a copy load with nothing mapped.
        let stats = respond(&svc, "STATS");
        assert!(stats.contains("load_mode=copy mapped_bytes=0"), "{stats}");

        let path = std::env::temp_dir().join(format!("eh-mmap-verb-{}.snap", std::process::id()));
        assert!(respond(&svc, &format!("SAVE {}", path.display())).starts_with("OK saved"));

        let mapped = QueryService::from_snapshot_mmap(&path, config(1)).unwrap();
        let copied = QueryService::from_snapshot(&path, config(1)).unwrap();
        assert_eq!(respond(&mapped, q), expect);
        assert_eq!(respond(&copied, q), expect);

        let file_len = std::fs::metadata(&path).unwrap().len();
        let stats = respond(&mapped, "STATS");
        assert!(
            stats.contains(&format!("load_mode=mmap mapped_bytes={file_len}")),
            "{stats} (file is {file_len} bytes)"
        );
        let stats = respond(&copied, "STATS");
        assert!(stats.contains("load_mode=copy mapped_bytes=0"), "{stats}");

        // The gauge tracks the same number through the METRICS verb.
        let m = respond(&mapped, "METRICS");
        assert!(m.contains(&format!("eh_mapped_bytes {file_len}")), "{m}");
        let m = respond(&copied, "METRICS");
        assert!(m.contains("eh_mapped_bytes 0"), "{m}");

        // Updates keep working on the mapped service: the overlays and
        // later compactions own their memory, independent of the mapping.
        let mut session = Session::new();
        let r = respond_in_session(&mapped, &mut session, "INSERT <c> <p> <d> .");
        assert!(r.starts_with("OK pending"), "{r}");
        let r = respond_in_session(&mapped, &mut session, "APPLY");
        assert!(r.starts_with("OK applied inserted=1"), "{r}");
        let r = respond_in_session(&mapped, &mut session, "COMPACT");
        assert!(r.starts_with("OK compacted predicates=1"), "{r}");
        let after = respond(&mapped, q);
        assert_eq!(after, "OK 3 x y\n<a>\t<b>\n<b>\t<c>\n<c>\t<d>\nEND\n");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stateless_respond_rejects_update_verbs() {
        let store = store();
        let svc = QueryService::new(store.clone(), config(1));
        assert!(respond(&svc, "INSERT <c> <p> <d> .").starts_with("ERR INSERT"));
        assert!(respond(&svc, "delete <a> <p> <b> .").starts_with("ERR DELETE"));
        assert!(respond(&svc, "APPLY").starts_with("ERR APPLY"));
        // Read-only verbs still answer normally.
        assert!(respond(&svc, "STATS").starts_with("OK "));
    }

    #[test]
    fn updates_over_tcp_match_a_cold_engine_on_the_new_data() {
        let store = store();
        let svc = QueryService::new(store.clone(), config(2));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let (svc_ref, shutdown_ref) = (&svc, &shutdown);
            scope.spawn(move || serve(svc_ref, listener, shutdown_ref));

            let mut writer = Client::connect(addr).unwrap();
            let mut reader = Client::connect(addr).unwrap();
            let q = "SELECT ?x ?y WHERE { ?x <p> ?y }";
            // Warm the caches pre-update from a second connection.
            let warm = reader.query(q).unwrap();
            assert!(warm.starts_with("OK 2"), "{warm}");

            assert!(writer.send("INSERT <c> <p> <d> .").unwrap().starts_with("OK pending"));
            assert!(writer.send("DELETE <b> <p> <c> .").unwrap().starts_with("OK pending"));
            let applied = writer.send("APPLY").unwrap();
            assert_eq!(
                applied,
                "OK applied inserted=1 deleted=1 predicates=1 compacted=0 epoch=1\n"
            );

            // Both connections now see the post-update rows, and the bytes
            // equal a cold service built directly over the new contents.
            let cold_store = TripleStore::from_triples(vec![
                Triple::new(Term::iri("a"), Term::iri("p"), Term::iri("b")),
                Triple::new(Term::iri("c"), Term::iri("p"), Term::iri("d")),
                Triple::new(Term::iri("a"), Term::iri("q"), Term::literal("lit")),
            ]);
            let cold_svc = QueryService::new(cold_store, config(1));
            let expect = respond(&cold_svc, &format!("QUERY {q}"));
            assert_eq!(reader.query(q).unwrap(), expect);
            assert_eq!(writer.query(q).unwrap(), expect);

            writer.send("QUIT").ok();
            reader.send("QUIT").ok();
            drop(writer);
            drop(reader);
            shutdown.store(true, Ordering::Release);
        });
    }

    #[test]
    fn idle_clients_do_not_starve_active_ones() {
        let store = store();
        // Single engine thread, but the session pool (default 8) is
        // sized independently: idle connections must not block service.
        let svc = QueryService::new(store.clone(), config(1));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let (svc_ref, shutdown_ref) = (&svc, &shutdown);
            scope.spawn(move || serve(svc_ref, listener, shutdown_ref));

            // Three clients connect and say nothing...
            let idlers: Vec<Client> = (0..3).map(|_| Client::connect(addr).unwrap()).collect();
            // ... and a fourth still gets answered.
            let mut active = Client::connect(addr).unwrap();
            let r = active.query("SELECT ?x ?y WHERE { ?x <p> ?y }").unwrap();
            assert!(r.starts_with("OK 2"), "{r}");
            active.send("QUIT").ok();
            drop(active);
            drop(idlers);
            shutdown.store(true, Ordering::Release);
        });
    }

    #[test]
    fn control_characters_in_terms_cannot_break_framing() {
        // An IRI containing newline/tab is invalid N-Triples, but a store
        // built through the API can hold one; the wire format must escape
        // it rather than let a row masquerade as the END marker.
        let store = TripleStore::from_triples(vec![Triple::new(
            Term::iri("a\nEND\nb"),
            Term::iri("p"),
            Term::iri("c\td"),
        )]);
        let svc = QueryService::new(store.clone(), config(1));
        let r = respond(&svc, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");
        assert_eq!(r, "OK 1 x y\n<a\\nEND\\nb>\t<c\\td>\nEND\n");
    }

    #[test]
    fn shutdown_drains_despite_idle_and_sloppy_clients() {
        let store = store();
        let svc = QueryService::new(store.clone(), config(2));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let (svc_ref, shutdown_ref) = (&svc, &shutdown);
            let server = scope.spawn(move || serve(svc_ref, listener, shutdown_ref));

            // An idle client that connects and never sends anything, and
            // one that sends "QUIT now" (trailing text must still quit).
            let idle = Client::connect(addr).unwrap();
            let mut sloppy = Client::connect(addr).unwrap();
            assert_eq!(sloppy.send("QUIT now").unwrap(), "OK bye\n");
            // Give the acceptor a moment to hand both sessions to workers.
            std::thread::sleep(std::time::Duration::from_millis(50));
            shutdown.store(true, Ordering::Release);
            // The idle session must not pin the server open: serve()
            // returns, so this join completes (a regression hangs here).
            server.join().unwrap();
            drop(idle);
        });
    }

    #[test]
    fn stats_reports_wal_off_without_a_log() {
        let svc = QueryService::new(store(), config(1));
        let stats = respond(&svc, "STATS");
        assert!(stats.contains("wal_seq=0 wal_bytes=0 wal_fsync_mode=off"), "{stats}");
    }

    #[test]
    fn wal_surfaces_in_stats_metrics_and_recovery() {
        let wal_path = std::env::temp_dir().join(format!("eh-srv-wal-{}.wal", std::process::id()));
        std::fs::remove_file(&wal_path).ok();

        let mut svc = QueryService::new(store(), config(1));
        let r = svc.open_wal(&wal_path).unwrap();
        assert_eq!(r.replayed, 0);
        let mut session = Session::new();
        respond_in_session(&svc, &mut session, "INSERT <c> <p> <d> .");
        let applied = respond_in_session(&svc, &mut session, "APPLY");
        assert!(applied.starts_with("OK applied inserted=1"), "{applied}");
        // A no-op batch is logged too (it held the sequence when it ran).
        respond_in_session(&svc, &mut session, "INSERT <c> <p> <d> .");
        respond_in_session(&svc, &mut session, "APPLY");

        let stats = respond(&svc, "STATS");
        assert!(stats.contains("wal_seq=2"), "{stats}");
        assert!(stats.contains("wal_fsync_mode=always"), "{stats}");
        let wal_bytes: u64 = stats
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("wal_bytes="))
            .unwrap()
            .parse()
            .unwrap();
        assert!(wal_bytes > 24, "{stats}");

        let m = respond(&svc, "METRICS");
        assert!(m.contains("eh_wal_appends_total 2"), "{m}");
        assert!(m.contains(&format!("eh_wal_bytes {wal_bytes}")), "{m}");
        assert!(m.contains("eh_wal_fsync_us_count 2"), "{m}");

        // Recovery: fresh service over the same base store + the log
        // serves the same bytes as the crashed one would have.
        let expect = respond(&svc, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");
        let mut recovered = QueryService::new(store(), config(1));
        let r = recovered.open_wal(&wal_path).unwrap();
        assert_eq!((r.replayed, r.inserted), (2, 1));
        assert_eq!(respond(&recovered, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }"), expect);
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn replay_verb_applies_a_shipped_log() {
        let wal_path =
            std::env::temp_dir().join(format!("eh-srv-replay-{}.wal", std::process::id()));
        std::fs::remove_file(&wal_path).ok();

        // A primary logs one batch.
        let mut primary = QueryService::new(store(), config(1));
        primary.open_wal(&wal_path).unwrap();
        let mut session = Session::new();
        respond_in_session(&primary, &mut session, "INSERT <c> <p> <d> .");
        respond_in_session(&primary, &mut session, "APPLY");
        let expect = respond(&primary, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");

        // A follower replays the shipped log over the same base store.
        let follower = QueryService::new(store(), config(1));
        let r = respond(&follower, &format!("REPLAY {}", wal_path.display()));
        assert_eq!(r, "OK replayed records=1 inserted=1 deleted=0 epoch=1\n");
        assert_eq!(respond(&follower, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }"), expect);

        // Failure modes answer ERR, they don't kill the session.
        assert!(respond(&follower, "REPLAY").starts_with("ERR REPLAY needs"));
        assert!(respond(&follower, "REPLAY /nonexistent-zzz/x.wal").starts_with("ERR "));
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn save_verb_truncates_an_attached_wal() {
        let wal_path =
            std::env::temp_dir().join(format!("eh-srv-wal-save-{}.wal", std::process::id()));
        let snap_path =
            std::env::temp_dir().join(format!("eh-srv-wal-save-{}.snap", std::process::id()));
        std::fs::remove_file(&wal_path).ok();

        let mut svc = QueryService::new(store(), config(1));
        svc.open_wal(&wal_path).unwrap();
        let mut session = Session::new();
        respond_in_session(&svc, &mut session, "INSERT <c> <p> <d> .");
        respond_in_session(&svc, &mut session, "APPLY");
        assert!(std::fs::metadata(&wal_path).unwrap().len() > 24);

        let r = respond(&svc, &format!("SAVE {}", snap_path.display()));
        assert!(r.starts_with("OK saved"), "{r}");
        // The folded record is gone; only the 24-byte header remains.
        assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), 24);
        let stats = respond(&svc, "STATS");
        assert!(stats.contains("wal_seq=1 wal_bytes=24"), "{stats}");
        std::fs::remove_file(&wal_path).ok();
        std::fs::remove_file(&snap_path).ok();
    }

    #[test]
    fn server_round_trip_over_tcp() {
        let store = store();
        let svc = QueryService::new(store.clone(), config(2));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let svc_ref = &svc;
            let shutdown_ref = &shutdown;
            scope.spawn(move || serve(svc_ref, listener, shutdown_ref));

            let mut client = Client::connect(addr).unwrap();
            let direct = respond(&svc, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");
            let wire = client.query("SELECT ?x ?y\nWHERE { ?x <p> ?y }").unwrap();
            assert_eq!(wire, direct);
            // Second client: the same bytes again (now cache-served).
            let mut second = Client::connect(addr).unwrap();
            assert_eq!(second.query("SELECT ?x ?y WHERE { ?x <p> ?y }").unwrap(), direct);
            // The direct respond() call was the miss; both wire queries hit.
            let stats = second.send("STATS").unwrap();
            assert!(stats.contains("result_hits=2"), "{stats}");
            // Multi-line verbs frame correctly through the client too,
            // and the session gauge sees both live connections.
            let profile = second.send("PROFILE SELECT ?x ?y WHERE { ?x <p> ?y }").unwrap();
            assert!(profile.starts_with("OK PROFILE\n") && profile.ends_with("END\n"), "{profile}");
            let metrics = second.send("METRICS").unwrap();
            assert!(metrics.starts_with("OK METRICS\n") && metrics.ends_with("END\n"), "{metrics}");
            assert!(metrics.contains("eh_active_sessions 2"), "{metrics}");
            assert_eq!(client.send("QUIT").unwrap(), "OK bye\n");
            drop(client);
            drop(second);
            shutdown.store(true, Ordering::Release);
        });
    }
}
