//! The `mtk serve` front-end: a long-lived, hardened TCP line/JSON
//! protocol over the deterministic sizing machinery, backed by the
//! crash-safe persistent result store.
//!
//! # Protocol (DESIGN.md §13)
//!
//! One JSON object per line in each direction. Requests:
//!
//! * `{"cmd":"screen"|"size"|"cluster"|"hybrid","design":"<.mtk text>",
//!   ...}` — run a [`Job`]. Optional numeric fields: `threads`,
//!   `w_over_l`, `top_k`, `target`, `lo`, `hi`, `stride`, `samples`,
//!   `top`, `clusters` ([`crate::job::JobOpts`]).
//! * `{"cmd":"import","deck":"<SPICE text>"}` — standard-format import:
//!   flatten subcircuits, recognize gates, return canonical `.mtk` (or
//!   `recognized:false` with the reason — the SPICE-only fallback).
//! * `{"cmd":"status"}` — health snapshot: serve counters as a schema-v6
//!   trace report, cache occupancy, store stats, connection gauges.
//! * `{"cmd":"shutdown"}` — begin a graceful drain.
//!
//! Responses (always one line):
//!
//! * `{"status":"ok","cached":<bool>,"result":...,"trace":...}` — job
//!   done; `trace` is the deterministic-mode trace report of the run
//!   that *produced* the result. A cached response replays the stored
//!   bytes, so identical requests get byte-identical `result`+`trace`
//!   whether computed or replayed.
//! * `{"status":"busy"}` — all job slots taken (bounded backpressure:
//!   the server never queues unboundedly; retry).
//! * `{"status":"error","error":"..."}` — malformed/oversized/failed.
//!
//! # Hardening contract
//!
//! Per-connection read *and* write timeouts (a stalled or half-open
//! client costs one `conn_timeouts` tick, never a hung worker), a
//! max-request-size bound (`requests_rejected`), bounded worker
//! backpressure (explicit `busy`), a job's `threads` capped at the
//! host's cores, in-flight dedup of identical
//! requests (concurrent duplicates wait for the one execution and
//! replay it), and graceful drain (stop accepting, finish in-flight
//! work, exit cleanly). Every failure path is an `mtk_trace` counter —
//! never an `eprintln!`.
//!
//! The request fingerprint (and store key) excludes `threads`: results
//! are thread-count invariant by the workspace determinism contract, so
//! the same design+options served at any parallelism dedups to one
//! record. A job request is looked up by its design text as sent before
//! the design is parsed ([`presumed_key`]); only a miss parses it.

use crate::job::{presumed_key, Job, JobKind, JobOutput};
use mtk_core::sizing::ScreeningCache;
use mtk_store::{Store, StoreStats};
use mtk_trace::json::{parse, JsonValue};
use mtk_trace::{CounterId, CounterSet, PhaseTrace, TraceMode, TraceReport};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Knobs of one server instance. `Default` is tuned for tests and the
/// CI smoke; production raises the timeouts and slots.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back from
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Default worker threads per job (a request's `threads` field
    /// overrides; 0 means all cores; either is capped at the cores).
    pub threads: usize,
    /// Maximum concurrently executing jobs; further job requests get an
    /// explicit `busy` instead of queueing.
    pub job_slots: usize,
    /// Per-connection read timeout (bounds stalled/half-open clients).
    pub read_timeout: Duration,
    /// Per-connection write timeout (bounds clients that stop reading).
    pub write_timeout: Duration,
    /// Largest accepted request line, bytes.
    pub max_request_bytes: usize,
    /// Optional store log path; `None` serves without persistence
    /// (in-flight dedup still works, replays are per-process).
    pub store_path: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            job_slots: 2,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_request_bytes: 8 * 1024 * 1024,
            store_path: None,
        }
    }
}

/// One in-flight job other connections can wait on.
#[derive(Default)]
struct Inflight {
    done: Mutex<Option<Result<String, String>>>,
    cv: Condvar,
}

impl Inflight {
    fn publish(&self, outcome: Result<String, String>) {
        *self.done.lock().unwrap() = Some(outcome);
        self.cv.notify_all();
    }

    /// Waits for the leader's outcome (bounded, so a lost leader cannot
    /// wedge a waiter forever).
    fn wait(&self) -> Option<Result<String, String>> {
        let mut done = self.done.lock().unwrap();
        let deadline = Duration::from_secs(600);
        while done.is_none() {
            let (guard, timeout) = self.cv.wait_timeout(done, deadline).unwrap();
            done = guard;
            if timeout.timed_out() {
                break;
            }
        }
        done.clone()
    }
}

/// Shared state behind one server: counters, the screening cache (and
/// through it the persistent store), in-flight dedup, and the drain flag.
pub struct ServerState {
    counters: Mutex<CounterSet>,
    cache: ScreeningCache,
    inflight: Mutex<HashMap<Vec<u8>, Arc<Inflight>>>,
    slots_free: Mutex<usize>,
    draining: AtomicBool,
    /// Where [`ServerState::request_drain`] connects to wake the accept
    /// loop: the listener's address, loopback if it is unspecified.
    wake_addr: SocketAddr,
    open_conns: Mutex<usize>,
    /// Signalled when the last open connection closes.
    conns_closed: Condvar,
    store_put_errors: AtomicUsize,
    default_threads: usize,
}

impl ServerState {
    fn count(&self, id: CounterId, n: u64) {
        self.counters.lock().unwrap().add(id, n);
    }

    /// Requests a graceful drain: the accept loop closes, in-flight
    /// connections finish, [`Server::run`] returns.
    ///
    /// The first call also wakes [`Server::run`] out of its blocking
    /// `accept` by connecting to the listener once; that connection is
    /// dropped unserved, like any accepted after the flag is set. Its
    /// errors are ignored: a listener that is already gone needs no wake.
    pub fn request_drain(&self) {
        if !self.draining.swap(true, SeqCst) {
            let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
        }
    }

    /// True once a drain was requested.
    pub fn draining(&self) -> bool {
        self.draining.load(SeqCst)
    }

    /// Connections accepted and not yet closed.
    fn open_connections(&self) -> usize {
        *lock(&self.open_conns)
    }

    /// A copy of the serve counter set (for post-drain summaries).
    pub fn counter_snapshot(&self) -> CounterSet {
        self.counters.lock().unwrap().clone()
    }

    /// Serves the stored payload for a request key, counting the hit.
    fn store_lookup(&self, key: &[u8]) -> Option<String> {
        let store = self.cache.store()?;
        let payload = String::from_utf8(store.get(key)?).ok()?;
        self.count(CounterId::StoreHits, 1);
        Some(payload)
    }
}

/// RAII job slot: acquired before execution, returned on drop.
struct SlotGuard<'a> {
    state: &'a ServerState,
}

impl<'a> SlotGuard<'a> {
    fn try_acquire(state: &'a ServerState) -> Option<SlotGuard<'a>> {
        let mut free = state.slots_free.lock().unwrap();
        if *free == 0 {
            return None;
        }
        *free -= 1;
        Some(SlotGuard { state })
    }
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        *self.state.slots_free.lock().unwrap() += 1;
    }
}

/// Locks `m` even when a panicking thread poisoned it: the guards below
/// release state while unwinding, and the maps they touch stay valid.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// RAII connection count: taken on accept, released on drop — also when
/// the connection's thread unwinds — so a panicking job cannot keep the
/// drain waiting forever.
struct ConnGuard(Arc<ServerState>);

impl ConnGuard {
    fn open(state: &Arc<ServerState>) -> ConnGuard {
        *lock(&state.open_conns) += 1;
        ConnGuard(Arc::clone(state))
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        let mut open = lock(&self.0.open_conns);
        *open -= 1;
        if *open == 0 {
            self.0.conns_closed.notify_all();
        }
    }
}

/// RAII in-flight entry of a leader: on drop the key leaves the
/// in-flight map, and waiters still without an outcome (the leader's job
/// panicked) are woken with an error instead of waiting out their
/// timeout.
struct FlightGuard<'a> {
    state: &'a ServerState,
    key: Vec<u8>,
    flight: Arc<Inflight>,
}

impl FlightGuard<'_> {
    /// Leaves the in-flight map, then hands waiters the leader's outcome.
    fn finish(self, outcome: Result<String, String>) {
        lock(&self.state.inflight).remove(&self.key);
        self.flight.publish(outcome);
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        lock(&self.state.inflight).remove(&self.key);
        if lock(&self.flight.done).is_none() {
            self.flight
                .publish(Err("internal: the job ended without a result".into()));
        }
    }
}

/// A bound listener plus its shared state; [`Server::run`] is the
/// accept/drain loop.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    cfg: ServeConfig,
}

impl Server {
    /// Binds the listener and opens the store (when configured).
    ///
    /// # Errors
    ///
    /// Bind errors, and store open failures mapped to
    /// [`std::io::ErrorKind::InvalidData`] — a corrupt-beyond-recovery
    /// or foreign store file must fail loudly at startup, not serve
    /// wrong bits later.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // One handle on the log: request records, the screening cache's
        // leg records and cluster evaluations all go through it.
        let cache = match &cfg.store_path {
            Some(path) => ScreeningCache::with_store(
                Store::open(path)
                    .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?,
            ),
            None => ScreeningCache::new(),
        };
        let state = Arc::new(ServerState {
            counters: Mutex::new(CounterSet::new()),
            cache,
            inflight: Mutex::new(HashMap::new()),
            slots_free: Mutex::new(cfg.job_slots),
            draining: AtomicBool::new(false),
            wake_addr,
            open_conns: Mutex::new(0),
            conns_closed: Condvar::new(),
            store_put_errors: AtomicUsize::new(0),
            default_threads: cfg.threads,
        });
        Ok(Server {
            listener,
            state,
            cfg,
        })
    }

    /// The bound address (read the ephemeral port back from here).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle to the shared state (drain requests, counter summaries).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Accepts connections until a drain is requested (by SIGTERM via
    /// [`ServerState::request_drain`] or a `shutdown` request), then
    /// refuses new connections and waits for the open ones to finish.
    ///
    /// The accept blocks; the drain request wakes it with a connection
    /// of its own. A connection accepted once the flag is set, that one
    /// included, is dropped unserved.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors; per-connection errors are
    /// counters, not failures.
    pub fn run(self) -> std::io::Result<()> {
        while !self.state.draining() {
            match self.listener.accept() {
                Ok(_) if self.state.draining() => break,
                Ok((stream, _)) => {
                    let conn = ConnGuard::open(&self.state);
                    let cfg = self.cfg.clone();
                    std::thread::spawn(move || handle_conn(&conn.0, stream, &cfg));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Drain: the listener drops here (new connections refused); open
        // connections run to completion, bounded by their timeouts.
        drop(self.listener);
        let mut open = lock(&self.state.open_conns);
        while *open > 0 {
            open = self
                .state
                .conns_closed
                .wait(open)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        Ok(())
    }
}

/// What one read off the wire produced.
enum ReadOutcome {
    Line(String),
    Eof,
    TooLarge,
    Timeout,
    Error,
}

/// Reads newline-terminated requests with a size cap; leftover bytes
/// after a newline stay buffered for the next request on the same
/// connection.
///
/// Each byte is searched for the newline once: `scanned` marks how far
/// the buffer has been searched, so a long line read in 4 KiB pieces
/// costs one pass, not one pass per piece. A line whose bytes before
/// its newline number more than the cap is [`ReadOutcome::TooLarge`]
/// wherever the reads split it.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Leading bytes of `buf` already searched for a newline.
    scanned: usize,
}

impl LineReader {
    fn new(stream: TcpStream) -> LineReader {
        LineReader {
            stream,
            buf: Vec::new(),
            scanned: 0,
        }
    }

    fn read_line(&mut self, cap: usize) -> ReadOutcome {
        loop {
            if let Some(i) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let end = self.scanned + i;
                if end > cap {
                    return ReadOutcome::TooLarge;
                }
                let rest = self.buf.split_off(end + 1);
                let line = std::mem::replace(&mut self.buf, rest);
                self.scanned = 0;
                return ReadOutcome::Line(
                    String::from_utf8(line)
                        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()),
                );
            }
            self.scanned = self.buf.len();
            if self.buf.len() > cap {
                return ReadOutcome::TooLarge;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return ReadOutcome::Eof,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return ReadOutcome::Timeout
                }
                Err(_) => return ReadOutcome::Error,
            }
        }
    }
}

/// Writes one response line; a timeout counts against the connection.
fn write_line(state: &ServerState, stream: &TcpStream, line: &str) -> bool {
    let mut out = Vec::with_capacity(line.len() + 1);
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
    match (&mut (&*stream)).write_all(&out) {
        Ok(()) => true,
        Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
            state.count(CounterId::ConnTimeouts, 1);
            false
        }
        Err(_) => false,
    }
}

/// One connection's request loop.
fn handle_conn(state: &Arc<ServerState>, stream: TcpStream, cfg: &ServeConfig) {
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = LineReader::new(stream);
    loop {
        match reader.read_line(cfg.max_request_bytes) {
            ReadOutcome::Line(line) => {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let (response, close) = handle_request(state, line);
                if !write_line(state, &write_half, &response) || close {
                    break;
                }
            }
            ReadOutcome::TooLarge => {
                state.count(CounterId::RequestsRejected, 1);
                let _ = write_line(state, &write_half, &error_line("request too large"));
                break;
            }
            ReadOutcome::Timeout => {
                state.count(CounterId::ConnTimeouts, 1);
                break;
            }
            ReadOutcome::Eof | ReadOutcome::Error => break,
        }
    }
}

/// Routes one request line to its handler; the bool asks the connection
/// loop to close afterwards.
fn handle_request(state: &Arc<ServerState>, line: &str) -> (String, bool) {
    let request = match parse(line) {
        Ok(v) => v,
        Err(e) => {
            state.count(CounterId::RequestsRejected, 1);
            return (error_line(&format!("malformed request: {e}")), false);
        }
    };
    match request.get("cmd").and_then(JsonValue::as_str) {
        Some("status") => (status_line(state), false),
        Some("shutdown") => {
            state.request_drain();
            (r#"{"status":"ok","draining":true}"#.to_string(), true)
        }
        Some("import") => (handle_import(state, &request), false),
        Some(cmd) if JobKind::parse(cmd).is_some() => {
            // Warm path: a canonical design keys the store as sent, so a
            // hit needs no `.mtk` parse (DESIGN.md §13.2). While draining,
            // the slow path below answers as it always did.
            let presumed = (!state.draining() && state.cache.store().is_some())
                .then(|| presumed_key(&request))
                .flatten();
            if let Some(payload) = presumed.as_deref().and_then(|k| state.store_lookup(k)) {
                return (ok_line(true, &payload), false);
            }
            match Job::from_json(&request, state.default_threads) {
                Ok(job) => (handle_job(state, &job, presumed.as_deref()), false),
                Err(msg) => {
                    state.count(CounterId::RequestsRejected, 1);
                    (error_line(&msg), false)
                }
            }
        }
        _ => {
            state.count(CounterId::RequestsRejected, 1);
            (
                error_line("unknown cmd (want import|screen|size|cluster|hybrid|status|shutdown)"),
                false,
            )
        }
    }
}

/// `{"cmd":"import","deck":"<SPICE text>"}` — run the standard-format
/// importer on a deck: subcircuits are flattened, gates recovered by
/// structural recognition. Responds
/// `{"status":"ok","recognized":true,"mtk":"<canonical .mtk>","gates":N}`
/// on success and `{"status":"ok","recognized":false,"reason":"…"}`
/// when the deck parses but is not a recognizable gate netlist (the
/// SPICE-only fallback — not an error). Deck parse failures and a
/// missing `deck` field are errors and count as rejected requests.
fn handle_import(state: &Arc<ServerState>, request: &JsonValue) -> String {
    let Some(text) = request.get("deck").and_then(JsonValue::as_str) else {
        state.count(CounterId::RequestsRejected, 1);
        return error_line("missing `deck` (the SPICE netlist text)");
    };
    let tech = mtk_netlist::tech::Technology::l07();
    let count = |id, n| state.count(id, n);
    let imported = match crate::import_counted(text, "<request>", &tech, count) {
        Ok(i) => i,
        Err(e) => {
            state.count(CounterId::RequestsRejected, 1);
            return error_line(&e.to_string());
        }
    };
    match imported {
        mtk_fe::interop::Imported::Design { design, stats, .. } => JsonValue::Object(vec![
            ("status".into(), JsonValue::String("ok".into())),
            ("recognized".into(), JsonValue::Bool(true)),
            ("mtk".into(), JsonValue::String(design.to_mtk())),
            (
                "gates".into(),
                JsonValue::Number(stats.cells_recognized as f64),
            ),
        ])
        .to_compact(),
        mtk_fe::interop::Imported::SpiceOnly { reason, .. } => JsonValue::Object(vec![
            ("status".into(), JsonValue::String("ok".into())),
            ("recognized".into(), JsonValue::Bool(false)),
            ("reason".into(), JsonValue::String(reason)),
        ])
        .to_compact(),
    }
}

/// Store tier → in-flight dedup → bounded execution, in that order.
/// `looked_up` is a key the store already missed for this request; the
/// store tier is skipped when the job's own key is that one.
fn handle_job(state: &Arc<ServerState>, job: &Job, looked_up: Option<&[u8]>) -> String {
    if state.draining() {
        state.count(CounterId::RequestsRejected, 1);
        return r#"{"status":"busy"}"#.to_string();
    }
    let key = job.store_key();
    if looked_up != Some(key.as_slice()) {
        if let Some(payload) = state.store_lookup(&key) {
            return ok_line(true, &payload);
        }
    }
    enum Role<'a> {
        Leader(SlotGuard<'a>, FlightGuard<'a>),
        Waiter(Arc<Inflight>),
    }
    let role = {
        let mut map = state.inflight.lock().unwrap();
        if let Some(flight) = map.get(&key) {
            Role::Waiter(Arc::clone(flight))
        } else {
            match SlotGuard::try_acquire(state) {
                None => {
                    state.count(CounterId::RequestsRejected, 1);
                    return r#"{"status":"busy"}"#.to_string();
                }
                Some(guard) => {
                    let flight = Arc::new(Inflight::default());
                    map.insert(key.clone(), Arc::clone(&flight));
                    let flight = FlightGuard {
                        state,
                        key: key.clone(),
                        flight,
                    };
                    Role::Leader(guard, flight)
                }
            }
        }
    };
    match role {
        Role::Waiter(flight) => {
            let outcome = flight.wait();
            // Prefer the committed store record so the replay serves the
            // exact stored bytes (and counts as the store hit it is).
            if let Some(payload) = state.store_lookup(&key) {
                return ok_line(true, &payload);
            }
            match outcome {
                Some(Ok(payload)) => ok_line(true, &payload),
                Some(Err(msg)) => error_line(&msg),
                None => error_line("deduplicated request timed out"),
            }
        }
        Role::Leader(guard, flight) => {
            // Close the lookup→insert race: a previous leader may have
            // committed between our store miss and winning the in-flight
            // slot. Re-checking here keeps "identical requests run one
            // simulation" exact, not just probable.
            if let Some(payload) = state.store_lookup(&key) {
                flight.finish(Ok(payload.clone()));
                drop(guard);
                return ok_line(true, &payload);
            }
            let store = state.cache.store();
            if store.is_some() {
                state.count(CounterId::StoreMisses, 1);
            }
            let outcome = job
                .run(&state.cache)
                .map_err(|e| e.to_string())
                .and_then(|out| payload(&out));
            if let (Ok(payload), Some(store)) = (&outcome, store) {
                if store.put(&key, payload.as_bytes()).is_err() {
                    state.store_put_errors.fetch_add(1, Relaxed);
                }
            }
            flight.finish(outcome.clone());
            drop(guard);
            match outcome {
                Ok(payload) => ok_line(false, &payload),
                Err(msg) => error_line(&msg),
            }
        }
    }
}

/// Serializes a job's output as `{"result":...,"trace":<deterministic
/// trace>}` — the unit the store persists and identical requests replay
/// byte-for-byte.
fn payload(out: &JobOutput) -> Result<String, String> {
    let trace_value = parse(&out.trace().to_json(TraceMode::Deterministic))
        .map_err(|e| format!("internal: trace serialization failed: {e}"))?;
    let payload = JsonValue::Object(vec![
        ("result".into(), out.result_json()),
        ("trace".into(), trace_value),
    ]);
    Ok(payload.to_compact())
}

/// Splices a stored/computed payload object into a response line without
/// re-serializing it — replays stay byte-identical by construction.
fn ok_line(cached: bool, payload: &str) -> String {
    debug_assert!(payload.starts_with('{') && payload.len() > 1);
    format!("{{\"status\":\"ok\",\"cached\":{cached},{}", &payload[1..])
}

fn error_line(msg: &str) -> String {
    JsonValue::Object(vec![
        ("status".into(), JsonValue::String("error".into())),
        ("error".into(), JsonValue::String(msg.into())),
    ])
    .to_compact()
}

fn store_stats_value(stats: StoreStats) -> JsonValue {
    JsonValue::Object(vec![
        (
            "live_records".into(),
            JsonValue::Number(stats.live_records as f64),
        ),
        (
            "dead_records".into(),
            JsonValue::Number(stats.dead_records as f64),
        ),
        (
            "conflicting_records".into(),
            JsonValue::Number(stats.conflicting_records as f64),
        ),
        (
            "corrupt_records".into(),
            JsonValue::Number(stats.corrupt_records as f64),
        ),
        (
            "log_bytes".into(),
            JsonValue::Number(stats.log_bytes as f64),
        ),
    ])
}

/// The status response: connection gauges, cache occupancy
/// ([`ScreeningCache::snapshot`]), store health, and the serve counters
/// as a validating schema-v6 trace report.
fn status_line(state: &ServerState) -> String {
    let mut counters = state.counter_snapshot();
    if let Some(store) = state.cache.store() {
        counters.add(
            CounterId::StoreCorruptRecords,
            store.stats().corrupt_records as u64,
        );
    }
    let mut report = TraceReport::new("mtk_serve");
    let mut phase = PhaseTrace::new("serve");
    phase.counters = counters;
    report.push_phase(phase);
    let trace = parse(&report.to_json(TraceMode::Deterministic)).unwrap_or(JsonValue::Null);
    let snap = state.cache.snapshot();
    let cache = JsonValue::Object(vec![
        ("legs".into(), JsonValue::Number(snap.legs as f64)),
        ("hits".into(), JsonValue::Number(snap.hits as f64)),
        ("misses".into(), JsonValue::Number(snap.misses as f64)),
        (
            "store_hits".into(),
            JsonValue::Number(snap.store_hits as f64),
        ),
        (
            "store_misses".into(),
            JsonValue::Number(snap.store_misses as f64),
        ),
        (
            "store_put_errors".into(),
            JsonValue::Number(snap.store_put_errors as f64),
        ),
    ]);
    let server = JsonValue::Object(vec![
        ("draining".into(), JsonValue::Bool(state.draining())),
        (
            "open_connections".into(),
            JsonValue::Number(state.open_connections() as f64),
        ),
        (
            "in_flight".into(),
            JsonValue::Number(state.inflight.lock().unwrap().len() as f64),
        ),
        (
            "job_slots_free".into(),
            JsonValue::Number(*state.slots_free.lock().unwrap() as f64),
        ),
        (
            "store_put_errors".into(),
            JsonValue::Number(state.store_put_errors.load(Relaxed) as f64),
        ),
        (
            "store".into(),
            state
                .cache
                .store()
                .map_or(JsonValue::Null, |s| store_stats_value(s.stats())),
        ),
        ("cache".into(), cache),
    ]);
    JsonValue::Object(vec![
        ("status".into(), JsonValue::String("ok".into())),
        ("server".into(), server),
        ("trace".into(), trace),
    ])
    .to_compact()
}

/// A minimal blocking client for tests, the `mtk client` subcommand,
/// and the CI smoke: one request line out, one response line back.
///
/// # Errors
///
/// Connection and i/o errors; a response without a newline within the
/// timeout is an error (the protocol is line-framed).
pub fn request(addr: &str, line: &str, timeout: Duration) -> std::io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut out = Vec::with_capacity(line.len() + 1);
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
    (&mut (&stream)).write_all(&out)?;
    let mut reader = LineReader::new(stream);
    match reader.read_line(64 * 1024 * 1024) {
        ReadOutcome::Line(l) => Ok(l.trim_end().to_string()),
        ReadOutcome::Eof => Err(std::io::Error::new(
            ErrorKind::UnexpectedEof,
            "server closed the connection before responding",
        )),
        ReadOutcome::Timeout => Err(std::io::Error::new(
            ErrorKind::TimedOut,
            "timed out waiting for the response line",
        )),
        ReadOutcome::TooLarge | ReadOutcome::Error => Err(std::io::Error::new(
            ErrorKind::InvalidData,
            "unreadable response",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> Arc<ServerState> {
        Server::bind(ServeConfig::default()).expect("bind").state()
    }

    /// A reader over one end of a loopback connection, and the other end.
    fn reader_pair() -> (LineReader, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.set_nodelay(true).unwrap();
        let (server, _) = listener.accept().unwrap();
        server
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        (LineReader::new(server), client)
    }

    fn line(outcome: ReadOutcome) -> String {
        match outcome {
            ReadOutcome::Line(l) => l,
            _ => panic!("expected a line"),
        }
    }

    #[test]
    fn a_line_split_across_many_small_writes_reads_whole() {
        let (mut reader, mut client) = reader_pair();
        let sent: String = (0..3000)
            .map(|i| char::from(b'a' + (i % 26) as u8))
            .collect();
        let bytes = format!("{sent}\n").into_bytes();
        let writer = std::thread::spawn(move || {
            for piece in bytes.chunks(97) {
                client.write_all(piece).unwrap();
                std::thread::sleep(Duration::from_micros(200));
            }
            client
        });
        assert_eq!(line(reader.read_line(4000)), format!("{sent}\n"));
        drop(writer.join().unwrap());
        assert!(matches!(reader.read_line(4000), ReadOutcome::Eof));
    }

    #[test]
    fn two_requests_in_one_write_are_two_lines() {
        let (mut reader, mut client) = reader_pair();
        // The first line's read leaves the second, and part of a third,
        // buffered; each is searched from its own start.
        client
            .write_all(b"{\"cmd\":\"status\"}\nsecond\nthi")
            .unwrap();
        assert_eq!(line(reader.read_line(64)), "{\"cmd\":\"status\"}\n");
        assert_eq!(line(reader.read_line(64)), "second\n");
        client.write_all(b"rd\n").unwrap();
        assert_eq!(line(reader.read_line(64)), "third\n");
        drop(client);
        assert!(matches!(reader.read_line(64), ReadOutcome::Eof));
    }

    #[test]
    fn invalid_utf8_reads_as_its_lossy_form() {
        let (mut reader, mut client) = reader_pair();
        let sent = b"ok \xff\xfe bad \xe2\x82 end\n";
        client.write_all(sent).unwrap();
        client.write_all("\u{20ac}\n".as_bytes()).unwrap();
        assert_eq!(
            line(reader.read_line(64)),
            String::from_utf8_lossy(sent).into_owned()
        );
        assert_eq!(line(reader.read_line(64)), "\u{20ac}\n");
    }

    #[test]
    fn a_panicking_connection_releases_its_count() {
        let state = state();
        let conn = ConnGuard::open(&state);
        assert_eq!(state.open_connections(), 1);
        let crashed = std::thread::spawn(move || {
            let _conn = conn;
            panic!("job panicked");
        })
        .join();
        assert!(crashed.is_err());
        assert_eq!(state.open_connections(), 0, "the drain can finish");
    }

    #[test]
    fn a_panicking_leader_clears_its_flight_and_wakes_waiters() {
        let state = state();
        let key = b"req".to_vec();
        let flight = Arc::new(Inflight::default());
        lock(&state.inflight).insert(key.clone(), Arc::clone(&flight));
        let leader = Arc::clone(&state);
        let waiter = Arc::clone(&flight);
        let crashed = std::thread::spawn(move || {
            let _flight = FlightGuard {
                state: &leader,
                key,
                flight: waiter,
            };
            panic!("job panicked");
        })
        .join();
        assert!(crashed.is_err());
        assert!(lock(&state.inflight).is_empty(), "status shows 0 in flight");
        assert!(
            matches!(flight.wait(), Some(Err(_))),
            "waiters get an error"
        );
    }
}
