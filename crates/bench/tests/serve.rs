//! Wire-protocol contract of `mtk serve` (ISSUE 7 satellite): malformed
//! JSON, oversized requests, half-open connections, bounded
//! backpressure, concurrent identical requests deduped to one
//! simulation, store-hit replays byte-identical, and graceful drain.

use mtk_bench::serve::{request, ServeConfig, Server, ServerState};
use mtk_trace::json::{parse, JsonValue};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A two-inverter chain with one file vector — small enough that every
/// job completes in milliseconds.
const CHAIN: &str = "mtk 1\ncircuit chain\ntech l07\nnet a\nnet m\nnet y cap=2e-14\n\
                     input a\noutput y\ncell i1 inv a -> m\ncell i2 inv m -> y\n\
                     vector 0 -> 1\nend\n";

const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mtk_serve_{}_{name}.log", std::process::id()))
}

struct Cleanup(std::path::PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let mut lock = self.0.clone().into_os_string();
        lock.push(".lock");
        let _ = std::fs::remove_file(std::path::PathBuf::from(lock));
    }
}

/// Binds a server with `cfg`, runs it on a background thread, and
/// returns (addr, state, join handle).
fn start(cfg: ServeConfig) -> (String, Arc<ServerState>, std::thread::JoinHandle<()>) {
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let state = server.state();
    let handle = std::thread::spawn(move || server.run().expect("run"));
    (addr, state, handle)
}

fn job_line(cmd: &str, extra: &str) -> String {
    let design = JsonValue::String(CHAIN.into()).to_compact();
    format!("{{\"cmd\":\"{cmd}\",\"design\":{design}{extra}}}")
}

/// Reads `trace.totals.counters.<name>` out of a status response.
fn counter(status: &str, name: &str) -> u64 {
    parse(status)
        .expect("status parses")
        .get("trace")
        .and_then(|t| t.get("totals"))
        .and_then(|t| t.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("counter {name} missing in {status}"))
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<()>) {
    let resp = request(addr, r#"{"cmd":"shutdown"}"#, CLIENT_TIMEOUT).expect("shutdown");
    assert!(resp.contains("\"draining\":true"), "{resp}");
    handle.join().expect("drained cleanly");
}

#[test]
fn identical_requests_replay_byte_identical_from_the_store() {
    let path = scratch("replay");
    let _c = Cleanup(path.clone());
    let (addr, _state, handle) = start(ServeConfig {
        store_path: Some(path.clone()),
        ..ServeConfig::default()
    });

    let line = job_line("hybrid", ",\"top_k\":4");
    let first = request(&addr, &line, CLIENT_TIMEOUT).expect("first");
    assert!(first.contains("\"status\":\"ok\""), "{first}");
    assert!(first.contains("\"cached\":false"), "{first}");
    assert!(first.contains("\"trace\":"), "{first}");

    // Same request again: a store hit whose payload is byte-identical.
    let second = request(&addr, &line, CLIENT_TIMEOUT).expect("second");
    assert!(second.contains("\"cached\":true"), "{second}");
    assert_eq!(
        second.replacen("\"cached\":true", "\"cached\":false", 1),
        first,
        "store replay must be byte-identical apart from the cached flag"
    );

    // The `threads` field is execution-only: a different thread count is
    // the same request and hits the same record.
    let threaded = request(
        &addr,
        &job_line("hybrid", ",\"top_k\":4,\"threads\":8"),
        CLIENT_TIMEOUT,
    )
    .expect("threaded");
    assert_eq!(
        threaded.replacen("\"cached\":true", "\"cached\":false", 1),
        first,
        "thread count must not key the store"
    );

    let status = request(&addr, r#"{"cmd":"status"}"#, CLIENT_TIMEOUT).expect("status");
    assert_eq!(counter(&status, "store_misses"), 1, "one simulation");
    assert_eq!(counter(&status, "store_hits"), 2, "two replays");
    shutdown(&addr, handle);

    // The log survives the server: a fresh one replays without work.
    let (addr2, _state2, handle2) = start(ServeConfig {
        store_path: Some(path),
        ..ServeConfig::default()
    });
    let revived = request(&addr2, &line, CLIENT_TIMEOUT).expect("revived");
    assert_eq!(
        revived.replacen("\"cached\":true", "\"cached\":false", 1),
        first,
        "replay must survive a server restart"
    );
    let status2 = request(&addr2, r#"{"cmd":"status"}"#, CLIENT_TIMEOUT).expect("status2");
    assert_eq!(counter(&status2, "store_misses"), 0);
    shutdown(&addr2, handle2);
}

/// `CHAIN` spelled differently, parsing to the same design: the server
/// must key it by its canonical text.
fn non_canonical(design: &str) -> String {
    let text = design.replace("net a\n", "# the input\nnet   a\n");
    assert_ne!(text, design);
    text
}

/// A job request over an explicit design text.
fn job_line_for(cmd: &str, design: &str, extra: &str) -> String {
    let design = JsonValue::String(design.into()).to_compact();
    format!("{{\"cmd\":\"{cmd}\",\"design\":{design}{extra}}}")
}

/// The canonical text of `CHAIN`, as `mtk client` would send it.
fn canonical_chain() -> String {
    mtk_fe::parse_str(CHAIN, "chain").expect("parses").to_mtk()
}

#[test]
fn a_non_canonical_warm_request_replays_through_the_slow_path() {
    let path = scratch("noncanonical");
    let _c = Cleanup(path.clone());
    let (addr, _state, handle) = start(ServeConfig {
        store_path: Some(path.clone()),
        ..ServeConfig::default()
    });
    let canonical = canonical_chain();
    let first = request(
        &addr,
        &job_line_for("screen", &canonical, ""),
        CLIENT_TIMEOUT,
    )
    .expect("first");
    assert!(first.contains("\"cached\":false"), "{first}");
    let line = job_line_for("screen", &non_canonical(&canonical), "");
    let warm = request(&addr, &line, CLIENT_TIMEOUT).expect("warm");
    let cached = first.replacen("\"cached\":false", "\"cached\":true", 1);
    assert_eq!(
        warm, cached,
        "a non-canonical text of a stored design replays the stored bytes"
    );
    shutdown(&addr, handle);
    // The store tier comes before the job slots on both paths: a server
    // with no free slot still replays either spelling.
    let (addr, _state, handle) = start(ServeConfig {
        job_slots: 0,
        store_path: Some(path),
        ..ServeConfig::default()
    });
    for design in [canonical.clone(), non_canonical(&canonical)] {
        let line = job_line_for("screen", &design, "");
        let resp = request(&addr, &line, CLIENT_TIMEOUT).expect("replay");
        assert_eq!(resp, cached, "no slot is needed for a store hit");
    }
    shutdown(&addr, handle);
}

#[test]
fn store_counters_match_the_slow_path_for_cold_warm_and_non_canonical_requests() {
    let path = scratch("counts");
    let _c = Cleanup(path.clone());
    let (addr, _state, handle) = start(ServeConfig {
        store_path: Some(path),
        ..ServeConfig::default()
    });
    let canonical = canonical_chain();
    let counts = |addr: &str| {
        let status = request(addr, r#"{"cmd":"status"}"#, CLIENT_TIMEOUT).expect("status");
        (
            counter(&status, "store_hits"),
            counter(&status, "store_misses"),
        )
    };
    // (design, options, cached, store hits and misses after it) — the
    // counts a server that parses every request reports.
    let steps = [
        (canonical.clone(), ",\"target\":0.08", false, (0, 1)),
        (canonical.clone(), ",\"target\":0.08", true, (1, 1)),
        (non_canonical(&canonical), ",\"target\":0.08", true, (2, 1)),
        (non_canonical(&canonical), ",\"target\":0.09", false, (2, 2)),
        (canonical.clone(), ",\"target\":0.09", true, (3, 2)),
        (non_canonical(&canonical), ",\"target\":0.09", true, (4, 2)),
    ];
    for (design, extra, cached, want) in steps {
        let resp =
            request(&addr, &job_line_for("size", &design, extra), CLIENT_TIMEOUT).expect("size");
        assert!(
            resp.contains(&format!("\"cached\":{cached}")),
            "{extra}: {resp}"
        );
        assert_eq!(counts(&addr), want, "{extra}, cached {cached}");
    }
    shutdown(&addr, handle);
}

#[test]
fn a_malformed_design_with_a_bad_option_answers_the_design_error() {
    let path = scratch("malformed");
    let _c = Cleanup(path.clone());
    let (addr, _state, handle) = start(ServeConfig {
        store_path: Some(path),
        ..ServeConfig::default()
    });
    for (line, want) in [
        (
            r#"{"cmd":"size","design":"mtk 1\nnot a design\nend\n","target":"x","threads":-3}"#,
            r#"{"status":"error","error":"<request>:2:1: error[E003]: unknown directive `not`; did you mean `net`?"}"#,
        ),
        (
            r#"{"cmd":"hybrid","design":"mtk 1\ncircuit c\nnet a\ncell x bogus a -> a\nend\n","lo":0}"#,
            r#"{"status":"error","error":"<request>:4:8: error[E007]: unknown cell kind `bogus`"}"#,
        ),
    ] {
        assert_eq!(
            request(&addr, line, CLIENT_TIMEOUT).expect("responds"),
            want
        );
    }
    let status = request(&addr, r#"{"cmd":"status"}"#, CLIENT_TIMEOUT).expect("status");
    assert_eq!(counter(&status, "requests_rejected"), 2);
    assert_eq!(counter(&status, "store_hits"), 0);
    shutdown(&addr, handle);
}

#[test]
fn a_draining_server_answers_a_warm_request_busy() {
    let path = scratch("drainwarm");
    let _c = Cleanup(path.clone());
    let (addr, state, handle) = start(ServeConfig {
        store_path: Some(path),
        ..ServeConfig::default()
    });
    let line = job_line_for("screen", &canonical_chain(), "");
    let first = request(&addr, &line, CLIENT_TIMEOUT).expect("first");
    assert!(first.contains("\"cached\":false"), "{first}");
    // A connection opened before the drain is still served, and a job
    // on it is refused even when the store holds its answer.
    let conn = TcpStream::connect(&addr).expect("connect");
    conn.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    let mut reader = std::io::BufReader::new(conn.try_clone().expect("clone"));
    let mut ask = |line: &str| {
        (&conn)
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut resp = String::new();
        std::io::BufRead::read_line(&mut reader, &mut resp).expect("response");
        resp.trim_end().to_string()
    };
    assert!(ask(r#"{"cmd":"status"}"#).starts_with(r#"{"status":"ok""#));
    state.request_drain();
    assert_eq!(ask(&line), r#"{"status":"busy"}"#);
    drop(reader);
    drop(conn);
    handle.join().expect("drained cleanly");
}

#[test]
fn trace_is_byte_identical_at_any_thread_count() {
    // Three independent stores, same request at threads 1/2/8: each
    // server simulates once, and the deterministic payloads must agree
    // byte for byte (the workspace determinism contract, over the wire).
    let mut responses = Vec::new();
    for threads in [1usize, 2, 8] {
        let path = scratch(&format!("threads{threads}"));
        let _c = Cleanup(path.clone());
        let (addr, _state, handle) = start(ServeConfig {
            store_path: Some(path),
            ..ServeConfig::default()
        });
        let line = job_line("screen", &format!(",\"threads\":{threads}"));
        responses.push(request(&addr, &line, CLIENT_TIMEOUT).expect("screen"));
        shutdown(&addr, handle);
    }
    assert!(responses[0].contains("\"cached\":false"));
    assert_eq!(responses[0], responses[1], "threads 1 vs 2");
    assert_eq!(responses[0], responses[2], "threads 1 vs 8");
}

#[test]
fn concurrent_identical_requests_dedup_to_one_simulation() {
    let path = scratch("dedup");
    let _c = Cleanup(path.clone());
    let (addr, _state, handle) = start(ServeConfig {
        job_slots: 4,
        store_path: Some(path),
        ..ServeConfig::default()
    });
    let line = job_line("size", ",\"target\":0.08");
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let line = line.clone();
            std::thread::spawn(move || request(&addr, &line, CLIENT_TIMEOUT).expect("job"))
        })
        .collect();
    let responses: Vec<String> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    let normalized: Vec<String> = responses
        .iter()
        .map(|r| r.replacen("\"cached\":true", "\"cached\":false", 1))
        .collect();
    for r in &normalized[1..] {
        assert_eq!(r, &normalized[0], "deduped responses must agree");
    }
    let status = request(&addr, r#"{"cmd":"status"}"#, CLIENT_TIMEOUT).expect("status");
    assert_eq!(
        counter(&status, "store_misses"),
        1,
        "exactly one simulation for four identical concurrent requests"
    );
    assert_eq!(
        responses
            .iter()
            .filter(|r| r.contains("\"cached\":false"))
            .count(),
        1,
        "exactly one leader"
    );
    shutdown(&addr, handle);
}

#[test]
fn clustered_and_flat_requests_never_alias_in_the_store() {
    let path = scratch("alias");
    let _c = Cleanup(path.clone());
    let (addr, _state, handle) = start(ServeConfig {
        store_path: Some(path),
        ..ServeConfig::default()
    });

    // Same design, same target: a flat `size` and a clustered request
    // must key separate store records.
    let size_line = job_line("size", ",\"target\":0.08");
    let cluster_line = job_line("cluster", ",\"target\":0.08,\"clusters\":4");
    let size1 = request(&addr, &size_line, CLIENT_TIMEOUT).expect("size");
    assert!(size1.contains("\"status\":\"ok\""), "{size1}");
    assert!(size1.contains("\"cached\":false"), "{size1}");
    let cluster1 = request(&addr, &cluster_line, CLIENT_TIMEOUT).expect("cluster");
    assert!(cluster1.contains("\"status\":\"ok\""), "{cluster1}");
    assert!(
        cluster1.contains("\"cached\":false"),
        "a cluster request must never replay a size record: {cluster1}"
    );
    assert!(cluster1.contains("\"clustered_width\":"), "{cluster1}");

    // Reruns hit their *own* records, byte-identical.
    for (line, first) in [(&size_line, &size1), (&cluster_line, &cluster1)] {
        let again = request(&addr, line, CLIENT_TIMEOUT).expect("rerun");
        assert_eq!(
            &again.replacen("\"cached\":true", "\"cached\":false", 1),
            first,
            "rerun must replay its own record byte-identically"
        );
    }

    // The cluster cap is part of the key: a different `clusters` value
    // is a different job, not a replay.
    let recapped = request(
        &addr,
        &job_line("cluster", ",\"target\":0.08,\"clusters\":2"),
        CLIENT_TIMEOUT,
    )
    .expect("recapped");
    assert!(recapped.contains("\"cached\":false"), "{recapped}");

    let status = request(&addr, r#"{"cmd":"status"}"#, CLIENT_TIMEOUT).expect("status");
    assert_eq!(counter(&status, "store_misses"), 3, "three distinct jobs");
    assert_eq!(counter(&status, "store_hits"), 2, "two replays");
    shutdown(&addr, handle);
}

#[test]
fn malformed_and_unknown_requests_are_rejected() {
    let (addr, _state, handle) = start(ServeConfig::default());
    let bad = [
        "this is not json",
        r#"{"cmd":"explode"}"#,
        r#"{"cmd":"screen"}"#,
        r#"{"cmd":"screen","design":"mtk 1\nnot a design\nend\n"}"#,
        r#"{"cmd":"size","design":"","target":"not a number"}"#,
    ];
    for line in bad {
        let resp = request(&addr, line, CLIENT_TIMEOUT).expect("responds");
        assert!(resp.contains("\"status\":\"error\""), "{line} -> {resp}");
    }
    let status = request(&addr, r#"{"cmd":"status"}"#, CLIENT_TIMEOUT).expect("status");
    assert_eq!(counter(&status, "requests_rejected"), bad.len() as u64);
    // A rejected request must not poison the connection for valid ones:
    // errors and a success can share one connection (exercised via the
    // single-request client repeatedly above) — and the server still
    // serves jobs.
    let ok = request(&addr, &job_line("screen", ""), CLIENT_TIMEOUT).expect("screen");
    assert!(ok.contains("\"status\":\"ok\""), "{ok}");
    shutdown(&addr, handle);
}

#[test]
fn a_bad_sizing_bracket_is_an_error_response_not_a_wedged_server() {
    let (addr, _state, handle) = start(ServeConfig::default());
    for (cmd, bracket) in [
        ("size", ",\"lo\":0"),
        ("size", ",\"lo\":50,\"hi\":10"),
        ("cluster", ",\"lo\":-1"),
        ("hybrid", ",\"lo\":5,\"hi\":5"),
    ] {
        let resp = request(&addr, &job_line(cmd, bracket), CLIENT_TIMEOUT).expect("responds");
        assert!(
            resp.contains("\"status\":\"error\""),
            "{cmd}{bracket} -> {resp}"
        );
        assert!(resp.contains("0 < lo < hi"), "{resp}");
    }
    // Nothing is left holding a connection or an in-flight entry: once
    // the earlier connections finish closing, only the status request's
    // own connection is open. A wedged one never closes, and fails the
    // deadline.
    let deadline = Instant::now() + Duration::from_secs(5);
    let status = loop {
        let status = request(&addr, r#"{"cmd":"status"}"#, CLIENT_TIMEOUT).expect("status");
        let server = parse(&status).expect("parses");
        let gauge = |name: &str| {
            server
                .get("server")
                .and_then(|s| s.get(name))
                .and_then(JsonValue::as_u64)
        };
        if gauge("open_connections") == Some(1) && gauge("in_flight") == Some(0) {
            break status;
        }
        assert!(Instant::now() < deadline, "still open: {status}");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(counter(&status, "requests_rejected"), 4);
    // And the drain finishes.
    shutdown(&addr, handle);
}

#[test]
fn a_non_positive_sleep_size_is_an_error_response_on_a_live_connection() {
    let (addr, _state, handle) = start(ServeConfig::default());
    let conn = TcpStream::connect(&addr).expect("connect");
    conn.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    let mut reader = std::io::BufReader::new(conn.try_clone().expect("clone"));
    let mut ask = |line: &str| {
        (&conn)
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut resp = String::new();
        std::io::BufRead::read_line(&mut reader, &mut resp).expect("response");
        resp
    };
    for (cmd, w) in [("screen", "0"), ("hybrid", "0"), ("screen", "-2")] {
        let resp = ask(&job_line(cmd, &format!(",\"w_over_l\":{w}")));
        assert!(resp.contains("\"status\":\"error\""), "{cmd} {w} -> {resp}");
        assert!(resp.contains("finite and positive"), "{resp}");
        // The same connection still answers.
        let status = ask(r#"{"cmd":"status"}"#);
        assert!(status.starts_with(r#"{"status":"ok""#), "{status}");
    }
    drop(reader);
    drop(conn);
    shutdown(&addr, handle);
}

#[test]
fn oversized_request_is_rejected_and_the_connection_closed() {
    let (addr, _state, handle) = start(ServeConfig {
        max_request_bytes: 1024,
        ..ServeConfig::default()
    });
    let huge = format!("{{\"cmd\":\"screen\",\"design\":\"{}\"}}", "x".repeat(4096));
    let resp = request(&addr, &huge, CLIENT_TIMEOUT).expect("responds");
    assert!(resp.contains("request too large"), "{resp}");
    let status = request(&addr, r#"{"cmd":"status"}"#, CLIENT_TIMEOUT).expect("status");
    assert_eq!(counter(&status, "requests_rejected"), 1);
    shutdown(&addr, handle);
}

/// A `status` request line of exactly `len` bytes, newline excluded.
fn status_of_len(len: usize) -> String {
    let bare = r#"{"cmd":"status","pad":""}"#;
    format!(
        r#"{{"cmd":"status","pad":"{}"}}"#,
        "x".repeat(len - bare.len())
    )
}

/// Sends `line` and its newline on a new connection, split into writes
/// at the byte offsets `cuts`, and returns the response line. A server
/// may answer an oversized line before its end arrives and close the
/// connection, so a failed write ends the sending.
fn send_in_pieces(addr: &str, line: &str, cuts: &[usize]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    let bytes = format!("{line}\n").into_bytes();
    let mut from = 0;
    for &cut in cuts.iter().chain([&bytes.len()]) {
        if stream.write_all(&bytes[from..cut]).is_err() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
        from = cut;
    }
    let mut response = Vec::new();
    let mut byte = [0u8; 1];
    while matches!(stream.read(&mut byte), Ok(1)) && byte[0] != b'\n' {
        response.push(byte[0]);
    }
    String::from_utf8(response).expect("utf-8 response")
}

#[test]
fn a_request_over_the_cap_is_rejected_wherever_the_reads_split_it() {
    const CAP: usize = 1024;
    let (addr, _state, handle) = start(ServeConfig {
        max_request_bytes: CAP,
        ..ServeConfig::default()
    });
    let small_pieces: Vec<usize> = (1..20).map(|i| i * 100).collect();
    let splits: [&[usize]; 5] = [&[], &[1000], &[CAP], &[CAP + 1], &small_pieces];
    let mut rejected = 0;
    for len in [CAP - 1, CAP, CAP + 1, 2025] {
        for cuts in splits {
            let cuts: Vec<usize> = cuts.iter().copied().filter(|&c| c < len).collect();
            let resp = send_in_pieces(&addr, &status_of_len(len), &cuts);
            if len > CAP {
                assert!(
                    resp.contains("request too large"),
                    "{len} bytes cut at {cuts:?}: {resp}"
                );
                rejected += 1;
            } else {
                assert!(
                    resp.starts_with(r#"{"status":"ok","server""#),
                    "{len} bytes cut at {cuts:?}: {resp}"
                );
            }
        }
    }
    let status = request(&addr, r#"{"cmd":"status"}"#, CLIENT_TIMEOUT).expect("status");
    assert_eq!(counter(&status, "requests_rejected"), rejected);
    shutdown(&addr, handle);
}

#[test]
fn half_open_connection_times_out_and_is_counted() {
    let (addr, _state, handle) = start(ServeConfig {
        read_timeout: Duration::from_millis(150),
        ..ServeConfig::default()
    });
    // A client that sends half a request and stalls.
    let mut stalled = TcpStream::connect(&addr).expect("connect");
    stalled
        .write_all(b"{\"cmd\":\"status\"")
        .expect("partial write");
    // The server must drop us after its read timeout.
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 16];
    match stalled.read(&mut buf) {
        Ok(0) | Err(_) => {} // orderly FIN or reset — both are "dropped"
        Ok(n) => panic!("half-open connection must be closed, got {n} bytes"),
    }
    let status = request(&addr, r#"{"cmd":"status"}"#, CLIENT_TIMEOUT).expect("status");
    assert_eq!(counter(&status, "conn_timeouts"), 1);
    shutdown(&addr, handle);
}

#[test]
fn backpressure_is_an_explicit_busy_response() {
    let (addr, _state, handle) = start(ServeConfig {
        job_slots: 0,
        ..ServeConfig::default()
    });
    let resp = request(&addr, &job_line("screen", ""), CLIENT_TIMEOUT).expect("responds");
    assert_eq!(resp, r#"{"status":"busy"}"#);
    let status = request(&addr, r#"{"cmd":"status"}"#, CLIENT_TIMEOUT).expect("status");
    assert_eq!(counter(&status, "requests_rejected"), 1);
    // status/shutdown need no slot — the control plane stays responsive.
    shutdown(&addr, handle);
}

#[test]
fn drain_refuses_new_connections_and_run_returns() {
    let (addr, state, handle) = start(ServeConfig::default());
    assert!(!state.draining());
    shutdown(&addr, handle); // joins run(): drained and returned
    assert!(state.draining());
    // New connections are refused once drained (the listener is gone).
    let refused = TcpStream::connect(&addr);
    assert!(refused.is_err(), "listener must be closed after drain");
}

/// Runs `server` on a thread; the receiver gets `run()`'s result once
/// it returns.
fn run_in_background(server: Server) -> mpsc::Receiver<std::io::Result<()>> {
    let (done, returned) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(server.run());
    });
    returned
}

/// Asserts that `run()` returns cleanly within a deadline: a drain whose
/// wake is lost leaves the accept loop blocked, and fails here instead
/// of hanging the suite.
fn assert_returns(returned: &mpsc::Receiver<std::io::Result<()>>) {
    match returned.recv_timeout(Duration::from_secs(10)) {
        Ok(result) => result.expect("run() returns Ok"),
        Err(_) => panic!("run() still blocked 10 s after the drain request"),
    }
}

/// Gives a freshly started `run()` time to block in `accept`, so the
/// drain that follows has to wake it. The tests hold without the pause;
/// they would only test the simpler path.
fn let_it_block() {
    std::thread::sleep(Duration::from_millis(50));
}

#[test]
fn request_drain_wakes_an_idle_server() {
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let state = server.state();
    let returned = run_in_background(server);
    let_it_block();
    state.request_drain();
    assert_returns(&returned);
}

#[test]
fn a_shutdown_request_wakes_the_accept_loop() {
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let returned = run_in_background(server);
    let_it_block();
    let resp = request(&addr, r#"{"cmd":"shutdown"}"#, CLIENT_TIMEOUT).expect("shutdown");
    assert!(resp.contains("\"draining\":true"), "{resp}");
    assert_returns(&returned);
}

#[test]
fn a_drain_requested_before_run_returns_at_once_unserved() {
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr");
    server.state().request_drain();
    // A client already queued on the listener is never served.
    let mut client = TcpStream::connect(addr).expect("connect");
    client.write_all(b"{\"cmd\":\"status\"}\n").expect("send");
    let returned = run_in_background(server);
    assert_returns(&returned);
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 16];
    match client.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("a draining server must not answer, got {n} bytes"),
    }
}

#[test]
fn a_server_bound_to_the_unspecified_address_wakes_through_loopback() {
    let server = Server::bind(ServeConfig {
        addr: "0.0.0.0:0".into(),
        ..ServeConfig::default()
    })
    .expect("bind");
    let port = server.local_addr().expect("addr").port();
    let state = server.state();
    let returned = run_in_background(server);
    let status = request(
        &format!("127.0.0.1:{port}"),
        r#"{"cmd":"status"}"#,
        CLIENT_TIMEOUT,
    )
    .expect("status");
    assert!(status.starts_with(r#"{"status":"ok""#), "{status}");
    let_it_block();
    state.request_drain();
    assert_returns(&returned);
}

#[test]
fn status_reports_cache_and_store_health() {
    let path = scratch("status");
    let _c = Cleanup(path.clone());
    let (addr, _state, handle) = start(ServeConfig {
        store_path: Some(path),
        ..ServeConfig::default()
    });
    // A size job populates the shared screening cache through the store.
    let resp = request(&addr, &job_line("size", ""), CLIENT_TIMEOUT).expect("size");
    assert!(resp.contains("\"w_over_l\":"), "{resp}");
    let status = request(&addr, r#"{"cmd":"status"}"#, CLIENT_TIMEOUT).expect("status");
    let v = parse(&status).expect("parses");
    let server = v.get("server").expect("server section");
    let cache = server.get("cache").expect("cache section");
    assert!(
        cache.get("legs").and_then(JsonValue::as_u64).unwrap() > 0,
        "size job must populate the screening cache: {status}"
    );
    assert!(
        server
            .get("store")
            .and_then(|s| s.get("live_records"))
            .and_then(JsonValue::as_u64)
            .unwrap()
            > 0,
        "store must hold the request and leg records: {status}"
    );
    assert_eq!(
        server
            .get("store")
            .and_then(|s| s.get("corrupt_records"))
            .and_then(JsonValue::as_u64),
        Some(0)
    );
    shutdown(&addr, handle);
}
