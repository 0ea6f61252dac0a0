//! `serve-mix`: an in-process `mtk serve` on loopback with a store, and
//! two closed-loop clients sending a seeded request mix, one connection
//! per request as `mtk client` does.
//!
//! The mix: 60 % `small` (warm adder3 screen), 20 % `large` (warm mul16
//! screen, a 110 KB request line), 15 % `cold` (adder3 screen at a W/L
//! never sent before: simulates, then puts with fsync), 5 % `status`.
//! Warm keys are primed at set-up. One operation of the measured window
//! is a block of 20 requests in this mix from one client, so its latency
//! carries every kind of request; each request's latency is printed per
//! kind.

use super::Workload;
use crate::run::{paired, Ctx, Failure, TraceRun, Window};
use crate::stats::describe_ms;
use crate::util::{golden, secs, ScratchDir};
use mtk_bench::design_transitions;
use mtk_bench::serve::{request, ServeConfig, Server, ServerState};
use mtk_core::health::{FailurePolicy, FaultPlan};
use mtk_core::sizing::screen_vectors_par_quarantined;
use mtk_core::vbsim::VbsimOptions;
use mtk_num::prng::Xoshiro256pp;
use mtk_store::Store;
use mtk_trace::json::{parse, JsonValue};
use mtk_trace::{SpanRecorder, TraceMode, TraceReport};
use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const TIMEOUT: Duration = Duration::from_secs(60);
const SMALL_STRIDE: usize = 16;
const LARGE_SAMPLES: usize = 16;
/// FNV of the primed `small` and `large` `result` objects; the same for
/// every seed, since the seed only picks the mix.
const RESULTS_ANY_SEED: u64 = 0x3b7b_4b1d_63ae_fc29;
/// Cold requests re-sent after the window to check the store replay.
const REPLAY_CHECKS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Small,
    Large,
    Cold,
    Status,
}

const KINDS: [(Kind, &str); 4] = [
    (Kind::Small, "small"),
    (Kind::Large, "large"),
    (Kind::Cold, "cold"),
    (Kind::Status, "status"),
];

/// One block of the mix, and the unit of a client's work: 12 small, 4
/// large, 3 cold, 1 status. The seed shuffles each block, so every run
/// sends the same mix in its own order.
const BLOCK: [Kind; 20] = {
    use Kind::*;
    [
        Small, Small, Small, Small, Small, Small, Small, Small, Small, Small, Small, Small, //
        Large, Large, Large, Large, Cold, Cold, Cold, Status,
    ]
};

/// Block `b` of client `c`, shuffled by stream `(seed, c·2³² + b)`.
fn block(seed: u64, c: usize, b: usize) -> [Kind; 20] {
    let mut rng = Xoshiro256pp::stream(seed, ((c as u64) << 32) + b as u64);
    let mut order = BLOCK;
    for i in (1..order.len()).rev() {
        order.swap(i, rng.next_index(i + 1));
    }
    order
}

/// The kind of client `c`'s request `k`.
fn draw(seed: u64, c: usize, k: usize) -> Kind {
    block(seed, c, k / BLOCK.len())[k % BLOCK.len()]
}

/// A `screen` request line.
pub fn screen_line(design: &str, w_over_l: f64, extra: (&str, usize)) -> String {
    JsonValue::Object(vec![
        ("cmd".into(), JsonValue::String("screen".into())),
        ("design".into(), JsonValue::String(design.into())),
        ("w_over_l".into(), JsonValue::Number(w_over_l)),
        (extra.0.into(), JsonValue::Number(extra.1 as f64)),
    ])
    .to_compact()
}

/// What the server answers a computed request with, as replayed from
/// the store.
fn as_cached(computed: &str) -> String {
    computed.replacen(r#""cached":false"#, r#""cached":true"#, 1)
}

/// A running server and the thread driving its accept loop.
struct Running {
    addr: String,
    state: Arc<ServerState>,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    store: PathBuf,
}

impl Drop for Running {
    fn drop(&mut self) {
        self.state.request_drain();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// What one client of the measured window did.
#[derive(Default)]
struct Client {
    blocks: Vec<f64>,
    requests: Vec<(Kind, f64, Result<(), Failure>)>,
    colds: Vec<(String, String)>,
}

pub struct ServeMix {
    seed: u64,
    adder3: String,
    small: String,
    large: String,
    /// Computed (uncached) responses of the primed requests.
    small_computed: String,
    large_computed: String,
    /// W/L counter making every cold request new to the store.
    cold_seq: AtomicU64,
    server: Running,
}

impl ServeMix {
    pub fn setup(ctx: &Ctx, scratch: &ScratchDir) -> Result<ServeMix, String> {
        let adder3 = golden("adder3")?.text;
        let small = screen_line(&adder3, 10.0, ("stride", SMALL_STRIDE));
        let large = screen_line(&golden("mul16")?.text, 10.0, ("samples", LARGE_SAMPLES));
        let store = scratch.join("serve.store");
        let server = Server::bind(ServeConfig {
            threads: 1,
            job_slots: 2,
            store_path: Some(store.clone()),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let state = server.state();
        let running = Running {
            addr,
            state,
            thread: Some(std::thread::spawn(move || server.run())),
            store,
        };
        let prime = |line: &str| -> Result<String, String> {
            let resp = request(&running.addr, line, TIMEOUT).map_err(|e| e.to_string())?;
            if resp.starts_with(r#"{"status":"ok","cached":false,"#) {
                Ok(resp)
            } else {
                Err(format!("priming got {}", &resp[..resp.len().min(200)]))
            }
        };
        Ok(ServeMix {
            seed: ctx.seed,
            small_computed: prime(&small)?,
            large_computed: prime(&large)?,
            adder3,
            small,
            large,
            cold_seq: AtomicU64::new(0),
            server: running,
        })
    }

    /// The request line of one operation; cold lines carry a fresh W/L.
    fn line(&self, kind: Kind) -> String {
        match kind {
            Kind::Small => self.small.clone(),
            Kind::Large => self.large.clone(),
            Kind::Status => r#"{"cmd":"status"}"#.into(),
            Kind::Cold => {
                let n = self.cold_seq.fetch_add(1, Relaxed);
                screen_line(
                    &self.adder3,
                    20.0 + n as f64 / 1024.0,
                    ("stride", SMALL_STRIDE),
                )
            }
        }
    }

    /// Sends one request and checks the response; returns the response.
    fn send(&self, kind: Kind, line: &str) -> Result<String, Failure> {
        let resp = request(&self.server.addr, line, TIMEOUT)
            .map_err(|e| Failure::Failed(format!("request: {e}")))?;
        let head = &resp[..resp.len().min(120)];
        if !resp.starts_with(r#"{"status":"ok""#) {
            return Err(Failure::Failed(format!("response {head}")));
        }
        let ok = match kind {
            Kind::Small => resp == as_cached(&self.small_computed),
            Kind::Large => resp == as_cached(&self.large_computed),
            Kind::Cold => resp.starts_with(r#"{"status":"ok","cached":false,"#),
            Kind::Status => true,
        };
        if ok {
            Ok(resp)
        } else {
            Err(Failure::Mismatch(format!("{kind:?} response {head}")))
        }
    }

    /// One closed-loop client sending whole blocks until `deadline`:
    /// each block's latency, each request's kind, latency and result,
    /// and the first few cold (line, response) pairs for the replay
    /// check.
    fn client(&self, c: usize, deadline: Instant) -> Client {
        let mut out = Client::default();
        for b in 0.. {
            let t_block = Instant::now();
            for kind in block(self.seed, c, b) {
                let line = self.line(kind);
                let t = Instant::now();
                let result = self.send(kind, &line);
                let latency = secs(t);
                if let (Kind::Cold, Ok(resp)) = (kind, &result) {
                    if out.colds.len() < REPLAY_CHECKS {
                        out.colds.push((line, resp.clone()));
                    }
                }
                out.requests.push((kind, latency, result.map(drop)));
            }
            out.blocks.push(secs(t_block));
            if Instant::now() >= deadline {
                break;
            }
        }
        out
    }

    fn gates(&self, w: &mut Window) {
        let result = |resp: &str| {
            parse(resp)
                .ok()
                .and_then(|v| v.get("result").map(JsonValue::to_compact))
                .unwrap_or_default()
        };
        let bytes = result(&self.small_computed) + &result(&self.large_computed);
        let digest = mtk_store::fnv1a(bytes.as_bytes());
        if digest == RESULTS_ANY_SEED {
            w.note(format!("gate: serve result digest {digest:#018x} matches"));
        } else {
            w.count(Failure::Mismatch(format!(
                "serve result digest {digest:#018x}, committed {RESULTS_ANY_SEED:#018x}"
            )));
        }
    }

    /// Replays one request line in-process through the layers the
    /// server crosses, one span per call. Mirrors the server's handling:
    /// parse the line, parse and canonicalise the design, build the
    /// store key, look it up; a cold request then screens, serializes
    /// its trace and puts the payload.
    fn replay(
        &self,
        rec: &mut SpanRecorder,
        kind: Kind,
        line: &str,
        warm_store: &Store,
        cold_store: &Store,
    ) -> Result<(), String> {
        let req = rec.time("mtk_trace::json/parse", || parse(line))?;
        let Some(text) = req.get("design").and_then(JsonValue::as_str) else {
            return Ok(()); // status
        };
        let design = rec
            .time("mtk_fe/parse_str", || mtk_fe::parse_str(text, "<request>"))
            .map_err(|e| e.to_string())?;
        let canonical = rec.time("mtk_fe/to_mtk", || design.to_mtk());
        // The server's request fingerprint: every result-determining
        // option with its default, in this order.
        let field =
            |k: &str, default: f64| req.get(k).and_then(JsonValue::as_f64).unwrap_or(default);
        let mut fields = vec![
            ("cmd".to_string(), JsonValue::String("screen".into())),
            ("design".to_string(), JsonValue::String(canonical)),
        ];
        for (k, default) in [
            ("w_over_l", 10.0),
            ("top_k", 10.0),
            ("target", 0.05),
            ("lo", 1.0),
            ("hi", 2000.0),
            ("stride", 1.0),
            ("samples", 256.0),
            ("top", 10.0),
            ("clusters", 8.0),
        ] {
            fields.push((k.to_string(), JsonValue::Number(field(k, default))));
        }
        let key = rec.time("mtk_trace::json/to_compact", || {
            let mut key = b"req2:".to_vec();
            key.extend_from_slice(JsonValue::Object(fields).to_compact().as_bytes());
            key
        });
        if kind != Kind::Cold {
            rec.time("mtk_store/get", || warm_store.get(&key));
            return Ok(());
        }
        rec.time("mtk_store/get", || cold_store.get(&key));
        let w_over_l = field("w_over_l", 10.0);
        let (transitions, _) = design_transitions(&design, field("stride", 1.0) as usize, 0);
        let (_, report) = rec
            .time("mtk_core::sizing/screen_vectors_par_quarantined", || {
                screen_vectors_par_quarantined(
                    &design.netlist,
                    &design.tech,
                    &transitions,
                    None,
                    w_over_l,
                    &VbsimOptions::default(),
                    1,
                    FailurePolicy::quarantine(32),
                    &FaultPlan::none(),
                )
            })
            .map_err(|e| e.to_string())?;
        let mut trace = TraceReport::new("mtk_screen");
        trace.push_phase(report.to_phase("screen"));
        let json = rec.time("mtk_trace::json/to_json", || {
            trace.to_json(TraceMode::Deterministic)
        });
        let payload = rec
            .time("mtk_trace::json/parse", || parse(&json))?
            .to_compact();
        rec.time("mtk_store/put", || cold_store.put(&key, payload.as_bytes()))
            .map_err(|e| e.to_string())
    }
}

impl Workload for ServeMix {
    fn measure(&mut self, ctx: &Ctx) -> Window {
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(ctx.seconds);
        let this = &*self;
        let results: Vec<_> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| s.spawn(move || this.client(c, deadline)))
                .collect();
            clients
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut w = Window {
            wall_s: secs(t0),
            ..Window::default()
        };
        let mut per_kind: Vec<Vec<f64>> = vec![Vec::new(); KINDS.len()];
        let mut colds = Vec::new();
        for client in results {
            w.op_s.extend(client.blocks);
            for (kind, latency, result) in client.requests {
                per_kind[kind as usize].push(latency);
                w.tally(result);
            }
            colds.extend(client.colds);
        }
        for (line, computed) in colds {
            match request(&self.server.addr, &line, TIMEOUT) {
                Ok(resp) if resp == as_cached(&computed) => {}
                Ok(_) => w.count(Failure::Mismatch(
                    "cold request replayed from the store differs from its computed response"
                        .into(),
                )),
                Err(e) => w.count(Failure::Failed(format!("replay check: {e}"))),
            }
        }
        for (kind, name) in KINDS {
            w.note(describe_ms(
                &format!("serve {name}"),
                &per_kind[kind as usize],
            ));
        }
        self.gates(&mut w);
        w
    }

    fn trace(&mut self, ctx: &Ctx) -> TraceRun {
        // The server side of each traced request is split by replaying
        // its line in-process right after it, and hanging those spans
        // under the request span. Warm lookups go to the server's store
        // (as primed); cold ones to a store of their own, as the server
        // misses and then puts.
        let opened = Store::open(&self.server.store).and_then(|warm| {
            let cold = Store::open(self.server.store.with_extension("replay"))?;
            Ok((warm, cold))
        });
        let (warm, cold) = match opened {
            Ok(stores) => stores,
            Err(e) => {
                let mut run = TraceRun::default();
                run.window
                    .count(Failure::Failed(format!("replay stores: {e}")));
                return run;
            }
        };
        let last = RefCell::new(None);
        let mut run = paired(
            ctx,
            |k| {
                let kind = draw(self.seed, 0, k);
                self.send(kind, &self.line(kind)).map(drop)
            },
            |rec, k| {
                let kind = draw(self.seed, 0, k);
                let line = self.line(kind);
                let result = rec.time("mtk_bench::serve/request", || self.send(kind, &line));
                *last.borrow_mut() = Some((kind, line));
                result.map(drop)
            },
            |_, root, w| {
                let Some((kind, line)) = last.borrow_mut().take() else {
                    return;
                };
                let mut rec = SpanRecorder::new(true);
                if let Err(e) = self.replay(&mut rec, kind, &line, &warm, &cold) {
                    w.count(Failure::Failed(format!("in-process replay: {e}")));
                }
                if let Some(request) = root.children.first_mut() {
                    request.children = rec.finish();
                }
            },
        );
        self.gates(&mut run.window);
        run
    }
}
