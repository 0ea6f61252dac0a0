//! Per-layer costs: each public entry point of each layer timed on its
//! own, on fixed goldens and the run's seed, for the `--trace 1` run.
//! Every timing is the median over repeated calls.

use crate::metrics::Metrics;
use crate::run::{Ctx, Failure, Window};
use crate::stats::median;
use crate::util::{golden, random_transitions, secs, Golden, ScratchDir};
use crate::workloads::{fill_store, hybrid_options, screen_line};
use mtk_bench::serve::{request, ServeConfig, Server};
use mtk_bench::transition_of;
use mtk_circuits::vectors::exhaustive_transitions;
use mtk_core::health::{FailurePolicy, FaultPlan};
use mtk_core::hybrid::run_hybrid;
use mtk_core::model::{solve_vx, VxOptions};
use mtk_core::par::WorkerStats;
use mtk_core::sizing::{screen_vectors_par_quarantined, Transition};
use mtk_core::vbsim::{Engine, VbsimOptions, VbsimScratch};
use mtk_netlist::expand::{expand, ExpandOptions};
use mtk_netlist::logic::Logic;
use mtk_num::ordering::reverse_cuthill_mckee;
use mtk_num::sparse::{LuWorkspace, SparseRows, Triplets};
use mtk_spice::solver::{
    assemble, branch_indices, collect_dyn_caps, CapState, Integrator, StampMode,
};
use mtk_spice::tran::{transient, TranOptions};
use mtk_store::Store;
use mtk_trace::json::parse;
use mtk_trace::TraceMode;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timing effort: repetitions and seconds per measured call.
#[derive(Clone, Copy)]
struct Effort {
    min_reps: usize,
    budget_s: f64,
}

/// Median seconds per call of `f` over at least `min_reps` calls and
/// until the budget is spent; the first error ends the probe.
fn per_call<T, E: std::fmt::Display>(
    e: Effort,
    mut f: impl FnMut() -> Result<T, E>,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < e.min_reps || secs(t0) < e.budget_s {
        let t = Instant::now();
        black_box(f().map_err(|err| err.to_string())?);
        samples.push(secs(t));
    }
    Ok(median(&samples))
}

/// [`per_call`] for calls that cannot fail.
fn per_call_ok<T>(e: Effort, mut f: impl FnMut() -> T) -> f64 {
    per_call(e, || Ok::<T, String>(f())).expect("infallible")
}

/// Runs every layer probe, recording its metrics; failures of the
/// probed calls count in `w`.
pub fn probe(
    ctx: &Ctx,
    scratch: &ScratchDir,
    m: &mut Metrics,
    w: &mut Window,
) -> Result<(), String> {
    let e = if ctx.smoke {
        Effort {
            min_reps: 1,
            budget_s: 0.0,
        }
    } else {
        Effort {
            min_reps: 3,
            budget_s: 0.1,
        }
    };
    let adder3 = golden("adder3")?;
    let alu4 = golden("alu4")?;
    let mul8 = golden("mul8")?;
    let mul16 = golden("mul16")?;
    let us = 1e6;

    // mtk_fe
    for (name, g) in [
        ("fe.parse_us.adder3", &adder3),
        ("fe.parse_us.alu4", &alu4),
        ("fe.parse_us.mul16", &mul16),
    ] {
        m.set(
            name,
            per_call(e, || mtk_fe::parse_str(&g.text, "<probe>"))? * us,
        );
    }
    m.set(
        "fe.write_us.mul16",
        per_call_ok(e, || mul16.design.to_mtk()) * us,
    );

    // mtk_trace::json
    let small = screen_line(&adder3.text, 10.0, ("stride", 16));
    let large = screen_line(&mul16.text, 10.0, ("samples", 16));
    m.set(
        "json.parse_us.req_small",
        per_call(e, || parse(&small))? * us,
    );
    m.set(
        "json.parse_us.req_large",
        per_call(e, || parse(&large))? * us,
    );
    let parsed = parse(&large)?;
    m.set(
        "json.encode_us.req_large",
        per_call_ok(e, || parsed.to_compact()) * us,
    );

    // mtk_core::vbsim and mtk_core::model
    let adder_trs: Vec<Transition> = exhaustive_transitions(6)
        .into_iter()
        .map(|p| transition_of(p, 6))
        .collect();
    let mul_trs = random_transitions(mul16.design.netlist.primary_inputs().len(), ctx.seed, 0, 16);
    for (tag, g, trs) in [("adder3", &adder3, &adder_trs), ("mul16", &mul16, &mul_trs)] {
        vbsim_probe(e, tag, g, trs, m)?;
    }
    let tech = &adder3.design.tech;
    let r_sleep = tech.sleep_resistance(10.0);
    let betas = [tech.kp_n * 8.0; 9];
    let batch = per_call(e, || {
        (0..1000).try_for_each(|_| {
            black_box(solve_vx(
                tech,
                r_sleep,
                black_box(&betas),
                VxOptions::default(),
            ))
            .map(drop)
        })
    })?;
    m.set("vx.solve_us.9gates", batch / 1000.0 * us);

    // mtk_core::sizing and mtk_store: size-mul16's problem 0, store-backed
    let size_store = scratch.join("probe-size.store");
    let (_, legs) = fill_store(ctx, &size_store)?;
    m.set("sizing.legs_simulated", legs.misses as f64);
    m.set("sizing.cache_hits", legs.hits as f64);
    m.set(
        "sizing.cache_hit_ratio",
        legs.hits as f64 / (legs.hits + legs.misses) as f64,
    );
    m.set(
        "store.open_ms.size",
        per_call(e, || Store::open(&size_store))? * 1e3,
    );
    m.set(
        "store.records.size",
        Store::open(&size_store).map_err(|e| e.to_string())?.len() as f64,
    );
    store_probe(e, scratch, m)?;

    // mtk_core::par, from a screening pass and a hybrid call at 2 threads
    let utilization = |workers: &[WorkerStats], wall: f64| {
        workers.iter().map(|s| s.wall).sum::<f64>() / (workers.len() as f64 * wall)
    };
    let (_, screen) = screen_vectors_par_quarantined(
        &adder3.design.netlist,
        &adder3.design.tech,
        &adder_trs,
        None,
        10.0,
        &VbsimOptions::default(),
        2,
        FailurePolicy::quarantine(adder_trs.len()),
        &FaultPlan::none(),
    )
    .map_err(|e| e.to_string())?;
    m.set(
        "par.utilization.screen",
        utilization(&screen.workers, screen.wall),
    );
    let (count, top_k) = if ctx.smoke { (16, 2) } else { (64, 8) };
    let hybrid_trs = random_transitions(
        alu4.design.netlist.primary_inputs().len(),
        ctx.seed,
        0,
        count,
    );
    let hybrid = run_hybrid(
        &alu4.design.netlist,
        &alu4.design.tech,
        &hybrid_trs,
        &hybrid_options(top_k, 2, count),
    )
    .map_err(|e| e.to_string())?;
    let quarantined = screen.health.quarantined.len()
        + hybrid.screen_health.quarantined.len()
        + hybrid.verify_health.quarantined.len();
    if quarantined > 0 {
        w.count(Failure::Failed(format!(
            "{quarantined} items quarantined in the layer probes"
        )));
    }
    m.set(
        "par.utilization.verify",
        utilization(&hybrid.verify_workers, hybrid.verify_wall),
    );
    let trace = hybrid.to_trace("mtk_hybrid");
    m.set(
        "trace.to_json_us.hybrid",
        per_call_ok(e, || trace.to_json(TraceMode::Full)) * us,
    );

    // mtk_netlist::expand and mtk_spice
    for (name, g) in [("expand.us.alu4", &alu4), ("expand.us.mul8", &mul8)] {
        m.set(
            name,
            per_call(e, || {
                expand(
                    &g.design.netlist,
                    &g.design.tech,
                    &ExpandOptions::mtcmos(10.0),
                )
            })? * us,
        );
    }
    tran_probe(e, &alu4, &hybrid_trs[0], m)?;
    for (tag, g) in [("alu4", &alu4), ("mul8", &mul8), ("mul16", &mul16)] {
        mna_probe(e, tag, g, m)?;
    }

    // mtk_bench::serve
    m.set("serve.status_rtt_ms", status_rtt(e)? * 1e3);
    Ok(())
}

/// Engine build, per-vector and per-breakpoint cost of the MTCMOS leg.
fn vbsim_probe(
    e: Effort,
    tag: &str,
    g: &Golden,
    trs: &[Transition],
    m: &mut Metrics,
) -> Result<(), String> {
    let d = &g.design;
    m.set(
        &format!("vbsim.engine_new_us.{tag}"),
        per_call_ok(e, || Engine::new(&d.netlist, &d.tech)) * 1e6,
    );
    let engine = Engine::new(&d.netlist, &d.tech);
    let opts = VbsimOptions::mtcmos(10.0);
    let mut scratch = VbsimScratch::new();
    let mut breakpoints = 0usize;
    let sweep = per_call(e, || {
        breakpoints = 0;
        trs.iter().try_for_each(|tr| {
            let run = engine.run_with(&tr.from, &tr.to, &opts, &mut scratch)?;
            breakpoints += run.breakpoints;
            scratch.recycle(run);
            Ok::<(), mtk_core::CoreError>(())
        })
    })
    .map_err(|err| format!("vbsim probe on {tag}: {err}"))?;
    m.set(
        &format!("vbsim.us_per_vector.{tag}"),
        sweep / trs.len() as f64 * 1e6,
    );
    m.set(
        &format!("vbsim.breakpoints_per_vector.{tag}"),
        breakpoints as f64 / trs.len() as f64,
    );
    m.set(
        &format!("vbsim.ns_per_breakpoint.{tag}"),
        sweep / breakpoints as f64 * 1e9,
    );
    Ok(())
}

/// Store get and put (fsync included) of 1 KiB records.
fn store_probe(e: Effort, scratch: &ScratchDir, m: &mut Metrics) -> Result<(), String> {
    let store = Store::open(scratch.join("probe-records.store")).map_err(|e| e.to_string())?;
    let value = vec![0x5a_u8; 1024];
    let mut n = 0u64;
    let put = per_call(e, || {
        n += 1;
        store.put(format!("probe-key-{n}").as_bytes(), &value)
    })?;
    m.set("store.put_us", put * 1e6);
    let keys: Vec<Vec<u8>> = (1..=n)
        .map(|k| format!("probe-key-{k}").into_bytes())
        .collect();
    let batch = per_call_ok(e, || keys.iter().filter(|k| store.get(k).is_some()).count());
    m.set("store.get_us", batch / keys.len() as f64 * 1e6);
    Ok(())
}

/// One alu4 transient: wall, accepted steps, Newton iterations per step.
fn tran_probe(e: Effort, g: &Golden, tr: &Transition, m: &mut Metrics) -> Result<(), String> {
    let d = &g.design;
    let mut ex =
        expand(&d.netlist, &d.tech, &ExpandOptions::mtcmos(10.0)).map_err(|e| e.to_string())?;
    for pos in 0..tr.from.len() {
        ex.set_input_transition(pos, tr.from[pos], tr.to[pos], 80e-9 * 0.02)
            .map_err(|e| e.to_string())?;
    }
    ex.apply_initial_state(&d.netlist.evaluate(&tr.from).map_err(|e| e.to_string())?);
    let opts = TranOptions::to(80e-9)
        .with_probes(d.netlist.primary_outputs().iter().map(|&n| ex.node_of(n)));
    let mut last = None;
    let tran = per_call(e, || {
        transient(&ex.circuit, &opts).map(|res| last = Some(res))
    })?;
    m.set("spice.tran_ms.alu4", tran * 1e3);
    let res = last.expect("timed at least once");
    m.set("spice.steps.alu4", res.steps as f64);
    m.set(
        "spice.newton_per_step.alu4",
        res.total_newton_iterations as f64 / res.steps as f64,
    );
    Ok(())
}

/// MNA size, one transient-mode stamp, one RCM-ordered LU factor+solve
/// and the factor's fill, at the settled all-zero-input state.
fn mna_probe(e: Effort, tag: &str, g: &Golden, m: &mut Metrics) -> Result<(), String> {
    let d = &g.design;
    let ex =
        expand(&d.netlist, &d.tech, &ExpandOptions::mtcmos(10.0)).map_err(|e| e.to_string())?;
    let c = &ex.circuit;
    let n = c.unknown_count();
    let settled = d
        .netlist
        .evaluate(&vec![Logic::Zero; d.netlist.primary_inputs().len()])
        .map_err(|e| e.to_string())?;
    let mut x = vec![0.0; n];
    for (net, &node) in ex.net_nodes.iter().enumerate() {
        if !node.is_ground() && settled.get(net) == Some(&Logic::One) {
            x[node.index() - 1] = ex.vdd;
        }
    }
    let caps = collect_dyn_caps(c);
    let cap_states = vec![CapState::default(); caps.len()];
    let mode = StampMode::Tran {
        t: 80e-12,
        dt: 80e-12,
        gmin: 1e-12,
        method: Integrator::Trapezoidal,
        caps: &caps,
        cap_states: &cap_states,
    };
    let branches = branch_indices(c);
    let mut a = Triplets::new(n);
    let mut rhs = vec![0.0; n];
    let stamp = per_call_ok(e, || assemble(c, &x, mode, &branches, &mut a, &mut rhs));
    let mut rows = SparseRows::empty(n);
    a.assemble_into(&mut rows);
    let order = reverse_cuthill_mckee(&rows.symmetric_adjacency());
    let mut pos = vec![0; n];
    for (k, &orig) in order.iter().enumerate() {
        pos[orig] = k;
    }
    let mut perm = SparseRows::empty(n);
    rows.permute_symmetric_into(&pos, &mut perm);
    let b: Vec<f64> = order.iter().map(|&i| rhs[i]).collect();
    let mut lu = LuWorkspace::new();
    let mut y = Vec::new();
    let factor = per_call(e, || lu.factor_solve(&perm, &b, &mut y))
        .map_err(|err| format!("LU probe on {tag}: {err}"))?;
    let fill = perm.factor().map_err(|e| e.to_string())?.u_nnz();
    let set = |m: &mut Metrics, what: &str, v: f64| m.set(&format!("spice.{what}.{tag}"), v);
    set(m, "unknowns", n as f64);
    set(m, "stamp_us", stamp * 1e6);
    set(m, "lu_us", factor * 1e6);
    set(m, "lu_fill_nnz", fill as f64);
    Ok(())
}

/// Round trip of a `status` request to a fresh store-less server.
fn status_rtt(e: Effort) -> Result<f64, String> {
    let server = Server::bind(ServeConfig::default()).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let state = server.state();
    let thread = std::thread::spawn(move || server.run());
    let rtt = per_call(
        Effort {
            min_reps: e.min_reps.max(20),
            ..e
        },
        || request(&addr, r#"{"cmd":"status"}"#, Duration::from_secs(30)),
    );
    state.request_drain();
    let _ = thread.join();
    rtt.map_err(|err| format!("status request: {err}"))
}
