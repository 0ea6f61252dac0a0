//! Extensions past the paper's figures: why MTCMOS exists (§1), its
//! energy cost (§2.1), the intended screen-then-verify flow (§5, §7),
//! vector search (§4), implementation style (§2.4) and per-module sleep
//! devices (§7).

use super::{vector_label, Bench, Ctx, Output};
use crate::report::{ns, pct, verified_cell};
use crate::transition_of;
use mtk_circuits::adder::RippleAdder;
use mtk_circuits::multiplier::ArrayMultiplier;
use mtk_circuits::nand_adder::{NandAdderSpec, NandRippleAdder};
use mtk_circuits::tree::InverterTree;
use mtk_circuits::vectors::{exhaustive_transitions, multiplier_vector_a};
use mtk_core::cluster::ExclusivePartition;
use mtk_core::cluster::{size_clusters_for_target, worst_degradation_partitioned, ClusterOptions};
use mtk_core::energy::{break_even_idle_time, gated_leakage_current};
use mtk_core::energy::{sleep_switching_energy, unguarded_leakage_current};
use mtk_core::health::{FailurePolicy, FaultPlan, RunHealth, SweepHealth};
use mtk_core::hybrid::SpiceRunConfig;
use mtk_core::hybrid::{run_hybrid, spice_delay_pair, HybridFinding, HybridOptions};
use mtk_core::search::{search_worst_vector, SearchOptions};
use mtk_core::sizing::{screen_vectors_par_quarantined, size_for_target_cached};
use mtk_core::sizing::{vbsim_delay_pair, ScreeningCache, Transition};
use mtk_core::vbsim::{Engine, SleepNetwork, VbsimOptions};
use mtk_netlist::expand::{expand, ExpandOptions, SleepImpl};
use mtk_netlist::hier::Module;
use mtk_netlist::logic::{bits_lsb_first, Logic};
use mtk_netlist::netlist::{NetId, Netlist};
use mtk_netlist::tech::Technology;
use mtk_num::prng::Xoshiro256pp;
use mtk_spice::dc::{operating_point, DcOptions};
use mtk_spice::measure::supply_energy;
use mtk_spice::source::SourceWave;
use mtk_spice::tran::{transient, TranOptions};
use mtk_trace::{PhaseTrace, TraceReport};
use std::time::Instant;

/// The policy of the sweep-running experiments: quarantine up to 32
/// failures, the `mtk` flow commands' default.
const POLICY: FailurePolicy = FailurePolicy::Quarantine { max_failures: 32 };

/// The exhaustive transition space of a 6-input circuit.
fn exhaustive6() -> Vec<Transition> {
    let pairs = exhaustive_transitions(6).into_iter();
    pairs.map(|p| transition_of(p, 6)).collect()
}

/// EXT-LEAK (§1): in the 0.3 µm low-V<sub>t</sub> process the unguarded
/// tree leaks through its off devices; the off high-V<sub>t</sub> sleep
/// device starves the stack (the virtual ground floats up, ref [4]) and
/// cuts leakage by orders of magnitude. Leakage grows with sleep width
/// while active delay shrinks: §2.1's trade-off.
pub fn leak(_: &Ctx) -> Output {
    let t = Bench::tree(Technology::l03());
    let mut out = Output::default();
    // Leakage-enabled expansions and DC options precise enough to resolve
    // femtoamperes: the usual g_min floor of 1e-12 S would itself draw
    // ~pA per node.
    let expanded = |base| {
        let opts = ExpandOptions {
            with_leakage: true,
            ..base
        };
        expand(&t.netlist, &t.tech, &opts).expect("expand")
    };
    let mut dc = DcOptions::default();
    dc.gmin_steps.extend([1e-13, 1e-14, 1e-15, 1e-16]);

    // Baseline: conventional low-Vt CMOS, idle with input low.
    let mut ex = expanded(ExpandOptions::cmos());
    ex.apply_initial_state(&t.netlist.evaluate(&[Logic::Zero]).expect("settled"));
    let op = operating_point(&ex.circuit, &dc).expect("op");
    let cmos_leak = op.source_current("vdd").expect("vdd source").abs();
    out.line(format!(
        "EXT-LEAK (§1): standby leakage vs sleep W/L (0.3um low-Vt process, subthreshold on)\n\
         low-Vt block without sleep device: {:.3} nA standby leakage",
        cmos_leak * 1e9
    ));
    let mut rows = Vec::new();
    let mut least_reduction = f64::INFINITY;
    for wl in [2.0, 5.0, 10.0, 20.0, 50.0] {
        // Sleep mode: sleep gate low.
        let mut ex = expanded(ExpandOptions::mtcmos(wl));
        let vsleep = ex.circuit.find_device("vsleep").expect("vsleep source");
        let sleep_low = ex.circuit.set_vsource_wave(vsleep, SourceWave::Dc(0.0));
        sleep_low.expect("set sleep wave");
        let op = operating_point(&ex.circuit, &dc).expect("op");
        let leak = op.source_current("vdd").expect("vdd source").abs();
        let v_float = op.voltage(ex.circuit.find_node("vgnd").expect("vgnd"));
        // Active-mode delay at this size (leakage models off for speed).
        let cfg = SpiceRunConfig::window(120e-9);
        let res = t.spice(SleepImpl::Transistor { w_over_l: wl }, &cfg);
        let d = res.delay.expect("switches");
        least_reduction = least_reduction.min(cmos_leak / leak);
        let leak_text = format!("{:.4} pA", leak * 1e12);
        let reduction = format!("{:.0}x", cmos_leak / leak);
        rows.push(vec![
            format!("{wl}"),
            leak_text,
            reduction,
            format!("{v_float:.3} V"),
            ns(d),
        ]);
    }
    let title = "sleep-mode leakage, virtual-ground float, and active delay vs sleep W/L";
    let headers = "W/L, standby leakage, reduction, vgnd float, active tphl [ns]";
    out.table(title, headers, rows);
    let orders = least_reduction.log10();
    out.check("leakage cut, log10, least", "orders", orders, (4.29, 5.81));
    out
}

/// EXT-ENERGY (§2.1): the sleep transistor's switching-energy overhead
/// (the `C·Vdd²` model and a SPICE measurement of toggling the sleep
/// gate) and the break-even idle time against the standby savings, which
/// over-sizing pushes up linearly.
pub fn energy(_: &Ctx) -> Output {
    let t = Bench::tree(Technology::l03());
    let (nl, tech) = (&t.netlist, &t.tech);
    let mut out = Output::default();
    out.line(format!(
        "EXT-ENERGY (§2.1): sleep-device switching energy and break-even idle time\n\
         block leakage if unguarded (analytic): {:.3} nA; gated @ W/L=10: {:.4} pA",
        unguarded_leakage_current(nl, tech) * 1e9,
        gated_leakage_current(tech, 10.0) * 1e12
    ));
    let mut rows = Vec::new();
    let mut worst_mismatch: f64 = 0.0;
    let mut break_even = Vec::new();
    for wl in [5.0, 20.0, 80.0, 320.0] {
        // SPICE: toggle only the sleep gate (logic inputs static) with one
        // wake pulse, low → high → low.
        let opts = ExpandOptions {
            with_leakage: false,
            ..ExpandOptions::mtcmos(wl)
        };
        let mut ex = expand(nl, tech, &opts).expect("expand");
        let vsleep = ex.circuit.find_device("vsleep").expect("vsleep");
        let pulse = SourceWave::pulse(0.0, tech.vdd, 2e-9, 0.2e-9, 0.2e-9, 10e-9, 0.0);
        ex.circuit
            .set_vsource_wave(vsleep, pulse)
            .expect("set wave");
        let opts = TranOptions::to(30e-9).with_dt(20e-12);
        let res = transient(&ex.circuit, &opts).expect("transient");
        // Conventional CV² accounting: count only the charge *drawn* from
        // the driver (the stored energy is later dumped to ground, not
        // returned to the supply in a real gate driver).
        let current = res.source_current("vsleep").expect("vsleep current");
        let drawn = current.points().iter().map(|&(t, i)| (t, (-i).max(0.0)));
        let e_spice = supply_energy(&drawn.collect(), tech.vdd);
        let e_model = sleep_switching_energy(tech, wl);
        let t_be = break_even_idle_time(nl, tech, wl);
        worst_mismatch = worst_mismatch.max((e_spice / e_model - 1.0).abs());
        break_even.push(t_be);
        let [model, spice] = [e_model, e_spice].map(|e| format!("{:.3} fJ", e * 1e15));
        rows.push(vec![
            format!("{wl}"),
            model,
            spice,
            format!("{:.2} us", t_be * 1e6),
        ]);
    }
    let title = "per sleep/wake cycle: gate energy (model vs SPICE) and break-even idle time";
    out.table(
        title,
        "W/L, C*Vdd^2 model, SPICE measured, break-even idle",
        rows,
    );
    out.check("|SPICE/model - 1|, worst", "0", worst_mismatch, (0.0, 0.01));
    let growth = break_even[3] / break_even[0];
    out.check("break-even, W/L 320 / 5", "linear", growth, (54.4, 73.7));
    out
}

/// EXT-SCREEN (§5, §7), the intended flow: screen all 4096 adder
/// transitions with the simulator, SPICE-verify the top 10 with the
/// batched hybrid pipeline, and compare against a blind SPICE sample;
/// then screen a seeded sample of the 8×8 multiplier's 2³² transitions.
pub fn screen(ctx: &Ctx) -> Output {
    const W_OVER_L: f64 = 10.0;
    const MULT_SEED: u64 = 0xDAC97;
    let (add, tech) = (RippleAdder::paper(), Technology::l07());
    let transitions = exhaustive6();
    let n = transitions.len();
    let mut out = Output::default();
    let cfg = SpiceRunConfig::window(80e-9);
    let at_size = HybridOptions::at_size(W_OVER_L, cfg.clone());
    let opts = HybridOptions {
        top_k: 10,
        threads: ctx.threads,
        policy: POLICY,
        ..at_size
    };
    let report = run_hybrid(&add.netlist, &tech, &transitions, &opts).expect("hybrid run");
    out.line(format!(
        "EXT-SCREEN: hybrid pipeline on the 3-bit adder — vbsim screen of {n} transitions, \
         batched SPICE verification of top 10\n\
         screened {n} transitions ({} switch an output) in {:.2} s wall\n\
         verified {} candidates in {:.2} s wall",
        report.survivors,
        report.screen_wall,
        report.findings.len(),
        report.verify_wall
    ));
    let verified = report.findings.iter().filter_map(|f| f.verified);
    let spice_worst = verified.fold(0.0, |w: f64, v| w.max(v.degradation()));
    let row = |(k, f): (usize, &HybridFinding)| {
        vec![
            vector_label(f.index, 6),
            pct(f.screened.degradation()),
            verified_cell(&report, k),
            f.delta.map_or("-".into(), pct),
        ]
    };
    let rows = report.findings.iter().enumerate().map(row).collect();
    let title = "simulator top-10 vectors, SPICE-verified";
    out.table(title, "vector, simulator degr, SPICE degr, delta", rows);

    // Control: SPICE on a uniform sample to estimate the true worst-case
    // degradation without screening.
    let t0 = Instant::now();
    let sample: Vec<usize> = (0..n).step_by(101).collect();
    let mut control_worst: f64 = 0.0;
    for &i in &sample {
        let pair = spice_delay_pair(&add.netlist, &tech, &transitions[i], None, W_OVER_L, &cfg);
        if let Some(pair) = pair.expect("spice run") {
            control_worst = control_worst.max(pair.degradation());
        }
    }
    let t_control = t0.elapsed().as_secs_f64();
    let t_hybrid = report.screen_wall + report.verify_wall;
    let full_estimate = t_control / sample.len() as f64 * n as f64;
    let verdict = if spice_worst >= control_worst {
        "at least as bad as"
    } else {
        "below"
    };
    out.line(format!(
        "\nworst SPICE degradation in screened top-10: {}\n\
         worst SPICE degradation in a blind {}-vector sample: {} (took {t_control:.2} s vs \
         {t_hybrid:.2} s screen+verify)\n\
         exhaustive SPICE would need ≈{full_estimate:.0} s; the hybrid flow used {t_hybrid:.2} s \
         ({}x less SPICE time) and found a worst case {verdict} the blind sample's",
        pct(spice_worst),
        sample.len(),
        pct(control_worst),
        (full_estimate / t_hybrid) as u64,
    ));
    let ratio = spice_worst / control_worst;
    let check = out.check("top-10 / blind worst", ">= 1", ratio, (1.0, f64::INFINITY));
    check.known_defect = Some("same-level glitches scored as stalls fill the top-10");

    // The 8×8 multiplier's 2³² transitions cannot be enumerated: screen a
    // seeded sample (sample i comes from PRNG stream (seed, i), so the
    // set and the ranking match at any thread count).
    let m = ArrayMultiplier::paper();
    let sample = |i| {
        let mut rng = Xoshiro256pp::stream(MULT_SEED, i);
        let mut word = || bits_lsb_first(rng.next_u64() & 0xFFFF, 16);
        Transition::new(word(), word())
    };
    let mult: Vec<Transition> = (0..512u64).map(sample).collect();
    let mut trace = TraceReport::new("ext-screen");
    trace.push_phase(report.screen_phase());
    trace.push_phase(report.verify_phase());
    let (screened, report) = screen_vectors_par_quarantined(
        &m.netlist,
        &Technology::l03(),
        &mult,
        None,
        170.0,
        &VbsimOptions::default(),
        ctx.threads,
        POLICY,
        &FaultPlan::none(),
    )
    .expect("multiplier screening");
    out.line(format!(
        "\nEXT-SCREEN (multiplier): {} random transitions of the 8x8 multiplier @ sleep W/L=170\n\
         screened {} transitions in {:.2} s wall ({:.1} vectors/s)",
        mult.len(),
        mult.len(),
        report.wall,
        mult.len() as f64 / report.wall
    ));
    let rows = screened.iter().take(5).enumerate();
    let rows = rows.map(|(k, e)| vec![format!("{}", k + 1), pct(e.delays.degradation())]);
    let title = "multiplier sample: worst 5 of the screened ranking";
    out.table(title, "rank, degradation", rows.collect());
    trace.push_phase(report.to_phase("multiplier_screen"));
    out.line(format!("\n{}", trace.render_text().trim_end()));
    out
}

/// EXT-SEARCH (§4): the multiplier's 2³² transitions "soon become
/// impossible" to enumerate, so random + hill-climbing search looks for
/// severe vectors; the adder's exhaustively known ranking calibrates it,
/// and its screened worst vectors then size the adder through a cache
/// whose warm rerun simulates nothing.
pub fn search(ctx: &Ctx) -> Output {
    let mut out = Output::default();
    let base = VbsimOptions::default();
    let search = |engine: &Engine, random_samples, restarts, max_passes, w_over_l| {
        let sleep = SleepNetwork::Transistor { w_over_l };
        let opts = SearchOptions::at_sleep(sleep);
        let (threads, policy) = (ctx.threads, POLICY);
        let opts = SearchOptions {
            random_samples,
            restarts,
            max_passes,
            threads,
            policy,
            ..opts
        };
        search_worst_vector(engine, &opts).expect("search")
    };

    // (a) The 8x8 multiplier: search the 2^32 transition space.
    let (m, tech) = (ArrayMultiplier::paper(), Technology::l03());
    let engine = Engine::new(&m.netlist, &tech);
    let tr_a = transition_of(multiplier_vector_a(), 16);
    let sleep = SleepNetwork::Transistor { w_over_l: 100.0 };
    let a = vbsim_delay_pair(&engine, &tr_a, None, sleep, &base).expect("run");
    let a = a.expect("switches").degradation();
    let t0 = Instant::now();
    let result = search(&engine, 400, 4, 10, 100.0);
    let (found, evals) = (pct(result.degradation), result.evaluations);
    let wall = t0.elapsed().as_secs_f64();
    let mut trace = TraceReport::new("ext-search");
    trace.push_phase(result.to_phase("search").with_wall(wall));
    let verdict = if result.degradation >= a {
        "the heuristic matches or beats the expert-chosen worst case"
    } else {
        "vector A remains worse (expert knowledge wins at this budget)"
    };
    out.line(format!(
        "EXT-SEARCH (a): 8x8 multiplier @ sleep W/L=100 (2^32 possible transitions)\n\
         paper's hand-picked vector A: {} degradation\n\
         search found {found} degradation in {evals} evaluations ({wall:.2} s)\n\
         search vs vector A: {:.2}x — {verdict}",
        pct(a),
        result.degradation / a
    ));

    // (b) The 3-bit adder: calibrate against exhaustive truth.
    let (add, tech07) = (RippleAdder::paper(), Technology::l07());
    let engine = Engine::new(&add.netlist, &tech07);
    let transitions = exhaustive6();
    let screened = screen_vectors_par_quarantined(
        &add.netlist,
        &tech07,
        &transitions,
        None,
        10.0,
        &base,
        1,
        FailurePolicy::FailFast,
        &FaultPlan::none(),
    );
    let screened = screened.expect("screen").0;
    let mut rows = Vec::new();
    let mut calibrate = SweepHealth::default();
    for (samples, restarts) in [(50, 1), (150, 2), (400, 4)] {
        let res = search(&engine, samples, restarts, 8, 10.0);
        calibrate.absorb(res.health);
        // Percentile of the found degradation in the exhaustive ranking.
        let better = screened
            .iter()
            .filter(|e| e.delays.degradation() > res.degradation + 1e-12);
        let rank = (better.count() + 1) as f64 / screened.len() as f64 * 100.0;
        rows.push(vec![
            format!("{samples}+{restarts} restarts"),
            format!("{}", res.evaluations),
            pct(res.degradation),
            format!("top {rank:.2}%"),
        ]);
    }
    trace.push_phase(calibrate.phase("calibrate"));
    let worst = pct(screened[0].delays.degradation());
    rows.push(vec![
        "exhaustive (4096)".into(),
        "4096".into(),
        worst,
        "top 0.03%".into(),
    ]);
    let title = "EXT-SEARCH (b): 3-bit adder, search budget vs rank of the found worst case";
    out.table(
        title,
        "budget, evaluations, found degradation, exhaustive rank",
        rows,
    );

    // (c) Cached sizing: the screened worst vectors drive the bisection,
    // and a ScreeningCache makes a repeated sweep free.
    let worst: Vec<Transition> = screened
        .iter()
        .take(5)
        .map(|s| transitions[s.index].clone())
        .collect();
    out.line(format!(
        "\nEXT-SEARCH (c): sizing the adder's sleep device to 5.0% degradation from the {} \
         screened worst vectors, twice through one screening cache",
        worst.len()
    ));
    let cache = ScreeningCache::new();
    let size = || {
        let t0 = Instant::now();
        let sized =
            size_for_target_cached(&engine, &worst, None, 0.05, (1.0, 5000.0), &base, &cache);
        let (wl, health) = sized.expect("sizing");
        (wl, health, t0.elapsed().as_secs_f64())
    };
    let (cold, warm) = (size(), size());
    let row = |run: &str, (wl, health, wall): &(f64, RunHealth, f64)| {
        let (hits, misses) = (health.cache_hits, health.cache_misses);
        vec![
            run.into(),
            format!("{wl:.1}"),
            format!("{hits}"),
            format!("{misses}"),
            format!("{wall:.3}"),
        ]
    };
    let rows = vec![row("cold", &cold), row("warm", &warm)];
    out.table(
        "cached sizing: cold vs warm rerun",
        "run, W/L, cache hits, cache misses, wall s",
        rows,
    );
    let speedup = if warm.2 > 0.0 {
        cold.2 / warm.2
    } else {
        f64::INFINITY
    };
    out.line(format!(
        "warm rerun reused {} legs with zero simulator runs ({speedup:.0}x faster)",
        warm.1.cache_hits
    ));
    for (name, (_, health, wall)) in [("sizing_cold", &cold), ("sizing_warm", &warm)] {
        let mut phase = PhaseTrace::new(name).with_wall(*wall);
        phase.counters = health.counters();
        trace.push_phase(phase);
    }
    out.line(format!("\n{}", trace.render_text().trim_end()));
    let misses = warm.1.cache_misses as f64;
    out.check("warm rerun cache misses", "0", misses, (0.0, 0.0));
    out.check("warm W/L - cold W/L", "0", warm.0 - cold.0, (0.0, 0.0));
    out
}

/// EXT-STYLE (§2.4): the mirror and nine-NAND adders compute the same
/// function but discharge differently through the shared sleep device,
/// so their worst vectors, degradations and 5 % sizes differ — sizing
/// must look at internal structure, not function.
pub fn style(_: &Ctx) -> Output {
    let tech = Technology::l07();
    let mut out = Output::default();
    out.line("EXT-STYLE (§2.4): same function, different structure, different MTCMOS needs");
    // Screen the exhaustive space at W/L=10, then size for 5 % on the
    // circuit's own worst 10 vectors.
    let mut sizes = Vec::new();
    let mut row = |name: &str, netlist: &Netlist| {
        let engine = Engine::new(netlist, &tech);
        let (trs, base) = (exhaustive6(), VbsimOptions::default());
        let screened = screen_vectors_par_quarantined(
            netlist,
            &tech,
            &trs,
            None,
            10.0,
            &base,
            1,
            FailurePolicy::FailFast,
            &FaultPlan::none(),
        );
        let screened = screened.expect("screen").0;
        let (worst, bounds) = (&screened[0], (1.0, 2000.0));
        let worst_10: Vec<Transition> = screened
            .iter()
            .take(10)
            .map(|e| trs[e.index].clone())
            .collect();
        let cache = ScreeningCache::new();
        let sized = size_for_target_cached(&engine, &worst_10, None, 0.05, bounds, &base, &cache);
        let wl = sized.expect("sizing").0;
        sizes.push(wl);
        vec![
            name.to_string(),
            format!("{}", netlist.total_transistors()),
            ns(worst.delays.cmos),
            pct(worst.delays.degradation()),
            vector_label(worst.index, 6),
            format!("{wl:.0}"),
        ]
    };
    let nand = NandRippleAdder::new(&NandAdderSpec::default()).expect("nand adder");
    let rows = vec![
        row("mirror adder", &RippleAdder::paper().netlist),
        row("9-NAND adder", &nand.netlist),
    ];
    let title =
        "3-bit adders @ screening W/L=10; sizing target 5% on each one's own worst 10 vectors";
    let headers =
        "implementation, transistors, worst CMOS [ns], worst degr @10, worst vector, W/L for 5%";
    out.table(title, headers, rows);
    let ratio = sizes[1] / sizes[0];
    out.check("5 % W/L, 9-NAND / mirror", "not 1", ratio, (2.15, 2.92));
    out
}

/// EXT-MODULES' netlist: two Fig 4 trees side by side, each with its own
/// input and leaves, and the partition that gives each tree its own
/// cluster.
fn double_tree() -> (Netlist, Vec<usize>) {
    let tree = Module::new("tree", InverterTree::paper().netlist).expect("tree module");
    let mut nl = Netlist::new("double_tree");
    for k in 0..2 {
        let input = nl.add_net(&format!("in{k}")).unwrap();
        nl.mark_primary_input(input).unwrap();
        let leaf = |j| nl.add_net(&format!("t{k}_leaf{j}")).unwrap();
        let leaves: Vec<NetId> = (0..tree.n_outputs()).map(leaf).collect();
        tree.instantiate(&mut nl, &format!("t{k}"), &[input], &leaves)
            .unwrap();
        leaves.iter().for_each(|&l| nl.mark_primary_output(l));
    }
    let per_tree = tree.body().cells().len();
    let assignment = (0..nl.cells().len())
        .map(|c| usize::from(c >= per_tree))
        .collect();
    (nl, assignment)
}

/// EXT-MODULES' exclusive workload: one tree rises at a time.
fn exclusive_trees() -> [Transition; 2] {
    let (lo, hi) = (Logic::Zero, Logic::One);
    [
        Transition::new(vec![lo, lo], vec![hi, lo]),
        Transition::new(vec![lo, lo], vec![lo, hi]),
    ]
}

/// EXT-MODULES (§7, the authors' 1998 follow-up): two Fig 4 trees in one
/// netlist that never switch together (mutually exclusive discharge) can
/// share one sleep device sized for a single tree — about half the width
/// of a device per tree, and of a shared device without the guarantee.
pub fn modules(_: &Ctx) -> Output {
    let tech = Technology::l07();
    let (nl, _) = double_tree();
    let engine = Engine::new(&nl, &tech);
    let (target, bounds) = (0.10, (0.5, 2000.0));
    // Workloads: exclusive (one tree rises at a time) vs simultaneous.
    let (lo, hi) = (Logic::Zero, Logic::One);
    let simultaneous = [Transition::new(vec![lo, lo], vec![hi, hi])];
    let base = VbsimOptions::default();
    let size = |trs: &[Transition]| {
        let cache = ScreeningCache::new();
        let sized = size_for_target_cached(&engine, trs, None, target, bounds, &base, &cache);
        sized.expect("sizing").0
    };
    let (w_excl, w_simul) = (size(&exclusive_trees()), size(&simultaneous));
    let (per_module, check) = per_tree_sizing(&tech);
    let total: f64 = per_module.iter().sum();
    let shared_row =
        |name: &str, w: f64| vec![name.to_string(), format!("{w:.1}"), format!("{w:.1}")];
    let split = format!("{:.1} + {:.1}", per_module[0], per_module[1]);
    let rows = vec![
        shared_row("shared device, exclusive workload", w_excl),
        shared_row("shared device, simultaneous workload", w_simul),
        vec![
            "one device per tree, exclusive workload".into(),
            split,
            format!("{total:.1}"),
        ],
    ];
    let mut out = Output::default();
    let cells = nl.cells().len();
    out.line(format!(
        "EXT-MODULES: two independent Fig-4 trees, one netlist ({cells} cells), 10% target"
    ));
    let title = "sleep sizing for the same 10% target (verified degradation of the per-module row shown below)";
    out.table(title, "configuration, device W/L, total width", rows);
    let saving = (1.0 - w_excl / total) * 100.0;
    out.line(format!(
        "per-module verified worst degradation: {:.1}%\n\n\
         mutually exclusive discharge lets ONE shared device of W/L {w_excl:.0} do the work that \
         costs {total:.0} in per-module width and {w_simul:.0} under the no-exclusivity assumption \
         — merging exclusive patterns onto a shared device saves {saving:.0}% width",
        check * 100.0
    ));
    out.check("shared width saving [%]", "~50", saving, (43.0, 58.2));
    out.check("per-module degr. [%]", "<= 10", check * 100.0, (8.39, 10.0));
    out
}

/// EXT-MODULES' one-device-per-tree row: the cluster co-optimiser over
/// the two-tree partition, for the 10 % target on the exclusive
/// workload. The never-worse rule returns the shared device here, so
/// the row reads the clustered candidate. Returns its per-tree W/Ls and
/// their verified worst degradation.
fn per_tree_sizing(tech: &Technology) -> (Vec<f64>, f64) {
    let (nl, assignment) = double_tree();
    let per_tree = ExclusivePartition {
        assignment,
        n_clusters: 2,
        conflict_edges: 0,
        folded: 0,
    };
    let (exclusive, cmos) = (exclusive_trees(), VbsimOptions::cmos());
    let opts = ClusterOptions {
        base: cmos.clone(),
        ..ClusterOptions::at_target(0.10, (0.5, 2000.0))
    };
    let (sizing, _) = size_clusters_for_target(&nl, tech, &exclusive, &per_tree, &opts, None)
        .expect("per-tree sizing");
    let sizes = sizing.clustered_w_over_ls;
    let engine = Engine::new(&nl, tech);
    let groups = &per_tree.assignment;
    let check = worst_degradation_partitioned(&engine, &exclusive, None, groups, &sizes, &cmos);
    (sizes, check.expect("verify"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-tree sizes and verified degradation the per-module sizer
    /// returned on this netlist before it was folded into the cluster
    /// co-optimiser, pinned bit for bit: the fold is exact.
    #[test]
    fn per_tree_sizing_matches_the_former_per_module_sizer() {
        let (sizes, check) = per_tree_sizing(&Technology::l07());
        let bits: Vec<u64> = sizes.iter().map(|w| w.to_bits()).collect();
        assert_eq!(bits, [0x4047_b4a5_60ae_cd89; 2]);
        assert_eq!(check.to_bits(), 0x3fb9_4be0_4234_6e92);
    }
}
