//! The reproduction ledger: every data-bearing table and figure of the
//! paper, and the ablations and extensions of DESIGN.md §5, each one
//! typed experiment that `mtk repro` runs.
//!
//! [`EXPERIMENTS`] is a plain table. Each entry's `run` returns an
//! [`Output`]: the lines and tables it reports, plus the [`Check`]s that
//! gate the paper's claims against a committed band. The bands live next
//! to the code that measures them; `mtk repro --all` exits 1 when a check
//! misses. [`Ctx::full`] turns on the long variants (Table 1 SPICE rows,
//! every FIG14 S2 vector, all 4096 SEC6-2 SPICE runs, the FIG5/FIG11 CSV
//! series).

mod ablations;
mod extensions;
mod paper;

pub use paper::adder_event_sweep;

use crate::report::{ns, render_table};
use crate::stats;
use mtk_circuits::tree::InverterTree;
use mtk_core::hybrid::{spice_transition, SpiceRunConfig, SpiceTransition};
use mtk_core::sizing::Transition;
use mtk_core::vbsim::{Engine, VbsimOptions};
use mtk_netlist::expand::SleepImpl;
use mtk_netlist::logic::Logic;
use mtk_netlist::netlist::{NetId, Netlist};
use mtk_netlist::tech::Technology;

/// What every experiment runs with.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Run the long variants.
    pub full: bool,
    /// Worker threads; results are bit-identical at any count.
    pub threads: usize,
}

impl Ctx {
    /// A context using every available core.
    pub fn new(full: bool) -> Ctx {
        Ctx {
            full,
            threads: mtk_core::par::num_threads(0),
        }
    }
}

/// One claim of the paper, measured and gated.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What is measured.
    pub claim: String,
    /// The paper's value or statement.
    pub paper: &'static str,
    /// The measured value.
    pub measured: f64,
    /// Committed inclusive band `[lo, hi]`: the measurement when the band
    /// was set, plus a margin.
    pub band: (f64, f64),
    /// A known defect that makes this check miss. Such a miss does not
    /// fail the run, but a pass does, so the fix must drop the marker.
    pub known_defect: Option<&'static str>,
}

impl Check {
    /// Whether the measurement lies in the band (NaN never does).
    pub fn within(&self) -> bool {
        self.band.0 <= self.measured && self.measured <= self.band.1
    }

    /// Whether this check fails the run: a clean check that misses, or a
    /// known-defect check that passes.
    pub fn fails_run(&self) -> bool {
        self.within() == self.known_defect.is_some()
    }

    /// `PASS`, `MISS`, or the known-defect forms of either.
    pub fn status(&self) -> String {
        match (self.within(), self.known_defect) {
            (true, None) => "PASS".to_string(),
            (false, None) => "MISS".to_string(),
            (false, Some(d)) => format!("MISS (known: {d})"),
            (true, Some(_)) => "PASS (stale known-defect marker: remove it)".to_string(),
        }
    }
}

/// What one experiment reports: its lines and tables, as printed, and
/// its checks.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Output {
    /// The printed text.
    pub text: String,
    /// The gated claims.
    pub checks: Vec<Check>,
}

impl Output {
    fn line(&mut self, text: impl AsRef<str>) {
        self.text.push_str(text.as_ref());
        self.text.push('\n');
    }

    /// Appends a table; `headers` lists the columns, comma-separated.
    fn table(&mut self, title: impl AsRef<str>, headers: &str, rows: Vec<Vec<String>>) {
        let headers: Vec<&str> = headers.split(", ").collect();
        self.text
            .push_str(&render_table(title.as_ref(), &headers, &rows));
    }

    /// Adds a check with no known defect; returns it for marking.
    fn check(&mut self, claim: &str, paper: &'static str, x: f64, band: (f64, f64)) -> &mut Check {
        self.checks.push(Check {
            claim: claim.to_string(),
            paper,
            measured: x,
            band,
            known_defect: None,
        });
        self.checks.last_mut().expect("just pushed")
    }
}

/// One registered experiment.
pub struct Experiment {
    /// The `mtk repro` id.
    pub id: &'static str,
    /// The paper artifact or section it reproduces.
    pub paper_section: &'static str,
    /// Runs it.
    pub run: fn(&Ctx) -> Output,
}

const fn exp(id: &'static str, paper_section: &'static str, run: fn(&Ctx) -> Output) -> Experiment {
    Experiment {
        id,
        paper_section,
        run,
    }
}

/// Every experiment: the paper's figures and Table 1, then the ablations,
/// then the extensions.
pub const EXPERIMENTS: &[Experiment] = &[
    exp("fig5", "Fig 5: tree transients vs W/L", paper::fig5),
    exp("tab1", "Table 1, Fig 7, §4: multiplier", paper::tab1),
    exp("fig10", "Fig 10: tree delay, SPICE vs sim", paper::fig10),
    exp("fig11", "Fig 11: vgnd bounce, SPICE vs sim", paper::fig11),
    exp("fig13", "Fig 13: adder delay, SPICE vs sim", paper::fig13),
    exp("fig14", "Fig 14: S2 degradation scatter", paper::fig14),
    exp("sec6-2", "§6.2: SPICE vs sim CPU time", paper::sec6_2),
    exp("abl-body", "§5.3: body effect in Vx", ablations::body),
    exp("abl-alpha", "§1 Eq. 2: alpha-power law", ablations::alpha),
    exp("abl-revcond", "§2.3: low-output ride", ablations::revcond),
    exp("abl-cx", "§2.2: vgnd capacitance", ablations::cx),
    exp("abl-sta", "§4: critical-path STA", ablations::sta),
    exp("abl-caps", "§5.3: lumped vs Meyer caps", ablations::caps),
    exp("ext-leak", "§1: standby leakage", extensions::leak),
    exp("ext-energy", "§2.1: switching energy", extensions::energy),
    exp("ext-screen", "§5, §7: screen + verify", extensions::screen),
    exp("ext-search", "§4: worst-vector search", extensions::search),
    exp("ext-style", "§2.4: mirror vs 9-NAND", extensions::style),
    exp("ext-modules", "§7: per-module sleep", extensions::modules),
];

/// The experiment with this id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// The check table of a run: one row per `(experiment id, check)`.
pub fn render_checks(checks: &[(&str, Check)]) -> String {
    let mut rows = Vec::new();
    for (id, c) in checks {
        let (measured, band) = (format!("{:.3}", c.measured), format!("{:?}", c.band));
        let cells = [id, c.claim.as_str(), c.paper, &measured, &band, &c.status()];
        rows.push(cells.map(String::from).to_vec());
    }
    let headers = ["id", "claim", "paper", "measured", "band", "status"];
    render_table("checks", &headers, &rows)
}

/// A circuit under a technology with one transition and its probes: the
/// setup the SPICE-vs-simulator experiments share.
struct Bench {
    netlist: Netlist,
    tech: Technology,
    tr: Transition,
    probes: Vec<NetId>,
}

impl Bench {
    /// The Fig 4 inverter tree, input 0→1, probed at its first leaf.
    fn tree(tech: Technology) -> Bench {
        let tree = InverterTree::paper();
        let probes = vec![tree.probe()];
        let tr = Transition::new(vec![Logic::Zero], vec![Logic::One]);
        let netlist = tree.netlist;
        Bench {
            netlist,
            tech,
            tr,
            probes,
        }
    }

    fn engine(&self) -> Engine<'_> {
        Engine::new(&self.netlist, &self.tech)
    }

    /// One SPICE run of the transition.
    fn spice(&self, sleep: SleepImpl, cfg: &SpiceRunConfig) -> SpiceTransition {
        let (nl, probes) = (&self.netlist, Some(self.probes.as_slice()));
        let res = spice_transition(nl, &self.tech, &self.tr, probes, sleep, cfg);
        res.expect("spice run")
    }

    /// Switch-level delay at each sleep W/L, under `opts(W/L)`.
    fn vbsim_delays(&self, sizes: &[f64], opts: impl Fn(f64) -> VbsimOptions) -> Vec<f64> {
        let (engine, tr) = (self.engine(), &self.tr);
        let run = |wl| engine.run(&tr.from, &tr.to, &opts(wl)).expect("vbsim");
        let delay = |wl| run(wl).delay_over(&self.probes).expect("switches");
        sizes.iter().map(|&wl| delay(wl)).collect()
    }

    /// SPICE (a `window`-second run) and switch-level delay at each
    /// sleep W/L.
    fn sweep(
        &self,
        sizes: &[f64],
        window: f64,
        opts: impl Fn(f64) -> VbsimOptions,
    ) -> (Vec<f64>, Vec<f64>) {
        let cfg = SpiceRunConfig::window(window);
        let spice = |w_over_l| self.spice(SleepImpl::Transistor { w_over_l }, &cfg);
        let sp = sizes.iter().map(|&wl| spice(wl).delay.expect("switches"));
        (sp.collect(), self.vbsim_delays(sizes, opts))
    }

    /// FIG10/FIG13: the SPICE-vs-simulator table over `sizes`, both
    /// curves' monotonicity and trend correlation, and their checks
    /// (`band` covers both ends of the sim/SPICE delay ratio range).
    fn compare(&self, out: &mut Output, title: &str, sizes: &[f64], window: f64, band: (f64, f64)) {
        let (sp, vb) = self.sweep(sizes, window, VbsimOptions::mtcmos);
        let ratio: Vec<f64> = sp.iter().zip(&vb).map(|(s, v)| v / s).collect();
        let row = |k: usize| {
            let (wl, r) = (format!("{}", sizes[k]), format!("{:.2}", ratio[k]));
            vec![wl, ns(sp[k]), ns(vb[k]), r]
        };
        let rows = (0..sizes.len()).map(row).collect();
        out.table(title, "W/L, SPICE [ns], simulator [ns], sim/SPICE", rows);
        let monotone = |d: &[f64]| d.windows(2).all(|w| w[1] <= w[0] + 1e-15);
        let (sp_mono, vb_mono) = (monotone(&sp), monotone(&vb));
        let (pearson, spearman) = (stats::pearson(&sp, &vb), stats::spearman(&sp, &vb));
        out.line(format!(
            "\nSPICE curve monotone decreasing in W/L: {sp_mono}\n\
             simulator curve monotone decreasing in W/L: {vb_mono}\n\
             trend agreement: pearson {pearson:.3}, spearman {spearman:.3}"
        ));
        let both = (sp_mono && vb_mono) as u8 as f64;
        out.check("both curves fall with W/L", "yes", both, (1.0, 1.0));
        out.check("spearman, SPICE vs sim", "tracks", spearman, (0.95, 1.0));
        let lo = ratio.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = ratio.iter().copied().fold(0.0, f64::max);
        out.check("sim/SPICE delay, lowest", "offset", lo, band);
        out.check("sim/SPICE delay, highest", "offset", hi, band);
    }
}

/// `from->to` of an exhaustive-transition index over `bits` inputs.
fn vector_label(index: usize, bits: usize) -> String {
    let (from, to) = (index >> bits, index & ((1 << bits) - 1));
    format!("{from:0bits$b}->{to:0bits$b}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_indexed_in_design_md() {
        let design = include_str!("../../../../DESIGN.md");
        let section = &design[design.find("## 5. Per-experiment index").expect("§5")..];
        let section = &section[..section.find("\n## 6.").expect("§6")];
        for (k, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..k].iter().all(|o| o.id != e.id),
                "duplicate id {}",
                e.id
            );
            assert!(
                section.contains(&format!("`mtk repro {}`", e.id)),
                "DESIGN.md §5 does not cite `mtk repro {}`",
                e.id
            );
        }
    }

    #[test]
    fn checks_fail_on_a_miss_or_a_stale_known_defect() {
        let mut out = Output::default();
        let c = out.check("c", "p", 1.0, (0.5, 1.5)).clone();
        assert!(c.within() && !c.fails_run());
        assert_eq!(c.status(), "PASS");
        let miss = Check {
            measured: 2.0,
            ..c.clone()
        };
        assert!(miss.fails_run());
        assert_eq!(miss.status(), "MISS");
        assert!(!Check {
            measured: f64::NAN,
            ..c.clone()
        }
        .within());
        let known = Check {
            known_defect: Some("why"),
            ..miss
        };
        assert!(!known.fails_run());
        assert_eq!(known.status(), "MISS (known: why)");
        assert!(Check {
            known_defect: Some("why"),
            ..c
        }
        .fails_run());
    }

    /// Only EXT-SCREEN's check may carry a known-defect marker.
    #[test]
    fn only_ext_screen_carries_a_known_defect() {
        let marked = |src: &str| src.matches(".known_defect = Some(").count();
        assert_eq!(marked(include_str!("paper.rs")), 0);
        assert_eq!(marked(include_str!("ablations.rs")), 0);
        let ext = include_str!("extensions.rs");
        assert_eq!(marked(ext), 1);
        let screen = &ext[ext.find("pub fn screen(").expect("screen")..];
        assert_eq!(
            marked(&screen[..screen.find("\npub fn ").expect("next fn")]),
            1
        );
    }

    #[test]
    fn a_cheap_experiment_is_deterministic() {
        let run = find("ext-modules").expect("registered").run;
        let ctx = Ctx::new(false);
        let (a, b) = (run(&ctx), run(&ctx));
        assert!(!a.checks.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn vector_labels_split_the_packed_index() {
        assert_eq!(vector_label(13 * 64 + 6, 6), "001101->000110");
    }
}
