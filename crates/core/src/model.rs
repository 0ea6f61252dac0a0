//! The first-order MTCMOS delay model (paper §5.1).
//!
//! With N gates discharging simultaneously through a shared sleep
//! resistance R, the virtual-ground voltage V<sub>x</sub> settles at the
//! equilibrium where the current through the resistor equals the sum of
//! the gates' saturation currents (Eq. 5):
//!
//! ```text
//! Vx / R = Σ_j (β_j / 2) · (Vdd − Vx − Vtn)^α
//! ```
//!
//! Each gate then discharges its load at the constant current
//! I<sub>j</sub> = (β<sub>j</sub>/2)(V<sub>dd</sub> − V<sub>x</sub> − V<sub>tn</sub>)^α,
//! giving the propagation delay of Eq. 3:
//! T<sub>pd,j</sub> = C<sub>L</sub>V<sub>dd</sub> / (2 I<sub>j</sub>).
//!
//! The paper's simple tool ignores the body effect; this implementation
//! optionally includes it (V<sub>tn</sub> rises with V<sub>x</sub>, §5.3's
//! first listed improvement) so the ablation benches can quantify it.

use crate::CoreError;
use mtk_netlist::tech::Technology;
use mtk_num::roots::{brent, RootOptions};

/// Options for the virtual-ground equilibrium solve.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VxOptions {
    /// Include the body effect (V<sub>tn</sub> raised by the
    /// source-to-body bias V<sub>x</sub>). The paper's simple model omits
    /// it; enabling it is the §5.3 accuracy extension.
    pub body_effect: bool,
}

/// Solves Eq. 5 for the virtual-ground voltage V<sub>x</sub> given the
/// sleep resistance and the effective β of every *currently discharging*
/// gate.
///
/// Returns `0.0` when nothing is discharging or the resistance is zero
/// (conventional CMOS).
///
/// # Example
///
/// The more gates discharge simultaneously through one sleep transistor,
/// the higher the virtual ground rises — the crux of §5's worst-case
/// vector argument:
///
/// ```
/// use mtk_core::model::{solve_vx, VxOptions};
/// use mtk_netlist::tech::Technology;
///
/// let tech = Technology::l07();
/// let r_sleep = tech.sleep_resistance(20.0);
/// let beta = tech.kp_n * 8.0; // one discharging gate of W/L = 8
/// let one = solve_vx(&tech, r_sleep, &[beta], VxOptions::default()).unwrap();
/// let four = solve_vx(&tech, r_sleep, &[beta; 4], VxOptions::default()).unwrap();
/// assert!(one > 0.0);
/// assert!(four > one, "N parallel gates raise Vx above a single gate");
/// assert!(four < tech.vdd);
/// ```
///
/// # Errors
///
/// Returns [`CoreError::Numeric`] if the equilibrium solve fails
/// (it cannot for physical inputs; the error path guards against NaNs).
pub fn solve_vx(
    tech: &Technology,
    r_sleep: f64,
    discharging_betas: &[f64],
    opts: VxOptions,
) -> Result<f64, CoreError> {
    solve_vx_tracked(tech, r_sleep, discharging_betas, opts).map(|(vx, _)| vx)
}

/// [`solve_vx`] with fallback observability: the second element is
/// `true` when the strict-tolerance solve failed and the equilibrium was
/// only found under relaxed tolerances. The strict path is attempted
/// first, so healthy solves return bit-identical values to [`solve_vx`]
/// before the fallback existed.
///
/// # Errors
///
/// Returns [`CoreError::Numeric`] when even the relaxed solve fails.
pub fn solve_vx_tracked(
    tech: &Technology,
    r_sleep: f64,
    discharging_betas: &[f64],
    opts: VxOptions,
) -> Result<(f64, bool), CoreError> {
    solve_eq5(tech, r_sleep, discharging_betas, opts, |beta| {
        discharge_scale(tech, beta)
    })
}

/// [`solve_vx_tracked`] for gates given by their [`discharge_scale`]
/// instead of their β: bit-identical to solving the βs the scales were
/// computed from, without recomputing each scale on every evaluation.
/// Gates with equal scales are interchangeable, so the scale list alone
/// determines the result.
///
/// # Errors
///
/// As [`solve_vx_tracked`].
pub fn solve_vx_scaled(
    tech: &Technology,
    r_sleep: f64,
    scales: &[f64],
    opts: VxOptions,
) -> Result<(f64, bool), CoreError> {
    solve_eq5(tech, r_sleep, scales, opts, |scale| scale)
}

/// The Eq. 5 solve behind [`solve_vx_tracked`] and [`solve_vx_scaled`]:
/// `scale_of` maps each gate entry to its [`discharge_scale`].
fn solve_eq5(
    tech: &Technology,
    r_sleep: f64,
    gates: &[f64],
    opts: VxOptions,
    scale_of: impl Fn(f64) -> f64,
) -> Result<(f64, bool), CoreError> {
    if r_sleep <= 0.0 || gates.is_empty() {
        return Ok((0.0, false));
    }
    // Every gate shares the overdrive at a given vx, so the power is
    // taken once per evaluation and scaled per gate — the same
    // expression tree as `nmos_isat` per gate, hence bit-identical.
    let total_current_at = |vx: f64| -> f64 {
        let drive = discharge_drive(tech, vx, opts.body_effect);
        gates
            .iter()
            .map(|&g| discharge_current_with(scale_of(g), drive))
            .sum()
    };
    // f(vx) = vx/R − ΣI(vx): negative at 0 (current flows), positive once
    // vx starves the gate drive.
    let f = |vx: f64| vx / r_sleep - total_current_at(vx);
    let hi = tech.vdd;
    if f(0.0) >= 0.0 {
        // No current at all (gates already stalled by definition) — the
        // equilibrium is 0.
        return Ok((0.0, false));
    }
    match brent(
        &f,
        0.0,
        hi,
        RootOptions {
            x_tol: 1e-9,
            f_tol: 1e-12,
            max_iter: 200,
        },
    ) {
        Ok(vx) => Ok((vx, false)),
        Err(_) => {
            // Relaxed fallback: looser tolerances, more iterations. Only
            // reached where the strict solve errored, so it cannot
            // perturb results that used to succeed.
            let vx = brent(
                &f,
                0.0,
                hi,
                RootOptions {
                    x_tol: 1e-7,
                    f_tol: 1e-9,
                    max_iter: 2000,
                },
            )
            .map_err(CoreError::Numeric)?;
            Ok((vx, true))
        }
    }
}

/// Closed-form solution of Eq. 5 for the pure square-law case
/// (α = 2, no body effect): the smaller root of
/// `(B/2)·Vx² − (B·A + 1/R)·Vx + (B/2)·A² = 0` with `B = Σβ`,
/// `A = Vdd − Vtn`.
///
/// Used to cross-check the iterative solver. Returns `0.0` for empty
/// inputs or `r_sleep <= 0`.
pub fn solve_vx_closed_form_square_law(tech: &Technology, r_sleep: f64, betas: &[f64]) -> f64 {
    if r_sleep <= 0.0 || betas.is_empty() {
        return 0.0;
    }
    let b: f64 = betas.iter().sum();
    let a = tech.vdd - tech.vtn;
    if a <= 0.0 {
        return 0.0;
    }
    // (B/2) vx^2 − (B a + 1/R) vx + (B/2) a^2 = 0.
    let qa = b / 2.0;
    let qb = -(b * a + 1.0 / r_sleep);
    let qc = b / 2.0 * a * a;
    let disc = (qb * qb - 4.0 * qa * qc).max(0.0);
    (-qb - disc.sqrt()) / (2.0 * qa)
}

/// Discharge current of a gate with effective pull-down β at
/// virtual-ground voltage `vx` (the I<sub>j</sub> of Eq. 4/5).
pub fn discharge_current(tech: &Technology, beta: f64, vx: f64, body_effect: bool) -> f64 {
    tech.nmos_isat(beta / tech.kp_n, vx, body_effect)
}

/// The β-independent factor of [`discharge_current`] at virtual-ground
/// voltage `vx`: `(Vdd − Vx − Vtn)^α`, `None` when the overdrive is
/// starved (zero current). Every gate discharging into the same virtual
/// ground shares it.
pub fn discharge_drive(tech: &Technology, vx: f64, body_effect: bool) -> Option<f64> {
    let (vgs, vth) = tech.nmos_bias(vx, body_effect);
    mtk_spice::mos::alpha_power_drive(vgs, vth, tech.alpha)
}

/// The per-gate factor of [`discharge_current`]: `β/2` written exactly as
/// [`Technology::nmos_isat`] forms it (`0.5 · (kp_n · (β / kp_n))`), so
/// `discharge_current_with(discharge_scale(t, β), discharge_drive(t, vx,
/// b))` is bit-identical to `discharge_current(t, β, vx, b)`.
pub fn discharge_scale(tech: &Technology, beta: f64) -> f64 {
    0.5 * (tech.kp_n * (beta / tech.kp_n))
}

/// [`discharge_current`] from its two factors ([`discharge_scale`],
/// [`discharge_drive`]).
pub fn discharge_current_with(scale: f64, drive: Option<f64>) -> f64 {
    drive.map_or(0.0, |p| scale * p)
}

/// Charge (pull-up) current of a gate with effective PMOS β — unaffected
/// by an NMOS sleep device (§2.1: "the low to high transition behaves
/// exactly the same as conventional CMOS").
pub fn charge_current(tech: &Technology, beta_p: f64) -> f64 {
    tech.pmos_isat(beta_p / tech.kp_p)
}

/// Paper Eq. 3: propagation delay of gate `j` discharging `cl` at
/// constant current `i` — the time for the output to fall from
/// V<sub>dd</sub> to V<sub>dd</sub>/2.
///
/// Returns `f64::INFINITY` when the gate is stalled (`i <= 0`).
pub fn constant_current_delay(tech: &Technology, cl: f64, i: f64) -> f64 {
    if i <= 0.0 {
        f64::INFINITY
    } else {
        cl * tech.vdd / (2.0 * i)
    }
}

/// The delay of one inverter when `n` identical inverters (β, C<sub>L</sub>)
/// discharge simultaneously through sleep resistance `r` — the §5.1
/// worked model, used directly in tests and the model-level benches.
///
/// # Errors
///
/// Propagates [`CoreError::Numeric`] from the V<sub>x</sub> solve.
pub fn n_inverter_delay(
    tech: &Technology,
    r_sleep: f64,
    n: usize,
    beta: f64,
    cl: f64,
    opts: VxOptions,
) -> Result<f64, CoreError> {
    let betas = vec![beta; n];
    let vx = solve_vx(tech, r_sleep, &betas, opts)?;
    let i = discharge_current(tech, beta, vx, opts.body_effect);
    Ok(constant_current_delay(tech, cl, i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtk_num::prng::Xoshiro256pp;

    fn square_law_tech() -> Technology {
        Technology {
            alpha: 2.0,
            gamma: 0.0,
            ..Technology::l07()
        }
    }

    #[test]
    fn zero_resistance_gives_zero_vx() {
        let t = Technology::l07();
        let vx = solve_vx(&t, 0.0, &[1e-4, 1e-4], VxOptions::default()).unwrap();
        assert_eq!(vx, 0.0);
    }

    #[test]
    fn no_gates_gives_zero_vx() {
        let t = Technology::l07();
        assert_eq!(solve_vx(&t, 1e3, &[], VxOptions::default()).unwrap(), 0.0);
    }

    #[test]
    fn iterative_matches_closed_form_square_law() {
        let t = square_law_tech();
        for &r in &[100.0, 1_000.0, 10_000.0] {
            for n in [1usize, 3, 9] {
                let betas = vec![t.kp_n * 1.0; n];
                let it = solve_vx(&t, r, &betas, VxOptions { body_effect: false }).unwrap();
                let cf = solve_vx_closed_form_square_law(&t, r, &betas);
                assert!(
                    (it - cf).abs() < 1e-7,
                    "r={r} n={n}: iterative {it} vs closed form {cf}"
                );
            }
        }
    }

    #[test]
    fn vx_satisfies_equilibrium() {
        let t = Technology::l07();
        let betas = vec![t.kp_n * 1.0; 9];
        let r = t.sleep_resistance(10.0);
        let vx = solve_vx(&t, r, &betas, VxOptions { body_effect: true }).unwrap();
        let i_total: f64 = betas
            .iter()
            .map(|&b| discharge_current(&t, b, vx, true))
            .sum();
        assert!(
            (vx / r - i_total).abs() / i_total.max(1e-12) < 1e-6,
            "vx={vx}, I={i_total}"
        );
    }

    #[test]
    fn body_effect_raises_vx_degradation() {
        // With the body effect the gates weaken further, so the same
        // current balance happens at *lower* vx but lower current too —
        // delay must be longer.
        let t = Technology::l07();
        let r = t.sleep_resistance(5.0);
        let beta = t.kp_n;
        let d_plain =
            n_inverter_delay(&t, r, 9, beta, 50e-15, VxOptions { body_effect: false }).unwrap();
        let d_body =
            n_inverter_delay(&t, r, 9, beta, 50e-15, VxOptions { body_effect: true }).unwrap();
        assert!(d_body > d_plain, "{d_body} vs {d_plain}");
    }

    #[test]
    fn delay_formula_matches_hand_calc() {
        let t = square_law_tech();
        // Single inverter, no sleep resistance: I = β/2 (vdd−vtn)^2.
        let beta = t.kp_n * 2.0;
        let d = n_inverter_delay(&t, 0.0, 1, beta, 50e-15, VxOptions::default()).unwrap();
        let i = beta / 2.0 * (t.vdd - t.vtn).powi(2);
        assert!((d - 50e-15 * t.vdd / (2.0 * i)).abs() < 1e-18);
    }

    #[test]
    fn stalled_gate_has_infinite_delay() {
        let t = Technology::l07();
        assert_eq!(constant_current_delay(&t, 50e-15, 0.0), f64::INFINITY);
    }

    /// Vx is monotone increasing in R and in the number of gates.
    #[test]
    fn vx_monotone_in_r_and_n() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x1101);
        for _ in 0..64 {
            let wl = rng.next_f64_in(2.0, 50.0);
            let n = 1 + rng.next_index(19);
            let t = Technology::l07();
            let betas_n = vec![t.kp_n; n];
            let betas_n1 = vec![t.kp_n; n + 1];
            let r1 = t.sleep_resistance(wl);
            let r2 = t.sleep_resistance(wl / 2.0); // larger resistance
            let o = VxOptions { body_effect: true };
            let v_r1 = solve_vx(&t, r1, &betas_n, o).unwrap();
            let v_r2 = solve_vx(&t, r2, &betas_n, o).unwrap();
            let v_n1 = solve_vx(&t, r1, &betas_n1, o).unwrap();
            assert!(v_r2 >= v_r1 - 1e-12, "wl={wl} n={n}");
            assert!(v_n1 >= v_r1 - 1e-12, "wl={wl} n={n}");
            // Physical bound: 0 <= vx < vdd.
            assert!(v_r1 >= 0.0 && v_r1 < t.vdd);
        }
    }

    /// The per-β solver [`solve_vx_tracked`] replaced: `nmos_isat` once
    /// per gate per evaluation. Kept as the oracle the hoisted solver is
    /// pinned to.
    fn solve_vx_tracked_oracle(
        tech: &Technology,
        r_sleep: f64,
        discharging_betas: &[f64],
        opts: VxOptions,
    ) -> Result<(f64, bool), CoreError> {
        if r_sleep <= 0.0 || discharging_betas.is_empty() {
            return Ok((0.0, false));
        }
        let total_current_at = |vx: f64| -> f64 {
            discharging_betas
                .iter()
                .map(|&beta| tech.nmos_isat(beta / tech.kp_n, vx, opts.body_effect))
                .sum()
        };
        let f = |vx: f64| vx / r_sleep - total_current_at(vx);
        if f(0.0) >= 0.0 {
            return Ok((0.0, false));
        }
        let strict = RootOptions {
            x_tol: 1e-9,
            f_tol: 1e-12,
            max_iter: 200,
        };
        match brent(&f, 0.0, tech.vdd, strict) {
            Ok(vx) => Ok((vx, false)),
            Err(_) => {
                let relaxed = RootOptions {
                    x_tol: 1e-7,
                    f_tol: 1e-9,
                    max_iter: 2000,
                };
                let vx = brent(&f, 0.0, tech.vdd, relaxed).map_err(CoreError::Numeric)?;
                Ok((vx, true))
            }
        }
    }

    fn bits(r: &Result<(f64, bool), CoreError>) -> Result<(u64, bool), String> {
        r.as_ref()
            .map(|&(vx, fell)| (vx.to_bits(), fell))
            .map_err(|e| e.to_string())
    }

    /// The hoisted solver, given βs or their scales, is bit-identical to
    /// the per-β oracle over
    /// random β lists, resistances and both body-effect settings. Every
    /// solve evaluates starved gates (`vov <= 0` at V<sub>x</sub> =
    /// V<sub>dd</sub>); a threshold above the supply starves them at
    /// every V<sub>x</sub>; a depletion-mode threshold keeps current
    /// flowing at V<sub>x</sub> = V<sub>dd</sub>, so a large R leaves no
    /// bracket, the strict solve fails and the relaxed fallback runs
    /// (and errors). Values, fallback flags and errors must all agree.
    #[test]
    fn hoisted_solver_matches_per_beta_oracle_bitwise() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x1103);
        let techs = [
            Technology::l07(),
            Technology::l03(),
            square_law_tech(),
            Technology {
                vtn: 1.5,
                ..Technology::l07()
            },
            Technology {
                vtn: -0.3,
                ..Technology::l07()
            },
        ];
        let (mut solved, mut relaxed) = (0usize, 0usize);
        for case in 0..500 {
            let mut t = techs[case % techs.len()].clone();
            if case % 3 == 0 {
                t.alpha = rng.next_f64_in(1.0, 2.0);
            }
            let n = rng.next_index(64);
            let betas: Vec<f64> = (0..n)
                .map(|_| t.kp_n * rng.next_f64_in(0.2, 40.0))
                .collect();
            let r = if case % 11 == 0 {
                0.0
            } else {
                10f64.powf(rng.next_f64_in(0.0, 9.0))
            };
            let scales: Vec<f64> = betas.iter().map(|&b| discharge_scale(&t, b)).collect();
            for body_effect in [false, true] {
                let o = VxOptions { body_effect };
                let want = solve_vx_tracked_oracle(&t, r, &betas, o);
                let got = solve_vx_tracked(&t, r, &betas, o);
                assert_eq!(bits(&got), bits(&want), "case {case} n={n} r={r}");
                let scaled = solve_vx_scaled(&t, r, &scales, o);
                assert_eq!(
                    bits(&scaled),
                    bits(&want),
                    "scaled: case {case} n={n} r={r}"
                );
                match want {
                    Ok((vx, _)) if vx > 0.0 => solved += 1,
                    Err(_) => relaxed += 1,
                    Ok(_) => {}
                }
            }
        }
        assert!(solved > 100, "only {solved} non-trivial solves");
        assert!(relaxed > 10, "relaxed fallback ran only {relaxed} times");
    }

    /// Per-gate delay is monotone non-decreasing as sleep W/L shrinks.
    #[test]
    fn delay_monotone_in_sleep_size() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x1102);
        for _ in 0..32 {
            let n = 1 + rng.next_index(14);
            let t = Technology::l07();
            let o = VxOptions { body_effect: true };
            let mut last = 0.0f64;
            for wl in [100.0, 50.0, 20.0, 10.0, 5.0, 2.0] {
                let r = t.sleep_resistance(wl);
                let d = n_inverter_delay(&t, r, n, t.kp_n, 50e-15, o).unwrap();
                assert!(d >= last - 1e-18, "delay not monotone at wl={wl} n={n}");
                last = d;
            }
        }
    }
}
