//! MOSFET device models.
//!
//! The workhorse is a Level-1 (Shichman–Hodges) model extended with the
//! body effect (γ, φ), channel-length modulation (λ) and an optional
//! subthreshold-conduction term. These are exactly the physical effects
//! the paper reasons about: the sleep-transistor voltage drop reduces the
//! gate drive *and* raises V<sub>t</sub> of the pull-down stack through
//! the body effect (§2.1), while subthreshold leakage is the quantity
//! MTCMOS exists to suppress (§1).
//!
//! The alpha-power-law model of Sakurai–Newton (the paper's refs \[1]\[2])
//! is provided as [`alpha_power_isat`] for the hand-analysis delay model
//! in `mtk-core`.

/// Thermal voltage kT/q at room temperature (300 K), in volts.
pub const THERMAL_VOLTAGE: f64 = 0.02585;

/// Channel polarity of a MOSFET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// N-channel.
    Nmos,
    /// P-channel.
    Pmos,
}

impl Polarity {
    /// +1.0 for NMOS, −1.0 for PMOS: the voltage/current reflection that
    /// maps a PMOS onto the normalized NMOS equations.
    pub fn sign(self) -> f64 {
        match self {
            Polarity::Nmos => 1.0,
            Polarity::Pmos => -1.0,
        }
    }
}

/// Optional subthreshold-conduction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Subthreshold {
    /// Subthreshold slope factor `n` (typically 1.2–1.6).
    pub n: f64,
    /// Leakage current scale `i0` in amperes for a W/L = 1 device at
    /// V<sub>gs</sub> = V<sub>t</sub>.
    pub i0: f64,
}

impl Default for Subthreshold {
    fn default() -> Self {
        Subthreshold { n: 1.5, i0: 1e-7 }
    }
}

/// Constant (Meyer-style) intrinsic capacitances per unit W/L, farads.
///
/// The transient engine treats these as linear capacitors between the
/// device terminals — enough to model gate loading, Miller kickback,
/// and junction loading without the full voltage-dependent Meyer
/// partition.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MosCaps {
    /// Gate–source capacitance per W/L.
    pub cgs: f64,
    /// Gate–drain (Miller) capacitance per W/L.
    pub cgd: f64,
    /// Drain–body junction capacitance per W/L.
    pub cdb: f64,
    /// Source–body junction capacitance per W/L.
    pub csb: f64,
}

impl MosCaps {
    /// A symmetric split of a total gate capacitance `c_gate` plus a
    /// junction capacitance `c_junction`, both per unit W/L.
    pub fn split(c_gate: f64, c_junction: f64) -> Self {
        MosCaps {
            cgs: 0.5 * c_gate,
            cgd: 0.5 * c_gate,
            cdb: c_junction,
            csb: c_junction,
        }
    }
}

/// A Level-1 MOSFET model card.
///
/// All values refer to the *magnitude* convention: `vt0`, `kp`, `gamma`,
/// `phi` and `lambda` are positive for both polarities; the polarity
/// reflection is handled by the evaluator.
#[derive(Debug, Clone, PartialEq)]
pub struct MosModel {
    /// Channel polarity.
    pub polarity: Polarity,
    /// Zero-bias threshold voltage magnitude, volts.
    pub vt0: f64,
    /// Transconductance parameter k′ = µC<sub>ox</sub>, A/V².
    pub kp: f64,
    /// Body-effect coefficient γ, V^½.
    pub gamma: f64,
    /// Surface potential 2φ<sub>F</sub>, volts.
    pub phi: f64,
    /// Channel-length modulation λ, 1/V.
    pub lambda: f64,
    /// Optional subthreshold conduction; `None` means the device is an
    /// ideal switch below threshold.
    pub subthreshold: Option<Subthreshold>,
    /// Optional intrinsic capacitances; `None` means the device is
    /// purely resistive and all dynamics come from explicit capacitors
    /// (the lumped-load convention the MTCMOS expansion uses).
    pub caps: Option<MosCaps>,
}

impl MosModel {
    /// A generic NMOS card with the given threshold and transconductance.
    pub fn nmos(vt0: f64, kp: f64) -> Self {
        MosModel {
            polarity: Polarity::Nmos,
            vt0,
            kp,
            gamma: 0.4,
            phi: 0.6,
            lambda: 0.05,
            subthreshold: None,
            caps: None,
        }
    }

    /// A generic PMOS card with the given threshold magnitude and
    /// transconductance.
    pub fn pmos(vt0: f64, kp: f64) -> Self {
        MosModel {
            polarity: Polarity::Pmos,
            vt0,
            kp,
            gamma: 0.4,
            phi: 0.6,
            lambda: 0.05,
            subthreshold: None,
            caps: None,
        }
    }

    /// Returns a copy with subthreshold conduction enabled.
    pub fn with_subthreshold(mut self, sub: Subthreshold) -> Self {
        self.subthreshold = Some(sub);
        self
    }

    /// Returns a copy with intrinsic capacitances enabled.
    pub fn with_caps(mut self, caps: MosCaps) -> Self {
        self.caps = Some(caps);
        self
    }

    /// Threshold voltage (magnitude) at source-to-body reverse bias
    /// `vsb` ≥ 0 (normalized frame).
    pub fn vth(&self, vsb: f64) -> f64 {
        let vsb = vsb.max(-self.phi * 0.99);
        self.vt0 + self.gamma * ((self.phi + vsb).sqrt() - self.phi.sqrt())
    }

    /// Effective on-resistance of the device operating deep in triode
    /// (V<sub>ds</sub> → 0) with gate at `vdd`:
    /// `R = 1 / (kp · (W/L) · (vdd − vt0))`.
    ///
    /// This is the paper's §2.1 finite-resistance approximation of the ON
    /// sleep transistor.
    ///
    /// # Panics
    ///
    /// Panics if the device would not be on (`vdd <= vt0`) or if
    /// `w_over_l <= 0`.
    pub fn triode_resistance(&self, w_over_l: f64, vdd: f64) -> f64 {
        assert!(w_over_l > 0.0, "W/L must be positive");
        assert!(
            vdd > self.vt0,
            "sleep device would be off: vdd={vdd} <= vt0={}",
            self.vt0
        );
        1.0 / (self.kp * w_over_l * (vdd - self.vt0))
    }
}

/// Operating-point evaluation of a MOSFET: drain current and its partial
/// derivatives with respect to the four terminal voltages.
///
/// `id` flows from drain to source (negative for PMOS in normal
/// operation). The partials satisfy `d_vg + d_vd + d_vs + d_vb = 0`
/// because the current depends only on voltage differences.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MosEval {
    /// Drain current, amperes (drain → source through the channel).
    pub id: f64,
    /// ∂id/∂vg.
    pub d_vg: f64,
    /// ∂id/∂vd.
    pub d_vd: f64,
    /// ∂id/∂vs.
    pub d_vs: f64,
    /// ∂id/∂vb.
    pub d_vb: f64,
}

/// The terms of a MOSFET's evaluation that depend only on its model card
/// and W/L, so a device evaluated many times can compute them once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MosConsts {
    /// √φ.
    sqrt_phi: f64,
    /// β = k′·(W/L).
    beta: f64,
}

impl MosConsts {
    pub(crate) fn new(model: &MosModel, w_over_l: f64) -> Self {
        MosConsts {
            sqrt_phi: model.phi.sqrt(),
            beta: model.kp * w_over_l,
        }
    }
}

/// Evaluates the model at absolute terminal voltages `(vg, vd, vs, vb)`
/// with aspect ratio `w_over_l`.
///
/// Handles both polarities and drain/source inversion internally, so the
/// caller stamps the result uniformly.
pub fn mos_eval(model: &MosModel, w_over_l: f64, vg: f64, vd: f64, vs: f64, vb: f64) -> MosEval {
    let consts = MosConsts::new(model, w_over_l);
    mos_eval_with(model, w_over_l, consts, vg, vd, vs, vb)
}

/// [`mos_eval`] with `consts` computed beforehand: the same operations
/// on the same operands, so the same bits.
///
/// Inlined into the Newton emitter, which calls it once per MOSFET per
/// iteration: left to itself the compiler keeps it out of line, and the
/// alu4 emission then runs about 10 % slower.
#[inline(always)]
pub(crate) fn mos_eval_with(
    model: &MosModel,
    w_over_l: f64,
    consts: MosConsts,
    vg: f64,
    vd: f64,
    vs: f64,
    vb: f64,
) -> MosEval {
    let s = model.polarity.sign();
    // Reflect to the normalized (NMOS-like) frame: nv = s * v. The
    // physical current is id = s * J(nv...), where J is the normalized
    // drain→source current, so ∂id/∂v = s * ∂J/∂nv * s = ∂J/∂nv.
    let (nvg, nvd, nvs, nvb) = (s * vg, s * vd, s * vs, s * vb);
    // Ensure vds >= 0 by letting the higher terminal play the drain role.
    let swapped = nvd < nvs;
    let (role_d, role_s) = if swapped { (nvs, nvd) } else { (nvd, nvs) };
    let vgs = nvg - role_s;
    let vds = role_d - role_s;
    let vbs = nvb - role_s;
    let (i, gm, gds, gmb) = eval_normalized(model, w_over_l, consts, vgs, vds, vbs);
    // In role coordinates: ∂i/∂nvg = gm, ∂i/∂role_d = gds,
    // ∂i/∂role_s = -(gm + gds + gmb), ∂i/∂nvb = gmb.
    let (j, d_vg, d_vd, d_vs, d_vb);
    if swapped {
        // J = -i, and the physical nvd played the source role.
        j = -i;
        d_vg = -gm;
        d_vd = gm + gds + gmb;
        d_vs = -gds;
        d_vb = -gmb;
    } else {
        j = i;
        d_vg = gm;
        d_vd = gds;
        d_vs = -(gm + gds + gmb);
        d_vb = gmb;
    }
    MosEval {
        id: s * j,
        d_vg,
        d_vd,
        d_vs,
        d_vb,
    }
}

/// Level-1 evaluation in the normalized frame (`vds >= 0`).
/// Returns `(id, gm, gds, gmb)`, all ≥ 0 in strong inversion.
#[inline(always)]
fn eval_normalized(
    model: &MosModel,
    w_over_l: f64,
    consts: MosConsts,
    vgs: f64,
    vds: f64,
    vbs: f64,
) -> (f64, f64, f64, f64) {
    debug_assert!(vds >= 0.0);
    let vsb_raw = -vbs;
    let clamp = -model.phi * 0.99;
    let clamped = vsb_raw < clamp;
    let vsb = vsb_raw.max(clamp);
    let sqrt_term = (model.phi + vsb).sqrt();
    let vth = model.vt0 + model.gamma * (sqrt_term - consts.sqrt_phi);
    // dVth/dVsb = gamma / (2 sqrt(phi + vsb)); zero while the forward-bias
    // clamp is active (vth is constant there).
    let dvth_dvsb = if !clamped && sqrt_term > 0.0 {
        model.gamma / (2.0 * sqrt_term)
    } else {
        0.0
    };
    let vov = vgs - vth;
    let beta = consts.beta;
    let lam = model.lambda;

    let (mut id, mut gm, mut gds);
    if vov <= 0.0 {
        id = 0.0;
        gm = 0.0;
        gds = 0.0;
    } else if vds < vov {
        // Triode.
        let core = vov * vds - 0.5 * vds * vds;
        let clm = 1.0 + lam * vds;
        id = beta * core * clm;
        gm = beta * vds * clm;
        gds = beta * ((vov - vds) * clm + core * lam);
    } else {
        // Saturation.
        let clm = 1.0 + lam * vds;
        id = 0.5 * beta * vov * vov * clm;
        gm = beta * vov * clm;
        gds = 0.5 * beta * vov * vov * lam;
    }

    // gmb comes from dId/dVbs = (dId/dVth)(dVth/dVbs) = (-gm)(-dvth_dvsb).
    let mut gmb = gm * dvth_dvsb;

    // Optional subthreshold conduction, continuous across vov = 0.
    if let Some(sub) = model.subthreshold {
        let nvt = sub.n * THERMAL_VOLTAGE;
        let expo = (vov / nvt).min(0.0); // capped at 1x above threshold
        let e_g = expo.exp();
        let d_sat = 1.0 - (-vds / THERMAL_VOLTAGE).exp();
        let iw = sub.i0 * w_over_l;
        let i_sub = iw * e_g * d_sat;
        id += i_sub;
        let dg = if vov < 0.0 { i_sub / nvt } else { 0.0 };
        gm += dg;
        gds += iw * e_g * (-vds / THERMAL_VOLTAGE).exp() / THERMAL_VOLTAGE;
        gmb += dg * dvth_dvsb;
    }

    (id, gm, gds, gmb)
}

/// Saturation current of the Sakurai–Newton alpha-power-law model:
/// `Id = (beta / 2) · (vgs − vth)^alpha` for `vgs > vth`, else 0.
///
/// `beta` is k′·(W/L). With `alpha = 2` this reduces to the square-law
/// saturation current; short-channel devices have `alpha` between 1 and 2.
pub fn alpha_power_isat(beta: f64, vgs: f64, vth: f64, alpha: f64) -> f64 {
    alpha_power_drive(vgs, vth, alpha).map_or(0.0, |p| 0.5 * beta * p)
}

/// The β-independent factor of [`alpha_power_isat`]: `(vgs − vth)^alpha`,
/// or `None` when the device is off (`vgs <= vth`, zero current).
/// Devices that share a gate drive and threshold can take one power and
/// scale it per device as `0.5 · beta · p`, which is the exact
/// expression [`alpha_power_isat`] evaluates.
pub fn alpha_power_drive(vgs: f64, vth: f64, alpha: f64) -> Option<f64> {
    let vov = vgs - vth;
    if vov <= 0.0 {
        None
    } else {
        Some(vov.powf(alpha))
    }
}

/// Derivative of [`alpha_power_isat`] with respect to `vgs`.
pub fn alpha_power_disat(beta: f64, vgs: f64, vth: f64, alpha: f64) -> f64 {
    let vov = vgs - vth;
    if vov <= 0.0 {
        0.0
    } else {
        0.5 * beta * alpha * vov.powf(alpha - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtk_num::prng::Xoshiro256pp;

    fn nmos_test_model() -> MosModel {
        MosModel::nmos(0.35, 100e-6)
    }

    #[test]
    fn cutoff_has_zero_current_without_subthreshold() {
        let m = nmos_test_model();
        let ev = mos_eval(&m, 4.0, 0.0, 1.2, 0.0, 0.0);
        assert_eq!(ev.id, 0.0);
        assert_eq!(ev.d_vg, 0.0);
    }

    #[test]
    fn saturation_current_matches_hand_calc() {
        let m = MosModel {
            lambda: 0.0,
            gamma: 0.0,
            ..nmos_test_model()
        };
        // vgs = 1.2, vth = 0.35 → vov = 0.85; id = 0.5 * 100u * 4 * 0.85^2
        let ev = mos_eval(&m, 4.0, 1.2, 1.2, 0.0, 0.0);
        let expect = 0.5 * 100e-6 * 4.0 * 0.85f64.powi(2);
        assert!((ev.id - expect).abs() < 1e-12, "{} vs {}", ev.id, expect);
    }

    #[test]
    fn triode_current_matches_hand_calc() {
        let m = MosModel {
            lambda: 0.0,
            gamma: 0.0,
            ..nmos_test_model()
        };
        // vds = 0.1 < vov = 0.85 → triode.
        let ev = mos_eval(&m, 4.0, 1.2, 0.1, 0.0, 0.0);
        let expect = 100e-6 * 4.0 * (0.85 * 0.1 - 0.5 * 0.01);
        assert!((ev.id - expect).abs() < 1e-12);
    }

    #[test]
    fn body_effect_raises_threshold_and_lowers_current() {
        let m = nmos_test_model();
        let at_zero = mos_eval(&m, 4.0, 1.2, 1.2, 0.0, 0.0);
        // Source lifted 0.2 V above body (virtual-ground bounce scenario).
        let lifted = mos_eval(&m, 4.0, 1.2, 1.2, 0.2, 0.0);
        assert!(lifted.id < at_zero.id);
        assert!(m.vth(0.2) > m.vth(0.0));
    }

    #[test]
    fn pmos_current_is_negative_in_normal_operation() {
        let m = MosModel::pmos(0.35, 40e-6);
        // Source at vdd, gate low, drain low: PMOS conducts, current flows
        // source→drain, i.e. id (drain→source) is negative.
        let ev = mos_eval(&m, 8.0, 0.0, 0.0, 1.2, 1.2);
        assert!(ev.id < 0.0, "{}", ev.id);
    }

    #[test]
    fn device_is_symmetric_under_drain_source_swap() {
        let m = nmos_test_model();
        let fwd = mos_eval(&m, 4.0, 1.2, 0.7, 0.3, 0.0);
        let rev = mos_eval(&m, 4.0, 1.2, 0.3, 0.7, 0.0);
        assert!(
            (fwd.id + rev.id).abs() < 1e-15,
            "swap must negate current: {} vs {}",
            fwd.id,
            rev.id
        );
    }

    #[test]
    fn partials_sum_to_zero() {
        let m = nmos_test_model().with_subthreshold(Subthreshold::default());
        for &(vg, vd, vs, vb) in &[
            (1.2, 1.2, 0.0, 0.0),
            (1.2, 0.1, 0.0, 0.0),
            (0.2, 1.2, 0.0, 0.0),
            (1.0, 0.3, 0.6, 0.0),
        ] {
            let ev = mos_eval(&m, 4.0, vg, vd, vs, vb);
            let sum = ev.d_vg + ev.d_vd + ev.d_vs + ev.d_vb;
            assert!(
                sum.abs() < 1e-9,
                "partials sum {sum} at ({vg},{vd},{vs},{vb})"
            );
        }
    }

    #[test]
    fn subthreshold_leakage_scales_exponentially_with_vth() {
        let sub = Subthreshold::default();
        let low = MosModel::nmos(0.2, 100e-6).with_subthreshold(sub);
        let high = MosModel::nmos(0.7, 100e-6).with_subthreshold(sub);
        let i_low = mos_eval(&low, 4.0, 0.0, 1.0, 0.0, 0.0).id;
        let i_high = mos_eval(&high, 4.0, 0.0, 1.0, 0.0, 0.0).id;
        assert!(i_low > 0.0 && i_high > 0.0);
        let ratio = i_low / i_high;
        let expect = ((0.7 - 0.2) / (sub.n * THERMAL_VOLTAGE)).exp();
        assert!(
            (ratio / expect - 1.0).abs() < 1e-6,
            "ratio {ratio} vs {expect}"
        );
    }

    #[test]
    fn triode_resistance_matches_formula() {
        let m = MosModel::nmos(0.75, 100e-6);
        let r = m.triode_resistance(10.0, 1.2);
        assert!((r - 1.0 / (100e-6 * 10.0 * 0.45)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "sleep device would be off")]
    fn triode_resistance_rejects_off_device() {
        MosModel::nmos(0.75, 100e-6).triode_resistance(10.0, 0.5);
    }

    #[test]
    fn alpha_power_reduces_to_square_law() {
        let sq = alpha_power_isat(400e-6, 1.2, 0.35, 2.0);
        assert!((sq - 0.5 * 400e-6 * 0.85f64.powi(2)).abs() < 1e-15);
        assert_eq!(alpha_power_isat(400e-6, 0.2, 0.35, 2.0), 0.0);
        assert_eq!(alpha_power_disat(400e-6, 0.2, 0.35, 2.0), 0.0);
    }

    // Finite-difference check of the analytic partial derivatives over a
    // broad random operating region, both polarities, with and without
    // subthreshold conduction.
    #[test]
    fn partials_match_finite_differences() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x305);
        let mut checked = 0usize;
        for _ in 0..512 {
            let vg = rng.next_f64_in(-0.3, 1.5);
            let vd = rng.next_f64_in(-0.3, 1.5);
            let vs = rng.next_f64_in(-0.3, 1.5);
            let vb = rng.next_f64_in(-0.2, 0.2);
            let wl = rng.next_f64_in(0.5, 20.0);
            let pmos = rng.next_bool();
            let sub = rng.next_bool();
            let mut m = if pmos {
                MosModel::pmos(0.35, 40e-6)
            } else {
                MosModel::nmos(0.35, 100e-6)
            };
            if sub {
                m = m.with_subthreshold(Subthreshold::default());
            }
            // Skip points straddling a regional boundary where the model is
            // only C0 and the analytic derivative is one-sided.
            if near_region_boundary(&m, wl, vg, vd, vs, vb, 5e-7) {
                continue;
            }
            checked += 1;
            let h = 1e-7;
            let base = mos_eval(&m, wl, vg, vd, vs, vb);
            let num_g = (mos_eval(&m, wl, vg + h, vd, vs, vb).id
                - mos_eval(&m, wl, vg - h, vd, vs, vb).id)
                / (2.0 * h);
            let num_d = (mos_eval(&m, wl, vg, vd + h, vs, vb).id
                - mos_eval(&m, wl, vg, vd - h, vs, vb).id)
                / (2.0 * h);
            let num_s = (mos_eval(&m, wl, vg, vd, vs + h, vb).id
                - mos_eval(&m, wl, vg, vd, vs - h, vb).id)
                / (2.0 * h);
            let num_b = (mos_eval(&m, wl, vg, vd, vs, vb + h).id
                - mos_eval(&m, wl, vg, vd, vs, vb - h).id)
                / (2.0 * h);
            let tol = |a: f64, n: f64| 1e-9 + 1e-4 * (a.abs() + n.abs());
            assert!(
                (base.d_vg - num_g).abs() < tol(base.d_vg, num_g),
                "d_vg {} vs {}",
                base.d_vg,
                num_g
            );
            assert!(
                (base.d_vd - num_d).abs() < tol(base.d_vd, num_d),
                "d_vd {} vs {}",
                base.d_vd,
                num_d
            );
            assert!(
                (base.d_vs - num_s).abs() < tol(base.d_vs, num_s),
                "d_vs {} vs {}",
                base.d_vs,
                num_s
            );
            assert!(
                (base.d_vb - num_b).abs() < tol(base.d_vb, num_b),
                "d_vb {} vs {}",
                base.d_vb,
                num_b
            );
        }
        assert!(checked > 256, "only {checked} interior points sampled");
    }

    /// True when the operating point is within `eps` of a model-region
    /// boundary (cutoff/triode/saturation or vds sign change), where the
    /// analytic derivative is one-sided.
    fn near_region_boundary(
        m: &MosModel,
        _wl: f64,
        vg: f64,
        vd: f64,
        vs: f64,
        vb: f64,
        eps: f64,
    ) -> bool {
        let s = m.polarity.sign();
        let (nvg, nvd, nvs, nvb) = (s * vg, s * vd, s * vs, s * vb);
        let (xd, xs) = if nvd < nvs { (nvs, nvd) } else { (nvd, nvs) };
        let vgs = nvg - xs;
        let vds = xd - xs;
        let vsb = -(nvb - xs);
        let vth = m.vth(vsb);
        let vov = vgs - vth;
        vds.abs() < eps || vov.abs() < eps || (vds - vov).abs() < eps
    }
}
