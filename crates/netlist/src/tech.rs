//! Technology parameters.
//!
//! A [`Technology`] bundles everything both engines need to agree on:
//! supply and threshold voltages, transconductances for the low-V<sub>t</sub>
//! logic devices and the high-V<sub>t</sub> sleep device, per-unit-W/L
//! capacitances, and the alpha-power exponent used by the first-order
//! delay model.
//!
//! Two presets mirror the paper's two experimental set-ups:
//!
//! * [`Technology::l07`] — the 0.7 µm set-up of Fig 4/Fig 12
//!   (V<sub>dd</sub> = 1.2 V, V<sub>tn</sub> = 0.35 V, V<sub>tp</sub> = −0.35 V,
//!   V<sub>t,high</sub> = 0.75 V), used for the inverter tree and the
//!   3-bit ripple adder.
//! * [`Technology::l03`] — the 0.3 µm set-up of Fig 6
//!   (V<sub>dd</sub> = 1.0 V, V<sub>t</sub> = ±0.2 V, V<sub>t,high</sub> = 0.7 V),
//!   used for the carry-save multiplier.
//!
//! The paper reports only the voltages and minimum lengths; the remaining
//! parameters are textbook values chosen so aggregate currents land in
//! the regime the paper reports (≈1 mA peak for the 8×8 multiplier, §4).

use mtk_spice::mos::{MosModel, Polarity, Subthreshold};

/// Process + operating-point parameters shared by all engines.
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    /// Human-readable name.
    pub name: &'static str,
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Low-V<sub>t</sub> NMOS threshold, volts.
    pub vtn: f64,
    /// Low-V<sub>t</sub> PMOS threshold magnitude, volts.
    pub vtp: f64,
    /// High-V<sub>t</sub> (sleep device) NMOS threshold, volts.
    pub vt_high: f64,
    /// NMOS transconductance k′ = µ<sub>n</sub>C<sub>ox</sub>, A/V².
    pub kp_n: f64,
    /// PMOS transconductance, A/V².
    pub kp_p: f64,
    /// Body-effect coefficient γ, V^½ (shared by all devices).
    pub gamma: f64,
    /// Surface potential 2φ<sub>F</sub>, volts.
    pub phi: f64,
    /// Channel-length modulation λ, 1/V.
    pub lambda: f64,
    /// Alpha-power-law exponent for the first-order delay model
    /// (2 = square law; short-channel devices are lower).
    pub alpha: f64,
    /// Gate capacitance per unit W/L, farads.
    pub c_gate: f64,
    /// Drain junction capacitance per unit W/L, farads.
    pub c_drain: f64,
    /// Default NMOS aspect ratio of a unit-drive cell.
    pub unit_wn: f64,
    /// Default PMOS aspect ratio of a unit-drive cell.
    pub unit_wp: f64,
    /// Operating temperature, °C. Presets sit at 25 °C; named corners
    /// move it (and derate the thresholds/transconductances with it).
    pub temp_c: f64,
    /// Per-device threshold-voltage sigma, volts (absolute shift per
    /// Monte Carlo trial). `0` = no Vt variation.
    pub sigma_vt: f64,
    /// Per-device transconductance sigma, relative (a trial scales k′ by
    /// `1 + sigma_kp·g`). `0` = no k′ variation.
    pub sigma_kp: f64,
    /// Device-width sigma, relative (a trial scales the unit aspect
    /// ratios and the sleep W/L by `1 + sigma_w·g`). `0` = no W variation.
    pub sigma_w: f64,
    /// Subthreshold parameters for leakage studies.
    pub subthreshold: Subthreshold,
}

/// A named PVT corner: deterministic scale factors applied on top of a
/// preset. Corners are *value transforms* — applying one changes the
/// numeric fields (and therefore [`Technology::fingerprint`]), not the
/// preset name, so the `.mtk` canonical form can always express the
/// result as plain `tech.*` overrides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corner {
    /// Corner name as accepted by [`Technology::at_corner`] and the
    /// `.mtk` `corner` directive.
    pub name: &'static str,
    /// Multiplier on every threshold (vtn, vtp, vt_high).
    pub vt_scale: f64,
    /// Multiplier on both transconductances.
    pub kp_scale: f64,
    /// Multiplier on the supply voltage.
    pub vdd_scale: f64,
    /// Operating temperature of the corner, °C.
    pub temp_c: f64,
}

/// The named corners, typical first. Process letters follow the usual
/// convention (slow = high Vt / low k′, fast = the reverse); each is
/// paired with the vdd/temperature condition that makes it the worst
/// case for its failure mode (slow+hot+low-vdd for delay, fast+cold+
/// high-vdd for bounce/leakage), plus the two single-axis variants.
pub const CORNERS: &[Corner] = &[
    Corner {
        name: "typ",
        vt_scale: 1.0,
        kp_scale: 1.0,
        vdd_scale: 1.0,
        temp_c: 25.0,
    },
    Corner {
        name: "slow",
        vt_scale: 1.1,
        kp_scale: 0.9,
        vdd_scale: 0.9,
        temp_c: 125.0,
    },
    Corner {
        name: "fast",
        vt_scale: 0.9,
        kp_scale: 1.1,
        vdd_scale: 1.1,
        temp_c: -40.0,
    },
    Corner {
        name: "slow_cold",
        vt_scale: 1.1,
        kp_scale: 0.9,
        vdd_scale: 0.9,
        temp_c: -40.0,
    },
    Corner {
        name: "fast_hot",
        vt_scale: 0.9,
        kp_scale: 1.1,
        vdd_scale: 1.1,
        temp_c: 125.0,
    },
];

impl Technology {
    /// The 0.7 µm technology of the paper's Fig 4 / Fig 12 experiments.
    pub fn l07() -> Self {
        Technology {
            name: "l07",
            vdd: 1.2,
            vtn: 0.35,
            vtp: 0.35,
            vt_high: 0.75,
            kp_n: 50e-6,
            kp_p: 20e-6,
            gamma: 0.45,
            phi: 0.6,
            lambda: 0.03,
            alpha: 2.0,
            c_gate: 1.7e-15,
            c_drain: 1.0e-15,
            unit_wn: 1.0,
            unit_wp: 2.0,
            temp_c: 25.0,
            sigma_vt: 0.0,
            sigma_kp: 0.0,
            sigma_w: 0.0,
            subthreshold: Subthreshold { n: 1.5, i0: 5e-8 },
        }
    }

    /// The 0.3 µm technology of the paper's Fig 6 multiplier experiment.
    pub fn l03() -> Self {
        Technology {
            name: "l03",
            vdd: 1.0,
            vtn: 0.2,
            vtp: 0.2,
            vt_high: 0.7,
            kp_n: 150e-6,
            kp_p: 60e-6,
            gamma: 0.3,
            phi: 0.6,
            lambda: 0.05,
            alpha: 1.7,
            c_gate: 0.5e-15,
            c_drain: 0.35e-15,
            unit_wn: 1.0,
            unit_wp: 2.0,
            temp_c: 25.0,
            sigma_vt: 0.0,
            sigma_kp: 0.0,
            sigma_w: 0.0,
            subthreshold: Subthreshold { n: 1.4, i0: 1e-7 },
        }
    }

    /// Looks up a preset by name (`"l07"` or `"l03"`), the inverse of
    /// the `name` field. Used by the `.mtk` frontend's `tech` directive.
    pub fn preset(name: &str) -> Option<Technology> {
        match name {
            "l07" => Some(Technology::l07()),
            "l03" => Some(Technology::l03()),
            _ => None,
        }
    }

    /// Looks up a named PVT corner in [`CORNERS`].
    pub fn corner(name: &str) -> Option<Corner> {
        CORNERS.iter().copied().find(|c| c.name == name)
    }

    /// The names in [`CORNERS`], for diagnostics and CLI help.
    pub fn corner_names() -> Vec<&'static str> {
        CORNERS.iter().map(|c| c.name).collect()
    }

    /// This technology moved to a named corner: thresholds, k′, and vdd
    /// scaled by the corner's process/voltage factors, then derated to
    /// the corner temperature (−2 mV/°C on every threshold, mobility
    /// ∝ T^−1.5 on both k′, both relative to 25 °C). Returns `None` for
    /// an unknown corner name.
    ///
    /// Only numeric fields change — the result round-trips through the
    /// `.mtk` writer as ordinary `tech.*` overrides, and its
    /// [`fingerprint`](Technology::fingerprint) differs from the nominal
    /// one exactly because the values do.
    pub fn at_corner(&self, name: &str) -> Option<Technology> {
        let c = Technology::corner(name)?;
        let mut t = self.clone();
        let dt = c.temp_c - 25.0;
        let vt_shift = -2e-3 * dt;
        let kp_temp = ((c.temp_c + 273.15) / 298.15).powf(-1.5);
        t.vdd = self.vdd * c.vdd_scale;
        t.vtn = self.vtn * c.vt_scale + vt_shift;
        t.vtp = self.vtp * c.vt_scale + vt_shift;
        t.vt_high = self.vt_high * c.vt_scale + vt_shift;
        t.kp_n = self.kp_n * c.kp_scale * kp_temp;
        t.kp_p = self.kp_p * c.kp_scale * kp_temp;
        t.temp_c = c.temp_c;
        Some(t)
    }

    /// A stable 64-bit fingerprint over every parameter (FNV-1a, same
    /// primitive as [`crate::netlist::Netlist::fingerprint`]). Two
    /// technologies that would give any engine different numbers hash
    /// differently, so caches can include the technology in their keys.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::netlist::Fnv1a::default();
        h.write_bytes(self.name.as_bytes());
        for v in [
            self.vdd,
            self.vtn,
            self.vtp,
            self.vt_high,
            self.kp_n,
            self.kp_p,
            self.gamma,
            self.phi,
            self.lambda,
            self.alpha,
            self.c_gate,
            self.c_drain,
            self.unit_wn,
            self.unit_wp,
            self.temp_c,
            self.sigma_vt,
            self.sigma_kp,
            self.sigma_w,
            self.subthreshold.n,
            self.subthreshold.i0,
        ] {
            h.write_u64(v.to_bits());
        }
        h.finish()
    }

    /// The low-V<sub>t</sub> NMOS model card.
    pub fn nmos_model(&self, with_leakage: bool) -> MosModel {
        self.model(Polarity::Nmos, self.vtn, self.kp_n, with_leakage)
    }

    /// The low-V<sub>t</sub> PMOS model card.
    pub fn pmos_model(&self, with_leakage: bool) -> MosModel {
        self.model(Polarity::Pmos, self.vtp, self.kp_p, with_leakage)
    }

    /// The high-V<sub>t</sub> NMOS sleep-device model card.
    pub fn sleep_model(&self, with_leakage: bool) -> MosModel {
        self.model(Polarity::Nmos, self.vt_high, self.kp_n, with_leakage)
    }

    fn model(&self, polarity: Polarity, vt0: f64, kp: f64, with_leakage: bool) -> MosModel {
        MosModel {
            polarity,
            vt0,
            kp,
            gamma: self.gamma,
            phi: self.phi,
            lambda: self.lambda,
            subthreshold: with_leakage.then_some(self.subthreshold),
            caps: None,
        }
    }

    /// §2.1 finite-resistance approximation of the ON sleep transistor:
    /// `R = 1 / (kp_n · (W/L) · (vdd − vt_high))`.
    ///
    /// # Panics
    ///
    /// Panics if `w_over_l <= 0` or the sleep device would be off.
    pub fn sleep_resistance(&self, w_over_l: f64) -> f64 {
        self.sleep_model(false)
            .triode_resistance(w_over_l, self.vdd)
    }

    /// The switching threshold used for delay measurement, V<sub>dd</sub>/2.
    pub fn v_switch(&self) -> f64 {
        self.vdd / 2.0
    }

    /// Saturation current of an NMOS pull-down of effective aspect ratio
    /// `wl_eff` with its source lifted to `v_source` (virtual-ground
    /// bounce), including the body effect when `body_effect` is true.
    ///
    /// This is the current term of the paper's Eq. 5:
    /// I = (β/2)(V<sub>dd</sub> − V<sub>x</sub> − V<sub>tn</sub>)^α.
    pub fn nmos_isat(&self, wl_eff: f64, v_source: f64, body_effect: bool) -> f64 {
        let (vgs, vth) = self.nmos_bias(v_source, body_effect);
        mtk_spice::mos::alpha_power_isat(self.kp_n * wl_eff, vgs, vth, self.alpha)
    }

    /// The gate drive and threshold `(vgs, vth)` of a fully-on NMOS
    /// pull-down whose source sits at `v_source`: the operating point
    /// [`Technology::nmos_isat`] evaluates, shared by every device of any
    /// size at that source voltage.
    pub fn nmos_bias(&self, v_source: f64, body_effect: bool) -> (f64, f64) {
        let vth = if body_effect {
            self.vtn + self.gamma * ((self.phi + v_source.max(0.0)).sqrt() - self.phi.sqrt())
        } else {
            self.vtn
        };
        (self.vdd - v_source, vth)
    }

    /// Saturation current of a PMOS pull-up of effective aspect ratio
    /// `wl_eff` (full gate drive, unaffected by the NMOS sleep device).
    pub fn pmos_isat(&self, wl_eff: f64) -> f64 {
        mtk_spice::mos::alpha_power_isat(self.kp_p * wl_eff, self.vdd, self.vtp, self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_voltages() {
        let t07 = Technology::l07();
        assert_eq!(t07.vdd, 1.2);
        assert_eq!(t07.vtn, 0.35);
        assert_eq!(t07.vt_high, 0.75);
        let t03 = Technology::l03();
        assert_eq!(t03.vdd, 1.0);
        assert_eq!(t03.vtn, 0.2);
        assert_eq!(t03.vt_high, 0.7);
    }

    #[test]
    fn preset_inverts_name() {
        for t in [Technology::l07(), Technology::l03()] {
            assert_eq!(Technology::preset(t.name), Some(t));
        }
        assert_eq!(Technology::preset("l10"), None);
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_parameter() {
        let base = Technology::l07();
        assert_eq!(base.fingerprint(), Technology::l07().fingerprint());
        assert_ne!(base.fingerprint(), Technology::l03().fingerprint());
        macro_rules! bump {
            ($($field:ident).+) => {{
                let mut t = Technology::l07();
                t.$($field).+ = t.$($field).+ * 2.0 + 1.0;
                assert_ne!(
                    t.fingerprint(),
                    base.fingerprint(),
                    concat!("fingerprint blind to ", stringify!($($field).+))
                );
            }};
        }
        bump!(vdd);
        bump!(vtn);
        bump!(vtp);
        bump!(vt_high);
        bump!(kp_n);
        bump!(kp_p);
        bump!(gamma);
        bump!(phi);
        bump!(lambda);
        bump!(alpha);
        bump!(c_gate);
        bump!(c_drain);
        bump!(unit_wn);
        bump!(unit_wp);
        bump!(temp_c);
        bump!(sigma_vt);
        bump!(sigma_kp);
        bump!(sigma_w);
        bump!(subthreshold.n);
        bump!(subthreshold.i0);
    }

    #[test]
    fn corners_resolve_and_typ_is_identity() {
        let base = Technology::l07();
        assert_eq!(base.at_corner("typ"), Some(base.clone()));
        assert_eq!(base.at_corner("ss"), None);
        assert_eq!(Technology::corner_names()[0], "typ");
        for name in Technology::corner_names() {
            let t = base.at_corner(name).expect("listed corner must apply");
            assert_eq!(t.name, base.name, "corner keeps the preset name");
            assert!(t.vdd > 0.0 && t.kp_n > 0.0 && t.vtn > 0.0);
            assert!(
                t.vdd - t.vt_high > 0.0,
                "sleep device must stay on at corner {name}"
            );
        }
    }

    #[test]
    fn corner_moves_the_fingerprint_through_its_values() {
        let base = Technology::l07();
        let slow = base.at_corner("slow").unwrap();
        let fast = base.at_corner("fast").unwrap();
        assert_ne!(slow.fingerprint(), base.fingerprint());
        assert_ne!(slow.fingerprint(), fast.fingerprint());
        // Slow corner: weaker devices, lower rail. (Its 125 °C condition
        // also *lowers* the thresholds — temperature inversion — so the
        // process Vt scaling is asserted on the cold variant below.)
        assert!(slow.kp_n < base.kp_n && slow.vdd < base.vdd);
        assert!(fast.kp_n > base.kp_n && fast.vdd > base.vdd);
        assert!(base.at_corner("slow_cold").unwrap().vtn > base.vtn);
        // Hot corners derate k′ below the cold variant of the same letter.
        let slow_cold = base.at_corner("slow_cold").unwrap();
        assert!(slow.kp_n < slow_cold.kp_n, "125 °C mobility < −40 °C");
        assert_eq!(slow.temp_c, 125.0);
        assert_eq!(slow_cold.temp_c, -40.0);
    }

    #[test]
    fn sleep_resistance_scales_inversely_with_width() {
        let t = Technology::l07();
        let r10 = t.sleep_resistance(10.0);
        let r20 = t.sleep_resistance(20.0);
        assert!((r10 / r20 - 2.0).abs() < 1e-12);
        // Formula check: 1 / (50u * 10 * 0.45).
        assert!((r10 - 1.0 / (50e-6 * 10.0 * 0.45)).abs() < 1e-9);
    }

    #[test]
    fn isat_drops_with_source_lift() {
        let t = Technology::l07();
        let i0 = t.nmos_isat(1.0, 0.0, true);
        let i1 = t.nmos_isat(1.0, 0.2, true);
        let i1_nobody = t.nmos_isat(1.0, 0.2, false);
        assert!(i1 < i0);
        // Body effect removes additional current beyond the gate-drive loss.
        assert!(i1 < i1_nobody);
        assert!(i1_nobody < i0);
    }

    #[test]
    fn isat_zero_when_stalled() {
        let t = Technology::l07();
        // Source lifted so far the gate drive vanishes.
        assert_eq!(t.nmos_isat(1.0, 1.0, false), 0.0);
    }

    #[test]
    fn models_inherit_voltages() {
        let t = Technology::l03();
        assert_eq!(t.nmos_model(false).vt0, 0.2);
        assert_eq!(t.sleep_model(false).vt0, 0.7);
        assert!(t.pmos_model(true).subthreshold.is_some());
        assert!(t.pmos_model(false).subthreshold.is_none());
        assert_eq!(t.v_switch(), 0.5);
    }
}
