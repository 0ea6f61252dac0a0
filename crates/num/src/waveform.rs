//! Piecewise-linear waveforms.
//!
//! Both engines in this workspace speak piecewise-linear node voltages:
//! the switch-level simulator produces them natively (its whole premise —
//! paper §5.2 — is that gate outputs are PWL between breakpoints), and the
//! SPICE engine samples onto them. The type here carries the common
//! measurements: threshold crossings and 50 %-to-50 % propagation delay.

use crate::{NumError, Result};

/// A single threshold crossing of a waveform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crossing {
    /// Time of the crossing.
    pub time: f64,
    /// `true` when the waveform crosses the threshold upward.
    pub rising: bool,
}

/// Edge-direction filter for crossing queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Edge {
    /// Either direction.
    #[default]
    Any,
    /// Low-to-high only.
    Rising,
    /// High-to-low only.
    Falling,
}

impl Edge {
    fn matches(self, rising: bool) -> bool {
        match self {
            Edge::Any => true,
            Edge::Rising => rising,
            Edge::Falling => !rising,
        }
    }
}

/// A piecewise-linear waveform: a sequence of `(time, value)` points with
/// non-decreasing times, linearly interpolated between points and held
/// constant outside them.
///
/// # Examples
///
/// ```
/// use mtk_num::waveform::Pwl;
///
/// let mut w = Pwl::new();
/// w.push(0.0, 0.0);
/// w.push(1.0, 2.0);
/// assert_eq!(w.value_at(0.5), 1.0);
/// assert_eq!(w.value_at(10.0), 2.0); // held after the last point
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pwl {
    points: Vec<(f64, f64)>,
}

impl Pwl {
    /// Creates an empty waveform.
    pub fn new() -> Self {
        Pwl { points: Vec::new() }
    }

    /// Creates a constant waveform with a single point at `t = 0`.
    pub fn constant(value: f64) -> Self {
        Pwl {
            points: vec![(0.0, value)],
        }
    }

    /// Builds a waveform from points.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidArgument`] if times are decreasing or any
    /// coordinate is not finite.
    pub fn from_points<I: IntoIterator<Item = (f64, f64)>>(points: I) -> Result<Self> {
        let mut w = Pwl::new();
        for (t, v) in points {
            w.try_push(t, v)?;
        }
        Ok(w)
    }

    /// A single rising or falling ramp: holds `v0` until `t0`, ramps to
    /// `v1` over `t_ramp`, then holds `v1`.
    ///
    /// # Panics
    ///
    /// Panics if `t_ramp <= 0` or any argument is not finite.
    pub fn step(t0: f64, t_ramp: f64, v0: f64, v1: f64) -> Self {
        assert!(
            t_ramp > 0.0 && t0.is_finite() && v0.is_finite() && v1.is_finite(),
            "step arguments must be finite with positive ramp"
        );
        Pwl {
            points: vec![(t0, v0), (t0 + t_ramp, v1)],
        }
    }

    /// Appends a point.
    ///
    /// # Panics
    ///
    /// Panics on a decreasing time or non-finite coordinates. Use
    /// [`Pwl::try_push`] for a fallible variant.
    pub fn push(&mut self, t: f64, v: f64) {
        self.try_push(t, v).expect("invalid waveform point");
    }

    /// Appends a point, reporting bad input as an error.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidArgument`] on a decreasing time or
    /// non-finite coordinates.
    pub fn try_push(&mut self, t: f64, v: f64) -> Result<()> {
        check_point(self.end_time(), t, v)?;
        self.points.push((t, v));
        Ok(())
    }

    /// Removes all points, keeping the allocated capacity (so pooled
    /// waveform buffers can be refilled without reallocating).
    pub fn clear(&mut self) {
        self.points.clear();
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the waveform has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The stored points as a slice.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Time of the first point, if any.
    pub fn start_time(&self) -> Option<f64> {
        self.points.first().map(|&(t, _)| t)
    }

    /// Time of the last point, if any.
    pub fn end_time(&self) -> Option<f64> {
        self.points.last().map(|&(t, _)| t)
    }

    /// Value of the last point, if any.
    pub fn final_value(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Interpolated value at `t`; held constant before the first and after
    /// the last point.
    ///
    /// # Panics
    ///
    /// Panics if the waveform is empty.
    pub fn value_at(&self, t: f64) -> f64 {
        assert!(!self.points.is_empty(), "value_at on empty waveform");
        let pts = &self.points;
        if t <= pts[0].0 {
            return pts[0].1;
        }
        if t >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        // Binary search for the segment containing t.
        let idx = pts.partition_point(|&(pt, _)| pt <= t);
        let (t0, v0) = pts[idx - 1];
        let (t1, v1) = pts[idx];
        if t1 == t0 {
            return v1;
        }
        v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    }

    /// Minimum value over all points.
    pub fn min_value(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |m, v| Some(m.map_or(v, |mv: f64| mv.min(v))))
    }

    /// Maximum value over all points.
    pub fn max_value(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |m, v| Some(m.map_or(v, |mv: f64| mv.max(v))))
    }

    /// All crossings of `threshold`, in time order. A crossing is reported
    /// at the interpolated time where a segment passes through the
    /// threshold. A waveform that touches the threshold exactly and
    /// retreats reports a coincident rising/falling pair, preserving the
    /// alternation invariant.
    pub fn crossings(&self, threshold: f64) -> Vec<Crossing> {
        self.crossing_iter(threshold).collect()
    }

    /// First crossing of `threshold` at or after `t_from` matching `edge`.
    pub fn first_crossing(&self, threshold: f64, edge: Edge, t_from: f64) -> Option<Crossing> {
        self.crossing_iter(threshold)
            .find(|c| c.time >= t_from && edge.matches(c.rising))
    }

    /// Last crossing of `threshold` matching `edge`.
    pub fn last_crossing(&self, threshold: f64, edge: Edge) -> Option<Crossing> {
        self.crossing_iter(threshold)
            .rfind(|c| edge.matches(c.rising))
    }

    /// [`Pwl::crossings`] as a lazy, double-ended iterator, so the
    /// first/last queries scan from the matching end without collecting.
    fn crossing_iter(&self, threshold: f64) -> impl DoubleEndedIterator<Item = Crossing> + '_ {
        self.points
            .windows(2)
            .filter_map(move |w| segment_crossing(w[0], w[1], threshold))
    }

    /// Shifts every point in time by `dt`.
    pub fn shift_time(&mut self, dt: f64) {
        for p in &mut self.points {
            p.0 += dt;
        }
    }

    /// Trapezoidal integral of the waveform over its own span,
    /// `∫ v dt` — the charge of a current waveform, or (×V<sub>dd</sub>)
    /// the energy of a supply-current waveform.
    pub fn integral(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| 0.5 * (w[0].1 + w[1].1) * (w[1].0 - w[0].0))
            .sum()
    }

    /// Samples the waveform at a uniform step over `[t0, t1]` (inclusive of
    /// both ends), producing a new waveform.
    ///
    /// # Panics
    ///
    /// Panics if the waveform is empty, `dt <= 0`, or `t1 < t0`.
    pub fn sample(&self, t0: f64, t1: f64, dt: f64) -> Pwl {
        assert!(dt > 0.0 && t1 >= t0, "invalid sampling window");
        let mut out = Pwl::new();
        let mut t = t0;
        while t < t1 + dt * 0.5 {
            out.push(t, self.value_at(t));
            t += dt;
        }
        out
    }
}

impl FromIterator<(f64, f64)> for Pwl {
    /// Collects points into a waveform.
    ///
    /// # Panics
    ///
    /// Panics on decreasing times or non-finite coordinates; prefer
    /// [`Pwl::from_points`] when the input is untrusted.
    fn from_iter<I: IntoIterator<Item = (f64, f64)>>(iter: I) -> Self {
        Pwl::from_points(iter).expect("invalid waveform points")
    }
}

/// The check [`Pwl::try_push`] applies to a point `(t, v)` appended
/// after a point at time `last_t` (`None` = the first point): both
/// coordinates finite and time non-decreasing. Exposed so recorders that
/// keep only a summary of a waveform reject exactly the points a
/// [`Pwl`] would.
///
/// # Errors
///
/// Returns [`NumError::InvalidArgument`] on a decreasing time or
/// non-finite coordinates.
pub fn check_point(last_t: Option<f64>, t: f64, v: f64) -> Result<()> {
    if !t.is_finite() || !v.is_finite() {
        return Err(NumError::InvalidArgument(format!(
            "waveform point ({t}, {v}) is not finite"
        )));
    }
    if let Some(last_t) = last_t {
        if t < last_t {
            return Err(NumError::InvalidArgument(format!(
                "waveform time {t} precedes previous time {last_t}"
            )));
        }
    }
    Ok(())
}

/// The crossing of `threshold` on the segment `p0 → p1`, if any — the
/// per-segment rule behind [`Pwl::crossings`] (`below` is strict, and a
/// jump at one instant crosses at that instant). Exposed so recorders
/// that keep only the last crossing of a waveform compute it with the
/// same arithmetic.
pub fn segment_crossing(p0: (f64, f64), p1: (f64, f64), threshold: f64) -> Option<Crossing> {
    let (t0, v0) = p0;
    let (t1, v1) = p1;
    let below0 = v0 < threshold;
    let below1 = v1 < threshold;
    if below0 == below1 {
        return None;
    }
    let frac = if v1 == v0 {
        0.0
    } else {
        (threshold - v0) / (v1 - v0)
    };
    Some(Crossing {
        time: t0 + frac * (t1 - t0),
        rising: below0,
    })
}

/// Measures the 50 %-referenced propagation delay between an input edge
/// and the *last* output crossing, which is the measurement the paper
/// reports (the worst path's final settling edge).
///
/// `v_ref` is the threshold (typically `vdd / 2`). The input reference
/// edge is the first crossing at or after `t_from`.
///
/// Returns `None` when either waveform never crosses the threshold.
pub fn propagation_delay(input: &Pwl, output: &Pwl, v_ref: f64, t_from: f64) -> Option<f64> {
    let t_in = input.first_crossing(v_ref, Edge::Any, t_from)?.time;
    let t_out = output.crossing_iter(v_ref).rfind(|c| c.time >= t_in)?.time;
    Some(t_out - t_in)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::Xoshiro256pp;

    #[test]
    fn try_push_rejects_non_finite_coordinates() {
        let mut w = Pwl::new();
        assert!(w.try_push(0.0, f64::NAN).is_err());
        assert!(w.try_push(f64::NAN, 0.0).is_err());
        assert!(w.try_push(f64::INFINITY, 1.0).is_err());
        assert!(w.try_push(0.0, f64::NEG_INFINITY).is_err());
        assert!(w.is_empty(), "rejected points must not be stored");
        w.try_push(0.0, 1.0).unwrap();
        assert!(w.try_push(-1.0, 0.5).is_err(), "decreasing time rejected");
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn clear_resets_points_but_keeps_a_usable_buffer() {
        let mut w = Pwl::new();
        w.push(0.0, 1.0);
        w.push(1.0, 2.0);
        w.clear();
        assert!(w.is_empty());
        // After clearing, earlier times are valid again (no stale
        // monotonicity state survives).
        w.push(0.0, 5.0);
        assert_eq!(w.len(), 1);
        assert_eq!(w.value_at(0.0), 5.0);
    }

    #[test]
    fn from_points_rejects_nan_voltage_at_the_boundary() {
        // A NaN voltage must fail construction rather than propagate
        // into delay measurement downstream.
        let err = Pwl::from_points([(0.0, 0.0), (1.0, f64::NAN)]).unwrap_err();
        assert!(err.to_string().contains("not finite"), "{err}");
        assert!(Pwl::from_points([(0.0, 0.0), (1.0, 1.0)]).is_ok());
        assert!(Pwl::from_points([(1.0, 0.0), (0.5, 1.0)]).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid waveform point")]
    fn push_panics_on_nan() {
        let mut w = Pwl::new();
        w.push(0.0, f64::NAN);
    }

    /// A waveform with points at t = 0, 1, 2, … and random values in
    /// `[lo, hi)` — the old property-test strategy.
    fn random_wave(
        rng: &mut Xoshiro256pp,
        lo: f64,
        hi: f64,
        min_len: usize,
        max_len: usize,
    ) -> Pwl {
        let len = min_len + rng.next_index(max_len - min_len);
        (0..len)
            .map(|i| (i as f64, rng.next_f64_in(lo, hi)))
            .collect()
    }

    #[test]
    fn constant_holds_everywhere() {
        let w = Pwl::constant(3.3);
        assert_eq!(w.value_at(-5.0), 3.3);
        assert_eq!(w.value_at(99.0), 3.3);
        assert!(w.crossings(1.0).is_empty());
    }

    #[test]
    fn interpolation_is_linear() {
        let w: Pwl = [(0.0, 0.0), (2.0, 4.0)].into_iter().collect();
        assert_eq!(w.value_at(0.5), 1.0);
        assert_eq!(w.value_at(1.5), 3.0);
    }

    #[test]
    fn step_shape() {
        let w = Pwl::step(1.0, 0.5, 0.0, 1.2);
        assert_eq!(w.value_at(0.0), 0.0);
        assert_eq!(w.value_at(1.25), 0.6);
        assert_eq!(w.value_at(2.0), 1.2);
    }

    #[test]
    fn decreasing_time_rejected() {
        let mut w = Pwl::new();
        w.push(1.0, 0.0);
        assert!(w.try_push(0.5, 0.0).is_err());
    }

    #[test]
    fn nan_rejected() {
        let mut w = Pwl::new();
        assert!(w.try_push(f64::NAN, 0.0).is_err());
        assert!(w.try_push(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn equal_times_allowed_for_discontinuity() {
        // Stepwise waveforms (virtual-ground bounce, Fig 11) use repeated
        // times to encode jumps.
        let w: Pwl = [(0.0, 0.0), (1.0, 0.0), (1.0, 0.3), (2.0, 0.3)]
            .into_iter()
            .collect();
        assert_eq!(w.value_at(0.5), 0.0);
        assert_eq!(w.value_at(1.5), 0.3);
    }

    #[test]
    fn crossings_detect_both_edges() {
        let w: Pwl = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)].into_iter().collect();
        let c = w.crossings(0.5);
        assert_eq!(c.len(), 2);
        assert!(c[0].rising && (c[0].time - 0.5).abs() < 1e-12);
        assert!(!c[1].rising && (c[1].time - 1.5).abs() < 1e-12);
    }

    #[test]
    fn touching_threshold_reports_coincident_pair() {
        let w: Pwl = [(0.0, 0.0), (1.0, 0.5), (2.0, 0.0)].into_iter().collect();
        let c = w.crossings(0.5);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].time, 1.0);
        assert_eq!(c[1].time, 1.0);
        assert!(c[0].rising && !c[1].rising);
    }

    #[test]
    fn crossing_exactly_at_breakpoint_counted_once() {
        // The threshold is hit exactly at a stored sample. `below` is
        // strict (`v < threshold`), so the sample itself is "at or
        // above": the rising segment reports one crossing at the
        // breakpoint and the following at-threshold→above segment
        // reports none.
        let w: Pwl = [(0.0, 0.0), (1.0, 0.5), (2.0, 1.0)].into_iter().collect();
        let c = w.crossings(0.5);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].time, 1.0);
        assert!(c[0].rising);
        assert_eq!(w.last_crossing(0.5, Edge::Any).unwrap().time, 1.0);
    }

    #[test]
    fn duplicate_timestamps_report_finite_crossing() {
        // Back-to-back pushes at the same time (an event-driven step)
        // form a zero-width segment; the crossing must land exactly at
        // that time, not at NaN from a 0/0 interpolation.
        let mut w = Pwl::new();
        w.push(0.0, 0.0);
        w.push(1.0, 0.0);
        w.push(1.0, 1.0);
        w.push(2.0, 1.0);
        let c = w.crossings(0.5);
        assert_eq!(c.len(), 1);
        assert!(c[0].time.is_finite());
        assert_eq!(c[0].time, 1.0);
        assert!(c[0].rising);
    }

    #[test]
    fn touch_from_above_is_not_a_crossing() {
        // Dipping exactly to the threshold from above never goes
        // strictly below, so no crossing is reported — asymmetric with
        // the touch-from-below case, which yields a coincident pair.
        let w: Pwl = [(0.0, 1.0), (1.0, 0.5), (2.0, 1.0)].into_iter().collect();
        assert!(w.crossings(0.5).is_empty());
        assert!(w.last_crossing(0.5, Edge::Any).is_none());
    }

    #[test]
    fn first_and_last_crossing_filters() {
        let w: Pwl = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 1.0)]
            .into_iter()
            .collect();
        let first_fall = w.first_crossing(0.5, Edge::Falling, 0.0).unwrap();
        assert!((first_fall.time - 1.5).abs() < 1e-12);
        let last_rise = w.last_crossing(0.5, Edge::Rising).unwrap();
        assert!((last_rise.time - 2.5).abs() < 1e-12);
        assert!(w.first_crossing(0.5, Edge::Rising, 2.6).is_none());
    }

    #[test]
    fn propagation_delay_uses_last_output_crossing() {
        let input = Pwl::step(0.0, 0.2, 0.0, 1.0); // crosses 0.5 at t=0.1
        let output: Pwl = [(0.0, 1.0), (0.5, 0.0), (0.8, 1.0), (1.3, 0.0)]
            .into_iter()
            .collect(); // glitches, settles low at crossing t=1.05
        let d = propagation_delay(&input, &output, 0.5, 0.0).unwrap();
        assert!((d - 0.95).abs() < 1e-12, "{d}");
    }

    #[test]
    fn propagation_delay_none_when_no_crossing() {
        let input = Pwl::step(0.0, 0.1, 0.0, 1.0);
        let output = Pwl::constant(0.0);
        assert!(propagation_delay(&input, &output, 0.5, 0.0).is_none());
    }

    #[test]
    fn min_max_and_metadata() {
        let w: Pwl = [(0.0, -1.0), (1.0, 2.0)].into_iter().collect();
        assert_eq!(w.min_value(), Some(-1.0));
        assert_eq!(w.max_value(), Some(2.0));
        assert_eq!(w.start_time(), Some(0.0));
        assert_eq!(w.end_time(), Some(1.0));
        assert_eq!(w.final_value(), Some(2.0));
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
        assert!(Pwl::new().min_value().is_none());
    }

    #[test]
    fn integral_of_ramp_and_step() {
        let ramp: Pwl = [(0.0, 0.0), (2.0, 2.0)].into_iter().collect();
        assert!((ramp.integral() - 2.0).abs() < 1e-12); // triangle area
        let step: Pwl = [(0.0, 1.0), (3.0, 1.0)].into_iter().collect();
        assert!((step.integral() - 3.0).abs() < 1e-12);
        assert_eq!(Pwl::new().integral(), 0.0);
        assert_eq!(Pwl::constant(5.0).integral(), 0.0); // zero-width span
    }

    #[test]
    fn sample_covers_window() {
        let w = Pwl::step(0.0, 1.0, 0.0, 1.0);
        let s = w.sample(0.0, 1.0, 0.25);
        assert_eq!(s.len(), 5);
        assert!((s.value_at(0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shift_time_moves_crossings() {
        let mut w = Pwl::step(0.0, 1.0, 0.0, 1.0);
        w.shift_time(2.0);
        let c = w.first_crossing(0.5, Edge::Rising, 0.0).unwrap();
        assert!((c.time - 2.5).abs() < 1e-12);
    }

    /// value_at is within [min, max] of the points for any query time.
    #[test]
    fn value_within_envelope() {
        let mut rng = Xoshiro256pp::seed_from_u64(0xBEE1);
        for _ in 0..64 {
            let w = random_wave(&mut rng, -5.0, 5.0, 2, 20);
            let q = rng.next_f64_in(-10.0, 30.0);
            let v = w.value_at(q);
            assert!(v >= w.min_value().unwrap() - 1e-12);
            assert!(v <= w.max_value().unwrap() + 1e-12);
        }
    }

    /// Crossing times are non-decreasing and alternate direction.
    #[test]
    fn crossings_ordered_and_alternating() {
        let mut rng = Xoshiro256pp::seed_from_u64(0xBEE2);
        for _ in 0..64 {
            let w = random_wave(&mut rng, -1.0, 1.0, 2, 30);
            let cs = w.crossings(0.05);
            for pair in cs.windows(2) {
                assert!(pair[0].time <= pair[1].time);
                assert_ne!(pair[0].rising, pair[1].rising);
            }
        }
    }

    /// The scanning first/last queries return exactly the crossing the
    /// collected list holds at that end, for every edge filter —
    /// including zero-width jumps and exact touches of the threshold.
    #[test]
    fn first_and_last_crossing_match_the_collected_list() {
        let mut rng = Xoshiro256pp::seed_from_u64(0xBEE4);
        for _ in 0..256 {
            let mut w = random_wave(&mut rng, -1.0, 1.0, 1, 24);
            if rng.next_bool() {
                // A jump (repeated time) and an exact touch.
                let t = w.end_time().unwrap();
                w.push(t, 0.0);
                w.push(t + 1.0, 0.25);
            }
            let all = w.crossings(0.0);
            for edge in [Edge::Any, Edge::Rising, Edge::Falling] {
                let want_last = all.iter().rev().find(|c| edge.matches(c.rising));
                assert_eq!(w.last_crossing(0.0, edge).as_ref(), want_last);
                let t_from = rng.next_f64_in(-1.0, 26.0);
                let want_first = all
                    .iter()
                    .find(|c| c.time >= t_from && edge.matches(c.rising));
                assert_eq!(w.first_crossing(0.0, edge, t_from).as_ref(), want_first);
            }
        }
    }

    /// `check_point` is the whole of `try_push`'s validation.
    #[test]
    fn check_point_matches_try_push() {
        for (last, t, v) in [
            (None, 0.0, 1.0),
            (None, f64::NAN, 1.0),
            (Some(1.0), 0.5, 1.0),
            (Some(1.0), 1.0, f64::INFINITY),
            (Some(1.0), 1.0, 2.0),
        ] {
            let mut w = Pwl::new();
            if let Some(t0) = last {
                w.push(t0, 0.0);
            }
            let pushed = w.try_push(t, v).map_err(|e| e.to_string());
            let checked = check_point(last, t, v).map_err(|e| e.to_string());
            assert_eq!(pushed, checked, "({last:?}, {t}, {v})");
        }
    }

    /// value_at at a crossing time equals the threshold.
    #[test]
    fn crossing_time_evaluates_to_threshold() {
        let mut rng = Xoshiro256pp::seed_from_u64(0xBEE3);
        for _ in 0..64 {
            let w = random_wave(&mut rng, -1.0, 1.0, 2, 30);
            for c in w.crossings(0.1) {
                assert!((w.value_at(c.time) - 0.1).abs() < 1e-9);
            }
        }
    }
}
