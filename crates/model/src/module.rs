//! The paper's empirical module power model (Sec. III-B1).

use crate::iv::operating_point_sweep;
use pv_units::{Amperes, Celsius, Irradiance, Meters, Volts, Watts};

/// Steps per chunk of [`EmpiricalModule::operating_points`]'s all-lit
/// fast path (one 256-bit vector of `f64`). Every step's output is
/// independent of the chunking, so this width moves no bit.
const SWEEP_LANES: usize = 4;

/// A module's electrical operating point at given conditions.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct OperatingPoint {
    /// Maximum-power voltage.
    pub voltage: Volts,
    /// Maximum-power current.
    pub current: Amperes,
}

impl OperatingPoint {
    /// Electrical power at this operating point.
    #[inline]
    #[must_use]
    pub fn power(&self) -> Watts {
        self.voltage * self.current
    }
}

/// Abstraction over module electrical models: anything that can report the
/// maximum-power voltage and current at given irradiance and ambient
/// temperature. Implemented by the paper's [`EmpiricalModule`] and by the
/// physical [`SingleDiodeModule`](crate::SingleDiodeModule).
pub trait ModuleModel {
    /// Maximum-power voltage at `(G, T)`.
    fn voltage(&self, irradiance: Irradiance, ambient: Celsius) -> Volts;

    /// Maximum-power current at `(G, T)`.
    fn current(&self, irradiance: Irradiance, ambient: Celsius) -> Amperes;

    /// Maximum power at `(G, T)`; default `V · I`.
    fn power(&self, irradiance: Irradiance, ambient: Celsius) -> Watts {
        self.voltage(irradiance, ambient) * self.current(irradiance, ambient)
    }

    /// Voltage and current bundled.
    fn operating_point(&self, irradiance: Irradiance, ambient: Celsius) -> OperatingPoint {
        OperatingPoint {
            voltage: self.voltage(irradiance, ambient),
            current: self.current(irradiance, ambient),
        }
    }
}

/// The paper's empirical model of the Mitsubishi PV-MF165EB3, derived from
/// the datasheet curves of Fig. 3:
///
/// ```text
/// Tact          = T + k·G
/// Pmodule(G,T)  = Pref · (1.12 − γp·Tact) · 10⁻³ · G
/// Vmodule(G,T)  = Vmp,ref · (1.08 − βv·Tact) · (0.875 + 0.000125·G)
/// Imodule(G,T)  = Pmodule / Vmodule
/// ```
///
/// The paper prints `γp = 0.048` and `βv = 0.34`, which are typeset errors
/// (they make power negative at 25 °C); the datasheet's ≈−0.48 %/°C power
/// and ≈−0.34 %/°C voltage temperature coefficients give `γp = 0.0048` and
/// `βv = 0.0034` per °C, which we use (see DESIGN.md).
///
/// ```
/// use pv_model::{EmpiricalModule, ModuleModel};
/// use pv_units::{Celsius, Irradiance};
/// let m = EmpiricalModule::pv_mf165eb3();
/// // At STC irradiance with a cold roof the module delivers near its
/// // 165 W rating (roof heating pushes Tact above 25 °C at G = 1000).
/// let p = m.power(Irradiance::STC, Celsius::new(-10.0));
/// assert!((p.as_watts() - 165.0).abs() < 10.0, "{p}");
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct EmpiricalModule {
    name: String,
    width: Meters,
    height: Meters,
    p_ref: Watts,
    vmp_ref: Volts,
    voc_ref: Volts,
    isc_ref: Amperes,
    /// Power temperature slope, 1/°C (paper's "0.048·10⁻¹").
    gamma_p: f64,
    /// Voltage temperature slope, 1/°C.
    beta_v: f64,
    /// Short-circuit current temperature slope, 1/°C (positive).
    alpha_i: f64,
    /// Roof-heating coefficient `k = α/hc`, K·m²/W (paper refs \[12\], \[13\]).
    thermal_k: f64,
}

impl EmpiricalModule {
    /// The Mitsubishi PV-MF165EB3 used throughout the paper:
    /// 160 × 80 cm, 165 W, Voc 30.4 V, Isc 7.36 A, Vmp 24 V.
    #[must_use]
    pub fn pv_mf165eb3() -> Self {
        Self {
            name: "Mitsubishi PV-MF165EB3".to_owned(),
            width: Meters::new(1.6),
            height: Meters::new(0.8),
            p_ref: Watts::new(165.0),
            vmp_ref: Volts::new(24.0),
            voc_ref: Volts::new(30.4),
            isc_ref: Amperes::new(7.36),
            gamma_p: 0.0048,
            beta_v: 0.0034,
            alpha_i: 0.00057,
            thermal_k: 0.035,
        }
    }

    /// A custom module with the same empirical structure.
    ///
    /// # Panics
    ///
    /// Panics if any rating is not positive.
    #[must_use]
    pub fn custom(
        name: impl Into<String>,
        width: Meters,
        height: Meters,
        p_ref: Watts,
        vmp_ref: Volts,
        voc_ref: Volts,
        isc_ref: Amperes,
    ) -> Self {
        assert!(
            p_ref.value() > 0.0
                && vmp_ref.value() > 0.0
                && voc_ref.value() > 0.0
                && isc_ref.value() > 0.0,
            "ratings must be positive"
        );
        assert!(
            width.value() > 0.0 && height.value() > 0.0,
            "module dimensions must be positive"
        );
        Self {
            name: name.into(),
            width,
            height,
            p_ref,
            vmp_ref,
            voc_ref,
            isc_ref,
            ..Self::pv_mf165eb3()
        }
    }

    /// Overrides the roof-heating coefficient `k` (K·m²/W; default 0.035,
    /// a NOCT-like value — see DESIGN.md).
    ///
    /// # Panics
    ///
    /// Panics if `k` is negative.
    #[must_use]
    pub fn thermal_k(mut self, k: f64) -> Self {
        assert!(k >= 0.0, "thermal coefficient must be non-negative");
        self.thermal_k = k;
        self
    }

    /// The module's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Physical module width (long side).
    #[inline]
    #[must_use]
    pub const fn width(&self) -> Meters {
        self.width
    }

    /// Physical module height (short side).
    #[inline]
    #[must_use]
    pub const fn height(&self) -> Meters {
        self.height
    }

    /// Reference open-circuit voltage (25 °C, 1000 W/m²).
    #[inline]
    #[must_use]
    pub const fn voc_ref(&self) -> Volts {
        self.voc_ref
    }

    /// Reference short-circuit current (25 °C, 1000 W/m²).
    #[inline]
    #[must_use]
    pub const fn isc_ref(&self) -> Amperes {
        self.isc_ref
    }

    /// The power-vs-temperature slope `γp` (1/°C) of the empirical model
    /// (see [`power_derating`](Self::power_derating)).
    #[inline]
    #[must_use]
    pub const fn power_temperature_slope(&self) -> f64 {
        self.gamma_p
    }

    /// The roof-heating coefficient `k` (K·m²/W).
    #[inline]
    #[must_use]
    pub const fn thermal_coefficient(&self) -> f64 {
        self.thermal_k
    }

    /// Actual module temperature `Tact = T + k·G` (paper ref \[12\]).
    #[must_use]
    pub fn actual_temperature(&self, irradiance: Irradiance, ambient: Celsius) -> Celsius {
        Celsius::new(ambient.as_celsius() + self.thermal_k * irradiance.as_w_per_m2())
    }

    /// The power derating `1.12 − γp·Tact` of `Pmodule` at module
    /// temperature `tact`: `1.12 − 25·γp` at the STC cell temperature.
    /// The floorplanner's `f(T)` suitability correction is this factor
    /// normalized to its STC value.
    #[inline]
    #[must_use]
    pub fn power_derating(&self, tact: Celsius) -> f64 {
        1.12 - self.gamma_p * tact.as_celsius()
    }

    /// `v_ref · (1.08 − βv·Tact) · (0.875 + 0.000125·G)`, clamped at 0:
    /// the one voltage expression behind [`voc`](Self::voc), the
    /// maximum-power voltage and [`operating_points`](Self::operating_points).
    #[inline]
    fn scaled_voltage(&self, v_ref: Volts, irradiance: Irradiance, tact: Celsius) -> f64 {
        let v = v_ref.value()
            * (1.08 - self.beta_v * tact.as_celsius())
            * (0.875 + 0.000125 * irradiance.as_w_per_m2());
        v.max(0.0)
    }

    /// `Pref · (1.12 − γp·Tact) · 10⁻³ · G`, clamped at 0: the one power
    /// expression behind [`ModuleModel::power`] and
    /// [`operating_points`](Self::operating_points).
    #[inline]
    fn clamped_power(&self, irradiance: Irradiance, tact: Celsius) -> f64 {
        let p = self.p_ref.as_watts() * self.power_derating(tact) * 1e-3 * irradiance.as_w_per_m2();
        p.max(0.0)
    }

    /// Open-circuit voltage at `(G, T)` (Fig. 3 normalization).
    #[must_use]
    pub fn voc(&self, irradiance: Irradiance, ambient: Celsius) -> Volts {
        let tact = self.actual_temperature(irradiance, ambient);
        Volts::new(self.scaled_voltage(self.voc_ref, irradiance, tact))
    }

    /// Fills `volts[i]`/`amps[i]` with the maximum-power operating point
    /// at mean irradiance `means[i]` (W/m²) and ambient `ambient[i]` (°C):
    /// the evaluator's per-module sweep over a step range.
    ///
    /// Chunks of four all-lit steps run straight-line arithmetic the
    /// autovectorizer can lower to packed operations: the voltage clamp
    /// selects exact `0.0` amps and swaps in a unit denominator, whose
    /// quotient is discarded, so no NaN can leak out of the division. A chunk holding a dark step (`G ≤ 0`) and the tail
    /// go through [`operating_point_sweep`](crate::operating_point_sweep),
    /// the step-at-a-time [`ModuleModel`] calls. A real clock's night
    /// steps come in long runs, so the chunk test is almost perfectly
    /// predicted. Both paths evaluate the same expressions in the same
    /// order without FMA contraction, so the output is bit-identical to
    /// `operating_point_sweep(self, ..)` on every input — which the
    /// crate's proptests check for random coefficients.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn operating_points(
        &self,
        means: &[f64],
        ambient: &[f64],
        volts: &mut [f64],
        amps: &mut [f64],
    ) {
        let n = means.len();
        assert!(
            ambient.len() == n && volts.len() == n && amps.len() == n,
            "operating-point sweep: length mismatch"
        );
        let whole = n - n % SWEEP_LANES;
        for c in (0..whole).step_by(SWEEP_LANES) {
            let chunk = c..c + SWEEP_LANES;
            if means[chunk.clone()].iter().all(|&g| g > 0.0) {
                for j in chunk {
                    let g = Irradiance::from_w_per_m2(means[j]);
                    let tact = self.actual_temperature(g, Celsius::new(ambient[j]));
                    let v = self.scaled_voltage(self.vmp_ref, g, tact);
                    let p = self.clamped_power(g, tact);
                    volts[j] = v;
                    let clamped = v <= 0.0;
                    let amp = p / if clamped { 1.0 } else { v };
                    amps[j] = if clamped { 0.0 } else { amp };
                }
            } else {
                operating_point_sweep(
                    self,
                    &means[chunk.clone()],
                    &ambient[chunk.clone()],
                    &mut volts[chunk.clone()],
                    &mut amps[chunk],
                );
            }
        }
        operating_point_sweep(
            self,
            &means[whole..],
            &ambient[whole..],
            &mut volts[whole..],
            &mut amps[whole..],
        );
    }

    /// Short-circuit current at `(G, T)`: proportional to `G` with a small
    /// positive temperature coefficient (Fig. 2-(a) behaviour).
    #[must_use]
    pub fn isc(&self, irradiance: Irradiance, ambient: Celsius) -> Amperes {
        let tact = self.actual_temperature(irradiance, ambient).as_celsius();
        let i =
            self.isc_ref.value() * irradiance.stc_fraction() * (1.0 + self.alpha_i * (tact - 25.0));
        Amperes::new(i.max(0.0))
    }
}

impl ModuleModel for EmpiricalModule {
    fn voltage(&self, irradiance: Irradiance, ambient: Celsius) -> Volts {
        if irradiance.as_w_per_m2() <= 0.0 {
            return Volts::ZERO;
        }
        let tact = self.actual_temperature(irradiance, ambient);
        Volts::new(self.scaled_voltage(self.vmp_ref, irradiance, tact))
    }

    fn current(&self, irradiance: Irradiance, ambient: Celsius) -> Amperes {
        let v = self.voltage(irradiance, ambient);
        if v.value() <= 0.0 {
            return Amperes::ZERO;
        }
        Amperes::new(self.power(irradiance, ambient).as_watts() / v.value())
    }

    fn power(&self, irradiance: Irradiance, ambient: Celsius) -> Watts {
        if irradiance.as_w_per_m2() <= 0.0 {
            return Watts::ZERO;
        }
        let tact = self.actual_temperature(irradiance, ambient);
        Watts::new(self.clamped_power(irradiance, tact))
    }

    /// [`voltage`](Self::voltage) and [`current`](Self::current) from one
    /// evaluation of each expression (the trait default evaluates the
    /// voltage twice), bit-identical to the separate calls.
    fn operating_point(&self, irradiance: Irradiance, ambient: Celsius) -> OperatingPoint {
        if irradiance.as_w_per_m2() <= 0.0 {
            return OperatingPoint::default();
        }
        let tact = self.actual_temperature(irradiance, ambient);
        let v = self.scaled_voltage(self.vmp_ref, irradiance, tact);
        let current = if v <= 0.0 {
            Amperes::ZERO
        } else {
            Amperes::new(self.clamped_power(irradiance, tact) / v)
        };
        OperatingPoint {
            voltage: Volts::new(v),
            current,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stc_ambient_for_tact_25(m: &EmpiricalModule) -> Celsius {
        // Ambient that makes Tact exactly 25 at G = 1000.
        Celsius::new(25.0 - m.thermal_k * 1000.0)
    }

    #[test]
    fn rated_power_at_stc_cell_temperature() {
        let m = EmpiricalModule::pv_mf165eb3();
        let amb = stc_ambient_for_tact_25(&m);
        let p = m.power(Irradiance::STC, amb);
        assert!((p.as_watts() - 165.0).abs() < 1e-9, "{p}");
        let v = m.voltage(Irradiance::STC, amb);
        assert!((v.value() - 23.88).abs() < 0.01, "{v}"); // 24*(1.08-0.085)
    }

    #[test]
    fn power_scales_linearly_with_irradiance_at_fixed_tact() {
        let m = EmpiricalModule::pv_mf165eb3().thermal_k(0.0);
        let t = Celsius::new(25.0);
        let p500 = m.power(Irradiance::from_w_per_m2(500.0), t);
        let p1000 = m.power(Irradiance::from_w_per_m2(1000.0), t);
        assert!((p1000.as_watts() / p500.as_watts() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn hotter_modules_produce_less() {
        let m = EmpiricalModule::pv_mf165eb3();
        let g = Irradiance::from_w_per_m2(800.0);
        let cold = m.power(g, Celsius::new(0.0));
        let hot = m.power(g, Celsius::new(35.0));
        assert!(cold.as_watts() > hot.as_watts());
        // -0.48 %/°C over 35 °C ~ 16.8 % loss.
        let expected_ratio = 1.0
            - 0.0048 * 35.0
                / (1.12 - 0.0048 * m.actual_temperature(g, Celsius::new(0.0)).as_celsius());
        let ratio = hot.as_watts() / cold.as_watts();
        assert!((ratio - expected_ratio).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn roof_heating_correction_applies() {
        let m = EmpiricalModule::pv_mf165eb3();
        let tact = m.actual_temperature(Irradiance::from_w_per_m2(800.0), Celsius::new(20.0));
        assert!((tact.as_celsius() - 48.0).abs() < 1e-12); // 20 + 0.035*800
    }

    #[test]
    fn current_times_voltage_is_power() {
        let m = EmpiricalModule::pv_mf165eb3();
        let g = Irradiance::from_w_per_m2(623.0);
        let t = Celsius::new(17.5);
        let p = m.voltage(g, t) * m.current(g, t);
        assert!((p.as_watts() - m.power(g, t).as_watts()).abs() < 1e-9);
    }

    #[test]
    fn dark_module_is_off() {
        let m = EmpiricalModule::pv_mf165eb3();
        let t = Celsius::new(10.0);
        assert_eq!(m.power(Irradiance::ZERO, t), Watts::ZERO);
        assert_eq!(m.voltage(Irradiance::ZERO, t), Volts::ZERO);
        assert_eq!(m.current(Irradiance::ZERO, t), Amperes::ZERO);
    }

    #[test]
    fn vmp_is_roughly_80_percent_of_voc() {
        // Paper: "the maximum power voltage ... is ~80% (24 V) of Voc".
        let m = EmpiricalModule::pv_mf165eb3();
        let g = Irradiance::STC;
        let t = stc_ambient_for_tact_25(&m);
        let ratio = m.voltage(g, t).value() / m.voc(g, t).value();
        assert!((ratio - 24.0 / 30.4).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn isc_proportional_to_irradiance() {
        let m = EmpiricalModule::pv_mf165eb3().thermal_k(0.0);
        let t = Celsius::new(25.0);
        let i_half = m.isc(Irradiance::from_w_per_m2(500.0), t);
        assert!((i_half.value() - 7.36 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn extreme_heat_clamps_to_zero_not_negative() {
        let m = EmpiricalModule::pv_mf165eb3();
        let p = m.power(Irradiance::from_w_per_m2(500.0), Celsius::new(400.0));
        assert_eq!(p, Watts::ZERO);
    }

    #[test]
    fn custom_module_keeps_structure() {
        let m = EmpiricalModule::custom(
            "Test 300W",
            Meters::new(1.65),
            Meters::new(1.0),
            Watts::new(300.0),
            Volts::new(32.0),
            Volts::new(40.0),
            Amperes::new(9.5),
        );
        assert_eq!(m.name(), "Test 300W");
        let amb = Celsius::new(25.0 - 0.035 * 1000.0);
        let p = m.power(Irradiance::STC, amb);
        assert!((p.as_watts() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn operating_points_match_the_sweep_on_edge_inputs() {
        let m = EmpiricalModule::pv_mf165eb3();
        // Chunk 0 holds a night step (0.0) and a negative guard value, so
        // it takes the step-at-a-time path; chunk 1 is all lit and holds
        // a point hot enough to clamp the voltage (Tact = 325 °C); the
        // tail is a single lit step.
        let means = [0.0, 812.5, -3.0, 1000.0, 42.0, 7000.0, 999.9, 1.0, 250.0];
        let ambient = [15.0, 25.0, 10.0, 35.0, -5.0, 80.0, 30.0, 12.0, 20.0];
        let (mut volts, mut amps) = ([0.0f64; 9], [0.0f64; 9]);
        let (mut volts_ref, mut amps_ref) = ([0.0f64; 9], [0.0f64; 9]);
        m.operating_points(&means, &ambient, &mut volts, &mut amps);
        crate::operating_point_sweep(&m, &means, &ambient, &mut volts_ref, &mut amps_ref);
        for i in 0..9 {
            assert_eq!(volts[i].to_bits(), volts_ref[i].to_bits(), "V at {i}");
            assert_eq!(amps[i].to_bits(), amps_ref[i].to_bits(), "I at {i}");
            assert!(amps[i].is_finite());
        }
        // The hot point really exercises the clamp.
        assert_eq!(volts[5], 0.0);
        assert_eq!(amps[5], 0.0);
    }
}
