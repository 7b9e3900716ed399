//! Property-based tests for the PV electrical models.

use proptest::prelude::*;
use pv_model::{
    operating_point_sweep, panel_step, EmpiricalModule, ModuleModel, OperatingPoint,
    SingleDiodeModule, Topology, WiringSpec,
};
use pv_units::{Amperes, Celsius, Irradiance, Meters, Volts, Watts};

/// Panel power of series-first `modules` (strings folded as the evaluator
/// folds them, no extra cable) and the sum of their powers.
fn panel(modules: &[OperatingPoint], t: Topology) -> (f64, f64) {
    let strings = modules.chunks(t.series()).map(|string| {
        let v = string.iter().map(|p| p.voltage.value()).sum();
        let i = string
            .iter()
            .map(|p| p.current.value())
            .fold(f64::INFINITY, f64::min);
        (Volts::new(v), Amperes::new(i), Meters::ZERO)
    });
    let (power, _) = panel_step(strings, &WiringSpec::awg10());
    let sum = modules.iter().map(|p| p.power().as_watts()).sum();
    (power.as_watts(), sum)
}

proptest! {
    /// Empirical module power is non-negative and monotone increasing in G
    /// at fixed ambient (roof heating included).
    #[test]
    fn empirical_power_monotone_in_g(t in -10.0..40.0f64, g in 0.0..1000.0f64) {
        let m = EmpiricalModule::pv_mf165eb3();
        let t = Celsius::new(t);
        let p_lo = m.power(Irradiance::from_w_per_m2(g), t);
        let p_hi = m.power(Irradiance::from_w_per_m2(g + 50.0), t);
        prop_assert!(p_lo.as_watts() >= 0.0);
        prop_assert!(p_hi.as_watts() + 1e-9 >= p_lo.as_watts(),
            "power dropped: {} -> {}", p_lo, p_hi);
    }

    /// Empirical power decreases in ambient temperature at fixed G.
    #[test]
    fn empirical_power_decreasing_in_t(t in -10.0..45.0f64, g in 50.0..1000.0f64) {
        let m = EmpiricalModule::pv_mf165eb3();
        let g = Irradiance::from_w_per_m2(g);
        let p_cold = m.power(g, Celsius::new(t));
        let p_warm = m.power(g, Celsius::new(t + 5.0));
        prop_assert!(p_warm.as_watts() <= p_cold.as_watts() + 1e-9);
    }

    /// Panel power never exceeds the sum of module powers, and equals it
    /// for identical modules.
    #[test]
    fn bottleneck_bound(
        series in 1usize..10,
        strings in 1usize..5,
        v in 10.0..30.0f64,
        i in 0.5..8.0f64,
        weak_idx in 0usize..50,
        weak_scale in 0.05..1.0f64,
    ) {
        let t = Topology::new(series, strings).unwrap();
        let n = t.num_modules();
        let mut modules = vec![OperatingPoint {
            voltage: Volts::new(v),
            current: Amperes::new(i),
        }; n];
        let (power_uniform, sum_uniform) = panel(&modules, t);
        prop_assert!((power_uniform - sum_uniform).abs() < 1e-9);

        // Weaken one module: panel power must not increase and must stay
        // below the sum bound.
        let k = weak_idx % n;
        modules[k].current = Amperes::new(i * weak_scale);
        let (power, sum) = panel(&modules, t);
        prop_assert!(power <= power_uniform + 1e-9);
        prop_assert!(power <= sum + 1e-9);
    }

    /// Single-diode current is within [0, Isc] and decreasing in voltage.
    #[test]
    fn diode_current_bounds(g in 100.0..1000.0f64, t in -5.0..40.0f64, v in 0.0..35.0f64) {
        let m = SingleDiodeModule::pv_mf165eb3();
        let g = Irradiance::from_w_per_m2(g);
        let t = Celsius::new(t);
        let i = m.current_at(Volts::new(v), g, t);
        let isc = m.current_at(Volts::ZERO, g, t);
        prop_assert!(i.value() >= 0.0);
        prop_assert!(i.value() <= isc.value() + 1e-6);
        let i2 = m.current_at(Volts::new(v + 1.0), g, t);
        prop_assert!(i2.value() <= i.value() + 1e-6);
    }

    /// The MPP power of the diode model is bounded by Voc * Isc.
    #[test]
    fn mpp_below_voc_isc_product(g in 100.0..1000.0f64, t in -5.0..40.0f64) {
        let m = SingleDiodeModule::pv_mf165eb3();
        let g = Irradiance::from_w_per_m2(g);
        let t = Celsius::new(t);
        let curve = m.iv_curve(g, t, 64);
        let bound = curve.voc().value() * curve.isc().value();
        prop_assert!(m.mpp(g, t).power().as_watts() <= bound + 1e-6);
    }

    /// Removing a module from a string (making it dark) zeroes the string's
    /// contribution but never other strings'.
    #[test]
    fn dark_module_does_not_poison_other_strings(strings in 2usize..5) {
        let t = Topology::new(4, strings).unwrap();
        let healthy = OperatingPoint {
            voltage: Volts::new(24.0),
            current: Amperes::new(5.0),
        };
        let mut modules = vec![healthy; t.num_modules()];
        modules[0] = OperatingPoint::default(); // dark module in string 0
        let (power, _) = panel(&modules, t);
        // Strings 1..n still deliver 5 A each; string 0 delivers 0 A and
        // its three lit modules' 72 V sets the panel voltage.
        prop_assert!((power - 72.0 * 5.0 * (strings as f64 - 1.0)).abs() < 1e-9);
    }

    /// The empirical module's chunked sweep equals the step-at-a-time
    /// `operating_point_sweep` over the same module to the bit, for random
    /// ratings and roof-heating coefficients, on inputs that reach every
    /// branch: exact-zero nights, negative irradiance, and heat that
    /// clamps the power (Tact ≥ 233 °C) and then the voltage (Tact ≥
    /// 318 °C) to zero. On the same inputs the module's one-pass
    /// `operating_point` equals separate `voltage` and `current` calls.
    #[test]
    fn operating_points_match_operating_point_sweep(
        (p_ref, vmp_ref, isc_ref) in (50.0..500.0f64, 10.0..60.0f64, 1.0..15.0f64),
        thermal_k in 0.0..0.1f64,
        gs in prop::collection::vec(-50.0..1300.0f64, 0..130),
        ts in prop::collection::vec(-15.0..45.0f64, 0..130),
        hot in prop::collection::vec(200.0..450.0f64, 0..130),
        (zero_every, hot_every) in (2usize..9, 2usize..9),
    ) {
        let module = EmpiricalModule::custom(
            "random",
            Meters::new(1.6),
            Meters::new(0.8),
            Watts::new(p_ref),
            Volts::new(vmp_ref),
            Volts::new(vmp_ref * 1.25),
            Amperes::new(isc_ref),
        )
        .thermal_k(thermal_k);
        let n = gs.len().min(ts.len());
        let mut gs = gs[..n].to_vec();
        let mut ts = ts[..n].to_vec();
        for g in gs.iter_mut().step_by(zero_every) {
            *g = 0.0;
        }
        for (t, &h) in ts.iter_mut().skip(1).step_by(hot_every).zip(&hot) {
            *t = h;
        }
        let (mut v_fast, mut a_fast) = (vec![f64::NAN; n], vec![f64::NAN; n]);
        let (mut v_ref, mut a_ref) = (vec![f64::NAN; n], vec![f64::NAN; n]);
        module.operating_points(&gs, &ts, &mut v_fast, &mut a_fast);
        operating_point_sweep(&module, &gs, &ts, &mut v_ref, &mut a_ref);
        for i in 0..n {
            prop_assert!(v_fast[i].to_bits() == v_ref[i].to_bits(),
                "volts diverged at {}: {} vs {}", i, v_fast[i], v_ref[i]);
            prop_assert!(a_fast[i].to_bits() == a_ref[i].to_bits(),
                "amps diverged at {}: {} vs {}", i, a_fast[i], a_ref[i]);
            let (g, t) = (Irradiance::from_w_per_m2(gs[i]), Celsius::new(ts[i]));
            let op = module.operating_point(g, t);
            prop_assert!(op.voltage.value().to_bits() == module.voltage(g, t).value().to_bits(),
                "operating_point volts diverged at {}", i);
            prop_assert!(op.current.value().to_bits() == module.current(g, t).value().to_bits(),
                "operating_point amps diverged at {}", i);
        }
    }
}
