//! Property-based tests for the quantity newtypes.

use proptest::prelude::*;
use pv_units::{
    Amperes, Celsius, Degrees, Irradiance, Meters, Minutes, Ohms, Volts, WattHours, Watts,
};

proptest! {
    /// Addition/subtraction of same-unit quantities matches raw arithmetic
    /// and round-trips.
    #[test]
    fn additive_group_laws(a in -1e6..1e6f64, b in -1e6..1e6f64) {
        let x = Watts::new(a);
        let y = Watts::new(b);
        prop_assert_eq!((x + y).value(), a + b);
        prop_assert_eq!(((x + y) - y).value(), a + b - b);
        prop_assert_eq!((-x).value(), -a);
    }

    /// `V · I` equals `I · V` and scales bilinearly.
    #[test]
    fn power_product_bilinear(v in 0.0..1e3f64, i in 0.0..1e2f64, k in 0.0..10.0f64) {
        let p1 = Volts::new(v) * Amperes::new(i);
        let p2 = Amperes::new(i) * Volts::new(v);
        prop_assert_eq!(p1.value(), p2.value());
        let scaled = Volts::new(v * k) * Amperes::new(i);
        prop_assert!((scaled.value() - p1.value() * k).abs() <= 1e-9 * p1.value().abs().max(1.0));
    }

    /// Ohm's law composition: dissipation is R·I².
    #[test]
    fn dissipation_is_ri_squared(r in 0.0..10.0f64, i in 0.0..100.0f64) {
        let p = Amperes::new(i).dissipation(Ohms::new(r));
        prop_assert!((p.as_watts() - r * i * i).abs() < 1e-9 * (r * i * i).max(1.0));
    }

    /// Energy integration: `P.over(t)` is linear in both arguments.
    #[test]
    fn energy_integration_linear(p in 0.0..1e4f64, minutes in 0.0..1e4f64) {
        let e = Watts::new(p).over(Minutes::new(minutes));
        prop_assert!((e.as_wh() - p * minutes / 60.0).abs() < 1e-6 * (p * minutes / 60.0).max(1.0));
        let double = Watts::new(2.0 * p).over(Minutes::new(minutes));
        prop_assert!((double.as_wh() - 2.0 * e.as_wh()).abs() < 1e-6 * e.as_wh().max(1.0));
    }

    /// Unit conversions round-trip.
    #[test]
    fn conversions_round_trip(v in -1e6..1e6f64) {
        prop_assert!((Celsius::from_kelvin(Celsius::new(v).as_kelvin()).as_celsius() - v).abs() < 1e-6);
        prop_assert!((Meters::from_cm(Meters::new(v).as_cm()).as_meters() - v).abs() < 1e-6 * v.abs().max(1.0));
        let deg = Degrees::new(v).to_radians().to_degrees();
        prop_assert!((deg.value() - v).abs() < 1e-6 * v.abs().max(1.0));
    }

    /// Normalized angles always land in [0, 360) and preserve trig values.
    #[test]
    fn angle_normalization(v in -3600.0..3600.0f64) {
        let n = Degrees::new(v).normalized();
        prop_assert!((0.0..360.0).contains(&n.value()));
        prop_assert!((n.sin() - Degrees::new(v).sin()).abs() < 1e-9);
        prop_assert!((n.cos() - Degrees::new(v).cos()).abs() < 1e-9);
    }

    /// Percent gain is consistent with its definition and antisymmetric-ish.
    #[test]
    fn percent_gain_definition(base in 1.0..1e6f64, delta in -0.5..2.0f64) {
        let baseline = WattHours::new(base);
        let other = WattHours::new(base * (1.0 + delta));
        let gain = other.percent_gain_over(baseline);
        prop_assert!((gain - delta * 100.0).abs() < 1e-6 * delta.abs().max(1.0) * 100.0 + 1e-9);
    }

    /// Clamp/min/max agree with f64 semantics.
    #[test]
    fn ordering_helpers(a in -1e3..1e3f64, b in -1e3..1e3f64) {
        let (x, y) = (Irradiance::from_w_per_m2(a), Irradiance::from_w_per_m2(b));
        prop_assert_eq!(x.min(y).value(), a.min(b));
        prop_assert_eq!(x.max(y).value(), a.max(b));
        let (lo, hi) = (a.min(b), a.max(b));
        let c = Irradiance::from_w_per_m2(0.0).clamp(
            Irradiance::from_w_per_m2(lo),
            Irradiance::from_w_per_m2(hi),
        );
        prop_assert_eq!(c.value(), 0.0f64.clamp(lo, hi));
    }
}
