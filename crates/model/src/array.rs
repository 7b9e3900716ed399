//! Series/parallel panel aggregation (paper Sec. III-B1).
//!
//! The total power of an `m × n` panel is *not* the sum of its modules'
//! powers: all strings share the panel voltage (the weakest string's sum),
//! and within a string all modules carry the string current (the weakest
//! module's current):
//!
//! ```text
//! Vpanel = min_j  Σ_i V(i,j)
//! Ipanel = Σ_j  min_i I(i,j)
//! Ppanel = Vpanel · Ipanel
//! ```
//!
//! This bottleneck effect is exactly why the paper's placement enumerates
//! modules in *series-first* order: one weak (shaded) module throttles its
//! whole string.

use crate::error::ModelError;
use crate::wiring::WiringSpec;
use pv_units::{Amperes, Meters, Volts, Watts};

/// An `m × n` series/parallel panel topology: `strings` parallel strings,
/// each of `series` modules in series (the paper's `m` and `n`,
/// `N = m·n`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Topology {
    series: usize,
    strings: usize,
}

impl Topology {
    /// Creates a topology of `strings` parallel strings of `series`
    /// series-connected modules.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyTopology`] if either dimension is zero,
    /// and [`ModelError::TopologyTooLarge`] if the module count
    /// `series × strings` overflows `usize`.
    pub fn new(series: usize, strings: usize) -> Result<Self, ModelError> {
        if series == 0 || strings == 0 {
            return Err(ModelError::EmptyTopology);
        }
        if series.checked_mul(strings).is_none() {
            return Err(ModelError::TopologyTooLarge { series, strings });
        }
        Ok(Self { series, strings })
    }

    /// Modules per string (the paper's `m`).
    #[inline]
    #[must_use]
    pub const fn series(self) -> usize {
        self.series
    }

    /// Number of parallel strings (the paper's `n`).
    #[inline]
    #[must_use]
    pub const fn strings(self) -> usize {
        self.strings
    }

    /// Total module count `N = m·n`.
    #[inline]
    #[must_use]
    pub const fn num_modules(self) -> usize {
        self.series * self.strings
    }

    /// String index of the `k`-th module in series-first order
    /// (modules `0..m` form string 0, `m..2m` string 1, …).
    #[inline]
    #[must_use]
    pub const fn string_of(self, module_index: usize) -> usize {
        module_index / self.series
    }
}

impl core::fmt::Display for Topology {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}s x {}p", self.series, self.strings)
    }
}

/// One time step of the array rule: the panel power and the wiring loss
/// of a panel whose strings are given as aggregates.
///
/// Each item of `strings` is one string's series voltage sum
/// `Σ_i V(i,j)`, its bottleneck current `min_i I(i,j)` and its extra
/// cable length (see [`string_wiring_overhead`]). Returns
/// `(Vpanel · Ipanel, loss)`, where `loss` is the strings' RI² dissipation
/// ([`WiringSpec::power_loss`] at each string's current), capped at the
/// panel power.
///
/// The panel power never exceeds the sum of the module powers, and
/// equals it when every module shares one operating point.
///
/// [`string_wiring_overhead`]: crate::string_wiring_overhead
///
/// ```
/// use pv_model::{panel_step, WiringSpec};
/// use pv_units::{Amperes, Meters, Volts};
/// // A 24 V / 6 A module in series with a shaded 23 V / 2 A one, beside
/// // a healthy two-module string wired with 3 m of extra cable.
/// let strings = [
///     (Volts::new(24.0 + 23.0), Amperes::new(2.0), Meters::ZERO),
///     (Volts::new(48.0), Amperes::new(6.0), Meters::new(3.0)),
/// ];
/// let (power, loss) = panel_step(strings, &WiringSpec::awg10());
/// // Both strings run at the weaker string's 47 V; the currents add.
/// assert_eq!(power.as_watts(), 47.0 * 8.0);
/// // 7 mΩ/m · 3 m · (6 A)² of wiring loss.
/// assert!((loss.as_watts() - 0.007 * 3.0 * 36.0).abs() < 1e-12);
/// ```
#[inline]
pub fn panel_step(
    strings: impl IntoIterator<Item = (Volts, Amperes, Meters)>,
    wiring: &WiringSpec,
) -> (Watts, Watts) {
    let mut v_panel = Volts::new(f64::INFINITY);
    let mut i_panel = Amperes::ZERO;
    let mut loss = Watts::ZERO;
    for (v, i, extra) in strings {
        v_panel = v_panel.min(v);
        i_panel += i;
        loss += wiring.power_loss(extra, i);
    }
    let power = v_panel * i_panel;
    (power, loss.min(power))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::OperatingPoint;

    fn op(v: f64, i: f64) -> OperatingPoint {
        OperatingPoint {
            voltage: Volts::new(v),
            current: Amperes::new(i),
        }
    }

    /// Panel power of series-first `modules` (no extra cable) and the sum
    /// of their powers.
    fn panel(modules: &[OperatingPoint], t: Topology) -> (f64, f64) {
        let strings = modules.chunks(t.series()).map(|string| {
            let v = string.iter().map(|p| p.voltage.value()).sum();
            let i = string
                .iter()
                .map(|p| p.current.value())
                .fold(f64::INFINITY, f64::min);
            (Volts::new(v), Amperes::new(i), Meters::ZERO)
        });
        let (power, loss) = panel_step(strings, &WiringSpec::awg10());
        assert_eq!(loss, Watts::ZERO);
        let sum = modules.iter().map(|p| p.power().as_watts()).sum();
        (power.as_watts(), sum)
    }

    #[test]
    fn uniform_modules_have_no_mismatch() {
        let t = Topology::new(8, 2).unwrap();
        let (power, sum) = panel(&vec![op(24.0, 5.0); 16], t);
        assert!((power - 1920.0).abs() < 1e-9);
        assert!((sum - power).abs() < 1e-9);
    }

    #[test]
    fn weak_module_throttles_only_its_string() {
        let t = Topology::new(4, 2).unwrap();
        let mut modules = vec![op(24.0, 5.0); 8];
        modules[1] = op(24.0, 1.0); // weak module in string 0
        let (power, sum) = panel(&modules, t);
        // String 0 contributes 1 A, string 1 its full 5 A, at 96 V.
        assert_eq!(power, 96.0 * 6.0);
        assert!(power < sum);
    }

    #[test]
    fn weak_string_voltage_caps_the_panel() {
        let t = Topology::new(2, 2).unwrap();
        // String 0 has low-voltage modules.
        let modules = vec![op(20.0, 5.0), op(20.0, 5.0), op(24.0, 5.0), op(24.0, 5.0)];
        let (power, _) = panel(&modules, t);
        assert_eq!(power, 40.0 * 10.0);
    }

    #[test]
    fn panel_power_never_exceeds_sum_of_modules() {
        let t = Topology::new(3, 3).unwrap();
        let modules: Vec<OperatingPoint> = (0..9)
            .map(|k| op(20.0 + k as f64, 3.0 + (k % 4) as f64))
            .collect();
        let (power, sum) = panel(&modules, t);
        assert!(power <= sum + 1e-9);
    }

    #[test]
    fn series_first_indexing() {
        let t = Topology::new(8, 4).unwrap();
        assert_eq!(t.string_of(0), 0);
        assert_eq!(t.string_of(7), 0);
        assert_eq!(t.string_of(8), 1);
        assert_eq!(t.string_of(31), 3);
        assert_eq!(t.num_modules(), 32);
    }

    #[test]
    fn wiring_loss_is_capped_at_panel_power() {
        let wiring = WiringSpec::awg10();
        let long = Meters::new(1.0e6);
        let (power, loss) = panel_step([(Volts::new(1.0), Amperes::new(5.0), long)], &wiring);
        assert_eq!(power.as_watts(), 5.0);
        assert!(wiring.power_loss(long, Amperes::new(5.0)) > power);
        assert_eq!(loss, power);
    }

    #[test]
    fn empty_topology_rejected() {
        assert_eq!(Topology::new(0, 2).unwrap_err(), ModelError::EmptyTopology);
        assert_eq!(Topology::new(8, 0).unwrap_err(), ModelError::EmptyTopology);
        let huge = 1usize << (usize::BITS / 2);
        assert_eq!(
            Topology::new(huge, huge).unwrap_err(),
            ModelError::TopologyTooLarge {
                series: huge,
                strings: huge
            }
        );
    }

    #[test]
    fn display_format() {
        assert_eq!(Topology::new(8, 4).unwrap().to_string(), "8s x 4p");
    }

    #[test]
    fn dark_panel_is_zero_with_zero_mismatch() {
        let t = Topology::new(2, 2).unwrap();
        let (power, sum) = panel(&[op(0.0, 0.0); 4], t);
        assert_eq!(power, 0.0);
        assert_eq!(sum, 0.0);
    }
}
