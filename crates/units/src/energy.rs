//! Power and energy.

use crate::time::Minutes;

quantity!(
    /// Power in watts.
    ///
    /// ```
    /// use pv_units::{Watts, Minutes};
    /// // A module holding 150 W for a 15-minute step yields 37.5 Wh.
    /// let e = Watts::new(150.0).over(Minutes::new(15.0));
    /// assert_eq!(e.as_wh(), 37.5);
    /// ```
    Watts,
    "W"
);

quantity!(
    /// Energy in watt-hours.
    ///
    /// ```
    /// use pv_units::WattHours;
    /// let e = WattHours::new(3_430_000.0);
    /// assert!((e.as_mwh() - 3.43).abs() < 1e-12);
    /// ```
    WattHours,
    "Wh"
);

/// Energy expressed in kilowatt-hours (view over [`WattHours`]).
pub type KilowattHours = WattHours;
/// Energy expressed in megawatt-hours (view over [`WattHours`]).
pub type MegawattHours = WattHours;

impl Watts {
    /// Energy produced by holding this power for `duration`.
    #[inline]
    #[must_use]
    pub fn over(self, duration: Minutes) -> WattHours {
        WattHours::new(self.value() * duration.as_hours())
    }

    /// Power in watts.
    #[inline]
    #[must_use]
    pub fn as_watts(self) -> f64 {
        self.value()
    }
}

impl WattHours {
    /// Energy in watt-hours.
    #[inline]
    #[must_use]
    pub fn as_wh(self) -> f64 {
        self.value()
    }

    /// Energy in kilowatt-hours.
    #[inline]
    #[must_use]
    pub fn as_kwh(self) -> f64 {
        self.value() / 1e3
    }

    /// Energy in megawatt-hours — the unit of the paper's Table I.
    #[inline]
    #[must_use]
    pub fn as_mwh(self) -> f64 {
        self.value() / 1e6
    }

    /// Builds an energy from megawatt-hours.
    #[inline]
    #[must_use]
    pub fn from_mwh(mwh: f64) -> Self {
        Self::new(mwh * 1e6)
    }

    /// Relative improvement of `self` over `baseline`, in percent —
    /// the "%" column of Table I.
    ///
    /// Returns `f64::NAN` if `baseline` is zero.
    #[inline]
    #[must_use]
    pub fn percent_gain_over(self, baseline: Self) -> f64 {
        if baseline.value() == 0.0 {
            f64::NAN
        } else {
            (self.value() - baseline.value()) / baseline.value() * 100.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watt_times_minutes() {
        let e = Watts::new(1000.0).over(Minutes::new(30.0));
        assert_eq!(e.as_wh(), 500.0);
    }

    #[test]
    fn unit_conversions() {
        let e = WattHours::from_mwh(4.094);
        assert!((e.as_kwh() - 4094.0).abs() < 1e-9);
        assert!((e.as_wh() - 4_094_000.0).abs() < 1e-6);
    }

    #[test]
    fn percent_gain_matches_table1_row() {
        // Roof 1, N=16: 3.430 MWh -> 4.094 MWh = +19.37 %
        let traditional = WattHours::from_mwh(3.430);
        let proposed = WattHours::from_mwh(4.094);
        let pct = proposed.percent_gain_over(traditional);
        // The paper prints +19.37 from unrounded MWh values; the rounded
        // 3-decimal figures give 19.36.
        assert!((pct - 19.37).abs() < 0.05, "pct = {pct}");
    }

    #[test]
    fn percent_gain_of_zero_baseline_is_nan() {
        assert!(WattHours::new(1.0)
            .percent_gain_over(WattHours::ZERO)
            .is_nan());
    }
}
