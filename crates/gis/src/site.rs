//! Geographic site parameters.

use pv_units::Degrees;

/// Geographic and atmospheric parameters of the installation site.
///
/// The paper's case studies are industrial roofs near Turin, Italy; the
/// Linke turbidity profile defaults to typical Po-valley monthly values
/// (hazier summers, clearer winters).
///
/// ```
/// use pv_gis::Site;
/// let site = Site::turin();
/// assert!((site.latitude().value() - 45.07).abs() < 0.01);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Site {
    latitude: Degrees,
    albedo: f64,
    linke_monthly: [f64; 12],
}

impl Site {
    /// Creates a site at the given latitude with a ground albedo and a
    /// monthly Linke turbidity profile.
    ///
    /// # Panics
    ///
    /// Panics if the latitude is outside ±90°, the albedo outside `[0, 1]`,
    /// or any turbidity value is not in `[1, 10]`.
    #[must_use]
    pub fn new(latitude: Degrees, albedo: f64, linke_monthly: [f64; 12]) -> Self {
        assert!(
            latitude.value().abs() <= 90.0,
            "latitude must be within +/-90 degrees"
        );
        assert!((0.0..=1.0).contains(&albedo), "albedo must be in [0, 1]");
        assert!(
            linke_monthly.iter().all(|t| (1.0..=10.0).contains(t)),
            "Linke turbidity values must be in [1, 10]"
        );
        Self {
            latitude,
            albedo,
            linke_monthly,
        }
    }

    /// Turin, Italy (45.07° N) with Po-valley turbidity and 0.2 albedo —
    /// the paper's experimental setting.
    #[must_use]
    pub fn turin() -> Self {
        Self::new(
            Degrees::new(45.07),
            0.2,
            // Monthly Linke turbidity, Jan..Dec (hazy summers in the Po valley).
            [2.6, 2.9, 3.4, 3.9, 4.1, 4.3, 4.3, 4.2, 3.8, 3.2, 2.8, 2.5],
        )
    }

    /// Site latitude.
    #[inline]
    #[must_use]
    pub const fn latitude(&self) -> Degrees {
        self.latitude
    }

    /// Ground albedo used for the ground-reflected irradiance component.
    #[inline]
    #[must_use]
    pub const fn albedo(&self) -> f64 {
        self.albedo
    }

    /// Linke turbidity for a (0-based) day of year, with flat monthly steps.
    #[must_use]
    pub fn linke_turbidity(&self, day_of_year: u32) -> f64 {
        // 365-day year, 0-based day; month boundaries at cumulative day counts.
        const CUM_DAYS: [u32; 12] = [31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334, 365];
        let day = day_of_year.min(364);
        let month = CUM_DAYS.iter().position(|&b| day < b).unwrap_or(11);
        self.linke_monthly[month]
    }
}

impl Default for Site {
    /// Defaults to [`Site::turin`], the paper's setting.
    fn default() -> Self {
        Self::turin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn turbidity_lookup_by_month() {
        let site = Site::turin();
        assert_eq!(site.linke_turbidity(0), 2.6); // Jan 1
        assert_eq!(site.linke_turbidity(30), 2.6); // Jan 31
        assert_eq!(site.linke_turbidity(31), 2.9); // Feb 1
        assert_eq!(site.linke_turbidity(364), 2.5); // Dec 31
        assert_eq!(site.linke_turbidity(400), 2.5); // clamped
    }

    #[test]
    #[should_panic(expected = "albedo")]
    fn bad_albedo_rejected() {
        let _ = Site::new(Degrees::new(45.0), 1.5, [3.0; 12]);
    }

    #[test]
    #[should_panic(expected = "latitude")]
    fn bad_latitude_rejected() {
        let _ = Site::new(Degrees::new(120.0), 0.2, [3.0; 12]);
    }
}
