//! ESRA clear-sky irradiance model with Linke turbidity.
//!
//! The paper's data-extraction flow "estimate[s] the incident global
//! radiation, by additionally considering the attenuation caused by air
//! pollution (i.e., Linke turbidity coefficient)" — the approach of the
//! PVGIS / r.sun lineage (paper refs \[10\], \[11\], \[17\]). This module
//! implements the ESRA (European Solar Radiation Atlas) clear-sky model:
//! beam normal irradiance attenuated by Rayleigh optical depth scaled with
//! the Linke turbidity factor, plus an empirical diffuse transmission.

use pv_units::{Degrees, Irradiance};

/// Solar constant, W/m².
pub const SOLAR_CONSTANT: f64 = 1367.0;

/// ESRA clear-sky model for one day of the year.
///
/// ```
/// use pv_gis::ClearSky;
/// use pv_units::Degrees;
/// let sky = ClearSky::new(171, 3.0); // near summer solstice, TL = 3
/// let dni = sky.beam_normal(Degrees::new(60.0));
/// let dhi = sky.diffuse_horizontal(Degrees::new(60.0));
/// assert!(dni.as_w_per_m2() > 700.0 && dni.as_w_per_m2() < 1000.0);
/// assert!(dhi.as_w_per_m2() > 50.0 && dhi.as_w_per_m2() < 200.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClearSky {
    /// Extraterrestrial normal irradiance corrected for orbit eccentricity.
    i0: f64,
    /// Linke turbidity factor (air mass 2).
    linke: f64,
}

impl ClearSky {
    /// Creates the model for a (0-based) day of year and Linke turbidity.
    ///
    /// # Panics
    ///
    /// Panics if `linke` is not in `[1, 10]`.
    #[must_use]
    pub fn new(day_of_year: u32, linke: f64) -> Self {
        assert!(
            (1.0..=10.0).contains(&linke),
            "Linke turbidity must be in [1, 10]"
        );
        let n = f64::from(day_of_year) + 1.0;
        let eccentricity = 1.0 + 0.033 * (360.0 / 365.0 * n).to_radians().cos();
        Self {
            i0: SOLAR_CONSTANT * eccentricity,
            linke,
        }
    }

    /// Extraterrestrial normal irradiance for this day.
    #[inline]
    #[must_use]
    pub fn extraterrestrial_normal(&self) -> Irradiance {
        Irradiance::from_w_per_m2(self.i0)
    }

    /// Extraterrestrial irradiance on a horizontal plane.
    #[must_use]
    pub fn extraterrestrial_horizontal(&self, elevation: Degrees) -> Irradiance {
        Irradiance::from_w_per_m2((self.i0 * elevation.sin()).max(0.0))
    }

    /// Kasten–Young relative optical air mass.
    ///
    /// Returns a very large mass for sub-horizon elevations (beam is then
    /// effectively zero).
    #[must_use]
    pub fn air_mass(elevation: Degrees) -> f64 {
        let e = elevation.value();
        if e <= 0.0 {
            return 40.0;
        }
        1.0 / (elevation.sin() + 0.50572 * (e + 6.07995).powf(-1.6364))
    }

    /// Rayleigh optical depth as a function of air mass (ESRA/Kasten).
    #[must_use]
    pub fn rayleigh_optical_depth(air_mass: f64) -> f64 {
        let m = air_mass.min(40.0);
        if m <= 20.0 {
            1.0 / (6.6296 + 1.7513 * m - 0.1202 * m * m + 0.0065 * m.powi(3) - 0.00013 * m.powi(4))
        } else {
            1.0 / (10.4 + 0.718 * m)
        }
    }

    /// Clear-sky beam (direct) normal irradiance at the given sun elevation.
    #[must_use]
    pub fn beam_normal(&self, elevation: Degrees) -> Irradiance {
        if elevation.value() <= 0.0 {
            return Irradiance::ZERO;
        }
        let m = Self::air_mass(elevation);
        let delta_r = Self::rayleigh_optical_depth(m);
        let b = self.i0 * (-0.8662 * self.linke * m * delta_r).exp();
        Irradiance::from_w_per_m2(b.max(0.0))
    }

    /// Clear-sky diffuse irradiance on a horizontal plane (ESRA empirical
    /// transmission `Trd(TL) · Fd(elevation, TL)`).
    #[must_use]
    pub fn diffuse_horizontal(&self, elevation: Degrees) -> Irradiance {
        if elevation.value() <= 0.0 {
            return Irradiance::ZERO;
        }
        let tl = self.linke;
        let trd = -1.5843e-2 + 3.0543e-2 * tl + 3.797e-4 * tl * tl;
        let a0_raw = 2.6463e-1 - 6.1581e-2 * tl + 3.1408e-3 * tl * tl;
        // ESRA correction: keep A0·Trd from going below 2e-3.
        let a0 = if a0_raw * trd < 2e-3 {
            2e-3 / trd
        } else {
            a0_raw
        };
        let a1 = 2.0402 + 1.8945e-2 * tl - 1.1161e-2 * tl * tl;
        let a2 = -1.3025 + 3.9231e-2 * tl + 8.5079e-3 * tl * tl;
        let s = elevation.sin();
        let fd = a0 + a1 * s + a2 * s * s;
        Irradiance::from_w_per_m2((self.i0 * trd * fd).max(0.0))
    }

    /// Clear-sky global irradiance on a horizontal plane.
    #[must_use]
    pub fn global_horizontal(&self, elevation: Degrees) -> Irradiance {
        let beam_h = self.beam_normal(elevation) * elevation.sin().max(0.0);
        beam_h + self.diffuse_horizontal(elevation)
    }

    /// Clear-sky clearness index `GHI / extraterrestrial-horizontal`.
    ///
    /// Returns 0 below the horizon.
    #[must_use]
    pub fn clearness_index(&self, elevation: Degrees) -> f64 {
        let ext = self.extraterrestrial_horizontal(elevation);
        if ext.as_w_per_m2() <= 0.0 {
            return 0.0;
        }
        self.global_horizontal(elevation) / ext
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beam_increases_with_elevation() {
        let sky = ClearSky::new(100, 3.0);
        let low = sky.beam_normal(Degrees::new(10.0));
        let high = sky.beam_normal(Degrees::new(60.0));
        assert!(high.as_w_per_m2() > low.as_w_per_m2());
    }

    #[test]
    fn beam_zero_below_horizon() {
        let sky = ClearSky::new(100, 3.0);
        assert_eq!(sky.beam_normal(Degrees::new(-5.0)), Irradiance::ZERO);
        assert_eq!(sky.diffuse_horizontal(Degrees::new(-5.0)), Irradiance::ZERO);
    }

    #[test]
    fn turbidity_attenuates_beam_and_boosts_diffuse() {
        let clean = ClearSky::new(171, 2.0);
        let hazy = ClearSky::new(171, 6.0);
        let e = Degrees::new(45.0);
        assert!(clean.beam_normal(e).as_w_per_m2() > hazy.beam_normal(e).as_w_per_m2());
        assert!(
            clean.diffuse_horizontal(e).as_w_per_m2() < hazy.diffuse_horizontal(e).as_w_per_m2()
        );
    }

    #[test]
    fn magnitudes_are_physical() {
        // High summer sun, average turbidity: DNI ~ 850-950, GHI ~ 900-1000.
        let sky = ClearSky::new(171, 3.0);
        let e = Degrees::new(65.0);
        let dni = sky.beam_normal(e).as_w_per_m2();
        let ghi = sky.global_horizontal(e).as_w_per_m2();
        assert!((700.0..1050.0).contains(&dni), "DNI {dni}");
        assert!((750.0..1100.0).contains(&ghi), "GHI {ghi}");
        assert!(
            ghi < self_extraterrestrial(&sky, e),
            "GHI below extraterrestrial"
        );
    }

    fn self_extraterrestrial(sky: &ClearSky, e: Degrees) -> f64 {
        sky.extraterrestrial_horizontal(e).as_w_per_m2()
    }

    #[test]
    fn air_mass_is_one_at_zenith() {
        let m = ClearSky::air_mass(Degrees::new(90.0));
        assert!((m - 1.0).abs() < 0.01, "air mass {m}");
    }

    #[test]
    fn air_mass_grows_towards_horizon() {
        assert!(ClearSky::air_mass(Degrees::new(5.0)) > 9.0);
        assert!(ClearSky::air_mass(Degrees::new(5.0)) < 40.0);
    }

    #[test]
    fn clearness_index_in_plausible_band() {
        let sky = ClearSky::new(171, 3.0);
        let kt = sky.clearness_index(Degrees::new(60.0));
        assert!((0.6..0.85).contains(&kt), "kt {kt}");
    }

    #[test]
    fn eccentricity_peaks_in_january() {
        let jan = ClearSky::new(2, 3.0).extraterrestrial_normal();
        let jul = ClearSky::new(183, 3.0).extraterrestrial_normal();
        assert!(jan.as_w_per_m2() > jul.as_w_per_m2());
    }

    #[test]
    #[should_panic(expected = "Linke")]
    fn bad_turbidity_rejected() {
        let _ = ClearSky::new(0, 0.5);
    }
}
