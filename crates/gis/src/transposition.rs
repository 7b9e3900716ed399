//! Transposition of irradiance components onto the tilted roof plane.
//!
//! Combines beam incidence (from the sun/roof geometry), isotropic sky
//! diffuse and ground-reflected components into plane-of-array (POA)
//! irradiance, following the r.sun / Šúri–Hofierka formulation the paper's
//! data flow builds on (its ref \[17\]).

use crate::sunpos::LocalSun;
use pv_units::{Degrees, Irradiance};

/// Plane-of-array irradiance, split by component.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct PoaComponents {
    /// Beam component on the plane (zero when the cell is shadowed).
    pub beam: Irradiance,
    /// Isotropic sky-diffuse component on the plane, *before* the per-cell
    /// sky-view factor is applied.
    pub diffuse: Irradiance,
    /// Ground-reflected component on the plane.
    pub ground: Irradiance,
}

impl PoaComponents {
    /// Total POA irradiance for a cell with the given sky-view factor and
    /// shadow state.
    ///
    /// Shadowing removes the beam component entirely; the diffuse component
    /// is scaled by the obstacle sky-view factor; the ground-reflected
    /// component is unaffected (it arrives from below the horizon band).
    #[must_use]
    pub fn at_cell(&self, sky_view_factor: f64, shadowed: bool) -> Irradiance {
        let beam = if shadowed {
            Irradiance::ZERO
        } else {
            self.beam
        };
        beam + self.diffuse * sky_view_factor + self.ground
    }

    /// Total POA irradiance for an unshadowed, unobstructed cell.
    #[must_use]
    pub fn unobstructed(&self) -> Irradiance {
        self.at_cell(1.0, false)
    }
}

/// Computes the POA components on a plane tilted by `tilt`, given the
/// sun in the roof-local frame and the horizontal irradiance components.
///
/// - beam: `DNI · max(cos θi, 0)`;
/// - sky diffuse (isotropic): `DHI · (1 + cos β) / 2`;
/// - ground reflected: `GHI · ρ · (1 − cos β) / 2`.
///
/// ```
/// use pv_gis::{transposition::transpose, LocalSun, solar_position};
/// use pv_units::{Degrees, Irradiance};
/// let sun = solar_position(Degrees::new(45.0), 171, 12.0);
/// let local = LocalSun::from_sky(&sun, Degrees::new(26.0), Degrees::new(180.0));
/// let poa = transpose(
///     &local,
///     Degrees::new(26.0),
///     Irradiance::from_w_per_m2(850.0),
///     Irradiance::from_w_per_m2(120.0),
///     Irradiance::from_w_per_m2(800.0),
///     0.2,
/// );
/// assert!(poa.beam.as_w_per_m2() > 700.0);
/// assert!(poa.diffuse.as_w_per_m2() > 100.0);
/// assert!(poa.ground.as_w_per_m2() < 10.0);
/// ```
#[must_use]
pub fn transpose(
    local_sun: &LocalSun,
    tilt: Degrees,
    beam_normal: Irradiance,
    diffuse_horizontal: Irradiance,
    global_horizontal: Irradiance,
    albedo: f64,
) -> PoaComponents {
    let cos_b = tilt.cos();
    PoaComponents {
        beam: beam_normal * local_sun.cos_incidence.max(0.0),
        diffuse: diffuse_horizontal * ((1.0 + cos_b) / 2.0),
        ground: global_horizontal * (albedo * (1.0 - cos_b) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sunpos::solar_position;
    use pv_units::Degrees;

    fn noon_local(tilt_deg: f64) -> LocalSun {
        let sun = solar_position(Degrees::new(45.0), 171, 12.0);
        LocalSun::from_sky(&sun, Degrees::new(tilt_deg), Degrees::new(180.0))
    }

    #[test]
    fn flat_plane_gets_full_sky_no_ground() {
        let local = noon_local(0.0);
        let poa = transpose(
            &local,
            Degrees::new(0.0),
            Irradiance::from_w_per_m2(800.0),
            Irradiance::from_w_per_m2(100.0),
            Irradiance::from_w_per_m2(700.0),
            0.2,
        );
        assert_eq!(poa.diffuse.as_w_per_m2(), 100.0);
        assert_eq!(poa.ground.as_w_per_m2(), 0.0);
    }

    #[test]
    fn shadow_removes_beam_only() {
        let local = noon_local(26.0);
        let poa = transpose(
            &local,
            Degrees::new(26.0),
            Irradiance::from_w_per_m2(800.0),
            Irradiance::from_w_per_m2(100.0),
            Irradiance::from_w_per_m2(700.0),
            0.2,
        );
        let lit = poa.at_cell(1.0, false);
        let shaded = poa.at_cell(1.0, true);
        assert!(lit.as_w_per_m2() > shaded.as_w_per_m2());
        let diffuse_and_ground = poa.diffuse + poa.ground;
        assert!((shaded.as_w_per_m2() - diffuse_and_ground.as_w_per_m2()).abs() < 1e-12);
    }

    #[test]
    fn svf_scales_only_diffuse() {
        let local = noon_local(26.0);
        let poa = transpose(
            &local,
            Degrees::new(26.0),
            Irradiance::from_w_per_m2(800.0),
            Irradiance::from_w_per_m2(200.0),
            Irradiance::from_w_per_m2(700.0),
            0.2,
        );
        let full = poa.at_cell(1.0, false);
        let half = poa.at_cell(0.5, false);
        let diff = full.as_w_per_m2() - half.as_w_per_m2();
        assert!((diff - poa.diffuse.as_w_per_m2() * 0.5).abs() < 1e-12);
    }

    #[test]
    fn sun_behind_plane_gives_zero_beam() {
        // North-facing roof at noon.
        let sun = solar_position(Degrees::new(45.0), 354, 12.0);
        let local = LocalSun::from_sky(&sun, Degrees::new(26.0), Degrees::new(0.0));
        let poa = transpose(
            &local,
            Degrees::new(26.0),
            Irradiance::from_w_per_m2(800.0),
            Irradiance::from_w_per_m2(100.0),
            Irradiance::from_w_per_m2(400.0),
            0.2,
        );
        assert_eq!(poa.beam, Irradiance::ZERO);
    }

    #[test]
    fn tilted_south_roof_beats_horizontal_in_winter() {
        // Classic sanity check: a 45-degree south roof collects more beam
        // than a flat one under a low winter sun.
        let sun = solar_position(Degrees::new(45.0), 354, 12.0);
        let flat = LocalSun::from_sky(&sun, Degrees::new(0.0), Degrees::new(180.0));
        let steep = LocalSun::from_sky(&sun, Degrees::new(45.0), Degrees::new(180.0));
        assert!(steep.cos_incidence > flat.cos_incidence);
    }
}
