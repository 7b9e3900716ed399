//! Solar geometry: sun position in sky and roof-local coordinates.

use pv_units::{Degrees, Radians};

/// Sun position in the sky: elevation above the horizon and azimuth
/// (clockwise from north: 0° = N, 90° = E, 180° = S, 270° = W).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolarPosition {
    /// Elevation above the astronomical horizon.
    pub elevation: Degrees,
    /// Azimuth clockwise from north.
    pub azimuth: Degrees,
    /// Solar declination on this day (useful for diagnostics).
    pub declination: Degrees,
}

impl SolarPosition {
    /// Whether the sun is above the horizon.
    #[inline]
    #[must_use]
    pub fn is_up(&self) -> bool {
        self.elevation.value() > 0.0
    }

    /// Unit vector pointing *toward* the sun in the world frame
    /// (x = east, y = north, z = up).
    #[must_use]
    pub fn direction(&self) -> [f64; 3] {
        let e = self.elevation;
        let a = self.azimuth;
        [a.sin() * e.cos(), a.cos() * e.cos(), e.sin()]
    }
}

/// Computes the sun position from latitude, 0-based day of year and local
/// solar hour (12.0 = solar noon).
///
/// Uses the Cooper declination and the standard spherical-astronomy
/// elevation/azimuth formulas — accurate to a fraction of a degree, which is
/// ample for roof-scale shading (the paper's DSM cells subtend far larger
/// angles from any obstacle).
///
/// ```
/// use pv_gis::solar_position;
/// use pv_units::Degrees;
/// // Solar noon near the June solstice in Turin: high sun, due south.
/// let pos = solar_position(Degrees::new(45.07), 171, 12.0);
/// assert!((pos.elevation.value() - (90.0 - 45.07 + 23.45)).abs() < 0.5);
/// assert!((pos.azimuth.value() - 180.0).abs() < 1.0);
/// ```
#[must_use]
pub fn solar_position(latitude: Degrees, day_of_year: u32, hour: f64) -> SolarPosition {
    // Cooper (1969): declination of the 1-based day.
    let n = f64::from(day_of_year) + 1.0;
    let declination = Degrees::new(23.45 * (360.0 / 365.0 * (284.0 + n)).to_radians().sin());

    let hour_angle = Degrees::new(15.0 * (hour - 12.0));
    let (phi, delta, omega) = (latitude, declination, hour_angle);

    let sin_elev = phi.sin() * delta.sin() + phi.cos() * delta.cos() * omega.cos();
    let elevation = Radians::new(sin_elev.clamp(-1.0, 1.0).asin()).to_degrees();

    // Azimuth measured from south (positive towards west), then shifted to
    // the north-clockwise convention.
    let az_south = f64::atan2(
        omega.sin() * delta.cos(),
        omega.cos() * delta.cos() * phi.sin() - delta.sin() * phi.cos(),
    );
    let azimuth = Degrees::new(az_south.to_degrees() + 180.0).normalized();

    SolarPosition {
        elevation,
        azimuth,
        declination,
    }
}

/// Sun position expressed in the roof-local frame of a tilted plane.
///
/// The shadow engine works on the *developed* roof plane: obstacle heights
/// are measured normal to the plane and shadows are cast in plane
/// coordinates. For that it needs the sun's elevation above the plane and
/// the direction of its in-plane component in grid axes
/// (+x = cross-slope, +y = down-slope).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LocalSun {
    /// Cosine of the incidence angle between sun direction and roof normal.
    /// Negative means the sun is behind the plane.
    pub cos_incidence: f64,
    /// Sun elevation above the roof plane (`asin(cos_incidence)`).
    pub elevation: Radians,
    /// Angle of the sun's in-plane direction, measured from the grid +x
    /// axis towards +y (`atan2`), in radians.
    pub plane_angle: Radians,
}

impl LocalSun {
    /// Transforms a sky position into the local frame of a roof with the
    /// given tilt and facing azimuth (the downhill direction's azimuth).
    #[must_use]
    pub fn from_sky(sun: &SolarPosition, tilt: Degrees, roof_azimuth: Degrees) -> Self {
        let s = sun.direction();
        let (sb, cb) = (tilt.sin(), tilt.cos());
        let (sa, ca) = (roof_azimuth.sin(), roof_azimuth.cos());

        // Roof basis in world coordinates (x = east, y = north, z = up):
        // normal, cross-slope (grid +x) and down-slope tangent (grid +y).
        let normal = [sb * sa, sb * ca, cb];
        let cross = [ca, -sa, 0.0];
        let down = [sa * cb, ca * cb, -sb];

        let dot = |a: [f64; 3], b: [f64; 3]| a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
        let sn = dot(s, normal);
        let su = dot(s, cross);
        let sv = dot(s, down);

        Self {
            cos_incidence: sn,
            elevation: Radians::new(sn.clamp(-1.0, 1.0).asin()),
            plane_angle: Radians::new(f64::atan2(sv, su)),
        }
    }

    /// Whether the sun is in front of the roof plane.
    #[inline]
    #[must_use]
    pub fn is_above_plane(&self) -> bool {
        self.cos_incidence > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TURIN: Degrees = Degrees::new(45.07);

    #[test]
    fn winter_noon_is_low_and_south() {
        // Dec 21 (day 354): elevation ~ 90 - 45.07 - 23.45 = 21.5 deg.
        let pos = solar_position(TURIN, 354, 12.0);
        assert!(
            (pos.elevation.value() - 21.5).abs() < 0.6,
            "elevation {}",
            pos.elevation
        );
        assert!((pos.azimuth.value() - 180.0).abs() < 1.5);
    }

    #[test]
    fn morning_sun_is_east_of_south() {
        let pos = solar_position(TURIN, 171, 8.0);
        assert!(pos.is_up());
        assert!(pos.azimuth.value() > 60.0 && pos.azimuth.value() < 180.0);
    }

    #[test]
    fn midnight_sun_is_down() {
        let pos = solar_position(TURIN, 171, 0.0);
        assert!(!pos.is_up());
    }

    #[test]
    fn equinox_day_length_is_about_12_hours() {
        // Around Mar 21 (day 79) the sun rises near 6:00 and sets near 18:00.
        let sunrise = solar_position(TURIN, 79, 6.0);
        let sunset = solar_position(TURIN, 79, 18.0);
        assert!(sunrise.elevation.value().abs() < 3.0);
        assert!(sunset.elevation.value().abs() < 3.0);
    }

    #[test]
    fn direction_is_unit_vector() {
        let pos = solar_position(TURIN, 100, 10.0);
        let d = pos.direction();
        let norm = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
        assert!((norm - 1.0).abs() < 1e-12);
    }

    #[test]
    fn south_facing_roof_sees_noon_sun_head_on() {
        // At noon equinox in Turin, elevation ~44.9 deg; a south-facing roof
        // tilted 45 deg has its normal pointing almost straight at the sun.
        let pos = solar_position(TURIN, 79, 12.0);
        let local = LocalSun::from_sky(&pos, Degrees::new(45.0), Degrees::new(180.0));
        assert!(local.cos_incidence > 0.99, "cos {}", local.cos_incidence);
    }

    #[test]
    fn north_facing_roof_has_sun_behind_plane_at_noon() {
        let pos = solar_position(TURIN, 354, 12.0);
        let local = LocalSun::from_sky(&pos, Degrees::new(26.0), Degrees::new(0.0));
        assert!(!local.is_above_plane());
    }

    #[test]
    fn in_plane_angle_points_away_from_sun_azimuth() {
        // Morning sun (east) on a south-facing roof: the in-plane component
        // of the sun direction points towards grid -x or +x depending on
        // frame orientation; it must at least be consistent between
        // symmetric morning/afternoon hours.
        let tilt = Degrees::new(26.0);
        let south = Degrees::new(180.0);
        let am = LocalSun::from_sky(&solar_position(TURIN, 171, 9.0), tilt, south);
        let pm = LocalSun::from_sky(&solar_position(TURIN, 171, 15.0), tilt, south);
        // Mirror symmetry around solar noon: plane angles are reflections
        // through the +y axis (angle -> pi - angle), so their sines match
        // and cosines are opposite.
        assert!(
            (am.plane_angle.sin() - pm.plane_angle.sin()).abs() < 0.05,
            "am {} pm {}",
            am.plane_angle.value(),
            pm.plane_angle.value()
        );
        assert!((am.plane_angle.cos() + pm.plane_angle.cos()).abs() < 0.05);
    }

    #[test]
    fn incidence_matches_closed_form() {
        // cos(theta_i) = sin(e)cos(b) + cos(e)sin(b)cos(A - Af)
        let pos = solar_position(TURIN, 200, 14.0);
        let tilt = Degrees::new(26.0);
        let af = Degrees::new(195.0);
        let local = LocalSun::from_sky(&pos, tilt, af);
        let expected = pos.elevation.sin() * tilt.cos()
            + pos.elevation.cos() * tilt.sin() * (pos.azimuth - af).cos();
        assert!((local.cos_incidence - expected).abs() < 1e-12);
    }
}
