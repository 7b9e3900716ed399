//! Roof encumbrances: chimneys, dormers, pipe runs, antennas, off-roof
//! blockers.
//!
//! The paper's DSM "allows to recognize encumbrances over the roof (e.g.
//! chimneys and dormers), that prevent the deployment of PV panels" and
//! drives the shadow simulation. An [`Obstacle`] plays both roles: it
//! raises the height field (casting shadows) and invalidates the cells it
//! stands on (plus an optional clearance margin).

use pv_units::Meters;

/// The kind of encumbrance, for reporting and rendering.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ObstacleKind {
    /// A masonry chimney: tall, small footprint.
    Chimney,
    /// A dormer window: large footprint, moderate height.
    Dormer,
    /// An HVAC/service pipe run: long, low, wide exclusion zone
    /// (dominant on the paper's Roof 1).
    PipeRun,
    /// A slim antenna mast: tall, tiny footprint.
    Antenna,
    /// A ventilation flue / small HVAC stack: ubiquitous industrial roof
    /// furniture with a small footprint but enough height to cast
    /// mid-sun shadows well past its keep-out ring.
    Vent,
    /// A rooftop HVAC unit / skylight box: a wide, person-high cabinet
    /// whose shadow band is both deep and broad — the main source of the
    /// shading pockets that fragment an industrial roof's suitable area.
    HvacUnit,
    /// An off-roof blocker (tree crown, adjacent building edge): casts
    /// shadows but may stand on cells that were never placeable anyway.
    OffRoofBlock,
}

impl core::fmt::Display for ObstacleKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = match self {
            Self::Chimney => "chimney",
            Self::Dormer => "dormer",
            Self::PipeRun => "pipe run",
            Self::Antenna => "antenna",
            Self::Vent => "vent",
            Self::HvacUnit => "HVAC unit",
            Self::OffRoofBlock => "off-roof block",
        };
        f.write_str(name)
    }
}

/// An axis-aligned encumbrance on (or beside) the roof plane.
///
/// Coordinates are metres in the roof plane, `(x, y)` being the top-left
/// corner of the obstacle's bounding box (y grows down-slope). `height` is
/// measured normal to the roof plane.
///
/// ```
/// use pv_gis::Obstacle;
/// use pv_units::Meters;
/// let c = Obstacle::chimney(Meters::new(3.0), Meters::new(1.0),
///                           Meters::new(0.8), Meters::new(0.8),
///                           Meters::new(1.5));
/// assert_eq!(c.height().as_meters(), 1.5);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Obstacle {
    kind: ObstacleKind,
    x: Meters,
    y: Meters,
    w: Meters,
    h: Meters,
    height: Meters,
    clearance: Meters,
}

impl Obstacle {
    /// Creates an arbitrary box obstacle.
    ///
    /// # Panics
    ///
    /// Panics if the footprint sides or height are not positive, or the
    /// clearance is negative.
    #[must_use]
    pub fn new(
        kind: ObstacleKind,
        x: Meters,
        y: Meters,
        w: Meters,
        h: Meters,
        height: Meters,
        clearance: Meters,
    ) -> Self {
        assert!(
            w.value() > 0.0 && h.value() > 0.0,
            "obstacle footprint must be positive"
        );
        assert!(height.value() > 0.0, "obstacle height must be positive");
        assert!(clearance.value() >= 0.0, "clearance must be non-negative");
        Self {
            kind,
            x,
            y,
            w,
            h,
            height,
            clearance,
        }
    }

    /// A chimney at `(x, y)` with footprint `w × h` and the given height;
    /// default clearance of 20 cm.
    #[must_use]
    pub fn chimney(x: Meters, y: Meters, w: Meters, h: Meters, height: Meters) -> Self {
        Self::new(ObstacleKind::Chimney, x, y, w, h, height, Meters::new(0.2))
    }

    /// A dormer at `(x, y)`; default clearance of 40 cm.
    #[must_use]
    pub fn dormer(x: Meters, y: Meters, w: Meters, h: Meters, height: Meters) -> Self {
        Self::new(ObstacleKind::Dormer, x, y, w, h, height, Meters::new(0.4))
    }

    /// A service pipe run: long and low with a generous exclusion zone
    /// (1 m), as on the paper's Roof 1.
    #[must_use]
    pub fn pipe_run(x: Meters, y: Meters, w: Meters, h: Meters, height: Meters) -> Self {
        Self::new(ObstacleKind::PipeRun, x, y, w, h, height, Meters::new(1.0))
    }

    /// A ventilation flue: 0.5 × 0.5 m footprint, 20 cm clearance.
    #[must_use]
    pub fn vent(x: Meters, y: Meters, height: Meters) -> Self {
        Self::new(
            ObstacleKind::Vent,
            x,
            y,
            Meters::new(0.5),
            Meters::new(0.5),
            height,
            Meters::new(0.2),
        )
    }

    /// A rooftop HVAC cabinet: 2.0 × 1.2 m footprint, 30 cm clearance.
    #[must_use]
    pub fn hvac_unit(x: Meters, y: Meters, height: Meters) -> Self {
        Self::new(
            ObstacleKind::HvacUnit,
            x,
            y,
            Meters::new(2.0),
            Meters::new(1.2),
            height,
            Meters::new(0.3),
        )
    }

    /// A slim antenna mast; no clearance beyond its own footprint.
    #[must_use]
    pub fn antenna(x: Meters, y: Meters, height: Meters) -> Self {
        Self::new(
            ObstacleKind::Antenna,
            x,
            y,
            Meters::new(0.2),
            Meters::new(0.2),
            height,
            Meters::ZERO,
        )
    }

    /// An off-roof blocker such as a tree crown or a neighbouring building
    /// edge beside/above the roof strip.
    #[must_use]
    pub fn off_roof_block(x: Meters, y: Meters, w: Meters, h: Meters, height: Meters) -> Self {
        Self::new(ObstacleKind::OffRoofBlock, x, y, w, h, height, Meters::ZERO)
    }

    /// The obstacle kind.
    #[inline]
    #[must_use]
    pub const fn kind(&self) -> ObstacleKind {
        self.kind
    }

    /// Top-left corner of the footprint, in metres.
    #[inline]
    #[must_use]
    pub const fn origin(&self) -> (Meters, Meters) {
        (self.x, self.y)
    }

    /// Footprint size `(w, h)`, in metres.
    #[inline]
    #[must_use]
    pub const fn size(&self) -> (Meters, Meters) {
        (self.w, self.h)
    }

    /// Height above the roof plane.
    #[inline]
    #[must_use]
    pub const fn height(&self) -> Meters {
        self.height
    }

    /// Additional keep-out margin around the footprint.
    #[inline]
    #[must_use]
    pub const fn clearance(&self) -> Meters {
        self.clearance
    }

    /// Whether the metric point `(px, py)` lies inside the raised footprint.
    #[must_use]
    pub fn covers(&self, px: f64, py: f64) -> bool {
        px >= self.x.value()
            && px < self.x.value() + self.w.value()
            && py >= self.y.value()
            && py < self.y.value() + self.h.value()
    }

    /// Whether the metric point lies inside the footprint *or* its
    /// clearance margin (i.e. the cell is unusable for modules).
    #[must_use]
    pub fn excludes(&self, px: f64, py: f64) -> bool {
        let c = self.clearance.value();
        px >= self.x.value() - c
            && px < self.x.value() + self.w.value() + c
            && py >= self.y.value() - c
            && py < self.y.value() + self.h.value() + c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_vs_excludes() {
        let c = Obstacle::chimney(
            Meters::new(2.0),
            Meters::new(2.0),
            Meters::new(1.0),
            Meters::new(1.0),
            Meters::new(1.2),
        );
        assert!(c.covers(2.5, 2.5));
        assert!(!c.covers(1.9, 2.5));
        // Clearance of 20 cm around the footprint.
        assert!(c.excludes(1.9, 2.5));
        assert!(!c.excludes(1.7, 2.5));
    }

    #[test]
    fn antenna_has_no_extra_clearance() {
        let a = Obstacle::antenna(Meters::new(1.0), Meters::new(1.0), Meters::new(3.0));
        assert!(a.excludes(1.1, 1.1));
        assert!(!a.excludes(0.95, 1.1));
    }

    #[test]
    #[should_panic(expected = "height")]
    fn zero_height_rejected() {
        let _ = Obstacle::new(
            ObstacleKind::Chimney,
            Meters::ZERO,
            Meters::ZERO,
            Meters::new(1.0),
            Meters::new(1.0),
            Meters::ZERO,
            Meters::ZERO,
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(ObstacleKind::PipeRun.to_string(), "pipe run");
    }
}
