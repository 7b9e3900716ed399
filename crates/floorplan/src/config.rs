//! Floorplanning configuration.

use crate::error::FloorplanError;
use pv_geom::Footprint;
use pv_model::{EmpiricalModule, Topology};
use pv_units::Meters;

/// Full configuration of a floorplanning run: module, topology, metric and
/// algorithm knobs.
///
/// [`FloorplanConfig::paper`] reproduces the paper's setup exactly
/// (PV-MF165EB3 on a 20 cm grid, 75th percentile, distance threshold
/// factor 2, series-first enumeration); the setters expose each knob for
/// the ablation studies. The wiring is not a knob: every configuration is
/// scored with AWG 10 cable ([`WiringSpec::awg10`](pv_model::WiringSpec::awg10)),
/// which the [`EnergyEvaluator`](crate::EnergyEvaluator) applies.
///
/// ```
/// use pv_floorplan::FloorplanConfig;
/// use pv_model::Topology;
/// let config = FloorplanConfig::paper(Topology::new(8, 2)?)?;
/// assert_eq!(config.topology().num_modules(), 16);
/// assert_eq!(config.percentile(), 0.75);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct FloorplanConfig {
    module: EmpiricalModule,
    footprint: Footprint,
    topology: Topology,
    percentile: f64,
    distance_threshold_factor: Option<f64>,
    series_first: bool,
    temperature_correction: bool,
    tie_tolerance: f64,
}

impl FloorplanConfig {
    /// The paper's configuration for a given topology: PV-MF165EB3 modules
    /// on a 20 cm grid, AWG 10 wiring, 75th-percentile suitability with
    /// temperature correction, distance-threshold factor 2, series-first
    /// enumeration.
    ///
    /// # Errors
    ///
    /// Returns a geometry error if the module does not align to the grid
    /// (cannot happen for the built-in module and pitch).
    pub fn paper(topology: Topology) -> Result<Self, FloorplanError> {
        Self::new(EmpiricalModule::pv_mf165eb3(), Meters::new(0.2), topology)
    }

    /// A configuration for an arbitrary module on an arbitrary grid pitch,
    /// with the paper's metric and algorithm defaults and AWG 10 wiring.
    ///
    /// # Errors
    ///
    /// Returns [`FloorplanError::Geometry`] when the module's dimensions
    /// are not integer multiples of `pitch`.
    pub fn new(
        module: EmpiricalModule,
        pitch: Meters,
        topology: Topology,
    ) -> Result<Self, FloorplanError> {
        let footprint = Footprint::from_module_size(module.width(), module.height(), pitch)?;
        Ok(Self {
            module,
            footprint,
            topology,
            percentile: 0.75,
            distance_threshold_factor: Some(2.0),
            series_first: true,
            temperature_correction: true,
            tie_tolerance: 0.04,
        })
    }

    /// The module's electrical model.
    #[inline]
    #[must_use]
    pub const fn module(&self) -> &EmpiricalModule {
        &self.module
    }

    /// The module's grid footprint.
    #[inline]
    #[must_use]
    pub const fn footprint(&self) -> Footprint {
        self.footprint
    }

    /// The series/parallel topology.
    #[inline]
    #[must_use]
    pub const fn topology(&self) -> Topology {
        self.topology
    }

    /// The suitability percentile (paper: 0.75).
    #[inline]
    #[must_use]
    pub const fn percentile(&self) -> f64 {
        self.percentile
    }

    /// The distance-threshold factor (paper: 2 × average distance of the
    /// already-placed modules), or `None` when the filter is disabled.
    #[inline]
    #[must_use]
    pub const fn distance_threshold_factor(&self) -> Option<f64> {
        self.distance_threshold_factor
    }

    /// Whether modules are enumerated series-first (paper: yes).
    #[inline]
    #[must_use]
    pub const fn series_first(&self) -> bool {
        self.series_first
    }

    /// Whether the suitability metric applies the `f(T)` correction
    /// (paper: yes).
    #[inline]
    #[must_use]
    pub const fn temperature_correction(&self) -> bool {
        self.temperature_correction
    }

    /// Overrides the suitability percentile (ablation A1).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < percentile < 1`.
    #[must_use]
    pub fn with_percentile(mut self, percentile: f64) -> Self {
        assert!(
            percentile > 0.0 && percentile < 1.0,
            "percentile must be in (0, 1)"
        );
        self.percentile = percentile;
        self
    }

    /// Overrides or disables the distance threshold (ablation A2).
    ///
    /// # Panics
    ///
    /// Panics if a non-positive factor is supplied.
    #[must_use]
    pub fn with_distance_threshold(mut self, factor: Option<f64>) -> Self {
        if let Some(f) = factor {
            assert!(f > 0.0, "threshold factor must be positive");
        }
        self.distance_threshold_factor = factor;
        self
    }

    /// Enables/disables series-first enumeration (ablation A2).
    #[must_use]
    pub fn with_series_first(mut self, series_first: bool) -> Self {
        self.series_first = series_first;
        self
    }

    /// Enables/disables the temperature correction factor (ablation A1).
    #[must_use]
    pub fn with_temperature_correction(mut self, on: bool) -> Self {
        self.temperature_correction = on;
        self
    }

    /// Relative suitability window within which candidates count as tied
    /// and the wiring tie-break picks among them (default 4%).
    ///
    /// The paper breaks ties among "identical values of suitability"; with
    /// continuous synthetic scores exact ties never occur, so a small
    /// relative window restores the intended behaviour — without it the
    /// greedy chases sub-percent suitability differences across the whole
    /// roof and pays for them in cable.
    #[inline]
    #[must_use]
    pub const fn tie_tolerance(&self) -> f64 {
        self.tie_tolerance
    }

    /// Overrides the tie window (ablation A2).
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= tolerance < 1`.
    #[must_use]
    pub fn with_tie_tolerance(mut self, tolerance: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&tolerance),
            "tie tolerance must be in [0, 1)"
        );
        self.tie_tolerance = tolerance;
        self
    }

    /// Rotates every module by 90° (portrait instead of landscape) — an
    /// extension beyond the paper, which fixes the orientation. On roofs
    /// whose bright fragments are tall and narrow, portrait modules can
    /// pack them better; compare both orientations and keep the winner.
    ///
    /// ```
    /// use pv_floorplan::FloorplanConfig;
    /// use pv_geom::Orientation;
    /// use pv_model::Topology;
    /// let portrait = FloorplanConfig::paper(Topology::new(8, 2)?)?.with_portrait_modules();
    /// assert_eq!(portrait.footprint().orientation(), Orientation::Portrait);
    /// assert_eq!(portrait.footprint().width_cells(), 4);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[must_use]
    pub fn with_portrait_modules(mut self) -> Self {
        if self.footprint.orientation() == pv_geom::Orientation::Landscape {
            self.footprint = self.footprint.rotated();
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = FloorplanConfig::paper(Topology::new(8, 4).unwrap()).unwrap();
        assert_eq!(c.footprint().width_cells(), 8);
        assert_eq!(c.footprint().height_cells(), 4);
        assert_eq!(c.percentile(), 0.75);
        assert_eq!(c.distance_threshold_factor(), Some(2.0));
        assert!(c.series_first());
        assert!(c.temperature_correction());
    }

    #[test]
    fn misaligned_module_is_rejected() {
        let module = EmpiricalModule::custom(
            "odd",
            Meters::new(1.55), // not a multiple of 0.2
            Meters::new(0.8),
            pv_units::Watts::new(200.0),
            pv_units::Volts::new(30.0),
            pv_units::Volts::new(37.0),
            pv_units::Amperes::new(8.0),
        );
        let err = FloorplanConfig::new(module, Meters::new(0.2), Topology::new(4, 2).unwrap());
        assert!(matches!(err, Err(FloorplanError::Geometry(_))));
    }

    #[test]
    fn ablation_setters() {
        let c = FloorplanConfig::paper(Topology::new(4, 2).unwrap())
            .unwrap()
            .with_percentile(0.5)
            .with_distance_threshold(None)
            .with_series_first(false)
            .with_temperature_correction(false);
        assert_eq!(c.percentile(), 0.5);
        assert_eq!(c.distance_threshold_factor(), None);
        assert!(!c.series_first());
        assert!(!c.temperature_correction());
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn bad_percentile_rejected() {
        let _ = FloorplanConfig::paper(Topology::new(4, 2).unwrap())
            .unwrap()
            .with_percentile(1.5);
    }
}
