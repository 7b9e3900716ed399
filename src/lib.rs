//! **pvfloorplan** — GIS-based optimal photovoltaic panel floorplanning.
//!
//! A full reproduction of *Vinco et al., "GIS-Based Optimal Photovoltaic
//! Panel Floorplanning for Residential Installations", DATE 2018*: given
//! per-cell irradiance/temperature traces derived from a Digital Surface
//! Model, place `N` PV modules on a roof grid — individually and possibly
//! irregularly — so that the yearly extracted energy of the series/parallel
//! panel is maximized.
//!
//! The workspace is organized bottom-up; this crate re-exports the public
//! API of every layer:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`units`] | physical-quantity newtypes (W/m², °C, V, A, Wh, m, deg) |
//! | [`geom`] | grids, masks, polygons, module footprints, placements |
//! | [`gis`] | DSM synthesis, solar geometry, shadows, clear-sky + weather, per-cell datasets |
//! | [`model`] | PV module electrical models, series/parallel aggregation, MPPT, wiring |
//! | [`floorplan`] | suitability metric, greedy placement, baselines, energy evaluation |
//!
//! # Quickstart
//!
//! ```
//! use pvfloorplan::prelude::*;
//!
//! // 1. Describe the roof: 10 x 5 m, 26 deg tilt, south-facing, a chimney.
//! let roof = RoofBuilder::new(Meters::new(10.0), Meters::new(5.0))
//!     .tilt(Degrees::new(26.0))
//!     .azimuth(Degrees::new(180.0))
//!     .obstacle(Obstacle::chimney(Meters::new(4.0), Meters::new(1.0),
//!                                 Meters::new(0.8), Meters::new(0.8),
//!                                 Meters::new(1.8)))
//!     .build();
//!
//! // 2. Extract per-cell irradiance/temperature traces (4 simulated days
//! //    at hourly steps here; use `SimulationClock::paper()` for the full
//! //    year at 15-minute resolution).
//! let clock = SimulationClock::days_at_minutes(4, 60);
//! let data = SolarExtractor::new(Site::turin(), clock).seed(42).extract(&roof);
//!
//! // 3. Place 2 strings of 2 modules and evaluate the yearly energy.
//! let config = FloorplanConfig::paper(Topology::new(2, 2)?)?;
//! let plan = greedy_placement(&data, &config)?;
//! let report = EnergyEvaluator::new(&config).evaluate(&data, &plan)?;
//! assert!(report.energy.as_wh() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every regenerated table and figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Physical-quantity newtypes ([`pv_units`]).
pub mod units {
    pub use pv_units::*;
}

/// Deterministic parallel execution ([`pv_runtime`]).
pub mod runtime {
    pub use pv_runtime::*;
}

/// Grid geometry substrate ([`pv_geom`]).
pub mod geom {
    pub use pv_geom::*;
}

/// GIS solar-data extraction ([`pv_gis`]).
pub mod gis {
    pub use pv_gis::*;
}

/// PV electrical models ([`pv_model`]).
pub mod model {
    pub use pv_model::*;
}

/// The floorplanning core ([`pv_floorplan`]).
pub mod floorplan {
    pub use pv_floorplan::*;
}

/// Offline JSON reader/writer ([`pv_json`]).
pub mod json {
    pub use pv_json::*;
}

/// Observability: trace spans, mergeable histograms, exposition
/// ([`pv_obs`]).
pub mod obs {
    pub use pv_obs::*;
}

/// Placement-as-a-service subsystem ([`pv_server`]).
pub mod server {
    pub use pv_server::*;
}

/// Crash-safe persistent site-state snapshots ([`pv_store`]).
pub mod store {
    pub use pv_store::*;
}

/// One-stop imports for typical use.
pub mod prelude {
    pub use pv_floorplan::{
        greedy_placement, traditional_placement, EnergyEvaluator, EnergyReport, EvaluationContext,
        FloorplanConfig, FloorplanResult, SuitabilityMap, TraceMemo,
    };
    pub use pv_geom::{CellCoord, CellMask, Footprint, Grid, GridDims, Placement, Polygon};
    pub use pv_gis::{
        paper_roofs, CorpusPreset, Obstacle, PaperRoof, RoofBuilder, RoofScenario, ScenarioCorpus,
        ScenarioSpec, Site, SiteScenario, SolarDataset, SolarExtractor, WeatherGenerator,
    };
    pub use pv_model::{
        panel_step, EmpiricalModule, ModuleModel, SingleDiodeModule, Topology, WiringSpec,
    };
    pub use pv_runtime::Runtime;
    pub use pv_units::{
        Amperes, Celsius, Degrees, Irradiance, Meters, SimulationClock, Volts, WattHours, Watts,
    };
}
