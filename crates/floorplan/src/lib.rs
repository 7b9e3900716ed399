//! GIS-based optimal PV panel floorplanning — the paper's core contribution.
//!
//! Given per-cell irradiance/temperature traces (a
//! [`SolarDataset`](pv_gis::SolarDataset) from the `pv-gis` substrate), a
//! module model and an `m × n` series/parallel topology, this crate places
//! `N = m·n` modules on the roof grid to maximize yearly extracted energy:
//!
//! - [`SuitabilityMap`] — the paper's ranking metric: 75th percentile of
//!   `G` per cell with a temperature correction factor (Sec. III-C);
//! - [`greedy_placement`] — the paper's greedy algorithm (Fig. 5):
//!   suitability-sorted candidates, series-first enumeration, distance
//!   threshold, wiring tie-break, covered-cell removal;
//!   [`greedy_placement_with_map`] runs it on a caller's map;
//! - [`traditional_placement`] — the compact baseline of Sec. V: the best
//!   contiguous block by the same suitability information;
//! - [`EnergyEvaluator`] — yearly-energy evaluation of any placement with
//!   the series/parallel bottleneck equations and wiring RI² losses;
//! - [`optimal_placement`] / [`anneal_with_memo`] — an exhaustive
//!   optimum for tiny instances, its candidates traced in one sweep over
//!   the roof, and a simulated-annealing refiner on a caller's
//!   [`TraceMemo`] (extensions used for the A3 ablation), each on a
//!   caller-chosen runtime; [`Placer::place_with_memo`] dispatches to
//!   them by name, and [`PlacerOptions`] holds their knobs (anneal
//!   iterations and seed, exact node budget) with the one set of defaults;
//! - [`fit_topology`] — the first [`TOPOLOGY_LADDER`] entry whose greedy
//!   placement fits a site, with that plan (greedy's answer, anneal's start);
//! - [`render`] — ASCII / PGM rendering of suitability maps and placements
//!   (Figs. 6-7).
//!
//! # Example
//!
//! ```
//! use pv_floorplan::{FloorplanConfig, greedy_placement, EnergyEvaluator};
//! use pv_gis::{RoofBuilder, SolarExtractor, Site};
//! use pv_model::Topology;
//! use pv_units::{Meters, SimulationClock};
//!
//! let roof = RoofBuilder::new(Meters::new(10.0), Meters::new(4.0)).build();
//! let clock = SimulationClock::days_at_minutes(4, 60);
//! let data = SolarExtractor::new(Site::turin(), clock).seed(7).extract(&roof);
//! let config = FloorplanConfig::paper(Topology::new(2, 2)?)?;
//! let plan = greedy_placement(&data, &config)?;
//! assert_eq!(plan.placement.len(), 4);
//! let report = EnergyEvaluator::new(&config).evaluate(&data, &plan)?;
//! assert!(report.energy.as_wh() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anneal;
mod config;
mod error;
mod evaluate;
pub mod exact;
mod greedy;
mod placer;
pub mod render;
mod report;
mod suitability;
mod traditional;

pub use anneal::anneal_with_memo;
pub use config::FloorplanConfig;
pub use error::FloorplanError;
pub use evaluate::{EnergyEvaluator, EnergyReport, EvaluationContext, TraceMemo};
pub use exact::optimal_placement;
pub use greedy::{greedy_placement, greedy_placement_with_map, FloorplanResult};
pub use placer::{fit_topology, Placer, PlacerOptions, TOPOLOGY_LADDER};
pub use report::{ComparisonRow, Table1Report};
pub use suitability::SuitabilityMap;
pub use traditional::{traditional_placement, traditional_placement_with_map};
