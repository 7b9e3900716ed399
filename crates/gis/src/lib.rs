//! GIS-based solar-data extraction for PV floorplanning.
//!
//! This crate is a from-scratch, fully synthetic replacement for the
//! software infrastructure the paper relies on (its reference \[15\]): the
//! pipeline that turns a high-resolution Digital Surface Model (DSM) plus
//! weather data into per-grid-cell irradiance and temperature traces at
//! 15-minute resolution over a year.
//!
//! # Pipeline (paper Sec. IV)
//!
//! 1. [`Dsm`] — a raster of obstacle heights over the roof plane, built
//!    from a parametric [`RoofBuilder`] with [`Obstacle`]s (chimneys,
//!    dormers, pipe runs, off-roof trees);
//! 2. [`HorizonMap`] — per-cell horizon elevation angles in azimuth sectors,
//!    precomputed once by ray-marching the DSM; a per-time-step shadow test
//!    is then O(1);
//! 3. [`SolarPosition`] — sun elevation/azimuth from latitude, day and hour;
//! 4. [`ClearSky`] — ESRA clear-sky beam/diffuse with Linke turbidity;
//! 5. [`WeatherGenerator`] — a seeded Markov-chain cloud model and a
//!    seasonal/diurnal ambient-temperature model producing per-step
//!    clearness indices;
//! 6. [`decomposition`] — Erbs-style splitting of global horizontal
//!    irradiance into beam and diffuse components;
//! 7. [`transposition`] — beam/diffuse/ground-reflected components on the
//!    tilted roof plane;
//! 8. [`SolarDataset`] — the assembled per-cell, per-step irradiance and
//!    temperature database consumed by the floorplanner.
//!
//! Beyond the paper's three roofs, the [`synth`] module procedurally
//! generates whole corpora of diverse sites ([`ScenarioCorpus`]) — seeded,
//! deterministic, and expressed through the same builder APIs — for
//! portfolio-scale evaluation.
//!
//! # Example
//!
//! ```
//! use pv_gis::{RoofBuilder, Obstacle, SolarExtractor, Site};
//! use pv_units::{Degrees, Meters, SimulationClock};
//!
//! // A 12 x 6 m lean-to roof with a chimney, simulated for 4 days.
//! let roof = RoofBuilder::new(Meters::new(12.0), Meters::new(6.0))
//!     .pitch(Meters::new(0.2))
//!     .tilt(Degrees::new(26.0))
//!     .azimuth(Degrees::new(195.0))
//!     .obstacle(Obstacle::chimney(Meters::new(5.0), Meters::new(2.0),
//!                                 Meters::new(0.8), Meters::new(0.8),
//!                                 Meters::new(1.5)))
//!     .build();
//! let site = Site::turin();
//! let clock = SimulationClock::days_at_minutes(4, 60);
//! let dataset = SolarExtractor::new(site, clock).seed(7).extract(&roof);
//! assert_eq!(dataset.num_steps(), 96);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod clearsky;
mod dataset;
pub mod decomposition;
mod dsm;
mod extract;
mod gather;
mod horizon;
pub mod lanes;
mod obstacle;
mod scenario;
mod site;
mod sunpos;
pub mod synth;
pub mod transposition;
mod weather;

pub use batch::IrradianceGroup;
pub use clearsky::ClearSky;
pub use dataset::{SolarDataset, StepConditions};
pub use dsm::{Dsm, RoofBuilder, RoofGeometry};
pub use extract::SolarExtractor;
pub use gather::{GatherScratch, SampleGather};
pub use horizon::HorizonMap;
pub use obstacle::{Obstacle, ObstacleKind};
pub use scenario::{paper_roofs, PaperRoof, RoofScenario};
pub use site::Site;
pub use sunpos::{solar_position, LocalSun, SolarPosition};
pub use synth::{CorpusPreset, ScenarioCorpus, ScenarioSpec, SiteScenario};
pub use weather::{SkyState, WeatherGenerator, WeatherSample};
