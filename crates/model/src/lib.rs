//! PV electrical models for GIS-based floorplanning.
//!
//! Implements everything the paper's Sec. III-B needs:
//!
//! - [`EmpiricalModule`] — the paper's datasheet-derived model of the
//!   Mitsubishi PV-MF165EB3: `P`, `V`, `I` as functions of irradiance `G`
//!   and ambient temperature `T`, with the `Tact = T + k·G` roof-heating
//!   correction, plus the evaluator's chunked per-step sweep
//!   ([`EmpiricalModule::operating_points`]), pinned bit for bit to
//!   [`operating_point_sweep`];
//! - [`SingleDiodeModule`] — a physical single-diode I-V model (Fig. 2-(a)),
//!   used to regenerate I-V curves and as an alternative, finer-grained
//!   [`ModuleModel`];
//! - [`Topology`] / [`panel_output`] — the `m × n` series/parallel
//!   aggregation with the min-voltage/min-current bottleneck equations;
//! - [`mppt`] — a perturb-and-observe maximum-power-point tracker;
//! - [`WiringSpec`] — the Fig. 4 wiring-overhead characterization
//!   (Manhattan displacement minus default connector length, RI² loss,
//!   cable cost).
//!
//! # Example
//!
//! ```
//! use pv_model::{EmpiricalModule, ModuleModel, Topology, panel_output};
//! use pv_units::{Celsius, Irradiance};
//!
//! let module = EmpiricalModule::pv_mf165eb3();
//! let topology = Topology::new(8, 2)?; // 2 strings of 8 in series
//! // One weak module (shaded) in string 0 bottlenecks that string.
//! let mut outputs = Vec::new();
//! for i in 0..16 {
//!     let g = if i == 3 { 200.0 } else { 800.0 };
//!     let g = Irradiance::from_w_per_m2(g);
//!     outputs.push(module.operating_point(g, Celsius::new(20.0)));
//! }
//! let panel = panel_output(&outputs, topology)?;
//! assert!(panel.power.as_watts() > 0.0);
//! # Ok::<(), pv_model::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod error;
mod iv;
mod module;
pub mod mppt;
mod wiring;

pub use array::{panel_output, PanelOutput, Topology};
pub use error::ModelError;
pub use iv::{operating_point_sweep, IvCurve, IvPoint, SingleDiodeModule};
pub use module::{EmpiricalModule, ModuleModel, OperatingPoint};
pub use wiring::{string_wiring_overhead, WiringOverhead, WiringSpec};
