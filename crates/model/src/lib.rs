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
//! - [`Topology`] / [`panel_step`] — the `m × n` series/parallel array
//!   rule: one time step's panel power from per-string voltage sums and
//!   bottleneck currents, and the strings' RI² wiring loss capped at it.
//!   The evaluator's incremental and from-scratch folds both call it;
//! - [`mppt`] — a perturb-and-observe maximum-power-point tracker;
//! - [`WiringSpec`] — the Fig. 4 wiring-overhead characterization
//!   (Manhattan displacement minus default connector length, RI² loss,
//!   cable cost).
//!
//! # Example
//!
//! ```
//! use pv_model::{panel_step, EmpiricalModule, ModuleModel, WiringSpec};
//! use pv_units::{Amperes, Celsius, Irradiance, Meters, Volts};
//!
//! let module = EmpiricalModule::pv_mf165eb3();
//! let at = |g: f64| module.operating_point(Irradiance::from_w_per_m2(g), Celsius::new(20.0));
//! // 2 strings of 8 in series; one weak (shaded) module in string 0
//! // bottlenecks that string's current.
//! let strings = (0..2).map(|j| {
//!     let ops: Vec<_> = (0..8)
//!         .map(|i| at(if (j, i) == (0, 3) { 200.0 } else { 800.0 }))
//!         .collect();
//!     let v = ops.iter().map(|p| p.voltage.value()).sum();
//!     let i = ops.iter().map(|p| p.current.value()).fold(f64::INFINITY, f64::min);
//!     (Volts::new(v), Amperes::new(i), Meters::ZERO)
//! });
//! let (power, loss) = panel_step(strings, &WiringSpec::awg10());
//! let sum_of_modules = 15.0 * at(800.0).power().as_watts() + at(200.0).power().as_watts();
//! assert!(power.as_watts() > 0.0 && power.as_watts() < sum_of_modules);
//! assert_eq!(loss.as_watts(), 0.0); // no extra cable
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod error;
mod iv;
mod module;
pub mod mppt;
mod wiring;

pub use array::{panel_step, Topology};
pub use error::ModelError;
pub use iv::{operating_point_sweep, IvCurve, IvPoint, SingleDiodeModule};
pub use module::{EmpiricalModule, ModuleModel, OperatingPoint};
pub use wiring::{string_wiring_overhead, WiringSpec};
