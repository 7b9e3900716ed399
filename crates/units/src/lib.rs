//! Physical-quantity newtypes shared across the `pvfloorplan` workspace.
//!
//! Every quantity that crosses a crate boundary in this workspace is wrapped
//! in a dedicated newtype ([`Irradiance`], [`Celsius`], [`Watts`], …) so that
//! the compiler rejects unit mix-ups such as passing a temperature where an
//! irradiance is expected — the classic failure mode of numerics-heavy EDA
//! code bases built on bare `f64`.
//!
//! The wrappers are zero-cost (`#[repr(transparent)]`, `Copy`) and implement
//! the arithmetic that is physically meaningful for each quantity:
//! same-unit addition/subtraction, scaling by dimensionless factors, and a
//! handful of dimensioned products (e.g. `Volts * Amperes -> Watts`,
//! `Watts * Hours -> WattHours`).
//!
//! # Example
//!
//! ```
//! use pv_units::{Irradiance, Celsius, Volts, Amperes};
//!
//! let g = Irradiance::from_w_per_m2(815.0);
//! let t = Celsius::new(24.5);
//! let p = Volts::new(24.0) * Amperes::new(6.5);
//! assert!(g.as_w_per_m2() > 800.0);
//! assert!(t.as_celsius() < 25.0);
//! assert_eq!(p.as_watts(), 156.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[macro_use]
mod macros;

mod angle;
mod electrical;
mod energy;
mod irradiance;
mod length;
mod temperature;
mod time;

pub use angle::{Degrees, Radians};
pub use electrical::{Amperes, Ohms, OhmsPerMeter, Volts};
pub use energy::{KilowattHours, MegawattHours, WattHours, Watts};
pub use irradiance::Irradiance;
pub use length::Meters;
pub use temperature::Celsius;
pub use time::{ClockError, Minutes, SimulationClock, TimeStep, MINUTES_PER_DAY, MINUTES_PER_YEAR};
