//! Crash-safe persistent site-state snapshots for the placement service.
//!
//! The extraction artifacts of a `pv_server` cache entry — the extracted
//! [`SolarDataset`] and its [`SuitabilityMap`] — are expensive to build
//! (full per-site solar extraction) and die with the process. This crate
//! makes them a durable, shareable artifact whose bytes are a pure
//! function of the site (spec, clock, horizon). The evaluator's
//! per-anchor trace memo is not persisted: it is derived data that the
//! first request on a site rebuilds.
//!
//! * [`snapshot`] — the compact, versioned, checksummed binary format:
//!   magic + format-version header, explicit little-endian encoding,
//!   length-prefixed sections (meta / dataset / suitability map) each
//!   carrying its own CRC-32 so damage is localized, and a whole-file
//!   trailer checksum.
//! * [`store`] — the on-disk [`SiteStore`]: crash-safe commits (`*.tmp`,
//!   flush + fsync, atomic rename — a partial write is invisible on
//!   restart), hydration that quarantines undecodable files
//!   (`*.quarantined`) instead of failing, and a bounded write-behind
//!   queue on a dedicated [`pv_runtime::WorkerPool`] worker.
//! * [`fault`] — a deterministic seeded fault-injection harness
//!   (truncate-at-N, flip-bit-K, torn-rename simulation, stale-version
//!   replay) backing the crate's robustness proptests.
//!
//! The contract, enforced by proptest (`tests/fault_prop.rs`) and by
//! pvlint rule R01 (no panicking constructs anywhere in this crate's
//! non-test code): **decoding untrusted bytes either round-trips
//! bit-identically or returns a structured [`StoreError`] — it never
//! panics and never returns wrong data.** A server pointed at a fully
//! corrupted store quarantines everything and degrades to cold
//! extraction, byte-identical to a store-less server.
//!
//! ```
//! use pv_store::{SiteSnapshot, SiteStore, SnapshotMeta};
//! use pv_floorplan::SuitabilityMap;
//! use pv_gis::{RoofBuilder, SolarExtractor, Site};
//! use pv_runtime::Runtime;
//! use pv_units::{Meters, SimulationClock};
//!
//! // Extract a site and snapshot its extraction artifacts.
//! let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0)).build();
//! let clock = SimulationClock::days_at_minutes(1, 240);
//! let dataset = SolarExtractor::new(Site::turin(), clock).seed(7).extract(&roof);
//! let map = SuitabilityMap::paper(&dataset, Runtime::sequential());
//!
//! let dir = std::env::temp_dir().join(format!("pvstore-doc-{}", std::process::id()));
//! let store = SiteStore::open(&dir)?;
//! let meta = SnapshotMeta {
//!     spec: "doc-site".into(),
//!     days: 1,
//!     step_minutes: 240,
//!     horizon_sectors: 16,
//! };
//! store.save(0xd0c, &meta, &dataset, &map)?;
//!
//! // A fresh store over the same directory hydrates it back — and a
//! // corrupted file would be quarantined here instead of panicking.
//! let restored = SiteStore::open(&dir)?.hydrate()?;
//! assert_eq!(restored.len(), 1);
//! assert_eq!(restored[0].meta, meta);
//! assert_eq!(restored[0].dataset.num_steps(), dataset.num_steps());
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`SolarDataset`]: pv_gis::SolarDataset
//! [`SuitabilityMap`]: pv_floorplan::SuitabilityMap

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod snapshot;
pub mod store;
mod wire;

pub use snapshot::{SiteSnapshot, SnapshotMeta, FORMAT_VERSION, MAGIC};
pub use store::{shard_dir, SiteStore, StoreCounters};
pub use wire::crc32;

use std::fmt;

/// Why a store operation failed. Decoding untrusted bytes yields only
/// [`Corrupt`](Self::Corrupt) or [`VersionSkew`](Self::VersionSkew);
/// [`Io`](Self::Io) is reserved for filesystem failures.
#[derive(Debug)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io(std::io::Error),
    /// The bytes are not a well-formed snapshot (truncated, bit-flipped,
    /// structurally inconsistent, or failing a checksum). The message
    /// names the first problem found, localized to a section where
    /// possible.
    Corrupt(String),
    /// The snapshot is well-formed but written by a different format
    /// version; re-extract (or upgrade) instead of decoding.
    VersionSkew {
        /// Version found in the file header.
        found: u32,
        /// The version this build reads and writes.
        supported: u32,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "store I/O error: {e}"),
            Self::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            Self::VersionSkew { found, supported } => {
                write!(
                    f,
                    "snapshot version skew: found v{found}, supported v{supported}"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}
