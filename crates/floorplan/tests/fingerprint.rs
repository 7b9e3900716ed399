//! Cross-version pin of the paper pipeline's numeric output.
//!
//! One FNV-1a hash over everything the extraction and suitability stages
//! produce for the three paper roofs on a short clock: the bit-packed
//! shadow table, the per-cell sky-view factors, and the suitability
//! scores and irradiance percentiles. The constant was captured before
//! the row-wise shadow kernel and the word-column suitability kernel
//! replaced the per-cell loops, so a kernel change that moves a single
//! bit fails here, whatever the thread count.

use pv_floorplan::{FloorplanConfig, SuitabilityMap};
use pv_gis::{paper_roofs, Site, SolarExtractor};
use pv_model::Topology;
use pv_runtime::Runtime;
use pv_units::SimulationClock;

/// The pinned hash (see the module docs for what it covers).
const PAPER_FINGERPRINT: u64 = 0x758B_0F1F_8A26_D18F;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn paper_fingerprint(threads: usize) -> u64 {
    let clock = SimulationClock::days_at_minutes(4, 60);
    let config = FloorplanConfig::paper(Topology::new(8, 2).unwrap()).unwrap();
    let mut h = Fnv::new();
    for scenario in paper_roofs() {
        let dataset = SolarExtractor::new(Site::turin(), clock)
            .seed(2018)
            .horizon_sectors(64)
            .runtime(Runtime::with_threads(threads))
            .extract(&scenario.dsm);
        for word in dataset.shadow_row_data() {
            h.bytes(&word.to_le_bytes());
        }
        for svf in dataset.sky_view_factors() {
            h.bytes(&svf.to_bits().to_le_bytes());
        }
        let map = SuitabilityMap::compute(&dataset, &config);
        for v in map
            .scores()
            .iter()
            .chain(map.irradiance_percentile().iter())
        {
            h.bytes(&v.to_bits().to_le_bytes());
        }
    }
    h.0
}

#[test]
fn paper_pipeline_bits_are_pinned() {
    for threads in [1usize, 3] {
        assert_eq!(
            paper_fingerprint(threads),
            PAPER_FINGERPRINT,
            "{threads} thread(s): the paper pipeline's output bits moved"
        );
    }
}
