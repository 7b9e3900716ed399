//! Property-based tests for the procedural scenario generator: every
//! generated scenario must satisfy the site invariants the rest of the
//! pipeline assumes, and corpus generation must be byte-reproducible.

use proptest::prelude::*;
use pv_gis::synth::{ScenarioSpec, LATITUDE_BANDS};
use pv_gis::ScenarioCorpus;
use pv_units::SimulationClock;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any `(corpus_seed, index)` draw yields a scenario satisfying the
    /// site invariants: parameters inside their documented ranges, every
    /// obstacle footprint inside the roof rectangle, at least one
    /// placeable cell, and a DSM that assembles into a `SolarDataset`
    /// (`SolarDataset::try_from_parts` runs inside extraction and checks
    /// all its own length/consistency invariants).
    #[test]
    fn generated_scenarios_satisfy_site_invariants(corpus_seed in 0u64..1_000_000, index in 0u32..512) {
        let spec = ScenarioSpec::generate(corpus_seed, index);
        prop_assert!((20.0..=60.0).contains(&spec.latitude_deg), "latitude {}", spec.latitude_deg);
        prop_assert!(LATITUDE_BANDS.iter().any(|&(lo, hi)| (lo..=hi).contains(&spec.latitude_deg)));
        let (tilt_lo, tilt_hi) = spec.archetype.tilt_range();
        prop_assert!((tilt_lo..tilt_hi + 0.051).contains(&spec.tilt_deg));
        prop_assert!((0.0..=1.0).contains(&spec.obstacle_density));
        prop_assert!(spec.horizon_class < 3);

        let scenario = spec.build();
        // The keep-clear reserve guarantees placeable cells survive any
        // obstacle draw.
        prop_assert!(scenario.dsm.valid().count() > 0, "{} has no placeable cells", scenario.name);
        for o in scenario.dsm.obstacles() {
            let (x, y) = o.origin();
            let (w, h) = o.size();
            prop_assert!(x.value() >= 0.0 && y.value() >= 0.0);
            prop_assert!(x.value() + w.value() <= spec.width_m + 1e-9,
                "{}: obstacle exceeds width", scenario.name);
            prop_assert!(y.value() + h.value() <= spec.depth_m + 1e-9,
                "{}: obstacle exceeds depth", scenario.name);
        }

        // Extraction accepts the scenario end-to-end (it panics when
        // SolarDataset::try_from_parts finds an inconsistency) and the
        // site actually sees the sun.
        // 240-minute steps sample local noon — at 60°N in January the sun
        // clears the horizon only around midday.
        let clock = SimulationClock::days_at_minutes(1, 240);
        let dataset = scenario.extractor(clock).horizon_sectors(8).extract(&scenario.dsm);
        prop_assert_eq!(dataset.dims(), scenario.dsm.dims());
        prop_assert_eq!(dataset.valid().count(), scenario.dsm.valid().count());
        let lit = dataset.dims().iter().any(|c| dataset.insolation(c) > 0.0);
        prop_assert!(lit, "{}: no cell ever receives irradiance", scenario.name);
    }

    /// Spec strings round-trip exactly for any draw, and every generated
    /// spec passes the parser's range checks — so no corpus or benchmark
    /// site is refused by a server.
    #[test]
    fn spec_string_round_trips(corpus_seed in any::<u64>(), index in any::<u32>()) {
        let spec = ScenarioSpec::generate(corpus_seed, index);
        let text = spec.to_spec_string();
        prop_assert_eq!(ScenarioSpec::parse_spec_string(&text), Ok(spec));
    }
}

/// The same seed yields a byte-identical corpus: identical specs, heights,
/// valid masks and cell normals.
#[test]
fn same_seed_yields_byte_identical_corpus() {
    let a = ScenarioCorpus::generate("bitrep", 424_242, 8);
    let b = ScenarioCorpus::generate("bitrep", 424_242, 8);
    assert_eq!(a.len(), b.len());
    for (sa, sb) in a.scenarios().iter().zip(b.scenarios()) {
        assert_eq!(sa.name, sb.name);
        assert_eq!(sa.spec, sb.spec);
        assert_eq!(sa.dsm.dims(), sb.dsm.dims());
        assert_eq!(sa.dsm.valid().count(), sb.dsm.valid().count());
        for c in sa.dsm.dims().iter() {
            assert_eq!(
                sa.dsm.heights()[c].to_bits(),
                sb.dsm.heights()[c].to_bits(),
                "{}: height at {c:?}",
                sa.name
            );
            assert_eq!(sa.dsm.valid().is_set(c), sb.dsm.valid().is_set(c));
            let (na, nb) = (sa.dsm.cell_normal(c), sb.dsm.cell_normal(c));
            assert_eq!(na.map(f64::to_bits), nb.map(f64::to_bits));
        }
    }
    // ... and a different seed yields a different corpus.
    let c = ScenarioCorpus::generate("bitrep", 424_243, 8);
    assert_ne!(a.scenarios()[0].spec, c.scenarios()[0].spec);
}
