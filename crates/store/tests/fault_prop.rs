//! Fault-injection proptests: the robustness case for the snapshot format.
//!
//! Against a *real* snapshot (full extraction pipeline), every
//! seeded truncation / bit-flip / version-skew mutation must uphold the
//! dichotomy: decode round-trips bit-identically (only possible when the
//! mutation was an identity), or returns a structured error — never a
//! panic, never wrong data.

use proptest::prelude::*;
use pv_floorplan::{FloorplanConfig, SuitabilityMap};
use pv_gis::synth::ScenarioSpec;
use pv_model::Topology;
use pv_store::fault::{apply, write_torn_tmp, Fault, FaultGen};
use pv_store::{SiteSnapshot, SiteStore, SnapshotMeta, StoreError, FORMAT_VERSION};
use std::sync::OnceLock;

/// One real snapshot, built once: synthetic scenario 0 extracted at smoke
/// scale, suitability computed.
fn base_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let spec = ScenarioSpec::generate(2018, 0);
        let scenario = spec.build();
        let clock = pv_units::SimulationClock::days_at_minutes(2, 120);
        let dataset = scenario
            .extractor(clock)
            .horizon_sectors(16)
            .extract(&scenario.dsm);
        let config = FloorplanConfig::paper(Topology::new(2, 1).unwrap()).unwrap();
        let map = SuitabilityMap::compute(&dataset, &config);
        let snapshot = SiteSnapshot {
            meta: SnapshotMeta {
                spec: spec.to_spec_string(),
                days: 2,
                step_minutes: 120,
                horizon_sectors: 16,
            },
            dataset,
            map,
        };
        snapshot.encode()
    })
}

/// The dichotomy check shared by all cases.
fn assert_decode_dichotomy(original: &[u8], mutated: &[u8]) {
    match SiteSnapshot::decode(mutated) {
        Ok(decoded) => {
            // Accepting implies the bytes were untouched — decode never
            // returns data from a damaged file.
            assert_eq!(
                mutated, original,
                "decode accepted a mutated snapshot (CRC should have caught it)"
            );
            assert_eq!(decoded.encode(), original, "canonical re-encode differs");
        }
        Err(StoreError::Corrupt(msg)) => assert!(!msg.is_empty()),
        Err(StoreError::VersionSkew { supported, .. }) => {
            assert_eq!(supported, FORMAT_VERSION);
        }
        Err(StoreError::Io(e)) => panic!("byte-level decode cannot do I/O: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Seeded single faults drawn across all kinds.
    #[test]
    fn seeded_faults_never_panic_and_never_return_wrong_data(seed in 0u64..10_000) {
        let bytes = base_bytes();
        let mut gen = FaultGen::new(seed);
        let fault = gen.next_fault(bytes.len());
        assert_decode_dichotomy(bytes, &apply(bytes, fault));
    }

    /// Truncation at a dense sweep of offsets (proportional positions so
    /// every region — header, each section, trailer — gets hit).
    #[test]
    fn truncate_anywhere_is_structured(frac in 0.0f64..1.0) {
        let bytes = base_bytes();
        let n = ((bytes.len() as f64) * frac) as usize;
        let mutated = apply(bytes, Fault::TruncateAt(n));
        if n < bytes.len() {
            prop_assert!(SiteSnapshot::decode(&mutated).is_err());
        } else {
            prop_assert!(SiteSnapshot::decode(&mutated).is_ok());
        }
    }

    /// A single bit-flip anywhere must be rejected (CRC-32 detects all
    /// single-bit errors), except in the version field where it reports
    /// skew.
    #[test]
    fn flip_any_bit_is_rejected(bit_frac in 0.0f64..1.0) {
        let bytes = base_bytes();
        let bit = ((bytes.len() * 8) as f64 * bit_frac) as usize;
        let mutated = apply(bytes, Fault::FlipBit(bit));
        prop_assert!(mutated != *bytes);
        prop_assert!(SiteSnapshot::decode(&mutated).is_err());
    }

    /// Version-skew replay: any version other than the supported one is
    /// classified as skew, not corruption — the caller can distinguish
    /// "re-extract" from "damaged media".
    #[test]
    fn stale_version_replay_is_version_skew(v in 0u32..1000) {
        let bytes = base_bytes();
        let mutated = apply(bytes, Fault::StaleVersion(v));
        match SiteSnapshot::decode(&mutated) {
            Ok(_) => prop_assert_eq!(v, FORMAT_VERSION),
            Err(StoreError::VersionSkew { found, .. }) => prop_assert_eq!(found, v),
            Err(other) => prop_assert!(false, "expected VersionSkew, got {}", other),
        }
    }

    /// Composed damage (several faults in sequence) stays structured.
    #[test]
    fn composed_faults_stay_structured(seed in 0u64..10_000, n in 2usize..5) {
        let bytes = base_bytes();
        let mut gen = FaultGen::new(seed);
        let mut mutated = bytes.to_vec();
        for _ in 0..n {
            let fault = gen.next_fault(mutated.len());
            mutated = apply(&mutated, fault);
        }
        assert_decode_dichotomy(bytes, &mutated);
    }
}

/// Torn-rename simulation at the filesystem level: a `*.tmp` prefix of any
/// length is invisible to hydration, and a truncated *committed* file is
/// quarantined — in both cases the store keeps working.
#[test]
fn torn_writes_are_invisible_or_quarantined() {
    let bytes = base_bytes();
    let dir = std::env::temp_dir().join(format!("pvstore-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SiteStore::open(&dir).unwrap();

    // A good snapshot plus torn tmp files at various cut points.
    std::fs::write(store.path_for(1), bytes).unwrap();
    for (key, keep) in [(2u64, 0usize), (3, 12), (4, bytes.len() / 2)] {
        write_torn_tmp(&dir, key, bytes, keep).unwrap();
    }
    let hydrated = store.hydrate().unwrap();
    assert_eq!(hydrated.len(), 1, "only the committed snapshot is visible");
    assert_eq!(store.counters().quarantined(), 0);

    // A torn *committed* file (rename happened, content truncated — the
    // no-fsync failure mode) is quarantined on the next start.
    let torn = apply(bytes, Fault::TruncateAt(bytes.len() / 3));
    std::fs::write(store.path_for(9), &torn).unwrap();
    let store2 = SiteStore::open(&dir).unwrap();
    let hydrated = store2.hydrate().unwrap();
    assert_eq!(hydrated.len(), 1);
    assert_eq!(store2.counters().quarantined(), 1);
    assert!(dir
        .read_dir()
        .unwrap()
        .filter_map(Result::ok)
        .any(|e| e.file_name().to_string_lossy().ends_with(".quarantined")));

    let _ = std::fs::remove_dir_all(&dir);
}
