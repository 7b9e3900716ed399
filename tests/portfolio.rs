//! End-to-end acceptance test of the scenario corpus + portfolio runner:
//! the `diverse64` preset runs to completion through `run_portfolio`, its
//! scenario results are bit-identical at 1 and 4 threads, and the corpus
//! actually is diverse (all four roof archetypes at low/mid/high
//! latitudes).
//!
//! Runs at a deliberately tiny clock/horizon resolution so the full
//! 64-scenario sweep stays cheap in debug builds; determinism and
//! coverage are resolution-independent.
//!
//! The records are also pinned across versions: one FNV-1a hash over
//! every `deterministic_line`, captured before the portfolio runner and
//! the placement service were folded onto one site-solve path. A change
//! that moves a single bit of any scenario's topology or energies fails
//! here.
//!
//! Finally, the two front ends of the site solve must not fork: the
//! placement service answers a generated site with the same topology and
//! greedy, anneal and exact energies the portfolio runner records for it,
//! and refuses the exact search where the record has no exact energy.

use pv_bench::portfolio::{run_portfolio, run_scenario, PortfolioRecord};
use pvfloorplan::gis::synth::LATITUDE_BANDS;
use pvfloorplan::json::{self, JsonValue};
use pvfloorplan::prelude::*;
use pvfloorplan::server::{PlacementService, ServiceConfig};
use std::collections::BTreeSet;

/// The pinned hash of the `diverse64` records at [`tiny_config`].
const DIVERSE64_FINGERPRINT: u64 = 0x3D32_BE4D_F8E5_4A96;

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The tiny service settings with the pin's shorter chains and exact budget.
fn tiny_config() -> ServiceConfig {
    ServiceConfig {
        anneal_iterations: 4,
        exact_budget: 200,
        ..ServiceConfig::tiny()
    }
}

#[test]
fn diverse64_is_thread_count_invariant_and_diverse() {
    let corpus = ScenarioCorpus::preset(CorpusPreset::Diverse64);
    assert_eq!(corpus.len(), 64);

    let seq = run_portfolio(&corpus, &tiny_config(), Runtime::with_threads(1));
    let par = run_portfolio(&corpus, &tiny_config(), Runtime::with_threads(4));
    assert_eq!(seq.len(), 64, "diverse64 must run to completion");

    // Scenario results (everything but wall-clock) are bit-identical on
    // any thread count — the workspace determinism guarantee extended to
    // whole-portfolio scale.
    let lines = |rs: &[PortfolioRecord]| {
        rs.iter()
            .map(PortfolioRecord::deterministic_line)
            .collect::<Vec<_>>()
    };
    assert_eq!(lines(&seq), lines(&par));
    let fingerprint = lines(&seq).iter().fold(0xcbf2_9ce4_8422_2325, |h, line| {
        fnv1a(h, format!("{line}\n").as_bytes())
    });
    assert_eq!(
        fingerprint, DIVERSE64_FINGERPRINT,
        "diverse64 records moved: {fingerprint:#018X}"
    );

    // Every scenario produced a real site and a real placement score.
    for record in &seq {
        assert!(record.ng > 0, "{}: no placeable cells", record.scenario);
        assert!(
            record.series * record.strings > 0,
            "{}: topology ladder found no fit",
            record.scenario
        );
        assert!(record.greedy_wh > 0.0, "{}", record.scenario);
        assert!(
            record.anneal_wh >= record.greedy_wh - 1e-9,
            "{}: anneal regressed below its greedy start",
            record.scenario
        );
    }

    // Diversity floor: at least 4 distinct archetypes × 3 latitude bands.
    let mut archetypes = BTreeSet::new();
    let mut pairs = BTreeSet::new();
    for record in &seq {
        let band = LATITUDE_BANDS
            .iter()
            .position(|&(lo, hi)| (lo..=hi).contains(&record.latitude_deg))
            .expect("latitude inside a band");
        archetypes.insert(record.archetype.clone());
        pairs.insert((record.archetype.clone(), band));
    }
    assert!(archetypes.len() >= 4, "archetypes seen: {archetypes:?}");
    assert_eq!(pairs.len(), 12, "4 archetypes x 3 bands: {pairs:?}");
}

#[test]
fn service_and_portfolio_agree_on_the_first_diverse64_sites() {
    let corpus = ScenarioCorpus::preset(CorpusPreset::Diverse64);
    // The smoke ladder fits topologies whose exact search is over budget
    // on every one of these sites; capped at one module, the search fits
    // on some of them.
    let single = ServiceConfig {
        max_modules: 1,
        ..ServiceConfig::smoke()
    };
    let mut exact_agreements = 0;
    for config in [ServiceConfig::smoke(), single] {
        let service = PlacementService::new(config);
        for scenario in &corpus.scenarios()[..16] {
            let record = run_scenario(scenario, &config);
            let spec = scenario
                .spec
                .as_ref()
                .expect("diverse64 sites are generated");
            let placers = [
                ("greedy", Some(record.greedy_wh)),
                ("anneal", Some(record.anneal_wh)),
                ("exact", record.exact_wh),
            ];
            for (placer, wh) in placers {
                let body = format!(
                    r#"{{"spec": "{}", "placer": "{placer}"}}"#,
                    spec.to_spec_string()
                );
                let what = format!("{} {placer} (max {})", record.scenario, config.max_modules);
                let answer = service.place(&body);
                // The record has no exact energy exactly where the service
                // refuses the search.
                let Some(wh) = wh else {
                    let (status, _) = answer.expect_err(&what);
                    assert_eq!(status, 422, "{what}");
                    continue;
                };
                let (response, _) = answer.unwrap_or_else(|e| panic!("{what}: {e:?}"));
                let response = json::parse(&response).expect("response is JSON");
                let field = |key: &str| response.get(key).and_then(JsonValue::as_number);
                assert_eq!(field("series"), Some(record.series as f64), "{what}");
                assert_eq!(field("strings"), Some(record.strings as f64), "{what}");
                assert_eq!(field("energy_wh"), Some(json::rounded(wh, 3)), "{what}");
                exact_agreements += usize::from(placer == "exact");
            }
        }
    }
    assert!(exact_agreements > 0, "no site compared an exact energy");
}
