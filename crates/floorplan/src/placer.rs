//! A unified entry point over the three placers.
//!
//! A caller that dispatches on a placer's name — the `pv_server`
//! placement service, the portfolio runner, the A3 ablation — wants one
//! call that takes the placer, the shared warm [`TraceMemo`], and
//! deterministic tuning knobs, and returns the placement together with
//! its full [`EnergyReport`]. [`Placer::place_with_memo`] is that call.
//! [`PlacerOptions`] is the one home of those knobs and their defaults:
//! the anneal arm hands it straight to [`anneal_with_memo`], which reads
//! the iterations and seed, and the exact arm passes its node budget to
//! [`optimal_placement`]. The memo serves the annealing chain and the
//! final report; the exhaustive search traces every candidate itself.
//!
//! Callers that do not pin a topology take it from [`fit_topology`], on
//! one [`SuitabilityMap::paper`] per site, together with the greedy plan
//! it fitted with: the greedy answer and the annealer's start, so the
//! dispatch never places greedy itself and never sees the map.
//!
//! Every path is a pure function of its inputs (dataset, config, options,
//! memo contents only affect *speed*, never values — the PR 3 bit-identity
//! contract), so two identical requests produce identical results on any
//! thread count.

use crate::anneal::anneal_with_memo;
use crate::evaluate::{EnergyEvaluator, EnergyReport, TraceMemo};
use crate::exact::optimal_placement;
use crate::greedy::{greedy_placement_with_map, FloorplanResult};
use crate::suitability::SuitabilityMap;
use crate::{FloorplanConfig, FloorplanError};
use pv_gis::SolarDataset;
use pv_model::Topology;
use pv_runtime::Runtime;

/// Topology ladder (series × strings), tried largest-first when a caller
/// does not pin the topology: big roofs are scored at paper scale, small
/// ones degrade gracefully instead of failing. See [`fit_topology`] for
/// the rule that picks an entry.
pub const TOPOLOGY_LADDER: [(usize, usize); 6] = [(8, 2), (4, 2), (4, 1), (2, 2), (2, 1), (1, 1)];

/// The paper configuration of the first [`TOPOLOGY_LADDER`] entry with at
/// most `max_modules` modules whose greedy placement fits `dataset`
/// (ranked by `map`, a [`SuitabilityMap::paper`] of the same dataset),
/// together with that greedy placement, or `None` when not even one
/// module fits.
#[must_use]
pub fn fit_topology(
    dataset: &SolarDataset,
    map: &SuitabilityMap,
    max_modules: usize,
) -> Option<(FloorplanConfig, FloorplanResult)> {
    TOPOLOGY_LADDER
        .iter()
        .filter(|(m, n)| m * n <= max_modules)
        .filter_map(|&(m, n)| FloorplanConfig::paper(Topology::new(m, n).ok()?).ok())
        .find_map(|config| {
            let plan = greedy_placement_with_map(dataset, &config, map).ok()?;
            Some((config, plan))
        })
}

/// Which placement algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Placer {
    /// The paper's greedy algorithm (Fig. 5) — the default.
    Greedy,
    /// Greedy start refined by simulated annealing.
    Anneal,
    /// The exhaustive optimum (only feasible on tiny search spaces).
    Exact,
}

impl Placer {
    /// All placers, in cost order.
    #[must_use]
    pub const fn all() -> [Self; 3] {
        [Self::Greedy, Self::Anneal, Self::Exact]
    }

    /// Stable lowercase name (request fields, artifact records).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Greedy => "greedy",
            Self::Anneal => "anneal",
            Self::Exact => "exact",
        }
    }

    /// Parses [`name`](Self::name) back; `None` for anything else.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::all().into_iter().find(|p| p.name() == name)
    }

    /// Runs this placer on `dataset` under `config` and returns the
    /// placement with its evaluated [`EnergyReport`]. `memo` serves the
    /// annealing chain and the report's evaluation, and is shared with any
    /// previous run on the same site; the exact search neither reads nor
    /// writes it, so an exact request adds only its winner's anchors.
    ///
    /// `greedy` yields the greedy plan of (`dataset`, `config`), the one
    /// [`fit_topology`] returned or [`greedy_placement_with_map`]'s: the
    /// greedy answer and the anneal start. [`Placer::Exact`] never asks
    /// for it, so it also searches topologies the greedy cannot fill.
    ///
    /// # Errors
    ///
    /// Propagates the underlying placer's error: not enough space for the
    /// topology (from `greedy` itself, or from the exact search), or (for
    /// [`Placer::Exact`]) a search space exceeding `options.exact_budget`.
    pub fn place_with_memo(
        self,
        dataset: &SolarDataset,
        config: &FloorplanConfig,
        greedy: impl FnOnce() -> Result<FloorplanResult, FloorplanError>,
        options: &PlacerOptions,
        runtime: Runtime,
        memo: &TraceMemo,
    ) -> Result<(FloorplanResult, EnergyReport), FloorplanError> {
        let evaluator = EnergyEvaluator::new(config).with_runtime(runtime);
        let report_of = |plan: &FloorplanResult| -> Result<EnergyReport, FloorplanError> {
            Ok(evaluator.context(dataset, plan, Some(memo))?.evaluate())
        };
        match self {
            Self::Greedy => {
                let plan = greedy()?;
                let report = report_of(&plan)?;
                Ok((plan, report))
            }
            Self::Anneal => {
                let start = greedy()?;
                let (plan, _) = anneal_with_memo(dataset, config, &start, options, runtime, memo)?;
                let report = report_of(&plan)?;
                Ok((plan, report))
            }
            Self::Exact => {
                let (plan, _) = optimal_placement(dataset, config, options.exact_budget, runtime)?;
                let report = report_of(&plan)?;
                Ok((plan, report))
            }
        }
    }
}

impl core::fmt::Display for Placer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Deterministic tuning knobs of [`Placer::place_with_memo`] and
/// [`anneal_with_memo`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlacerOptions {
    /// Proposals per annealing chain ([`Placer::Anneal`]).
    pub anneal_iterations: u32,
    /// RNG seed of the annealing chain — part of the request identity, so
    /// a caller repeating a request reproduces the chain exactly.
    pub seed: u64,
    /// Node budget of the exhaustive search ([`Placer::Exact`]).
    pub exact_budget: u64,
}

impl Default for PlacerOptions {
    fn default() -> Self {
        Self {
            anneal_iterations: 120,
            seed: 0,
            exact_budget: 20_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_gis::{RoofBuilder, Site, SolarExtractor};
    use pv_units::{Meters, SimulationClock};

    fn tiny_site() -> SolarDataset {
        let roof = RoofBuilder::new(Meters::new(8.0), Meters::new(4.0)).build();
        SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(1, 240))
            .seed(7)
            .runtime(Runtime::sequential())
            .extract(&roof)
    }

    #[test]
    fn names_round_trip() {
        for placer in Placer::all() {
            assert_eq!(Placer::from_name(placer.name()), Some(placer));
        }
        assert_eq!(Placer::from_name("oracle"), None);
    }

    #[test]
    fn fit_topology_takes_the_largest_fitting_entry_under_the_cap() {
        let dataset = tiny_site();
        let map = SuitabilityMap::paper(&dataset, Runtime::sequential());
        let fitted = |dataset: &SolarDataset, map: &SuitabilityMap, max_modules| {
            fit_topology(dataset, map, max_modules).map(|(config, _)| {
                let topology = config.topology();
                (topology.series(), topology.strings())
            })
        };
        assert_eq!(
            fitted(&dataset, &map, 3),
            Some((2, 1)),
            "the cap skips (2, 2)"
        );
        assert_eq!(fitted(&dataset, &map, 1), Some((1, 1)));
        assert_eq!(
            fitted(&dataset, &map, 0),
            None,
            "nothing fits under a zero cap"
        );

        // A roof barely two modules wide steps down the ladder to the
        // first entry whose greedy placement fits.
        let roof = RoofBuilder::new(Meters::new(3.6), Meters::new(1.2)).build();
        let narrow = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(1, 240))
            .runtime(Runtime::sequential())
            .extract(&roof);
        let narrow_map = SuitabilityMap::paper(&narrow, Runtime::sequential());
        assert_eq!(fitted(&narrow, &narrow_map, 16), Some((2, 1)));
        let config = FloorplanConfig::paper(Topology::new(2, 2).unwrap()).unwrap();
        assert!(greedy_placement_with_map(&narrow, &config, &narrow_map).is_err());
    }

    #[test]
    fn fit_topology_returns_the_greedy_plan_of_its_config() {
        let dataset = tiny_site();
        let map = SuitabilityMap::paper(&dataset, Runtime::sequential());
        for max_modules in 0..=16 {
            let Some((config, plan)) = fit_topology(&dataset, &map, max_modules) else {
                assert_eq!(max_modules, 0, "a one-module entry fits this roof");
                continue;
            };
            let fresh = greedy_placement_with_map(&dataset, &config, &map).unwrap();
            let anchors = |p: &FloorplanResult| -> Vec<_> {
                p.placement.modules().iter().map(|m| m.anchor).collect()
            };
            assert_eq!(anchors(&plan), anchors(&fresh), "cap {max_modules}");
            assert_eq!(plan.string_of, fresh.string_of, "cap {max_modules}");
            assert_eq!(
                plan.mean_anchor_score.to_bits(),
                fresh.mean_anchor_score.to_bits(),
                "cap {max_modules}"
            );
        }
    }

    #[test]
    fn all_three_placers_run_and_order_sanely() {
        let dataset = tiny_site();
        let config = FloorplanConfig::paper(Topology::new(2, 1).unwrap()).unwrap();
        let map = SuitabilityMap::compute(&dataset, &config);
        let greedy = || greedy_placement_with_map(&dataset, &config, &map);
        let memo = TraceMemo::new();
        let options = PlacerOptions {
            anneal_iterations: 8,
            seed: 3,
            exact_budget: 200_000,
        };
        let runtime = Runtime::sequential();
        let energy = |p: Placer| {
            let (plan, report) = p
                .place_with_memo(&dataset, &config, greedy, &options, runtime, &memo)
                .unwrap();
            assert_eq!(plan.placement.len(), 2);
            report.energy.as_wh()
        };
        let greedy = energy(Placer::Greedy);
        let anneal = energy(Placer::Anneal);
        let exact = energy(Placer::Exact);
        assert!(greedy > 0.0);
        assert!(anneal >= greedy - 1e-9, "anneal {anneal} < greedy {greedy}");
        assert!(exact >= anneal - 1e-9, "exact {exact} < anneal {anneal}");
    }

    #[test]
    fn warm_memo_does_not_change_results() {
        let dataset = tiny_site();
        let config = FloorplanConfig::paper(Topology::new(2, 1).unwrap()).unwrap();
        let map = SuitabilityMap::compute(&dataset, &config);
        let greedy = || greedy_placement_with_map(&dataset, &config, &map);
        let options = PlacerOptions {
            anneal_iterations: 6,
            seed: 11,
            exact_budget: 1,
        };
        let runtime = Runtime::sequential();
        let cold_memo = TraceMemo::new();
        let (_, cold) = Placer::Anneal
            .place_with_memo(&dataset, &config, greedy, &options, runtime, &cold_memo)
            .unwrap();
        let warm_memo = TraceMemo::new();
        // Warm the memo with a greedy run first, then repeat the request.
        Placer::Greedy
            .place_with_memo(&dataset, &config, greedy, &options, runtime, &warm_memo)
            .unwrap();
        let (_, warm) = Placer::Anneal
            .place_with_memo(&dataset, &config, greedy, &options, runtime, &warm_memo)
            .unwrap();
        assert_eq!(cold.energy.as_wh().to_bits(), warm.energy.as_wh().to_bits());

        // An infeasible exact budget surfaces as an error, not a panic, and
        // the exact search never asks for the greedy plan.
        let no_greedy = || -> Result<FloorplanResult, FloorplanError> {
            panic!("the exact search asked for the greedy plan")
        };
        assert!(matches!(
            Placer::Exact
                .place_with_memo(&dataset, &config, no_greedy, &options, runtime, &warm_memo),
            Err(FloorplanError::SearchSpaceTooLarge { .. })
        ));
    }
}
