//! Exhaustive optimal placement for tiny instances.
//!
//! The paper argues exhaustive enumeration is infeasible at roof scale
//! (Sec. III-C) and offers no optimality data. This module provides the
//! missing yardstick for *tiny* instances: enumerate every non-overlapping
//! combination of candidate anchors, evaluate each with the full energy
//! model, and return the best. Used by the A3 ablation to measure the
//! greedy heuristic's optimality gap.

use crate::config::FloorplanConfig;
use crate::error::FloorplanError;
use crate::evaluate::{EnergyEvaluator, TraceMemo};
use crate::greedy::FloorplanResult;
use crate::suitability::fitting_anchors;
use pv_geom::{CellCoord, Placement};
use pv_gis::SolarDataset;
use pv_runtime::Runtime;

/// Exhaustively searches all anchor combinations and returns the
/// energy-optimal placement together with its energy.
///
/// The search enumerates combinations (not permutations) of feasible
/// anchors in grid order; modules are assigned to strings series-first in
/// that order. The node budget guards against accidental explosion.
/// Candidate subtrees are searched on `runtime`'s workers; results are
/// identical for every thread count.
///
/// `memo` is a caller-owned per-anchor [`TraceMemo`]: anchors already
/// traced by an earlier run on the *same* `(dataset, config)` pair (a
/// greedy evaluation, an annealing chain) are lookups instead of kernel
/// passes. Memo hits are bit-identical to recomputation, so sharing never
/// changes the result; a fresh `TraceMemo::new()` serves a one-off run.
///
/// # Errors
///
/// - [`FloorplanError::SearchSpaceTooLarge`] when `C(candidates, N)`
///   exceeds `node_budget`;
/// - [`FloorplanError::NotEnoughSpace`] when no complete placement exists.
///
/// ```
/// use pv_floorplan::{exact::optimal_placement_with_memo, FloorplanConfig, TraceMemo};
/// use pv_gis::{RoofBuilder, SolarExtractor, Site};
/// use pv_model::Topology;
/// use pv_runtime::Runtime;
/// use pv_units::{Meters, SimulationClock};
/// let roof = RoofBuilder::new(Meters::new(3.2), Meters::new(1.6)).build();
/// let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(1, 240))
///     .extract(&roof);
/// let config = FloorplanConfig::paper(Topology::new(2, 1)?)?;
/// let memo = TraceMemo::new();
/// let (plan, energy) =
///     optimal_placement_with_memo(&data, &config, 1_000_000, Runtime::sequential(), &memo)?;
/// assert_eq!(plan.placement.len(), 2);
/// assert!(energy.as_wh() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn optimal_placement_with_memo(
    dataset: &SolarDataset,
    config: &FloorplanConfig,
    node_budget: u64,
    runtime: Runtime,
    memo: &TraceMemo,
) -> Result<(FloorplanResult, pv_units::WattHours), FloorplanError> {
    let footprint = config.footprint();
    let topology = config.topology();
    let n_modules = topology.num_modules();

    // Candidate anchors: positions where the footprint fits fully.
    let candidates = fitting_anchors(dataset, footprint);

    let combos = binomial(candidates.len() as u64, n_modules as u64);
    if combos > node_budget {
        return Err(FloorplanError::SearchSpaceTooLarge {
            candidates: candidates.len(),
            modules: n_modules,
            budget: node_budget,
        });
    }

    // Candidate subtrees (grouped by first-chosen anchor) are independent,
    // so they are searched in parallel and their winners merged in
    // ascending first-index order — the exact visit order of the
    // sequential scan, so tie-breaks (`>`: first seen wins) and therefore
    // the result are thread-count independent. Leaf evaluations run on a
    // sequential evaluator to keep the parallelism at the subtree level.
    //
    // All subtrees share one per-anchor trace memo: the same anchor
    // appears in many combinations, so after its first leaf its
    // per-module trace is a lookup (memo hits are bit-identical to
    // recomputation, so the merge order above still decides ties).
    let leaf_evaluator = EnergyEvaluator::new(config).with_runtime(Runtime::sequential());

    // Depth-first enumeration of anchor combinations in index order.
    #[allow(clippy::too_many_arguments)]
    fn recurse(
        candidates: &[CellCoord],
        start: usize,
        chosen: &mut Vec<CellCoord>,
        n_modules: usize,
        dataset: &SolarDataset,
        config: &FloorplanConfig,
        evaluator: &EnergyEvaluator<'_>,
        memo: &TraceMemo,
        best: &mut Option<(Vec<CellCoord>, pv_units::WattHours)>,
    ) {
        if chosen.len() == n_modules {
            let Some(plan) = build_plan(chosen, dataset, config) else {
                return; // overlapping combination
            };
            if let Ok(ctx) = evaluator.context_with_memo(dataset, &plan, memo) {
                let report = ctx.evaluate();
                let better = best
                    .as_ref()
                    .is_none_or(|(_, e)| report.energy.as_wh() > e.as_wh());
                if better {
                    *best = Some((chosen.clone(), report.energy));
                }
            }
            return;
        }
        let remaining = n_modules - chosen.len();
        if candidates.len().saturating_sub(start) < remaining {
            return;
        }
        for i in start..candidates.len() {
            chosen.push(candidates[i]);
            recurse(
                candidates,
                i + 1,
                chosen,
                n_modules,
                dataset,
                config,
                evaluator,
                memo,
                best,
            );
            chosen.pop();
        }
    }

    let best = runtime
        .map_chunks(candidates.len(), 1, |first| {
            let mut best: Option<(Vec<CellCoord>, pv_units::WattHours)> = None;
            let mut chosen: Vec<CellCoord> = Vec::with_capacity(n_modules);
            for i in first {
                chosen.push(candidates[i]);
                recurse(
                    &candidates,
                    i + 1,
                    &mut chosen,
                    n_modules,
                    dataset,
                    config,
                    &leaf_evaluator,
                    memo,
                    &mut best,
                );
                chosen.pop();
            }
            best
        })
        .into_iter()
        .fold(
            None::<(Vec<CellCoord>, pv_units::WattHours)>,
            |acc, part| match (acc, part) {
                (None, part) => part,
                (acc, None) => acc,
                (Some(a), Some(b)) => Some(if b.1.as_wh() > a.1.as_wh() { b } else { a }),
            },
        );

    // Overlap pruning happens inside; prune-by-overlap earlier would be
    // faster but the budget keeps instances tiny by construction.
    best.map(|(anchors, energy)| {
        let plan = build_plan(&anchors, dataset, config)
            .expect("the winning combination was feasible when evaluated");
        (plan, energy)
    })
    .ok_or(FloorplanError::NotEnoughSpace {
        placed: 0,
        requested: n_modules,
    })
}

/// Places `anchors` in order, assigning strings series-first; `None` when
/// the combination overlaps.
fn build_plan(
    anchors: &[CellCoord],
    dataset: &SolarDataset,
    config: &FloorplanConfig,
) -> Option<FloorplanResult> {
    let mut placement = Placement::new(dataset.dims(), config.footprint());
    for &anchor in anchors {
        placement.try_place(anchor, dataset.valid()).ok()?;
    }
    let string_of = (0..anchors.len())
        .map(|k| config.topology().string_of(k))
        .collect();
    Some(FloorplanResult {
        placement,
        string_of,
        mean_anchor_score: f64::NAN,
    })
}

/// `C(n, k)` saturating at `u64::MAX`.
fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result: u64 = 1;
    for i in 0..k {
        result = match result.checked_mul(n - i) {
            Some(v) => v / (i + 1),
            None => return u64::MAX,
        };
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_placement;
    use pv_gis::{Obstacle, RoofBuilder, Site, SolarExtractor};
    use pv_model::Topology;
    use pv_units::{Meters, SimulationClock};

    fn config(m: usize, n: usize) -> FloorplanConfig {
        FloorplanConfig::paper(Topology::new(m, n).unwrap()).unwrap()
    }

    fn optimum(
        data: &SolarDataset,
        cfg: &FloorplanConfig,
        budget: u64,
        runtime: Runtime,
    ) -> Result<(FloorplanResult, pv_units::WattHours), FloorplanError> {
        optimal_placement_with_memo(data, cfg, budget, runtime, &TraceMemo::new())
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(10, 0), 1);
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial(61, 30), 232_714_176_627_630_544);
        assert_eq!(binomial(100, 50), u64::MAX); // saturates
    }

    #[test]
    fn budget_guard_triggers() {
        let roof = RoofBuilder::new(Meters::new(10.0), Meters::new(4.0)).build();
        let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(1, 240))
            .extract(&roof);
        let err = optimum(&data, &config(4, 2), 1000, Runtime::sequential()).unwrap_err();
        assert!(matches!(err, FloorplanError::SearchSpaceTooLarge { .. }));
    }

    #[test]
    fn greedy_matches_exact_on_tiny_shaded_roof() {
        // 3.2 x 1.6 m roof with the right edge shaded by a wall: both the
        // exact optimum and the greedy place away from the wall; the greedy
        // energy must be within a few percent of optimal.
        let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(0.8))
            .obstacle(Obstacle::off_roof_block(
                Meters::new(3.8),
                Meters::new(0.0),
                Meters::new(0.2),
                Meters::new(0.8),
                Meters::new(3.0),
            ))
            .build();
        let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(2, 240))
            .seed(13)
            .extract(&roof);
        let cfg = config(1, 1);
        let (optimal, best_energy) = optimum(&data, &cfg, 100_000, Runtime::sequential()).unwrap();
        assert_eq!(optimal.placement.len(), 1);
        let greedy = greedy_placement(&data, &cfg).unwrap();
        let greedy_energy = EnergyEvaluator::new(&cfg)
            .evaluate(&data, &greedy)
            .unwrap()
            .energy;
        assert!(greedy_energy.as_wh() <= best_energy.as_wh() + 1e-9);
        assert!(
            greedy_energy.as_wh() >= best_energy.as_wh() * 0.97,
            "greedy {} vs optimal {}",
            greedy_energy.as_wh(),
            best_energy.as_wh()
        );
    }

    #[test]
    fn exact_search_is_thread_count_invariant() {
        // Ties between equal-energy combinations are broken by visit
        // order; the parallel subtree merge must reproduce it exactly.
        let roof = RoofBuilder::new(Meters::new(3.2), Meters::new(1.6)).build();
        let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(1, 240))
            .seed(6)
            .extract(&roof);
        let cfg = config(2, 1);
        let (seq_plan, seq_wh) = optimum(&data, &cfg, 1_000_000, Runtime::sequential()).unwrap();
        for threads in [2usize, 5] {
            let (par_plan, par_wh) =
                optimum(&data, &cfg, 1_000_000, Runtime::with_threads(threads)).unwrap();
            assert_eq!(seq_plan.placement.modules(), par_plan.placement.modules());
            assert_eq!(seq_wh, par_wh);
        }
    }

    #[test]
    fn exact_beats_or_ties_greedy_on_two_modules() {
        let roof = RoofBuilder::new(Meters::new(3.2), Meters::new(1.6)).build();
        let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(1, 240))
            .seed(2)
            .extract(&roof);
        let cfg = config(2, 1);
        let (_, best_energy) = optimum(&data, &cfg, 1_000_000, Runtime::sequential()).unwrap();
        let greedy = greedy_placement(&data, &cfg).unwrap();
        let greedy_energy = EnergyEvaluator::new(&cfg)
            .evaluate(&data, &greedy)
            .unwrap()
            .energy;
        assert!(best_energy.as_wh() >= greedy_energy.as_wh() - 1e-9);
    }
}
