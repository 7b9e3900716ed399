//! Exhaustive optimal placement for tiny instances.
//!
//! The paper argues exhaustive enumeration is infeasible at roof scale
//! (Sec. III-C) and offers no optimality data. This module provides the
//! missing yardstick for *tiny* instances: enumerate every non-overlapping
//! combination of candidate anchors, evaluate each with the full energy
//! model, and return the best. Used by the A3 ablation to measure the
//! greedy heuristic's optimality gap, and served as `placer=exact`.
//!
//! A leaf costs a re-score, not a kernel pass. Every candidate's trace
//! comes from one sweep over the roof
//! ([`SolarDataset::sweep_mean_irradiance`], bit-identical to the
//! per-module kernel), and each subtree re-anchors one
//! [`EvaluationContext`] from leaf to leaf instead of building one per
//! leaf. With one module the sweep's stream *is* the search; with more,
//! the inner levels read a search-local table of every candidate's trace.
//! The caller's [`TraceMemo`](crate::TraceMemo) is neither read nor
//! written: the search visits every candidate once, so a shared memo
//! would only fill up with anchors no other placer asks for.

use crate::config::FloorplanConfig;
use crate::error::FloorplanError;
use crate::evaluate::{ambient_trace, trace_from_means, trace_len, EvaluationContext};
use crate::greedy::FloorplanResult;
use crate::suitability::fitting_anchors;
use pv_geom::{CellCoord, Footprint, Placement};
use pv_gis::SolarDataset;
use pv_runtime::Runtime;
use pv_units::WattHours;
use std::ops::Range;

/// Exhaustively searches all anchor combinations and returns the
/// energy-optimal placement together with its energy.
///
/// The search enumerates combinations (not permutations) of feasible
/// anchors in grid order; modules are assigned to strings series-first in
/// that order. A prefix whose newest anchor overlaps an earlier one is
/// pruned with its whole subtree. The node budget guards against
/// accidental explosion. Candidate subtrees are searched on `runtime`'s
/// workers; results are identical for every thread count.
///
/// Memory beyond the evaluation contexts: one rolling band of beam terms
/// per worker (grid width × footprint height × sun-up steps), and for two
/// or more modules a table of every candidate's trace (candidates × 2 ×
/// steps values, bounded through the node budget).
///
/// # Errors
///
/// - [`FloorplanError::SearchSpaceTooLarge`] when `C(candidates, N)`
///   exceeds `node_budget`;
/// - [`FloorplanError::NotEnoughSpace`] when no complete placement exists.
///
/// ```
/// use pv_floorplan::{exact::optimal_placement, FloorplanConfig};
/// use pv_gis::{RoofBuilder, SolarExtractor, Site};
/// use pv_model::Topology;
/// use pv_runtime::Runtime;
/// use pv_units::{Meters, SimulationClock};
/// let roof = RoofBuilder::new(Meters::new(3.2), Meters::new(1.6)).build();
/// let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(1, 240))
///     .extract(&roof);
/// let config = FloorplanConfig::paper(Topology::new(2, 1)?)?;
/// let (plan, energy) = optimal_placement(&data, &config, 1_000_000, Runtime::sequential())?;
/// assert_eq!(plan.placement.len(), 2);
/// assert!(energy.as_wh() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn optimal_placement(
    dataset: &SolarDataset,
    config: &FloorplanConfig,
    node_budget: u64,
    runtime: Runtime,
) -> Result<(FloorplanResult, WattHours), FloorplanError> {
    let n_modules = config.topology().num_modules();
    // Candidate anchors: positions where the footprint fits fully.
    let candidates = fitting_anchors(dataset, config.footprint());
    let combos = binomial(candidates.len() as u64, n_modules as u64);
    if combos > node_budget {
        return Err(FloorplanError::SearchSpaceTooLarge {
            candidates: candidates.len(),
            modules: n_modules,
            budget: node_budget,
        });
    }

    let search = Search {
        dataset,
        config,
        candidates: &candidates,
        ambient: ambient_trace(dataset),
        block_len: trace_len(dataset.num_steps() as usize),
    };
    // Each chunk of the candidate order keeps its own winner; merging
    // them in chunk order with a strict `>` keeps the first-seen winner of
    // the sequential scan, so the result is thread-count independent.
    let winners = if n_modules == 1 {
        // One sweep per worker over a contiguous run of candidates.
        let per_worker = candidates.len().div_ceil(runtime.threads()).max(1);
        runtime.map_chunks(candidates.len(), per_worker, |range| {
            let mut leaves = Leaves::new(&search);
            search.traces(range.clone(), |n, trace| {
                leaves.stale_from = 0;
                leaves.score(&[range.start + n], |_| trace);
            });
            leaves.best
        })
    } else {
        let table = search.table(runtime);
        // One subtree per first anchor: subtree sizes fall steeply with
        // the first index, so single-anchor chunks balance the workers.
        runtime.map_chunks(candidates.len(), 1, |range| {
            let mut leaves = Leaves::new(&search);
            let mut chosen = Vec::with_capacity(n_modules);
            for first in range {
                chosen.push(first);
                leaves.stale_from = 0;
                search.recurse(&mut chosen, n_modules, &table, &mut leaves);
                chosen.pop();
            }
            leaves.best
        })
    };
    let best = winners
        .into_iter()
        .flatten()
        .reduce(|a, b| if b.1.as_wh() > a.1.as_wh() { b } else { a });

    best.map(|(chosen, energy)| {
        let anchors: Vec<CellCoord> = chosen.iter().map(|&i| candidates[i]).collect();
        let plan = build_plan(&anchors, dataset, config)
            .expect("the winning combination was feasible when evaluated");
        (plan, energy)
    })
    .ok_or(FloorplanError::NotEnoughSpace {
        placed: 0,
        requested: n_modules,
    })
}

/// What every worker of one search shares.
struct Search<'a> {
    dataset: &'a SolarDataset,
    config: &'a FloorplanConfig,
    /// Fitting anchors in grid order.
    candidates: &'a [CellCoord],
    /// Per-step ambient temperature, for the operating-point sweep.
    ambient: Vec<f64>,
    /// Values per candidate trace block.
    block_len: usize,
}

impl Search<'_> {
    /// Streams the trace block of every candidate in `range`, in order,
    /// from one band sweep of mean irradiance: `visit(n, trace)` for
    /// candidate `range.start + n`.
    fn traces(&self, range: Range<usize>, mut visit: impl FnMut(usize, &[f64])) {
        let num_steps = self.dataset.num_steps();
        let mut trace = vec![0.0f64; self.block_len];
        self.dataset.sweep_mean_irradiance(
            self.config.footprint(),
            &self.candidates[range],
            0..num_steps,
            |n, means| {
                let swept = |steps: Range<usize>, tile: &mut [f64]| {
                    tile.copy_from_slice(&means[steps]);
                };
                trace_from_means(self.config.module(), &self.ambient, swept, &mut trace);
                visit(n, &trace);
            },
        );
    }

    /// Every candidate's trace block, candidate-major: the search-local
    /// memo the inner levels read.
    fn table(&self, runtime: Runtime) -> Vec<f64> {
        let n = self.candidates.len();
        let per_worker = n.div_ceil(runtime.threads()).max(1);
        let mut table = vec![0.0f64; n * self.block_len];
        runtime.for_each_chunk_mut(&mut table, per_worker * self.block_len, |c, rows| {
            let start = c * per_worker;
            let count = rows.len() / self.block_len;
            self.traces(start..start + count, |n, trace| {
                rows[n * self.block_len..(n + 1) * self.block_len].copy_from_slice(trace);
            });
        });
        table
    }

    /// Depth-first enumeration below the prefix `chosen` (candidate
    /// indices), in index order; scores every complete combination.
    fn recurse(
        &self,
        chosen: &mut Vec<usize>,
        n_modules: usize,
        table: &[f64],
        leaves: &mut Leaves<'_>,
    ) {
        if chosen.len() == n_modules {
            let block_of = |i: usize| &table[i * self.block_len..(i + 1) * self.block_len];
            leaves.score(chosen, |k| block_of(chosen[k]));
            return;
        }
        let level = chosen.len();
        let remaining = n_modules - level;
        let start = chosen[level - 1] + 1;
        let footprint = self.config.footprint();
        for i in start..=self.candidates.len().saturating_sub(remaining) {
            let anchor = self.candidates[i];
            // Prune on push: every leaf below an overlapping prefix
            // overlaps too.
            if chosen
                .iter()
                .any(|&c| overlaps(self.candidates[c], anchor, footprint))
            {
                continue;
            }
            chosen.push(i);
            leaves.stale_from = leaves.stale_from.min(level);
            self.recurse(chosen, n_modules, table, leaves);
            chosen.pop();
        }
    }
}

/// One worker's leaves: an evaluation context re-anchored from leaf to
/// leaf, and the best combination seen so far.
struct Leaves<'a> {
    search: &'a Search<'a>,
    context: Option<EvaluationContext<'a>>,
    /// Lowest module whose anchor changed since the context's last leaf.
    stale_from: usize,
    /// Scratch: the anchors of the modules a leaf re-anchors.
    anchors: Vec<CellCoord>,
    /// Candidate indices and energy of the best leaf (first seen wins ties).
    best: Option<(Vec<usize>, WattHours)>,
}

impl<'a> Leaves<'a> {
    fn new(search: &'a Search<'a>) -> Self {
        Self {
            search,
            context: None,
            stale_from: 0,
            anchors: Vec::new(),
            best: None,
        }
    }

    /// Scores the non-overlapping combination `chosen` (candidate
    /// indices); `trace_of(k)` is module `k`'s trace block.
    fn score<'t>(&mut self, chosen: &[usize], trace_of: impl Fn(usize) -> &'t [f64] + Sync) {
        let search = self.search;
        let fill = |k: usize, _: &[f64], block: &mut [f64]| block.copy_from_slice(trace_of(k));
        let from = if self.context.is_some() {
            self.stale_from
        } else {
            0
        };
        self.anchors.clear();
        self.anchors
            .extend(chosen[from..].iter().map(|&i| search.candidates[i]));
        let context = match &mut self.context {
            Some(context) => {
                context.load_modules(from, &self.anchors, fill);
                context
            }
            None => {
                let plan = build_plan(&self.anchors, search.dataset, search.config)
                    .expect("pruned combinations do not overlap");
                let context = EvaluationContext::new(
                    search.dataset,
                    search.config,
                    &plan,
                    Runtime::sequential(),
                    None,
                    fill,
                )
                .expect("the plan places the configured module count");
                self.context.insert(context)
            }
        };
        self.stale_from = chosen.len();
        let energy = context.evaluate().energy;
        if self
            .best
            .as_ref()
            .is_none_or(|(_, e)| energy.as_wh() > e.as_wh())
        {
            self.best = Some((chosen.to_vec(), energy));
        }
    }
}

/// Whether footprints anchored at `a` and `b` share a cell.
fn overlaps(a: CellCoord, b: CellCoord, footprint: Footprint) -> bool {
    a.x.abs_diff(b.x) < footprint.width_cells() && a.y.abs_diff(b.y) < footprint.height_cells()
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
    use crate::evaluate::EnergyEvaluator;
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
    ) -> Result<(FloorplanResult, WattHours), FloorplanError> {
        optimal_placement(data, cfg, budget, runtime)
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

    #[test]
    fn sweep_fed_search_matches_a_fresh_context_per_leaf_at_any_thread_count() {
        // An undulating roof with a chimney: traces take the band sweep.
        // The reference scores every non-overlapping combination in index
        // order with its own kernel-built context and keeps the first
        // maximum, as the search did before it swept.
        let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0))
            .undulation(pv_units::Degrees::new(6.0), Meters::new(1.2), 5)
            .obstacle(Obstacle::chimney(
                Meters::new(3.4),
                Meters::new(1.4),
                Meters::new(0.4),
                Meters::new(0.4),
                Meters::new(1.0),
            ))
            .build();
        let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(2, 120))
            .seed(3)
            .extract(&roof);
        let candidates = fitting_anchors(&data, config(1, 1).footprint());
        // Index combinations of size `k` below `prefix`, in lexicographic order.
        fn combos(n: usize, k: usize, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if prefix.len() == k {
                out.push(prefix.clone());
                return;
            }
            let start = prefix.last().map_or(0, |&i| i + 1);
            for i in start..n {
                prefix.push(i);
                combos(n, k, prefix, out);
                prefix.pop();
            }
        }
        // Three modules re-anchor from the middle level as well.
        for cfg in [config(1, 1), config(2, 1), config(3, 1)] {
            let evaluator = EnergyEvaluator::new(&cfg).with_runtime(Runtime::sequential());
            let mut all = Vec::new();
            combos(
                candidates.len(),
                cfg.topology().num_modules(),
                &mut Vec::new(),
                &mut all,
            );
            let mut reference: Option<(Vec<CellCoord>, WattHours)> = None;
            for combo in all {
                let anchors: Vec<CellCoord> = combo.iter().map(|&i| candidates[i]).collect();
                if let Some(plan) = build_plan(&anchors, &data, &cfg) {
                    let energy = evaluator.evaluate(&data, &plan).unwrap().energy;
                    if reference
                        .as_ref()
                        .is_none_or(|(_, e)| energy.as_wh() > e.as_wh())
                    {
                        reference = Some((anchors, energy));
                    }
                }
            }
            let (anchors, energy) = reference.expect("the roof fits the topology");
            for threads in [1usize, 3] {
                let (plan, wh) =
                    optimum(&data, &cfg, 1_000_000, Runtime::with_threads(threads)).unwrap();
                let found: Vec<CellCoord> =
                    plan.placement.modules().iter().map(|m| m.anchor).collect();
                assert_eq!(found, anchors, "{threads} thread(s)");
                assert_eq!(wh.as_wh().to_bits(), energy.as_wh().to_bits());
            }
        }
    }
}
