//! Simulated-annealing refinement of a placement.
//!
//! An extension beyond the paper: start from any placement (typically the
//! greedy result) and locally perturb module positions, accepting
//! energy-degrading moves with Metropolis probability under a geometric
//! cooling schedule. Used by the A3 ablation to quantify how much headroom
//! the greedy heuristic leaves on the table. The chain's length and seed
//! come from [`PlacerOptions`], the same knobs (and defaults)
//! [`Placer::place_with_memo`](crate::Placer::place_with_memo) takes.

use crate::config::FloorplanConfig;
use crate::error::FloorplanError;
use crate::evaluate::{EnergyEvaluator, TraceMemo};
use crate::greedy::FloorplanResult;
use crate::placer::PlacerOptions;
use crate::suitability::fitting_anchors;
use pv_geom::{CellCoord, Placement};
use pv_gis::SolarDataset;
use pv_units::WattHours;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Initial temperature as a fraction of the initial energy (1% of the
/// start's Wh).
const INITIAL_TEMPERATURE: f64 = 0.01;

/// Geometric cooling factor per proposal.
const COOLING: f64 = 0.985;

/// Refines `initial` by simulated annealing, returning the best placement
/// found and its energy.
///
/// The chain proposes `options.anneal_iterations` moves from an RNG
/// seeded with `options.seed`; `options.exact_budget` is not read. Each
/// move relocates one random module to a random feasible anchor; the
/// full energy model scores every state (use a coarse-clock dataset for
/// speed, then re-evaluate the winner on the full clock). Energy
/// evaluations run time-chunk parallel on `runtime`; the chain itself is
/// inherently sequential, and results are identical for every thread
/// count.
///
/// `memo` is a caller-owned per-anchor [`TraceMemo`]: anchors already
/// traced by an earlier run on the *same* `(dataset, config)` pair — a
/// prior greedy evaluation, another placer, an earlier chain — are
/// lookups instead of kernel passes, and the anchors this chain visits
/// are published back for whoever runs next. Memo hits are bit-identical
/// to recomputation, so sharing never changes the result; a fresh
/// `TraceMemo::new()` serves a one-off run.
///
/// # Errors
///
/// Propagates evaluation errors (e.g. a size-mismatched initial plan).
///
/// ```
/// use pv_floorplan::{anneal_with_memo, greedy_placement};
/// use pv_floorplan::{FloorplanConfig, PlacerOptions, TraceMemo};
/// use pv_gis::{RoofBuilder, SolarExtractor, Site};
/// use pv_model::Topology;
/// use pv_runtime::Runtime;
/// use pv_units::{Meters, SimulationClock};
/// let roof = RoofBuilder::new(Meters::new(6.0), Meters::new(2.0)).build();
/// let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(1, 240))
///     .extract(&roof);
/// let config = FloorplanConfig::paper(Topology::new(2, 1)?)?;
/// let start = greedy_placement(&data, &config)?;
/// let options = PlacerOptions { anneal_iterations: 30, ..PlacerOptions::default() };
/// let memo = TraceMemo::new();
/// let (refined, energy) =
///     anneal_with_memo(&data, &config, &start, &options, Runtime::sequential(), &memo)?;
/// assert_eq!(refined.placement.len(), 2);
/// assert!(energy.as_wh() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn anneal_with_memo(
    dataset: &SolarDataset,
    config: &FloorplanConfig,
    initial: &FloorplanResult,
    options: &PlacerOptions,
    runtime: pv_runtime::Runtime,
    memo: &TraceMemo,
) -> Result<(FloorplanResult, WattHours), FloorplanError> {
    let evaluator = EnergyEvaluator::new(config).with_runtime(runtime);
    let footprint = config.footprint();
    let mut rng = StdRng::seed_from_u64(options.seed);

    // Feasible anchors for relocation moves.
    let anchors = fitting_anchors(dataset, footprint);
    if anchors.is_empty() {
        return Err(FloorplanError::NotEnoughSpace {
            placed: 0,
            requested: config.topology().num_modules(),
        });
    }

    // One context for the whole chain: each proposal relocates a single
    // module in place via the try/commit/rollback API, refreshing only
    // that module's trace and its string's aggregates/wiring, and each
    // re-score folds cached per-step data instead of re-integrating all N
    // modules. Rejected proposals roll back from the undo buffer (no
    // second irradiance recompute) and the per-anchor memo turns revisited
    // proposal anchors into lookups.
    let mut ctx = evaluator.context(dataset, initial, Some(memo))?;
    let mut current_energy = ctx.evaluate().energy;
    let mut best_anchors = ctx.anchors();
    let mut best_energy = current_energy;

    let mut temperature = INITIAL_TEMPERATURE * current_energy.as_wh().max(1.0);
    for _ in 0..options.anneal_iterations {
        let victim = rng.gen_range(0..initial.placement.len());
        let proposal_anchor = anchors[rng.gen_range(0..anchors.len())];

        if ctx.try_move(victim, proposal_anchor).is_ok() {
            let energy = ctx.evaluate().energy;
            let delta = energy.as_wh() - current_energy.as_wh();
            let accept = delta >= 0.0 || rng.gen::<f64>() < (delta / temperature.max(1e-12)).exp();
            if accept {
                ctx.commit_move();
                current_energy = energy;
                if energy.as_wh() > best_energy.as_wh() {
                    best_energy = energy;
                    best_anchors = ctx.anchors();
                }
            } else {
                ctx.rollback_move();
            }
        }
        temperature *= COOLING;
    }

    let rebuild = |anchor_list: &[CellCoord]| -> Option<FloorplanResult> {
        let mut placement = Placement::new(dataset.dims(), footprint);
        for &a in anchor_list {
            placement.try_place(a, dataset.valid()).ok()?;
        }
        Some(FloorplanResult {
            placement,
            string_of: initial.string_of.clone(),
            mean_anchor_score: f64::NAN,
        })
    };
    let best = rebuild(&best_anchors).expect("best state was feasible when accepted");
    Ok((best, best_energy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_placement;
    use pv_gis::{Obstacle, RoofBuilder, Site, SolarExtractor};
    use pv_model::Topology;
    use pv_runtime::Runtime;
    use pv_units::{Meters, SimulationClock};

    fn config(m: usize, n: usize) -> FloorplanConfig {
        FloorplanConfig::paper(Topology::new(m, n).unwrap()).unwrap()
    }

    #[test]
    fn never_worse_than_initial() {
        let roof = RoofBuilder::new(Meters::new(8.0), Meters::new(3.0))
            .obstacle(Obstacle::chimney(
                Meters::new(4.0),
                Meters::new(1.2),
                Meters::new(0.8),
                Meters::new(0.8),
                Meters::new(1.5),
            ))
            .build();
        let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(2, 240))
            .seed(3)
            .extract(&roof);
        let cfg = config(2, 1);
        let start = greedy_placement(&data, &cfg).unwrap();
        let start_energy = EnergyEvaluator::new(&cfg)
            .evaluate(&data, &start)
            .unwrap()
            .energy;
        let (refined, energy) = anneal_with_memo(
            &data,
            &cfg,
            &start,
            &PlacerOptions {
                anneal_iterations: 60,
                seed: 7,
                ..PlacerOptions::default()
            },
            Runtime::sequential(),
            &TraceMemo::new(),
        )
        .unwrap();
        assert!(energy.as_wh() >= start_energy.as_wh() - 1e-9);
        assert_eq!(refined.placement.len(), 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let roof = RoofBuilder::new(Meters::new(6.0), Meters::new(2.0)).build();
        let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(1, 240))
            .seed(3)
            .extract(&roof);
        let cfg = config(2, 1);
        let start = greedy_placement(&data, &cfg).unwrap();
        let options = PlacerOptions {
            anneal_iterations: 40,
            seed: 5,
            ..PlacerOptions::default()
        };
        let run = || {
            anneal_with_memo(
                &data,
                &cfg,
                &start,
                &options,
                Runtime::sequential(),
                &TraceMemo::new(),
            )
            .unwrap()
        };
        let (a, ea) = run();
        let (b, eb) = run();
        assert_eq!(a.placement.modules(), b.placement.modules());
        assert_eq!(ea, eb);
    }

    #[test]
    fn escapes_a_deliberately_bad_start() {
        // Start with a module in a shaded corner; annealing should move it.
        let roof = RoofBuilder::new(Meters::new(8.0), Meters::new(2.0))
            .obstacle(Obstacle::off_roof_block(
                Meters::new(7.6),
                Meters::new(0.0),
                Meters::new(0.4),
                Meters::new(2.0),
                Meters::new(4.0),
            ))
            .build();
        let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(3, 240))
            .seed(9)
            .extract(&roof);
        let cfg = config(1, 1);
        // Bad start: right next to the wall.
        let mut placement = Placement::new(data.dims(), cfg.footprint());
        placement
            .try_place(pv_geom::CellCoord::new(29, 3), data.valid())
            .unwrap();
        let bad = FloorplanResult {
            placement,
            string_of: vec![0],
            mean_anchor_score: f64::NAN,
        };
        let bad_energy = EnergyEvaluator::new(&cfg)
            .evaluate(&data, &bad)
            .unwrap()
            .energy;
        let (_, energy) = anneal_with_memo(
            &data,
            &cfg,
            &bad,
            &PlacerOptions {
                anneal_iterations: 150,
                seed: 1,
                ..PlacerOptions::default()
            },
            Runtime::sequential(),
            &TraceMemo::new(),
        )
        .unwrap();
        assert!(
            energy.as_wh() > bad_energy.as_wh() * 1.01,
            "bad {} refined {}",
            bad_energy.as_wh(),
            energy.as_wh()
        );
    }
}
