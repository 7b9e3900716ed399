//! Property-based tests for the floorplanning core's invariants.

use proptest::prelude::*;
use pv_floorplan::{
    greedy_placement, greedy_placement_with_map, traditional_placement_with_map, EnergyEvaluator,
    FloorplanConfig, FloorplanResult, SuitabilityMap, TraceMemo,
};
use pv_geom::{CellCoord, Placement};
use pv_gis::{Obstacle, RoofBuilder, Site, SolarDataset, SolarExtractor};
use pv_model::Topology;
use pv_runtime::Runtime;
use pv_units::{Degrees, Meters, SimulationClock};

fn dataset(width_m: f64, depth_m: f64, seed: u64, chimney_x: f64) -> SolarDataset {
    roof_dataset(width_m, depth_m, seed, chimney_x, true)
}

fn roof_dataset(
    width_m: f64,
    depth_m: f64,
    seed: u64,
    chimney_x: f64,
    undulating: bool,
) -> SolarDataset {
    let mut builder =
        RoofBuilder::new(Meters::new(width_m), Meters::new(depth_m)).obstacle(Obstacle::chimney(
            Meters::new(chimney_x),
            Meters::new(depth_m / 2.0),
            Meters::new(0.8),
            Meters::new(0.8),
            Meters::new(1.6),
        ));
    if undulating {
        builder = builder.undulation(Degrees::new(4.0), Meters::new(3.0), seed);
    }
    SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(3, 240))
        .seed(seed)
        .extract(&builder.build())
}

/// Nearest-rank percentile of `samples` plus `num_zeros` implicit zeros,
/// by a plain `select_nth_unstable_by(total_cmp)`.
fn reference_percentile(samples: &mut [f64], num_zeros: usize, percentile: f64) -> f64 {
    let total = samples.len() + num_zeros;
    if total == 0 {
        return 0.0;
    }
    let rank = ((total as f64 * percentile).ceil() as usize).clamp(1, total) - 1;
    if rank < num_zeros {
        return 0.0;
    }
    *samples
        .select_nth_unstable_by(rank - num_zeros, f64::total_cmp)
        .1
}

/// The suitability metric the slow way: one `irradiance` call per cell and
/// sun-up step, then `f(T)` as specified in the paper (Sec. III-C).
/// Returns the score and percentile bits of every cell.
fn reference_suitability(data: &SolarDataset, config: &FloorplanConfig) -> Vec<(u64, u64)> {
    let steps = data.num_steps();
    let sun_up: Vec<u32> = (0..steps).filter(|&i| data.conditions(i).sun_up).collect();
    let num_dark = steps as usize - sun_up.len();
    let mut ambient: Vec<f64> = (0..steps)
        .map(|i| data.conditions(i).ambient.as_celsius())
        .collect();
    let t_pct = reference_percentile(&mut ambient, 0, config.percentile());
    let gamma = config.module().power_temperature_slope();
    let k = config.module().thermal_coefficient();
    data.dims()
        .iter()
        .map(|cell| {
            if !data.valid().is_set(cell) {
                return (f64::NAN.to_bits(), f64::NAN.to_bits());
            }
            let mut samples: Vec<f64> = sun_up
                .iter()
                .map(|&i| data.irradiance(cell, i).as_w_per_m2())
                .collect();
            let g_pct = reference_percentile(&mut samples, num_dark, config.percentile());
            let f = if config.temperature_correction() {
                ((1.12 - gamma * (t_pct + k * g_pct)) / (1.12 - gamma * 25.0)).max(0.0)
            } else {
                1.0
            };
            ((g_pct * f).to_bits(), g_pct.to_bits())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The greedy placement always produces exactly N non-overlapping,
    /// fully-valid modules with a series-first string assignment.
    #[test]
    fn greedy_structural_invariants(seed in 0u64..500, m in 1usize..4, n in 1usize..3,
                                    cx in 2.0..10.0f64) {
        let data = dataset(14.0, 5.0, seed, cx);
        let config = FloorplanConfig::paper(Topology::new(m, n).unwrap()).unwrap();
        let plan = greedy_placement(&data, &config).unwrap();
        prop_assert_eq!(plan.placement.len(), m * n);
        prop_assert_eq!(
            plan.placement.covered_cells().count(),
            m * n * config.footprint().num_cells()
        );
        for k in 0..plan.placement.len() {
            prop_assert_eq!(plan.string_of[k], k / m);
            for cell in plan.placement.cells_of(k) {
                prop_assert!(data.valid().is_set(cell), "module {k} on invalid cell");
            }
        }
    }

    /// The best single anchor bounds any block's mean suitability, and a
    /// pure suitability-greedy (no tie window) claims that anchor first.
    #[test]
    fn best_anchor_bounds_block_mean(seed in 0u64..300, cx in 2.0..10.0f64) {
        let data = dataset(14.0, 5.0, seed, cx);
        let config = FloorplanConfig::paper(Topology::new(2, 2).unwrap())
            .unwrap()
            .with_tie_tolerance(0.0)
            .with_distance_threshold(None);
        let map = SuitabilityMap::compute(&data, &config);
        let best_anchor = map
            .anchor_scores(config.footprint())
            .iter()
            .copied()
            .filter(|s| s.is_finite())
            .fold(f64::NEG_INFINITY, f64::max);
        let block = traditional_placement_with_map(&data, &config, &map).unwrap();
        prop_assert!(best_anchor >= block.mean_anchor_score - 1e-9);
        let greedy = greedy_placement_with_map(&data, &config, &map).unwrap();
        // First pick of the pure greedy is the global best anchor, so its
        // mean stays within the landscape's span.
        prop_assert!(greedy.mean_anchor_score <= best_anchor + 1e-9);
    }

    /// Energy reports always satisfy net <= gross <= sum-of-modules, with
    /// non-negative wiring loss and a mismatch fraction in [0, 1]. The
    /// sum-of-modules energy is the sum of the anchors' standalone
    /// energies E_a (a 1×1 evaluation at each), so net <= Σ E_a.
    #[test]
    fn energy_report_inequalities(seed in 0u64..300, m in 1usize..4, cx in 2.0..10.0f64) {
        let data = dataset(14.0, 5.0, seed, cx);
        let config = FloorplanConfig::paper(Topology::new(m, 2).unwrap()).unwrap();
        let plan = greedy_placement(&data, &config).unwrap();
        let r = EnergyEvaluator::new(&config).evaluate(&data, &plan).unwrap();
        prop_assert!(r.wiring_loss.as_wh() >= 0.0);
        prop_assert!(r.energy.as_wh() <= r.gross_energy.as_wh() + 1e-9);
        prop_assert!(r.gross_energy.as_wh() <= r.sum_of_module_energy.as_wh() + 1e-9);
        let single = FloorplanConfig::paper(Topology::new(1, 1).unwrap()).unwrap();
        let standalone: f64 = plan
            .placement
            .modules()
            .iter()
            .map(|module| {
                let mut placement = Placement::new(data.dims(), single.footprint());
                placement.try_place(module.anchor, data.valid()).unwrap();
                let one = FloorplanResult {
                    placement,
                    string_of: vec![0],
                    mean_anchor_score: f64::NAN,
                };
                let e_a = EnergyEvaluator::new(&single).evaluate(&data, &one).unwrap();
                e_a.energy.as_wh()
            })
            .sum();
        let sum = r.sum_of_module_energy.as_wh();
        prop_assert!((sum - standalone).abs() <= 1e-9 * sum,
            "sum of module energy {} != sum of standalone energies {}", sum, standalone);
        prop_assert!((0.0..=1.0).contains(&r.mismatch_fraction()));
        prop_assert!(r.extra_wire.as_meters() >= 0.0);
        prop_assert!((r.wire_cost - r.extra_wire.as_meters()).abs() < 1e-9);
    }

    /// Parallel evaluation is bit-identical to sequential: for random
    /// roofs, topologies and thread counts, the `EnergyReport` produced on
    /// `PV_THREADS=1` equals the one produced on `PV_THREADS=k` *exactly*
    /// (full struct equality, no tolerance) — the determinism contract of
    /// `pv_runtime`'s fixed chunking and ordered reduction.
    #[test]
    fn parallel_evaluation_is_bit_identical(seed in 0u64..300, m in 1usize..4, n in 1usize..3,
                                            cx in 2.0..10.0f64, threads in 2usize..9) {
        let data = dataset(14.0, 5.0, seed, cx);
        let config = FloorplanConfig::paper(Topology::new(m, n).unwrap()).unwrap();
        let plan = greedy_placement(&data, &config).unwrap();
        let sequential = EnergyEvaluator::new(&config)
            .with_runtime(Runtime::sequential())
            .evaluate(&data, &plan)
            .unwrap();
        let parallel = EnergyEvaluator::new(&config)
            .with_runtime(Runtime::with_threads(threads))
            .evaluate(&data, &plan)
            .unwrap();
        prop_assert_eq!(sequential, parallel);
    }

    /// Incremental delta evaluation is exact: after **any** sequence of
    /// try_move proposals — each randomly committed or rolled back — the
    /// context's cached re-score equals both a cold `EnergyEvaluator::
    /// evaluate` of the final placement and the context's own from-scratch
    /// `evaluate_cold`, bit for bit (full struct equality, no tolerance),
    /// on any thread count. Extends `parallel_evaluation_is_bit_identical`
    /// to the mutation path.
    #[test]
    fn incremental_evaluation_is_bit_identical_to_cold(
        seed in 0u64..200, m in 1usize..4, n in 1usize..3, cx in 2.0..10.0f64,
        threads in 1usize..9,
        moves in prop::collection::vec((any::<u16>(), any::<u16>(), any::<bool>()), 0..10)
    ) {
        let data = dataset(14.0, 5.0, seed, cx);
        let config = FloorplanConfig::paper(Topology::new(m, n).unwrap()).unwrap();
        let plan = greedy_placement(&data, &config).unwrap();
        let map = SuitabilityMap::compute(&data, &config);
        let anchors: Vec<CellCoord> = map
            .anchor_scores(config.footprint())
            .enumerate()
            .filter(|(_, s)| s.is_finite())
            .map(|(c, _)| c)
            .collect();
        prop_assert!(!anchors.is_empty());

        let evaluator = EnergyEvaluator::new(&config)
            .with_runtime(Runtime::with_threads(threads));
        let memo = TraceMemo::new();
        let mut ctx = evaluator.context(&data, &plan, Some(&memo)).unwrap();
        for &(kv, av, accept) in &moves {
            let k = kv as usize % plan.placement.len();
            let anchor = anchors[av as usize % anchors.len()];
            if ctx.try_move(k, anchor).is_ok() {
                if accept {
                    ctx.commit_move();
                } else {
                    ctx.rollback_move();
                }
            }
        }

        // Cold reference: a fresh evaluation of the final placement.
        let mut placement = Placement::new(data.dims(), config.footprint());
        for a in ctx.anchors() {
            placement.try_place(a, data.valid()).unwrap();
        }
        let final_plan = FloorplanResult {
            placement,
            string_of: plan.string_of.clone(),
            mean_anchor_score: f64::NAN,
        };
        let cold = evaluator.evaluate(&data, &final_plan).unwrap();
        prop_assert_eq!(ctx.evaluate(), cold.clone());
        prop_assert_eq!(ctx.evaluate_cold(), cold);
    }

    /// The suitability map scores valid cells finitely and positively
    /// under daylight, and leaves exactly the invalid cells NaN.
    #[test]
    fn suitability_nan_pattern(seed in 0u64..300, cx in 2.0..10.0f64) {
        let data = dataset(14.0, 5.0, seed, cx);
        let config = FloorplanConfig::paper(Topology::new(2, 1).unwrap()).unwrap();
        let map = SuitabilityMap::compute(&data, &config);
        for cell in data.dims().iter() {
            let s = map.score(cell);
            if data.valid().is_set(cell) {
                prop_assert!(s.is_finite() && s >= 0.0, "valid cell {cell:?} score {s}");
            } else {
                prop_assert!(s.is_nan(), "invalid cell {cell:?} scored {s}");
            }
        }
    }

    /// The word-column suitability kernel is exact: on planar and
    /// undulating roofs, at 1, 2 and 5 threads, every score and percentile
    /// equals the per-cell `irradiance` + `select_nth_unstable_by`
    /// reference bit for bit.
    #[test]
    fn suitability_kernel_matches_per_cell_reference(
        seed in 0u64..300, cx in 2.0..10.0f64, undulating in any::<bool>(),
        correction in any::<bool>(),
    ) {
        let data = roof_dataset(9.0, 4.2, seed, cx, undulating);
        let config = FloorplanConfig::paper(Topology::new(2, 1).unwrap())
            .unwrap()
            .with_temperature_correction(correction);
        let want = reference_suitability(&data, &config);
        for threads in [1usize, 2, 5] {
            let map = SuitabilityMap::compute_with(&data, &config, Runtime::with_threads(threads));
            let got: Vec<(u64, u64)> = map
                .scores()
                .iter()
                .zip(map.irradiance_percentile().iter())
                .map(|(s, g)| (s.to_bits(), g.to_bits()))
                .collect();
            prop_assert!(got == want, "{} thread(s), undulating {}", threads, undulating);
        }
    }

    /// A permissive tie window can only trade suitability for wiring:
    /// mean anchor score never improves as the window widens.
    #[test]
    fn tie_window_monotonicity(seed in 0u64..200) {
        let data = dataset(16.0, 5.0, seed, 8.0);
        let base = FloorplanConfig::paper(Topology::new(4, 1).unwrap()).unwrap();
        let tight = greedy_placement(&data, &base.clone().with_tie_tolerance(0.0)).unwrap();
        let wide = greedy_placement(&data, &base.with_tie_tolerance(0.2)).unwrap();
        prop_assert!(wide.mean_anchor_score <= tight.mean_anchor_score + 1e-9);
    }
}
