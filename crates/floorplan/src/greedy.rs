//! The paper's greedy floorplanning algorithm (Sec. III-C, Fig. 5).
//!
//! Exhaustive placement is hopeless (`O(N^Ng)`; ~10⁶⁷ for 20 modules on a
//! 100 m² roof) and admits no bounding because panel power is only defined
//! once *all* modules are placed. The paper's answer is a greedy ranking:
//! compute a per-cell suitability, sort candidate positions, and allocate
//! modules in decreasing suitability order with three refinements, all
//! implemented here:
//!
//! 1. **series-first enumeration** — consecutive placements (which land on
//!    similar-suitability cells) fill one series string before starting the
//!    next, avoiding the weak-module bottleneck;
//! 2. **distance threshold** — a candidate is skipped when it lies farther
//!    from the already-placed modules than twice their average spread;
//! 3. **wiring tie-break** — among equal-suitability candidates, the one
//!    closest (Manhattan) to the previous module of the current string wins.

use crate::config::FloorplanConfig;
use crate::error::FloorplanError;
use crate::suitability::SuitabilityMap;
use pv_geom::{euclidean, manhattan, CellCoord, Placement, Point};
use pv_gis::SolarDataset;

/// The outcome of a placement algorithm: module positions (in enumeration
/// order) plus the string each module belongs to.
#[derive(Clone, Debug)]
pub struct FloorplanResult {
    /// The geometric placement; module `k` is the `k`-th enumerated module.
    pub placement: Placement,
    /// `string_of[k]` = series string of module `k` (0-based).
    pub string_of: Vec<usize>,
    /// Mean anchor suitability of the chosen positions (diagnostic).
    pub mean_anchor_score: f64,
}

/// Runs the paper's greedy placement on a dataset.
///
/// # Errors
///
/// Returns [`FloorplanError::NotEnoughSpace`] when fewer than `N` modules
/// fit the suitable area.
///
/// ```
/// use pv_floorplan::{greedy_placement, FloorplanConfig};
/// use pv_gis::{RoofBuilder, SolarExtractor, Site};
/// use pv_model::Topology;
/// use pv_units::{Meters, SimulationClock};
/// let roof = RoofBuilder::new(Meters::new(8.0), Meters::new(4.0)).build();
/// let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(2, 120))
///     .extract(&roof);
/// let config = FloorplanConfig::paper(Topology::new(2, 2)?)?;
/// let plan = greedy_placement(&data, &config)?;
/// assert_eq!(plan.placement.len(), 4);
/// assert_eq!(plan.string_of, vec![0, 0, 1, 1]); // series-first
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn greedy_placement(
    dataset: &SolarDataset,
    config: &FloorplanConfig,
) -> Result<FloorplanResult, FloorplanError> {
    let map = SuitabilityMap::compute(dataset, config);
    greedy_placement_with_map(dataset, config, &map)
}

/// Same as [`greedy_placement`] but reusing a precomputed suitability map
/// (the expensive part, one per site). The production entry point:
/// [`fit_topology`](crate::fit_topology), the placement service and every
/// harness place greedy through it.
///
/// # Errors
///
/// Returns [`FloorplanError::NotEnoughSpace`] when fewer than `N` modules
/// fit the suitable area.
pub fn greedy_placement_with_map(
    dataset: &SolarDataset,
    config: &FloorplanConfig,
    map: &SuitabilityMap,
) -> Result<FloorplanResult, FloorplanError> {
    let footprint = config.footprint();
    let topology = config.topology();
    let n_modules = topology.num_modules();
    let valid = dataset.valid();

    // Line 1-2 of Fig. 5: suitability matrix, then candidate anchors sorted
    // in non-increasing order of (footprint-mean) suitability.
    let anchor_scores = map.anchor_scores(footprint);
    let mut candidates: Vec<(CellCoord, f64)> = anchor_scores
        .enumerate()
        .filter(|(_, s)| s.is_finite())
        .map(|(c, s)| (c, *s))
        .collect();
    // Quantize scores (9 significant digits) before ranking: anchors whose
    // suitability differs only by float noise are true ties, and breaking
    // them by coordinate order packs from a corner instead of scattering
    // mid-roof on near-uniform surfaces.
    let max_score = candidates
        .iter()
        .map(|(_, s)| *s)
        .fold(f64::MIN_POSITIVE, f64::max);
    let quantize = |s: f64| (s / max_score * 1e9).round();
    candidates.sort_by(|a, b| {
        quantize(b.1)
            .total_cmp(&quantize(a.1))
            .then_with(|| a.0.cmp(&b.0))
    });

    let mut placement = Placement::new(dataset.dims(), footprint);
    let mut string_of = Vec::with_capacity(n_modules);
    let mut score_sum = 0.0;

    let pitch = footprint.pitch().value();
    let half_w = footprint.width_cells() as f64 / 2.0;
    let half_h = footprint.height_cells() as f64 / 2.0;
    let center_of =
        |c: CellCoord| Point::new((c.x as f64 + half_w) * pitch, (c.y as f64 + half_h) * pitch);

    // Lines 4-10: allocate modules greedily.
    for module_idx in 0..n_modules {
        let string = if config.series_first() {
            topology.string_of(module_idx)
        } else {
            // Ablation: interleave consecutive modules across strings.
            module_idx % topology.strings()
        };
        // Previous module of the same string, if any (wiring tie-break
        // target and the other end of the next series connection).
        let prev_in_string = (0..module_idx).rev().find(|&k| string_of[k] == string);

        // Line 5's filter: twice the average spread of placed modules.
        let threshold = distance_threshold(&placement, config.distance_threshold_factor());

        let tie = config.tie_tolerance();
        let tie_target = prev_in_string.map(|k| placement.center(k));
        let mut pick = select_candidate(
            &mut candidates,
            &placement,
            valid,
            threshold,
            tie,
            tie_target,
            center_of,
        );
        // The threshold can over-filter on fragmented roofs; the paper's
        // loop would then run past the list end. We retry unfiltered so a
        // feasible placement is always completed when space exists.
        if pick.is_none() {
            pick = select_candidate(
                &mut candidates,
                &placement,
                valid,
                f64::INFINITY,
                tie,
                tie_target,
                center_of,
            );
        }

        let Some((idx, anchor, score)) = pick else {
            return Err(FloorplanError::NotEnoughSpace {
                placed: placement.len(),
                requested: n_modules,
            });
        };

        // Lines 6-7: place and remove covered points from L.
        placement
            .try_place(anchor, valid)
            .expect("selected candidate must be placeable");
        candidates.remove(idx);
        string_of.push(string);
        score_sum += score;
    }

    Ok(FloorplanResult {
        placement,
        string_of,
        mean_anchor_score: score_sum / n_modules as f64,
    })
}

/// The paper's empirical distance threshold: `factor ×` the average
/// pairwise distance of the already-placed modules. Unlimited until two
/// modules are placed (the spread is undefined before that).
fn distance_threshold(placement: &Placement, factor: Option<f64>) -> f64 {
    let Some(factor) = factor else {
        return f64::INFINITY;
    };
    let n = placement.len();
    if n < 2 {
        return f64::INFINITY;
    }
    let mut total = 0.0;
    let mut pairs = 0u32;
    for i in 0..n {
        for j in (i + 1)..n {
            total += euclidean(placement.center(i), placement.center(j)).as_meters();
            pairs += 1;
        }
    }
    factor * total / f64::from(pairs)
}

/// Scans the sorted candidate list for the best placeable anchor within the
/// distance threshold, applying the wiring tie-break among candidates whose
/// suitability ties the front-runner's.
///
/// Entries found covered by an earlier module (Line 7's removal) are
/// **compacted out of the list in place** while scanning, so they are
/// dropped exactly once instead of being skipped O(cells) times by every
/// later pick. The returned index points into the compacted list; the
/// caller removes the picked entry itself.
fn select_candidate(
    candidates: &mut Vec<(CellCoord, f64)>,
    placement: &Placement,
    valid: &pv_geom::CellMask,
    threshold: f64,
    tie_tolerance: f64,
    tie_target: Option<Point>,
    center_of: impl Fn(CellCoord) -> Point,
) -> Option<(usize, CellCoord, f64)> {
    // The placed-modules centroid is invariant across the scan — compute
    // it once per call, not once per candidate (the scan visits O(cells)
    // candidates per pick).
    let centroid = if threshold.is_infinite() || placement.is_empty() {
        None
    } else {
        let n = placement.len() as f64;
        let mut cx = 0.0;
        let mut cy = 0.0;
        for k in 0..placement.len() {
            let p = placement.center(k);
            cx += p.x;
            cy += p.y;
        }
        Some(Point::new(cx / n, cy / n))
    };
    let within = |anchor: CellCoord| -> bool {
        // Distance from the candidate to the placed modules' centroid.
        centroid.is_none_or(|c| euclidean(center_of(anchor), c).as_meters() <= threshold)
    };

    // `front_score` is the best suitability of any eligible candidate; the
    // scan continues through its tie window (scores within `tie_tolerance`
    // of it) picking the candidate nearest to `tie_target`. `write`/`read`
    // compact consumed entries away as the scan passes them.
    let mut front_score = f64::NEG_INFINITY;
    let mut best: Option<(usize, CellCoord, f64)> = None;
    let mut best_distance = f64::INFINITY;
    let n = candidates.len();
    let mut write = 0usize;
    let mut read = 0usize;
    while read < n {
        let (anchor, score) = candidates[read];
        if best.is_some() && score < front_score * (1.0 - tie_tolerance) {
            break; // past the tie window of the front-runner
        }
        if placement.check(anchor, valid).is_err() {
            // Covered by an earlier module — compacted away for good.
            read += 1;
            continue;
        }
        candidates[write] = (anchor, score);
        let live_idx = write;
        write += 1;
        read += 1;
        if !within(anchor) {
            continue;
        }
        let Some(target) = tie_target else {
            best = Some((live_idx, anchor, score));
            break; // no tie-break: first hit wins
        };
        let distance = manhattan(center_of(anchor), target).as_meters();
        if best.is_none() {
            front_score = score;
        }
        if best.is_none() || distance < best_distance {
            best = Some((live_idx, anchor, score));
            best_distance = distance;
        }
    }
    if write < read {
        candidates.copy_within(read..n, write);
        candidates.truncate(n - (read - write));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_gis::{Obstacle, RoofBuilder, Site, SolarExtractor};
    use pv_model::Topology;
    use pv_units::{Meters, SimulationClock};

    fn extract(roof: &pv_gis::Dsm, days: u32) -> SolarDataset {
        SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(days, 120))
            .seed(11)
            .extract(roof)
    }

    fn config(m: usize, n: usize) -> FloorplanConfig {
        FloorplanConfig::paper(Topology::new(m, n).unwrap()).unwrap()
    }

    #[test]
    fn places_requested_module_count_without_overlap() {
        let roof = RoofBuilder::new(Meters::new(12.0), Meters::new(5.0)).build();
        let data = extract(&roof, 2);
        let plan = greedy_placement(&data, &config(4, 2)).unwrap();
        assert_eq!(plan.placement.len(), 8);
        assert_eq!(
            plan.placement.covered_cells().count(),
            8 * config(4, 2).footprint().num_cells()
        );
    }

    #[test]
    fn series_first_string_assignment() {
        let roof = RoofBuilder::new(Meters::new(12.0), Meters::new(5.0)).build();
        let data = extract(&roof, 2);
        let plan = greedy_placement(&data, &config(3, 2)).unwrap();
        assert_eq!(plan.string_of, vec![0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn interleaved_assignment_when_series_first_off() {
        let roof = RoofBuilder::new(Meters::new(12.0), Meters::new(5.0)).build();
        let data = extract(&roof, 2);
        let plan = greedy_placement(&data, &config(3, 2).with_series_first(false)).unwrap();
        assert_eq!(plan.string_of, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn avoids_shaded_band() {
        // A tall wall along the bottom edge shades the eave-side band;
        // greedy should crowd modules toward the ridge.
        let roof = RoofBuilder::new(Meters::new(10.0), Meters::new(5.0))
            .obstacle(Obstacle::off_roof_block(
                Meters::new(0.0),
                Meters::new(4.6),
                Meters::new(10.0),
                Meters::new(0.4),
                Meters::new(3.0),
            ))
            .build();
        let data = extract(&roof, 4);
        let plan = greedy_placement(&data, &config(2, 2)).unwrap();
        let mean_y: f64 = (0..plan.placement.len())
            .map(|k| plan.placement.center(k).y)
            .sum::<f64>()
            / plan.placement.len() as f64;
        // Roof is 5 m deep; shaded band at the bottom pushes modules up.
        assert!(mean_y < 2.5, "mean y {mean_y}");
    }

    #[test]
    fn not_enough_space_is_reported() {
        let roof = RoofBuilder::new(Meters::new(3.2), Meters::new(1.6)).build(); // 2x2 modules max
        let data = extract(&roof, 1);
        let err = greedy_placement(&data, &config(4, 2)).unwrap_err();
        // Greedy packing is not maximal (the threshold can strand space);
        // what matters is the error reports partial progress and the goal.
        assert!(matches!(
            err,
            FloorplanError::NotEnoughSpace {
                placed: 1..=4,
                requested: 8
            }
        ));
    }

    #[test]
    fn deterministic() {
        let roof = RoofBuilder::new(Meters::new(12.0), Meters::new(5.0))
            .obstacle(Obstacle::chimney(
                Meters::new(6.0),
                Meters::new(2.0),
                Meters::new(0.8),
                Meters::new(0.8),
                Meters::new(1.5),
            ))
            .build();
        let data = extract(&roof, 2);
        let a = greedy_placement(&data, &config(4, 2)).unwrap();
        let b = greedy_placement(&data, &config(4, 2)).unwrap();
        assert_eq!(a.placement.modules(), b.placement.modules());
    }

    #[test]
    fn threshold_keeps_placement_compact() {
        // With an extreme threshold factor the plan must not scatter:
        // max pairwise distance bounded by factor * average, transitively.
        let roof = RoofBuilder::new(Meters::new(20.0), Meters::new(5.0)).build();
        let data = extract(&roof, 2);
        let tight = greedy_placement(&data, &config(4, 2)).unwrap();
        let loose = greedy_placement(&data, &config(4, 2).with_distance_threshold(None)).unwrap();
        let spread = |p: &FloorplanResult| -> f64 {
            let mut worst = 0.0f64;
            for i in 0..p.placement.len() {
                for j in (i + 1)..p.placement.len() {
                    worst = worst
                        .max(euclidean(p.placement.center(i), p.placement.center(j)).as_meters());
                }
            }
            worst
        };
        // On a uniform roof both stay compact-ish, but the thresholded one
        // can never be wider than the unfiltered one.
        assert!(spread(&tight) <= spread(&loose) + 1e-9);
    }

    #[test]
    fn higher_suitability_cells_are_preferred() {
        // Wall shading the left half: all modules land on the right.
        let roof = RoofBuilder::new(Meters::new(12.0), Meters::new(4.0))
            .obstacle(Obstacle::off_roof_block(
                Meters::new(0.0),
                Meters::new(0.0),
                Meters::new(0.4),
                Meters::new(4.0),
                Meters::new(4.0),
            ))
            .build();
        let data = extract(&roof, 4);
        let plan = greedy_placement(&data, &config(2, 1)).unwrap();
        for k in 0..plan.placement.len() {
            assert!(
                plan.placement.center(k).x > 3.0,
                "module {k} at {:?}",
                plan.placement.center(k)
            );
        }
    }
}
