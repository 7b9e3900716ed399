//! Property tests pinning the lane kernels bit-identical to their scalar
//! references, on data drawn from real extracted datasets.
//!
//! The unit tests inside `pv_gis::lanes` pin the canonical tree order on
//! hand-computed values; these properties drive the same kernels with
//! adversarial *group shapes* (a single cell, a run straddling a shadow
//! word boundary, a full 64-cell word, random rectangles) over both
//! planar and undulating roofs, asserting `to_bits` equality.

use proptest::prelude::*;
use pv_geom::CellCoord;
use pv_gis::{lanes, Obstacle, RoofBuilder, Site, SolarDataset, SolarExtractor};
use pv_units::{Degrees, Meters, SimulationClock};
use std::sync::OnceLock;

/// One shared dataset per roof kind — extraction is the expensive part,
/// and the properties only need variety in *group shape* and *step*.
fn dataset(undulating: bool) -> &'static SolarDataset {
    static PLANAR: OnceLock<SolarDataset> = OnceLock::new();
    static UNDULATING: OnceLock<SolarDataset> = OnceLock::new();
    let build = move || {
        let mut builder =
            RoofBuilder::new(Meters::new(8.0), Meters::new(3.0)).obstacle(Obstacle::chimney(
                Meters::new(3.0),
                Meters::new(1.0),
                Meters::new(0.8),
                Meters::new(0.8),
                Meters::new(2.0),
            ));
        if undulating {
            builder = builder.undulation(Degrees::new(6.0), Meters::new(2.0), 5);
        }
        SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(2, 60))
            .seed(9)
            .extract(&builder.build())
    };
    if undulating {
        UNDULATING.get_or_init(build)
    } else {
        PLANAR.get_or_init(build)
    }
}

/// Cells whose row-major linear indices fall in `lo..hi` — the way to
/// pin a group to an exact shadow-word footprint without hardcoding the
/// grid resolution.
fn cells_with_linear(data: &SolarDataset, lo: usize, hi: usize) -> Vec<CellCoord> {
    let dims = data.dims();
    (lo..hi.min(dims.num_cells()))
        .map(|i| dims.coord_of(i))
        .collect()
}

/// The adversarial group shapes the lane kernels must not care about:
/// scalar tail only, word-boundary straddle, exactly one full word, and
/// a caller-chosen rectangle.
fn group_cells(data: &SolarDataset, shape: usize, x0: usize, y0: usize) -> Vec<CellCoord> {
    let dims = data.dims();
    match shape {
        // A single cell: the whole group is scalar tail.
        0 => vec![dims.coord_of((y0 * dims.width() + x0) % dims.num_cells())],
        // Straddles the first 64-bit shadow-word boundary.
        1 => cells_with_linear(data, 60, 68),
        // Exactly one full shadow word.
        2 => cells_with_linear(data, 64, 128),
        // A module-like rectangle anchored at (x0, y0).
        _ => {
            let x0 = x0.min(dims.width() - 4);
            let y0 = y0.min(dims.height() - 3);
            (x0..x0 + 4)
                .flat_map(|x| (y0..y0 + 3).map(move |y| CellCoord::new(x, y)))
                .collect()
        }
    }
}

/// Rebuilds the per-step shadow-word stream from the public per-cell
/// query, bit `linear_index(cell)` of word `index / 64`.
fn shadow_words(data: &SolarDataset, step: u32) -> Vec<u64> {
    let dims = data.dims();
    let mut words = vec![0u64; dims.num_cells().div_ceil(64)];
    for cell in dims.iter() {
        if data.is_shadowed(cell, step) {
            let bit = dims.linear_index(cell);
            words[bit / 64] |= 1u64 << (bit % 64);
        }
    }
    words
}

/// First sun-up step at or after `raw`, wrapping around the clock.
fn sun_up_step(data: &SolarDataset, raw: u32) -> u32 {
    let n = data.num_steps();
    (0..n)
        .map(|k| (raw + k) % n)
        .find(|&i| data.conditions(i).sun_up)
        .expect("a two-day clock has sun-up steps")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole contract: every lane kernel returns the same bits as
    /// its branchy scalar reference, for any group shape on either roof
    /// kind — shadowed beam sums, the unshadowed fast path, and the
    /// popcount census all agree with per-cell bit tests.
    #[test]
    fn lane_kernel_is_bit_identical_to_scalar(
        undulating: bool,
        shape in 0usize..4,
        x0 in 0usize..36,
        y0 in 0usize..12,
        raw in 0u32..48,
    ) {
        let data = dataset(undulating);
        let dims = data.dims();
        let cells = group_cells(data, shape, x0, y0);
        let linear: Vec<u32> = cells.iter().map(|&c| dims.linear_index(c) as u32).collect();
        let (mut nx, mut ny, mut nz) = (Vec::new(), Vec::new(), Vec::new());
        for &c in &cells {
            let n = data.cell_normal(c);
            nx.push(n[0]);
            ny.push(n[1]);
            nz.push(n[2]);
        }

        let step = sun_up_step(data, raw);
        let sun = data.conditions(step).sun_direction;
        let words = shadow_words(data, step);

        for shadow in [None, Some(words.as_slice())] {
            let lane = lanes::shadowed_beam_sum(&sun, &nx, &ny, &nz, &linear, shadow);
            let scalar = lanes::shadowed_beam_sum_scalar(&sun, &nx, &ny, &nz, &linear, shadow);
            prop_assert!(
                lane.to_bits() == scalar.to_bits(),
                "beam sum diverged: lane {} vs scalar {} (shadowed: {}, shape {})",
                lane, scalar, shadow.is_some(), shape
            );
        }

        // The planar census path: masked popcount vs per-cell bit tests.
        let masks: Vec<(u32, u64)> = {
            let mut m: Vec<(u32, u64)> = Vec::new();
            for &bit in &linear {
                let word = bit / 64;
                match m.binary_search_by_key(&word, |&(w, _)| w) {
                    Ok(pos) => m[pos].1 |= 1u64 << (bit % 64),
                    Err(pos) => m.insert(pos, (word, 1u64 << (bit % 64))),
                }
            }
            m
        };
        let census = lanes::masked_popcount(&words, &masks);
        let by_bit = cells.iter().filter(|&&c| data.is_shadowed(c, step)).count() as u32;
        prop_assert_eq!(census, by_bit);
    }

    /// End-to-end pin on the public API: the group kernel's per-step
    /// means agree with the per-cell scalar irradiance mean (1e-9
    /// relative) for the same adversarial shapes, and a sub-range call
    /// reproduces the matching slice of the full range bit for bit.
    #[test]
    fn group_kernel_matches_batched_column_on_adversarial_shapes(
        undulating: bool,
        shape in 0usize..4,
        x0 in 0usize..36,
        y0 in 0usize..12,
    ) {
        let data = dataset(undulating);
        let cells = group_cells(data, shape, x0, y0);
        let group = data.irradiance_group(&cells);
        let n = data.num_steps();
        let mut one = vec![0.0; n as usize];
        data.mean_irradiance_group_into(&group, 0..n, &mut one);
        for i in 0..n {
            let want = cells
                .iter()
                .map(|&c| data.irradiance(c, i).as_w_per_m2())
                .sum::<f64>()
                / cells.len() as f64;
            let got = one[i as usize];
            prop_assert!(
                (got - want).abs() < 1e-9 * want.abs().max(1.0),
                "step {} shape {}: kernel {} vs per-cell {}", i, shape, got, want
            );
        }
        let mut part = vec![0.0; 9];
        data.mean_irradiance_group_into(&group, 17..26, &mut part);
        prop_assert_eq!(&one[17..26], &part[..]);
    }

    /// The chunked sum is invariant to input length (tail handling) and
    /// bit-equal to the strided scalar reference even under heavy
    /// cancellation.
    #[test]
    fn chunked_sum_matches_strided_scalar(
        xs in prop::collection::vec(-1.0e12..1.0e12f64, 0..200),
    ) {
        prop_assert_eq!(lanes::sum(&xs).to_bits(), lanes::sum_scalar(&xs).to_bits());
    }
}
