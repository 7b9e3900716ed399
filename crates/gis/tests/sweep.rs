//! Property tests pinning the band sweep bit-identical to the per-group
//! kernel.
//!
//! `SolarDataset::sweep_mean_irradiance` hands each anchor the mean
//! irradiance of a footprint placed there; the exhaustive search takes
//! its candidates' traces from it instead of one
//! `mean_irradiance_group_into` pass per anchor, so the two must agree to
//! the last bit. The properties draw random planar and undulating roofs
//! with obstacles, random orientations (so some sun-up steps have the sun
//! behind the plane and no beam row), footprint widths that are not a
//! multiple of `LANES`, random step sub-ranges and random anchor subsets.

use proptest::prelude::*;
use pv_geom::{CellCoord, Footprint};
use pv_gis::{Dsm, Obstacle, RoofBuilder, Site, SolarDataset, SolarExtractor};
use pv_units::{Degrees, Meters, SimulationClock};

fn roof(undulating: bool, tilt: f64, azimuth: f64, chimney_x: f64, seed: u64) -> Dsm {
    let mut builder = RoofBuilder::new(Meters::new(4.4), Meters::new(2.2))
        .tilt(Degrees::new(tilt))
        .azimuth(Degrees::new(azimuth))
        .obstacle(Obstacle::chimney(
            Meters::new(chimney_x),
            Meters::new(0.8),
            Meters::new(0.6),
            Meters::new(0.6),
            Meters::new(1.5),
        ));
    if undulating {
        builder = builder.undulation(Degrees::new(6.0), Meters::new(1.6), seed);
    }
    builder.build()
}

/// Row-major cells of `footprint` at `anchor`: `Placement::cells_of`'s
/// order, the order the evaluator builds its groups in.
fn cells_at(anchor: CellCoord, footprint: Footprint) -> Vec<CellCoord> {
    (0..footprint.height_cells())
        .flat_map(|dy| {
            (0..footprint.width_cells()).map(move |dx| CellCoord::new(anchor.x + dx, anchor.y + dy))
        })
        .collect()
}

/// Every anchor of `anchors` gets the kernel's bits, in the order given.
fn assert_sweep_matches_kernel(
    data: &SolarDataset,
    footprint: Footprint,
    anchors: &[CellCoord],
    steps: std::ops::Range<u32>,
) {
    let mut seen = Vec::new();
    data.sweep_mean_irradiance(footprint, anchors, steps.clone(), |n, means| {
        let group = data.irradiance_group(&cells_at(anchors[n], footprint));
        let mut want = vec![0.0; steps.len()];
        data.mean_irradiance_group_into(&group, steps.clone(), &mut want);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(means),
            bits(&want),
            "anchor {:?}, footprint {}x{}, steps {steps:?}",
            anchors[n],
            footprint.width_cells(),
            footprint.height_cells()
        );
        seen.push(n);
    });
    assert_eq!(seen, (0..anchors.len()).collect::<Vec<_>>());
}

/// Every anchor where `footprint` fits the grid, in grid order.
fn grid_anchors(data: &SolarDataset, footprint: Footprint) -> Vec<CellCoord> {
    let dims = data.dims();
    dims.iter()
        .filter(|a| {
            a.x + footprint.width_cells() <= dims.width()
                && a.y + footprint.height_cells() <= dims.height()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sweep_is_bit_identical_to_the_group_kernel(
        undulating in any::<bool>(),
        tilt in 5.0f64..40.0,
        azimuth in 0.0f64..360.0,
        chimney_x in 0.4f64..3.4,
        seed in 0u64..1000,
        w in 1usize..10,
        h in 1usize..5,
        first in 0u32..40,
        len in 0u32..40,
        keep_every in 1usize..4,
    ) {
        let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(2, 60))
            .seed(seed)
            .extract(&roof(undulating, tilt, azimuth, chimney_x, seed));
        let footprint = Footprint::from_cells(w, h, Meters::new(0.2));
        let anchors: Vec<CellCoord> = grid_anchors(&data, footprint)
            .into_iter()
            .step_by(keep_every)
            .collect();
        let end = (first + len).min(data.num_steps());
        assert_sweep_matches_kernel(&data, footprint, &anchors, first.min(end)..end);
    }
}

#[test]
fn sweep_covers_beamless_sun_up_steps_and_any_anchor_order() {
    // A north-facing 20° roof in January: at midday the sun clears the
    // plane, in the morning and evening it is up but behind the plane, so
    // those steps carry no beam row, while undulation still tilts some
    // cells toward the sun.
    let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(2, 30))
        .seed(4)
        .extract(&roof(true, 20.0, 0.0, 2.0, 4));
    let beamless: Vec<u32> = (0..data.num_steps())
        .filter(|&i| data.conditions(i).sun_up && data.beam_row_map()[i as usize] == u32::MAX)
        .collect();
    assert!(
        (0..data.num_steps()).any(|i| !data.conditions(i).sun_up),
        "no sun-down step"
    );
    assert!(
        data.beam_row_map().iter().any(|&r| r != u32::MAX),
        "no beam step"
    );
    let lit_beamless = beamless.iter().any(|&i| {
        let s = data.conditions(i).sun_direction;
        data.dims().iter().any(|c| {
            let n = data.cell_normal(c);
            s[0] * n[0] + s[1] * n[1] + s[2] * n[2] > 0.0
        })
    });
    assert!(lit_beamless, "no beamless step with a sunward cell");

    let footprint = Footprint::from_cells(7, 3, Meters::new(0.2));
    let mut anchors = grid_anchors(&data, footprint);
    assert_sweep_matches_kernel(&data, footprint, &anchors, 0..data.num_steps());
    // Out of grid order the band recomputes rows, with the same bits.
    anchors.reverse();
    anchors.truncate(40);
    anchors.swap(3, 30);
    assert_sweep_matches_kernel(&data, footprint, &anchors, 5..data.num_steps() - 7);
}
