//! The end-to-end solar-data extraction pipeline (paper Sec. IV).

use crate::clearsky::ClearSky;
use crate::dataset::{SolarDataset, StepConditions};
use crate::decomposition::decompose_ghi;
use crate::dsm::Dsm;
use crate::horizon::HorizonMap;
use crate::site::Site;
use crate::sunpos::{solar_position, LocalSun};
use crate::transposition::transpose;
use crate::weather::WeatherGenerator;
use pv_runtime::Runtime;
use pv_units::SimulationClock;

/// Beam-step rows per parallel work unit of the shadow-casting loop.
///
/// Fixed (never derived from the thread count) so the shadow table is
/// written in identical chunks on any [`Runtime`] configuration.
const SHADOW_CHUNK_ROWS: usize = 16;

/// Builder/driver for turning a [`Dsm`] into a [`SolarDataset`].
///
/// Mirrors the paper's enabling infrastructure (its ref \[15\]): DSM →
/// shadows; weather → decomposed irradiance; both → per-cell `G(t)`, `T(t)`.
///
/// ```
/// use pv_gis::{RoofBuilder, SolarExtractor, Site};
/// use pv_units::{Meters, SimulationClock};
/// let roof = RoofBuilder::new(Meters::new(8.0), Meters::new(4.0)).build();
/// let clock = SimulationClock::days_at_minutes(2, 120);
/// let data = SolarExtractor::new(Site::turin(), clock).seed(1).extract(&roof);
/// assert_eq!(data.num_steps(), 24);
/// ```
#[derive(Clone, Debug)]
pub struct SolarExtractor {
    site: Site,
    clock: SimulationClock,
    seed: u64,
    num_sectors: usize,
    weather: Option<WeatherGenerator>,
    runtime: Runtime,
}

impl SolarExtractor {
    /// Creates an extractor for a site and simulation period.
    ///
    /// The horizon map and the shadow table run on [`Runtime::from_env`]
    /// workers (`PV_THREADS` or the machine's parallelism); override with
    /// [`runtime`](Self::runtime). Results are bit-identical for every
    /// thread count.
    #[must_use]
    pub fn new(site: Site, clock: SimulationClock) -> Self {
        Self {
            site,
            clock,
            seed: 0,
            num_sectors: 64,
            weather: None,
            runtime: Runtime::from_env(),
        }
    }

    /// Sets the parallel runtime used by the horizon map and the shadow
    /// table.
    #[must_use]
    pub fn runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = runtime;
        self
    }

    /// Sets the weather seed (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of horizon azimuth sectors (default 64).
    ///
    /// # Panics
    ///
    /// Panics if fewer than 4.
    #[must_use]
    pub fn horizon_sectors(mut self, num_sectors: usize) -> Self {
        assert!(num_sectors >= 4, "need at least 4 azimuth sectors");
        self.num_sectors = num_sectors;
        self
    }

    /// Supplies a custom weather generator (overrides [`seed`](Self::seed)).
    #[must_use]
    pub fn weather(mut self, generator: WeatherGenerator) -> Self {
        self.weather = Some(generator);
        self
    }

    /// Runs the pipeline.
    #[must_use]
    pub fn extract(&self, dsm: &Dsm) -> SolarDataset {
        let geom = dsm.geometry();
        let dims = dsm.dims();
        let tilt = geom.tilt();
        let roof_az = geom.azimuth();
        let latitude = self.site.latitude();

        let horizon = HorizonMap::compute_with(dsm, self.num_sectors, self.runtime);
        let weather = self
            .weather
            .clone()
            .unwrap_or_else(|| WeatherGenerator::new(self.seed))
            .generate(self.clock);

        let num_steps = self.clock.num_steps() as usize;
        let mut steps = Vec::with_capacity(num_steps);
        let mut beam_row_of_step = vec![u32::MAX; num_steps];
        let mut beam_steps: Vec<LocalSun> = Vec::new();

        let mut clear_sky_day = u32::MAX;
        let mut clear_sky = ClearSky::new(0, self.site.linke_turbidity(0));

        for (i, step) in self.clock.steps().enumerate() {
            let day = step.day_of_year();
            if day != clear_sky_day {
                clear_sky_day = day;
                clear_sky = ClearSky::new(day, self.site.linke_turbidity(day));
            }
            let sun = solar_position(latitude, day, step.hour_of_day());
            let sample = &weather[i];

            if !sun.is_up() {
                steps.push(StepConditions {
                    ambient: sample.ambient,
                    ..StepConditions::default()
                });
                continue;
            }

            // Weather-modulated global horizontal, then Erbs decomposition
            // capped by the clear-sky beam.
            let ghi = clear_sky.extraterrestrial_horizontal(sun.elevation) * sample.clearness;
            let split = decompose_ghi(
                ghi,
                sample.clearness,
                sun.elevation,
                clear_sky.beam_normal(sun.elevation),
            );
            let local = LocalSun::from_sky(&sun, tilt, roof_az);
            let poa = transpose(
                &local,
                tilt,
                split.beam_normal,
                split.diffuse_horizontal,
                ghi,
                self.site.albedo(),
            );

            if poa.beam.as_w_per_m2() > 0.0 {
                beam_row_of_step[i] = beam_steps.len() as u32;
                beam_steps.push(local);
            }
            steps.push(StepConditions {
                beam_normal: split.beam_normal,
                diffuse_poa: poa.diffuse,
                ground_poa: poa.ground,
                sun_direction: sun.direction(),
                ambient: sample.ambient,
                sun_up: true,
            });
        }

        // Shadow table: one bit-packed row per beam step. This is the
        // extraction hot loop (beam steps × cells horizon tests); rows are
        // independent, so chunks of rows are written in place in parallel
        // by the row kernel — bit-identical to the sequential scan for any
        // thread count. A flat roof casts no shadows and keeps the zeros.
        let row_words = dims.num_cells().div_ceil(64);
        let mut shadow_rows = vec![0u64; beam_steps.len() * row_words];
        if !dsm.heights().iter().all(|&h| h <= 0.0) {
            // `max(1)`: a zero granularity would panic even on an empty table.
            let chunk_words = (SHADOW_CHUNK_ROWS * row_words).max(1);
            self.runtime
                .for_each_chunk_mut(&mut shadow_rows, chunk_words, |chunk, words| {
                    let first = chunk * SHADOW_CHUNK_ROWS;
                    for (row, sun) in words.chunks_exact_mut(row_words).zip(&beam_steps[first..]) {
                        horizon.shadow_row(sun.elevation, sun.plane_angle, row);
                    }
                });
        }

        let svf: Vec<f32> = dims
            .iter()
            .map(|c| horizon.sky_view_factor(c) as f32)
            .collect();

        let cell_normals = if dsm.has_undulation() {
            Some(
                dims.iter()
                    .map(|c| {
                        let n = dsm.cell_normal(c);
                        [n[0] as f32, n[1] as f32, n[2] as f32]
                    })
                    .collect(),
            )
        } else {
            None
        };

        SolarDataset::try_from_parts(
            self.clock,
            dims,
            dsm.valid().clone(),
            steps,
            svf,
            beam_row_of_step,
            shadow_rows,
            dsm.base_normal(),
            cell_normals,
        )
        .expect("extraction assembles consistent dataset parts")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsm::RoofBuilder;
    use crate::obstacle::Obstacle;
    use pv_geom::CellCoord;
    use pv_units::{Degrees, Meters};

    fn small_clock() -> SimulationClock {
        SimulationClock::days_at_minutes(4, 60)
    }

    #[test]
    fn clean_roof_has_uniform_irradiance() {
        let roof = RoofBuilder::new(Meters::new(6.0), Meters::new(3.0)).build();
        let data = SolarExtractor::new(Site::turin(), small_clock())
            .seed(3)
            .extract(&roof);
        let a = data.insolation(CellCoord::new(1, 1));
        let b = data.insolation(CellCoord::new(25, 10));
        assert!(a > 0.0);
        assert!((a - b).abs() < 1e-9, "uniform roof must be uniform");
    }

    #[test]
    fn chimney_shades_its_ridge_side_at_noon() {
        // Chimney on a south-facing roof in January: the low noon sun comes
        // from down-slope, so the shadow falls towards the ridge (-y).
        let roof = RoofBuilder::new(Meters::new(8.0), Meters::new(4.0))
            .obstacle(Obstacle::chimney(
                Meters::new(5.0),
                Meters::new(1.6),
                Meters::new(0.8),
                Meters::new(0.8),
                Meters::new(2.0),
            ))
            .build();
        let data = SolarExtractor::new(Site::turin(), small_clock())
            .seed(3)
            .extract(&roof);
        // 0.8 m ridge-ward of the chimney's north edge vs a far corner.
        let near_ridge = CellCoord::new(27, 4);
        let far_corner = CellCoord::new(2, 16);
        assert!(
            data.shadow_fraction(near_ridge) > data.shadow_fraction(far_corner),
            "near {} far {}",
            data.shadow_fraction(near_ridge),
            data.shadow_fraction(far_corner)
        );
        assert!(data.insolation(near_ridge) < data.insolation(far_corner));
    }

    #[test]
    fn night_steps_are_dark() {
        let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0)).build();
        let data = SolarExtractor::new(Site::turin(), small_clock())
            .seed(1)
            .extract(&roof);
        // Midnight of day 0 (step 0 at 00:00).
        assert!(!data.conditions(0).sun_up);
        assert_eq!(data.irradiance(CellCoord::new(0, 0), 0).as_w_per_m2(), 0.0);
    }

    #[test]
    fn noon_is_brighter_than_morning_on_average() {
        let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0)).build();
        let clock = SimulationClock::days_at_minutes(20, 60);
        let data = SolarExtractor::new(Site::turin(), clock)
            .seed(5)
            .extract(&roof);
        let cell = CellCoord::new(5, 5);
        let mean_at = |h: u32| {
            let vals: Vec<f64> = (0..20)
                .map(|d| data.irradiance(cell, d * 24 + h).as_w_per_m2())
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        assert!(mean_at(12) > mean_at(7));
    }

    #[test]
    fn extraction_is_thread_count_invariant() {
        let roof = RoofBuilder::new(Meters::new(8.0), Meters::new(4.0))
            .obstacle(Obstacle::chimney(
                Meters::new(5.0),
                Meters::new(1.6),
                Meters::new(0.8),
                Meters::new(0.8),
                Meters::new(2.0),
            ))
            .build();
        let base = SolarExtractor::new(Site::turin(), small_clock()).seed(9);
        let seq = base.clone().runtime(Runtime::sequential()).extract(&roof);
        for threads in [2usize, 5] {
            let par = base
                .clone()
                .runtime(Runtime::with_threads(threads))
                .extract(&roof);
            for cell in seq.dims().iter() {
                assert_eq!(
                    seq.insolation(cell).to_bits(),
                    par.insolation(cell).to_bits(),
                    "cell {cell:?} with {threads} threads"
                );
                assert_eq!(seq.shadow_fraction(cell), par.shadow_fraction(cell));
            }
        }
    }

    #[test]
    fn shadow_table_matches_per_cell_horizon_tests() {
        // 7.4 x 3.2 m at 0.2 m pitch: 37 x 16 = 592 cells, so every row
        // ends in a partial word whose padding bits must stay 0.
        let roof = RoofBuilder::new(Meters::new(7.4), Meters::new(3.2))
            .obstacle(Obstacle::chimney(
                Meters::new(4.0),
                Meters::new(1.2),
                Meters::new(0.8),
                Meters::new(0.8),
                Meters::new(2.0),
            ))
            .build();
        let dims = roof.dims();
        assert_ne!(dims.num_cells() % 64, 0);
        let horizon = HorizonMap::compute(&roof, 64);
        for threads in [1usize, 3] {
            let data = SolarExtractor::new(Site::turin(), small_clock())
                .seed(2)
                .runtime(Runtime::with_threads(threads))
                .extract(&roof);
            let mut beam_rows = 0;
            for i in 0..data.num_steps() {
                if data.beam_row_map()[i as usize] == u32::MAX {
                    continue;
                }
                beam_rows += 1;
                let step = data.clock().step_at(i);
                let sun = solar_position(
                    Site::turin().latitude(),
                    step.day_of_year(),
                    step.hour_of_day(),
                );
                let local =
                    LocalSun::from_sky(&sun, roof.geometry().tilt(), roof.geometry().azimuth());
                for cell in dims.iter() {
                    assert_eq!(
                        data.is_shadowed(cell, i),
                        horizon.is_shadowed(cell, local.elevation, local.plane_angle),
                        "cell {cell:?} step {i}"
                    );
                }
            }
            assert!(beam_rows > 0);
            let row_words = dims.num_cells().div_ceil(64);
            let tail = dims.num_cells() % 64;
            for row in data.shadow_row_data().chunks_exact(row_words) {
                assert_eq!(row[row_words - 1] >> tail, 0, "padding bits set");
            }
        }
    }

    #[test]
    fn periods_without_beam_steps_extract_an_empty_shadow_table() {
        let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0))
            .obstacle(Obstacle::chimney(
                Meters::new(1.0),
                Meters::new(0.6),
                Meters::new(0.6),
                Meters::new(0.6),
                Meters::new(1.0),
            ))
            .build();
        // Two steps, both at midnight.
        let clock = SimulationClock::days_at_minutes(2, 1440);
        for threads in [1usize, 2] {
            let data = SolarExtractor::new(Site::turin(), clock)
                .runtime(Runtime::with_threads(threads))
                .extract(&roof);
            assert!(data.shadow_row_data().is_empty());
            assert!(data.beam_row_map().iter().all(|&r| r == u32::MAX));
        }
    }

    #[test]
    fn seed_changes_dataset() {
        let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0)).build();
        let a = SolarExtractor::new(Site::turin(), small_clock())
            .seed(1)
            .extract(&roof);
        let b = SolarExtractor::new(Site::turin(), small_clock())
            .seed(2)
            .extract(&roof);
        let cell = CellCoord::new(3, 3);
        assert_ne!(a.insolation(cell), b.insolation(cell));
    }

    #[test]
    fn south_facing_tilt_collects_more_than_north_facing() {
        let south = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0))
            .azimuth(Degrees::new(180.0))
            .build();
        let north = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0))
            .azimuth(Degrees::new(0.0))
            .build();
        let clock = SimulationClock::days_at_minutes(10, 60);
        let cell = CellCoord::new(5, 5);
        let s = SolarExtractor::new(Site::turin(), clock)
            .seed(4)
            .extract(&south);
        let n = SolarExtractor::new(Site::turin(), clock)
            .seed(4)
            .extract(&north);
        assert!(s.insolation(cell) > n.insolation(cell) * 1.2);
    }
}
