//! Word-column gather of per-cell irradiance samples.
//!
//! The suitability metric (`pv_floorplan::SuitabilityMap`) needs, for every
//! valid cell, the cell's irradiance at every sun-up step. Produced one
//! cell at a time through [`SolarDataset::irradiance`], that series reads
//! the shadow table with a stride of one row per step, once per cell.
//! [`SampleGather`] walks the table one shadow *word* at a time instead:
//! the word's column over all sun-up steps is read once for its (up to)
//! 64 cells, and each cell's samples are then filled from per-step SoA
//! arrays in a branch-free loop. The table's layout stays private to this
//! crate; callers only see cells and sample slices.
//!
//! Every sample is bit-identical to `irradiance`, because the fill
//! performs the same operations in the same order:
//!
//! - `cos_i = (sx·n0 + sy·n1 + sz·n2).max(0)`;
//! - `beam = if shadowed { 0 } else { bn·cos_i }`;
//! - `g = beam + diffuse·svf + ground`.
//!
//! A shadowed cell's `0.0 + diffuse·svf` is exactly what the scalar path
//! adds for its zero beam.

use crate::dataset::SolarDataset;
use pv_geom::CellCoord;

/// Per-step SoA view of a dataset's sun-up steps, for gathering the
/// irradiance samples of the valid cells one shadow word at a time.
///
/// Built by [`SolarDataset::sample_gather`].
///
/// ```
/// use pv_gis::{GatherScratch, RoofBuilder, SolarExtractor, Site};
/// use pv_units::{Meters, SimulationClock};
///
/// let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0)).build();
/// let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(1, 120))
///     .extract(&roof);
/// let gather = data.sample_gather();
/// let sun_up: Vec<u32> = (0..data.num_steps()).filter(|&i| data.conditions(i).sun_up).collect();
/// let mut scratch = GatherScratch::default();
/// let mut cells = 0;
/// for word in 0..gather.num_words() {
///     gather.gather_word(word, &mut scratch, |cell, samples| {
///         for (&g, &i) in samples.iter().zip(&sun_up) {
///             assert_eq!(g, data.irradiance(cell, i).as_w_per_m2());
///         }
///         cells += 1;
///     });
/// }
/// assert_eq!(cells, data.valid().count());
/// ```
#[derive(Clone, Debug)]
pub struct SampleGather<'a> {
    dataset: &'a SolarDataset,
    /// Valid-cell bits of each shadow word.
    valid_words: Vec<u64>,
    /// Beam row of each sun-up step (`u32::MAX` for beamless steps).
    rows: Vec<u32>,
    /// Beam normal irradiance per sun-up step, W/m².
    beam_normal: Vec<f64>,
    /// Sun direction x component per sun-up step.
    sun_x: Vec<f64>,
    /// Sun direction y component per sun-up step.
    sun_y: Vec<f64>,
    /// Sun direction z component per sun-up step.
    sun_z: Vec<f64>,
    /// Plane-of-array sky diffuse (before SVF) per sun-up step, W/m².
    diffuse: Vec<f64>,
    /// Plane-of-array ground-reflected irradiance per sun-up step, W/m².
    ground: Vec<f64>,
}

/// Reusable buffers of [`SampleGather::gather_word`]; keep one per worker.
#[derive(Clone, Debug, Default)]
pub struct GatherScratch {
    /// The current word's shadow bits, one entry per sun-up step.
    column: Vec<u64>,
    /// The current cell's samples.
    samples: Vec<f64>,
}

impl SolarDataset {
    /// The word-column sample gather over this dataset's sun-up steps
    /// (see [`SampleGather`]).
    #[must_use]
    pub fn sample_gather(&self) -> SampleGather<'_> {
        let dims = self.dims();
        let mut valid_words = vec![0u64; dims.num_cells().div_ceil(64)];
        for cell in self.valid().iter_set() {
            let idx = dims.linear_index(cell);
            valid_words[idx / 64] |= 1 << (idx % 64);
        }
        let mut gather = SampleGather {
            dataset: self,
            valid_words,
            rows: Vec::new(),
            beam_normal: Vec::new(),
            sun_x: Vec::new(),
            sun_y: Vec::new(),
            sun_z: Vec::new(),
            diffuse: Vec::new(),
            ground: Vec::new(),
        };
        for (cond, &row) in self.step_conditions().iter().zip(self.beam_row_map()) {
            if !cond.sun_up {
                continue;
            }
            let [x, y, z] = cond.sun_direction;
            gather.rows.push(row);
            gather.beam_normal.push(cond.beam_normal.as_w_per_m2());
            gather.sun_x.push(x);
            gather.sun_y.push(y);
            gather.sun_z.push(z);
            gather.diffuse.push(cond.diffuse_poa.as_w_per_m2());
            gather.ground.push(cond.ground_poa.as_w_per_m2());
        }
        gather
    }
}

impl SampleGather<'_> {
    /// Number of samples per cell: the dataset's sun-up steps.
    #[inline]
    #[must_use]
    pub fn num_samples(&self) -> usize {
        self.rows.len()
    }

    /// Number of shadow words, the unit [`gather_word`](Self::gather_word)
    /// works on.
    #[inline]
    #[must_use]
    pub fn num_words(&self) -> usize {
        self.valid_words.len()
    }

    /// Calls `f(cell, samples)` for every valid cell of shadow word
    /// `word`, in linear cell order, where `samples[j]` is the cell's
    /// irradiance (W/m²) at the `j`-th sun-up step. `f` may reorder the
    /// samples in place.
    ///
    /// # Panics
    ///
    /// Panics if `word >= num_words()`.
    pub fn gather_word(
        &self,
        word: usize,
        scratch: &mut GatherScratch,
        mut f: impl FnMut(CellCoord, &mut [f64]),
    ) {
        let mut bits = self.valid_words[word];
        if bits == 0 {
            return;
        }
        let data = self.dataset;
        let GatherScratch { column, samples } = scratch;
        // The one strided pass over the shadow table for these 64 cells.
        column.clear();
        column.extend(self.rows.iter().map(|&row| data.shadow_word(row, word)));
        let n = column.len();
        samples.resize(n, 0.0);
        let (bn, sx, sy, sz) = (
            &self.beam_normal[..n],
            &self.sun_x[..n],
            &self.sun_y[..n],
            &self.sun_z[..n],
        );
        let (diffuse, ground, column) = (&self.diffuse[..n], &self.ground[..n], &column[..n]);
        let svfs = data.sky_view_factors();
        while bits != 0 {
            let bit = bits.trailing_zeros();
            bits &= bits - 1;
            let idx = word * 64 + bit as usize;
            let [n0, n1, n2] = data.cell_normal_linear(idx);
            let svf = f64::from(svfs[idx]);
            for (j, g) in samples.iter_mut().enumerate() {
                let shadowed = (column[j] >> bit) & 1 != 0;
                let cos_i = (sx[j] * n0 + sy[j] * n1 + sz[j] * n2).max(0.0);
                let beam = if shadowed { 0.0 } else { bn[j] * cos_i };
                *g = beam + diffuse[j] * svf + ground[j];
            }
            f(data.dims().coord_of(idx), &mut samples[..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsm::RoofBuilder;
    use crate::extract::SolarExtractor;
    use crate::obstacle::Obstacle;
    use crate::site::Site;
    use pv_units::{Degrees, Meters, SimulationClock};

    /// Every gathered sample equals the scalar `irradiance` bit for bit,
    /// and every valid cell (and no other) is visited exactly once.
    fn assert_matches_scalar(data: &SolarDataset) {
        let sun_up: Vec<u32> = (0..data.num_steps())
            .filter(|&i| data.conditions(i).sun_up)
            .collect();
        let gather = data.sample_gather();
        assert_eq!(gather.num_samples(), sun_up.len());
        let mut scratch = GatherScratch::default();
        let mut visited = Vec::new();
        for word in 0..gather.num_words() {
            gather.gather_word(word, &mut scratch, |cell, samples| {
                assert_eq!(samples.len(), sun_up.len());
                for (&g, &i) in samples.iter().zip(&sun_up) {
                    let want = data.irradiance(cell, i).as_w_per_m2();
                    assert_eq!(g.to_bits(), want.to_bits(), "cell {cell:?} step {i}");
                }
                // Callers may reorder the buffer; the next cell must not care.
                samples.reverse();
                visited.push(cell);
            });
        }
        let valid: Vec<CellCoord> = data.valid().iter_set().collect();
        assert_eq!(visited, valid);
    }

    #[test]
    fn gather_matches_scalar_irradiance_on_planar_and_undulating_roofs() {
        for undulating in [false, true] {
            let mut builder =
                RoofBuilder::new(Meters::new(7.0), Meters::new(3.0)).obstacle(Obstacle::chimney(
                    Meters::new(3.0),
                    Meters::new(1.0),
                    Meters::new(0.8),
                    Meters::new(0.8),
                    Meters::new(2.0),
                ));
            if undulating {
                builder = builder.undulation(Degrees::new(6.0), Meters::new(2.0), 5);
            }
            let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(3, 60))
                .seed(4)
                .extract(&builder.build());
            assert_eq!(data.cell_normal_data().is_some(), undulating);
            assert_matches_scalar(&data);
        }
    }

    #[test]
    fn gather_handles_a_period_without_sun() {
        // Two steps, both at midnight: no sun-up sample at all.
        let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0)).build();
        let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(2, 1440))
            .extract(&roof);
        assert_eq!(data.sample_gather().num_samples(), 0);
        assert_matches_scalar(&data);
    }
}
