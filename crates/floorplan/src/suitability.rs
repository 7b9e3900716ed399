//! The per-cell suitability metric (paper Sec. III-C).
//!
//! The paper distils each cell's temporal traces into a compact signature:
//! the 75th percentile of the irradiance distribution, corrected by a
//! factor `f(T)` that tracks `dPmax/dT`. The average would be a poor choice
//! because irradiance distributions are strongly skewed towards small
//! values; a high percentile captures "how good are this cell's good
//! hours", which is what determines the panel's productive output.

use crate::config::FloorplanConfig;
use pv_geom::{CellCoord, Footprint, Grid};
use pv_gis::{GatherScratch, SolarDataset};
use pv_model::Topology;
use pv_runtime::Runtime;
use pv_units::{Celsius, Irradiance};

/// Shadow words (64 cells each) per parallel work unit of the suitability
/// kernel. Fixed, never derived from the thread count.
const SUITABILITY_CHUNK_WORDS: usize = 4;

/// Per-cell suitability scores, plus the raw irradiance percentiles they
/// were derived from (Fig. 6-(b) material).
///
/// Invalid cells (outside the suitable area) carry `NaN`.
///
/// ```
/// use pv_floorplan::{FloorplanConfig, SuitabilityMap};
/// use pv_gis::{Obstacle, RoofBuilder, SolarExtractor, Site};
/// use pv_model::Topology;
/// use pv_units::{Meters, SimulationClock};
///
/// let roof = RoofBuilder::new(Meters::new(6.0), Meters::new(3.0))
///     .obstacle(Obstacle::chimney(Meters::new(2.0), Meters::new(1.0),
///                                 Meters::new(0.6), Meters::new(0.6),
///                                 Meters::new(1.5)))
///     .build();
/// let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(2, 120))
///     .extract(&roof);
/// let config = FloorplanConfig::paper(Topology::new(2, 1)?)?;
/// let map = SuitabilityMap::compute(&data, &config);
/// // Valid cells score finite and positive; the chimney's cells are NaN.
/// let clear = pv_geom::CellCoord::new(1, 1);
/// let blocked = pv_geom::CellCoord::new(11, 6); // inside the chimney
/// assert!(map.score(clear) > 0.0);
/// assert!(map.score(blocked).is_nan());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct SuitabilityMap {
    scores: Grid<f64>,
    g_percentile: Grid<f64>,
    percentile: f64,
}

impl SuitabilityMap {
    /// Computes the suitability of every valid cell of `dataset` under the
    /// metric configuration of `config`.
    ///
    /// Following the paper's formulation, percentiles are taken over the
    /// full `NT`-sample distribution — nights included. Since roughly half
    /// the samples are zero, the 75th percentile of the full distribution
    /// falls among *moderate-sun* hours, which is precisely where obstacle
    /// shading bites; a daylight-only percentile would sit in the bright
    /// summer-noon band that shadows rarely reach.
    ///
    /// Runs on [`Runtime::from_env`] workers (`PV_THREADS` or the
    /// machine's parallelism); [`compute_with`](Self::compute_with) takes
    /// an explicit runtime. The map is bit-identical for every thread
    /// count.
    #[must_use]
    pub fn compute(dataset: &SolarDataset, config: &FloorplanConfig) -> Self {
        Self::compute_with(dataset, config, Runtime::from_env())
    }

    /// [`compute`](Self::compute) on an explicit [`Runtime`].
    ///
    /// Cells are processed a shadow word at a time through
    /// [`SolarDataset::sample_gather`], whose samples equal
    /// [`SolarDataset::irradiance`] bit for bit; the percentile is an
    /// order statistic, unique whatever order the samples arrive in.
    #[must_use]
    pub fn compute_with(
        dataset: &SolarDataset,
        config: &FloorplanConfig,
        runtime: Runtime,
    ) -> Self {
        let dims = dataset.dims();
        let percentile = config.percentile();
        let total_samples = dataset.num_steps() as usize;

        let gather = dataset.sample_gather();
        // Night samples are exact zeros; rather than materializing them we
        // shift the percentile rank (a zero never outranks any daylight
        // sample).
        let num_dark = total_samples - gather.num_samples();

        let mut t_buf: Vec<f64> = Vec::with_capacity(total_samples);
        // Ambient temperature is cell-independent; take its percentile once
        // (over all steps, matching the G convention).
        for i in 0..dataset.num_steps() {
            t_buf.push(dataset.conditions(i).ambient.as_celsius());
        }
        let t_pct = percentile_of(&mut t_buf, percentile);

        let module = config.module();
        let f_of_t = |g_pct: f64| -> f64 {
            if !config.temperature_correction() {
                return 1.0;
            }
            // f(T) tracks dPmax/dT of Fig. 3 (middle plot): the module's
            // power derating at the percentile conditions, normalized to
            // 1 at the STC cell temperature of 25 degC.
            let tact =
                module.actual_temperature(Irradiance::from_w_per_m2(g_pct), Celsius::new(t_pct));
            (module.power_derating(tact) / module.power_derating(Celsius::STC)).max(0.0)
        };

        let chunks = runtime.map_chunks(gather.num_words(), SUITABILITY_CHUNK_WORDS, |words| {
            let mut scratch = GatherScratch::default();
            let mut out = Vec::new();
            for word in words {
                gather.gather_word(word, &mut scratch, |cell, samples| {
                    out.push((
                        cell,
                        percentile_with_implicit_zeros(samples, num_dark, percentile),
                    ));
                });
            }
            out
        });

        let mut g_percentile = Grid::filled(dims, f64::NAN);
        let mut scores = Grid::filled(dims, f64::NAN);
        for (cell, g_pct) in chunks.into_iter().flatten() {
            g_percentile[cell] = g_pct;
            scores[cell] = g_pct * f_of_t(g_pct);
        }

        Self {
            scores,
            g_percentile,
            percentile,
        }
    }

    /// The map under [`FloorplanConfig::paper`]'s metric settings. It
    /// does not depend on the topology, so it ranks `dataset` for every
    /// [`TOPOLOGY_LADDER`](crate::TOPOLOGY_LADDER) entry alike.
    #[must_use]
    pub fn paper(dataset: &SolarDataset, runtime: Runtime) -> Self {
        let topology = Topology::new(1, 1).expect("a single module is a valid topology");
        let config = FloorplanConfig::paper(topology).expect("the paper module fits its grid");
        Self::compute_with(dataset, &config, runtime)
    }

    /// Reassembles a map from its parts (the three getters), validating
    /// their consistency. Intended for decoders of untrusted bytes
    /// (`pv_store`); the computed path is [`compute`](Self::compute).
    ///
    /// # Errors
    ///
    /// Returns the name of the first inconsistent part: mismatched grid
    /// dimensions, or a percentile outside `(0, 1]`.
    pub fn from_parts(
        scores: Grid<f64>,
        g_percentile: Grid<f64>,
        percentile: f64,
    ) -> Result<Self, String> {
        if scores.dims() != g_percentile.dims() {
            return Err("score/percentile grid dims".into());
        }
        if !(percentile > 0.0 && percentile <= 1.0) {
            return Err("percentile out of range".into());
        }
        Ok(Self {
            scores,
            g_percentile,
            percentile,
        })
    }

    /// The suitability score grid (`NaN` on invalid cells).
    #[inline]
    #[must_use]
    pub const fn scores(&self) -> &Grid<f64> {
        &self.scores
    }

    /// The raw per-cell irradiance percentile (the paper's Fig. 6-(b) map,
    /// without temperature correction).
    #[inline]
    #[must_use]
    pub const fn irradiance_percentile(&self) -> &Grid<f64> {
        &self.g_percentile
    }

    /// Which percentile was used (0.75 in the paper).
    #[inline]
    #[must_use]
    pub const fn percentile(&self) -> f64 {
        self.percentile
    }

    /// Score of one cell (`NaN` when invalid).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    #[inline]
    #[must_use]
    pub fn score(&self, cell: CellCoord) -> f64 {
        self.scores[cell]
    }

    /// Mean score over a module footprint anchored at every feasible cell.
    ///
    /// Returns a grid where entry `(x, y)` is the mean suitability of the
    /// `w × h` footprint anchored there, or `NaN` when the footprint would
    /// cover any invalid cell or exit the grid. Uses summed-area tables, so
    /// the whole map costs O(cells).
    #[must_use]
    pub fn anchor_scores(&self, footprint: Footprint) -> Grid<f64> {
        let dims = self.scores.dims();
        let (w, h) = (footprint.width_cells(), footprint.height_cells());
        let (gw, gh) = (dims.width(), dims.height());

        // Summed-area tables of scores (invalid = 0) and validity counts.
        let mut sat = vec![0.0f64; (gw + 1) * (gh + 1)];
        let mut cnt = vec![0u32; (gw + 1) * (gh + 1)];
        for y in 0..gh {
            for x in 0..gw {
                let v = self.scores[CellCoord::new(x, y)];
                let (score, one) = if v.is_nan() { (0.0, 0) } else { (v, 1) };
                let i = (y + 1) * (gw + 1) + (x + 1);
                sat[i] = score + sat[i - 1] + sat[i - (gw + 1)] - sat[i - (gw + 1) - 1];
                cnt[i] = one + cnt[i - 1] + cnt[i - (gw + 1)] - cnt[i - (gw + 1) - 1];
            }
        }
        let rect = |table: &[f64], x0: usize, y0: usize| -> f64 {
            let (x1, y1) = (x0 + w, y0 + h);
            table[y1 * (gw + 1) + x1] - table[y0 * (gw + 1) + x1] - table[y1 * (gw + 1) + x0]
                + table[y0 * (gw + 1) + x0]
        };
        let rect_cnt = |x0: usize, y0: usize| -> u32 {
            let (x1, y1) = (x0 + w, y0 + h);
            // Sum the positive corners first to avoid u32 underflow.
            (cnt[y1 * (gw + 1) + x1] + cnt[y0 * (gw + 1) + x0])
                - cnt[y0 * (gw + 1) + x1]
                - cnt[y1 * (gw + 1) + x0]
        };

        Grid::from_fn(dims, |c| {
            if c.x + w > gw || c.y + h > gh {
                return f64::NAN;
            }
            let cells = (w * h) as u32;
            if rect_cnt(c.x, c.y) != cells {
                return f64::NAN; // footprint covers an invalid cell
            }
            rect(&sat, c.x, c.y) / f64::from(cells)
        })
    }
}

/// Anchors (top-left cells) of every `footprint` placement that lies
/// entirely on valid cells of `dataset`, in row-major order: exactly the
/// cells where [`SuitabilityMap::anchor_scores`] is finite, read from the
/// validity mask without computing a map.
pub(crate) fn fitting_anchors(dataset: &SolarDataset, footprint: Footprint) -> Vec<CellCoord> {
    let valid = dataset.valid();
    let (w, h) = (footprint.width_cells(), footprint.height_cells());
    valid
        .iter_set()
        .filter(|&anchor| valid.rect_is_set(anchor, w, h))
        .collect()
}

/// Nearest-rank percentile of a sample buffer (mutates the buffer order).
///
/// Returns 0 for an empty buffer.
fn percentile_of(samples: &mut [f64], percentile: f64) -> f64 {
    percentile_with_implicit_zeros(samples, 0, percentile)
}

/// Nearest-rank percentile of `samples` augmented by `num_zeros` implicit
/// zero samples (which never outrank any non-negative explicit sample).
fn percentile_with_implicit_zeros(samples: &mut [f64], num_zeros: usize, percentile: f64) -> f64 {
    let total = samples.len() + num_zeros;
    if total == 0 {
        return 0.0;
    }
    let rank = ((total as f64 * percentile).ceil() as usize).clamp(1, total) - 1;
    if rank < num_zeros {
        return 0.0;
    }
    let rank = rank - num_zeros;
    let (_, nth, _) = samples.select_nth_unstable_by(rank, f64::total_cmp);
    *nth
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_gis::{Obstacle, RoofBuilder, Site, SolarExtractor};
    use pv_units::{Meters, SimulationClock};

    fn config() -> FloorplanConfig {
        FloorplanConfig::paper(Topology::new(2, 1).unwrap()).unwrap()
    }

    #[test]
    fn percentile_of_known_sequence() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_of(&mut v, 0.75), 75.0);
        let mut v: Vec<f64> = (1..=4).map(f64::from).collect();
        assert_eq!(percentile_of(&mut v, 0.5), 2.0);
        assert_eq!(percentile_of(&mut [], 0.75), 0.0);
        let mut single = [42.0];
        assert_eq!(percentile_of(&mut single, 0.75), 42.0);
    }

    #[test]
    fn shaded_cells_score_lower() {
        let roof = RoofBuilder::new(Meters::new(8.0), Meters::new(4.0))
            .obstacle(Obstacle::chimney(
                Meters::new(4.0),
                Meters::new(1.6),
                Meters::new(0.8),
                Meters::new(0.8),
                Meters::new(2.0),
            ))
            .build();
        let clock = SimulationClock::days_at_minutes(6, 60);
        let data = SolarExtractor::new(Site::turin(), clock)
            .seed(2)
            .extract(&roof);
        let map = SuitabilityMap::compute(&data, &config());
        // Cell in the chimney's winter shadow band (ridge side) vs far cell.
        let shaded = map.score(CellCoord::new(22, 4));
        let open = map.score(CellCoord::new(4, 16));
        assert!(shaded < open, "shaded {shaded} open {open}");
    }

    #[test]
    fn invalid_cells_are_nan() {
        let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0))
            .obstacle(Obstacle::chimney(
                Meters::new(1.0),
                Meters::new(0.6),
                Meters::new(0.6),
                Meters::new(0.6),
                Meters::new(1.0),
            ))
            .build();
        let clock = SimulationClock::days_at_minutes(2, 120);
        let data = SolarExtractor::new(Site::turin(), clock)
            .seed(1)
            .extract(&roof);
        let map = SuitabilityMap::compute(&data, &config());
        // A chimney-footprint cell is invalid -> NaN score.
        assert!(map.score(CellCoord::new(6, 4)).is_nan());
        assert!(!map.score(CellCoord::new(0, 0)).is_nan());

        // The topology-free paper map equals the map of any paper topology,
        // bit for bit.
        let paper = SuitabilityMap::paper(&data, Runtime::sequential());
        let bits = |m: &SuitabilityMap| -> Vec<u64> {
            m.scores()
                .iter()
                .chain(m.irradiance_percentile().iter())
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&paper), bits(&map));
    }

    #[test]
    fn anchor_scores_reject_invalid_and_out_of_bounds() {
        let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0))
            .obstacle(Obstacle::chimney(
                Meters::new(2.0),
                Meters::new(0.8),
                Meters::new(0.4),
                Meters::new(0.4),
                Meters::new(1.0),
            ))
            .build();
        let clock = SimulationClock::days_at_minutes(2, 120);
        let data = SolarExtractor::new(Site::turin(), clock)
            .seed(1)
            .extract(&roof);
        let cfg = config();
        let map = SuitabilityMap::compute(&data, &cfg);
        let anchors = map.anchor_scores(cfg.footprint());
        // Bottom-right anchor exits the grid: 8x4 footprint on 20x10 grid.
        assert!(anchors[CellCoord::new(13, 7)].is_nan());
        // Bottom-left anchor clears the chimney (cells x 9-12, y 3-6).
        assert!(anchors[CellCoord::new(0, 6)].is_finite());
        // Anchor overlapping the chimney keep-out is NaN.
        assert!(anchors[CellCoord::new(6, 3)].is_nan());
    }

    #[test]
    fn anchor_scores_match_bruteforce_mean() {
        let roof = RoofBuilder::new(Meters::new(6.0), Meters::new(3.0)).build();
        let clock = SimulationClock::days_at_minutes(2, 120);
        let data = SolarExtractor::new(Site::turin(), clock)
            .seed(4)
            .extract(&roof);
        let cfg = config();
        let map = SuitabilityMap::compute(&data, &cfg);
        let anchors = map.anchor_scores(cfg.footprint());
        let fp = cfg.footprint();
        let anchor = CellCoord::new(3, 2);
        let mut sum = 0.0;
        for dy in 0..fp.height_cells() {
            for dx in 0..fp.width_cells() {
                sum += map.score(CellCoord::new(anchor.x + dx, anchor.y + dy));
            }
        }
        let mean = sum / fp.num_cells() as f64;
        assert!((anchors[anchor] - mean).abs() < 1e-9);
    }

    #[test]
    fn fitting_anchors_are_the_finite_anchor_scores() {
        let chimney = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0))
            .obstacle(Obstacle::chimney(
                Meters::new(2.0),
                Meters::new(0.8),
                Meters::new(0.4),
                Meters::new(0.4),
                Meters::new(1.0),
            ))
            .build();
        let mut roofs = vec![
            chimney,
            RoofBuilder::new(Meters::new(3.0), Meters::new(2.0)).build(),
        ];
        for index in 0..4 {
            let mut spec = pv_gis::synth::ScenarioSpec::generate(2018, index);
            spec.obstacle_density = 1.0;
            roofs.push(spec.build().dsm);
        }
        let clock = SimulationClock::days_at_minutes(1, 240);
        for roof in &roofs {
            let data = SolarExtractor::new(Site::turin(), clock)
                .seed(5)
                .runtime(Runtime::sequential())
                .extract(roof);
            let map = SuitabilityMap::compute_with(&data, &config(), Runtime::sequential());
            let portrait = config().with_portrait_modules();
            for footprint in [config().footprint(), portrait.footprint()] {
                let finite: Vec<CellCoord> = map
                    .anchor_scores(footprint)
                    .enumerate()
                    .filter(|(_, s)| s.is_finite())
                    .map(|(c, _)| c)
                    .collect();
                assert!(!finite.is_empty());
                assert_eq!(fitting_anchors(&data, footprint), finite);
            }
        }
    }

    #[test]
    fn temperature_correction_tracks_dp_dt() {
        let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0)).build();
        let clock = SimulationClock::days_at_minutes(4, 60);
        let data = SolarExtractor::new(Site::turin(), clock)
            .seed(3)
            .extract(&roof);
        let cfg = config();
        let with = SuitabilityMap::compute(&data, &cfg);
        let without =
            SuitabilityMap::compute(&data, &cfg.clone().with_temperature_correction(false));
        let c = CellCoord::new(5, 5);
        // The uncorrected score equals the raw percentile.
        assert_eq!(without.score(c), without.irradiance_percentile()[c]);
        // The corrected score differs by exactly the f(T) factor implied by
        // the module's power-temperature slope (above or below 1 depending
        // on season: these are January days, so Tact75 < 25 degC boosts it).
        let f = with.score(c) / without.score(c);
        assert!(f.is_finite() && f > 0.5 && f < 1.5, "f = {f}");
        assert!((f - 1.0).abs() > 1e-6, "correction must do something");
    }

    #[test]
    fn summer_correction_penalizes_hot_cells() {
        // Simulate high-summer days (days 170..) by a clock offset trick:
        // use a year clock and compare the same roof's winter-only scores
        // against correction-off; instead verify the f(T) direction
        // analytically: with a hot percentile temperature the factor < 1.
        let gamma = config().module().power_temperature_slope();
        let k = config().module().thermal_coefficient();
        let f_of = |t75: f64, g75: f64| (1.12 - gamma * (t75 + k * g75)) / (1.12 - gamma * 25.0);
        assert!(f_of(28.0, 800.0) < 1.0); // hot July afternoon percentile
        assert!(f_of(5.0, 300.0) > 1.0); // cold January percentile
    }
}
