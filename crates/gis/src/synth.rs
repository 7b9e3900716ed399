//! Procedural generation of diverse synthetic sites — the scenario corpus.
//!
//! The reproduction's three [`PaperRoof`](crate::PaperRoof)s are one
//! building archetype at one latitude. This module grows that into a
//! **corpus**: a seeded, deterministic generator of synthetic sites that
//! vary the roof archetype (flat, lean-to, gabled, L-shaped), the obstacle
//! population (pipes, dormers, chimneys, vents, HVAC cabinets, off-roof
//! blockers), the latitude (20°–60° N), the surrounding horizon (open
//! country to mountain valley) and the seasonal weather — each expressed
//! through the existing [`RoofBuilder`] / [`Obstacle`] / [`Dsm`] APIs, so
//! every downstream consumer (suitability, placers, evaluator) works on a
//! generated site exactly as it works on a paper roof.
//!
//! # Determinism model
//!
//! A corpus is a pure function of `(seed, count)`. Scenario `i` derives its
//! private seed as `split_seed(seed, i)` (a SplitMix64 hop) and is generated
//! from a fresh RNG — *no state flows between scenarios*, so the corpus is
//! reproducible on any thread count and any generation order, and a single
//! scenario can be rebuilt in isolation from its [`ScenarioSpec`].
//!
//! # Example
//!
//! ```
//! use pv_gis::synth::{CorpusPreset, ScenarioCorpus};
//! let corpus = ScenarioCorpus::preset(CorpusPreset::Smoke);
//! assert_eq!(corpus.len(), CorpusPreset::Smoke.scenario_count());
//! for s in corpus.scenarios() {
//!     assert!(s.dsm.valid().count() > 0, "{} has no placeable cells", s.name);
//! }
//! // Same preset again: byte-identical corpus.
//! let again = ScenarioCorpus::preset(CorpusPreset::Smoke);
//! assert_eq!(corpus.scenarios()[0].dsm.valid().count(),
//!            again.scenarios()[0].dsm.valid().count());
//! ```

use crate::dsm::{Dsm, RoofBuilder};
use crate::obstacle::{Obstacle, ObstacleKind};
use crate::scenario::paper_roofs;
use crate::site::Site;
use crate::weather::WeatherGenerator;
use pv_geom::Polygon;
use pv_units::{Degrees, Meters};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default corpus seed, recorded in EXPERIMENTS.md alongside every
/// portfolio measurement.
pub const CORPUS_SEED: u64 = 2018;

/// SplitMix64 hop deriving scenario `index`'s private seed from the corpus
/// seed. Each scenario owns an independent RNG stream, so corpus
/// generation is order- and thread-count-independent.
#[must_use]
pub fn split_seed(corpus_seed: u64, index: u32) -> u64 {
    let mut z =
        corpus_seed.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(u64::from(index) + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The structural archetype of a generated roof.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RoofArchetype {
    /// A near-flat industrial deck (tilt 2°–8°) crowded with service
    /// furniture: HVAC cabinets, vents, pipe runs.
    Flat,
    /// A lean-to plane (tilt 15°–35°) backed by the wall it leans against,
    /// as the paper's Turin roofs.
    LeanTo,
    /// One pitched plane of a gabled roof (tilt 25°–45°) with ridge
    /// chimneys and dormers.
    Gabled,
    /// An L-shaped footprint (a rectangular roof with one corner wing
    /// removed via a polygon outline).
    LShaped,
}

impl RoofArchetype {
    /// All archetypes, in generation rotation order.
    #[must_use]
    pub const fn all() -> [Self; 4] {
        [Self::Flat, Self::LeanTo, Self::Gabled, Self::LShaped]
    }

    /// Stable lowercase name (used in scenario names and spec strings).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Flat => "flat",
            Self::LeanTo => "leanto",
            Self::Gabled => "gabled",
            Self::LShaped => "lshaped",
        }
    }

    /// Parses [`name`](Self::name) back; `None` for anything else.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::all().into_iter().find(|a| a.name() == name)
    }

    /// The archetype's tilt range in degrees, `[lo, hi)`.
    #[must_use]
    pub const fn tilt_range(self) -> (f64, f64) {
        match self {
            Self::Flat => (2.0, 8.0),
            Self::LeanTo => (15.0, 35.0),
            Self::Gabled => (25.0, 45.0),
            Self::LShaped => (10.0, 30.0),
        }
    }
}

impl core::fmt::Display for RoofArchetype {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Seasonal weather / climate preset: sets the site's turbidity profile and
/// albedo plus the weather generator's annual temperature cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WeatherPreset {
    /// Po-valley-like temperate climate (the paper's setting): hazy
    /// summers, moderate swing.
    Temperate,
    /// High-altitude climate: clear air year-round, cold mean, wide swing,
    /// bright snowy ground.
    Alpine,
    /// Coastal Mediterranean: clear summers, mild winters, small swing.
    Mediterranean,
    /// Hot arid climate: dusty air, hot mean, strong diurnal cycle.
    Arid,
}

impl WeatherPreset {
    /// All presets, in generation rotation order.
    #[must_use]
    pub const fn all() -> [Self; 4] {
        [
            Self::Temperate,
            Self::Alpine,
            Self::Mediterranean,
            Self::Arid,
        ]
    }

    /// Stable lowercase name (used in spec strings).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Temperate => "temperate",
            Self::Alpine => "alpine",
            Self::Mediterranean => "mediterranean",
            Self::Arid => "arid",
        }
    }

    /// Parses [`name`](Self::name) back; `None` for anything else.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::all().into_iter().find(|p| p.name() == name)
    }

    /// Monthly Linke turbidity profile, January..December.
    #[must_use]
    pub const fn linke_monthly(self) -> [f64; 12] {
        match self {
            Self::Temperate => [2.6, 2.9, 3.4, 3.9, 4.1, 4.3, 4.3, 4.2, 3.8, 3.2, 2.8, 2.5],
            Self::Alpine => [1.8, 1.9, 2.1, 2.3, 2.5, 2.6, 2.6, 2.5, 2.3, 2.1, 1.9, 1.8],
            Self::Mediterranean => [2.4, 2.5, 2.8, 3.0, 3.2, 3.3, 3.4, 3.4, 3.1, 2.8, 2.5, 2.3],
            Self::Arid => [3.8, 4.0, 4.4, 4.8, 5.2, 5.6, 5.8, 5.6, 5.0, 4.5, 4.0, 3.7],
        }
    }

    /// Ground albedo (snowy Alpine ground reflects the most).
    #[must_use]
    pub const fn albedo(self) -> f64 {
        match self {
            Self::Temperate => 0.2,
            Self::Alpine => 0.45,
            Self::Mediterranean => 0.18,
            Self::Arid => 0.3,
        }
    }

    /// Annual-mean ambient temperature, °C.
    #[must_use]
    pub const fn annual_mean_c(self) -> f64 {
        match self {
            Self::Temperate => 13.0,
            Self::Alpine => 4.0,
            Self::Mediterranean => 18.0,
            Self::Arid => 26.0,
        }
    }

    /// Summer-winter half-swing of the annual temperature cycle, °C.
    #[must_use]
    pub const fn annual_swing_c(self) -> f64 {
        match self {
            Self::Temperate => 11.0,
            Self::Alpine => 13.0,
            Self::Mediterranean => 7.0,
            Self::Arid => 14.0,
        }
    }
}

impl core::fmt::Display for WeatherPreset {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// The full parameterization of one generated scenario.
///
/// A spec is a value object: [`build`](Self::build) turns it into the same
/// [`SiteScenario`] every time, and the compact text encoding
/// ([`to_spec_string`](Self::to_spec_string) /
/// [`parse_spec_string`](Self::parse_spec_string)) round-trips exactly.
///
/// ```
/// use pv_gis::synth::ScenarioSpec;
/// let spec = ScenarioSpec::generate(2018, 7);
/// let text = spec.to_spec_string();
/// assert_eq!(ScenarioSpec::parse_spec_string(&text).unwrap(), spec);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Position of this scenario in its corpus.
    pub index: u32,
    /// The scenario's private seed (obstacles, undulation, weather).
    pub seed: u64,
    /// Structural archetype.
    pub archetype: RoofArchetype,
    /// Roof width (cross-slope), metres.
    pub width_m: f64,
    /// Roof depth (along-slope), metres.
    pub depth_m: f64,
    /// Roof tilt above horizontal, degrees.
    pub tilt_deg: f64,
    /// Azimuth the roof faces, degrees clockwise from north.
    pub azimuth_deg: f64,
    /// Site latitude, degrees north.
    pub latitude_deg: f64,
    /// Climate / seasonal weather preset.
    pub weather: WeatherPreset,
    /// Obstacle population density in `[0, 1]`.
    pub obstacle_density: f64,
    /// Horizon class: 0 = open country, 1 = hilly, 2 = mountain valley
    /// (realized as off-roof terrain blockers along the roof edges).
    pub horizon_class: u8,
}

/// Latitude bands the generator rotates through (°N), guaranteeing corpus
/// coverage of low/mid/high latitudes.
pub const LATITUDE_BANDS: [(f64, f64); 3] = [(20.0, 33.0), (33.0, 46.0), (46.0, 60.0)];

/// The grid pitch every spec and `pvplan` roof is built on, metres.
const GRID_PITCH_M: f64 = 0.2;

/// Cap on a roof's grid, in cells at the 20 cm pitch. Extraction allocates
/// per cell (horizon sectors, a shadow row per sun-up step, suitability
/// samples), so an extent taken unchecked from a request or a flag is an
/// allocation of any size: `width=1e9` asks for terabytes and aborts the
/// process. 2^18 cells is a 100 m × 100 m roof, ~18× the largest paper
/// roof (Roof 1, 14,637 cells).
pub const MAX_GRID_CELLS: usize = 1 << 18;

/// Range check of a roof's geometry, shared by the spec parser and
/// `pvplan`'s roof flags: both extents finite and at least one grid cell,
/// at most [`MAX_GRID_CELLS`] cells, tilt in `[0, 90)` degrees and a
/// finite azimuth — what [`RoofBuilder`] can build without panicking.
///
/// # Errors
///
/// The spec key of the first field out of range (`width`, `depth`, `tilt`
/// or `azimuth`, also the `pvplan` flag name; the longer side for the
/// cell cap) and the reason.
pub fn check_roof(
    width_m: f64,
    depth_m: f64,
    tilt_deg: f64,
    azimuth_deg: f64,
) -> Result<(), (&'static str, String)> {
    for (key, metres) in [("width", width_m), ("depth", depth_m)] {
        // Below half a pitch the extent rounds to zero cells.
        if !(metres.is_finite() && metres >= GRID_PITCH_M / 2.0) {
            return Err((
                key,
                format!("must be a finite extent of at least 0.1 m, got {metres}"),
            ));
        }
    }
    let cells = (width_m / GRID_PITCH_M).round() * (depth_m / GRID_PITCH_M).round();
    if cells > MAX_GRID_CELLS as f64 {
        // Blame the longer side: shrinking it helps most.
        return Err((
            if width_m >= depth_m { "width" } else { "depth" },
            format!(
                "must keep the roof within {MAX_GRID_CELLS} cells at the 20 cm pitch, \
                 got {width_m} x {depth_m} m ({cells} cells)"
            ),
        ));
    }
    if !(0.0..90.0).contains(&tilt_deg) {
        return Err((
            "tilt",
            format!("must be in [0, 90) degrees, got {tilt_deg}"),
        ));
    }
    if !azimuth_deg.is_finite() {
        return Err(("azimuth", format!("must be finite, got {azimuth_deg}")));
    }
    Ok(())
}

impl ScenarioSpec {
    /// Generates scenario `index` of the corpus seeded with `corpus_seed`.
    ///
    /// The archetype rotates through [`RoofArchetype::all`] with `index`
    /// and the latitude band through [`LATITUDE_BANDS`], so any corpus of
    /// ≥ 12 scenarios covers all 4 archetypes × 3 latitude bands; every
    /// other parameter is drawn from the scenario's private RNG.
    #[must_use]
    pub fn generate(corpus_seed: u64, index: u32) -> Self {
        let seed = split_seed(corpus_seed, index);
        let mut rng = StdRng::seed_from_u64(seed);
        let archetype = RoofArchetype::all()[index as usize % 4];
        let (lat_lo, lat_hi) = LATITUDE_BANDS[(index as usize / 4) % 3];
        let (tilt_lo, tilt_hi) = archetype.tilt_range();
        Self {
            index,
            seed,
            archetype,
            width_m: round_dm(rng.gen_range(9.0..20.0)),
            depth_m: round_dm(rng.gen_range(4.5..9.0)),
            tilt_deg: round_dm(rng.gen_range(tilt_lo..tilt_hi)),
            azimuth_deg: round_dm(rng.gen_range(120.0..240.0)),
            latitude_deg: round_dm(rng.gen_range(lat_lo..lat_hi)),
            weather: WeatherPreset::all()[rng.gen_range(0usize..4)],
            obstacle_density: (rng.gen_range(0.0..1.0) * 100.0).round() / 100.0,
            horizon_class: rng.gen_range(0u8..3),
        }
    }

    /// Whether this is a typical mid-latitude residential roof: 70–110 m²
    /// in the middle band of [`LATITUDE_BANDS`]. A service that churns
    /// through many sites mostly extracts roofs like these, so they are
    /// the shape a cold miss's timings are taken on.
    #[must_use]
    pub fn is_typical_residential(&self) -> bool {
        let (lo, hi) = LATITUDE_BANDS[1];
        (lo..hi).contains(&self.latitude_deg)
            && (70.0..110.0).contains(&(self.width_m * self.depth_m))
    }

    /// The scenario's display name, e.g. `s007-gabled-lat42`.
    #[must_use]
    pub fn name(&self) -> String {
        format!(
            "s{:03}-{}-lat{:.0}",
            self.index,
            self.archetype.name(),
            self.latitude_deg
        )
    }

    /// Realizes the spec: synthesizes the DSM (outline, obstacles, surface
    /// texture), the [`Site`] and the weather configuration.
    #[must_use]
    pub fn build(&self) -> SiteScenario {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xB01D_FACE);
        let w = self.width_m;
        let d = self.depth_m;
        let mut builder = RoofBuilder::new(Meters::new(w), Meters::new(d))
            .pitch(Meters::new(GRID_PITCH_M))
            .tilt(Degrees::new(self.tilt_deg))
            .azimuth(Degrees::new(self.azimuth_deg))
            .undulation(
                Degrees::new(rng.gen_range(2.0..7.0)),
                Meters::new(rng.gen_range(2.5..5.0)),
                self.seed,
            );

        // The L-shaped archetype removes the far (down-slope, right) corner
        // wing; obstacles are kept out of the notch below.
        let notch = if self.archetype == RoofArchetype::LShaped {
            let fx = rng.gen_range(0.45..0.7);
            let fy = rng.gen_range(0.4..0.65);
            let outline = Polygon::new(vec![
                (0.0, 0.0),
                (w, 0.0),
                (w, d * fy),
                (w * fx, d * fy),
                (w * fx, d),
                (0.0, d),
            ])
            .expect("six vertices");
            builder = builder.outline(outline);
            Some((w * fx, d * fy))
        } else {
            None
        };

        // A reserved keep-clear rectangle guarantees placeable cells
        // survive any obstacle draw (left half is always inside an L).
        let reserve = (0.6, 0.6, 3.4, 2.2);

        builder = match self.archetype {
            RoofArchetype::LeanTo => {
                // The wall the roof leans against towers over the ridge.
                builder.obstacle(Obstacle::off_roof_block(
                    Meters::new(0.0),
                    Meters::new(0.0),
                    Meters::new(w),
                    Meters::new(0.2),
                    Meters::new(rng.gen_range(3.0..6.0)),
                ))
            }
            _ => builder,
        };

        builder = self.populate_obstacles(builder, &mut rng, reserve, notch);
        builder = self.raise_horizon(builder, &mut rng);

        let site = Site::new(
            Degrees::new(self.latitude_deg),
            self.weather.albedo(),
            self.weather.linke_monthly(),
        );
        let weather = WeatherGenerator::new(self.seed)
            .annual_mean(self.weather.annual_mean_c())
            .annual_swing(self.weather.annual_swing_c());

        SiteScenario {
            name: self.name(),
            spec: Some(self.clone()),
            dsm: builder.build(),
            site,
            weather,
        }
    }

    /// Draws the obstacle population. Every footprint stays inside the
    /// roof rectangle, outside the keep-clear `reserve`, and (for an
    /// L-shape) outside the removed `notch` corner.
    fn populate_obstacles(
        &self,
        mut builder: RoofBuilder,
        rng: &mut StdRng,
        reserve: (f64, f64, f64, f64),
        notch: Option<(f64, f64)>,
    ) -> RoofBuilder {
        let area = self.width_m * self.depth_m;
        // Density 1.0 ≈ one obstacle per 14 m²; density 0 still places one
        // obstacle so no scenario is a trivially uniform plane.
        let count = 1 + (self.obstacle_density * area / 14.0) as usize;
        let margin = 0.3;
        let overlaps_reserve = |x: f64, y: f64, ow: f64, oh: f64| {
            let (rx, ry, rw, rh) = reserve;
            x < rx + rw && x + ow > rx && y < ry + rh && y + oh > ry
        };
        let in_notch = |x: f64, y: f64, ow: f64, oh: f64| {
            notch.is_some_and(|(nx, ny)| x + ow > nx && y + oh > ny)
        };
        for _ in 0..count {
            // Archetype-biased kind mix: flat decks carry service
            // furniture, gabled roofs dormers and chimneys.
            let roll = rng.gen_range(0u32..100);
            let kind = match self.archetype {
                RoofArchetype::Flat => match roll {
                    0..=34 => ObstacleKind::HvacUnit,
                    35..=64 => ObstacleKind::Vent,
                    65..=89 => ObstacleKind::PipeRun,
                    _ => ObstacleKind::Antenna,
                },
                RoofArchetype::Gabled => match roll {
                    0..=39 => ObstacleKind::Dormer,
                    40..=69 => ObstacleKind::Chimney,
                    70..=89 => ObstacleKind::Vent,
                    _ => ObstacleKind::Antenna,
                },
                RoofArchetype::LeanTo | RoofArchetype::LShaped => match roll {
                    0..=24 => ObstacleKind::Chimney,
                    25..=44 => ObstacleKind::Vent,
                    45..=64 => ObstacleKind::HvacUnit,
                    65..=84 => ObstacleKind::PipeRun,
                    _ => ObstacleKind::Dormer,
                },
            };
            let (ow, oh, height) = match kind {
                ObstacleKind::Chimney => {
                    let side = rng.gen_range(0.6..1.0);
                    (side, side, rng.gen_range(1.2..2.2))
                }
                ObstacleKind::Dormer => (
                    rng.gen_range(1.5..3.0),
                    rng.gen_range(1.2..2.0),
                    rng.gen_range(1.0..1.8),
                ),
                ObstacleKind::Vent => (0.5, 0.5, rng.gen_range(0.6..1.5)),
                ObstacleKind::HvacUnit => (2.0, 1.2, rng.gen_range(1.8..2.8)),
                ObstacleKind::Antenna => (0.2, 0.2, rng.gen_range(2.0..5.0)),
                ObstacleKind::PipeRun | ObstacleKind::OffRoofBlock => {
                    let along_x = rng.gen_bool(0.5);
                    // A roof narrower than the shortest run gets the
                    // shortest run (it then rarely fits); an empty draw
                    // range would panic.
                    let longest = self.width_m.min(10.0);
                    let len = if longest > 2.5 {
                        rng.gen_range(2.5..longest)
                    } else {
                        2.5
                    };
                    let (pw, ph) = if along_x { (len, 0.5) } else { (0.5, len) };
                    (pw, ph, rng.gen_range(0.4..0.6))
                }
            };
            // Up to 8 placement draws; an unplaceable obstacle is skipped
            // (draw count is part of the deterministic stream either way).
            for _ in 0..8 {
                let max_x = self.width_m - margin - ow;
                let max_y = self.depth_m - margin - oh;
                if max_x <= margin || max_y <= margin {
                    break;
                }
                let x = rng.gen_range(margin..max_x);
                let y = rng.gen_range(margin..max_y);
                if overlaps_reserve(x, y, ow, oh) || in_notch(x, y, ow, oh) {
                    continue;
                }
                builder = builder.obstacle(match kind {
                    ObstacleKind::Chimney => Obstacle::chimney(
                        Meters::new(x),
                        Meters::new(y),
                        Meters::new(ow),
                        Meters::new(oh),
                        Meters::new(height),
                    ),
                    ObstacleKind::Dormer => Obstacle::dormer(
                        Meters::new(x),
                        Meters::new(y),
                        Meters::new(ow),
                        Meters::new(oh),
                        Meters::new(height),
                    ),
                    ObstacleKind::Vent => {
                        Obstacle::vent(Meters::new(x), Meters::new(y), Meters::new(height))
                    }
                    ObstacleKind::HvacUnit => {
                        Obstacle::hvac_unit(Meters::new(x), Meters::new(y), Meters::new(height))
                    }
                    ObstacleKind::Antenna => {
                        Obstacle::antenna(Meters::new(x), Meters::new(y), Meters::new(height))
                    }
                    ObstacleKind::PipeRun | ObstacleKind::OffRoofBlock => Obstacle::pipe_run(
                        Meters::new(x),
                        Meters::new(y),
                        Meters::new(ow),
                        Meters::new(oh),
                        Meters::new(height),
                    ),
                });
                break;
            }
        }
        builder
    }

    /// Realizes the horizon class as off-roof terrain blockers: segmented
    /// walls along the eave (south) edge whose height grows with the
    /// class — distant hills / mountainsides compressed onto the DSM rim,
    /// cutting beam hours and sky-view exactly as a real horizon profile
    /// would.
    fn raise_horizon(&self, mut builder: RoofBuilder, rng: &mut StdRng) -> RoofBuilder {
        if self.horizon_class == 0 {
            return builder;
        }
        let (h_lo, h_hi) = if self.horizon_class == 1 {
            (2.0, 4.0)
        } else {
            (4.0, 8.0)
        };
        let segments = 3 + rng.gen_range(0usize..3);
        let seg_w = self.width_m / segments as f64;
        for k in 0..segments {
            let h = rng.gen_range(h_lo..h_hi);
            builder = builder.obstacle(Obstacle::off_roof_block(
                Meters::new(k as f64 * seg_w),
                Meters::new(self.depth_m - 0.2),
                Meters::new(seg_w),
                Meters::new(0.2),
                Meters::new(h),
            ));
        }
        builder
    }

    /// The spec's canonical one-line encoding, its [`Display`] form.
    ///
    /// [`Display`]: core::fmt::Display
    #[must_use]
    pub fn to_spec_string(&self) -> String {
        self.to_string()
    }

    /// Stable 64-bit identity of this spec, for cache keying: FNV-1a over
    /// the canonical [`to_spec_string`](Self::to_spec_string) encoding,
    /// streamed through [`Fnv1a`] without building the string.
    ///
    /// Because the hash is taken over the *re-rendered* canonical string
    /// (not the bytes a client happened to send), any two spec strings
    /// that parse to the same spec — field order, extra whitespace —
    /// produce the same key:
    ///
    /// ```
    /// use pv_gis::synth::ScenarioSpec;
    /// let spec = ScenarioSpec::generate(2018, 3);
    /// let canonical = spec.to_spec_string();
    /// // Shuffle the field order; the parsed spec (and key) is unchanged.
    /// let mut fields: Vec<&str> = canonical.split_whitespace().collect();
    /// fields[1..].rotate_left(4);
    /// let shuffled = fields.join("  ");
    /// let reparsed = ScenarioSpec::parse_spec_string(&shuffled).unwrap();
    /// assert_eq!(reparsed.canonical_hash(), spec.canonical_hash());
    /// ```
    #[must_use]
    pub fn canonical_hash(&self) -> u64 {
        use core::fmt::Write as _;
        let mut hash = Fnv1a::default();
        let _ = write!(hash, "{self}");
        hash.finish()
    }

    /// Parses a [`to_spec_string`](Self::to_spec_string) line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed, missing, duplicated,
    /// unknown or out-of-range field (ranges: [`check_roof`], latitude in
    /// `[-90, 90]`, density in `[0, 1]`, horizon class 0–2).
    pub fn parse_spec_string(text: &str) -> Result<Self, String> {
        const KEYS: [&str; 11] = [
            "index",
            "seed",
            "archetype",
            "width",
            "depth",
            "tilt",
            "azimuth",
            "latitude",
            "weather",
            "density",
            "horizon",
        ];
        let mut fields = text.split_whitespace();
        if fields.next() != Some("pvscn") {
            return Err("spec string must start with 'pvscn'".into());
        }
        let mut spec = Self {
            index: 0,
            seed: 0,
            archetype: RoofArchetype::Flat,
            width_m: 0.0,
            depth_m: 0.0,
            tilt_deg: 0.0,
            azimuth_deg: 0.0,
            latitude_deg: 0.0,
            weather: WeatherPreset::Temperate,
            obstacle_density: 0.0,
            horizon_class: 0,
        };
        let mut seen = [false; KEYS.len()];
        for field in fields {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("field '{field}' is not key=value"))?;
            let slot = KEYS
                .iter()
                .position(|&k| k == key)
                .ok_or_else(|| format!("unknown field '{key}'"))?;
            if seen[slot] {
                return Err(format!("duplicate field '{key}'"));
            }
            seen[slot] = true;
            let bad = |e: &dyn core::fmt::Display| format!("field '{key}': {e}");
            match key {
                "index" => spec.index = value.parse().map_err(|e| bad(&e))?,
                "seed" => spec.seed = value.parse().map_err(|e| bad(&e))?,
                "archetype" => {
                    spec.archetype = RoofArchetype::from_name(value)
                        .ok_or_else(|| format!("unknown archetype '{value}'"))?;
                }
                "width" => spec.width_m = value.parse().map_err(|e| bad(&e))?,
                "depth" => spec.depth_m = value.parse().map_err(|e| bad(&e))?,
                "tilt" => spec.tilt_deg = value.parse().map_err(|e| bad(&e))?,
                "azimuth" => spec.azimuth_deg = value.parse().map_err(|e| bad(&e))?,
                "latitude" => spec.latitude_deg = value.parse().map_err(|e| bad(&e))?,
                "weather" => {
                    spec.weather = WeatherPreset::from_name(value)
                        .ok_or_else(|| format!("unknown weather preset '{value}'"))?;
                }
                "density" => spec.obstacle_density = value.parse().map_err(|e| bad(&e))?,
                "horizon" => spec.horizon_class = value.parse().map_err(|e| bad(&e))?,
                _ => unreachable!("key membership checked against KEYS"),
            }
        }
        if let Some(missing) = KEYS.iter().zip(&seen).find(|(_, &s)| !s) {
            return Err(format!("missing field '{}'", missing.0));
        }
        check_roof(spec.width_m, spec.depth_m, spec.tilt_deg, spec.azimuth_deg)
            .map_err(|(key, e)| format!("field '{key}': {e}"))?;
        if !(-90.0..=90.0).contains(&spec.latitude_deg) {
            return Err(format!(
                "field 'latitude': must be in [-90, 90] degrees, got {}",
                spec.latitude_deg
            ));
        }
        if !(0.0..=1.0).contains(&spec.obstacle_density) {
            return Err(format!(
                "field 'density': must be in [0, 1], got {}",
                spec.obstacle_density
            ));
        }
        if spec.horizon_class > 2 {
            return Err(format!(
                "field 'horizon': no preset for class {} (expected 0, 1 or 2)",
                spec.horizon_class
            ));
        }
        Ok(spec)
    }
}

impl core::fmt::Display for ScenarioSpec {
    /// Encodes the spec as one `key=value` line;
    /// [`parse_spec_string`](ScenarioSpec::parse_spec_string) round-trips
    /// it exactly (floats are printed shortest-round-trip).
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "pvscn index={} seed={} archetype={} width={:?} depth={:?} tilt={:?} \
             azimuth={:?} latitude={:?} weather={} density={:?} horizon={}",
            self.index,
            self.seed,
            self.archetype.name(),
            self.width_m,
            self.depth_m,
            self.tilt_deg,
            self.azimuth_deg,
            self.latitude_deg,
            self.weather.name(),
            self.obstacle_density,
            self.horizon_class,
        )
    }
}

/// Rounds to decimetre precision so spec strings stay compact while the
/// parameter space stays rich.
fn round_dm(v: f64) -> f64 {
    (v * 10.0).round() / 10.0
}

/// FNV-1a over `bytes` — the workspace's std-only stable hash for cache
/// keys (`std::hash::Hasher` output is not specified to be stable across
/// releases, and a cache key's stability is part of the service contract).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::default();
    hash.write_bytes(bytes);
    hash.finish()
}

/// Streaming [`fnv1a`]: hashes every byte written through
/// [`core::fmt::Write`], so a key can be formatted straight into its hash
/// without building the string.
///
/// ```
/// use core::fmt::Write;
/// use pv_gis::synth::{fnv1a, Fnv1a};
/// let mut hash = Fnv1a::default();
/// write!(hash, "days={} step={}", 30, 60)?;
/// assert_eq!(hash.finish(), fnv1a(b"days=30 step=60"));
/// # Ok::<(), core::fmt::Error>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The hash of every byte written so far.
    #[must_use]
    pub const fn finish(self) -> u64 {
        self.0
    }

    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl Default for Fnv1a {
    /// The hash of no bytes (the FNV-1a offset basis).
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl core::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> core::fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// A fully realized site: DSM plus geographic and weather context.
///
/// Generated scenarios carry their [`ScenarioSpec`]; the wrapped paper
/// roofs ([`CorpusPreset::Paper3`]) carry `None`.
#[derive(Clone, Debug)]
pub struct SiteScenario {
    /// Display name (`s007-gabled-lat42`, `Roof 1`, …).
    pub name: String,
    /// The generating spec, if procedurally generated.
    pub spec: Option<ScenarioSpec>,
    /// The synthesized DSM.
    pub dsm: Dsm,
    /// Geographic site parameters (latitude, albedo, turbidity).
    pub site: Site,
    /// The scenario's seeded weather generator.
    pub weather: WeatherGenerator,
}

impl SiteScenario {
    /// A [`crate::SolarExtractor`] pre-configured with this scenario's
    /// site and weather.
    #[must_use]
    pub fn extractor(&self, clock: pv_units::SimulationClock) -> crate::SolarExtractor {
        crate::SolarExtractor::new(self.site.clone(), clock).weather(self.weather.clone())
    }
}

/// Named corpus presets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CorpusPreset {
    /// The paper's three reconstructed Turin roofs (no generation).
    Paper3,
    /// Four tiny generated scenarios — CI-scale end-to-end coverage.
    Smoke,
    /// 64 generated scenarios covering all archetypes × latitude bands.
    Diverse64,
    /// 256 generated scenarios — throughput-stress scale.
    Stress256,
}

impl CorpusPreset {
    /// All presets.
    #[must_use]
    pub const fn all() -> [Self; 4] {
        [Self::Paper3, Self::Smoke, Self::Diverse64, Self::Stress256]
    }

    /// The preset's stable name (CLI `--preset` values).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Paper3 => "paper3",
            Self::Smoke => "smoke",
            Self::Diverse64 => "diverse64",
            Self::Stress256 => "stress256",
        }
    }

    /// Parses [`name`](Self::name) back; `None` for anything else.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::all().into_iter().find(|p| p.name() == name)
    }

    /// Number of scenarios in the preset.
    #[must_use]
    pub const fn scenario_count(self) -> usize {
        match self {
            Self::Paper3 => 3,
            Self::Smoke => 4,
            Self::Diverse64 => 64,
            Self::Stress256 => 256,
        }
    }
}

impl core::fmt::Display for CorpusPreset {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A named, seeded collection of scenarios — the unit the portfolio runner
/// consumes.
#[derive(Clone, Debug)]
pub struct ScenarioCorpus {
    name: String,
    seed: u64,
    scenarios: Vec<SiteScenario>,
}

impl ScenarioCorpus {
    /// Builds a preset corpus with the default [`CORPUS_SEED`].
    #[must_use]
    pub fn preset(preset: CorpusPreset) -> Self {
        Self::preset_with_seed(preset, CORPUS_SEED)
    }

    /// Builds a preset corpus with an explicit seed ([`CorpusPreset::Paper3`]
    /// ignores the seed — the paper roofs are fixed reconstructions).
    #[must_use]
    pub fn preset_with_seed(preset: CorpusPreset, seed: u64) -> Self {
        match preset {
            CorpusPreset::Paper3 => Self {
                name: preset.name().to_string(),
                seed,
                scenarios: paper_roofs()
                    .into_iter()
                    .map(|r| SiteScenario {
                        name: r.name(),
                        spec: None,
                        dsm: r.dsm,
                        site: Site::turin(),
                        // The shared experiment weather seed (all roofs are
                        // neighbours under the same sky, as in the paper).
                        weather: WeatherGenerator::new(2018),
                    })
                    .collect(),
            },
            _ => Self::generate(preset.name(), seed, preset.scenario_count() as u32),
        }
    }

    /// Generates `count` scenarios from `seed` (see the module docs for
    /// the determinism model).
    #[must_use]
    pub fn generate(name: &str, seed: u64, count: u32) -> Self {
        Self {
            name: name.to_string(),
            seed,
            scenarios: (0..count)
                .map(|i| ScenarioSpec::generate(seed, i).build())
                .collect(),
        }
    }

    /// The corpus name (preset name or caller-supplied).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The corpus seed.
    #[must_use]
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// The scenarios, in index order.
    #[must_use]
    pub fn scenarios(&self) -> &[SiteScenario] {
        &self.scenarios
    }

    /// Number of scenarios.
    #[must_use]
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the corpus is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_seed_decorrelates_indices() {
        let a = split_seed(2018, 0);
        let b = split_seed(2018, 1);
        let c = split_seed(2019, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, split_seed(2018, 0));
    }

    #[test]
    fn spec_generation_is_deterministic_and_index_independent() {
        let a = ScenarioSpec::generate(7, 5);
        let b = ScenarioSpec::generate(7, 5);
        assert_eq!(a, b);
        // Generating index 5 does not depend on generating 0..5 first.
        let later = ScenarioSpec::generate(7, 6);
        assert_ne!(a, later);
    }

    #[test]
    fn spec_string_round_trips_every_field() {
        for i in 0..24 {
            let spec = ScenarioSpec::generate(CORPUS_SEED, i);
            let text = spec.to_spec_string();
            let parsed =
                ScenarioSpec::parse_spec_string(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed, spec, "{text}");
        }
    }

    #[test]
    fn spec_string_rejects_malformed_input() {
        assert!(ScenarioSpec::parse_spec_string("nonsense").is_err());
        assert!(ScenarioSpec::parse_spec_string("pvscn index=1").is_err());
        // Index 2 rotates onto the gabled archetype.
        let good = ScenarioSpec::generate(1, 2).to_spec_string();
        assert!(good.contains("archetype=gabled"));
        assert!(ScenarioSpec::parse_spec_string(&good.replace("gabled", "igloo")).is_err());
        assert!(ScenarioSpec::parse_spec_string(&format!("{good} bogus=1")).is_err());
        // A duplicated key must not mask a missing one (or silently
        // last-win): both duplication and omission are errors by name.
        assert_eq!(
            ScenarioSpec::parse_spec_string(&format!("{good} seed=9")),
            Err("duplicate field 'seed'".to_string())
        );
        let (without_horizon, _) = good.rsplit_once(" horizon").unwrap();
        assert_eq!(
            ScenarioSpec::parse_spec_string(&format!("{without_horizon} seed=9")),
            Err("duplicate field 'seed'".to_string()),
            "duplicate reported even at the 'right' field count"
        );
        assert_eq!(
            ScenarioSpec::parse_spec_string(without_horizon),
            Err("missing field 'horizon'".to_string())
        );
        // Well-formed but out of range: refused by name before anything
        // builds the roof (RoofBuilder and Site would panic on these).
        let with = |field: &str| {
            let key = field.split_once('=').map_or(field, |(k, _)| k);
            let others = good
                .split_whitespace()
                .filter(|f| !f.starts_with(&format!("{key}=")));
            (
                others.collect::<Vec<_>>().join(" ") + " " + field,
                key.to_string(),
            )
        };
        let refused = "width=0 width=-3 width=1e9 depth=inf depth=NaN tilt=95.0 tilt=90 tilt=-1 \
                       tilt=NaN azimuth=inf latitude=91 latitude=NaN density=1.5 density=-0.1 horizon=3";
        for field in refused.split_whitespace() {
            let (text, key) = with(field);
            let err = ScenarioSpec::parse_spec_string(&text).unwrap_err();
            assert!(
                err.starts_with(&format!("field '{key}': ")),
                "{field}: {err}"
            );
        }
        // The edges of each range are accepted.
        for field in ["tilt=0", "latitude=-90", "density=1", "width=0.1"] {
            assert!(
                ScenarioSpec::parse_spec_string(&with(field).0).is_ok(),
                "{field}"
            );
        }
    }

    #[test]
    fn small_in_range_roofs_build_without_panicking() {
        // Down to one grid cell, every archetype builds: no random draw
        // may see an empty range (the pipe-run length is drawn from
        // 2.5 m up to the roof width).
        for index in 0..4 {
            for (w, d) in [(0.1, 0.1), (1.0, 3.0), (2.5, 1.0), (3.0, 0.4)] {
                let mut spec = ScenarioSpec::generate(CORPUS_SEED, index);
                (spec.width_m, spec.depth_m, spec.horizon_class) = (w, d, 2);
                let spec = ScenarioSpec::parse_spec_string(&spec.to_spec_string()).unwrap();
                assert!(spec.build().dsm.dims().num_cells() > 0);
            }
        }
    }

    #[test]
    fn canonical_hash_is_stable_and_discriminating() {
        let spec = ScenarioSpec::generate(CORPUS_SEED, 0);
        assert_eq!(
            spec.canonical_hash(),
            ScenarioSpec::generate(CORPUS_SEED, 0).canonical_hash()
        );
        // Distinct scenarios key differently (probabilistically certain
        // for a 64-bit hash over 24 inputs — a collision here means the
        // hash is broken, not unlucky).
        let mut keys: Vec<u64> = (0..24)
            .map(|i| ScenarioSpec::generate(CORPUS_SEED, i).canonical_hash())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 24);
        // And the key survives a formatting round-trip through a
        // non-canonical rendering.
        let noisy = format!("  {}  ", spec.to_spec_string().replace(' ', "   "));
        let reparsed = ScenarioSpec::parse_spec_string(&noisy).unwrap();
        assert_eq!(reparsed.canonical_hash(), spec.canonical_hash());
    }

    #[test]
    fn every_smoke_scenario_has_placeable_cells_and_bounded_obstacles() {
        let corpus = ScenarioCorpus::preset(CorpusPreset::Smoke);
        assert_eq!(corpus.len(), 4);
        for s in corpus.scenarios() {
            assert!(s.dsm.valid().count() > 0, "{}", s.name);
            let spec = s.spec.as_ref().expect("smoke scenarios are generated");
            for o in s.dsm.obstacles() {
                let (x, y) = o.origin();
                let (w, h) = o.size();
                assert!(x.value() >= 0.0 && y.value() >= 0.0, "{}", s.name);
                assert!(x.value() + w.value() <= spec.width_m + 1e-9, "{}", s.name);
                assert!(y.value() + h.value() <= spec.depth_m + 1e-9, "{}", s.name);
            }
        }
    }

    #[test]
    fn diverse64_covers_archetypes_and_latitude_bands() {
        use std::collections::BTreeSet;
        let mut pairs = BTreeSet::new();
        for i in 0..64 {
            let spec = ScenarioSpec::generate(CORPUS_SEED, i);
            let band = LATITUDE_BANDS
                .iter()
                .position(|&(lo, hi)| (lo..=hi).contains(&spec.latitude_deg))
                .expect("latitude inside a band");
            pairs.insert((spec.archetype.name(), band));
        }
        assert_eq!(pairs.len(), 12, "4 archetypes x 3 bands: {pairs:?}");
    }

    #[test]
    fn paper3_preset_wraps_the_table1_roofs() {
        let corpus = ScenarioCorpus::preset(CorpusPreset::Paper3);
        assert_eq!(corpus.len(), 3);
        assert_eq!(corpus.scenarios()[0].name, "Roof 1");
        assert!(corpus.scenarios().iter().all(|s| s.spec.is_none()));
    }

    #[test]
    fn preset_names_round_trip() {
        for preset in CorpusPreset::all() {
            assert_eq!(CorpusPreset::from_name(preset.name()), Some(preset));
        }
        assert_eq!(CorpusPreset::from_name("nope"), None);
    }
}
