//! Per-cell horizon maps for O(1) shadow tests.
//!
//! For every grid cell we precompute, in `n` azimuth sectors, the maximum
//! elevation angle (above the roof plane) subtended by surrounding DSM
//! obstacles. A time-step shadow test then reduces to comparing the sun's
//! plane-local elevation with the interpolated horizon at the sun's
//! plane-local azimuth — the classic r.sun-style approach, which is what
//! makes a year at 15-minute resolution over ~12,000 cells tractable.
//!
//! A ray reads tables of the quadrant it heads into: it skips ahead over
//! floor-height cells and stops once nothing it can still reach is high
//! enough, and four sectors of a cell march in lockstep;
//! [`HorizonMap::compute_with`] states why none of this changes a bit of
//! the one-step march, which the tests keep as the oracle.

use crate::dsm::Dsm;
use pv_geom::{CellCoord, Grid, GridDims};
use pv_runtime::Runtime;
use pv_units::Radians;

/// Cells per parallel work unit of the horizon ray march.
///
/// Fixed (never derived from the thread count), like every chunk size in
/// the workspace, so the work layout is the same on any [`Runtime`].
const HORIZON_CHUNK_CELLS: usize = 256;

/// Sectors of one cell whose rays are marched together.
const LOCKSTEP_RAYS: usize = 4;

/// Precomputed horizon elevation angles for every cell and azimuth sector.
///
/// ```
/// use pv_gis::{HorizonMap, Obstacle, RoofBuilder};
/// use pv_geom::CellCoord;
/// use pv_units::{Meters, Radians};
///
/// let roof = RoofBuilder::new(Meters::new(6.0), Meters::new(3.0))
///     .obstacle(Obstacle::chimney(Meters::new(4.0), Meters::new(1.0),
///                                 Meters::new(0.6), Meters::new(0.6),
///                                 Meters::new(2.0)))
///     .build();
/// let horizon = HorizonMap::compute(&roof, 32);
/// // A cell just west of the chimney sees a high horizon towards +x.
/// let west_of_chimney = CellCoord::new(16, 6);
/// let towards_chimney = horizon.horizon_at(west_of_chimney, Radians::new(0.0));
/// assert!(towards_chimney.value() > 0.5);
/// ```
#[derive(Clone, Debug)]
pub struct HorizonMap {
    dims: GridDims,
    num_sectors: usize,
    /// Sector-major horizon elevations in radians: sector `k` of the cell
    /// with linear index `idx` is `angles[k * num_cells + idx]`, so each
    /// sector is one contiguous slice in cell order (what the shadow row
    /// kernel streams).
    angles: Vec<f32>,
    /// Per-cell sky-view factor relative to the unobstructed plane.
    svf: Vec<f32>,
}

impl HorizonMap {
    /// Computes the horizon map of a DSM with `num_sectors` azimuth sectors.
    ///
    /// Sector `k` covers plane angle `2πk / num_sectors` measured from the
    /// grid +x axis towards +y (matching
    /// [`LocalSun::plane_angle`](crate::LocalSun)).
    ///
    /// Runs on [`Runtime::from_env`] workers (`PV_THREADS` or the
    /// machine's parallelism); [`compute_with`](Self::compute_with) takes
    /// an explicit runtime. The map is bit-identical for every thread
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `num_sectors < 4`.
    #[must_use]
    pub fn compute(dsm: &Dsm, num_sectors: usize) -> Self {
        Self::compute_with(dsm, num_sectors, Runtime::from_env())
    }

    /// [`compute`](Self::compute) on an explicit [`Runtime`]: cells are
    /// ray-marched independently, in fixed chunks of cells.
    ///
    /// A sector's horizon comes from marching a ray from the cell centre
    /// in whole-cell steps `t`, keeping the steepest tangent `dh / dist`
    /// of any sample above the observer, until the ray leaves the grid or
    /// no farther sample can beat it. A ray heads into one quadrant, the
    /// signs of its `dx` and `dy`. Per quadrant, every cell carries two
    /// values taken over the cells such a ray can still reach from it
    /// (`x' >= x` or `x' <= x`, and `y' >= y` or `y' <= y`, the cell
    /// included):
    ///
    /// - the skip: the Chebyshev distance, at least 1, to the nearest of
    ///   them above the DSM's minimum height. A ray advances `t` by the
    ///   skip of the sample it just read; the observer's own cell is the
    ///   sample at `t = 0`.
    /// - the bound: their maximum height, rounded up to `f32`. The march
    ///   stops once `(bound − h0) / dist <= best_tan`, and an observer no
    ///   higher than its own bound reads no sample at all.
    ///
    /// Within a chunk of cells one quadrant's sectors march at a time, so
    /// one table is hot, and four sectors of a cell march in lockstep,
    /// each lane's step free of branches, so the loads their jumps wait on
    /// overlap. The map is bit-identical to
    /// the one-step march, which stops on the DSM's global maximum,
    /// because:
    ///
    /// - `px = fl(cx + fl(dx·t))` is monotone in `t` (rounding is), and so
    ///   is `floor(px)`, likewise `py`: every later sample lies in the
    ///   region of the current one, whatever was skipped in between.
    /// - one step moves a sample at most one cell in x and in y
    ///   (`|cos|, |sin| <= 1`), so a jump passes only over cells of the
    ///   region closer than its nearest raised cell. They are floor
    ///   height, whose `dh = floor − h0 <= 0` never raises `best_tan` for
    ///   any observer.
    /// - the bound, like the global maximum, is at least every later
    ///   sample's height. Once the stop rule holds, every later `dh / dist`
    ///   is at most `(bound − h0) / dist` (rounding of `−` and `/` is
    ///   monotone), so no later sample raises `best_tan`. Both marches
    ///   therefore end with the value a march to the grid edge would reach,
    ///   whichever sample stops them. A sample a jump passes over could
    ///   only have stopped the march early: by the stop rule, or by being
    ///   off the grid, in which case so is every later one (a straight ray
    ///   leaves the rectangle once).
    /// - `t` stays an integer-valued `f64`, so every visited sample
    ///   computes `px`, `py` and `dh / dist` from the same operands as the
    ///   one-step march, and `atan` and the sky-view sum see the same
    ///   tangents in the same sector order. `atan` and `cos` run once per
    ///   run of equal tangents, since equal inputs give equal bits, and
    ///   not at all for a run of zeros that opens a cell: `atan(0) = 0`
    ///   and `cos(0)² = 1` exactly.
    ///
    /// # Panics
    ///
    /// Panics if `num_sectors < 4`.
    #[must_use]
    pub fn compute_with(dsm: &Dsm, num_sectors: usize, runtime: Runtime) -> Self {
        assert!(num_sectors >= 4, "need at least 4 azimuth sectors");
        let dims = dsm.dims();
        let num_cells = dims.num_cells();
        let pitch = dsm.geometry().pitch().value();
        let heights = dsm.heights();
        let global_max = heights.iter().copied().fold(0.0, f64::max);

        let mut angles = vec![0.0f32; num_cells * num_sectors];

        // A perfectly flat roof: every horizon is zero, SVF is one.
        if global_max <= 0.0 {
            return Self {
                dims,
                num_sectors,
                angles,
                svf: vec![1.0f32; num_cells],
            };
        }

        let max_extent =
            ((dims.width() * dims.width() + dims.height() * dims.height()) as f64).sqrt();
        // Each quadrant's sectors with their directions, in sector order.
        let mut quadrant_rays: [Vec<(usize, (f64, f64))>; 4] = Default::default();
        for k in 0..num_sectors {
            let psi = core::f64::consts::TAU * k as f64 / num_sectors as f64;
            let (dx, dy) = (psi.cos(), psi.sin());
            quadrant_rays[quadrant(dx, dy)].push((k, (dx, dy)));
        }
        let tables = quadrant_tables(heights);
        let (width, height) = (dims.width() as f64, dims.height() as f64);
        // The horizon tangents of up to `LOCKSTEP_RAYS` sectors of one
        // cell in one quadrant, marched in lockstep so their load chains
        // overlap. A lane's step has no branch: once its ray has left the
        // grid or stopped, the lane re-reads the observer's cell and keeps
        // its tangent and `t`, so a ray ending costs no mispredict.
        let march = |table: &[QuadrantCell], idx: usize, rays: &[(usize, (f64, f64))]| {
            let mut best_tan = [0.0f64; LOCKSTEP_RAYS];
            let observer = table[idx];
            let h0 = observer.height;
            if f64::from(observer.bound) <= h0 {
                return best_tan;
            }
            let cell = dims.coord_of(idx);
            let (cx, cy) = (cell.x as f64 + 0.5, cell.y as f64 + 0.5);
            let mut directions = [(0.0, 0.0); LOCKSTEP_RAYS];
            let mut live = [false; LOCKSTEP_RAYS];
            for (lane, &(_, direction)) in rays.iter().enumerate() {
                directions[lane] = direction;
                live[lane] = true;
            }
            // The observer's cell is the sample at t = 0, so its skip is
            // the first sample's t.
            let mut t = [f64::from(observer.skip); LOCKSTEP_RAYS];
            while live.contains(&true) {
                for (lane, &(dx, dy)) in directions.iter().enumerate() {
                    let px = cx + dx * t[lane];
                    let py = cy + dy * t[lane];
                    let inside = live[lane]
                        & (t[lane] <= max_extent)
                        & (px >= 0.0)
                        & (py >= 0.0)
                        & (px < width)
                        & (py < height);
                    let sample = table[if inside {
                        py as usize * dims.width() + px as usize
                    } else {
                        idx
                    }];
                    let dh = sample.height - h0;
                    let dist = t[lane] * pitch;
                    let tan = dh / dist;
                    let raises = inside & (dh > 0.0) & (tan > best_tan[lane]);
                    best_tan[lane] = if raises { tan } else { best_tan[lane] };
                    // Early exit: no sample the ray can still reach beats
                    // best_tan.
                    live[lane] = inside & ((f64::from(sample.bound) - h0) / dist > best_tan[lane]);
                    t[lane] += if live[lane] {
                        f64::from(sample.skip)
                    } else {
                        0.0
                    };
                }
            }
            best_tan
        };

        // Each chunk returns its cells' angles cell-major plus their SVFs;
        // the scatter below writes them sector-major.
        let chunks = runtime.map_chunks(num_cells, HORIZON_CHUNK_CELLS, |cells| {
            // Cell-major tangents, filled one quadrant at a time.
            let mut tans = vec![0.0f64; cells.len() * num_sectors];
            for (table, rays) in tables.iter().zip(&quadrant_rays) {
                for (cell_tans, idx) in tans.chunks_exact_mut(num_sectors).zip(cells.clone()) {
                    for rays in rays.chunks(LOCKSTEP_RAYS) {
                        for (&(k, _), &tan) in rays.iter().zip(&march(table, idx, rays)) {
                            cell_tans[k] = tan;
                        }
                    }
                }
            }
            let mut chunk_angles = Vec::with_capacity(tans.len());
            let mut chunk_svf = Vec::with_capacity(cells.len());
            for cell_tans in tans.chunks_exact(num_sectors) {
                let mut svf_acc = 0.0f64;
                // The last distinct tangent with its angle and `cos²`,
                // starting from 0: `atan(0) = 0` and `cos(0)² = 1`.
                // Neighbouring sectors often meet the same block at the
                // same step, so a run of equal tangents takes one `atan`.
                let mut last = (0.0f64, 0.0f32, 1.0f64);
                for &tan in cell_tans {
                    if tan != last.0 {
                        let angle = tan.atan();
                        last = (tan, angle as f32, angle.cos() * angle.cos());
                    }
                    chunk_angles.push(last.1);
                    svf_acc += last.2;
                }
                chunk_svf.push((svf_acc / num_sectors as f64) as f32);
            }
            (chunk_angles, chunk_svf)
        });

        let mut svf = Vec::with_capacity(num_cells);
        for (chunk_angles, chunk_svf) in chunks {
            for (cell_angles, idx) in chunk_angles.chunks_exact(num_sectors).zip(svf.len()..) {
                for (k, &angle) in cell_angles.iter().enumerate() {
                    angles[k * num_cells + idx] = angle;
                }
            }
            svf.extend(chunk_svf);
        }

        Self {
            dims,
            num_sectors,
            angles,
            svf,
        }
    }

    /// Grid dimensions.
    #[inline]
    #[must_use]
    pub const fn dims(&self) -> GridDims {
        self.dims
    }

    /// Number of azimuth sectors.
    #[inline]
    #[must_use]
    pub const fn num_sectors(&self) -> usize {
        self.num_sectors
    }

    /// Interpolated horizon elevation (above the roof plane) at `cell` in
    /// the plane direction `plane_angle` (radians from grid +x towards +y).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    #[must_use]
    pub fn horizon_at(&self, cell: CellCoord, plane_angle: Radians) -> Radians {
        let idx = self.dims.linear_index(cell);
        let (s0, s1, w) = self.bracketing_sectors(plane_angle);
        let a0 = f64::from(s0[idx]);
        let a1 = f64::from(s1[idx]);
        Radians::new(a0 * (1.0 - w) + a1 * w)
    }

    /// The two sector slices bracketing `plane_angle` and the
    /// interpolation weight of the second one.
    fn bracketing_sectors(&self, plane_angle: Radians) -> (&[f32], &[f32], f64) {
        let n = self.num_sectors as f64;
        let frac = (plane_angle.value() / core::f64::consts::TAU).rem_euclid(1.0) * n;
        let k0 = frac as usize % self.num_sectors;
        let k1 = (k0 + 1) % self.num_sectors;
        let w = frac - frac.floor();
        let cells = self.dims.num_cells();
        let sector = |k: usize| &self.angles[k * cells..(k + 1) * cells];
        (sector(k0), sector(k1), w)
    }

    /// Writes one bit-packed shadow row: bit `idx % 64` of `row[idx / 64]`
    /// is [`is_shadowed`](Self::is_shadowed) for the cell with linear
    /// index `idx`, and padding bits past the last cell are 0.
    ///
    /// The sector bracket and weight are computed once for the row; the
    /// per-cell test is `horizon_at`'s arithmetic on two contiguous
    /// sector slices, so every bit equals the per-cell reference.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not `num_cells.div_ceil(64)` words long.
    pub(crate) fn shadow_row(&self, elevation: Radians, plane_angle: Radians, row: &mut [u64]) {
        assert_eq!(
            row.len(),
            self.dims.num_cells().div_ceil(64),
            "shadow row length"
        );
        let (s0, s1, w) = self.bracketing_sectors(plane_angle);
        let elevation = elevation.value();
        for (word, (c0, c1)) in row.iter_mut().zip(s0.chunks(64).zip(s1.chunks(64))) {
            let mut bits = 0u64;
            for (bit, (&a0, &a1)) in c0.iter().zip(c1).enumerate() {
                let h = f64::from(a0) * (1.0 - w) + f64::from(a1) * w;
                bits |= u64::from(elevation <= h) << bit;
            }
            *word = bits;
        }
    }

    /// Whether the sun at plane-local `(elevation, plane_angle)` is blocked
    /// by the horizon at `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    #[inline]
    #[must_use]
    pub fn is_shadowed(&self, cell: CellCoord, elevation: Radians, plane_angle: Radians) -> bool {
        elevation.value() <= self.horizon_at(cell, plane_angle).value()
    }

    /// Sky-view factor of `cell`: fraction of the plane-relative sky dome
    /// left unobstructed by DSM obstacles (1.0 on a clean roof).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    #[inline]
    #[must_use]
    pub fn sky_view_factor(&self, cell: CellCoord) -> f64 {
        f64::from(self.svf[self.dims.linear_index(cell)])
    }
}

/// What a horizon ray heading into one quadrant reads at a sample: the
/// cell's height, and over the cells the ray can still reach from it
/// (the cell included) an upper bound on their heights and how far the
/// ray may jump without passing anything but floor-height cells. 16 bytes,
/// so a sample costs one load of one line.
#[derive(Clone, Copy)]
struct QuadrantCell {
    height: f64,
    /// The reachable cells' maximum height, rounded up to `f32`.
    bound: f32,
    /// The Chebyshev distance, at least 1, to the nearest reachable cell
    /// above the DSM's minimum height; `u32::MAX` (off the grid) without
    /// any.
    skip: u32,
}

const _: () = assert!(core::mem::size_of::<QuadrantCell>() == 16);

/// The quadrant of direction `(dx, dy)`: bit 0 set when `dx < 0`, bit 1
/// when `dy < 0`. A ray heading into quadrant `q` reaches from cell
/// `(x, y)` only cells `(x', y')` with `x' >= x` (bit 0 clear) or
/// `x' <= x` (set), and `y' >= y` or `y' <= y` by bit 1.
fn quadrant(dx: f64, dy: f64) -> usize {
    usize::from(dx < 0.0) | usize::from(dy < 0.0) << 1
}

/// Each quadrant's table of [`QuadrantCell`]s, indexed by [`quadrant`]
/// and then by linear cell index.
fn quadrant_tables(heights: &Grid<f64>) -> [Vec<QuadrantCell>; 4] {
    let dims = heights.dims();
    let (width, height) = (dims.width(), dims.height());
    let floor = heights.iter().copied().fold(f64::INFINITY, f64::min);
    core::array::from_fn(|q| {
        let (back_x, back_y) = (q & 1 != 0, q & 2 != 0);
        // One step further into the quadrant along one axis; `None` off
        // the grid.
        let ahead = |v: usize, back: bool, len: usize| {
            if back {
                v.checked_sub(1)
            } else {
                Some(v + 1).filter(|&v| v < len)
            }
        };
        let mut table = vec![
            QuadrantCell {
                height: 0.0,
                bound: 0.0,
                skip: 0,
            };
            dims.num_cells()
        ];
        // Visit cells against the quadrant, so the three neighbours one
        // step into it, whose regions cover the cell's own but for the
        // cell, are done first. A raised cell is at distance 0, any other
        // one step beyond its nearest neighbour; rounding up is monotone,
        // so the maximum of rounded bounds is the rounded maximum.
        for row in 0..height {
            let y = if back_y { row } else { height - 1 - row };
            for col in 0..width {
                let x = if back_x { col } else { width - 1 - col };
                let z = heights[CellCoord::new(x, y)];
                let mut cell = QuadrantCell {
                    height: z,
                    bound: round_up_to_f32(z),
                    skip: if z > floor { 0 } else { u32::MAX },
                };
                let (nx, ny) = (ahead(x, back_x, width), ahead(y, back_y, height));
                let neighbours = [(nx, Some(y)), (Some(x), ny), (nx, ny)];
                for (nx, ny) in neighbours {
                    if let (Some(nx), Some(ny)) = (nx, ny) {
                        let next = table[ny * width + nx];
                        cell.bound = cell.bound.max(next.bound);
                        cell.skip = cell.skip.min(next.skip.saturating_add(1));
                    }
                }
                table[y * width + x] = cell;
            }
        }
        for cell in &mut table {
            cell.skip = cell.skip.max(1);
        }
        table
    })
}

/// The smallest `f32` at least `v`.
fn round_up_to_f32(v: f64) -> f32 {
    let nearest = v as f32;
    if f64::from(nearest) < v {
        nearest.next_up()
    } else {
        nearest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsm::RoofBuilder;
    use crate::obstacle::Obstacle;
    use crate::synth::{CorpusPreset, Fnv1a, ScenarioSpec, CORPUS_SEED};
    use proptest::prelude::*;
    use pv_units::Meters;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn roof_with_wall() -> Dsm {
        // 10 x 4 m roof with a 2 m tall, full-depth wall at x in [8, 8.4].
        RoofBuilder::new(Meters::new(10.0), Meters::new(4.0))
            .obstacle(Obstacle::new(
                crate::ObstacleKind::OffRoofBlock,
                Meters::new(8.0),
                Meters::ZERO,
                Meters::new(0.4),
                Meters::new(4.0),
                Meters::new(2.0),
                Meters::ZERO,
            ))
            .build()
    }

    #[test]
    fn flat_roof_has_zero_horizon_and_unit_svf() {
        let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0)).build();
        let h = HorizonMap::compute(&roof, 16);
        let c = CellCoord::new(10, 5);
        for k in 0..16 {
            let psi = Radians::new(core::f64::consts::TAU * k as f64 / 16.0);
            assert_eq!(h.horizon_at(c, psi).value(), 0.0);
        }
        assert_eq!(h.sky_view_factor(c), 1.0);
    }

    #[test]
    fn wall_raises_horizon_towards_it_only() {
        let roof = roof_with_wall();
        let h = HorizonMap::compute(&roof, 64);
        let cell = CellCoord::new(30, 10); // 2 m west of the wall at x=8 m
        let towards = h.horizon_at(cell, Radians::new(0.0)); // +x direction
        let away = h.horizon_at(cell, Radians::new(core::f64::consts::PI));
        // 2 m tall wall at ~1.9 m distance: atan(2/1.9) ~ 0.81 rad.
        assert!(towards.value() > 0.6, "towards {}", towards.value());
        assert_eq!(away.value(), 0.0);
    }

    #[test]
    fn horizon_decays_with_distance() {
        let roof = roof_with_wall();
        let h = HorizonMap::compute(&roof, 64);
        let near = h.horizon_at(CellCoord::new(35, 10), Radians::new(0.0));
        let far = h.horizon_at(CellCoord::new(5, 10), Radians::new(0.0));
        assert!(near.value() > far.value());
        assert!(far.value() > 0.0);
    }

    #[test]
    fn svf_lower_near_wall() {
        let roof = roof_with_wall();
        let h = HorizonMap::compute(&roof, 32);
        let near = h.sky_view_factor(CellCoord::new(38, 10));
        let far = h.sky_view_factor(CellCoord::new(2, 10));
        assert!(near < far, "near {near} far {far}");
        assert!(near > 0.5, "wall blocks less than half the dome");
        assert!(far <= 1.0);
    }

    #[test]
    fn shadow_test_blocks_low_sun_behind_wall() {
        let roof = roof_with_wall();
        let h = HorizonMap::compute(&roof, 64);
        // Cell 1.9 m west of the 2 m wall: horizon ~atan(2/1.9) ~ 0.81 rad.
        let cell = CellCoord::new(30, 10);
        // Sun in the +x direction at 10 degrees: blocked.
        assert!(h.is_shadowed(cell, Radians::new(0.17), Radians::new(0.0)));
        // Sun overhead-ish at 60 degrees: clear.
        assert!(!h.is_shadowed(cell, Radians::new(1.05), Radians::new(0.0)));
        // Sun in the -x direction at 10 degrees: clear.
        assert!(!h.is_shadowed(
            cell,
            Radians::new(0.17),
            Radians::new(core::f64::consts::PI)
        ));
    }

    #[test]
    fn on_obstacle_cells_see_over_their_own_height() {
        let roof = roof_with_wall();
        let h = HorizonMap::compute(&roof, 16);
        // A cell on top of the wall has h0 = 2 m, so the wall itself does
        // not shadow it.
        let on_wall = CellCoord::new(41, 10);
        assert_eq!(h.horizon_at(on_wall, Radians::new(0.0)).value(), 0.0);
    }

    /// The sequential march, one cell and one sector at a time, laid out
    /// sector-major: the oracle for the chunked, parallel map.
    fn sequential_march_angles(dsm: &Dsm, num_sectors: usize) -> Vec<f32> {
        let dims = dsm.dims();
        let pitch = dsm.geometry().pitch().value();
        let heights = dsm.heights();
        let global_max = heights.iter().copied().fold(0.0, f64::max);
        let max_extent =
            ((dims.width() * dims.width() + dims.height() * dims.height()) as f64).sqrt();
        let mut angles = vec![0.0f32; dims.num_cells() * num_sectors];
        for cell in dims.iter() {
            let h0 = heights[cell];
            for k in 0..num_sectors {
                let psi = core::f64::consts::TAU * k as f64 / num_sectors as f64;
                let (dx, dy) = (psi.cos(), psi.sin());
                let mut best_tan = 0.0f64;
                let mut t = 1.0f64;
                while t <= max_extent {
                    let px = cell.x as f64 + 0.5 + dx * t;
                    let py = cell.y as f64 + 0.5 + dy * t;
                    if px < 0.0
                        || py < 0.0
                        || px >= dims.width() as f64
                        || py >= dims.height() as f64
                    {
                        break;
                    }
                    let dh = heights[CellCoord::new(px as usize, py as usize)] - h0;
                    let dist = t * pitch;
                    if dh > 0.0 && dh / dist > best_tan {
                        best_tan = dh / dist;
                    }
                    if (global_max - h0) / dist <= best_tan {
                        break;
                    }
                    t += 1.0;
                }
                angles[k * dims.num_cells() + dims.linear_index(cell)] = best_tan.atan() as f32;
            }
        }
        angles
    }

    #[test]
    fn parallel_map_matches_sequential_march() {
        let chimneys = RoofBuilder::new(Meters::new(9.8), Meters::new(5.4))
            .obstacle(Obstacle::chimney(
                Meters::new(2.1),
                Meters::new(1.3),
                Meters::new(0.6),
                Meters::new(0.8),
                Meters::new(1.7),
            ))
            .obstacle(Obstacle::chimney(
                Meters::new(6.9),
                Meters::new(3.5),
                Meters::new(0.4),
                Meters::new(0.4),
                Meters::new(0.9),
            ))
            .build();
        for dsm in [chimneys, roof_with_wall()] {
            for sectors in [7, 64] {
                let want = sequential_march_angles(&dsm, sectors);
                for threads in [1usize, 3] {
                    let got =
                        HorizonMap::compute_with(&dsm, sectors, Runtime::with_threads(threads));
                    let same = want.len() == got.angles.len()
                        && want
                            .iter()
                            .zip(&got.angles)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "{sectors} sectors, {threads} thread(s)");
                }
            }
        }
    }

    /// The sequential march's sky-view factors: the SVF companion of
    /// [`sequential_march_angles`], one step at a time and summing `cos²`
    /// of each sector's angle in sector order.
    fn sequential_march_svf(dsm: &Dsm, num_sectors: usize) -> Vec<f32> {
        let dims = dsm.dims();
        let pitch = dsm.geometry().pitch().value();
        let heights = dsm.heights();
        let global_max = heights.iter().copied().fold(0.0, f64::max);
        let max_extent =
            ((dims.width() * dims.width() + dims.height() * dims.height()) as f64).sqrt();
        let mut svf = Vec::with_capacity(dims.num_cells());
        for cell in dims.iter() {
            let h0 = heights[cell];
            let mut acc = 0.0f64;
            for k in 0..num_sectors {
                let psi = core::f64::consts::TAU * k as f64 / num_sectors as f64;
                let (dx, dy) = (psi.cos(), psi.sin());
                let mut best_tan = 0.0f64;
                let mut t = 1.0f64;
                while t <= max_extent {
                    let px = cell.x as f64 + 0.5 + dx * t;
                    let py = cell.y as f64 + 0.5 + dy * t;
                    if px < 0.0
                        || py < 0.0
                        || px >= dims.width() as f64
                        || py >= dims.height() as f64
                    {
                        break;
                    }
                    let dh = heights[CellCoord::new(px as usize, py as usize)] - h0;
                    let dist = t * pitch;
                    if dh > 0.0 && dh / dist > best_tan {
                        best_tan = dh / dist;
                    }
                    if (global_max - h0) / dist <= best_tan {
                        break;
                    }
                    t += 1.0;
                }
                let angle = best_tan.atan();
                acc += angle.cos() * angle.cos();
            }
            svf.push((acc / num_sectors as f64) as f32);
        }
        svf
    }

    /// The first sector count, thread count and output whose bits differ
    /// from the sequential march, at 4, 7 and 64 sectors on 1 and 3
    /// threads.
    fn sequential_march_mismatch(dsm: &Dsm) -> Option<String> {
        let bits = |v: &[f32]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
        for sectors in [4, 7, 64] {
            let angles = bits(&sequential_march_angles(dsm, sectors));
            let svf = bits(&sequential_march_svf(dsm, sectors));
            for threads in [1usize, 3] {
                let got = HorizonMap::compute_with(dsm, sectors, Runtime::with_threads(threads));
                if bits(&got.angles) != angles {
                    return Some(format!("angles, {sectors} sectors, {threads} thread(s)"));
                }
                if bits(&got.svf) != svf {
                    return Some(format!("SVF, {sectors} sectors, {threads} thread(s)"));
                }
            }
        }
        None
    }

    /// A roof covered wall to wall by a 1.5 m block, so the DSM's floor
    /// is above 0; `chimney` adds a 3 m chimney on top of it.
    fn covered_roof(chimney: bool) -> Dsm {
        let block = Obstacle::off_roof_block(
            Meters::ZERO,
            Meters::ZERO,
            Meters::new(3.0),
            Meters::new(2.0),
            Meters::new(1.5),
        );
        let mut roof = RoofBuilder::new(Meters::new(3.0), Meters::new(2.0)).obstacle(block);
        if chimney {
            roof = roof.obstacle(Obstacle::chimney(
                Meters::new(1.2),
                Meters::new(0.6),
                Meters::new(0.4),
                Meters::new(0.4),
                Meters::new(3.0),
            ));
        }
        roof.build()
    }

    #[test]
    fn skip_march_matches_sequential_march_on_flat_and_covered_roofs() {
        let flat = RoofBuilder::new(Meters::new(3.0), Meters::new(2.0)).build();
        for dsm in [flat, covered_roof(false), covered_roof(true)] {
            let floor = dsm.heights().iter().copied().fold(f64::INFINITY, f64::min);
            let mismatch = sequential_march_mismatch(&dsm);
            assert!(mismatch.is_none(), "floor {floor}: {mismatch:?}");
        }
        // The covered roofs really do have a floor above 0.
        assert_eq!(covered_roof(true).heights()[CellCoord::new(0, 0)], 1.5);
    }

    /// Brute force over each quadrant and cell, in [`quadrant_tables`]
    /// order: the reachable cells' maximum height, and the Chebyshev
    /// distance (at least 1) to the nearest reachable cell above the
    /// grid's minimum, or `u32::MAX` without any.
    fn brute_force_tables(heights: &Grid<f64>) -> [Vec<(f64, u32)>; 4] {
        let dims = heights.dims();
        let floor = heights.iter().copied().fold(f64::INFINITY, f64::min);
        core::array::from_fn(|q| {
            let reaches = |c: CellCoord, r: CellCoord| {
                (if q & 1 == 0 { r.x >= c.x } else { r.x <= c.x })
                    && (if q & 2 == 0 { r.y >= c.y } else { r.y <= c.y })
            };
            dims.iter()
                .map(|c| {
                    let reach = || dims.iter().filter(move |&r| reaches(c, r));
                    let max = reach()
                        .map(|r| heights[r])
                        .fold(f64::NEG_INFINITY, f64::max);
                    let skip = reach()
                        .filter(|&r| heights[r] > floor)
                        .map(|r| r.x.abs_diff(c.x).max(r.y.abs_diff(c.y)).max(1))
                        .min()
                        .map_or(u32::MAX, |d| d as u32);
                    (max, skip)
                })
                .collect()
        })
    }

    /// The first quadrant and cell whose table entry differs from brute
    /// force: its height, its skip, or a bound that is not the reachable
    /// maximum rounded up to the next `f32`.
    fn quadrant_table_mismatch(heights: &Grid<f64>) -> Option<(usize, usize)> {
        let tables = quadrant_tables(heights);
        for (q, (table, brute)) in tables.iter().zip(brute_force_tables(heights)).enumerate() {
            for (idx, (cell, (max, skip))) in table.iter().zip(brute).enumerate() {
                let bound = f64::from(cell.bound);
                let tight = f64::from(cell.bound.next_down()) < max;
                if cell.height != heights.as_slice()[idx]
                    || cell.skip != skip
                    || bound < max
                    || !tight
                {
                    return Some((q, idx));
                }
            }
        }
        None
    }

    #[test]
    fn quadrant_tables_match_brute_force_on_roofs() {
        for dsm in [roof_with_wall(), covered_roof(false), covered_roof(true)] {
            assert_eq!(quadrant_table_mismatch(dsm.heights()), None);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Both values of every quadrant table equal brute force on random
        /// grids: 1-cell-wide strips, sparse and dense raised cells, grids
        /// with none (every skip leaves the grid) and floors off 0.
        #[test]
        fn quadrant_tables_match_brute_force(
            width in 1usize..24,
            height in 1usize..24,
            raised_one_in in 1u64..40,
            floor in -1.0..2.0f64,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let heights = Grid::from_fn(GridDims::new(width, height), |_| {
                if rng.gen_range(0..raised_one_in) == 0 { floor + rng.gen_range(0.1..3.0) } else { floor }
            });
            prop_assert_eq!(quadrant_table_mismatch(&heights), None);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Generated corpus sites, as drawn and again with mountain-valley
        /// terrain (horizon class 2) and every obstacle slot filled, give
        /// the sequential march's bits.
        #[test]
        fn skip_march_matches_sequential_march_on_corpus_sites(
            corpus_seed in 0u64..1_000_000,
            index in 0u32..512,
        ) {
            let drawn = ScenarioSpec::generate(corpus_seed, index);
            let mut dense = drawn.clone();
            dense.horizon_class = 2;
            dense.obstacle_density = 1.0;
            for spec in [drawn, dense] {
                let mismatch = sequential_march_mismatch(&spec.build().dsm);
                prop_assert!(mismatch.is_none(), "{}: {:?}", spec.to_spec_string(), mismatch);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Small roofs whose obstacles touch the grid border (a jump may
        /// land right on the edge, or past it) give the sequential march's
        /// bits.
        #[test]
        fn skip_march_matches_sequential_march_with_border_obstacles(
            width_m in 1.0..5.0f64,
            depth_m in 1.0..4.0f64,
            obstacles in prop::collection::vec(
                (0u8..4, 0.0..1.0f64, 0.2..1.2f64, 0.2..1.2f64, 0.3..4.0f64),
                1..5,
            ),
        ) {
            let mut roof = RoofBuilder::new(Meters::new(width_m), Meters::new(depth_m));
            for (side, along, w, d, height) in obstacles {
                let (w, d) = (w.min(width_m), d.min(depth_m));
                let (x, y) = match side {
                    0 => (0.0, along * (depth_m - d)),
                    1 => (width_m - w, along * (depth_m - d)),
                    2 => (along * (width_m - w), 0.0),
                    _ => (along * (width_m - w), depth_m - d),
                };
                roof = roof.obstacle(Obstacle::off_roof_block(
                    Meters::new(x),
                    Meters::new(y),
                    Meters::new(w),
                    Meters::new(d),
                    Meters::new(height),
                ));
            }
            let mismatch = sequential_march_mismatch(&roof.build());
            prop_assert!(mismatch.is_none(), "{:?}", mismatch);
        }
    }

    /// The first eight typical residential sites of the default corpus
    /// (see [`ScenarioSpec::is_typical_residential`]).
    fn typical_corpus_sites() -> impl Iterator<Item = ScenarioSpec> {
        (0..)
            .map(|index| ScenarioSpec::generate(CORPUS_SEED, index))
            .filter(ScenarioSpec::is_typical_residential)
            .take(8)
    }

    /// A corpus site as drawn, then with mountain-valley terrain (horizon
    /// class 2) and every obstacle slot filled.
    fn drawn_and_dense(drawn: ScenarioSpec) -> [ScenarioSpec; 2] {
        let mut dense = drawn.clone();
        dense.horizon_class = 2;
        dense.obstacle_density = 1.0;
        [drawn, dense]
    }

    /// FNV-1a over every angle and SVF bit, at 64 sectors and one thread,
    /// of the three paper roofs and of [`typical_corpus_sites`] as drawn
    /// and dense. Captured before the directional march replaced the
    /// isotropic one; the one-step-oracle tests sample far fewer sites.
    const HORIZON_PIN: u64 = 0x0174_7BD9_8CDF_2661;

    #[test]
    fn horizon_bits_are_pinned() {
        let corpus = typical_corpus_sites()
            .flat_map(drawn_and_dense)
            .map(|spec| spec.build().dsm);
        let mut hash = Fnv1a::default();
        for dsm in crate::paper_roofs()
            .into_iter()
            .map(|r| r.dsm)
            .chain(corpus)
        {
            let map = HorizonMap::compute_with(&dsm, 64, Runtime::sequential());
            for v in map.angles.iter().chain(&map.svf) {
                hash.write_bytes(&v.to_bits().to_le_bytes());
            }
        }
        assert_eq!(hash.finish(), HORIZON_PIN);
    }

    /// The one-step oracle on every `diverse64` site, as drawn and dense,
    /// at 64 sectors on 1 and 3 threads. Too slow for a debug build: run
    /// it with `cargo test --release -p pv_gis -- --ignored`.
    #[test]
    #[ignore = "whole corpus; run in release"]
    fn skip_march_matches_sequential_march_on_diverse64() {
        let bits = |v: &[f32]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
        let preset = CorpusPreset::Diverse64;
        for index in 0..preset.scenario_count() as u32 {
            for spec in drawn_and_dense(ScenarioSpec::generate(CORPUS_SEED, index)) {
                let dsm = spec.build().dsm;
                let angles = bits(&sequential_march_angles(&dsm, 64));
                let svf = bits(&sequential_march_svf(&dsm, 64));
                for threads in [1usize, 3] {
                    let got = HorizonMap::compute_with(&dsm, 64, Runtime::with_threads(threads));
                    let site = spec.to_spec_string();
                    assert!(
                        bits(&got.angles) == angles,
                        "angles, {threads} thread(s): {site}"
                    );
                    assert!(bits(&got.svf) == svf, "SVF, {threads} thread(s): {site}");
                }
            }
        }
    }

    /// The per-cell reference for [`HorizonMap::shadow_row`]: one
    /// `is_shadowed` call per cell.
    fn reference_row(h: &HorizonMap, elevation: Radians, plane_angle: Radians) -> Vec<u64> {
        let dims = h.dims();
        let mut row = vec![0u64; dims.num_cells().div_ceil(64)];
        for cell in dims.iter() {
            if h.is_shadowed(cell, elevation, plane_angle) {
                let bit = dims.linear_index(cell);
                row[bit / 64] |= 1 << (bit % 64);
            }
        }
        row
    }

    #[test]
    fn shadow_row_matches_per_cell_reference() {
        let flat = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0)).build();
        for dsm in [roof_with_wall(), flat] {
            let cells = dsm.dims().num_cells();
            // 1000 and 200 cells: the last word of every row is partial.
            let tail = cells % 64;
            assert_ne!(tail, 0);
            for sectors in [16, 64] {
                let h = HorizonMap::compute(&dsm, sectors);
                // Pre-filled with ones so stale bits would show.
                let mut row = vec![u64::MAX; cells.div_ceil(64)];
                // Plane angles outside [0, 2π) exercise the wrap.
                for a in 0..40 {
                    let plane_angle = Radians::new(-7.0 + 0.37 * f64::from(a));
                    // Elevations exactly on a horizon (0 on the flat roof,
                    // one cell's interpolated horizon) pin `<=` at ties.
                    let tie = h.horizon_at(CellCoord::new(19, 9), plane_angle);
                    let elevations = (0..12)
                        .map(|e| Radians::new(-0.1 + 0.13 * f64::from(e)))
                        .chain([Radians::new(0.0), tie]);
                    for elevation in elevations {
                        h.shadow_row(elevation, plane_angle, &mut row);
                        assert_eq!(row, reference_row(&h, elevation, plane_angle));
                    }
                }
                // Everything shadowed: every cell bit set, padding bits 0.
                h.shadow_row(Radians::new(-1.0), Radians::new(0.3), &mut row);
                assert!(row[..row.len() - 1].iter().all(|&w| w == u64::MAX));
                assert_eq!(row[row.len() - 1], (1u64 << tail) - 1);
            }
        }
    }

    #[test]
    fn interpolation_is_continuous_across_wraparound() {
        let roof = roof_with_wall();
        let h = HorizonMap::compute(&roof, 32);
        let cell = CellCoord::new(30, 10);
        let just_below = h.horizon_at(cell, Radians::new(core::f64::consts::TAU - 1e-9));
        let at_zero = h.horizon_at(cell, Radians::new(0.0));
        assert!((just_below.value() - at_zero.value()).abs() < 1e-6);
    }
}
