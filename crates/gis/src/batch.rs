//! Per-module mean-irradiance evaluation.
//!
//! The floorplanner's energy model only ever consumes the *mean* irradiance
//! over each module's covered cells, yet the scalar
//! [`SolarDataset::irradiance`] path recomputes the full per-cell
//! composition (shadow bit test, normal dot product, SVF lookup) for every
//! `(step, module, cell)` triple. This module hoists everything static out
//! of that triple loop:
//!
//! - per-module **SVF sums** — the diffuse term becomes one multiply per
//!   module per step;
//! - per-module **shadow word masks** — the beam-shadow census becomes a
//!   handful of masked popcounts per module per step instead of one bit
//!   test per cell;
//! - per-cell **surface normals** hoisted into the group at construction
//!   (undulating roofs only) as three parallel `Vec<f64>` lanes, so the
//!   beam loop never chases the dataset's optional normal table per
//!   step × cell and the [`lanes`](crate::lanes) kernels can stream them;
//! - on planar roofs the beam incidence cosine is shared by all cells, so
//!   the beam term collapses to `beam_poa × unshadowed / cells`.
//!
//! The inner arithmetic — masked popcount census, shadow-gated beam sum —
//! lives in [`crate::lanes`], which pins one canonical summation order
//! across its scalar and lane implementations; see that module for the
//! bit-identity argument.
//!
//! One query sits on top: [`SolarDataset::mean_irradiance_group_into`]
//! (one group × a step range), built on the single per-(step, group)
//! helper. The evaluator runs it per module, both for its cached traces
//! and for the from-scratch reference pass, so the two agree bit for bit.

use crate::dataset::{SolarDataset, StepConditions};
use crate::lanes;
use pv_geom::{CellCoord, Footprint};

/// Static per-group state: one cell set whose mean irradiance is wanted as
/// a single number (in practice the cells covered by one PV module).
///
/// Built by [`SolarDataset::irradiance_group`]. A plain value: a caller
/// relocating a module swaps in a new group and keeps the old one to undo
/// a rejected move with no recomputation.
///
/// ```
/// use pv_gis::{RoofBuilder, SolarExtractor, Site};
/// use pv_geom::CellCoord;
/// use pv_units::{Meters, SimulationClock};
/// let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0)).build();
/// let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(1, 120))
///     .extract(&roof);
/// let cells: Vec<CellCoord> = (0..4).map(|x| CellCoord::new(x, 0)).collect();
/// let group = data.irradiance_group(&cells);
/// let mut means = vec![0.0; data.num_steps() as usize];
/// data.mean_irradiance_group_into(&group, 0..data.num_steps(), &mut means);
/// let scalar: f64 = cells.iter().map(|&c| data.irradiance(c, 6).as_w_per_m2()).sum::<f64>() / 4.0;
/// assert!((means[6] - scalar).abs() < 1e-9);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct IrradianceGroup {
    /// `(shadow word index, bits of this group in that word)`, sorted by
    /// word index (construction keeps the list ordered so lookups are a
    /// binary search rather than a linear scan).
    masks: Vec<(u32, u64)>,
    /// Linear cell indices (the undulating-surface beam path).
    cells: Vec<u32>,
    /// `1 / cell count`.
    inv_count: f64,
    /// Mean sky-view factor over the cells.
    svf_mean: f64,
    /// Per-cell unit normal components aligned with `cells`, split into
    /// three parallel lanes for the SoA beam kernel; empty on planar
    /// roofs (every cell shares the dataset's plane normal).
    nx: Vec<f64>,
    /// Normal y components (see `nx`).
    ny: Vec<f64>,
    /// Normal z components (see `nx`).
    nz: Vec<f64>,
}

impl IrradianceGroup {
    /// Builds the static state of one cell group.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty, contains duplicates, or contains a cell
    /// outside `dataset`'s grid.
    fn new(dataset: &SolarDataset, cells: &[CellCoord]) -> Self {
        assert!(!cells.is_empty(), "cell group must not be empty");
        let dims = dataset.dims();
        let planar = dataset.is_planar();
        let mut masks: Vec<(u32, u64)> = Vec::new();
        let mut linear = Vec::with_capacity(cells.len());
        let (mut nx, mut ny, mut nz) = if planar {
            (Vec::new(), Vec::new(), Vec::new())
        } else {
            (
                Vec::with_capacity(cells.len()),
                Vec::with_capacity(cells.len()),
                Vec::with_capacity(cells.len()),
            )
        };
        let mut svfs = Vec::with_capacity(cells.len());
        // Index into `masks` of the word the previous cell landed in.
        // Cells of one module arrive spatially clustered, so consecutive
        // bits usually share a word and this fast path almost always
        // hits; the fallback is a binary search over the sorted list
        // (with a sorted insert on miss), never a linear scan — large
        // modules on fine grids used to make construction quadratic.
        let mut last = usize::MAX;
        for &cell in cells {
            assert!(dims.contains(cell), "cell outside grid");
            let bit = dims.linear_index(cell);
            linear.push(bit as u32);
            svfs.push(dataset.sky_view_factor(cell));
            if !planar {
                let n = dataset.cell_normal_linear(bit);
                nx.push(n[0]);
                ny.push(n[1]);
                nz.push(n[2]);
            }
            let word = (bit / 64) as u32;
            let mask = 1u64 << (bit % 64);
            let slot = if last != usize::MAX && masks[last].0 == word {
                last
            } else {
                match masks.binary_search_by_key(&word, |&(w, _)| w) {
                    Ok(pos) => pos,
                    Err(pos) => {
                        masks.insert(pos, (word, 0));
                        pos
                    }
                }
            };
            last = slot;
            let entry = &mut masks[slot].1;
            // A repeated cell would skew the mean: the popcount census
            // counts it once while the cell count weighs it twice.
            assert_eq!(*entry & mask, 0, "duplicate cell in group");
            *entry |= mask;
        }
        let inv_count = 1.0 / cells.len() as f64;
        Self {
            masks,
            cells: linear,
            inv_count,
            svf_mean: lanes::sum(&svfs) * inv_count,
            nx,
            ny,
            nz,
        }
    }

    /// Mean plane-of-array irradiance of this group at one *sun-up* step;
    /// `planar_beam_poa` is `Some(beam POA)` on planar roofs (one shared
    /// incidence term, hoisted per step by [`step_beam_poa`]) and `None`
    /// on undulating ones (hoisted per-cell normals).
    ///
    /// The single source of the per-(step, group) arithmetic: every
    /// mean-irradiance query goes through it, which is what makes
    /// incremental re-evaluation bit-identical to a cold pass.
    #[inline]
    fn mean_at(
        &self,
        cond: &StepConditions,
        shadow_row: Option<&[u64]>,
        planar_beam_poa: Option<f64>,
    ) -> f64 {
        if let Some(beam_poa) = planar_beam_poa {
            // One incidence cosine for the whole roof: the beam term needs
            // only the unshadowed-cell census, a branch-free word-at-a-time
            // popcount stream.
            let shadowed: u32 = match shadow_row {
                None => 0,
                Some(words) => lanes::masked_popcount(words, &self.masks),
            };
            let unshadowed = self.cells.len() as f64 - f64::from(shadowed);
            compose(cond, beam_poa, unshadowed, self.inv_count, self.svf_mean)
        } else {
            // Undulating surface: per-cell (hoisted) normal lanes make the
            // beam term cell-dependent; the shadow bit becomes a branch-free
            // keep multiplier inside the lane kernel.
            let s = cond.sun_direction;
            let beam_sum =
                lanes::shadowed_beam_sum(&s, &self.nx, &self.ny, &self.nz, &self.cells, shadow_row);
            compose(
                cond,
                cond.beam_normal.as_w_per_m2(),
                beam_sum,
                self.inv_count,
                self.svf_mean,
            )
        }
    }
}

/// Sun-up steps per register block of the sweep's lane sums.
const STEP_BLOCK: usize = 4;

/// `lane[j] += terms[j]` over one block of steps.
#[inline]
fn add_block(lane: &mut [f64; STEP_BLOCK], terms: &[f64]) {
    for (a, &t) in lane.iter_mut().zip(terms) {
        *a += t;
    }
}

/// A group's mean irradiance at one sun-up step from its beam census:
/// `beam · census · inv_count + diffuse · svf_mean + ground`, in that
/// operation order and with no FMA. The one composition every
/// mean-irradiance query ends in, so the sweep and the per-group kernel
/// agree bit for bit.
#[inline]
fn compose(cond: &StepConditions, beam: f64, census: f64, inv_count: f64, svf_mean: f64) -> f64 {
    let diffuse = cond.diffuse_poa.as_w_per_m2();
    let ground = cond.ground_poa.as_w_per_m2();
    beam * census * inv_count + diffuse * svf_mean + ground
}

/// The shared planar beam POA of one sun-up step (`Some` only when the
/// roof is planar): one incidence cosine for every cell of the group.
#[inline]
fn step_beam_poa(plane_normal: Option<[f64; 3]>, cond: &StepConditions) -> Option<f64> {
    plane_normal.map(|n| {
        let s = cond.sun_direction;
        let cos_i = (s[0] * n[0] + s[1] * n[1] + s[2] * n[2]).max(0.0);
        cond.beam_normal.as_w_per_m2() * cos_i
    })
}

impl SolarDataset {
    /// Precomputes the static state of one cell group (typically the
    /// covered cells of one placed module) for
    /// [`mean_irradiance_group_into`](Self::mean_irradiance_group_into).
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty, contains a duplicate cell, or contains
    /// a cell outside the grid.
    #[must_use]
    pub fn irradiance_group(&self, cells: &[CellCoord]) -> IrradianceGroup {
        IrradianceGroup::new(self, cells)
    }

    /// Writes the mean plane-of-array irradiance of `group` for every step
    /// in `steps` into `out` (`out[step - steps.start]`, in W/m²).
    ///
    /// Equivalent to averaging [`irradiance`](Self::irradiance) over the
    /// group's cells, at a fraction of the cost (see the module docs).
    /// Sub-range stable: every step is computed independently, so any
    /// sub-range reproduces the matching slice of a full-range call
    /// bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `steps` exceeds the clock range or
    /// `out.len() != steps.len()`.
    pub fn mean_irradiance_group_into(
        &self,
        group: &IrradianceGroup,
        steps: core::ops::Range<u32>,
        out: &mut [f64],
    ) {
        assert!(steps.end <= self.num_steps(), "step range out of bounds");
        assert_eq!(
            out.len(),
            steps.len(),
            "output buffer must hold one mean per step"
        );
        let plane_normal = self.is_planar().then(|| self.plane_normal());

        for (rel, i) in steps.enumerate() {
            let cond = self.conditions(i);
            out[rel] = if cond.sun_up {
                group.mean_at(
                    cond,
                    self.shadow_row_words(i),
                    step_beam_poa(plane_normal, cond),
                )
            } else {
                0.0
            };
        }
    }

    /// Hands every anchor of `anchors`, in order, the mean plane-of-array
    /// irradiance trace of the `footprint` placed there: `visit(n, means)`
    /// with `means[step - steps.start]` in W/m², zero at sun-down steps.
    ///
    /// Each trace is bit-identical to
    /// [`mean_irradiance_group_into`](Self::mean_irradiance_group_into)
    /// over the footprint's cells in row-major order (the order of
    /// `pv_geom::Placement::cells_of`). On planar roofs it is that call,
    /// per anchor. On undulating roofs one sweep serves every anchor: each
    /// cell's beam term `keep · max(s · n, 0)` is computed once per sun-up
    /// step, in a rolling band of `footprint.height_cells()` grid rows
    /// (rows are keyed by `y % height`, so anchors in grid order compute
    /// each row once), and each anchor adds its cells' terms into lane
    /// `i % LANES` in cell order and folds with [`lanes::sum_lanes`] —
    /// the exact operations of [`lanes::shadowed_beam_sum`], at a cost per
    /// anchor of one add per cell and step.
    ///
    /// Memory: the band holds `grid width × footprint height × sun-up
    /// steps` terms.
    ///
    /// ```
    /// use pv_geom::{CellCoord, Footprint};
    /// use pv_gis::{RoofBuilder, SolarExtractor, Site};
    /// use pv_units::{Degrees, Meters, SimulationClock};
    /// let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0))
    ///     .undulation(Degrees::new(5.0), Meters::new(2.0), 3)
    ///     .build();
    /// let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(1, 120))
    ///     .extract(&roof);
    /// let footprint = Footprint::from_cells(3, 2, Meters::new(0.2));
    /// let anchors = [CellCoord::new(0, 0), CellCoord::new(5, 4)];
    /// data.sweep_mean_irradiance(footprint, &anchors, 0..data.num_steps(), |n, means| {
    ///     let a = anchors[n];
    ///     let cells: Vec<CellCoord> = (0..2)
    ///         .flat_map(|dy| (0..3).map(move |dx| CellCoord::new(a.x + dx, a.y + dy)))
    ///         .collect();
    ///     let mut want = vec![0.0; means.len()];
    ///     data.mean_irradiance_group_into(&data.irradiance_group(&cells), 0..data.num_steps(), &mut want);
    ///     assert_eq!(means, &want[..]);
    /// });
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `steps` exceeds the clock range or a footprint at one of
    /// `anchors` leaves the grid.
    pub fn sweep_mean_irradiance(
        &self,
        footprint: Footprint,
        anchors: &[CellCoord],
        steps: core::ops::Range<u32>,
        mut visit: impl FnMut(usize, &[f64]),
    ) {
        assert!(steps.end <= self.num_steps(), "step range out of bounds");
        let (w, h) = (footprint.width_cells(), footprint.height_cells());
        let dims = self.dims();
        let cells_at = |a: CellCoord| {
            assert!(
                a.x + w <= dims.width() && a.y + h <= dims.height(),
                "footprint at {a:?} leaves the grid"
            );
            (0..h).flat_map(move |dy| (0..w).map(move |dx| CellCoord::new(a.x + dx, a.y + dy)))
        };
        let mut means = vec![0.0f64; steps.len()];
        if self.is_planar() {
            let mut cells = Vec::with_capacity(w * h);
            for (n, &anchor) in anchors.iter().enumerate() {
                cells.clear();
                cells.extend(cells_at(anchor));
                let group = self.irradiance_group(&cells);
                self.mean_irradiance_group_into(&group, steps.clone(), &mut means);
                visit(n, &means);
            }
            return;
        }

        // Sun-up steps of the range, with what a beam term needs of each.
        let up: Vec<u32> = steps
            .clone()
            .filter(|&i| self.conditions(i).sun_up)
            .collect();
        let suns: Vec<([f64; 3], Option<&[u64]>)> = up
            .iter()
            .map(|&i| (self.conditions(i).sun_direction, self.shadow_row_words(i)))
            .collect();
        // Per cell, the sun-up steps padded to whole register blocks
        // (padding terms stay zero and are never read back).
        let stride = up.len().div_ceil(STEP_BLOCK) * STEP_BLOCK;
        let width = dims.width();
        // Band slot `y % h` holds grid row `y`: `[x][sun-up step]` terms.
        let mut band = vec![0.0f64; h * width * stride];
        let mut band_rows = vec![usize::MAX; h];
        let mut offsets = Vec::with_capacity(w * h);
        let mut svfs = Vec::with_capacity(w * h);
        let inv_count = 1.0 / (w * h) as f64;
        for (n, &anchor) in anchors.iter().enumerate() {
            for y in anchor.y..anchor.y + h {
                let slot = y % h;
                if band_rows[slot] != y {
                    band_rows[slot] = y;
                    let row = &mut band[slot * width * stride..(slot + 1) * width * stride];
                    for (x, terms) in row.chunks_exact_mut(stride.max(1)).enumerate() {
                        let cell = y * width + x;
                        let n = self.cell_normal_linear(cell);
                        for (term, &(sun, shadow)) in terms.iter_mut().zip(&suns) {
                            // `shadowed_beam_sum`'s term, operation for operation.
                            let dot = sun[0] * n[0] + sun[1] * n[1] + sun[2] * n[2];
                            let keep =
                                shadow.map_or(1.0, |words| lanes::keep_factor(words, cell as u32));
                            *term = keep * dot.max(0.0);
                        }
                    }
                }
            }
            offsets.clear();
            offsets.extend(cells_at(anchor).map(|c| ((c.y % h) * width + c.x) * stride));
            svfs.clear();
            svfs.extend(cells_at(anchor).map(|c| self.sky_view_factor(c)));
            let svf_mean = lanes::sum(&svfs) * inv_count;
            // Term `i` of each step goes to lane `i % LANES`, in cell
            // order; a block of steps keeps its lanes in registers.
            for (block, steps_up) in up.chunks(STEP_BLOCK).enumerate() {
                let k = block * STEP_BLOCK;
                let mut acc = [[0.0f64; STEP_BLOCK]; lanes::LANES];
                let mut quads = offsets.chunks_exact(lanes::LANES);
                for quad in &mut quads {
                    for (lane, &off) in acc.iter_mut().zip(quad) {
                        add_block(lane, &band[off + k..off + k + STEP_BLOCK]);
                    }
                }
                for (lane, &off) in acc.iter_mut().zip(quads.remainder()) {
                    add_block(lane, &band[off + k..off + k + STEP_BLOCK]);
                }
                for (j, &i) in steps_up.iter().enumerate() {
                    let cond = self.conditions(i);
                    let beam_sum = lanes::sum_lanes([acc[0][j], acc[1][j], acc[2][j], acc[3][j]]);
                    means[(i - steps.start) as usize] = compose(
                        cond,
                        cond.beam_normal.as_w_per_m2(),
                        beam_sum,
                        inv_count,
                        svf_mean,
                    );
                }
            }
            visit(n, &means);
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
    use pv_units::{Meters, SimulationClock};

    fn groups() -> Vec<Vec<CellCoord>> {
        vec![
            (0..8)
                .flat_map(|x| (0..4).map(move |y| CellCoord::new(x, y)))
                .collect(),
            (0..8)
                .flat_map(|x| (0..4).map(move |y| CellCoord::new(20 + x, 5 + y)))
                .collect(),
        ]
    }

    fn chimney() -> Obstacle {
        Obstacle::chimney(
            Meters::new(3.0),
            Meters::new(1.0),
            Meters::new(0.8),
            Meters::new(0.8),
            Meters::new(2.0),
        )
    }

    fn scalar_mean(data: &SolarDataset, cells: &[CellCoord], i: u32) -> f64 {
        cells
            .iter()
            .map(|&c| data.irradiance(c, i).as_w_per_m2())
            .sum::<f64>()
            / cells.len() as f64
    }

    /// Every group's kernel means agree with the per-cell scalar path.
    fn assert_matches_scalar_path(data: &SolarDataset) {
        let n = data.num_steps();
        for (g, cells) in groups().iter().enumerate() {
            let group = data.irradiance_group(cells);
            let mut out = vec![0.0; n as usize];
            data.mean_irradiance_group_into(&group, 0..n, &mut out);
            for i in 0..n {
                let want = scalar_mean(data, cells, i);
                let got = out[i as usize];
                assert!(
                    (got - want).abs() < 1e-9 * want.abs().max(1.0),
                    "step {i} group {g}: kernel {got} vs scalar {want}"
                );
            }
        }
    }

    #[test]
    fn matches_scalar_path_on_shaded_planar_roof() {
        let roof = RoofBuilder::new(Meters::new(8.0), Meters::new(3.0))
            .obstacle(chimney())
            .build();
        let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(3, 60))
            .seed(5)
            .extract(&roof);
        assert_matches_scalar_path(&data);
    }

    #[test]
    fn matches_scalar_path_on_undulating_roof() {
        let roof = RoofBuilder::new(Meters::new(6.0), Meters::new(3.0))
            .undulation(pv_units::Degrees::new(6.0), Meters::new(2.0), 9)
            .build();
        let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(2, 120))
            .seed(2)
            .extract(&roof);
        assert_matches_scalar_path(&data);
    }

    #[test]
    fn sub_range_matches_full_range() {
        for undulating in [false, true] {
            let mut builder =
                RoofBuilder::new(Meters::new(8.0), Meters::new(3.0)).obstacle(chimney());
            if undulating {
                builder = builder.undulation(pv_units::Degrees::new(5.0), Meters::new(2.0), 4);
            }
            let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(2, 60))
                .seed(3)
                .extract(&builder.build());
            let n = data.num_steps();
            for (g, cells) in groups().iter().enumerate() {
                let group = data.irradiance_group(cells);
                let mut full = vec![0.0; n as usize];
                data.mean_irradiance_group_into(&group, 0..n, &mut full);
                let mut part = vec![0.0; 10];
                data.mean_irradiance_group_into(&group, 12..22, &mut part);
                assert_eq!(
                    &full[12..22],
                    &part[..],
                    "undulating {undulating} group {g}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate cell")]
    fn duplicate_cell_in_group_rejected() {
        let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0)).build();
        let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(1, 240))
            .extract(&roof);
        let c = CellCoord::new(1, 1);
        let _ = data.irradiance_group(&[c, c]);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_group_rejected() {
        let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0)).build();
        let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(1, 240))
            .extract(&roof);
        let _ = data.irradiance_group(&[]);
    }

    #[test]
    #[should_panic(expected = "output buffer")]
    fn wrong_output_size_rejected() {
        let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0)).build();
        let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(1, 240))
            .extract(&roof);
        let group = data.irradiance_group(&[CellCoord::new(0, 0)]);
        // One slot too many.
        let mut out = vec![0.0; data.num_steps() as usize + 1];
        data.mean_irradiance_group_into(&group, 0..data.num_steps(), &mut out);
    }

    #[test]
    #[should_panic(expected = "output buffer")]
    fn single_group_wrong_output_size_rejected() {
        let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0)).build();
        let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(1, 240))
            .extract(&roof);
        let group = data.irradiance_group(&[CellCoord::new(0, 0)]);
        // Too few slots.
        let mut out = vec![0.0; 2];
        data.mean_irradiance_group_into(&group, 0..data.num_steps(), &mut out);
    }
}
