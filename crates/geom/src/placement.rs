//! Sets of placed, non-overlapping modules.

use crate::coord::{CellCoord, GridDims};
use crate::distance::Point;
use crate::error::GeomError;
use crate::footprint::Footprint;
use crate::mask::CellMask;

/// One placed module: its anchor cell (top-left of the covered rectangle).
///
/// All modules of a [`Placement`] share the same [`Footprint`]; per-module
/// electrical roles (which series string a module belongs to) are assigned by
/// the floorplanning layer, not here.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlacedModule {
    /// Top-left cell of the covered rectangle.
    pub anchor: CellCoord,
}

/// A collection of identically-sized, non-overlapping modules on a grid.
///
/// Maintains the invariants the paper's Line 7 relies on: no two modules
/// share a cell, every module lies fully on valid cells, and covered cells
/// can be queried as a mask.
///
/// ```
/// use pv_geom::{CellCoord, CellMask, Footprint, GridDims, Placement};
/// use pv_units::Meters;
/// let dims = GridDims::new(20, 10);
/// let mask = CellMask::full(dims);
/// let fp = Footprint::from_cells(8, 4, Meters::new(0.2));
/// let mut p = Placement::new(dims, fp);
/// p.try_place(CellCoord::new(0, 0), &mask)?;
/// assert!(p.try_place(CellCoord::new(4, 2), &mask).is_err()); // overlap
/// assert_eq!(p.covered_cells().count(), 32);
/// # Ok::<(), pv_geom::GeomError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Placement {
    dims: GridDims,
    footprint: Footprint,
    modules: Vec<PlacedModule>,
    covered: CellMask,
}

impl Placement {
    /// An empty placement of `footprint`-sized modules on a `dims` grid.
    #[must_use]
    pub fn new(dims: GridDims, footprint: Footprint) -> Self {
        Self {
            dims,
            footprint,
            modules: Vec::new(),
            covered: CellMask::empty(dims),
        }
    }

    /// Grid dimensions.
    #[inline]
    #[must_use]
    pub const fn dims(&self) -> GridDims {
        self.dims
    }

    /// The shared module footprint.
    #[inline]
    #[must_use]
    pub const fn footprint(&self) -> Footprint {
        self.footprint
    }

    /// Number of placed modules.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// Whether no module has been placed yet.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// The placed modules, in placement order.
    #[inline]
    #[must_use]
    pub fn modules(&self) -> &[PlacedModule] {
        &self.modules
    }

    /// Mask of all cells covered by placed modules.
    #[inline]
    #[must_use]
    pub const fn covered_cells(&self) -> &CellMask {
        &self.covered
    }

    /// Checks whether a module anchored at `anchor` could be placed: fully
    /// inside the grid, fully on `valid` cells, and not overlapping any
    /// already-placed module.
    ///
    /// # Errors
    ///
    /// Returns the specific [`GeomError`] describing the first violated
    /// constraint; `Ok(())` means [`try_place`](Self::try_place) would
    /// succeed.
    pub fn check(&self, anchor: CellCoord, valid: &CellMask) -> Result<(), GeomError> {
        let (w, h) = (self.footprint.width_cells(), self.footprint.height_cells());
        if anchor.x + w > self.dims.width() || anchor.y + h > self.dims.height() {
            return Err(GeomError::OutOfBounds { anchor });
        }
        for dy in 0..h {
            for dx in 0..w {
                let cell = CellCoord::new(anchor.x + dx, anchor.y + dy);
                if !valid.is_set(cell) {
                    return Err(GeomError::CoversInvalidCell { anchor, cell });
                }
                if self.covered.is_set(cell) {
                    let existing = self
                        .modules
                        .iter()
                        .position(|m| self.module_covers(*m, cell))
                        .expect("covered cell must belong to a module");
                    return Err(GeomError::Overlap { anchor, existing });
                }
            }
        }
        Ok(())
    }

    /// Places a module anchored at `anchor`, validating against `valid`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`check`](Self::check); on error the placement is
    /// unchanged.
    pub fn try_place(&mut self, anchor: CellCoord, valid: &CellMask) -> Result<usize, GeomError> {
        self.check(anchor, valid)?;
        self.cover(anchor, true);
        self.modules.push(PlacedModule { anchor });
        Ok(self.modules.len() - 1)
    }

    /// Moves module `i` to a new anchor, validating against `valid`.
    ///
    /// The module's current cells do not count as occupied during the
    /// check, so relocating onto (or overlapping) its own footprint is
    /// allowed. On error the placement is unchanged; on success the
    /// previous anchor is returned (handy for undo).
    ///
    /// # Errors
    ///
    /// Same conditions as [`check`](Self::check) with module `i` ignored.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn try_relocate(
        &mut self,
        i: usize,
        anchor: CellCoord,
        valid: &CellMask,
    ) -> Result<CellCoord, GeomError> {
        let old = self.modules[i].anchor;
        self.cover(old, false);
        match self.check(anchor, valid) {
            Ok(()) => {
                self.cover(anchor, true);
                self.modules[i].anchor = anchor;
                Ok(old)
            }
            Err(e) => {
                self.cover(old, true);
                Err(e)
            }
        }
    }

    /// Sets or clears the covered bits of a footprint at `anchor`.
    fn cover(&mut self, anchor: CellCoord, on: bool) {
        let (w, h) = (self.footprint.width_cells(), self.footprint.height_cells());
        for dy in 0..h {
            for dx in 0..w {
                self.covered
                    .set(CellCoord::new(anchor.x + dx, anchor.y + dy), on);
            }
        }
    }

    /// Removes the most recently placed module, returning it.
    pub fn pop(&mut self) -> Option<PlacedModule> {
        let m = self.modules.pop()?;
        self.cover(m.anchor, false);
        Some(m)
    }

    /// Geometric centre of module `i` in metric roof coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn center(&self, i: usize) -> Point {
        let m = self.modules[i];
        let s = self.footprint.pitch().value();
        Point::new(
            (m.anchor.x as f64 + self.footprint.width_cells() as f64 / 2.0) * s,
            (m.anchor.y as f64 + self.footprint.height_cells() as f64 / 2.0) * s,
        )
    }

    /// Iterates the cells covered by module `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn cells_of(&self, i: usize) -> impl Iterator<Item = CellCoord> + '_ {
        let m = self.modules[i];
        let (w, h) = (self.footprint.width_cells(), self.footprint.height_cells());
        (0..h).flat_map(move |dy| {
            (0..w).map(move |dx| CellCoord::new(m.anchor.x + dx, m.anchor.y + dy))
        })
    }

    fn module_covers(&self, m: PlacedModule, cell: CellCoord) -> bool {
        cell.x >= m.anchor.x
            && cell.x < m.anchor.x + self.footprint.width_cells()
            && cell.y >= m.anchor.y
            && cell.y < m.anchor.y + self.footprint.height_cells()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_units::Meters;

    fn setup() -> (GridDims, CellMask, Placement) {
        let dims = GridDims::new(30, 12);
        let mask = CellMask::full(dims);
        let fp = Footprint::from_cells(8, 4, Meters::new(0.2));
        (dims, mask, Placement::new(dims, fp))
    }

    #[test]
    fn place_and_cover() {
        let (_, mask, mut p) = setup();
        let idx = p.try_place(CellCoord::new(2, 3), &mask).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(p.covered_cells().count(), 32);
        assert!(p.covered_cells().is_set(CellCoord::new(9, 6)));
        assert!(!p.covered_cells().is_set(CellCoord::new(10, 6)));
    }

    #[test]
    fn overlap_detected_with_index() {
        let (_, mask, mut p) = setup();
        p.try_place(CellCoord::new(0, 0), &mask).unwrap();
        p.try_place(CellCoord::new(8, 0), &mask).unwrap();
        let err = p.try_place(CellCoord::new(12, 2), &mask).unwrap_err();
        assert_eq!(
            err,
            GeomError::Overlap {
                anchor: CellCoord::new(12, 2),
                existing: 1
            }
        );
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn out_of_bounds_detected() {
        let (_, mask, mut p) = setup();
        assert!(matches!(
            p.try_place(CellCoord::new(23, 0), &mask),
            Err(GeomError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn invalid_cell_detected() {
        let (dims, _, mut p) = setup();
        let mut mask = CellMask::full(dims);
        mask.set(CellCoord::new(4, 2), false);
        let err = p.try_place(CellCoord::new(0, 0), &mask).unwrap_err();
        assert_eq!(
            err,
            GeomError::CoversInvalidCell {
                anchor: CellCoord::new(0, 0),
                cell: CellCoord::new(4, 2)
            }
        );
    }

    #[test]
    fn pop_restores_cells() {
        let (_, mask, mut p) = setup();
        p.try_place(CellCoord::new(0, 0), &mask).unwrap();
        let before = p.covered_cells().count();
        p.try_place(CellCoord::new(10, 0), &mask).unwrap();
        let m = p.pop().unwrap();
        assert_eq!(m.anchor, CellCoord::new(10, 0));
        assert_eq!(p.covered_cells().count(), before);
        // The freed area is placeable again.
        assert!(p.try_place(CellCoord::new(10, 0), &mask).is_ok());
    }

    #[test]
    fn relocate_moves_module_and_covers() {
        let (_, mask, mut p) = setup();
        p.try_place(CellCoord::new(0, 0), &mask).unwrap();
        p.try_place(CellCoord::new(8, 0), &mask).unwrap();
        let old = p.try_relocate(0, CellCoord::new(0, 6), &mask).unwrap();
        assert_eq!(old, CellCoord::new(0, 0));
        assert_eq!(p.modules()[0].anchor, CellCoord::new(0, 6));
        assert_eq!(p.covered_cells().count(), 64);
        assert!(!p.covered_cells().is_set(CellCoord::new(0, 0)));
        assert!(p.covered_cells().is_set(CellCoord::new(0, 6)));
    }

    #[test]
    fn relocate_onto_own_footprint_allowed() {
        let (_, mask, mut p) = setup();
        p.try_place(CellCoord::new(4, 4), &mask).unwrap();
        // Shift by one cell: overlaps the old position — legal, the module
        // does not collide with itself.
        assert!(p.try_relocate(0, CellCoord::new(5, 4), &mask).is_ok());
        assert_eq!(p.covered_cells().count(), 32);
    }

    #[test]
    fn failed_relocate_leaves_placement_unchanged() {
        let (_, mask, mut p) = setup();
        p.try_place(CellCoord::new(0, 0), &mask).unwrap();
        p.try_place(CellCoord::new(8, 0), &mask).unwrap();
        let before = p.clone();
        // Overlaps module 1.
        assert!(p.try_relocate(0, CellCoord::new(10, 1), &mask).is_err());
        // Out of bounds.
        assert!(p.try_relocate(0, CellCoord::new(25, 0), &mask).is_err());
        assert_eq!(p, before);
    }

    #[test]
    fn center_in_meters() {
        let (_, mask, mut p) = setup();
        p.try_place(CellCoord::new(0, 0), &mask).unwrap();
        let c = p.center(0);
        // 8x4 cells at 0.2 m -> centre at (0.8, 0.4).
        assert!((c.x - 0.8).abs() < 1e-12);
        assert!((c.y - 0.4).abs() < 1e-12);
    }

    #[test]
    fn cells_of_enumerates_footprint() {
        let (_, mask, mut p) = setup();
        p.try_place(CellCoord::new(3, 2), &mask).unwrap();
        let cells: Vec<CellCoord> = p.cells_of(0).collect();
        assert_eq!(cells.len(), 32);
        assert!(cells.contains(&CellCoord::new(10, 5)));
        assert!(!cells.contains(&CellCoord::new(11, 5)));
    }
}
