//! Simple polygons in metric roof-plane coordinates.

use crate::coord::GridDims;
use crate::error::GeomError;
use crate::mask::CellMask;
use pv_units::Meters;

/// A simple polygon in the roof plane, vertices in metres.
///
/// Roof outlines are usually rectangles, but lean-to roofs with cut-outs,
/// hips or L-shapes are polygons; the suitable area of the paper's Fig. 6 is
/// a polygon minus encumbrance regions. Rasterization marks a grid cell valid
/// when its *centre* falls inside the polygon (even-odd rule).
///
/// ```
/// use pv_geom::{GridDims, Polygon};
/// use pv_units::Meters;
/// let tri = Polygon::new(vec![(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)])?;
/// let mask = tri.rasterize(GridDims::new(20, 20), Meters::new(0.2));
/// // Half the 4x4 m square, minus boundary effects.
/// assert!(mask.count() > 150 && mask.count() < 250);
/// # Ok::<(), pv_geom::GeomError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Polygon {
    vertices: Vec<(f64, f64)>,
}

impl Polygon {
    /// Creates a polygon from vertices in metres.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::DegeneratePolygon`] for fewer than 3 vertices.
    pub fn new(vertices: Vec<(f64, f64)>) -> Result<Self, GeomError> {
        if vertices.len() < 3 {
            return Err(GeomError::DegeneratePolygon);
        }
        Ok(Self { vertices })
    }

    /// An axis-aligned rectangle `[0, w] × [0, h]`.
    ///
    /// # Panics
    ///
    /// Panics if either side is not positive.
    #[must_use]
    pub fn rect(w: Meters, h: Meters) -> Self {
        assert!(
            w.value() > 0.0 && h.value() > 0.0,
            "rectangle sides must be positive"
        );
        Self {
            vertices: vec![
                (0.0, 0.0),
                (w.value(), 0.0),
                (w.value(), h.value()),
                (0.0, h.value()),
            ],
        }
    }

    /// The polygon's vertices in metres.
    #[must_use]
    pub fn vertices(&self) -> &[(f64, f64)] {
        &self.vertices
    }

    /// Even-odd point-in-polygon test.
    #[must_use]
    pub fn contains(&self, x: f64, y: f64) -> bool {
        let mut inside = false;
        let n = self.vertices.len();
        let mut j = n - 1;
        for i in 0..n {
            let (xi, yi) = self.vertices[i];
            let (xj, yj) = self.vertices[j];
            if (yi > y) != (yj > y) {
                let x_cross = (xj - xi) * (y - yi) / (yj - yi) + xi;
                if x < x_cross {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }

    /// Rasterizes to a cell mask: a cell is set when its centre lies inside
    /// the polygon. Cell `(i, j)` spans `[i·s, (i+1)·s] × [j·s, (j+1)·s]`.
    #[must_use]
    pub fn rasterize(&self, dims: GridDims, pitch: Meters) -> CellMask {
        let s = pitch.value();
        CellMask::from_fn(dims, |c| {
            let cx = (c.x as f64 + 0.5) * s;
            let cy = (c.y as f64 + 0.5) * s;
            self.contains(cx, cy)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::CellCoord;

    #[test]
    fn rect_contains_interior_not_exterior() {
        let r = Polygon::rect(Meters::new(4.0), Meters::new(2.0));
        assert!(r.contains(2.0, 1.0));
        assert!(!r.contains(4.5, 1.0));
        assert!(!r.contains(-0.1, 1.0));
    }

    #[test]
    fn rect_rasterization_is_exact() {
        // 4 m x 2 m at 20 cm pitch = 20 x 10 cells, all centres inside.
        let r = Polygon::rect(Meters::new(4.0), Meters::new(2.0));
        let mask = r.rasterize(GridDims::new(20, 10), Meters::new(0.2));
        assert_eq!(mask.count(), 200);
    }

    #[test]
    fn triangle_area_and_raster_agree() {
        let tri = Polygon::new(vec![(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)]).unwrap();
        let mask = tri.rasterize(GridDims::new(50, 50), Meters::new(0.2));
        // Raster area = count * 0.04 m^2 should approximate 50 m^2.
        let raster_area = mask.count() as f64 * 0.04;
        assert!(
            (raster_area - 50.0).abs() < 2.0,
            "raster area {raster_area}"
        );
    }

    #[test]
    fn concave_polygon() {
        // L-shape: 4x4 square minus its 2x2 top-right quadrant.
        let l = Polygon::new(vec![
            (0.0, 0.0),
            (4.0, 0.0),
            (4.0, 2.0),
            (2.0, 2.0),
            (2.0, 4.0),
            (0.0, 4.0),
        ])
        .unwrap();
        assert!(l.contains(1.0, 3.0));
        assert!(!l.contains(3.0, 3.0));
        let mask = l.rasterize(GridDims::new(4, 4), Meters::new(1.0));
        assert!(mask.is_set(CellCoord::new(0, 3)));
        assert!(!mask.is_set(CellCoord::new(3, 3)));
        assert_eq!(mask.count(), 12);
    }

    #[test]
    fn degenerate_rejected() {
        assert_eq!(
            Polygon::new(vec![(0.0, 0.0), (1.0, 1.0)]).unwrap_err(),
            GeomError::DegeneratePolygon
        );
    }
}
