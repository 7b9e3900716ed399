//! Table I-style reporting for experiment harnesses.
//!
//! ```
//! use pv_floorplan::{ComparisonRow, Table1Report};
//! use pv_units::WattHours;
//! let mut report = Table1Report::new();
//! report.push(ComparisonRow {
//!     label: "Roof 1".into(),
//!     dims: (287, 51),
//!     ng: 9_416,
//!     n_modules: 16,
//!     traditional: WattHours::from_mwh(3.430),
//!     proposed: WattHours::from_mwh(4.094),
//!     published_gain_percent: Some(19.37),
//! });
//! let table = report.to_string();
//! assert!(table.contains("Roof 1"));
//! assert!(table.contains("+19.36")); // measured gain ...
//! assert!(table.contains("+19.37")); // ... beside the published one
//! ```

use pv_units::WattHours;

/// One row of a traditional-vs-proposed comparison (Table I format).
#[derive(Clone, Debug, PartialEq)]
pub struct ComparisonRow {
    /// Roof / scenario label.
    pub label: String,
    /// Grid dimensions "WxL".
    pub dims: (usize, usize),
    /// Valid grid elements.
    pub ng: usize,
    /// Number of modules.
    pub n_modules: usize,
    /// Yearly energy of the traditional placement.
    pub traditional: WattHours,
    /// Yearly energy of the proposed placement.
    pub proposed: WattHours,
    /// Published improvement from the paper, if any, for side-by-side
    /// comparison.
    pub published_gain_percent: Option<f64>,
}

impl ComparisonRow {
    /// Our measured improvement, percent.
    #[must_use]
    pub fn gain_percent(&self) -> f64 {
        self.proposed.percent_gain_over(self.traditional)
    }
}

/// A set of comparison rows rendered like the paper's Table I.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Table1Report {
    /// The rows, in presentation order.
    pub rows: Vec<ComparisonRow>,
}

impl Table1Report {
    /// Creates an empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a row.
    pub fn push(&mut self, row: ComparisonRow) {
        self.rows.push(row);
    }
}

impl core::fmt::Display for Table1Report {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "{:<8} {:>9} {:>7} {:>4} {:>12} {:>12} {:>8} {:>10}",
            "Roof", "WxL", "Ng", "N", "Trad [MWh]", "Prop [MWh]", "%", "paper %"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<8} {:>4}x{:<4} {:>7} {:>4} {:>12.3} {:>12.3} {:>+8.2} {}",
                row.label,
                row.dims.0,
                row.dims.1,
                row.ng,
                row.n_modules,
                row.traditional.as_mwh(),
                row.proposed.as_mwh(),
                row.gain_percent(),
                match row.published_gain_percent {
                    Some(p) => format!("{p:>+9.2}"),
                    None => format!("{:>9}", "-"),
                },
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> ComparisonRow {
        ComparisonRow {
            label: "Roof 1".to_owned(),
            dims: (287, 51),
            ng: 9416,
            n_modules: 16,
            traditional: WattHours::from_mwh(3.430),
            proposed: WattHours::from_mwh(4.094),
            published_gain_percent: Some(19.37),
        }
    }

    #[test]
    fn gain_matches_table1() {
        assert!((row().gain_percent() - 19.36).abs() < 0.05);
    }

    #[test]
    fn display_renders_all_rows() {
        let mut report = Table1Report::new();
        report.push(row());
        report.push(ComparisonRow {
            n_modules: 32,
            published_gain_percent: None,
            ..row()
        });
        let text = report.to_string();
        assert_eq!(text.lines().count(), 3); // header + 2 rows
        assert!(text.contains("Roof 1"));
        assert!(text.contains("287x51"));
        assert!(text.contains("+19.3"));
        assert!(text.contains('-'));
    }
}
