//! Error type for model construction and aggregation.

/// Errors produced by PV model construction and panel aggregation.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// A topology dimension (series length or string count) was zero.
    EmptyTopology,
    /// The topology's module count `series × strings` overflows `usize`.
    TopologyTooLarge {
        /// Requested modules per string.
        series: usize,
        /// Requested parallel strings.
        strings: usize,
    },
    /// The number of module operating points does not match the topology's
    /// `m × n` module count.
    TopologySizeMismatch {
        /// Modules the topology expects.
        expected: usize,
        /// Operating points supplied.
        actual: usize,
    },
}

impl core::fmt::Display for ModelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::EmptyTopology => write!(f, "topology dimensions must be positive"),
            Self::TopologyTooLarge { series, strings } => write!(
                f,
                "topology {series} x {strings} has more modules than fit in a usize"
            ),
            Self::TopologySizeMismatch { expected, actual } => write!(
                f,
                "topology expects {expected} module operating points, got {actual}"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(ModelError::EmptyTopology.to_string().contains("positive"));
        let e = ModelError::TopologySizeMismatch {
            expected: 16,
            actual: 12,
        };
        assert!(e.to_string().contains("16"));
        assert!(e.to_string().contains("12"));
    }
}
