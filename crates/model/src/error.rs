//! Error type for model construction.

/// Errors produced by PV model construction.
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
}

impl core::fmt::Display for ModelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::EmptyTopology => write!(f, "topology dimensions must be positive"),
            Self::TopologyTooLarge { series, strings } => write!(
                f,
                "topology {series} x {strings} has more modules than fit in a usize"
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
        let e = ModelError::TopologyTooLarge {
            series: 16,
            strings: 12,
        };
        assert!(e.to_string().contains("16"));
        assert!(e.to_string().contains("12"));
    }
}
