//! Error type for the timing substrate.

use std::error::Error;
use std::fmt;

/// Errors produced by timing characterization and analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TimingError {
    /// The circuit still contains flip-flops; apply the scan cut first.
    SequentialCircuit,
    /// A referenced edge index was out of range.
    NoSuchEdge(usize),
    /// An analysis was requested with zero Monte-Carlo samples.
    ZeroSamples,
    /// The circuit has no primary outputs, so arrival-time statistics
    /// (and the circuit delay `Δ(C) = max_i Ar(o_i)`) are undefined.
    NoOutputs,
    /// The requested path does not exist (e.g. no path through the site).
    NoPath {
        /// Human-readable description of the missing path.
        what: String,
    },
}

impl fmt::Display for TimingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimingError::SequentialCircuit => {
                write!(f, "circuit is sequential; apply the scan cut first")
            }
            TimingError::NoSuchEdge(ix) => write!(f, "edge index {ix} out of range"),
            TimingError::ZeroSamples => write!(f, "monte-carlo sample count must be positive"),
            TimingError::NoOutputs => {
                write!(
                    f,
                    "circuit has no primary outputs; circuit delay is undefined"
                )
            }
            TimingError::NoPath { what } => write!(f, "no path exists: {what}"),
        }
    }
}

impl Error for TimingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(TimingError::NoSuchEdge(3).to_string().contains('3'));
        assert!(TimingError::SequentialCircuit.to_string().contains("scan"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TimingError>();
    }
}
