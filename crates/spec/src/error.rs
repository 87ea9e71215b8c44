//! Error type for specification validation and DSL parsing.

use std::fmt;

/// Error produced while validating or parsing a specification.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpecError {
    /// The specification failed Tier A analysis. Carries *every*
    /// diagnostic found (warnings and info included), not just the
    /// first error — produced by [`crate::validate::validate`].
    Invalid {
        /// All findings, in tree walk order.
        diagnostics: Vec<crate::diag::Diagnostic>,
    },
    /// A diagram has no blocks.
    EmptyDiagram {
        /// Name of the empty diagram.
        diagram: String,
    },
    /// A numeric parameter is out of its legal range.
    InvalidParameter {
        /// Path to the offending block, e.g. `Data Center/Server Box`.
        block: String,
        /// Parameter name as it appears in the DSL.
        parameter: &'static str,
        /// Human-readable description of the problem.
        message: String,
    },
    /// Redundancy parameters present on a non-redundant block, or
    /// missing on a redundant block.
    RedundancyMismatch {
        /// Path to the offending block.
        block: String,
        /// Description of the mismatch.
        message: String,
    },
    /// Two blocks in one diagram share a name.
    DuplicateBlock {
        /// Name of the diagram.
        diagram: String,
        /// The duplicated block name.
        block: String,
    },
    /// DSL syntax error.
    Parse {
        /// 1-based line number.
        line: usize,
        /// 1-based column number.
        column: usize,
        /// Description of what went wrong.
        message: String,
    },
    /// JSON (de)serialization error.
    Json {
        /// What the JSON reader rejected.
        message: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Invalid { diagnostics } => {
                let (errors, warnings, _) = crate::diag::severity_counts(diagnostics);
                write!(f, "specification rejected: {errors} error(s), {warnings} warning(s)")?;
                for d in diagnostics {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            SpecError::EmptyDiagram { diagram } => {
                write!(f, "diagram \"{diagram}\" has no blocks")
            }
            SpecError::InvalidParameter { block, parameter, message } => {
                write!(f, "block \"{block}\": parameter {parameter}: {message}")
            }
            SpecError::RedundancyMismatch { block, message } => {
                write!(f, "block \"{block}\": {message}")
            }
            SpecError::DuplicateBlock { diagram, block } => {
                write!(f, "diagram \"{diagram}\" has two blocks named \"{block}\"")
            }
            SpecError::Parse { line, column, message } => {
                write!(f, "parse error at {line}:{column}: {message}")
            }
            SpecError::Json { message } => write!(f, "json error: {message}"),
        }
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_context() {
        let e = SpecError::InvalidParameter {
            block: "A/B".into(),
            parameter: "mtbf",
            message: "must be positive".into(),
        };
        let s = e.to_string();
        assert!(s.contains("A/B") && s.contains("mtbf") && s.contains("positive"));
    }

    #[test]
    fn parse_error_has_position() {
        let e = SpecError::Parse { line: 3, column: 7, message: "expected '{'".into() };
        assert!(e.to_string().contains("3:7"));
    }
}
