//! Error types for the measurement toolkit.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, PmtError>;

/// Errors produced by sensors, back-ends and the power meter.
#[derive(Debug)]
pub enum PmtError {
    /// An underlying I/O operation failed (sysfs read, report write, ...).
    Io {
        /// Path involved, if any.
        path: Option<PathBuf>,
        /// The underlying error.
        source: io::Error,
    },
    /// A sensor file or API response could not be parsed.
    Parse {
        /// What was being parsed.
        what: String,
        /// The offending content (possibly truncated).
        content: String,
    },
    /// The requested back-end is not available on this platform
    /// (e.g. no `pm_counters` directory, no GPU).
    BackendUnavailable {
        /// Back-end name.
        backend: String,
        /// Human-readable reason.
        reason: String,
    },
    /// A measurement domain was requested that the sensor does not expose.
    UnknownDomain(String),
    /// The meter was used in the wrong state (e.g. `stop_region` without
    /// `start_region`).
    InvalidState(String),
    /// A measurement region with this label is already active.
    RegionAlreadyActive(String),
    /// No samples were collected for a region, so no energy can be attributed.
    NoSamples(String),
}

impl PmtError {
    /// Build an I/O error tagged with a path.
    pub(crate) fn io(path: impl Into<PathBuf>, source: io::Error) -> Self {
        PmtError::Io {
            path: Some(path.into()),
            source,
        }
    }

    /// Build a parse error.
    pub(crate) fn parse(what: impl Into<String>, content: impl Into<String>) -> Self {
        let mut content = content.into();
        if content.len() > 200 {
            content.truncate(200);
        }
        PmtError::Parse {
            what: what.into(),
            content,
        }
    }

    /// Build a back-end-unavailable error.
    pub(crate) fn unavailable(backend: impl Into<String>, reason: impl Into<String>) -> Self {
        PmtError::BackendUnavailable {
            backend: backend.into(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for PmtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmtError::Io { path, source } => match path {
                Some(p) => write!(f, "I/O error on {}: {source}", p.display()),
                None => write!(f, "I/O error: {source}"),
            },
            PmtError::Parse { what, content } => {
                write!(f, "failed to parse {what}: {content:?}")
            }
            PmtError::BackendUnavailable { backend, reason } => {
                write!(f, "back-end {backend} unavailable: {reason}")
            }
            PmtError::UnknownDomain(d) => write!(f, "unknown measurement domain: {d}"),
            PmtError::InvalidState(s) => write!(f, "invalid meter state: {s}"),
            PmtError::RegionAlreadyActive(l) => write!(f, "measurement region {l:?} already active"),
            PmtError::NoSamples(l) => write!(f, "no samples collected for region {l:?}"),
        }
    }
}

impl std::error::Error for PmtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PmtError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for PmtError {
    fn from(source: io::Error) -> Self {
        PmtError::Io { path: None, source }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_path() {
        let e = PmtError::io(
            "/sys/cray/pm_counters/power",
            io::Error::new(io::ErrorKind::NotFound, "gone"),
        );
        let s = e.to_string();
        assert!(s.contains("pm_counters"));
        assert!(s.contains("gone"));
    }

    #[test]
    fn parse_error_truncates_content() {
        let long = "x".repeat(500);
        let e = PmtError::parse("energy_uj", long);
        match e {
            PmtError::Parse { content, .. } => assert!(content.len() <= 200),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn from_io_error_has_no_path() {
        let e: PmtError = io::Error::other("boom").into();
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        let e = PmtError::UnknownDomain("gpu7".into());
        takes_err(&e);
    }
}
