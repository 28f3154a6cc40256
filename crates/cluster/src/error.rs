//! Error type for the threaded runtime.

use cloudburst_core::{AbandonedJob, SiteId};
use std::fmt;
use std::io;

/// Failures surfaced by a cloud-bursting run.
#[derive(Debug)]
pub enum RunError {
    /// A chunk retrieval failed.
    Io(io::Error),
    /// No store was registered for a site that hosts data.
    NoStoreForSite(SiteId),
    /// The environment has no cores anywhere.
    NoWorkers,
    /// The run's configuration is one no run can start under (what is wrong
    /// with it).
    InvalidConfig(String),
    /// A runtime thread panicked (the payload's message, if any).
    WorkerPanic(String),
    /// No data was processed (empty index or all sites idle).
    NothingProcessed,
    /// The run finished but some jobs were permanently abandoned after
    /// exhausting their retry attempts — the result would be partial.
    Incomplete {
        /// The abandoned chunks, each with the site whose failure (or
        /// death) doomed it.
        abandoned: Vec<AbandonedJob>,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Io(e) => write!(f, "chunk retrieval failed: {e}"),
            RunError::NoStoreForSite(s) => write!(f, "no store registered for {s}"),
            RunError::NoWorkers => write!(f, "environment has no worker cores"),
            RunError::InvalidConfig(m) => write!(f, "invalid run configuration: {m}"),
            RunError::WorkerPanic(m) => write!(f, "runtime thread panicked: {m}"),
            RunError::NothingProcessed => write!(f, "no data was processed"),
            RunError::Incomplete { abandoned } => {
                write!(f, "run incomplete: {} jobs abandoned after retries", abandoned.len())?;
                // Name the first few victims — enough to start debugging
                // without flooding the terminal on a mass failure.
                for a in abandoned.iter().take(8) {
                    write!(f, "\n  {a}")?;
                }
                if abandoned.len() > 8 {
                    write!(f, "\n  … and {} more", abandoned.len() - 8)?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for RunError {
    fn from(e: io::Error) -> Self {
        RunError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudburst_core::ChunkId;

    #[test]
    fn display_is_informative() {
        let e = RunError::NoStoreForSite(SiteId::CLOUD);
        assert!(e.to_string().contains("cloud"));
        let e = RunError::Io(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(e.to_string().contains("gone"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&RunError::NoWorkers).is_none());
    }

    #[test]
    fn io_errors_convert() {
        let e: RunError = io::Error::other("x").into();
        assert!(matches!(e, RunError::Io(_)));
    }

    #[test]
    fn incomplete_lists_abandoned_chunks_and_sites() {
        let e = RunError::Incomplete {
            abandoned: vec![
                AbandonedJob { chunk: ChunkId(3), last_site: Some(SiteId::CLOUD) },
                AbandonedJob { chunk: ChunkId(9), last_site: None },
            ],
        };
        let s = e.to_string();
        assert!(s.contains("2 jobs abandoned"));
        assert!(s.contains("chunk3"));
        assert!(s.contains("cloud"));
        assert!(s.contains("chunk9"));
        assert!(s.contains("never assigned"));
    }

    #[test]
    fn incomplete_truncates_long_lists() {
        let abandoned: Vec<AbandonedJob> = (0..20)
            .map(|i| AbandonedJob { chunk: ChunkId(i), last_site: Some(SiteId::LOCAL) })
            .collect();
        let s = RunError::Incomplete { abandoned }.to_string();
        assert!(s.contains("20 jobs abandoned"));
        assert!(s.contains("chunk7"));
        assert!(!s.contains("chunk8"), "only the first 8 are listed");
        assert!(s.contains("and 12 more"));
    }
}
