//! Journaled, resumable run store for the experiment harness.
//!
//! Every bench-tier trial — one scenario row of one tier at one seed — is a
//! *committed, hash-keyed, auditable record*: the tier computes the row,
//! its oracles pass (a failing oracle is an error, so nothing is written),
//! and only then is the row appended to an **append-only JSONL journal**
//! keyed by a splitmix64 hash of `(experiment id, scenario fingerprint,
//! seed, engine config)`.  A resumed sweep loads the journal, *skips* every
//! committed trial (replaying its row bit-identically from disk — the
//! vendored JSON round trip is shortest-representation exact for finite
//! `f64`s), and fans the parallel executor out over the uncommitted set
//! only.  Reports are pure renderings of the store's rows, so an
//! interrupted-and-resumed sweep renders the same bytes as an uninterrupted
//! one.
//!
//! Modules:
//!
//! * [`hash`] — splitmix64 and the trial-key derivation.
//! * [`log`] — the append-only JSONL logs: the trial journal and, next to
//!   each tier's journal, its mid-run engine-checkpoint log
//!   (`<token>.ckpt.jsonl`).  Both records are declared by one field list
//!   and share one append handle and one crash-safe load (a truncated or
//!   corrupted **final** record is detected and dropped; corruption
//!   anywhere earlier is an error); a torn checkpoint falls back to the
//!   previous one or a cold start.
//! * [`store`] — [`RunStore`]: per-tier logs, the live committed trials,
//!   this run's replay/compute counts and the summary lines rendering them.
//! * [`value`] — field accessors for decoding journaled rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod log;
pub mod store;
pub mod value;

pub use hash::{trial_key, TrialKey};
pub use log::{CheckpointRecord, TrialRecord};
pub use store::RunStore;
pub use value::ValueExt;

use std::fmt;
use std::path::Path;

/// Version of the trial-journal record format **and** of every
/// `BENCH_*.json` report.  Bumped in this one place whenever a record or
/// report schema changes shape; the journal loader rejects records written
/// at any other version (a resumed sweep must never replay rows whose
/// layout the current binary misreads — recomputing is always safe,
/// misdecoding never is).
pub const SCHEMA_VERSION: u64 = 1;

/// Errors of the run store.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O failure on the journal file or store directory.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A record before the final one failed to parse — the journal is
    /// damaged beyond the crash-safe tail-drop and must not be trusted.
    CorruptRecord {
        /// The journal file.
        path: String,
        /// 1-based line number of the damaged record.
        line: usize,
        /// Parse failure detail.
        reason: String,
    },
    /// A record was written at a different [`SCHEMA_VERSION`].
    SchemaVersion {
        /// The journal file.
        path: String,
        /// 1-based line number of the record.
        line: usize,
        /// The version found in the record.
        found: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => write!(f, "run store I/O error on {path}: {source}"),
            StoreError::CorruptRecord { path, line, reason } => write!(
                f,
                "corrupt journal record at {path}:{line} (not the final record, so the \
                 crash-safe tail drop does not apply): {reason}"
            ),
            StoreError::SchemaVersion { path, line, found } => write!(
                f,
                "journal record at {path}:{line} has schema version {found}, this binary \
                 writes {SCHEMA_VERSION}; delete the store directory or rerun without --resume"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl StoreError {
    /// The `map_err` adapter for an I/O failure on `path`.
    pub(crate) fn io(path: &Path) -> impl Fn(std::io::Error) -> StoreError + '_ {
        move |source| StoreError::Io {
            path: path.display().to_string(),
            source,
        }
    }
}

/// Result alias of the crate.
pub type Result<T> = std::result::Result<T, StoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_nonempty_and_pairwise_distinct() {
        // One representative per variant: non-empty messages, and no two
        // variants rendering identically (a supervisor journaling by
        // message must be able to tell them apart).
        let errors = [
            StoreError::Io {
                path: "store/x.jsonl".to_string(),
                source: std::io::Error::other("disk gone"),
            },
            StoreError::CorruptRecord {
                path: "store/x.jsonl".to_string(),
                line: 2,
                reason: "bad".to_string(),
            },
            StoreError::SchemaVersion {
                path: "store/x.jsonl".to_string(),
                line: 2,
                found: 9,
            },
        ];
        let rendered: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
        for (i, a) in rendered.iter().enumerate() {
            assert!(!a.is_empty(), "{:?} renders empty", errors[i]);
            for (j, b) in rendered.iter().enumerate() {
                if i != j {
                    assert_ne!(
                        a, b,
                        "{:?} and {:?} render identically",
                        errors[i], errors[j]
                    );
                }
            }
        }
    }

    #[test]
    fn error_source_chain() {
        let e = StoreError::Io {
            path: "store/x.jsonl".to_string(),
            source: std::io::Error::other("disk gone"),
        };
        assert!(std::error::Error::source(&e).is_some());
        let e = StoreError::SchemaVersion {
            path: "store/x.jsonl".to_string(),
            line: 1,
            found: 2,
        };
        assert!(std::error::Error::source(&e).is_none());
    }
}
