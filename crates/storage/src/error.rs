//! Typed errors for the storage stack.
//!
//! Every fallible operation in this crate — page I/O, WAL framing,
//! buffer-pool faults, recovery — reports a [`StorageError`] instead of
//! panicking. The variants split along the axis that matters for
//! recovery policy:
//!
//! * **transient** faults (`Transient`, interrupted I/O) are safe to
//!   retry — [`RetryPolicy`] implements the bounded
//!   exponential-backoff loop every layer shares;
//! * **permanent** faults (`Io`, `Corrupted`, `Unallocated`, …) must be
//!   surfaced: retrying cannot help, and masking them would turn a
//!   detected corruption into a silent wrong answer.

use std::fmt;
use std::io;
use std::time::Duration;

use ndcube::NdError;

use crate::device::PageId;

/// A failure in the storage stack.
#[derive(Debug)]
pub enum StorageError {
    /// An operating-system I/O error (permanent unless
    /// [`StorageError::is_transient`] says otherwise).
    Io {
        /// The operation that failed (e.g. `"read page"`).
        op: &'static str,
        /// The underlying error.
        source: io::Error,
    },
    /// A fault the device reported as transient (injected `EIO`,
    /// interrupted syscall). Retrying the same operation may succeed.
    Transient {
        /// The operation that failed.
        op: &'static str,
    },
    /// Data failed validation: a page checksum mismatch, a WAL record
    /// that decodes but contradicts its frame, a snapshot failing one
    /// of its typed checks (see
    /// [`SnapshotCheckFailed`](crate::SnapshotCheckFailed), whose
    /// [`into_error`](crate::SnapshotCheckFailed::into_error) names the
    /// failed check in `detail`). Never retryable — the bytes
    /// themselves are wrong; recovery quarantines the artifact and
    /// falls back instead.
    Corrupted {
        /// What was found corrupt.
        detail: String,
        /// The affected page, when the corruption is page-granular.
        page: Option<PageId>,
    },
    /// A page id beyond the store's allocated range.
    Unallocated {
        /// The requested page.
        page: PageId,
        /// Pages actually allocated.
        pages: usize,
    },
    /// Every buffer-pool frame is pinned; the pool is smaller than the
    /// concurrent working set.
    PoolExhausted {
        /// The pool's frame count.
        frames: usize,
    },
    /// A geometry or format mismatch: misaligned device file, undersized
    /// device on attach, partial page write.
    Layout {
        /// Description of the mismatch.
        detail: String,
    },
    /// A WAL-level protocol violation: a record the frame format cannot
    /// represent, an append on a log poisoned by an earlier torn write
    /// that could not be rolled back, or a file opened as a log that is
    /// not an `RPSWAL02` log (left untouched).
    Wal {
        /// Description of the violation.
        detail: String,
    },
    /// An engine-level (geometry) error bubbled through the storage
    /// stack, e.g. an out-of-bounds replayed record.
    Engine(NdError),
}

impl StorageError {
    /// Wraps an [`io::Error`] with the operation that produced it.
    pub fn io(op: &'static str, source: io::Error) -> Self {
        StorageError::Io { op, source }
    }

    /// Whether retrying the failed operation may succeed.
    pub fn is_transient(&self) -> bool {
        match self {
            StorageError::Transient { .. } => true,
            StorageError::Io { source, .. } => matches!(
                source.kind(),
                io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock
            ),
            _ => false,
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { op, source } => write!(f, "I/O error during {op}: {source}"),
            StorageError::Transient { op } => write!(f, "transient fault during {op}"),
            StorageError::Corrupted { detail, page } => match page {
                Some(p) => write!(f, "corruption detected on page {}: {detail}", p.0),
                None => write!(f, "corruption detected: {detail}"),
            },
            StorageError::Unallocated { page, pages } => {
                write!(f, "page {} unallocated (store holds {pages})", page.0)
            }
            StorageError::PoolExhausted { frames } => {
                write!(f, "all {frames} buffer-pool frames pinned")
            }
            StorageError::Layout { detail } => write!(f, "layout mismatch: {detail}"),
            StorageError::Wal { detail } => write!(f, "WAL error: {detail}"),
            StorageError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
            StorageError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NdError> for StorageError {
    fn from(e: NdError) -> Self {
        StorageError::Engine(e)
    }
}

/// Maps a storage failure into the engine-level error type, for code
/// that must fit the `RangeSumEngine` trait's `Result<_, NdError>`.
pub fn to_nd_error(e: StorageError) -> NdError {
    match e {
        StorageError::Engine(nd) => nd,
        other => NdError::Backend {
            detail: other.to_string(),
        },
    }
}

/// Bounded retry with exponential backoff for transient faults.
///
/// Permanent errors return immediately; transient ones are retried up to
/// `attempts` total tries, sleeping `base_delay`, `2·base_delay`,
/// `4·base_delay`, … between tries (no sleep when `base_delay` is zero,
/// which tests use to stay fast).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total tries (1 = no retry).
    pub attempts: u32,
    /// Sleep before the first retry; doubles each subsequent retry.
    pub base_delay: Duration,
}

impl Default for RetryPolicy {
    /// Four tries with a 500 µs initial backoff — enough to ride out
    /// injected transients without stalling a failing device for long.
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_delay: Duration::from_micros(500),
        }
    }
}

impl RetryPolicy {
    /// No retries: every error is returned at once.
    pub const NONE: RetryPolicy = RetryPolicy {
        attempts: 1,
        base_delay: Duration::ZERO,
    };

    /// `attempts` tries with no sleeping between them (test-friendly).
    pub fn no_backoff(attempts: u32) -> Self {
        RetryPolicy {
            attempts: attempts.max(1),
            base_delay: Duration::ZERO,
        }
    }

    /// Runs `f`, retrying transient failures per the policy.
    pub fn run<T>(
        &self,
        mut f: impl FnMut() -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let attempts = self.attempts.max(1);
        let mut delay = self.base_delay;
        let mut tried = 0u32;
        loop {
            match f() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    tried += 1;
                    if tried >= attempts || !e.is_transient() {
                        if e.is_transient() {
                            crate::obs::storage().retry_exhausted.inc();
                        }
                        return Err(e);
                    }
                    crate::obs::storage().retry_attempts.inc();
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                        delay = delay.saturating_mul(2);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_classification() {
        assert!(StorageError::Transient { op: "x" }.is_transient());
        assert!(StorageError::io("x", io::Error::from(io::ErrorKind::Interrupted)).is_transient());
        assert!(!StorageError::io("x", io::Error::other("boom")).is_transient());
        assert!(!StorageError::Corrupted {
            detail: "bad".into(),
            page: Some(PageId(3)),
        }
        .is_transient());
    }

    #[test]
    fn retry_recovers_from_transients() {
        let mut left = 2u32;
        let out = RetryPolicy::no_backoff(4).run(|| {
            if left > 0 {
                left -= 1;
                Err(StorageError::Transient { op: "read" })
            } else {
                Ok(7)
            }
        });
        assert_eq!(out.unwrap(), 7);
    }

    #[test]
    fn retry_gives_up_after_attempts() {
        let mut calls = 0u32;
        let out: Result<(), _> = RetryPolicy::no_backoff(3).run(|| {
            calls += 1;
            Err(StorageError::Transient { op: "read" })
        });
        assert!(out.is_err());
        assert_eq!(calls, 3);
    }

    #[test]
    fn permanent_errors_short_circuit() {
        let mut calls = 0u32;
        let out: Result<(), _> = RetryPolicy::no_backoff(5).run(|| {
            calls += 1;
            Err(StorageError::io("write", io::Error::other("dead disk")))
        });
        assert!(out.is_err());
        assert_eq!(calls, 1, "permanent faults must not be retried");
    }

    #[test]
    fn nd_error_mapping_preserves_engine_errors() {
        let nd = NdError::EmptyShape;
        assert_eq!(to_nd_error(StorageError::Engine(nd.clone())), nd);
        match to_nd_error(StorageError::Transient { op: "read" }) {
            NdError::Backend { detail } => assert!(detail.contains("transient")),
            other => panic!("expected Backend, got {other:?}"),
        }
    }

    #[test]
    fn display_is_informative() {
        let e = StorageError::Corrupted {
            detail: "checksum mismatch".into(),
            page: Some(PageId(9)),
        };
        let s = e.to_string();
        assert!(s.contains("page 9") && s.contains("checksum"), "{s}");
    }
}
