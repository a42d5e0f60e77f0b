//! The fault-tolerance error taxonomy: typed oracle failures and the
//! deterministic retry policy.
//!
//! Real deployments reach the database through I/O that can fail — a
//! timed-out connection, a transient storage error, a partition that never
//! heals. The drivers' query step (`dualminer-core::fallible`) surfaces
//! those failures as [`OracleError`] values classified as *transient*
//! (retry may succeed) or *permanent* (retrying is pointless). The
//! [`RetryPolicy`] here is the single retry mechanism every driver uses:
//! bounded, jitter-free exponential backoff, so a retried run issues the
//! same logical query sequence as an un-faulted one and the Theorem-10/21
//! query accounting is unchanged (retries are metered separately on
//! [`crate::Meter::retries`]).

use std::time::Duration;

/// Whether a failed oracle call is worth retrying.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ErrorClass {
    /// The failure may resolve on its own (timeout, transient I/O error);
    /// the retry policy applies.
    Transient,
    /// The failure is terminal (corrupt database, authorization revoked);
    /// the run aborts immediately without retrying.
    Permanent,
}

impl ErrorClass {
    /// Stable lower-case identifier (used in messages and stats).
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorClass::Transient => "transient",
            ErrorClass::Permanent => "permanent",
        }
    }
}

impl std::fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A failed `Is-interesting` evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleError {
    /// Transient (retryable) or permanent (terminal).
    pub class: ErrorClass,
    /// Human-readable description of the failure.
    pub message: String,
    /// The oracle-call index at which the fault fired, when known (the
    /// fault-injection harness always knows; real oracles may not).
    pub call_index: Option<u64>,
}

impl OracleError {
    /// A transient (retryable) error.
    pub fn transient(message: impl Into<String>) -> Self {
        OracleError {
            class: ErrorClass::Transient,
            message: message.into(),
            call_index: None,
        }
    }

    /// A permanent (terminal) error.
    pub fn permanent(message: impl Into<String>) -> Self {
        OracleError {
            class: ErrorClass::Permanent,
            message: message.into(),
            call_index: None,
        }
    }

    /// Attaches the oracle-call index at which the fault fired.
    pub fn at_call(mut self, index: u64) -> Self {
        self.call_index = Some(index);
        self
    }

    /// Whether the retry policy applies to this error.
    pub fn is_transient(&self) -> bool {
        self.class == ErrorClass::Transient
    }
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} oracle error: {}", self.class, self.message)?;
        if let Some(i) = self.call_index {
            write!(f, " (oracle call #{i})")?;
        }
        Ok(())
    }
}

impl std::error::Error for OracleError {}

/// Why a fault-tolerant run aborted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// A permanent oracle error, or a transient one that exhausted the
    /// retry budget.
    Oracle(OracleError),
    /// A checkpoint could not be written (the run aborts rather than
    /// continue un-checkpointed past the configured cadence).
    Checkpoint(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Oracle(e) => write!(f, "{e}"),
            RunError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<OracleError> for RunError {
    fn from(e: OracleError) -> Self {
        RunError::Oracle(e)
    }
}

/// Bounded, deterministic retry for transient oracle errors.
///
/// The backoff is **jitter-free** exponential: attempt `k` (1-based)
/// sleeps `base_backoff · 2^(k−1)`, capped at `max_backoff`. No random
/// jitter means a retried schedule is a pure function of the fault
/// schedule — the property the resume-equivalence and parallel==sequential
/// tests rely on. (In a fleet, jitter-free retry can synchronize clients;
/// a production deployment would widen this with per-client seeded jitter
/// derived from a stable client id, which preserves determinism per
/// client. The single-process drivers here do not need it.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retries per logical query (0 = fail on first transient
    /// error).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    /// No retries: transient errors abort immediately.
    fn default() -> Self {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// No retries.
    pub const fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// Up to `max_retries` immediate retries (no backoff sleep) — the
    /// configuration tests use, and the CLI's `--retry <max>` default.
    pub const fn retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// The deterministic backoff before retry `attempt` (1-based):
    /// `base_backoff · 2^(attempt−1)`, capped at `max_backoff`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let factor = 1u32
            .checked_shl(attempt.saturating_sub(1))
            .unwrap_or(u32::MAX);
        self.base_backoff
            .checked_mul(factor)
            .unwrap_or(self.max_backoff)
            .min(self.max_backoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_constructors_and_display() {
        let t = OracleError::transient("socket timeout").at_call(17);
        assert!(t.is_transient());
        assert_eq!(t.class, ErrorClass::Transient);
        assert_eq!(
            t.to_string(),
            "transient oracle error: socket timeout (oracle call #17)"
        );
        let p = OracleError::permanent("table dropped");
        assert!(!p.is_transient());
        assert_eq!(p.to_string(), "permanent oracle error: table dropped");
        let r: RunError = p.into();
        assert!(matches!(r, RunError::Oracle(_)));
        assert_eq!(
            RunError::Checkpoint("disk full".into()).to_string(),
            "checkpoint error: disk full"
        );
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_retries: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(35),
        };
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(3), Duration::from_millis(35)); // capped
        assert_eq!(p.backoff(32), Duration::from_millis(35)); // shift overflow capped

        let none = RetryPolicy::none();
        assert_eq!(none.max_retries, 0);
        assert_eq!(none.backoff(1), Duration::ZERO);
        assert_eq!(RetryPolicy::retries(3).backoff(2), Duration::ZERO);
        assert_eq!(RetryPolicy::default(), RetryPolicy::none());
    }
}
