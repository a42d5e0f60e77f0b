//! The job vocabulary shared by the CLI and the daemon: run options
//! (budgets, fault tolerance, checkpointing), support thresholds, and
//! the flag-value parsers both frontends accept.
//!
//! These types lived in the CLI's argument parser until the daemon
//! needed them too; they moved down here so a wire request and a command
//! line deserialize into the *same* structures and execute through the
//! same [`crate::exec`] paths.

use std::time::Duration;

use dualminer_hypergraph::{plan, TrAlgorithm};

/// Budget and observability options shared by every subcommand and every
/// daemon job.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunOpts {
    /// Wall-clock budget (`None` = unlimited).
    pub timeout: Option<Duration>,
    /// Oracle-query / candidate-evaluation budget.
    pub max_queries: Option<u64>,
    /// Enumerated-transversal budget.
    pub max_transversals: Option<u64>,
    /// Print progress events to stderr (CLI) / stream them (daemon).
    pub progress: bool,
    /// Print a JSON stats line as the final line of stdout.
    pub stats_json: bool,
    /// Deterministic fault-injection schedule (`--fault-inject`).
    pub fault_inject: Option<dualminer_obs::FaultSpec>,
    /// Max deterministic retries per transiently failing query (`--retry`).
    pub retry: u32,
    /// Checkpoint file for crash-safe snapshots (`--checkpoint`).
    pub checkpoint: Option<String>,
    /// Queries between checkpoint saves (`--checkpoint-every`).
    pub checkpoint_every: Option<u64>,
    /// Resume from the checkpoint file (`--resume`).
    pub resume: bool,
}

impl RunOpts {
    /// The declarative budget these options describe.
    pub fn budget(&self) -> dualminer_obs::Budget {
        dualminer_obs::Budget {
            timeout: self.timeout,
            max_queries: self.max_queries,
            max_transversals: self.max_transversals,
        }
    }

    /// Whether any fault-tolerance option was given. `keys` and
    /// `transversals` route through Dualize & Advance only then, so their
    /// plain runs keep the one-shot dualization (and its exact output);
    /// `mine` runs one route either way.
    pub fn fault_tolerant(&self) -> bool {
        self.fault_inject.is_some() || self.retry > 0 || self.checkpoint.is_some() || self.resume
    }

    /// The retry policy these options describe (zero-backoff: the CLI's
    /// transient faults are injected, not waiting on a real resource).
    pub fn retry_policy(&self) -> dualminer_obs::RetryPolicy {
        dualminer_obs::RetryPolicy::retries(self.retry)
    }

    /// Checkpoint save cadence in queries (`--checkpoint-every`, ≥ 1).
    pub fn checkpoint_cadence(&self) -> u64 {
        self.checkpoint_every.unwrap_or(64).max(1)
    }
}

/// Support threshold: absolute row count or relative fraction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Support {
    /// At least this many rows.
    Absolute(usize),
    /// At least this fraction of rows (exclusive 0, inclusive 1).
    Relative(f64),
}

impl Support {
    /// Resolves to an absolute threshold for a database with `rows` rows.
    pub fn resolve(&self, rows: usize) -> usize {
        match *self {
            Support::Absolute(n) => n,
            Support::Relative(f) => ((f * rows as f64).ceil() as usize).max(1),
        }
    }
}

/// Parses a `--algo` / `"algo"` value against [`plan::ALGO_NAMES`].
/// Unknown names get an error listing every accepted spelling.
pub fn parse_algo(s: &str) -> Result<TrAlgorithm, String> {
    if let Some(&(algo, _)) = plan::ALGO_NAMES.iter().find(|&&(_, name)| name == s) {
        return Ok(algo);
    }
    let names: Vec<&str> = plan::ALGO_NAMES.iter().map(|&(_, name)| name).collect();
    let (last, rest) = names.split_last().expect("ALGO_NAMES is non-empty");
    Err(format!(
        "unknown --algo value {s:?} (want {}, or {last})",
        rest.join(", ")
    ))
}

/// Parses a duration: a number with an optional unit suffix (`ns`, `us`,
/// `ms`, `s`, `m`); a bare number means seconds. `0` (any unit) is a
/// valid, already-expired budget.
pub fn parse_duration(s: &str) -> Result<Duration, String> {
    let s = s.trim();
    let split = s
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(s.len());
    let (num, unit) = s.split_at(split);
    let value: f64 = num
        .parse()
        .map_err(|_| format!("invalid duration {s:?} (want e.g. 500ms, 2s, 1m)"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!("invalid duration {s:?}"));
    }
    let nanos = match unit {
        "ns" => value,
        "us" | "µs" => value * 1e3,
        "ms" => value * 1e6,
        "s" | "" => value * 1e9,
        "m" => value * 60.0 * 1e9,
        other => return Err(format!("unknown duration unit {other:?} in {s:?}")),
    };
    Ok(Duration::from_nanos(nanos as u64))
}

/// Parses a support threshold: an integer ≥ 1 (absolute rows) or a
/// fraction in (0, 1] (relative).
pub fn parse_support(s: &str) -> Result<Support, String> {
    if let Ok(n) = s.parse::<usize>() {
        if n == 0 {
            return Err("--min-support must be positive".into());
        }
        return Ok(Support::Absolute(n));
    }
    match s.parse::<f64>() {
        Ok(f) if f > 0.0 && f <= 1.0 => Ok(Support::Relative(f)),
        _ => Err(format!(
            "invalid --min-support value {s:?} (want integer ≥ 1 or fraction in (0,1])"
        )),
    }
}

/// Parses a `--rules` / `"rules"` minimum confidence: a fraction in
/// `[0, 1]`.
pub fn parse_confidence(s: &str) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(c) if (0.0..=1.0).contains(&c) => Ok(c),
        _ => Err(format!(
            "invalid rules confidence {s:?} (want fraction in [0, 1])"
        )),
    }
}

/// Cross-flag validation shared by the CLI parser and the wire protocol.
pub fn validate_run(run: &RunOpts) -> Result<(), String> {
    if run.resume && run.checkpoint.is_none() {
        return Err("--resume requires --checkpoint <path>".into());
    }
    if run.checkpoint_every.is_some() && run.checkpoint.is_none() {
        return Err("--checkpoint-every requires --checkpoint <path>".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_resolution() {
        assert_eq!(Support::Absolute(7).resolve(100), 7);
        assert_eq!(Support::Relative(0.1).resolve(100), 10);
        assert_eq!(Support::Relative(0.101).resolve(100), 11); // ceil
        assert_eq!(Support::Relative(0.001).resolve(10), 1); // min 1
    }

    #[test]
    fn durations() {
        assert_eq!(parse_duration("500ms").unwrap(), Duration::from_millis(500));
        assert_eq!(parse_duration("2s").unwrap(), Duration::from_secs(2));
        assert_eq!(parse_duration("3").unwrap(), Duration::from_secs(3));
        assert_eq!(parse_duration("1m").unwrap(), Duration::from_secs(60));
        assert_eq!(parse_duration("250us").unwrap(), Duration::from_micros(250));
        assert_eq!(parse_duration("0").unwrap(), Duration::ZERO);
        assert_eq!(parse_duration("1.5s").unwrap(), Duration::from_millis(1500));
        assert!(parse_duration("abc").is_err());
        assert!(parse_duration("5h").is_err());
    }

    #[test]
    fn supports_and_algos() {
        assert_eq!(parse_support("5").unwrap(), Support::Absolute(5));
        assert_eq!(parse_support("0.25").unwrap(), Support::Relative(0.25));
        assert!(parse_support("0").is_err());
        assert!(parse_support("1.5").is_err());
        assert_eq!(parse_algo("mu-mmcs").unwrap(), TrAlgorithm::MuMmcs);
        assert!(parse_algo("bogus").is_err());
        assert_eq!(
            parse_algo("mmcs").unwrap_err(),
            "unknown --algo value \"mmcs\" (want auto, berge, fk, levelwise, mu-mmcs, or egm)"
        );
    }

    #[test]
    fn run_opts_defaults() {
        let plain = RunOpts::default();
        assert!(!plain.fault_tolerant());
        assert_eq!(plain.checkpoint_cadence(), 64);
        assert_eq!(plain.retry_policy().max_retries, 0);
        assert!(validate_run(&plain).is_ok());
        let bad = RunOpts {
            resume: true,
            ..RunOpts::default()
        };
        assert!(validate_run(&bad).is_err());
    }
}
