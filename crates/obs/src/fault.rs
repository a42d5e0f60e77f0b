//! The seeded fault-injection harness: reproducible fault schedules for
//! testing the fault-tolerance layer end to end.
//!
//! A [`FaultSpec`] is the declarative schedule (parsed from the CLI's
//! `--fault-inject <spec>` string); [`FaultSpec::plan`] turns it into a
//! live [`FaultPlan`] with the per-run counters. The drivers consult the
//! plan in their one query step (`dualminer-core::fallible::
//! query_with_retry`), before every attempt reaches the oracle;
//! everything *about* the schedule — parsing, seeding, the deterministic
//! decision function — lives here so the CLI and tests share one grammar.
//!
//! Two kinds of trigger, chosen for the two determinism regimes:
//!
//! * **Call-index triggers** (`burst=K@I`, `permanent=I`) fire at global
//!   oracle-call arrival indices (0-based, counting every attempt
//!   including retries). Deterministic for sequential drivers; under
//!   parallel evaluation arrival order is scheduling-dependent, so tests
//!   that sweep thread counts use content-keyed triggers instead.
//! * **Content-keyed triggers** (`transient=P`) decide per *query
//!   content*: a query with key `k` fails its first attempt iff
//!   `hash(seed, k)` falls in a `P`-fraction of the hash space. The
//!   decision depends only on (seed, content), never on arrival order, so
//!   the same queries fault at every thread count — and exactly one
//!   retry per faulted query always suffices.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::error::OracleError;

/// FNV-1a 64-bit hash — the workspace's stable, dependency-free hash for
/// fault keying and checkpoint checksums.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Mixes a seed into a content key (one round of splitmix64).
fn mix(seed: u64, key: u64) -> u64 {
    let mut z = seed ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A declarative, reproducible fault schedule.
///
/// Parsed from a comma-separated clause list (the CLI grammar):
///
/// ```text
/// seed=42,transient=0.1,burst=3@10,permanent=250,latency=2ms
/// ```
///
/// * `seed=N` — seeds the content-keyed decisions (default 0).
/// * `transient=P` — each distinct query content fails its **first**
///   attempt with probability `P` (content-keyed, thread-count
///   independent); the retry then succeeds.
/// * `burst=K@I` — calls `I, I+1, …, I+K−1` (global arrival index) fail
///   transiently.
/// * `permanent=I` — call `I` fails permanently (repeatable clause).
/// * `latency=D` — every call sleeps `D` first (e.g. `2ms`, `1s`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSpec {
    /// Seed for content-keyed decisions.
    pub seed: u64,
    /// First-attempt transient-failure probability per query content.
    pub transient_prob: f64,
    /// Transient burst: `(start_index, length)` over global call indices.
    pub burst: Option<(u64, u64)>,
    /// Global call indices that fail permanently.
    pub permanent_at: Vec<u64>,
    /// Injected latency per call.
    pub latency: Duration,
}

impl FaultSpec {
    /// Parses the comma-separated clause grammar. Empty string = no
    /// faults.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::default();
        for clause in s.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause {clause:?}: expected key=value"))?;
            match key.trim() {
                "seed" => {
                    spec.seed = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("fault clause {clause:?}: invalid seed"))?;
                }
                "transient" => {
                    let p: f64 = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("fault clause {clause:?}: invalid probability"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!(
                            "fault clause {clause:?}: probability must be in [0, 1]"
                        ));
                    }
                    spec.transient_prob = p;
                }
                "burst" => {
                    let (len, start) = value
                        .trim()
                        .split_once('@')
                        .ok_or_else(|| format!("fault clause {clause:?}: expected burst=K@I"))?;
                    let len: u64 = len
                        .trim()
                        .parse()
                        .map_err(|_| format!("fault clause {clause:?}: invalid burst length"))?;
                    let start: u64 = start
                        .trim()
                        .parse()
                        .map_err(|_| format!("fault clause {clause:?}: invalid burst start"))?;
                    spec.burst = Some((start, len));
                }
                "permanent" => {
                    let i: u64 = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("fault clause {clause:?}: invalid call index"))?;
                    spec.permanent_at.push(i);
                }
                "latency" => {
                    spec.latency = parse_latency(value.trim())
                        .ok_or_else(|| format!("fault clause {clause:?}: invalid duration"))?;
                }
                other => return Err(format!("unknown fault clause key {other:?}")),
            }
        }
        Ok(spec)
    }

    /// Starts the schedule: fresh call counter and per-content attempt
    /// tracking.
    pub fn plan(&self) -> FaultPlan {
        FaultPlan {
            spec: self.clone(),
            calls: AtomicU64::new(0),
            attempts: Mutex::new(HashMap::new()),
        }
    }
}

/// `Ns`/`us`/`ms`/`s` duration suffix parsing for the latency clause.
fn parse_latency(s: &str) -> Option<Duration> {
    let split = s
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(s.len());
    let (num, unit) = s.split_at(split);
    let value: f64 = num.parse().ok()?;
    if !value.is_finite() || value < 0.0 {
        return None;
    }
    let nanos = match unit {
        "ns" => value,
        "us" | "µs" => value * 1e3,
        "ms" => value * 1e6,
        "s" | "" => value * 1e9,
        _ => return None,
    };
    Some(Duration::from_nanos(nanos as u64))
}

/// A live fault schedule: the spec plus this run's arrival counter and
/// per-content attempt counts. Thread-safe; one plan is shared by all
/// workers of a parallel run.
#[derive(Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    calls: AtomicU64,
    attempts: Mutex<HashMap<u64, u32>>,
}

impl FaultPlan {
    /// Total oracle-call arrivals observed (including retries).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Sleeps the injected latency, if any.
    pub fn inject_latency(&self) {
        if !self.spec.latency.is_zero() {
            std::thread::sleep(self.spec.latency);
        }
    }

    /// Registers one oracle-call arrival for the query content `key` and
    /// decides whether it faults. `Ok(())` means the call goes through to
    /// the wrapped oracle.
    pub fn check(&self, key: u64) -> Result<(), OracleError> {
        let index = self.calls.fetch_add(1, Ordering::Relaxed);
        if self.spec.permanent_at.contains(&index) {
            return Err(OracleError::permanent("injected permanent fault").at_call(index));
        }
        if let Some((start, len)) = self.spec.burst {
            if index >= start && index - start < len {
                return Err(OracleError::transient("injected transient burst").at_call(index));
            }
        }
        if self.spec.transient_prob > 0.0 {
            // First attempt for this content fails iff the seeded hash
            // lands in the probability window; later attempts succeed.
            let first_attempt = {
                let mut attempts = self.attempts.lock().expect("fault plan mutex poisoned");
                let n = attempts.entry(key).or_insert(0);
                *n += 1;
                *n == 1
            };
            if first_attempt {
                let h = mix(self.spec.seed, key);
                let threshold = (self.spec.transient_prob * (u64::MAX as f64)) as u64;
                if h < threshold {
                    return Err(OracleError::transient("injected transient fault").at_call(index));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorClass;

    #[test]
    fn parse_full_grammar() {
        let spec =
            FaultSpec::parse("seed=42, transient=0.25, burst=3@10, permanent=7, latency=2ms")
                .unwrap();
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.transient_prob, 0.25);
        assert_eq!(spec.burst, Some((10, 3)));
        assert_eq!(spec.permanent_at, vec![7]);
        assert_eq!(spec.latency, Duration::from_millis(2));

        let multi = FaultSpec::parse("permanent=3,permanent=9").unwrap();
        assert_eq!(multi.permanent_at, vec![3, 9]);

        assert_eq!(FaultSpec::parse("").unwrap(), FaultSpec::default());
        assert!(FaultSpec::parse("transient=2").is_err());
        assert!(FaultSpec::parse("burst=oops").is_err());
        assert!(FaultSpec::parse("frequency=1").is_err());
        assert!(FaultSpec::parse("seed").is_err());
        assert!(FaultSpec::parse("latency=5h").is_err());
    }

    #[test]
    fn permanent_fires_at_exact_index() {
        let plan = FaultSpec::parse("permanent=2").unwrap().plan();
        assert!(plan.check(0).is_ok());
        assert!(plan.check(1).is_ok());
        let err = plan.check(2).unwrap_err();
        assert_eq!(err.class, ErrorClass::Permanent);
        assert_eq!(err.call_index, Some(2));
        assert!(plan.check(3).is_ok());
        assert_eq!(plan.calls(), 4);
    }

    #[test]
    fn burst_covers_exact_window() {
        let plan = FaultSpec::parse("burst=2@1").unwrap().plan();
        assert!(plan.check(0).is_ok());
        let e1 = plan.check(0).unwrap_err();
        assert_eq!(e1.class, ErrorClass::Transient);
        assert!(plan.check(0).is_err());
        assert!(plan.check(0).is_ok()); // index 3: past the burst
    }

    #[test]
    fn transient_is_content_keyed_and_first_attempt_only() {
        let spec = FaultSpec::parse("seed=7,transient=0.5").unwrap();
        let plan = spec.plan();
        // Find a key that faults and one that doesn't.
        let faulting = (0u64..200).find(|k| mix(7, *k) < u64::MAX / 2).unwrap();
        let clean = (0u64..200).find(|k| mix(7, *k) >= u64::MAX / 2).unwrap();
        assert!(plan.check(faulting).is_err());
        assert!(plan.check(faulting).is_ok()); // retry succeeds
        assert!(plan.check(clean).is_ok());

        // The decision is independent of arrival order: a fresh plan asked
        // in the reverse order faults the same key.
        let plan2 = spec.plan();
        assert!(plan2.check(clean).is_ok());
        assert!(plan2.check(faulting).is_err());
    }

    #[test]
    fn default_plan_never_faults() {
        let plan = FaultSpec::default().plan();
        for k in 0..100 {
            assert!(plan.check(k).is_ok());
        }
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }
}
