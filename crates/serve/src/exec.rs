//! Job execution and rendering, shared by the CLI and the daemon.
//!
//! Each public function here is one subcommand body — engine routing,
//! fault tolerance, checkpoint resume, budget handling, and output
//! formatting — turned into a function from parsed input to a rendered
//! output string. The CLI prints the string to stdout; the daemon ships
//! it in a `result` event and stores it in the result cache. Because
//! both frontends run *this* code, a cached daemon answer is byte-equal
//! to a cold CLI run by construction.
//!
//! Nothing here writes to stdout. Narration that the CLI used to
//! `eprintln!` (checkpoint-resume notes, the engine choice) goes through
//! [`ExecCtx::note`], which the CLI points at stderr and the daemon at
//! the client's progress stream.

use std::fmt::Write as _;

use dualminer_bitset::{AttrSet, Universe};
use dualminer_core::border::verify_maxth;
use dualminer_core::checkpoint::{
    Aborted, DaState, FaultCtl, LevelwiseState, ResumeState, DUALIZE_ADVANCE_KIND, LEVELWISE_KIND,
};
use dualminer_core::dualize_advance::{dualize_advance_ctl, DualizeAdvanceConfig};
use dualminer_core::oracle::{CountingOracle, FamilyOracle};
use dualminer_fdep::agree::agree_sets;
use dualminer_fdep::fd::all_minimal_fds;
use dualminer_fdep::keys::{minimal_keys_from_agree_sets, KeyDiscovery, NonSuperkeyOracle};
use dualminer_fdep::Relation;
use dualminer_hypergraph::{plan, Hypergraph, TrAlgorithm};
use dualminer_mining::apriori::{apriori_ctl, FrequentSets};
use dualminer_mining::incremental::{append_rows_ctl, IncrementalUpdate};
use dualminer_mining::rules::association_rules;
use dualminer_mining::{FrequencyOracle, TransactionDb};
use dualminer_obs::{
    BudgetReason, DualizeStats, FaultSpec, FileCheckpoint, Meter, MiningObserver, RunCtl, RunError,
    StatsCollector,
};

use crate::formats::{self, FormatError};
use crate::job::RunOpts;

/// A job failure, typed by failure class. Exit codes are assigned by the
/// frontends (CLI `CliError`, daemon `error` events) but agree: parse
/// errors are 3, I/O and checkpoint errors 4, surviving oracle faults 5.
#[derive(Clone, Debug, PartialEq)]
pub enum JobError {
    /// An input could not be parsed.
    Format(FormatError),
    /// File or checkpoint I/O failure, including corrupt or mismatched
    /// checkpoints.
    Io(String),
    /// An oracle fault survived the retry budget.
    Fault(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Format(e) => write!(f, "{e}"),
            JobError::Io(msg) | JobError::Fault(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// Everything a job body needs from its frontend: the live budget meter,
/// the observer (stats + progress), the stats collector for engine
/// counter injection, a narration sink, and the worker-thread request.
pub struct ExecCtx<'a> {
    /// The started budget.
    pub meter: &'a Meter,
    /// Event sink: feeds the stats collector and any progress stream.
    pub observer: &'a dyn MiningObserver,
    /// The stats collector behind `observer`, for out-of-band counter
    /// injection (planner/engine counters on transversal runs).
    pub stats: &'a StatsCollector,
    /// Narration sink (`note: …` lines): stderr for the CLI, the
    /// client's progress stream for the daemon.
    pub note: &'a dyn Fn(&str),
    /// Requested worker threads (0 = auto, 1 = sequential).
    pub threads: usize,
}

impl ExecCtx<'_> {
    fn ctl(&self) -> RunCtl<'_> {
        RunCtl::new(self.meter, self.observer)
    }
}

/// The frontends' observer: every hook feeds [`stats`](Self::stats) (so
/// the stats artifact has data even when progress is off) and, when a
/// [`progress`](Self::progress) sink is present, narrates phases, levels,
/// iterations, retries and checkpoints as `[progress] …` lines. The CLI
/// points the sink at stderr, the daemon at the client's `progress`
/// events; without a sink no line is formatted.
pub struct JobObserver<'a> {
    /// The per-job stats collector.
    pub stats: StatsCollector,
    /// Where `[progress] …` lines go, if anywhere.
    pub progress: Option<&'a (dyn Fn(&str) + Sync)>,
}

impl JobObserver<'_> {
    fn emit(&self, args: std::fmt::Arguments<'_>) {
        if let Some(sink) = self.progress {
            sink(&format!("[progress] {args}"));
        }
    }
}

impl MiningObserver for JobObserver<'_> {
    fn on_phase_start(&self, name: &str) {
        self.stats.on_phase_start(name);
        self.emit(format_args!("phase {name} started"));
    }

    fn on_phase_end(&self, name: &str) {
        self.stats.on_phase_end(name);
        self.emit(format_args!("phase {name} finished"));
    }

    fn on_level(&self, level: usize, candidates: usize, interesting: usize) {
        self.stats.on_level(level, candidates, interesting);
        self.emit(format_args!(
            "level {level}: {candidates} candidates, {interesting} interesting"
        ));
    }

    fn on_iteration(&self, iteration: usize, transversals_tested: usize, counterexample: bool) {
        self.stats
            .on_iteration(iteration, transversals_tested, counterexample);
        self.emit(format_args!(
            "iteration {iteration}: {transversals_tested} transversals tested, \
             counterexample: {counterexample}"
        ));
    }

    fn on_fk_calls(&self, count: u64) {
        self.stats.on_fk_calls(count);
    }

    fn on_transversals(&self, count: u64) {
        self.stats.on_transversals(count);
    }

    fn on_nodes(&self, count: u64) {
        self.stats.on_nodes(count);
    }

    fn on_retry(&self, attempt: u32, will_retry: bool) {
        self.emit(format_args!(
            "oracle fault, attempt {attempt} (retrying: {will_retry})"
        ));
    }

    fn on_checkpoint(&self, queries_so_far: u64) {
        self.stats.on_checkpoint(queries_so_far);
        self.emit(format_args!("checkpoint saved at {queries_so_far} queries"));
    }
}

/// A rendered job result.
#[derive(Clone, Debug, PartialEq)]
pub struct JobOutput {
    /// The complete stdout body, byte-equal to what the one-shot CLI
    /// prints for the same input and flags (stats line excluded).
    pub body: String,
    /// Why the run stopped early, if it did (the body then holds the
    /// partial prefix).
    pub reason: Option<BudgetReason>,
    /// `verify-dual` answered "not dual" (exit 1 on the CLI).
    pub not_dual: bool,
}

impl JobOutput {
    fn complete(body: String) -> JobOutput {
        JobOutput {
            body,
            reason: None,
            not_dual: false,
        }
    }
}

/// `mine` output options.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MineOpts {
    /// Minimum confidence for association-rule output (absent = none).
    pub rules: Option<f64>,
    /// Also print the maximal sets + negative border.
    pub maximal: bool,
}

macro_rules! out {
    ($body:expr, $($arg:tt)*) => {
        { let _ = writeln!($body, $($arg)*); }
    };
}

fn note_partial(body: &mut String, reason: BudgetReason) {
    out!(body, "\nNOTE: budget exceeded ({reason}); results below are the partial prefix computed before the limit.");
}

/// Appends one `  {a, b, c}` line: the names of `set`, comma-separated.
fn braced_line(body: &mut String, universe: &Universe, set: &AttrSet) {
    body.push_str("  {");
    universe.write_names(body, set, ", ");
    body.push_str("}\n");
}

/// Appends one `  <set>` line in the universe's shorthand.
fn set_line(body: &mut String, universe: &Universe, set: &AttrSet) {
    body.push_str("  ");
    universe.write_set(body, set);
    body.push('\n');
}

/// Appends `n` in decimal.
fn push_decimal(body: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    body.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Appends `100·support / n_rows` as `{:.1}` prints the `f64` quotient,
/// without formatting a float.
///
/// The text is `k / 10` and `k % 10` for `k` = `1000·support / n_rows`
/// rounded to the nearest integer. Ten times the `f64` quotient lies
/// within `1000·2⁻⁵³` of `1000·support / n_rows`. Unless that rational is
/// a tie (`k + ½` exactly), it is at least `1 / (2·n_rows)` from one,
/// which is larger while `n_rows ≤ 2³²`, so the float rounds to the same
/// `k`. Ties and larger inputs go through the float formatter.
fn push_percent(body: &mut String, support: usize, n_rows: usize) {
    let (s, n) = (support as u64, n_rows as u64);
    if (1..=1 << 32).contains(&n) && s <= n {
        let twice_rem = 2 * (1000 * s % n);
        if twice_rem != n {
            let k = 1000 * s / n + u64::from(twice_rem > n);
            push_decimal(body, k / 10);
            body.push('.');
            body.push(char::from(b'0' + (k % 10) as u8));
            return;
        }
    }
    let _ = write!(body, "{:.1}", 100.0 * support as f64 / n_rows as f64);
}

/// The column the itemset lines pad their set to, in chars.
const SET_COLUMN: usize = 30;

/// [`SET_COLUMN`] spaces.
const PADDING: &str = "                              ";

/// Appends one `  <set, padded to 30 chars> support <s> (<p>%)` line per
/// nonempty itemset, in one pass: set widths come from the universe, and
/// the numbers are written without `fmt` (see [`push_percent`]).
fn render_itemsets(
    body: &mut String,
    universe: &Universe,
    n_rows: usize,
    itemsets: &[(AttrSet, usize)],
) {
    for (set, support) in itemsets {
        if set.is_empty() {
            continue;
        }
        body.push_str("  ");
        let width = universe.write_set(body, set);
        body.push_str(&PADDING[..SET_COLUMN.saturating_sub(width)]);
        body.push_str(" support ");
        push_decimal(body, *support as u64);
        body.push_str(" (");
        push_percent(body, *support, n_rows);
        body.push_str("%)\n");
    }
}

// ---------------------------------------------------------------------------
// Checkpoint plumbing
// ---------------------------------------------------------------------------

/// A fault-tolerant engine's checkpoint state: the envelope kind it is
/// saved under, and its variant of [`ResumeState`].
trait Resumable: Sized {
    const KIND: &'static str;
    fn select(state: ResumeState) -> Option<Self>;
}

impl Resumable for LevelwiseState {
    const KIND: &'static str = LEVELWISE_KIND;
    fn select(state: ResumeState) -> Option<Self> {
        match state {
            ResumeState::Levelwise(s) => Some(s),
            ResumeState::DualizeAdvance(_) => None,
        }
    }
}

impl Resumable for DaState {
    const KIND: &'static str = DUALIZE_ADVANCE_KIND;
    fn select(state: ResumeState) -> Option<Self> {
        match state {
            ResumeState::DualizeAdvance(s) => Some(s),
            ResumeState::Levelwise(_) => None,
        }
    }
}

/// Loads and validates the resume state when `--resume` was given. A
/// missing checkpoint file starts from scratch (so the same command line
/// works for the first run and every rerun); a corrupt file or a
/// checkpoint from a different engine is an error, never silent data loss.
fn load_resume<S: Resumable>(run: &RunOpts, cx: &ExecCtx<'_>) -> Result<Option<S>, JobError> {
    if !run.resume {
        return Ok(None);
    }
    // The frontends enforce --resume ⇒ --checkpoint; defend without
    // panicking.
    let Some(path) = run.checkpoint.as_deref() else {
        return Err(JobError::Io("--resume requires --checkpoint".into()));
    };
    let file = FileCheckpoint::new(path);
    let Some(envelope) = file.load().map_err(|e| JobError::Io(e.to_string()))? else {
        (cx.note)(&format!(
            "note: checkpoint {path:?} not found; starting from scratch"
        ));
        return Ok(None);
    };
    let state = ResumeState::from_envelope(&envelope).map_err(|e| JobError::Io(e.to_string()))?;
    let kind = state.kind();
    let Some(state) = S::select(state) else {
        return Err(JobError::Io(format!(
            "checkpoint {path:?} holds a {kind} run, expected {}",
            S::KIND
        )));
    };
    (cx.note)(&format!("note: resuming from checkpoint {path:?}"));
    Ok(Some(state))
}

/// Runs a fault-tolerant route: loads the `--resume` state, sets up the
/// checkpoint sink, the retry policy and the `--fault-inject` schedule,
/// and hands them to `engine`. An aborted run ends `phase` and becomes
/// the error for its cause.
fn fault_tolerant<S: Resumable, T>(
    run: &RunOpts,
    phase: &str,
    cx: &ExecCtx<'_>,
    engine: impl FnOnce(&FaultCtl<'_>, Option<S>) -> Result<T, Aborted>,
) -> Result<T, JobError> {
    let resume = load_resume(run, cx)?;
    let sink = run.checkpoint.as_deref().map(FileCheckpoint::new);
    let plan = run.fault_inject.as_ref().map(FaultSpec::plan);
    let fault = FaultCtl {
        plan: plan.as_ref(),
        ..match &sink {
            Some(s) => FaultCtl::checkpointed(run.retry_policy(), s, run.checkpoint_cadence()),
            None => FaultCtl::with_retry(run.retry_policy()),
        }
    };
    engine(&fault, resume).map_err(|aborted| {
        cx.observer.on_phase_end(phase);
        abort_error(aborted, run.checkpoint.as_deref(), cx)
    })
}

/// Converts an aborted fallible run into the error for its cause,
/// pointing the user at `--resume` when a safe point was persisted.
fn abort_error(aborted: Aborted, checkpoint: Option<&str>, cx: &ExecCtx<'_>) -> JobError {
    let Aborted { error, resume } = aborted;
    match error {
        RunError::Oracle(e) => {
            if let (Some(path), true) = (checkpoint, resume.is_some()) {
                (cx.note)(&format!(
                    "note: progress saved to {path:?}; re-run with --resume to continue"
                ));
            }
            JobError::Fault(e.to_string())
        }
        RunError::Checkpoint(msg) => JobError::Io(msg),
    }
}

// ---------------------------------------------------------------------------
// mine
// ---------------------------------------------------------------------------

/// Renders the full `mine` body (header, itemsets, maximal block, rules)
/// from a mined collection. Shared verbatim by the cold and incremental
/// paths, so their outputs can only differ if the collections do.
fn render_mine(
    universe: &Universe,
    db: &TransactionDb,
    sigma: usize,
    fs: &FrequentSets,
    opts: &MineOpts,
    reason: Option<BudgetReason>,
) -> String {
    let mut body = String::new();
    out!(
        body,
        "{} transactions, {} items, min support {} rows",
        db.n_rows(),
        db.n_items(),
        sigma
    );
    if let Some(r) = reason {
        note_partial(&mut body, r);
    }
    out!(body, "\n{} frequent itemsets:", fs.itemsets().len());
    render_itemsets(&mut body, universe, db.n_rows(), fs.itemsets());
    if opts.maximal {
        out!(body, "\nMaximal frequent sets (MTh):");
        for m in &fs.maximal {
            set_line(&mut body, universe, m);
        }
        out!(body, "Negative border (certificate of completeness):");
        for b in &fs.negative_border {
            set_line(&mut body, universe, b);
        }
        if reason.is_none() {
            // Verify with Corollary 4 — belt and braces for the user. Tr
            // is canonical, so the count |Bd⁺|+|Bd⁻| is the same whichever
            // engine the planner picks.
            let oracle = CountingOracle::new(FrequencyOracle::new(db, sigma));
            let out = verify_maxth(&oracle, &fs.maximal, TrAlgorithm::Auto);
            out!(
                body,
                "Verified: {} ({} oracle queries = |Bd⁺|+|Bd⁻|)",
                out.is_maxth,
                out.queries
            );
        } else {
            out!(body, "(not verified: run was cut short, the family is maximal only within the mined prefix)");
        }
    }
    if let Some(conf) = opts.rules {
        if reason.is_none() {
            let rules = association_rules(fs, conf);
            out!(
                body,
                "\n{} association rules (confidence ≥ {conf}):",
                rules.len()
            );
            for r in &rules {
                body.push_str("  ");
                r.write(&mut body, universe);
                body.push('\n');
            }
        } else {
            out!(
                body,
                "\n(association rules skipped: supports are incomplete on a partial run)"
            );
        }
    }
    body
}

/// Mines `db` at absolute threshold `sigma` and renders the `mine` body.
///
/// One route: Apriori under the run's fault options (injected faults,
/// retries, `--checkpoint` at level boundaries, `--resume`) — all empty
/// on a plain run.
///
/// Returns the rendered output plus the mined collection (which the
/// daemon caches to power incremental re-mining; the CLI drops it).
pub fn mine(
    universe: &Universe,
    db: &TransactionDb,
    sigma: usize,
    opts: &MineOpts,
    run: &RunOpts,
    cx: &ExecCtx<'_>,
) -> Result<(JobOutput, FrequentSets), JobError> {
    cx.observer.on_phase_start("mine");
    let (fs, reason) = fault_tolerant(run, "mine", cx, |fault, resume| {
        apriori_ctl(db, sigma, cx.threads, &cx.ctl(), fault, resume)
    })?
    .into_parts();
    cx.observer.on_phase_end("mine");
    let body = render_mine(universe, db, sigma, &fs, opts, reason);
    Ok((
        JobOutput {
            body,
            reason,
            not_dual: false,
        },
        fs,
    ))
}

/// Incremental re-mining: extends a cached mined collection by appended
/// rows through the FUP-style border update instead of from-scratch
/// work, then renders through the same `render_mine` as the cold path.
///
/// On a complete run the update is proven bit-identical to mining the
/// merged database from scratch (itemsets, maximal sets, negative
/// border, per-level candidate accounting), so the rendered body is
/// byte-equal to a cold run on the appended input. Returns the merged
/// database and collection for re-caching under the new fingerprint.
pub fn mine_incremental(
    universe: &Universe,
    old_db: &TransactionDb,
    old: &FrequentSets,
    new_rows: Vec<AttrSet>,
    opts: &MineOpts,
    cx: &ExecCtx<'_>,
) -> (JobOutput, IncrementalUpdate) {
    cx.observer.on_phase_start("mine");
    let sigma = old.min_support();
    let (update, reason) = append_rows_ctl(old_db, old, new_rows, &cx.ctl()).into_parts();
    cx.observer.on_phase_end("mine");
    let body = render_mine(universe, &update.db, sigma, &update.frequent, opts, reason);
    (
        JobOutput {
            body,
            reason,
            not_dual: false,
        },
        update,
    )
}

// ---------------------------------------------------------------------------
// keys
// ---------------------------------------------------------------------------

/// Discovers minimal keys (and optionally minimal FDs) of a relation and
/// renders the `keys` body.
pub fn keys(
    universe: &Universe,
    rel: &Relation,
    fds: bool,
    run: &RunOpts,
    cx: &ExecCtx<'_>,
) -> Result<JobOutput, JobError> {
    let mut body = String::new();
    out!(body, "{} rows × {} attributes", rel.n_rows(), rel.n_attrs());
    cx.observer.on_phase_start("keys");
    // One pairwise pass serves the keys and every FD target. The
    // fault-tolerant route finds its keys by oracle queries, so it needs
    // the pass only for FDs.
    let agree = (fds || !run.fault_tolerant()).then(|| {
        cx.observer.on_phase_start("agree-sets");
        let agree = agree_sets(rel);
        cx.observer.on_phase_end("agree-sets");
        agree
    });
    let (keys, reason) = if run.fault_tolerant() {
        // Fault-tolerant route: Dualize & Advance under the restricted
        // Is-interesting model (non-superkey oracle) — MTh = maximal
        // agree sets, Bd⁻ = minimal keys. It stays on Berge: under `auto`
        // the planner's levelwise dualizations meter their candidate
        // tests on the run's budget, which moves `--max-queries` trip
        // points, query counts and checkpoint files.
        let oracle = NonSuperkeyOracle::new(rel);
        let da = fault_tolerant(run, "keys", cx, |fault, resume| {
            dualize_advance_ctl(
                &oracle,
                TrAlgorithm::Berge,
                &DualizeAdvanceConfig::default(),
                1,
                &cx.ctl(),
                fault,
                resume,
            )
        })?;
        let (da, reason) = da.into_parts();
        (
            KeyDiscovery {
                minimal_keys: da.negative_border,
                maximal_non_superkeys: da.maximal,
                queries: da.queries,
            },
            reason,
        )
    } else {
        let agree = agree.as_deref().expect("plain route computes agree sets");
        let keys = minimal_keys_from_agree_sets(agree, rel.n_attrs(), TrAlgorithm::Auto);
        (keys, None)
    };
    cx.observer.on_phase_end("keys");
    if let Some(r) = reason {
        note_partial(&mut body, r);
    }
    if keys.minimal_keys.is_empty() && reason.is_none() {
        out!(body, "\nNo keys: the relation contains duplicate rows.");
    } else {
        out!(body, "\nMinimal keys:");
        for k in &keys.minimal_keys {
            braced_line(&mut body, universe, k);
        }
    }
    out!(body, "Maximal agree sets:");
    for ag in &keys.maximal_non_superkeys {
        braced_line(&mut body, universe, ag);
    }
    if fds {
        let agree = agree.as_deref().expect("--fds computes agree sets");
        out!(body, "\nMinimal functional dependencies:");
        let mut any = false;
        for d in all_minimal_fds(agree, rel.n_attrs(), TrAlgorithm::Auto) {
            for lhs in &d.minimal_lhs {
                any = true;
                body.push_str("  {");
                universe.write_names(&mut body, lhs, ", ");
                body.push_str("} → ");
                body.push_str(universe.name(d.target));
                body.push('\n');
            }
        }
        if !any {
            out!(body, "  (none)");
        }
    }
    Ok(JobOutput {
        body,
        reason,
        not_dual: false,
    })
}

// ---------------------------------------------------------------------------
// transversals
// ---------------------------------------------------------------------------

/// Flattens a planner report into the stats-artifact record: the executed
/// backend and rule always, engine counters only where that backend
/// collects them (so e.g. a Berge run stamps no `tr_nodes`).
fn dualize_stats(report: &plan::PlanReport) -> DualizeStats {
    let mu = report.mu.as_ref();
    DualizeStats {
        backend: report.decision.backend_name().to_string(),
        rule: report.decision.rule.to_string(),
        nodes: mu.map(|m| m.nodes),
        emitted: mu.map(|m| m.emitted),
        minimality_prunes: mu.map(|m| m.minimality_prunes),
        dead_branches: mu.map(|m| m.dead_branches),
        crit_removals: mu.map(|m| m.crit_removals),
        crit_restores: mu.map(|m| m.crit_restores),
        egm_splits: report.egm.as_ref().map(|e| e.splits),
        egm_leaves: report.egm.as_ref().map(|e| e.leaves),
    }
}

/// Computes Tr(H) and renders the `transversals` body.
pub fn transversals(
    universe: &Universe,
    h: &Hypergraph,
    algo: TrAlgorithm,
    run: &RunOpts,
    cx: &ExecCtx<'_>,
) -> Result<JobOutput, JobError> {
    let mut body = String::new();
    out!(
        body,
        "hypergraph: {} vertices, {} edges (simple: {})",
        h.universe_size(),
        h.len(),
        h.is_simple()
    );
    cx.observer.on_phase_start("transversals");
    let (edges, reason, engine) = if run.fault_tolerant() {
        // Fault-tolerant route via Theorem 7: against the family oracle
        // of edge complements, "uninteresting" = transversal, so a
        // Dualize & Advance run delivers Bd⁻ = Tr(H).
        let complements: Vec<_> = h.edges().iter().map(AttrSet::complement).collect();
        let oracle = FamilyOracle::new(h.universe_size(), complements);
        let da = fault_tolerant(run, "transversals", cx, |fault, resume| {
            dualize_advance_ctl(
                &oracle,
                algo,
                &DualizeAdvanceConfig::default(),
                cx.threads,
                &cx.ctl(),
                fault,
                resume,
            )
        })?;
        let (da, reason) = da.into_parts();
        (
            da.negative_border,
            reason,
            format!("dualize-advance/{}", plan::algo_name(algo)),
        )
    } else {
        // Planner path: `--algo auto` resolves through the instance-shape
        // planner; the report carries what actually ran plus the engine's
        // search counters, injected into the stats artifact from up here
        // (obs sits below hypergraph, same pattern as the scheduler
        // counters).
        let (outcome, report) = plan::dualize_ctl_report(h, algo, cx.threads, &cx.ctl());
        cx.stats.set_dualize(dualize_stats(&report));
        let (tr, reason) = outcome.into_parts();
        let engine = if algo == TrAlgorithm::Auto {
            format!(
                "{} (planner: {})",
                report.decision.backend_name(),
                report.decision.rule
            )
        } else {
            report.decision.backend_name().to_string()
        };
        (tr.edges().to_vec(), reason, engine)
    };
    cx.observer.on_phase_end("transversals");
    if let Some(r) = reason {
        note_partial(&mut body, r);
    }
    // Engine choice is narration, not results: the note channel keeps
    // the body bit-identical across engines computing the same Tr(H)
    // (notably a warm cache hit vs. the cold run that filled it); the
    // machine-readable copy is the stats JSON `planner_choice`.
    (cx.note)(&format!("note: engine {engine}"));
    out!(body, "\nTr(H): {} minimal transversals:", edges.len());
    for t in &edges {
        braced_line(&mut body, universe, t);
    }
    Ok(JobOutput {
        body,
        reason,
        not_dual: false,
    })
}

// ---------------------------------------------------------------------------
// verify-dual
// ---------------------------------------------------------------------------

/// Decides whether `g = Tr(f)` without enumerating. Parses both texts
/// over one merged vertex dictionary (so the families land in the same
/// universe even when each mentions only its own vertex names), then
/// runs the witness checker. The body is the verdict line; `not_dual`
/// carries the exit-1 verdict.
pub fn verify_dual_pair(
    f_text: &str,
    g_text: &str,
    f_label: &str,
    g_label: &str,
) -> Result<JobOutput, JobError> {
    let mut vocab = formats::Interner::new();
    let f_raw = formats::parse_hypergraph_raw(f_text, &mut vocab)
        .map_err(|e| JobError::Format(e.in_file(f_label)))?;
    let g_raw = formats::parse_hypergraph_raw(g_text, &mut vocab)
        .map_err(|e| JobError::Format(e.in_file(g_label)))?;
    let n = vocab.len();
    let f =
        formats::hypergraph_from_raw(n, f_raw).map_err(|e| JobError::Format(e.in_file(f_label)))?;
    let g =
        formats::hypergraph_from_raw(n, g_raw).map_err(|e| JobError::Format(e.in_file(g_label)))?;
    if dualminer_hypergraph::verify_dual(&f, &g) {
        Ok(JobOutput::complete("dual\n".to_string()))
    } else {
        Ok(JobOutput {
            body: "not dual\n".to_string(),
            reason: None,
            not_dual: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shorthand before `Universe` precomputed its separator: every
    /// name rescanned per set.
    fn reference_display(universe: &Universe, set: &AttrSet) -> String {
        if set.is_empty() {
            return "∅".to_string();
        }
        let single = (0..universe.size()).all(|i| universe.name(i).chars().count() == 1);
        let sep = if single { "" } else { "," };
        set.iter()
            .map(|i| universe.name(i))
            .collect::<Vec<_>>()
            .join(sep)
    }

    /// The itemset loop before the one-pass renderer.
    fn reference_itemsets(
        universe: &Universe,
        n_rows: usize,
        itemsets: &[(AttrSet, usize)],
    ) -> String {
        let mut body = String::new();
        for (set, support) in itemsets {
            if set.is_empty() {
                continue;
            }
            out!(
                body,
                "  {:<30} support {} ({:.1}%)",
                reference_display(universe, set),
                support,
                100.0 * *support as f64 / n_rows as f64
            );
        }
        body
    }

    fn assert_renders_like_reference(
        universe: &Universe,
        n_rows: usize,
        itemsets: &[(AttrSet, usize)],
    ) {
        let mut body = String::new();
        render_itemsets(&mut body, universe, n_rows, itemsets);
        let want = reference_itemsets(universe, n_rows, itemsets);
        if body != want {
            let diff = body.lines().zip(want.lines()).find(|(a, b)| a != b);
            panic!("n_rows {n_rows}: first differing line {diff:?}");
        }
    }

    /// Sets cycling through every size up to the whole universe, so some
    /// are wider than 30 chars.
    fn sets(universe: &Universe, count: usize) -> Vec<AttrSet> {
        let n = universe.size();
        (0..count)
            .map(|k| AttrSet::from_indices(n, (0..n).filter(|i| (i * 7 + k) % (k % n + 1) == 0)))
            .collect()
    }

    #[test]
    fn itemset_lines_match_reference_at_every_support() {
        let universes = [
            Universe::letters(5),
            Universe::letters(40),
            Universe::new(["π", "σ", "Ü", "日"]),
            Universe::new(["π", "日本", "Ünï", "a", "item_with_a_long_name", "x1"]),
            Universe::variables(12),
        ];
        for n_rows in [1, 3, 7, 1000, 20_000, 52_000] {
            for universe in &universes {
                let sets = sets(universe, 64);
                let itemsets: Vec<(AttrSet, usize)> = (0..=n_rows)
                    .map(|support| (sets[support % sets.len()].clone(), support))
                    .collect();
                assert_renders_like_reference(universe, n_rows, &itemsets);
            }
        }
    }

    #[test]
    fn percent_text_matches_float_formatting() {
        let want = |s: usize, n: usize| format!("{:.1}", 100.0 * s as f64 / n as f64);
        let check = |s: usize, n: usize| {
            let mut got = String::new();
            push_percent(&mut got, s, n);
            assert_eq!(got, want(s, n), "support {s} of {n}");
        };
        // Ties, the 2³² edge on both sides, an empty database (NaN), and
        // a support above n_rows.
        for n in [
            0usize,
            1,
            2,
            4,
            8,
            20,
            40,
            2000,
            1 << 32,
            (1 << 32) + 2,
            6_000_000_014,
        ] {
            for s in [
                0,
                1,
                n / 2,
                n / 4,
                n / 8,
                n / 20,
                n / 40,
                n.saturating_sub(1),
                n,
                n + 1,
            ] {
                check(s, n);
            }
        }
        // Pseudo-random pairs up to 2³⁴ rows.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..200_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let n = (x >> 30) as usize % (1 << 34) + 1;
            check((x as usize) % (n + 1), n);
        }
    }

    #[test]
    fn set_widths_count_chars_not_bytes() {
        let universe = Universe::new(["π", "日本", "Ünï"]);
        let all = universe.full_set();
        let mut body = String::new();
        assert_eq!(
            universe.write_set(&mut body, &all),
            "π,日本,Ünï".chars().count()
        );
        assert_eq!(body, reference_display(&universe, &all));
        let single = Universe::new(["π", "σ"]);
        assert_eq!(single.display(&single.full_set()), "πσ");
        assert_eq!(single.display(&single.empty_set()), "∅");
    }
}
