//! Pins `mine`'s one route — Apriori run by the levelwise walk under the
//! run's fault options — with and without `--max-queries`,
//! `--fault-inject`, `--retry`, `--checkpoint` and `--resume`.
//!
//! Each case folds into one FNV digest: every `max_queries` partial
//! (plain, and checkpointing at every boundary with each saved
//! `LevelwiseState`), a transient-fault run absorbed by retries, and a run
//! killed at every call index then resumed — at threads 1, 2 and 4
//! (call-index triggers at threads 1 only). The digests were recorded when
//! plain mines ran a dedicated Apriori loop and every fault option
//! switched to the generic levelwise driver over a frequency oracle; they
//! pin that the one walk answers as both did — supports, borders,
//! candidate counts, meter counts and checkpoint payloads.

use dualminer_bitset::AttrSet;
use dualminer_core::checkpoint::{FaultCtl, LevelwiseState, ResumeState};
use dualminer_mining::apriori::{apriori, apriori_ctl};
use dualminer_mining::gen::{planted, quest, QuestParams};
use dualminer_mining::TransactionDb;
use dualminer_obs::{
    Budget, FaultSpec, FnvStream, MemoryCheckpoints, Meter, NoopObserver, RetryPolicy, RunCtl,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One mine run under `budget`, the fault schedule `spec`, `retry`
/// retries, a checkpoint into `sink` at every level boundary, and
/// `resume`: the (partial) result as text, or the abort, plus the meter.
#[allow(clippy::too_many_arguments)]
fn route(
    db: &TransactionDb,
    sigma: usize,
    threads: usize,
    budget: Budget,
    spec: Option<&FaultSpec>,
    retry: u32,
    sink: Option<&MemoryCheckpoints>,
    resume: Option<LevelwiseState>,
) -> (Result<String, String>, Meter) {
    let meter = budget.start();
    let plan = spec.map(FaultSpec::plan);
    let retry = RetryPolicy::retries(retry);
    let fault = FaultCtl {
        plan: plan.as_ref(),
        ..match sink {
            Some(sink) => FaultCtl::checkpointed(retry, sink, 1),
            None => FaultCtl::with_retry(retry),
        }
    };
    let ctl = RunCtl::new(&meter, &NoopObserver);
    let family = |f: &[AttrSet]| {
        let sets: Vec<String> = f.iter().map(|s| format!("{:?}", s.to_vec())).collect();
        sets.join(",")
    };
    let got = apriori_ctl(db, sigma, threads, &ctl, &fault, resume)
        .map(|outcome| {
            let (fs, reason) = outcome.into_parts();
            let itemsets: Vec<String> = fs
                .itemsets()
                .iter()
                .map(|(s, support)| format!("{:?}:{support}", s.to_vec()))
                .collect();
            format!(
                "{reason:?} sets={} max={} bd-={} cpl={:?}",
                itemsets.join(","),
                family(&fs.maximal),
                family(&fs.negative_border),
                fs.candidates_per_level
            )
        })
        .map_err(|aborted| aborted.to_string());
    (got, meter)
}

fn saved_text(sink: &MemoryCheckpoints) -> String {
    sink.all()
        .iter()
        .map(|envelope| format!(" | {} {}", envelope.kind, envelope.payload))
        .collect()
}

/// The case's records — `max_queries` sweeps, transient faults with
/// retries, kill-at-every-call-index plus resume — folded into a digest.
fn case_digest(db: &TransactionDb, sigma: usize) -> u64 {
    let count = apriori(db, sigma).queries();
    let mut h = FnvStream::new();
    let mut push = |record: String| {
        h.update(record.as_bytes());
        h.update(b"\n");
    };
    let transient = FaultSpec::parse("seed=7,transient=0.3").unwrap();
    for threads in [1usize, 2, 4] {
        let capped = (1..=count).flat_map(|k| {
            let budget = Budget {
                max_queries: Some(k),
                ..Budget::default()
            };
            [(budget, None, 0, false), (budget, None, 0, true)]
        });
        let transients = [false, true].map(|ckpt| (Budget::default(), Some(&transient), 3, ckpt));
        for (budget, spec, retry, checkpoint) in capped.chain(transients) {
            let sink = MemoryCheckpoints::new();
            let sink = checkpoint.then_some(&sink);
            let (got, meter) = route(db, sigma, threads, budget, spec, retry, sink, None);
            push(format!(
                "{} meter={}/{}/{}{}",
                got.unwrap_or_else(|e| e),
                meter.queries(),
                meter.retries(),
                meter.faults(),
                sink.map_or(String::new(), saved_text)
            ));
        }
    }
    for k in 0..count {
        let spec = FaultSpec {
            permanent_at: vec![k],
            ..FaultSpec::default()
        };
        let killed = MemoryCheckpoints::new();
        let (got, meter) = route(
            db,
            sigma,
            1,
            Budget::default(),
            Some(&spec),
            0,
            Some(&killed),
            None,
        );
        push(format!(
            "kill {k}: {:?} meter={}{}",
            got.err(),
            meter.queries(),
            saved_text(&killed)
        ));
        let resume =
            killed
                .all()
                .last()
                .map(|envelope| match ResumeState::from_envelope(envelope) {
                    Ok(ResumeState::Levelwise(state)) => state,
                    other => panic!("not a levelwise state: {other:?}"),
                });
        for threads in [1usize, 2, 4] {
            let sink = MemoryCheckpoints::new();
            let budget = Budget::default();
            let (got, meter) = route(
                db,
                sigma,
                threads,
                budget,
                None,
                0,
                Some(&sink),
                resume.clone(),
            );
            push(format!(
                "resume {k} threads {threads}: {} meter={}{}",
                got.expect("a healthy resume completes"),
                meter.queries(),
                saved_text(&sink)
            ));
        }
    }
    h.digest()
}

#[test]
fn one_mine_route_is_pinned() {
    // Figure-1-style planted database over 7 items: `MTh` = the four
    // plants at σ = 2.
    let n = 7;
    let plants =
        [vec![0, 1, 2], vec![2, 3], vec![1, 4, 5], vec![5, 6]].map(|p| AttrSet::from_indices(n, p));
    let params = QuestParams {
        n_items: 14,
        n_transactions: 200,
        avg_transaction_size: 5,
        avg_pattern_size: 3,
        n_patterns: 6,
        corruption: 0.3,
    };
    let cases = [
        ("planted", planted(n, &plants, 2), 2, 17696558471148266399),
        (
            "quest",
            quest(&params, &mut StdRng::seed_from_u64(23)),
            20,
            9354648994016118087,
        ),
    ];
    for (name, db, sigma, pinned) in cases {
        assert_eq!(case_digest(&db, sigma), pinned, "{name}");
    }
}
