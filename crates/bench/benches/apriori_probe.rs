//! What a cold Apriori mine costs besides its support counts, on four
//! Quest databases shaped like the daemon's `mine-cold` requests (20k–47k
//! rows over 50–95 items, the threshold bisected to about 14k queries):
//!
//! * wall time at threads 1 and 2, the two alternating which runs first
//!   in each repetition, reported as the median threads-1/threads-2
//!   ratio with its interquartile range (a ratio below 1 means the second
//!   thread costs more than it saves);
//! * minor page faults per mine (`minflt` of `/proc/self/stat`);
//! * heap allocations per mine, counted by this binary's global
//!   allocator (allocations and reallocations on every thread), beside
//!   the mine's level and frequent-set counts.
//!
//! Run with `cargo bench -p dualminer-bench --bench apriori_probe`;
//! positional arguments filter the ids (`cold/0` … `cold/3`, eleven
//! repetitions each, and `smoke`, one small instance with three
//! repetitions for CI).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dualminer_mining::apriori::{apriori_par_ctl, FrequentSets};
use dualminer_mining::gen::{quest, QuestParams};
use dualminer_mining::TransactionDb;
use dualminer_obs::{Budget, Meter, NoopObserver, RunCtl};
use rand::rngs::StdRng;
use rand::SeedableRng;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method delegates verbatim to `System`; the only addition
// is a relaxed atomic counter bump, which cannot affect the memory
// returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Minor page faults of this process so far.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name: state is the first,
    // minflt (field 10 of the whole line) the eighth.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// One mine: its result, wall milliseconds, minor faults, allocations.
fn mine(db: &TransactionDb, sigma: usize, threads: usize) -> (FrequentSets, f64, u64, u64) {
    let (faults, allocs) = (minor_faults(), ALLOCS.load(Ordering::Relaxed));
    let t = Instant::now();
    let meter = Meter::unlimited();
    let fs =
        apriori_par_ctl(db, sigma, threads, &RunCtl::new(&meter, &NoopObserver)).expect_complete();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;
    (fs, ms, minor_faults() - faults, allocs)
}

/// The smallest threshold at which `db` costs at most `target` support
/// queries, by bisection over budgeted one-thread mines.
fn calibrate_sigma(db: &TransactionDb, target: u64) -> usize {
    let queries = |sigma: usize| {
        let meter = Budget {
            max_queries: Some(target + 1),
            ..Budget::default()
        }
        .start();
        let (fs, _) =
            apriori_par_ctl(db, sigma, 1, &RunCtl::new(&meter, &NoopObserver)).into_parts();
        fs.queries()
    };
    let (mut lo, mut hi) = (1, db.n_rows().max(2));
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if queries(mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Median and interquartile range of `xs`.
fn median_iqr(xs: &mut [f64]) -> (f64, f64) {
    xs.sort_by(f64::total_cmp);
    let q = |p: f64| xs[((xs.len() - 1) as f64 * p).round() as usize];
    (q(0.5), q(0.75) - q(0.25))
}

fn median_u64(xs: &mut [u64]) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn probe(id: &str, params: &QuestParams, seed: u64, target: u64, reps: usize) {
    let db = quest(params, &mut StdRng::seed_from_u64(seed));
    let sigma = calibrate_sigma(&db, target);
    // Warm-up: builds the vertical store and lets the allocator settle.
    let (reference, ..) = mine(&db, sigma, 1);
    let mut ms = [Vec::new(), Vec::new()];
    let mut faults = [Vec::new(), Vec::new()];
    let mut allocs = [Vec::new(), Vec::new()];
    for rep in 0..reps {
        let order = if rep % 2 == 0 { [0, 1] } else { [1, 0] };
        for slot in order {
            let (fs, t, f, a) = mine(&db, sigma, slot + 1);
            assert_eq!(
                fs.itemsets(),
                reference.itemsets(),
                "{id}: threads {}",
                slot + 1
            );
            assert_eq!(fs.negative_border, reference.negative_border);
            ms[slot].push(t);
            faults[slot].push(f);
            allocs[slot].push(a);
        }
    }
    let mut ratios: Vec<f64> = ms[0].iter().zip(&ms[1]).map(|(a, b)| a / b).collect();
    let (ratio, ratio_iqr) = median_iqr(&mut ratios);
    let (t1, t1_iqr) = median_iqr(&mut ms[0]);
    let (t2, t2_iqr) = median_iqr(&mut ms[1]);
    println!(
        "apriori_probe/{id}: rows={} items={} sigma={sigma} queries={} levels={} frequent={} \
         t1_ms={t1:.2}±{t1_iqr:.2} t2_ms={t2:.2}±{t2_iqr:.2} t1/t2={ratio:.3} (IQR {ratio_iqr:.3}) \
         minflt_t1={} minflt_t2={} allocs_t1={} allocs_t2={} reps={reps}",
        db.n_rows(),
        db.n_items(),
        reference.queries(),
        reference.candidates_per_level.len(),
        reference.itemsets().len(),
        median_u64(&mut faults[0]),
        median_u64(&mut faults[1]),
        median_u64(&mut allocs[0]),
        median_u64(&mut allocs[1]),
    );
}

fn main() {
    let filters: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect();
    let wanted = |id: &str| filters.is_empty() || filters.iter().any(|f| id.contains(f.as_str()));
    // The perfbench `mine-cold` shape: rows and items as its databases
    // 0, 5, 10 and 13 draw them.
    for (k, i) in [0usize, 5, 10, 13].into_iter().enumerate() {
        let (rows, items) = (20_000 + 2_000 * i, 50 + (i * 37) % 51);
        let id = format!("cold/{k}");
        if wanted(&id) {
            let params = QuestParams {
                n_items: items,
                n_transactions: rows,
                avg_transaction_size: 10,
                avg_pattern_size: 4,
                n_patterns: 30,
                corruption: 0.3,
            };
            probe(&id, &params, 100 + k as u64, 14_000, 11);
        }
    }
    if wanted("smoke") {
        let params = QuestParams {
            n_items: 30,
            n_transactions: 3_000,
            avg_transaction_size: 8,
            avg_pattern_size: 4,
            n_patterns: 12,
            corruption: 0.3,
        };
        probe("smoke", &params, 7, 2_000, 3);
    }
}
