//! Seeded workload generation: the input files each traffic mix sends the
//! daemon, and the fixed per-connection request sequences over them.
//!
//! Everything here is a pure function of `(workload, seed)`: the same seed
//! gives byte-identical inputs and sequences, so counts such as
//! `mining.queries` and the `server.*` deltas of a fixed request prefix
//! repeat exactly. Sizes follow a fixed schedule; the seed drives the
//! content (Quest draws, random hypergraphs, relabelings, CSV cells).

use std::path::Path;

use dualminer_bitset::AttrSet;
use dualminer_fdep::agree::maximal_agree_sets;
use dualminer_hypergraph::{generators, plan, Hypergraph};
use dualminer_mining::apriori::apriori_par_ctl;
use dualminer_mining::gen::{quest, QuestParams};
use dualminer_mining::TransactionDb;
use dualminer_obs::{Budget, NoopObserver, RunCtl};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The workload names, in the order the traced ladder replays them.
pub const NAMES: [&str; 3] = ["mine-cold", "dualize-mix", "serve-warm"];

/// The operation of one request, with the knobs that change its answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// `mine` at an absolute threshold.
    Mine { sigma: usize, maximal: bool },
    /// `transversals` with `algo: auto`.
    Transversals,
    /// `keys` without FDs.
    Keys,
}

/// The cache route a request is expected to take on the daemon.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Class {
    /// Computed fresh.
    Miss,
    /// Answered from the result cache.
    Hit,
    /// Re-mined incrementally on a cached base.
    Append,
}

impl Class {
    /// The `cache` tag of the daemon's `result` event for this route.
    pub fn tag(self) -> &'static str {
        match self {
            Class::Miss => "miss",
            Class::Hit => "hit",
            Class::Append => "incremental",
        }
    }

    /// The class name used in metric names and the ladder report.
    pub fn name(self) -> &'static str {
        match self {
            Class::Miss => "miss",
            Class::Hit => "hit",
            Class::Append => "append",
        }
    }
}

/// One request of a sequence.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    pub op: Op,
    /// Index into [`Workload::inputs`].
    pub input: usize,
    pub threads: usize,
    /// `"normal"` or `"bypass"`.
    pub cache: &'static str,
    pub class: Class,
}

impl Request {
    /// The protocol line for this request, reading its input from `dir`.
    pub fn line(&self, id: u64, wl: &Workload, dir: &Path) -> String {
        let path = dir.join(&wl.inputs[self.input].file);
        let path = path.to_str().expect("work directory paths are UTF-8");
        let head = format!(
            r#""id":{id},"input":{{"path":"{path}"}},"threads":{},"cache":"{}""#,
            self.threads, self.cache
        );
        match self.op {
            Op::Mine { sigma, maximal } => {
                format!(r#"{{"op":"mine",{head},"min_support":"{sigma}","maximal":{maximal}}}"#)
            }
            Op::Transversals => format!(r#"{{"op":"transversals",{head},"algo":"auto"}}"#),
            Op::Keys => format!(r#"{{"op":"keys",{head}}}"#),
        }
    }

    /// A short label of the operation for the ladder report.
    pub fn op_name(&self) -> &'static str {
        match self.op {
            Op::Mine { maximal: true, .. } => "mine-maximal",
            Op::Mine { .. } => "mine",
            Op::Transversals => "transversals",
            Op::Keys => "keys",
        }
    }

    /// Identifies the answer: requests with equal keys must get equal bodies.
    pub fn answer_key(&self) -> (usize, Op) {
        (self.input, self.op)
    }
}

/// One generated input file.
pub struct Input {
    pub file: String,
    pub text: String,
}

/// A generated traffic mix.
pub struct Workload {
    pub name: &'static str,
    pub inputs: Vec<Input>,
    /// Warm-up or priming requests, sent once per set-up on one connection.
    pub setup: Vec<Request>,
    /// The fixed request sequence of each connection.
    pub conns: Vec<Vec<Request>>,
    /// How many requests of each connection the traced ladder replays.
    pub trace_per_conn: usize,
}

impl Workload {
    /// Writes every input file into `dir`.
    pub fn write_inputs(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for input in &self.inputs {
            std::fs::write(dir.join(&input.file), &input.text)?;
        }
        Ok(())
    }

    /// The first `per_conn` requests of every connection, interleaved
    /// round-robin: the order the traced ladder replays them in.
    pub fn interleaved(&self, per_conn: usize) -> Vec<Request> {
        (0..per_conn)
            .flat_map(|i| self.conns.iter().filter_map(move |seq| seq.get(i).copied()))
            .collect()
    }
}

/// Generates workload `name` from `seed`; `None` for an unknown name.
pub fn generate(name: &str, seed: u64) -> Option<Workload> {
    match name {
        "mine-cold" => Some(mine_cold(seed)),
        "dualize-mix" => Some(dualize_mix(seed)),
        "serve-warm" => Some(serve_warm(seed)),
        _ => None,
    }
}

/// An independent generator for input `index` of workload `tag`.
fn rng_for(seed: u64, tag: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ tag.wrapping_mul(0xBF58_476D_1CE4_E5B9)
            ^ index.wrapping_mul(0x94D0_49BB_1331_11EB),
    )
}

/// Renders basket rows as text over item names `it<N>`; an empty row
/// becomes `it0` so the row count is exactly the generated one.
fn basket_text(rows: &[AttrSet]) -> String {
    let mut text = String::new();
    for row in rows {
        let items: Vec<String> = row.iter().map(|i| format!("it{i}")).collect();
        if items.is_empty() {
            text.push_str("it0");
        } else {
            text.push_str(&items.join(" "));
        }
        text.push('\n');
    }
    text
}

fn quest_rows(params: &QuestParams, rng: &mut StdRng) -> Vec<AttrSet> {
    quest(params, rng).rows().to_vec()
}

/// Renders a hypergraph with shuffled vertex names and edge order, so
/// structurally fixed families (matching, threshold) still differ by seed.
fn hypergraph_text(h: &Hypergraph, rng: &mut StdRng) -> String {
    let mut names: Vec<usize> = (0..h.universe_size()).collect();
    names.shuffle(rng);
    let mut lines: Vec<String> = h
        .edges()
        .iter()
        .map(|e| {
            e.iter()
                .map(|v| format!("v{}", names[v]))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    lines.shuffle(rng);
    lines.join("\n") + "\n"
}

/// A CSV relation: `attrs` columns, `rows` rows, column `a` drawing its
/// cells from `domain + a % 3` values.
fn relation_text(rows: usize, attrs: usize, domain: u32, rng: &mut StdRng) -> String {
    let header: Vec<String> = (0..attrs).map(|a| format!("a{a}")).collect();
    let mut text = header.join(",") + "\n";
    for _ in 0..rows {
        let cells: Vec<String> = (0..attrs)
            .map(|a| format!("c{}", rng.gen_range(0..domain + a as u32 % 3)))
            .collect();
        text.push_str(&cells.join(","));
        text.push('\n');
    }
    text
}

/// Candidates drawn per instance by [`pick`].
const CANDIDATES: u64 = 6;

/// Draws [`CANDIDATES`] instances from independent generators and keeps
/// the one whose size statistic lies closest to `target`, together with
/// its generator for any further draws: the seed varies the content while
/// the work per instance stays near a fixed size.
fn pick<T>(
    seed: u64,
    tag: u64,
    index: u64,
    target: f64,
    draw: impl Fn(&mut StdRng) -> T,
    size: impl Fn(&T) -> f64,
) -> (T, StdRng) {
    (0..CANDIDATES)
        .map(|j| {
            let mut rng = rng_for(seed, tag, index * 64 + j);
            let x = draw(&mut rng);
            ((size(&x) - target).abs(), x, rng)
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(_, x, rng)| (x, rng))
        .expect("at least one candidate")
}

/// Databases in the `mine-cold` rotation.
const COLD_DBS: usize = 16;

/// Support queries (|Th ∪ Bd⁻|) a `mine-cold` request costs at its first
/// visit.
const COLD_QUERIES: usize = 14_000;

/// Rows of the sample a `mine-cold` threshold is calibrated on.
const COLD_SAMPLE: usize = 10_000;

/// `mine-cold`: one connection, every request a (Quest database, absolute
/// threshold) pair not seen earlier in the run. Database `i` has
/// `20k + 2k·i` rows over 50–100 items; its base threshold is calibrated
/// on a row sample to about [`COLD_QUERIES`] support queries, and visit
/// `v` mines it at the base threshold plus `3v` rows, so pairs never
/// repeat.
fn mine_cold(seed: u64) -> Workload {
    let sizes: Vec<(usize, usize)> = (0..=COLD_DBS)
        .map(|i| (20_000 + 2_000 * (i % COLD_DBS), 50 + (i * 37) % 51))
        .collect();
    let mut inputs = Vec::new();
    let mut sigmas = Vec::new();
    for (i, &(rows, items)) in sizes.iter().enumerate() {
        let params = QuestParams {
            n_items: items,
            n_transactions: rows,
            avg_transaction_size: 10,
            avg_pattern_size: 4,
            n_patterns: 30,
            corruption: 0.3,
        };
        let db = quest_rows(&params, &mut rng_for(seed, 1, i as u64));
        let sample = TransactionDb::new(items, db[..COLD_SAMPLE].to_vec());
        let sigma = calibrate_sigma(&sample, COLD_QUERIES, 5, COLD_SAMPLE / 10);
        sigmas.push(sigma * rows / COLD_SAMPLE);
        inputs.push(Input {
            file: format!("cold{i:02}.txt"),
            text: basket_text(&db),
        });
    }
    let request = |input: usize, visit: usize| Request {
        op: Op::Mine {
            sigma: sigmas[input] + 3 * visit,
            maximal: false,
        },
        input,
        threads: 2,
        cache: "normal",
        class: Class::Miss,
    };
    // The last database is the warm-up; the timed rotation never sends it.
    let setup = vec![request(COLD_DBS, 0)];
    let seq = (0..COLD_DBS * 40)
        .map(|i| request(i % COLD_DBS, i / COLD_DBS))
        .collect();
    Workload {
        name: "mine-cold",
        inputs,
        setup,
        conns: vec![seq],
        trace_per_conn: COLD_DBS,
    }
}

/// `dualize-mix`: two connections, every request a cache-bypassing miss,
/// rotating transversals (every planner class), maximal mines on small
/// deep-lattice Quest databases, and key discovery on CSV relations.
fn dualize_mix(seed: u64) -> Workload {
    let mut inputs = Vec::new();
    let mut pools: [Vec<Request>; 3] = Default::default();
    let miss = |op, input| Request {
        op,
        input,
        threads: 1,
        cache: "bypass",
        class: Class::Miss,
    };

    // Transversals: every generator class three times, the random ones
    // picked for Tr(H) in the low thousands, so every planner rule fires.
    let tr_size = |h: &Hypergraph| plan::dualize(h).len() as f64;
    for k in 0..15u64 {
        let (h, mut rng) = match k % 5 {
            0 => pick(
                seed,
                2,
                k,
                3000.0,
                |r| generators::random_uniform(24, 45, 3..=6, r),
                tr_size,
            ),
            1 => pick(
                seed,
                2,
                k,
                3000.0,
                |r| generators::hub(24, 2, 45, 3, r),
                tr_size,
            ),
            2 => (generators::threshold(14, 6), rng_for(seed, 2, k)),
            3 => pick(
                seed,
                2,
                k,
                2000.0,
                |r| generators::co_sparse(50, 3, 300, r),
                tr_size,
            ),
            _ => (generators::matching(26), rng_for(seed, 2, k)),
        };
        pools[0].push(miss(Op::Transversals, inputs.len()));
        inputs.push(Input {
            file: format!("tr{k:02}.txt"),
            text: hypergraph_text(&h, &mut rng),
        });
    }
    // Maximal mines: the Corollary 4 check makes each a dualization job,
    // its cost set by |MTh|.
    let deep = QuestParams {
        n_items: 16,
        n_transactions: 300,
        avg_transaction_size: 8,
        avg_pattern_size: 4,
        n_patterns: 12,
        corruption: 0.3,
    };
    let deep_sigma = 15;
    for k in 0..12u64 {
        let (rows, _) = pick(
            seed,
            3,
            k,
            250.0,
            |r| quest_rows(&deep, r),
            |rows| {
                let db = TransactionDb::new(deep.n_items, rows.clone());
                dualminer_mining::apriori::apriori(&db, deep_sigma)
                    .maximal
                    .len() as f64
            },
        );
        let op = Op::Mine {
            sigma: deep_sigma,
            maximal: true,
        };
        pools[1].push(miss(op, inputs.len()));
        inputs.push(Input {
            file: format!("deep{k:02}.txt"),
            text: basket_text(&rows),
        });
    }
    // Keys: agree sets, then transversals of their complements; the cost
    // follows the number of maximal agree sets.
    for k in 0..12u64 {
        let (text, _) = pick(
            seed,
            4,
            k,
            300.0,
            |r| relation_text(400, 13, 4, r),
            |text| {
                let (_, rel) = dualminer_serve::formats::parse_relation(text)
                    .expect("generated relations parse");
                maximal_agree_sets(&rel).len() as f64
            },
        );
        pools[2].push(miss(Op::Keys, inputs.len()));
        inputs.push(Input {
            file: format!("rel{k:02}.csv"),
            text,
        });
    }

    let setup = pools.iter().map(|pool| pool[0]).collect();
    let conns = (0..2)
        .map(|c| {
            (0..900)
                .map(|i| {
                    let pool = &pools[(i + c) % 3];
                    pool[(i / 3 + 4 * c) % pool.len()]
                })
                .collect()
        })
        .collect();
    Workload {
        name: "dualize-mix",
        inputs,
        setup,
        conns,
        trace_per_conn: 12,
    }
}

/// Primed bases in `serve-warm`.
const WARM_BASES: usize = 4;

/// The threshold of every `serve-warm` request. One threshold means one
/// params fingerprint, so primes and appends share one cache shard and the
/// resident set is the same whatever the seed.
const WARM_SIGMA: usize = 40;

/// Frequent itemsets a primed base should yield: a body of about 1 MB.
const WARM_ITEMSETS: usize = 20_000;

/// Requests per `serve-warm` connection: more than two connections can
/// send in a run.
const WARM_REQUESTS: usize = 1_600;

/// Frequent itemsets (or `cap + 1` once past `cap`) and support queries of
/// `db` at `sigma`; the query budget keeps probes at low thresholds cheap.
fn mined_size(db: &TransactionDb, sigma: usize, cap: usize) -> (usize, usize) {
    let meter = Budget {
        max_queries: Some(4 * cap as u64),
        ..Budget::default()
    }
    .start();
    let (fs, reason) =
        apriori_par_ctl(db, sigma, 1, &RunCtl::new(&meter, &NoopObserver)).into_parts();
    match reason {
        Some(_) => (cap + 1, usize::MAX),
        None => (fs.itemsets().len(), fs.queries() as usize),
    }
}

/// The smallest threshold in `lo..=hi` at which `db` costs at most
/// `target` support queries, by bisection.
fn calibrate_sigma(db: &TransactionDb, target: usize, lo: usize, hi: usize) -> usize {
    let (mut lo, mut hi) = (lo, hi);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if mined_size(db, mid, target).1 > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// `serve-warm`: two connections. Set-up primes the cache with deep-lattice
/// mines picked for bodies of about 1 MB; the timed cycle re-sends a primed
/// request three times (warm hits) and then sends a primed base plus three
/// never-seen rows over its own items (the incremental route).
fn serve_warm(seed: u64) -> Workload {
    const ITEMS: usize = 22;
    let params = QuestParams {
        n_items: ITEMS,
        n_transactions: 400,
        avg_transaction_size: 11,
        avg_pattern_size: 4,
        n_patterns: 12,
        corruption: 0.3,
    };
    // A closing full-vocabulary row: appended rows may then use any item
    // without leaving the base's universe.
    let draw = |rng: &mut StdRng| {
        let mut rows = quest_rows(&params, rng);
        rows.push(AttrSet::from_indices(ITEMS, 0..ITEMS));
        rows
    };
    let itemsets = |rows: &Vec<AttrSet>| {
        let db = TransactionDb::new(ITEMS, rows.clone());
        mined_size(&db, WARM_SIGMA, WARM_ITEMSETS * 4).0 as f64
    };
    let mut inputs: Vec<Input> = (0..WARM_BASES)
        .map(|b| {
            let (rows, _) = pick(seed, 5, b as u64, WARM_ITEMSETS as f64, draw, itemsets);
            Input {
                file: format!("base{b}.txt"),
                text: basket_text(&rows),
            }
        })
        .collect();
    let mine = |input, class| Request {
        op: Op::Mine {
            sigma: WARM_SIGMA,
            maximal: false,
        },
        input,
        threads: 1,
        cache: "normal",
        class,
    };

    let setup = (0..WARM_BASES).map(|b| mine(b, Class::Miss)).collect();
    let mut conns = Vec::new();
    for c in 0..2 {
        let mut seq = Vec::new();
        for i in 0..WARM_REQUESTS {
            if i % 4 < 3 {
                let base = (i + c) % WARM_BASES;
                seq.push(mine(base, Class::Hit));
                continue;
            }
            // The first appended row spells a counter unique in the run
            // in binary over the items, so no appended file repeats.
            let base = (i / 4 + c) % WARM_BASES;
            let n = (c * WARM_REQUESTS + i / 4 + 1) as u64;
            let mut rng = rng_for(seed, 6, n);
            let mut rows = vec![AttrSet::from_indices(
                ITEMS,
                (0..ITEMS).filter(|bit| n & (1 << bit) != 0),
            )];
            let mut items: Vec<usize> = (0..ITEMS).collect();
            for _ in 0..2 {
                items.shuffle(&mut rng);
                let k = rng.gen_range(4..=10);
                rows.push(AttrSet::from_indices(ITEMS, items[..k].iter().copied()));
            }
            seq.push(mine(inputs.len(), Class::Append));
            inputs.push(Input {
                file: format!("append{c}_{i:04}.txt"),
                text: format!("{}{}", inputs[base].text, basket_text(&rows)),
            });
        }
        conns.push(seq);
    }
    Workload {
        name: "serve-warm",
        inputs,
        setup,
        conns,
        trace_per_conn: 16,
    }
}

/// The benchmark's determinism self-test: the same seed must give
/// byte-identical inputs and sequences, a different seed different inputs.
pub fn self_test() -> Result<(), String> {
    for name in NAMES {
        let fingerprint = |seed| {
            let wl = generate(name, seed).expect("known workload");
            let mut h = dualminer_obs::FnvStream::new();
            for input in &wl.inputs {
                h.update(input.file.as_bytes());
                h.update(input.text.as_bytes());
            }
            let dir = Path::new("/work");
            for seq in wl.conns.iter().chain(std::iter::once(&wl.setup)) {
                for (i, req) in seq.iter().enumerate() {
                    h.update(req.line(i as u64, &wl, dir).as_bytes());
                }
            }
            h.digest()
        };
        let (a, b, c) = (fingerprint(7), fingerprint(7), fingerprint(8));
        if a != b {
            return Err(format!("{name}: seed 7 gave different inputs on two runs"));
        }
        if a == c {
            return Err(format!("{name}: seeds 7 and 8 gave identical inputs"));
        }
    }
    Ok(())
}
