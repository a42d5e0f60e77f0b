//! What reading a mine-cold input costs, and what the ladder's
//! `exec.render_ms` holds, on four Quest texts shaped like the daemon's
//! `mine-cold` requests (20k, 30k, 40k and 50k rows over 50–95 items
//! named `it<N>`, as perfbench draws its databases 0, 5, 10 and 15):
//!
//! * `canon_baskets` against the loop it replaced (kept below as
//!   [`parent`]), the two alternating which runs first in each
//!   repetition: MB/s and ns per item token, each a median with its
//!   interquartile range, and the median per-repetition speed-up;
//! * `CanonBaskets::build`, the cold route's database build;
//! * `exec::mine` against `apriori_par_ctl` alone, at threads 2 and the
//!   threshold that costs about 14k queries, alternated, each on a
//!   database built fresh for it: the difference is what `exec` adds to
//!   the engine call (rendering and the observer).
//!
//! Run with `cargo bench -p dualminer-bench --bench canon_probe`;
//! positional arguments filter the ids (`cold/0` … `cold/3`, eleven
//! repetitions each, and `smoke`, one small text with three repetitions
//! for CI).

use std::hint::black_box;
use std::time::Instant;

use dualminer_mining::apriori::apriori_par_ctl;
use dualminer_mining::gen::{quest, QuestParams};
use dualminer_mining::TransactionDb;
use dualminer_obs::{Budget, Meter, NoopObserver, RunCtl, StatsCollector};
use dualminer_serve::canon::{canon_baskets, CanonBaskets};
use dualminer_serve::exec::{self, ExecCtx, MineOpts};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The canonicalizer before the one-pass loop, as it was: the word
/// tokenizer that reads the byte ending a token a second time through a
/// class table, its packed-key interner at most half full, a caller that
/// pushes `usize` rows into growing buffers, and the fingerprint through
/// out-of-line calls, as a call into another crate was without `#[inline]`.
mod parent {
    use std::collections::hash_map::RandomState;
    use std::collections::HashMap;
    use std::hash::{BuildHasher, Hasher};
    use std::sync::OnceLock;

    use dualminer_obs::FnvStream;

    #[derive(Default)]
    struct RowFingerprint(FnvStream);

    impl RowFingerprint {
        #[inline(never)]
        fn push_symbol(&mut self, symbol: &str) {
            self.0.update(b"S");
            self.0.update_u64(symbol.len() as u64);
            self.0.update(symbol.as_bytes());
        }

        #[inline(never)]
        fn push_item(&mut self, index: usize) {
            self.0.update(b"I");
            self.0.update_u64(index as u64);
        }

        #[inline(never)]
        fn end_row(&mut self) {
            self.0.update(b"R");
        }

        #[inline(never)]
        fn digest(&self) -> u64 {
            self.0.digest()
        }
    }

    #[derive(Default)]
    struct Interner {
        names: Vec<String>,
        short: KeyedMap,
        long: HashMap<String, usize>,
    }

    impl Interner {
        fn intern_packed(&mut self, name: &str, packed: u64) -> usize {
            let key = if packed != 0 {
                packed
            } else {
                short_key(name.as_bytes())
            };
            if key != 0 {
                let names = &mut self.names;
                let slot = self.short.get_or_insert_with(key, || {
                    names.push(name.to_string());
                    names.len() as u64
                });
                return slot as usize - 1;
            }
            if let Some(&id) = self.long.get(name) {
                return id;
            }
            let id = self.names.len();
            self.names.push(name.to_string());
            self.long.insert(name.to_string(), id);
            id
        }
    }

    fn short_key(bytes: &[u8]) -> u64 {
        let n = bytes.len();
        if n == 0 || n > 8 || bytes[n - 1] == 0 {
            0
        } else if n >= 4 {
            let lo = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            let hi = u32::from_le_bytes([bytes[n - 4], bytes[n - 3], bytes[n - 2], bytes[n - 1]]);
            u64::from(lo) | u64::from(hi) << (8 * (n - 4))
        } else {
            u64::from(bytes[0])
                | u64::from(bytes[n / 2]) << (8 * (n / 2))
                | u64::from(bytes[n - 1]) << (8 * (n - 1))
        }
    }

    const PREMIX: u64 = 0xff51_afd7_ed55_8ccd;

    struct KeyedMap {
        slots: Vec<(u64, u64)>,
        len: usize,
        shift: u32,
        mul: u64,
        add: u64,
    }

    impl Default for KeyedMap {
        fn default() -> Self {
            static KEYS: OnceLock<(u64, u64)> = OnceLock::new();
            let &(mul, add) = KEYS.get_or_init(|| {
                let state = RandomState::new();
                let draw = |i: u64| {
                    let mut h = state.build_hasher();
                    h.write_u64(i);
                    h.finish()
                };
                (draw(0) | 1, draw(1))
            });
            KeyedMap {
                slots: Vec::new(),
                len: 0,
                shift: 0,
                mul,
                add,
            }
        }
    }

    impl KeyedMap {
        fn home(&self, key: u64) -> usize {
            let x = key.wrapping_mul(PREMIX);
            let x = x ^ (x >> 32);
            (x.wrapping_mul(self.mul).wrapping_add(self.add) >> self.shift) as usize
        }

        fn get_or_insert_with(&mut self, key: u64, value: impl FnOnce() -> u64) -> u64 {
            if 2 * self.len >= self.slots.len() {
                self.grow();
            }
            let mask = self.slots.len() - 1;
            let mut i = self.home(key);
            loop {
                let (k, v) = self.slots[i];
                if v == 0 {
                    let v = value();
                    self.slots[i] = (key, v);
                    self.len += 1;
                    return v;
                }
                if k == key {
                    return v;
                }
                i = (i + 1) & mask;
            }
        }

        fn grow(&mut self) {
            let capacity = (2 * self.slots.len()).max(16);
            let old = std::mem::replace(&mut self.slots, vec![(0, 0); capacity]);
            self.shift = 64 - capacity.trailing_zeros();
            let mask = capacity - 1;
            for (k, v) in old.into_iter().filter(|&(_, v)| v != 0) {
                let mut i = self.home(k);
                while self.slots[i].1 != 0 {
                    i = (i + 1) & mask;
                }
                self.slots[i] = (k, v);
            }
        }
    }

    enum Token<'a> {
        Item(&'a str, u64),
        LineEnd,
    }

    const WORD: u8 = 0;
    const SEP: u8 = 1;
    const NEWLINE: u8 = 2;
    const HASH: u8 = 3;
    const WIDE: u8 = 4;

    const CLASS: [u8; 256] = {
        let mut class = [WORD; 256];
        let mut b = 0x80;
        while b < 256 {
            class[b] = WIDE;
            b += 1;
        }
        class[b'\t' as usize] = SEP;
        class[0x0B] = SEP;
        class[0x0C] = SEP;
        class[b'\r' as usize] = SEP;
        class[b' ' as usize] = SEP;
        class[b'\n' as usize] = NEWLINE;
        class[b'#' as usize] = HASH;
        class
    };

    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;

    fn below(w: u64, n: u8) -> u64 {
        w.wrapping_sub(ONES * u64::from(n)) & !w & HIGHS
    }

    fn specials(w: u64) -> u64 {
        below(w, 0x21) | below(w ^ (ONES * u64::from(b'#')), 1) | (w & HIGHS)
    }

    fn word_at(bytes: &[u8], i: usize) -> Option<u64> {
        let chunk = bytes.get(i..i + 8)?;
        Some(u64::from_le_bytes(chunk.try_into().expect("8 bytes")))
    }

    fn basket_tokens<'a>(text: &'a str, mut emit: impl FnMut(Token<'a>)) {
        let bytes = text.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match CLASS[bytes[i] as usize] {
                SEP => i += 1,
                NEWLINE => {
                    emit(Token::LineEnd);
                    i += 1;
                }
                HASH => i = line_end(bytes, i),
                class => {
                    let (end, packed) = if class == WORD {
                        token_end(bytes, i)
                    } else {
                        (i, 0)
                    };
                    if bytes.get(end).is_some_and(|&b| CLASS[b as usize] == WIDE) {
                        let end = line_end(bytes, end);
                        let line = &text[i..end];
                        let line = line.find('#').map_or(line, |h| &line[..h]);
                        line.split_whitespace()
                            .for_each(|item| emit(Token::Item(item, 0)));
                        i = end;
                    } else {
                        emit(Token::Item(&text[i..end], packed));
                        i = end;
                    }
                }
            }
        }
        if !text.is_empty() && !text.ends_with('\n') {
            emit(Token::LineEnd);
        }
    }

    fn token_end(bytes: &[u8], start: usize) -> (usize, u64) {
        let Some(w) = word_at(bytes, start) else {
            return (word_end(bytes, start), 0);
        };
        let k = specials(w).trailing_zeros() as usize / 8;
        match bytes.get(start + k) {
            Some(&b) if CLASS[b as usize] == WORD => (word_end(bytes, start + k), 0),
            _ => (start + k, w & (u64::MAX >> (64 - 8 * k))),
        }
    }

    fn word_end(bytes: &[u8], mut i: usize) -> usize {
        while let Some(w) = word_at(bytes, i) {
            let flags = specials(w);
            if flags == 0 {
                i += 8;
                continue;
            }
            i += flags.trailing_zeros() as usize / 8;
            if CLASS[bytes[i] as usize] != WORD {
                return i;
            }
            i += 1;
        }
        while bytes.get(i).is_some_and(|&b| CLASS[b as usize] == WORD) {
            i += 1;
        }
        i
    }

    fn line_end(bytes: &[u8], i: usize) -> usize {
        bytes[i..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(bytes.len(), |k| i + k)
    }

    /// Names, flat rows, row ends, prefix digests, fingerprint.
    pub(super) type Canon = (Vec<String>, Vec<usize>, Vec<usize>, Vec<u64>, u64);

    pub(super) fn canon_baskets(text: &str) -> Canon {
        let mut items = Interner::default();
        let (mut rows, mut ends) = (Vec::new(), Vec::new());
        let mut prefix = Vec::new();
        let mut fp = RowFingerprint::default();
        let mut row_start = 0;
        basket_tokens(text, |token| match token {
            Token::Item(item, packed) => {
                let fresh = items.names.len();
                let id = items.intern_packed(item, packed);
                if id == fresh {
                    fp.push_symbol(item);
                }
                fp.push_item(id);
                rows.push(id);
            }
            Token::LineEnd => {
                if rows.len() == row_start {
                    return;
                }
                row_start = rows.len();
                ends.push(row_start);
                fp.end_row();
                prefix.push(fp.digest());
            }
        });
        let fingerprint = fp.digest();
        (items.names, rows, ends, prefix, fingerprint)
    }
}

/// Median and interquartile range of `xs`.
fn median_iqr(xs: &mut [f64]) -> (f64, f64) {
    xs.sort_by(f64::total_cmp);
    let q = |p: f64| xs[((xs.len() - 1) as f64 * p).round() as usize];
    (q(0.5), q(0.75) - q(0.25))
}

/// `median±IQR` of `xs` with `digits` decimals.
fn show(xs: &mut [f64], digits: usize) -> String {
    let (median, iqr) = median_iqr(xs);
    format!("{median:.digits$}±{iqr:.digits$}")
}

/// Milliseconds `f` takes, and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// A Quest database rendered as basket text over item names `it<N>`.
fn quest_text(params: &QuestParams, seed: u64) -> String {
    let db = quest(params, &mut StdRng::seed_from_u64(seed));
    let mut text = String::new();
    for row in db.rows() {
        let names: Vec<String> = row.iter().map(|i| format!("it{i}")).collect();
        text.push_str(&names.join(" "));
        text.push('\n');
    }
    text
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

/// `exec::mine`'s milliseconds at `threads` on a fresh database, as the
/// daemon's cold route calls it.
fn exec_mine_ms(canon: &CanonBaskets, sigma: usize, threads: usize) -> f64 {
    let (universe, db) = canon.build(0);
    let meter = Meter::unlimited();
    let stats = StatsCollector::new();
    let note = |_: &str| {};
    let cx = ExecCtx {
        meter: &meter,
        observer: &stats,
        stats: &stats,
        note: &note,
        threads,
    };
    let opts = MineOpts {
        rules: None,
        maximal: false,
    };
    let (out, ms) = timed(|| exec::mine(&universe, &db, sigma, &opts, &Default::default(), &cx));
    black_box(out.expect("a plain mine completes"));
    ms
}

/// `apriori_par_ctl`'s milliseconds at `threads` on a fresh database.
fn apriori_ms(canon: &CanonBaskets, sigma: usize, threads: usize) -> f64 {
    let (_, db) = canon.build(0);
    let meter = Meter::unlimited();
    let ctl = RunCtl::new(&meter, &NoopObserver);
    let (fs, ms) = timed(|| apriori_par_ctl(&db, sigma, threads, &ctl).expect_complete());
    black_box(fs);
    ms
}

fn probe(id: &str, params: &QuestParams, seed: u64, target: u64, reps: usize) {
    let text = quest_text(params, seed);
    let canon = canon_baskets(&text).expect("a Quest text parses");
    let old = parent::canon_baskets(&text);
    assert_eq!(canon.names, old.0, "{id}: names");
    assert!(
        canon
            .rows
            .iter()
            .flatten()
            .map(|&i| i as usize)
            .eq(old.1.iter().copied()),
        "{id}: rows"
    );
    assert_eq!(canon.rows.len(), old.2.len(), "{id}: row count");
    assert!(
        canon
            .prefix
            .iter()
            .map(|m| m.digest)
            .eq(old.3.iter().copied()),
        "{id}: prefix marks"
    );
    assert_eq!(canon.fingerprint, old.4, "{id}: fingerprint");
    let mb = text.len() as f64 / 1e6;
    let tokens = old.1.len() as f64;

    // Canon, the two loops alternating which runs first.
    let mut ms = [Vec::new(), Vec::new()];
    for rep in 0..reps {
        let order = if rep % 2 == 0 { [0, 1] } else { [1, 0] };
        for slot in order {
            let t = if slot == 0 {
                let (out, t) = timed(|| canon_baskets(black_box(&text)));
                black_box(out.expect("parses"));
                t
            } else {
                let (out, t) = timed(|| parent::canon_baskets(black_box(&text)));
                black_box(out);
                t
            };
            ms[slot].push(t);
        }
    }
    let mut speedup: Vec<f64> = ms[1]
        .iter()
        .zip(&ms[0])
        .map(|(old, new)| old / new)
        .collect();
    let rate = |ms: &[f64]| -> [Vec<f64>; 2] {
        [
            ms.iter().map(|t| mb / (t / 1e3)).collect(),
            ms.iter().map(|t| t * 1e6 / tokens).collect(),
        ]
    };
    let [mut new_mbs, mut new_ns] = rate(&ms[0]);
    let [mut old_mbs, mut old_ns] = rate(&ms[1]);

    let mut build: Vec<f64> = (0..reps)
        .map(|_| {
            let (out, t) = timed(|| canon.build(0));
            black_box(out);
            t
        })
        .collect();

    // exec::mine against the engine call alone, alternated, each on a
    // fresh database.
    let sigma = calibrate_sigma(&canon.build(0).1, target);
    let threads = 2;
    let (mut exec_ms, mut engine_ms) = (Vec::new(), Vec::new());
    for rep in 0..reps {
        if rep % 2 == 0 {
            exec_ms.push(exec_mine_ms(&canon, sigma, threads));
            engine_ms.push(apriori_ms(&canon, sigma, threads));
        } else {
            engine_ms.push(apriori_ms(&canon, sigma, threads));
            exec_ms.push(exec_mine_ms(&canon, sigma, threads));
        }
    }
    let mut added: Vec<f64> = exec_ms.iter().zip(&engine_ms).map(|(e, a)| e - a).collect();

    println!(
        "canon_probe/{id}: rows={} items={} mb={mb:.2} tokens={tokens} reps={reps} \
         new_mb_s={} old_mb_s={} new_ns_per_token={} old_ns_per_token={} speedup={} \
         build_ms={} sigma={sigma} threads={threads} exec_mine_ms={} apriori_ms={} \
         exec_minus_apriori_ms={}",
        canon.rows.len(),
        canon.names.len(),
        show(&mut new_mbs, 1),
        show(&mut old_mbs, 1),
        show(&mut new_ns, 2),
        show(&mut old_ns, 2),
        show(&mut speedup, 3),
        show(&mut build, 2),
        show(&mut exec_ms, 2),
        show(&mut engine_ms, 2),
        show(&mut added, 2),
    );
}

fn main() {
    let filters: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect();
    let wanted = |id: &str| filters.is_empty() || filters.iter().any(|f| id.contains(f.as_str()));
    // The perfbench `mine-cold` shape: rows and items as its databases
    // 0, 5, 10 and 15 draw them.
    for (k, i) in [0usize, 5, 10, 15].into_iter().enumerate() {
        let id = format!("cold/{k}");
        if wanted(&id) {
            let params = QuestParams {
                n_items: 50 + (i * 37) % 51,
                n_transactions: 20_000 + 2_000 * i,
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
