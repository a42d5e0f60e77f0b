#!/usr/bin/env bash
# Full local CI gate: build, tests, lints, formatting.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check
# Rustdoc gate: broken or private intra-doc links fail the build. The
# vendored proptest is excluded; its own docs carry links we do not own.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --exclude proptest

# Bench smoke: all bench targets compile, and a few microbench groups run
# end-to-end (single fast ids, so the gate stays quick). The settrie id
# also cross-checks trie-vs-pairwise minimization agreement at startup.
cargo bench -q -p dualminer-bench --no-run
cargo bench -q -p dualminer-bench --bench bitset_kernels -- "is_disjoint/100" >/dev/null
cargo bench -q -p dualminer-bench --bench settrie -- "minimize_family/trie/250" >/dev/null
cargo bench -q -p dualminer-bench --bench vstore -- "support_sparse" >/dev/null
cargo bench -q -p dualminer-bench --bench apriori_probe -- smoke >/dev/null
cargo bench -q -p dualminer-bench --bench canon_probe -- smoke >/dev/null
cargo bench -q -p dualminer-bench --bench dualize_matrix -- "cosparse40/mu-mmcs" >/dev/null
cargo bench -q -p dualminer-bench --bench keys -- "agree_sets/400x13" >/dev/null
cargo bench -q -p dualminer-bench --bench serve -- "frame/" >/dev/null
# The DESIGN.md §5 ablation harness: every table asserts that its knob
# leaves the answers invariant, so a regression aborts the run.
cargo run -q --release -p dualminer-bench --bin experiments -- e14 >/dev/null

# The benchmark harness (perfbench/, its own cargo workspace) calls the
# public planner API: build and test it here, so removing a function it
# uses fails this gate rather than the benchmark run.
cargo build --release --manifest-path perfbench/Cargo.toml
cargo test -q --manifest-path perfbench/Cargo.toml

# Fault-tolerance smoke (DESIGN.md §11): a seeded transient schedule
# absorbed by retries must not change the mined output, and a run killed
# by an injected permanent fault must resume from its checkpoint to the
# same output an undisturbed run prints.
cargo build --release -p dualminer-cli
DM=target/release/dualminer
TMP="$(mktemp -d)"
SRV=""
trap '[ -n "$SRV" ] && kill "$SRV" 2>/dev/null; rm -rf "$TMP"' EXIT
printf 'milk bread\nbread butter\nmilk butter bread\nmilk\nbread eggs\n' > "$TMP/baskets.txt"

"$DM" mine "$TMP/baskets.txt" --min-support 2 > "$TMP/plain.out"
"$DM" mine "$TMP/baskets.txt" --min-support 2 \
    --fault-inject seed=7,transient=0.3 --retry 3 > "$TMP/transient.out"
diff "$TMP/plain.out" "$TMP/transient.out"
# The maximal block (with its Corollary 4 verification) and the rules,
# which read the recorded supports, too.
"$DM" mine "$TMP/baskets.txt" --min-support 2 --maximal --rules 0.6 \
    > "$TMP/plain_mr.out"
"$DM" mine "$TMP/baskets.txt" --min-support 2 --maximal --rules 0.6 \
    --fault-inject seed=7,transient=0.3 --retry 3 > "$TMP/transient_mr.out"
diff "$TMP/plain_mr.out" "$TMP/transient_mr.out"

# Kill mid-run (exit 5), then resume (exit 0) to identical output.
set +e
"$DM" mine "$TMP/baskets.txt" --min-support 2 \
    --fault-inject permanent=5 --checkpoint "$TMP/mine.ckpt" \
    --checkpoint-every 1 > /dev/null 2> "$TMP/kill.err"
code=$?
set -e
[ "$code" -eq 5 ] || { echo "expected exit 5 from injected fault, got $code"; exit 1; }
grep -q -- '--resume' "$TMP/kill.err"
"$DM" mine "$TMP/baskets.txt" --min-support 2 \
    --checkpoint "$TMP/mine.ckpt" --resume > "$TMP/resumed.out" 2> /dev/null
diff "$TMP/plain.out" "$TMP/resumed.out"

# The same round trip on the Dualize & Advance route: `keys` killed by
# an injected permanent fault resumes to the plain `keys` output.
printf 'dept,role,site\nsales,mgr,hq\nsales,ic,hq\neng,ic,lab\neng,mgr,lab\n' \
    > "$TMP/relation.csv"
"$DM" keys "$TMP/relation.csv" > "$TMP/keys_plain.out"
set +e
"$DM" keys "$TMP/relation.csv" \
    --fault-inject permanent=4 --checkpoint "$TMP/keys.ckpt" \
    --checkpoint-every 1 > /dev/null 2> "$TMP/keys_kill.err"
code=$?
set -e
[ "$code" -eq 5 ] || { echo "expected exit 5 from injected fault on keys, got $code"; exit 1; }
grep -q -- '--resume' "$TMP/keys_kill.err"
"$DM" keys "$TMP/relation.csv" \
    --checkpoint "$TMP/keys.ckpt" --resume > "$TMP/keys_resumed.out" 2> /dev/null
diff "$TMP/keys_plain.out" "$TMP/keys_resumed.out"

# 100k-row smoke (DESIGN.md §11): a checkpointed run interrupted at its
# query cap (--max-queries, exit 6, exactly 40 queries) must --resume to
# the plain output, from the checkpoint itself and from a copy of it
# resumed at two threads.
awk 'BEGIN {
    srand(11);
    for (r = 0; r < 100000; r++) {
        line = "";
        for (i = 0; i < 24; i++)
            if (rand() < 0.25) line = line " it" i;
        if (line == "") line = " it0";
        print substr(line, 2);
    }
}' > "$TMP/big.txt"
"$DM" mine "$TMP/big.txt" --min-support 0.05 > "$TMP/big_plain.out"
set +e
"$DM" mine "$TMP/big.txt" --min-support 0.05 \
    --checkpoint "$TMP/big.ckpt" --checkpoint-every 1 \
    --max-queries 40 --stats json > "$TMP/big_tripped.out" 2> /dev/null
code=$?
set -e
[ "$code" -eq 6 ] || { echo "expected exit 6 from tripped budget, got $code"; exit 1; }
tail -n 1 "$TMP/big_tripped.out" | grep -q '"queries":40,'
grep -q '"kind":"levelwise"' "$TMP/big.ckpt"
cp "$TMP/big.ckpt" "$TMP/big2.ckpt"
"$DM" mine "$TMP/big.txt" --min-support 0.05 \
    --checkpoint "$TMP/big.ckpt" --resume > "$TMP/big_resumed.out" 2> /dev/null
diff "$TMP/big_plain.out" "$TMP/big_resumed.out"
"$DM" mine "$TMP/big.txt" --min-support 0.05 --threads 2 \
    --checkpoint "$TMP/big2.ckpt" --resume > "$TMP/big_resumed2.out" 2> /dev/null
diff "$TMP/big_plain.out" "$TMP/big_resumed2.out"

# Scheduler stress (DESIGN.md §13): hammer the claim-cursor scheduler
# with repeated runs at several thread counts — every repetition and
# every thread count must print bit-identical output, including under a
# seeded transient-fault schedule absorbed by retries. This catches
# schedule-dependent nondeterminism the unit tests' single runs can miss.
"$DM" mine "$TMP/baskets.txt" --min-support 2 --threads 8 > "$TMP/ws_ref.out"
diff "$TMP/plain.out" "$TMP/ws_ref.out"
for rep in 1 2 3 4 5; do
    for t in 2 4 8; do
        "$DM" mine "$TMP/baskets.txt" --min-support 2 \
            --threads "$t" > "$TMP/ws.out"
        diff "$TMP/ws_ref.out" "$TMP/ws.out" \
            || { echo "scheduler stress: rep=$rep threads=$t diverged"; exit 1; }
        "$DM" mine "$TMP/baskets.txt" --min-support 2 \
            --threads "$t" \
            --fault-inject seed=7,transient=0.3 --retry 3 > "$TMP/ws_fault.out"
        diff "$TMP/ws_ref.out" "$TMP/ws_fault.out" \
            || { echo "scheduler stress (faulty): rep=$rep threads=$t diverged"; exit 1; }
    done
done
# Parallel runs surface scheduler counters in the stats artifact.
"$DM" mine "$TMP/baskets.txt" --min-support 2 --threads 8 \
    --stats json | tail -n 1 | grep -q '"ws_tasks":'

# Budget determinism (DESIGN.md §6): the query cap admits a prefix of
# each level before it is dispatched, so a --max-queries partial and its
# exit code are the same at every thread count, plain and checkpointed.
for k in 1 7 50 200; do
    for mode in plain ckpt; do
        for t in 1 2 4; do
            rm -f "$TMP/cap.ckpt"
            set +e
            if [ "$mode" = ckpt ]; then
                "$DM" mine "$TMP/big.txt" --min-support 0.05 \
                    --max-queries "$k" --threads "$t" \
                    --checkpoint "$TMP/cap.ckpt" --checkpoint-every 1 \
                    > "$TMP/cap_$t.out" 2> /dev/null
            else
                "$DM" mine "$TMP/big.txt" --min-support 0.05 \
                    --max-queries "$k" --threads "$t" \
                    > "$TMP/cap_$t.out" 2> /dev/null
            fi
            echo "exit $?" >> "$TMP/cap_$t.out"
            set -e
        done
        grep -qx 'exit 6' "$TMP/cap_1.out" \
            || { echo "--max-queries $k ($mode) did not trip"; exit 1; }
        for t in 2 4; do
            diff "$TMP/cap_1.out" "$TMP/cap_$t.out" \
                || { echo "--max-queries $k ($mode): threads $t diverged"; exit 1; }
        done
    done
done

# Every transversal engine runs on the calling thread, so a budgeted
# partial (each FK recursive call, MU-MMCS node or EGM split is one
# query) and its exit code are the same at every thread count. The
# 6-edge matching has 64 minimal transversals, more than any small cap
# below admits; the 12-edge matching (4096) is wide enough at K = 1000
# that a parallel search would race to different prefixes.
printf 'a b\nc d\ne f\ng h\ni j\nk l\n' > "$TMP/matching6.txt"
for i in $(seq 0 11); do echo "a$i b$i"; done > "$TMP/matching12.txt"
for algo in fk mu-mmcs egm; do
    for cap in matching6:1 matching6:7 matching6:50 matching12:1000; do
        input="${cap%%:*}"
        k="${cap##*:}"
        for t in 1 2 4; do
            set +e
            "$DM" transversals "$TMP/$input.txt" --algo "$algo" \
                --max-queries "$k" --threads "$t" > "$TMP/trcap_$t.out" 2> /dev/null
            echo "exit $?" >> "$TMP/trcap_$t.out"
            set -e
        done
        grep -qx 'exit 6' "$TMP/trcap_1.out" \
            || { echo "--algo $algo --max-queries $k on $input did not trip"; exit 1; }
        for t in 2 4; do
            diff "$TMP/trcap_1.out" "$TMP/trcap_$t.out" \
                || { echo "--algo $algo --max-queries $k on $input: threads $t diverged"; exit 1; }
        done
    done
done

# Dualize & Advance runs on the calling thread, so a checkpointed
# transversal run stopped by its query cap prints the same partial,
# exits the same and writes the same checkpoint bytes at every thread
# count, on the materializing (berge) and incremental (fk) routes.
for algo in berge fk; do
    for k in 20 60 200; do
        for t in 1 2 4; do
            rm -f "$TMP/da_$t.ckpt"
            set +e
            "$DM" transversals "$TMP/matching6.txt" --algo "$algo" --retry 1 \
                --checkpoint "$TMP/da_$t.ckpt" --checkpoint-every 1 \
                --max-queries "$k" --threads "$t" > "$TMP/da_$t.out" 2> /dev/null
            echo "exit $?" >> "$TMP/da_$t.out"
            set -e
        done
        grep -qx 'exit 6' "$TMP/da_1.out" \
            || { echo "checkpointed --algo $algo --max-queries $k did not trip"; exit 1; }
        for t in 2 4; do
            diff "$TMP/da_1.out" "$TMP/da_$t.out" \
                || { echo "checkpointed --algo $algo --max-queries $k: threads $t diverged"; exit 1; }
            cmp "$TMP/da_1.ckpt" "$TMP/da_$t.ckpt" \
                || { echo "checkpointed --algo $algo --max-queries $k: threads $t saved other bytes"; exit 1; }
        done
    done
done

# Daemon smoke (DESIGN.md §15): served bodies must be byte-identical to
# the one-shot CLI's stdout; identical concurrent jobs compute once; a
# warm repeat is a cache hit; an appended-rows request re-mines
# incrementally; a budget-killed checkpointing job resumes over the
# daemon — across a SIGKILL of the server — to the undisturbed output;
# connection/protocol failures exit 7.
printf 'milk eggs\nbread milk\n' | cat "$TMP/baskets.txt" - > "$TMP/appended.txt"
"$DM" mine "$TMP/appended.txt" --min-support 2 > "$TMP/appended_ref.out"

"$DM" serve --listen 127.0.0.1:0 --unix "$TMP/dm.sock" \
    > "$TMP/serve.out" 2>/dev/null &
SRV=$!
for _ in $(seq 100); do [ -s "$TMP/serve.out" ] && break; sleep 0.1; done
ADDR="$(grep -oE '127\.0\.0\.1:[0-9]+' "$TMP/serve.out")"
[ -n "$ADDR" ] || { echo "daemon did not come up"; exit 1; }

MINE_REQ='{"op":"mine","id":1,"input":{"path":"'"$TMP/baskets.txt"'"},"min_support":"2"}'
TR_REQ='{"op":"transversals","id":2,"input":{"inline":"a b\nc\n"}}'

# Three concurrent clients: two identical mine jobs (deduplicated to a
# single computation) plus a distinct transversals job over the unix
# socket.
"$DM" request "$ADDR" --json "$MINE_REQ" > "$TMP/c1.out" 2> "$TMP/c1.err" &
C1=$!
"$DM" request "$ADDR" --json "$MINE_REQ" > "$TMP/c2.out" 2> "$TMP/c2.err" &
C2=$!
"$DM" request "unix:$TMP/dm.sock" --json "$TR_REQ" > "$TMP/c3.out" 2> "$TMP/c3.err" &
C3=$!
wait "$C1" "$C2" "$C3"
diff "$TMP/plain.out" "$TMP/c1.out"
diff "$TMP/plain.out" "$TMP/c2.out"
grep -q 'Tr(H): 2 minimal transversals' "$TMP/c3.out"
printf 'a b\nc\n' > "$TMP/tr.txt"
"$DM" transversals "$TMP/tr.txt" > "$TMP/tr_cli.out" 2> /dev/null
diff "$TMP/tr_cli.out" "$TMP/c3.out"
grep -qE 'note: cache (hit|coalesced)' "$TMP/c1.err" "$TMP/c2.err" \
    || { echo "identical concurrent jobs were not deduplicated"; exit 1; }

# Warm-cache repeat: byte-identical, stamped as a hit.
"$DM" request "$ADDR" --json "$MINE_REQ" > "$TMP/warm.out" 2> "$TMP/warm.err"
diff "$TMP/plain.out" "$TMP/warm.out"
grep -q 'note: cache hit' "$TMP/warm.err"

# Respelled repeat: CRLF line ends, tabs, a trailing comment and an extra
# blank line are not content, so the same baskets hit the same entry.
printf 'milk\tbread\r\nbread butter\r\n\r\nmilk butter\tbread\r\nmilk\r\nbread\teggs # respelled\r\n\r\n' \
    > "$TMP/respelled.txt"
RESPELLED_REQ='{"op":"mine","id":6,"input":{"path":"'"$TMP/respelled.txt"'"},"min_support":"2"}'
"$DM" request "$ADDR" --json "$RESPELLED_REQ" > "$TMP/respelled.out" 2> "$TMP/respelled.err"
diff "$TMP/plain.out" "$TMP/respelled.out"
grep -q 'note: cache hit' "$TMP/respelled.err" \
    || { echo "respelled baskets missed the cache"; exit 1; }
# The other separators: vertical tab, form feed and U+00A0 (a Unicode
# White_Space the byte-level tokenizer hands to split_whitespace).
printf 'milk\vbread\nbread\fbutter\nmilk\302\240butter bread\nmilk\nbread\302\240\veggs\n' \
    > "$TMP/respelled2.txt"
RESPELLED2_REQ='{"op":"mine","id":11,"input":{"path":"'"$TMP/respelled2.txt"'"},"min_support":"2"}'
"$DM" request "$ADDR" --json "$RESPELLED2_REQ" > "$TMP/respelled2.out" 2> "$TMP/respelled2.err"
diff "$TMP/plain.out" "$TMP/respelled2.out"
grep -q 'note: cache hit' "$TMP/respelled2.err" \
    || { echo "VT/FF/U+00A0-separated baskets missed the cache"; exit 1; }
# Multibyte names, names longer than a packed word and a \x1F inside a
# token: the CLI and the daemon parse and render them alike.
printf 'caf\303\251 na\303\257ve_long_item x\037y\ncaf\303\251 x\037y \317\200\317\200\317\200\317\200\nna\303\257ve_long_item caf\303\251 x\037y # c\n' \
    > "$TMP/wide.txt"
"$DM" mine "$TMP/wide.txt" --min-support 2 > "$TMP/wide_cli.out"
WIDE_REQ='{"op":"mine","id":12,"input":{"path":"'"$TMP/wide.txt"'"},"min_support":"2"}'
"$DM" request "$ADDR" --json "$WIDE_REQ" > "$TMP/wide_daemon.out" 2> /dev/null
diff "$TMP/wide_cli.out" "$TMP/wide_daemon.out"
grep -q 'naïve_long_item' "$TMP/wide_cli.out" \
    || { echo "multibyte basket names were lost"; exit 1; }

# Keys with FDs and a maximal mine with its Corollary 4 check: the
# daemon's bodies are byte-identical to the CLI's, with a pinned FD line
# and a verified maximal block.
printf 'name,dept,room,phone\nann,db,101,11\nbob,db,101,12\ncid,ml,202,13\ndan,ml,203,13\n' \
    > "$TMP/staff.csv"
"$DM" keys "$TMP/staff.csv" --fds > "$TMP/keys_cli.out"
KEYS_REQ='{"op":"keys","id":7,"input":{"path":"'"$TMP/staff.csv"'"},"fds":true}'
"$DM" request "$ADDR" --json "$KEYS_REQ" > "$TMP/keys_daemon.out" 2> /dev/null
diff "$TMP/keys_cli.out" "$TMP/keys_daemon.out"
grep -qx '  {room, phone} → name' "$TMP/keys_cli.out" \
    || { echo "keys --fds lost the pinned FD {room, phone} → name"; exit 1; }
"$DM" mine "$TMP/baskets.txt" --min-support 2 --maximal > "$TMP/maximal_cli.out"
grep -q 'Verified: true' "$TMP/maximal_cli.out" \
    || { echo "maximal mine did not verify"; exit 1; }
MAXIMAL_REQ='{"op":"mine","id":8,"input":{"path":"'"$TMP/baskets.txt"'"},"min_support":"2","maximal":true}'
"$DM" request "$ADDR" --json "$MAXIMAL_REQ" > "$TMP/maximal_daemon.out" 2> /dev/null
diff "$TMP/maximal_cli.out" "$TMP/maximal_daemon.out"

# verify-dual over the socket, both verdicts: the daemon's bytes and exit
# code (0 dual, 1 not dual) are the CLI's.
printf 'a b\nb c\na c\n' > "$TMP/tri.txt"
printf 'a\nb\n' > "$TMP/pair.txt"
for g in tri pair; do
    VD_REQ='{"op":"verify-dual","id":13,"input":{"path":"'"$TMP/tri.txt"'"},"input2":{"path":"'"$TMP/$g.txt"'"}}'
    set +e
    "$DM" verify-dual "$TMP/tri.txt" "$TMP/$g.txt" > "$TMP/vd_cli.out"
    cli_code=$?
    "$DM" request "$ADDR" --json "$VD_REQ" > "$TMP/vd_daemon.out" 2> /dev/null
    code=$?
    set -e
    want=$([ "$g" = tri ] && echo 0 || echo 1)
    [ "$cli_code" -eq "$want" ] && [ "$code" -eq "$want" ] \
        || { echo "verify-dual tri/$g: want exit $want, got $cli_code (CLI) / $code (daemon)"; exit 1; }
    diff "$TMP/vd_cli.out" "$TMP/vd_daemon.out"
done

# Incremental append: re-mines on top of the cached base, byte-identical
# to the one-shot run over the full appended file.
APPEND_REQ='{"op":"mine","id":3,"input":{"path":"'"$TMP/appended.txt"'"},"min_support":"2"}'
"$DM" request "$ADDR" --json "$APPEND_REQ" > "$TMP/inc.out" 2> "$TMP/inc.err"
diff "$TMP/appended_ref.out" "$TMP/inc.out"
grep -q 'note: cache incremental' "$TMP/inc.err"
# A budgeted append reuses the same base: the update meters each level
# as the cold walk does, so it stops where the one-shot run under the
# same budget stops — exit 6 and a byte-identical partial.
APPEND_Q7_REQ='{"op":"mine","id":10,"input":{"path":"'"$TMP/appended.txt"'"},"min_support":"2","run":{"max_queries":7}}'
set +e
"$DM" mine "$TMP/appended.txt" --min-support 2 --max-queries 7 > "$TMP/appended_q7_ref.out"
ref_code=$?
"$DM" request "$ADDR" --json "$APPEND_Q7_REQ" > "$TMP/inc_q7.out" 2> "$TMP/inc_q7.err"
code=$?
set -e
[ "$ref_code" -eq 6 ] && [ "$code" -eq 6 ] \
    || { echo "expected exit 6 from the budgeted append, got $ref_code/$code"; exit 1; }
diff "$TMP/appended_q7_ref.out" "$TMP/inc_q7.out"
grep -q 'note: cache incremental' "$TMP/inc_q7.err" \
    || { echo "the budgeted append was not served incrementally"; exit 1; }
# A second append promotes the old border sets {eggs} and {milk, butter}
# and grows their supersets up to the full item set (levels 2–4). The
# update counts only those sets and still prints the one-shot output byte
# for byte: complete, and under a cap of 13 queries, which trips inside
# level 3, where every candidate is growth.
printf 'milk butter bread eggs\nmilk butter bread eggs\n' | cat "$TMP/baskets.txt" - > "$TMP/grown.txt"
"$DM" mine "$TMP/grown.txt" --min-support 2 > "$TMP/grown_ref.out"
GROWN_REQ='{"op":"mine","id":13,"input":{"path":"'"$TMP/grown.txt"'"},"min_support":"2"}'
"$DM" request "$ADDR" --json "$GROWN_REQ" > "$TMP/grown.out" 2> "$TMP/grown.err"
diff "$TMP/grown_ref.out" "$TMP/grown.out"
grep -q 'note: cache incremental' "$TMP/grown.err" \
    || { echo "the growing append was not served incrementally"; exit 1; }
GROWN_Q13_REQ='{"op":"mine","id":14,"input":{"path":"'"$TMP/grown.txt"'"},"min_support":"2","run":{"max_queries":13}}'
set +e
"$DM" mine "$TMP/grown.txt" --min-support 2 --max-queries 13 > "$TMP/grown_q13_ref.out"
ref_code=$?
"$DM" request "$ADDR" --json "$GROWN_Q13_REQ" > "$TMP/grown_q13.out" 2> "$TMP/grown_q13.err"
code=$?
set -e
[ "$ref_code" -eq 6 ] && [ "$code" -eq 6 ] \
    || { echo "expected exit 6 from the budgeted growing append, got $ref_code/$code"; exit 1; }
diff "$TMP/grown_q13_ref.out" "$TMP/grown_q13.out"
grep -q 'note: cache incremental' "$TMP/grown_q13.err" \
    || { echo "the budgeted growing append was not served incrementally"; exit 1; }

# Kill-and-resume: budget-kill a checkpointing job (exit 6), SIGKILL the
# server, restart, resume from the persisted envelope to the undisturbed
# output.
CKPT_REQ='{"op":"mine","id":4,"input":{"path":"'"$TMP/baskets.txt"'"},"min_support":"2","run":{"checkpoint":"'"$TMP/daemon.ckpt"'","checkpoint_every":1,"max_queries":3}}'
set +e
"$DM" request "$ADDR" --json "$CKPT_REQ" > /dev/null 2> /dev/null
code=$?
set -e
[ "$code" -eq 6 ] || { echo "expected exit 6 from budget-killed daemon job, got $code"; exit 1; }
[ -s "$TMP/daemon.ckpt" ] || { echo "daemon job left no checkpoint"; exit 1; }
kill -9 "$SRV"
wait "$SRV" 2>/dev/null || true
"$DM" serve --listen 127.0.0.1:0 > "$TMP/serve2.out" 2>/dev/null &
SRV=$!
for _ in $(seq 100); do [ -s "$TMP/serve2.out" ] && break; sleep 0.1; done
ADDR="$(grep -oE '127\.0\.0\.1:[0-9]+' "$TMP/serve2.out")"
RESUME_REQ='{"op":"mine","id":5,"input":{"path":"'"$TMP/baskets.txt"'"},"min_support":"2","run":{"checkpoint":"'"$TMP/daemon.ckpt"'","resume":true}}'
"$DM" request "$ADDR" --json "$RESUME_REQ" > "$TMP/daemon_resumed.out" 2>/dev/null
diff "$TMP/plain.out" "$TMP/daemon_resumed.out"

# Connection/protocol failures are exit 7, distinct from every job error.
set +e
"$DM" request "$ADDR" --json 'not json' > /dev/null 2> /dev/null
[ $? -eq 7 ] || { echo "malformed request should exit 7"; exit 1; }
"$DM" request 127.0.0.1:1 --json "$MINE_REQ" > /dev/null 2> /dev/null
[ $? -eq 7 ] || { echo "unreachable server should exit 7"; exit 1; }
set -e

# Clean shutdown over the protocol; the server process exits by itself.
"$DM" request "$ADDR" --json '{"op":"shutdown","id":9}' > /dev/null
wait "$SRV"
SRV=""

# Overload/chaos smoke (DESIGN.md §16): a storm of misbehaving clients
# (garbage frames, mid-frame disconnects) must not take the daemon down
# or change the answers it still serves; with --cache-snapshot-every 1 a
# SIGKILL after the reply must leave a loadable snapshot (warm restart);
# a corrupted snapshot must cold-start with a warning, not a failed
# boot; and --default-timeout must clamp an unbudgeted job to the typed
# budget exit 6.
"$DM" serve --listen 127.0.0.1:0 --workers 2 \
    --cache-persist "$TMP/cache.snap" --cache-snapshot-every 1 \
    > "$TMP/serve3.out" 2> "$TMP/serve3.err" &
SRV=$!
for _ in $(seq 100); do [ -s "$TMP/serve3.out" ] && break; sleep 0.1; done
ADDR="$(grep -oE '127\.0\.0\.1:[0-9]+' "$TMP/serve3.out")"
PORT="${ADDR##*:}"
STORM=""
for i in $(seq 8); do
    (
        exec 3<>"/dev/tcp/127.0.0.1/$PORT" || exit 0
        # A garbage line, then a frame dropped mid-JSON (no newline).
        printf 'not json at all %s\n{"op":"mine","id":%s,"inp' "$i" "$i" >&3
        exec 3<&-
    ) &
    STORM="$STORM $!"
done
# An honest request rides through the storm; --retries exercises the
# client's overload-retry path (not triggered here, but parsed and
# bounded).
"$DM" request "$ADDR" --json "$MINE_REQ" --retries 2 --retry-backoff-ms 10 \
    > "$TMP/chaos.out" 2> /dev/null
diff "$TMP/plain.out" "$TMP/chaos.out"
for pid in $STORM; do wait "$pid" || true; done
# --cache-snapshot-every 1 snapshots before the reply is sent, so the
# file must already be on disk; SIGKILL (no clean shutdown) and prove
# the warm cache survived the crash.
[ -s "$TMP/cache.snap" ] || { echo "periodic snapshot was not written"; exit 1; }
kill -9 "$SRV"
wait "$SRV" 2>/dev/null || true
"$DM" serve --listen 127.0.0.1:0 --cache-persist "$TMP/cache.snap" \
    > "$TMP/serve4.out" 2> "$TMP/serve4.err" &
SRV=$!
for _ in $(seq 100); do [ -s "$TMP/serve4.out" ] && break; sleep 0.1; done
ADDR="$(grep -oE '127\.0\.0\.1:[0-9]+' "$TMP/serve4.out")"
"$DM" request "$ADDR" --json "$MINE_REQ" > "$TMP/crash_warm.out" 2> "$TMP/crash_warm.err"
diff "$TMP/plain.out" "$TMP/crash_warm.out"
grep -q 'note: cache hit' "$TMP/crash_warm.err" \
    || { echo "cache did not survive SIGKILL + restart"; exit 1; }
"$DM" request "$ADDR" --json '{"op":"shutdown","id":9}' > /dev/null
wait "$SRV"
SRV=""
# Corrupt the snapshot: the daemon must boot anyway, warn, and compute
# the same answer cold.
printf 'definitely not a checkpoint\n' > "$TMP/cache.snap"
"$DM" serve --listen 127.0.0.1:0 --cache-persist "$TMP/cache.snap" \
    > "$TMP/serve5.out" 2> "$TMP/serve5.err" &
SRV=$!
for _ in $(seq 100); do [ -s "$TMP/serve5.out" ] && break; sleep 0.1; done
ADDR="$(grep -oE '127\.0\.0\.1:[0-9]+' "$TMP/serve5.out")"
grep -q 'cold-starting' "$TMP/serve5.err" \
    || { echo "corrupted snapshot produced no warning"; exit 1; }
"$DM" request "$ADDR" --json "$MINE_REQ" > "$TMP/cold.out" 2> "$TMP/cold.err"
diff "$TMP/plain.out" "$TMP/cold.out"
grep -q 'note: cache miss' "$TMP/cold.err" \
    || { echo "corrupted snapshot was not discarded"; exit 1; }
"$DM" request "$ADDR" --json '{"op":"shutdown","id":9}' > /dev/null
wait "$SRV"
SRV=""
# Server-side deadline: an unbudgeted request is clamped by
# --default-timeout and comes back as the typed budget result (exit 6).
"$DM" serve --listen 127.0.0.1:0 --default-timeout 1ns \
    > "$TMP/serve6.out" 2>/dev/null &
SRV=$!
for _ in $(seq 100); do [ -s "$TMP/serve6.out" ] && break; sleep 0.1; done
ADDR="$(grep -oE '127\.0\.0\.1:[0-9]+' "$TMP/serve6.out")"
set +e
"$DM" request "$ADDR" --json "$MINE_REQ" > /dev/null 2> /dev/null
code=$?
set -e
[ "$code" -eq 6 ] || { echo "expected exit 6 from clamped deadline, got $code"; exit 1; }
"$DM" request "$ADDR" --json '{"op":"shutdown","id":9}' > /dev/null
wait "$SRV"
SRV=""

echo "ci.sh: all checks passed"
