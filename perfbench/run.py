#!/usr/bin/env python3
"""Build and run the dualminer daemon benchmark.

    python3 perfbench/run.py --workload <mine-cold|dualize-mix|serve-warm> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the repository root. Builds the release `dualminer` binary (the
daemon under test) and the `perfbench` harness into $CARGO_TARGET_DIR
(default `.bench_build`), then runs the harness, whose last line of output
is the JSON result. `--smoke` runs every workload briefly, untraced and
traced, and checks that every metric BENCHMARK.json names is printed with
its unit. Build output goes to stderr; the exit code is nonzero on any
failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in (
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "dualminer-cli"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "-q",
               "--manifest-path", manifest] + extra
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def smoke(harness, base):
    """Runs the harness's smoke mode and checks its result lines against
    BENCHMARK.json: every untraced line carries every end-to-end metric,
    the traced line every per-layer metric, each with its declared unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    proc = subprocess.run([harness, "--smoke"] + base, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        fail(f"smoke run exited with {proc.returncode}")
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    if len(results) != len(spec["workloads"]) + 1:
        fail(f"expected {len(spec['workloads']) + 1} result lines, got {len(results)}")
    runs = [(r, spec["end_to_end"]) for r in results[:-1]]
    runs.append((results[-1], spec["per_layer"]))
    for result, declared in runs:
        if not result["correct"] or result["failed"] != 0:
            fail("smoke run reported wrong answers")
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if want != got:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
            fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
                 f"undeclared {extra}, unit mismatches {units}")
    print("smoke: every workload answered correctly and printed every metric")


def main():
    for needed in ("Cargo.toml", "crates"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} next to {HERE}: run from a full checkout")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                             or os.path.join(ROOT, ".bench_build"))
    build(target)
    harness = os.path.join(target, "release", "perfbench")
    base = ["--root", ROOT,
            "--daemon", os.path.join(target, "release", "dualminer"),
            "--work", os.path.join(target, "perfbench-work", str(os.getpid()))]
    if sys.argv[1:] == ["--smoke"]:
        smoke(harness, base)
        return
    sys.stdout.flush()
    sys.exit(subprocess.run([harness] + sys.argv[1:] + base, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
