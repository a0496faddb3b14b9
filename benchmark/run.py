#!/usr/bin/env python3
"""Builds and runs the synthesis-flow benchmark (benchmark/README.md).

One run, from the root of a checkout:
  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
Checks of the references and the known defects:
  python3 benchmark/run.py --selftest
  python3 benchmark/run.py --defects
Repeatability:
  python3 benchmark/run.py --repeat 10 --workload W --seconds S --out W.jsonl
  python3 benchmark/run.py --compare A.jsonl [B.jsonl]

The first use builds adc_benchmark with CMake into $CARGO_TARGET_DIR
(default .bench_build) and runs its selftest.  A run's last line on stdout
is its JSON result; build output goes to stderr.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def newest_source():
    newest = 0.0
    for top in (BENCH, ROOT / "src"):
        for path in top.rglob("*"):
            if path.is_file():
                newest = max(newest, path.stat().st_mtime)
    return newest


def build():
    """Builds adc_benchmark unless an up-to-date binary exists."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}: run from a full checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    binary = out / "adc_benchmark"
    stamp = out / "adc_benchmark.checked"  # written after a build and selftest pass
    with open(out / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if binary.is_file() and stamp.is_file() and stamp.stat().st_mtime >= newest_source():
            return binary
        steps = [
            ["cmake", "-S", str(BENCH), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", str(out), "--target", "adc_benchmark", "-j", "3"],
            [str(binary), "--selftest"],
        ]
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail("failed: " + " ".join(cmd))
        stamp.touch()
    return binary


def run_once(binary, workload, seed, seconds, trace, capture=False):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        trace_dir = build_dir() / "trace"
        trace_dir.mkdir(exist_ok=True)
        cmd += ["--trace-dir", str(trace_dir)]
    try:
        # The build directory is the working directory: serve_mix puts its
        # daemon's Unix socket there.
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True, cwd=build_dir(),
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload} exited with {proc.returncode}")
    return proc.stdout


def bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load(path):
    """Result objects of a JSONL file, one per line that holds one."""
    rows = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line.startswith("{"):
            doc = json.loads(line)
            if "metrics" in doc:
                rows.append(doc)
    if not rows:
        fail(f"{path}: no results")
    return rows


def summarize(rows):
    values = {}
    for row in rows:
        for name, m in row["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    out = {}
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        out[name] = (med, q1, q3, (q3 - q1) / med if med else float("inf"))
    return out


def compare(paths):
    spec = bounds()
    runs = [load(p) for p in paths]
    sides = [summarize(rows) for rows in runs]
    for path, rows in zip(paths, runs):
        bad = sum(1 for r in rows if not r["correct"])
        print(f"{path}: {len(rows)} run(s), {bad} incorrect")
    flagged = 0
    for name in sides[0]:
        m = spec.get(name, {})
        bound = m.get("bound")
        for side, path in zip(sides, paths):
            med, q1, q3, spread = side[name]
            wide = bound is not None and spread > bound
            flagged += wide
            print(f"{name:32s} {path:24.24s} median {med:14.6g}  q1 {q1:14.6g}  "
                  f"q3 {q3:14.6g}  spread {spread:7.2%}{'  WIDER THAN BOUND' if wide else ''}")
        if len(sides) == 2 and bound is not None:
            a, b = sides[0][name][0], sides[1][name][0]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            over = worse > bound
            flagged += over
            print(f"{'':32s} change {worse:+.2%} worse (bound {bound:.0%})"
                  f"{'  REGRESSION' if over else ''}")
    return 1 if flagged else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--defects", action="store_true")
    p.add_argument("--repeat", type=int)
    p.add_argument("--out")
    p.add_argument("--compare", nargs="+")
    a = p.parse_args()

    if a.compare:
        if len(a.compare) > 2:
            fail("--compare takes one or two files")
        sys.exit(compare(a.compare))
    binary = build()
    if a.selftest:
        sys.exit(subprocess.run([str(binary), "--selftest"]).returncode)
    if a.defects:
        sys.exit(subprocess.run([str(binary), "--defects"]).returncode)
    if not a.workload or a.seconds is None:
        fail("--workload and --seconds are required")
    if a.repeat:
        if not a.out:
            fail("--repeat needs --out FILE.jsonl")
        with open(a.out, "a") as out:
            for i in range(a.repeat):
                text = run_once(binary, a.workload, a.seed + i, a.seconds, a.trace, True)
                out.write(text.strip().splitlines()[-1] + "\n")
                out.flush()
        sys.exit(compare([a.out]))
    run_once(binary, a.workload, a.seed, a.seconds, a.trace)


if __name__ == "__main__":
    main()
