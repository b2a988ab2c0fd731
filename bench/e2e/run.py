#!/usr/bin/env python3
"""Build bench_e2e from source, then run it.

Run from the repository root:

  python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 bench/e2e/run.py --repeat 10 [--seconds 10] [--workload <name> ...]
  python3 bench/e2e/run.py --smoke | --self-test | --calibrate --workload <name>

The build goes to $CARGO_TARGET_DIR/e2e (default .bench_build/e2e) and
its log to stderr, so the last line of stdout is bench_e2e's JSON result.

--repeat N runs every workload N times, alternating the workload order,
with seeds 1..N, and prints for each end-to-end metric the median, the
quartiles and IQR/median against the bound in BENCHMARK.json, plus how
far the median of the second half of the runs moved from the first. The
values themselves go to <build>/repeat.json.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["longctx-prefill", "decode-stream", "pattern-serve", "ring-prefill"]


def build():
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "e2e")
    if not os.path.exists(os.path.join(out, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", "4", "--target", "bench_e2e"],
                   stdout=sys.stderr, check=True)
    return out


def revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], env=env, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(binary, out, args):
    cmd = [binary, "--rev", revision(), "--trace-dir", os.path.join(out, "trace")] + args
    return subprocess.run(cmd).returncode


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def repeat(binary, out, rounds, seconds, workloads):
    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values = {w: {} for w in workloads}
    for i in range(rounds):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            cmd = [binary, "--rev", revision(), "--workload", w, "--seed", str(i + 1),
                   "--seconds", str(seconds), "--trace", "0"]
            res = subprocess.run(cmd, text=True, capture_output=True)
            if res.returncode != 0:
                sys.stdout.write(res.stdout)
                sys.exit(f"run {i + 1} of {w} failed")
            result = json.loads(res.stdout.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"round {i + 1}/{rounds} {w} done", file=sys.stderr)
    with open(os.path.join(out, "repeat.json"), "w") as f:
        json.dump(values, f, indent=1)
    worst = True
    print(f"{'workload':16} {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'bound':>6} {'drift':>8}")
    for w in workloads:
        for name, vals in values[w].items():
            med, q1, q3 = spread(vals)
            iqr = (q3 - q1) / med if med else float("inf")
            half = len(vals) // 2
            drift = (statistics.median(vals[half:]) / statistics.median(vals[:half]) - 1
                     if half >= 2 else 0.0)
            bound = bounds.get(name, 0.0)
            flag = "" if iqr < bound / 3 else "  <-- spread"
            if abs(drift) > bound:
                flag += "  <-- drift"
            worst = worst and not flag
            print(f"{w:16} {name:16} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{iqr:8.4f} {bound:6.3f} {drift:+8.4f}{flag}")
    return 0 if worst else 1


def main(argv):
    try:
        out = build()
    except subprocess.CalledProcessError:
        return "bench_e2e: build failed (see the log above)"
    binary = os.path.join(out, "bench_e2e")
    if "--repeat" in argv:
        i = argv.index("--repeat")
        rounds = int(argv[i + 1])
        seconds = argv[argv.index("--seconds") + 1] if "--seconds" in argv else "10"
        chosen = [argv[j + 1] for j, a in enumerate(argv) if a == "--workload"] or WORKLOADS
        return repeat(binary, out, rounds, seconds, chosen)
    return run_once(binary, out, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
