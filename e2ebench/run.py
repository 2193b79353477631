#!/usr/bin/env python3
"""End-to-end benchmark of reasched (stdlib only).

One run of one workload, the form a harness calls; the last line of
standard output is the result as one JSON object:

    python3 e2ebench/run.py --workload rjms_easy --seed 7 --seconds 10 --trace 0

The whole benchmark: every workload in rotated order for --rounds rounds
(round r uses seed --seed + r), then one traced run per workload. Prints
each metric as `workload/name value unit` with its quartiles and exits
non-zero if any correctness check fails:

    python3 e2ebench/run.py [--rounds 3] [--seconds 10]
    python3 e2ebench/run.py --repeat-check   # the whole benchmark twice, medians compared
    python3 e2ebench/run.py --smoke          # tiny inputs: every metric emitted, checks pass

The program is built from source first (CMake, into $CARGO_TARGET_DIR or
.bench_build at the repository root).
"""

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configure once, then build reasched_bench and the daemon. Returns their paths."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # The compiler's temporary files stay inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", build_dir, "-j", "4",
                  "--target", "reasched_bench", "reasched_service"]]
        if not os.path.exists(os.path.join(build_dir, "Makefile")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
                raise BenchError("build failed: " + " ".join(cmd))
    return (build_dir, os.path.join(build_dir, "reasched_bench"),
            os.path.join(build_dir, "reasched", "apps", "reasched_service"))


class Bench:
    def __init__(self, smoke):
        self.spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        expected = load_json(os.path.join(HERE, "expected_digests.json"))
        self.default_seed = expected["seed"]
        self.digests = expected["digests"]
        self.smoke = smoke
        self.build_dir, self.program, self.daemon = build()

    def workloads(self):
        return [w["name"] for w in self.spec["workloads"]]

    def run(self, workload, seed, seconds, trace):
        """One reasched_bench process; returns the result object."""
        cmd = [self.program, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
        if trace:
            cmd += ["--trace", "--daemon", self.daemon, "--workdir", self.build_dir]
        if self.smoke:
            cmd.append("--smoke")
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload}: reasched_bench exceeded {RUN_TIMEOUT_S} s")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{workload}: reasched_bench failed (exit {proc.returncode})")
        try:
            raw = json.loads(lines[-1])
        except json.JSONDecodeError:
            raise BenchError(f"{workload}: reasched_bench printed no result")

        checks = dict(raw["checks"])
        if seed == self.default_seed and not self.smoke:
            checks["expected_digest"] = raw["digest"] == self.digests[workload]
        failed_checks = sorted(name for name, ok in checks.items() if not ok)
        for name in failed_checks:
            print(f"{workload} seed {seed}: check failed: {name}", file=sys.stderr)

        metrics = {}
        for m in self.spec["per_layer" if trace else "end_to_end"]:
            value = raw["metrics"].get(m["name"])
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise BenchError(f"{workload}: metric {m['name']} missing or not finite")
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        return {"correct": not failed_checks and raw["failed"] == 0,
                "attempted": raw["attempted"] + len(checks),
                "failed": raw["failed"] + len(failed_checks),
                "metrics": metrics}

    def rounds(self, rounds, seed, seconds):
        """E2E runs of every workload, rotated each round. Returns
        ({(workload, metric): [values]}, all_correct)."""
        names = self.workloads()
        values, correct = {}, True
        for r in range(rounds):
            for workload in names[r % len(names):] + names[:r % len(names)]:
                res = self.run(workload, seed + r, seconds, trace=False)
                correct = correct and res["correct"]
                for name, m in res["metrics"].items():
                    values.setdefault((workload, name), []).append(m["value"])
        return values, correct


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def print_rounds(spec, values):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for (workload, name), vs in sorted(values.items()):
        q1, med, q3 = quartiles(vs)
        print(f"{workload}/{name} {med:.6g} {units[name]}  "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(vs)})")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--repeat-check", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    try:
        bench = Bench(args.smoke)
        seed = bench.default_seed if args.seed is None else args.seed
        seconds = args.seconds
        if seconds is None:
            seconds = 0 if args.smoke else bench.spec["run_seconds"]

        if args.workload:
            if args.workload not in bench.workloads():
                raise BenchError(f"unknown workload {args.workload}")
            res = bench.run(args.workload, seed, seconds, trace=args.trace == 1)
            print(json.dumps(res))
            return 0 if res["correct"] else 1

        rounds = 1 if args.smoke else args.rounds
        values, correct = bench.rounds(rounds, seed, seconds)
        print_rounds(bench.spec, values)
        if args.repeat_check:
            again, correct2 = bench.rounds(rounds, seed, seconds)
            correct = correct and correct2
            bounds = {m["name"]: m["bound"] for m in bench.spec["end_to_end"]}
            print("\nrepeat check: median of set 1, median of set 2, change, bound")
            agree = True
            for key in sorted(values):
                m1, m2 = statistics.median(values[key]), statistics.median(again[key])
                change = (m2 - m1) / m1
                ok = abs(change) <= bounds[key[1]]
                agree = agree and ok
                print(f"{key[0]}/{key[1]} {m1:.6g} {m2:.6g} {100 * change:+.2f}% "
                      f"{100 * bounds[key[1]]:.0f}% {'agree' if ok else 'DISAGREE'}")
            correct = correct and agree

        print("\nper-layer split (one traced run per workload):")
        for workload in bench.workloads():
            res = bench.run(workload, seed, seconds, trace=True)
            correct = correct and res["correct"]
            for name, m in res["metrics"].items():
                print(f"{workload}/{name} {m['value']:.6g} {m['unit']}")
        print("all checks passed" if correct else "FAILED")
        return 0 if correct else 1
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
