#!/usr/bin/env python3
"""FVN benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload churn|converge|verify \
        --seed N --seconds S --trace 0|1

Run from the root of an FVN source tree.  Builds the workload binary
(perfbench/fvnbench.exe) with dune, then runs the workload in a fresh
process, single-threaded.

--trace 0 prints every end-to-end metric of BENCHMARK.json.  --trace 1
runs the workload untraced and then again traced, in a second process,
with the same seed and op count, and prints every per-layer metric,
including the tracing overhead (the traced run's throughput against the
untraced one's).  Spans of the traced run go to .perfbench/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when
every op and every output check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "fvnbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def check_sources():
    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(f"{need} not found under {ROOT}: run from an FVN source tree")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/fvnbench.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if r.returncode != 0:
        die(f"dune build failed with exit code {r.returncode}")


def run_workload(workload, seed, seconds, ops=None, spans=None):
    cmd = [EXE, workload, "--seed", str(seed), "--seconds", str(seconds)]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    if spans is not None:
        cmd += ["--trace", "--spans", spans]
    r = subprocess.run(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=sys.stderr,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        die(f"{' '.join(cmd[1:])} exited with code {r.returncode}")
    return json.loads(lines[-1])


def values(metrics):
    return {name: (m["value"], m["unit"]) for name, m in metrics.items()}


def main():
    check_sources()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()

    with open(os.path.join(HERE, "layers.json")) as f:
        layer_map = json.load(f)["map"]
    build()

    runs = [run_workload(a.workload, a.seed, a.seconds)]
    problems = []
    measured = {}
    if a.trace == 0:
        wanted = spec["end_to_end"]
        got = values(runs[0]["end_to_end"])
        measured = values(runs[0]["measured"])
    else:
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"spans-{a.workload}.tsv")
        runs.append(
            run_workload(a.workload, a.seed, a.seconds, ops=runs[0]["ops"], spans=spans)
        )
        untraced, traced = runs
        if traced["digest"] != untraced["digest"]:
            problems.append("traced run's output digest differs from the untraced run's")
        wanted = spec["per_layer"]
        m_unit = {m["name"]: m["unit"] for m in wanted}
        # GC and per-mode timings are read with tracing off.
        got = {**values(traced["layers"]), **values(untraced["layers"])}
        u = untraced["end_to_end"]["ops_per_s"]["value"]
        t = traced["end_to_end"]["ops_per_s"]["value"]
        got["trace.overhead_share"] = ((u - t) / u, "1")
        # A layer the workload never enters did no work on it.
        for row in layer_map:
            if a.workload not in row["workloads"]:
                for name in row["metrics"]:
                    got.setdefault(name, (0.0, m_unit[name]))

    missing = [m["name"] for m in wanted if m["name"] not in got]
    if missing:
        die("workload did not report: " + ", ".join(missing), 3)
    wrong = [m["name"] for m in wanted if got[m["name"]][1] != m["unit"]]
    if wrong:
        die("workload reported another unit for: " + ", ".join(wrong), 3)

    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        problems += r["check_failures"]
    correct = failed == 0 and not problems

    first = runs[0]
    print(
        f"{a.workload} seed {a.seed}: {first['ops']} ops in {first['window_s']:.3f} s "
        f"({first['ops']} latency samples), {first['checks']} output checks"
    )
    for r in runs:
        if r["traced"]:
            print(f"traced rerun: {r['ops']} ops, digest {r['digest']}")
    print(f"failed_share = {failed / attempted:.6g} (1)  [{failed} of {attempted} ops]")
    for p in problems:
        print(f"FAILED: {p}")
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        value = got[name][0]
        metrics[name] = {"value": value, "unit": unit}
        note = ""
        if name == "op_tail_ms":
            note += f"  [p{100 * first['tail']:g} of {first['ops']} samples]"
        if name in measured:
            note += f"  [as measured: {measured[name][0]:.6g}, before host-speed scaling]"
        print(f"{name} = {value:.6g} ({unit}){note}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
