#!/usr/bin/env python3
"""Measure the benchmark's baseline on this machine and write baseline.json.

    python3 bench/baseline.py [--out bench/baseline.json]

For each workload in BENCHMARK.json, each of SETS sets runs
`run.py --trace 0` once per seed 1..RUNS_PER_SET, one process at a time.
Per end-to-end metric it reports the median of the runs and their spread:
the distance between the first and third quartile as a share of the median.
It flags a spread above the metric's bound and a later set's median that is
worse than the first set's by more than the bound. One `--trace 1` run per
workload then records the per-layer metrics. The file keeps every value,
the output digest of each seed and the environment of every run.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 900
RUNS_PER_SET = 10
SETS = 2
# raw host seconds printed beside the scaled wall_s and setup_s
RAW = ("raw_wall_s", "raw_setup_s")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; returns its result line plus digest, env and the
    raw host seconds behind the scaled times."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if out.returncode != 0:
        raise SystemExit(f"run.py {workload} seed {seed} trace {trace} "
                         f"exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    result["raw"] = {}
    for line in lines:
        key, _, value = line.partition(" ")
        if key == "output_sha256":
            result["output_sha256"] = value
        elif key == "env":
            result["env"] = json.loads(value)
        elif key in RAW:
            result["raw"][key] = float(value.split()[0])
    return result


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(metric: dict, first: float, later: float) -> float:
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=str(BENCH / "baseline.json"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sys.path.insert(0, str(BENCH))
    from run import moves

    report = {"run_seconds": seconds, "runs_per_set": RUNS_PER_SET,
              "workloads": {}, "problems": [],
              "per_layer_moves": {m["name"]: moves(m["name"])
                                  for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        entry = report["workloads"][workload] = {
            "sets": [], "output_sha256": {}, "env": []}
        for set_index in range(SETS):
            results = []
            for seed in range(1, RUNS_PER_SET + 1):
                result = run(workload, seed, seconds, 0)
                print(f"{workload} set {set_index} seed {seed}: "
                      f"{json.dumps(result['metrics'])}", flush=True)
                if not result["correct"]:
                    report["problems"].append(
                        f"{workload} seed {seed}: incorrect result")
                digests = entry["output_sha256"]
                if digests.setdefault(str(seed), result["output_sha256"]) \
                        != result["output_sha256"]:
                    report["problems"].append(
                        f"{workload} seed {seed}: outputs differ between sets")
                entry["env"].append(result["env"])
                results.append(result)
            summary = {}
            for metric in spec["end_to_end"]:
                name = metric["name"]
                values = [r["metrics"][name]["value"] for r in results]
                summary[name] = {"median": statistics.median(values),
                                 "spread": spread(values), "values": values}
                if summary[name]["spread"] > metric["bound"]:
                    report["problems"].append(
                        f"{workload} {name}: spread {summary[name]['spread']:.3f}"
                        f" above bound {metric['bound']}")
                if entry["sets"]:
                    first = entry["sets"][0]["end_to_end"][name]["median"]
                    worse = worse_by(metric, first, summary[name]["median"])
                    if worse > metric["bound"]:
                        report["problems"].append(
                            f"{workload} {name}: set {set_index} median worse "
                            f"than set 0 by {worse:.3f}")
            raw = {}
            for name in RAW:
                values = [r["raw"][name] for r in results]
                raw[name] = {"median": statistics.median(values),
                             "spread": spread(values), "values": values}
            entry["sets"].append({
                "end_to_end": summary,
                "raw": raw,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results)})
        traced = run(workload, 1, seconds, 1)
        if not traced["correct"]:
            report["problems"].append(f"{workload}: incorrect traced run")
        entry["per_layer"] = {name: m["value"]
                              for name, m in traced["metrics"].items()}

    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for workload, entry in report["workloads"].items():
        for set_index, s in enumerate(entry["sets"]):
            print(f"{workload} set {set_index}: " + ", ".join(
                f"{name} {v['median']:.4g} (spread {v['spread']:.3f})"
                for name, v in {**s["end_to_end"], **s["raw"]}.items()))
    for problem in report["problems"]:
        print(f"problem: {problem}")
    return 1 if report["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
