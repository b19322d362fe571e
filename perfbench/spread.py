"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py [--workloads A,B] [--seeds 1-10] [--trace 0|1]
                                [--seconds S] [--append trajectory.json --label NAME]

For every workload and metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(q3 - q1) / median beside the metric's bound from ``BENCHMARK.json``; a
spread above a third of the bound is flagged.  The runs are made one after
another.  ``--append`` adds the summary, with the provenance of the first
run, as one entry to a trajectory file such as ``perfbench/trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    provenance = next(
        (json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("provenance ")), {}
    )
    return {"seed": seed, "rc": proc.returncode, "provenance": provenance, **result}


def main(argv: list[str] | None = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in declared["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--append", type=Path, default=None, help="trajectory file to extend")
    parser.add_argument("--label", default="", help="name of the trajectory entry")
    args = parser.parse_args(argv)

    section = declared["per_layer" if args.trace else "end_to_end"]
    seeds = _seeds(args.seeds)
    entry = {"label": args.label, "trace": args.trace, "seconds": args.seconds,
             "seeds": seeds, "provenance": None, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in seeds]
        for r in runs:
            ok &= r["rc"] == 0 and r.get("correct", False)
            print(f"{workload} seed={r['seed']} rc={r['rc']} samples="
                  f"{r['provenance'].get('samples')} attempted={r.get('attempted')} "
                  f"failed={r.get('failed')}", file=sys.stderr)
        entry["provenance"] = entry["provenance"] or runs[0]["provenance"]
        summary = {}
        for metric in section:
            name, bound = metric["name"], metric.get("bound")
            values = [r["metrics"][name]["value"] for r in runs if name in r.get("metrics", {})]
            numeric = [v for v in values if isinstance(v, (int, float))]
            if len(numeric) < 2:
                summary[name] = {"values": values}
                continue
            s = summary[name] = summarize(numeric)
            flag = "  <-- spread above bound/3" if bound and s["spread"] > bound / 3 else ""
            print(f"{workload:17s} {name:38s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.3f}"
                  + (f" bound {bound}" if bound else "") + flag)
        entry["workloads"][workload] = {
            "attempted": sum(r.get("attempted", 0) for r in runs),
            "failed": sum(r.get("failed", 0) for r in runs),
            "metrics": summary,
        }
    if args.append is not None:
        trajectory = json.loads(args.append.read_text()) if args.append.exists() else []
        args.append.write_text(json.dumps(trajectory + [entry], indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
