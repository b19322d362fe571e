"""End-to-end and per-layer benchmark of the mwrnoma sum-rate engine.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Each workload is a JSON config generated from ``--seed`` and run as cold
``mwrnoma run`` processes, one after another, until ``--seconds`` have
passed (a process is not started when it would end more than half its
typical wall time after that).  Each process is ``child.py``, which calls ``mwrnoma.cli.main`` with
the same arguments and exit code as ``python -m mwrnoma.cli run`` and marks
when the spec is loaded, so that set-up and run time come from the process
whose wall time is measured.  The program is imported from ``src/`` of the
checkout; the child environment pins ``MWRNOMA_WORKERS`` and
``MWRNOMA_BACKEND`` so the host environment cannot change the load.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as
medians over the processes of the run.  ``--trace 1`` reports the per-layer
metrics: import times from ``python -X importtime``, and spans recorded by
``child.py`` around each layer's public functions, alternating traced and
untraced processes so that the tracing overhead is measured too.

Every process's CSV is checked (exit code, header, row count, finite
numbers, workload invariants).  All CSVs of one invocation must have one
digest: the repeats, a plain ``python -m mwrnoma.cli run`` in trace runs,
and a workers=2 run of ``mc_point_m8``.  A failed check counts in
``failed`` and makes the command exit 1.  ``--smoke`` shrinks every
workload to a tiny size for the benchmark's own tests.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
provenance, the CSV digest and every metric with its unit.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = Path(__file__).resolve().parent / ".work"
MISSING = "missing"
CHILD_TIMEOUT_S = 150.0
IMPORTTIME_REPEATS = 3

SNR_HEADER = ["snr_db", "scheme", "condition", "asr_analytical", "asr_mc", "mc_stderr"]
PLACEMENT_HEADER = ["x_m", "y_m", "asr"]
TEXT_COLUMNS = {"scheme", "condition"}
# Units of the metrics printed beside the BENCHMARK.json ones.  They are not
# declared there because a declared end-to-end metric must exist and be
# non-zero on every workload: closed_form_grid has no Monte Carlo trials, and
# failed_frac is 0 on a correct run (the result's attempted/failed carry it).
EXTRA_UNITS = {"failed_frac": "ratio", "mc_trials_per_s": "1/s"}


class CheckFailed(Exception):
    """A run's output broke the CSV contract or a workload invariant."""


@dataclass(frozen=True)
class Output:
    path: Path
    header: list[str]
    rows: int


@dataclass(frozen=True)
class Job:
    """One generated workload input: CLI arguments and what it must write."""

    cli_args: list[str]
    outputs: list[Output]
    mc_trials: int  # Monte Carlo trial evaluations per run; 0 when none
    check: Callable[[list[list[dict]]], None]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    workers: int
    build: Callable[[random.Random, Path, bool], Job]
    check_workers: int = 0  # if set, also run once at this many workers; CSV bytes must agree


def _write_config(path: Path, config: dict) -> str:
    path.write_text(json.dumps(config, indent=1))
    return str(path)


def _num(row: dict, key: str) -> float:
    return float(row[key])


def _check_snr(tables):
    curves: dict = {}
    for row in tables[0]:
        if not _num(row, "mc_stderr") > 0 or not _num(row, "asr_mc") > 0:
            raise CheckFailed(f"Monte Carlo estimate not positive: {row}")
        curves.setdefault((row["scheme"], row["condition"]), []).append(
            (_num(row, "snr_db"), _num(row, "asr_analytical"))
        )
    for key, curve in curves.items():
        values = [asr for _, asr in sorted(curve)]
        if any(b < a for a, b in zip(values, values[1:])):
            raise CheckFailed(f"closed-form sum rate decreases with SNR for {key}")


def _check_grid(tables):
    noma, oma = tables
    for a, b in zip(noma, oma):
        if (a["x_m"], a["y_m"]) != (b["x_m"], b["y_m"]):
            raise CheckFailed("scheme surfaces cover different relay positions")
        if not 0 < _num(b, "asr") <= _num(a, "asr"):
            raise CheckFailed(f"orthogonal rate not in (0, superposed] at {a['x_m']},{a['y_m']}")


def _build_mc_snr_sweep(rng, out, smoke):
    csv_path = out / "mc_snr_sweep.csv"
    config = _write_config(out / "config.json", {"experiment": {"output": str(csv_path)}})
    args = ["--preset", "fig2b", "--config", config, "--seed", str(rng.getrandbits(63))]
    trials = 100_000
    if smoke:
        trials = 2_000
        args += ["--trials", str(trials)]
    return Job(args, [Output(csv_path, SNR_HEADER, 36)], 36 * trials, _check_snr)


def _build_mc_point_m8(rng, out, smoke):
    csv_path = out / "mc_point_m8.csv"
    trials = 20_000 if smoke else 1_000_000
    config = {
        "network": {"n_users": 8, "a": [0.35, 0.22, 0.15, 0.1, 0.07, 0.05, 0.04, 0.02]},
        "fading": {"alpha": 2, "beta": 3.0, "nu": 3.0, "distances": [1.0] * 8},
        "impairments": {"kappa_ut": 0.1, "kappa_ur": 0.1, "kappa_rt": 0.1, "kappa_rr": 0.1},
        "trials": {"trials": trials, "workers": 1},
        "experiment": {
            "kind": "snr-sweep",
            "snr_db": [20.0],
            "schemes": ["noma"],
            "engine": "mc",
            "output": str(csv_path),
        },
    }
    args = ["--config", _write_config(out / "config.json", config)]
    args += ["--seed", str(rng.getrandbits(63))]
    return Job(args, [Output(csv_path, SNR_HEADER, 1)], trials, _check_snr)


def _build_closed_form_grid(rng, out, smoke):
    csv_path = out / "closed_form_grid.csv"
    step = 5.0 if smoke else 0.5
    side = int(40 / step) + 1
    # users jittered around the preset's square; the work does not depend on them
    users = [
        [round(5 * sx + rng.uniform(-1, 1), 3), round(5 * sy + rng.uniform(-1, 1), 3)]
        for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1))
    ]
    config = {
        "geometry": {"users": users},
        "experiment": {"grid": {"step": step}, "output": str(csv_path)},
    }
    args = ["--preset", "fig4b", "--config", _write_config(out / "config.json", config)]
    oma_path = csv_path.with_name(csv_path.stem + "_oma.csv")
    outputs = [Output(p, PLACEMENT_HEADER, side * side) for p in (csv_path, oma_path)]
    return Job(args, outputs, 0, _check_grid)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc_snr_sweep",
            "fig2b as shipped: 36 Monte Carlo points redraw the same sorted gains, "
            "sampling dominates; a sample-once engine must gain here",
            1,
            _build_mc_snr_sweep,
        ),
        Workload(
            "mc_point_m8",
            "one M=8 point, 1M trials on one thread: 28 pairs per trial give the kernel "
            "twice its fig2b share of run time, and nothing is shared between points, "
            "so sample-once must not gain",
            1,
            _build_mc_point_m8,
            check_workers=2,
        ),
        Workload(
            "closed_form_grid",
            "fig4b at 0.5 m: 13,122 closed-form sum rates, per-point Python and CSV "
            "cost; no Monte Carlo and the import is a third of the wall time",
            1,
            _build_closed_form_grid,
        ),
    )
}


def read_outputs(job: Job) -> str:
    """Parse and check every CSV of a run; return their digest."""
    digest = hashlib.sha256()
    tables = []
    for out in job.outputs:
        try:
            data = out.path.read_bytes()
        except OSError as exc:
            raise CheckFailed(f"cannot read {out.path.name}: {exc}") from exc
        digest.update(out.path.name.encode() + b"\0" + data + b"\0")
        reader = csv.DictReader(data.decode().splitlines())
        if reader.fieldnames != out.header:
            raise CheckFailed(f"{out.path.name}: header {reader.fieldnames} != {out.header}")
        rows = list(reader)
        if len(rows) != out.rows:
            raise CheckFailed(f"{out.path.name}: {len(rows)} rows, expected {out.rows}")
        for row in rows:
            for key in out.header:
                value = row[key]
                if key in TEXT_COLUMNS:
                    if not value:
                        raise CheckFailed(f"{out.path.name}: empty {key}")
                    continue
                try:
                    number = float(value)
                except (TypeError, ValueError):
                    raise CheckFailed(f"{out.path.name}: {key}={value!r} is not a number")
                if not math.isfinite(number):
                    raise CheckFailed(f"{out.path.name}: {key}={value} is not finite")
        tables.append(rows)
    job.check(tables)
    return digest.hexdigest()


def child_env(workers: int) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MWRNOMA_", "PYTHON"))}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        MWRNOMA_WORKERS=str(workers),
        MWRNOMA_BACKEND="python",
    )
    return env


@dataclass
class Spawned:
    rc: int
    start: float  # CLOCK_MONOTONIC at spawn
    wall_s: float
    peak_rss_mb: float


def spawn(cmd: list[str], env: dict, log_path: Path) -> Spawned:
    """Run one process to completion; stderr goes to log_path."""
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(proc.returncode, start, end - start, usage.ru_maxrss / 1024.0)


@dataclass
class Tally:
    """Runs attempted and failed, and the distinct CSV digests seen."""

    attempted: int = 0
    failed: int = 0
    digests: set = field(default_factory=set)
    errors: list = field(default_factory=list)

    def record(self, job: Job, proc: Spawned, log_path: Path) -> bool:
        """Count one run and check its output; False if it failed."""
        self.attempted += 1
        try:
            if proc.rc != 0:
                tail = log_path.read_text(errors="replace")[-500:]
                raise CheckFailed(f"exit {proc.rc}: {tail}")
            digest = read_outputs(job)
        except CheckFailed as exc:
            self.failed += 1
            self.errors.append(str(exc))
            return False
        self.digests.add(digest)
        return True


def run_cli(job: Job, env: dict, tally: Tally, work: Path, trace: bool = False, plain=False):
    """One cold CLI process.  Returns (Spawned, child report) or None on failure."""
    for out in job.outputs:
        out.path.unlink(missing_ok=True)
    report_path = work / "report.json"
    report_path.unlink(missing_ok=True)
    if plain:
        cmd = [sys.executable, "-m", "mwrnoma.cli", "run", *job.cli_args]
    else:
        cmd = [sys.executable, str(CHILD), str(report_path)]
        cmd += ["--trace"] if trace else []
        cmd += ["--", "run", *job.cli_args]
    proc = spawn(cmd, env, work / "stderr.log")
    if not tally.record(job, proc, work / "stderr.log"):
        return None
    if plain:
        return proc, None
    try:
        report = json.loads(report_path.read_text())
        report["setup_s"] = report["marks"]["setup_end"] - proc.start
        report["run_s"] = report["marks"]["main_end"] - report["marks"]["setup_end"]
    except (OSError, ValueError, KeyError) as exc:
        tally.failed += 1
        tally.errors.append(f"child report unusable: {exc}")
        return None
    return proc, report


def _import_tree_times(text: str) -> dict[str, float]:
    """Cumulative import seconds of numpy, scipy and mwrnoma from -X importtime.

    Entries are listed children first.  An entry counts for mwrnoma when no
    enclosing entry is mwrnoma's, and for numpy or scipy when no enclosing
    entry is numpy's or scipy's: numpy modules that scipy pulls in are part
    of the scipy import.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _self_us, cumulative_us, name = line.split(":", 1)[1].split("|")
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip(), int(cumulative_us)))
    enclosing = {"numpy": {"numpy", "scipy"}, "scipy": {"numpy", "scipy"}, "mwrnoma": {"mwrnoma"}}
    totals = dict.fromkeys(enclosing, 0.0)
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        package = name.split(".")[0]
        if package in totals and not any(p in enclosing[package] for _, p in stack):
            totals[package] += cumulative_us / 1e6
        stack.append((depth, package))
    return totals


def _git_rev() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _median(values):
    if any(v == MISSING for v in values):
        return MISSING
    if all(v == values[0] for v in values):
        return values[0]
    return statistics.median(values)


def _time_left(deadline: float, walls: list[float]) -> bool:
    """Whether another process, of the median wall time so far, would end
    less than half its length after the deadline."""
    return time.monotonic() + statistics.median(walls) / 2 < deadline


def measure_end_to_end(wl: Workload, job: Job, deadline: float, tally: Tally, work: Path):
    env = child_env(wl.workers)
    samples = []
    while not samples or _time_left(deadline, [p.wall_s for p, _ in samples]):
        result = run_cli(job, env, tally, work)
        if result is None and not samples and tally.failed >= 3:
            break
        if result is not None:
            samples.append(result)
    if not samples:
        return {}, {}
    metrics = {
        "wall_s": _median([p.wall_s for p, _ in samples]),
        "setup_s": _median([r["setup_s"] for _, r in samples]),
        "run_s": _median([r["run_s"] for _, r in samples]),
        "peak_rss_mb": _median([p.peak_rss_mb for p, _ in samples]),
    }
    if job.mc_trials:
        metrics["mc_trials_per_s"] = _median([job.mc_trials / r["run_s"] for _, r in samples])
    info = {
        "samples": len(samples),
        "per_sample": {
            "wall_s": [round(p.wall_s, 4) for p, _ in samples],
            "setup_s": [round(r["setup_s"], 4) for _, r in samples],
            "run_s": [round(r["run_s"], 4) for _, r in samples],
        },
        **samples[0][1]["versions"],
    }
    return metrics, info


def measure_layers(wl: Workload, job: Job, deadline: float, tally: Tally, work: Path):
    env = child_env(wl.workers)
    imports = []
    for _ in range(IMPORTTIME_REPEATS):
        log = work / "importtime.log"
        proc = spawn([sys.executable, "-X", "importtime", "-c", "import mwrnoma.cli"], env, log)
        tally.attempted += 1
        if proc.rc != 0:
            tally.failed += 1
            tally.errors.append(f"import of mwrnoma.cli failed: exit {proc.rc}")
            continue
        imports.append(_import_tree_times(log.read_text()))
    run_cli(job, env, tally, work, plain=True)
    untraced, traced = [], []
    while not (untraced and traced) or _time_left(deadline, [p.wall_s for p, _ in traced]):
        if tally.failed >= 3 and not (untraced and traced):
            break
        side = traced if len(traced) < len(untraced) else untraced
        result = run_cli(job, env, tally, work, trace=side is traced)
        if result is not None:
            side.append(result)
    if not (untraced and traced and imports):
        return {}, {}
    layers = [r["layers"] for _, r in traced]
    metrics = {name: _median([m[name] for m in layers]) for name in layers[0]}
    for package in ("scipy", "numpy", "mwrnoma"):
        metrics[f"setup.{package}_import_s"] = _median([t[package] for t in imports])
    metrics["setup.scipy_imported"] = _median([r["scipy_imported"] for _, r in traced])
    metrics["cli.csv_rows"] = sum(out.rows for out in job.outputs)
    metrics["cli.csv_bytes"] = sum(out.path.stat().st_size for out in job.outputs)
    traced_run = _median([r["run_s"] for _, r in traced])
    metrics["trace.overhead_frac"] = traced_run / _median([r["run_s"] for _, r in untraced]) - 1
    info = {
        "samples": len(traced),
        "missing_hooks": traced[0][1]["missing"],
        **traced[0][1]["versions"],
    }
    return metrics, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.seconds

    if not (ROOT / "src" / "mwrnoma" / "cli.py").is_file():
        print(f"error: no mwrnoma source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    load_start = os.getloadavg()
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    job = wl.build(random.Random(f"{wl.name}:{args.seed}"), work, args.smoke)

    # compile the package and warm the page cache, which users do not pay per run
    warm = spawn([sys.executable, "-c", "import mwrnoma.cli"], child_env(1), work / "warm.log")
    if warm.rc != 0:
        print((work / "warm.log").read_text(errors="replace"), file=sys.stderr)
        print("error: mwrnoma.cli does not import", file=sys.stderr)
        return 2

    tally = Tally()
    if wl.check_workers:
        # the digest of a run at another worker count joins the digests that must all agree
        run_cli(job, child_env(wl.check_workers), tally, work)
    measure = measure_layers if args.trace else measure_end_to_end
    metrics, info = measure(wl, job, deadline, tally, work)
    if len(tally.digests) > 1:
        tally.failed += 1
        tally.errors.append(
            f"{len(tally.digests)} distinct CSV digests for one seed "
            "(across repeats, the plain CLI run and, where checked, another worker count)"
        )
    section = declared["per_layer" if args.trace else "end_to_end"]
    absent = [m["name"] for m in section if m["name"] not in metrics]
    if absent:
        tally.errors.append("no value for " + ", ".join(absent))
    correct = tally.failed == 0 and not absent
    if not args.trace:
        metrics["failed_frac"] = tally.failed / max(tally.attempted, 1)

    per_sample = info.pop("per_sample", None)
    provenance = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        **info,
        "git_rev": _git_rev(),
        "loadavg_start": load_start,
    }
    print("provenance " + json.dumps(provenance))
    print("csv_sha256 " + ",".join(sorted(tally.digests)))
    if per_sample:
        print("per_sample " + json.dumps(per_sample))
    for error in tally.errors:
        print("check failed: " + error)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    units.update(EXTRA_UNITS)
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")

    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in section
            if m["name"] not in absent
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
