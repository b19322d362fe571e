"""One cold `mwrnoma run` process, timed (and optionally traced) from inside.

Usage::

    python3 perfbench/child.py REPORT.json [--trace] -- run --config ... --seed ...

The arguments after ``--`` go to ``mwrnoma.cli.main`` unchanged, so the
process does what ``python -m mwrnoma.cli run ...`` does and exits with the
same code.  REPORT.json receives CLOCK_MONOTONIC marks (comparable with the
parent's clock), whether scipy was imported, library versions, and, with
``--trace``, per-layer metrics built from spans recorded around the public
functions named in ``HOOKS``.

The program itself is not changed: a hook rebinds the wrapped function in
every ``mwrnoma`` module namespace that binds the original object, so a call
made through any of those names is spanned exactly once.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import defaultdict

MISSING = "missing"


def _count_trials(counts, args, kwargs, result):
    tc = kwargs["tc"] if "tc" in kwargs else args[3]
    counts["montecarlo.trials"] += tc.trials


def _count_rows(counts, args, kwargs, result):
    rows, pairs = result.shape
    counts["kernels.rows"] += rows
    counts["kernels.pair_rates"] += rows * pairs


def _count_grid(counts, args, kwargs, result):
    counts["placement.grid_points"] += result.asr.size


# (span name, module, public attribute, counter): the layer boundaries that
# the traced run times.  A counter adds work counts at the same boundary.
HOOKS = (
    ("placement.sweep_grid", "mwrnoma.placement", "sweep_grid", _count_grid),
    ("channel.order_stat_moments", "mwrnoma.channel", "order_stat_moments", None),
    ("rate.asr", "mwrnoma.rate", "asr", None),
    ("baseline.asr_oma", "mwrnoma.baseline", "asr_oma", None),
    ("baseline.simulate_asr_oma", "mwrnoma.baseline", "simulate_asr_oma", None),
    ("montecarlo.simulate_asr", "mwrnoma.montecarlo", "simulate_asr", _count_trials),
    ("kernels.pair_rate_chunk", "mwrnoma._kernels", "pair_rate_chunk", _count_rows),
)


class Tracer:
    """In-memory spans: (name, start, end, thread, parent index, cpu seconds).

    A span opened on a thread with no open span of its own (a Monte Carlo
    worker) takes the innermost open span of the main thread as parent.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn, counter=None):
        def spanned(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            with self._lock:
                index = len(self.spans)
                self.spans.append(None)
            stack.append(index)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu1 = time.process_time()
                stack.pop()
                self.spans[index] = (
                    name, t0, t1, threading.get_ident(), parent, cpu1 - cpu0
                )
            if counter is not None:
                with self._lock:
                    counter(self.counts, args, kwargs, result)
            return result

        return spanned


def install_hooks(tracer: Tracer, hooks=HOOKS) -> set[str]:
    """Wrap each hooked function wherever ``mwrnoma`` binds it.

    Returns the span names whose module or attribute does not exist; their
    metrics are reported as missing, never as zero.
    """
    missing = set()
    for name, module_name, attr, counter in hooks:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.add(name)
            continue
        original = getattr(module, attr, None)
        if not callable(original):
            missing.add(name)
            continue
        spanned = tracer.wrap(name, original, counter)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mwrnoma" or mod_name.startswith("mwrnoma.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, spanned)
    return missing


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def span_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed wall, summed self time, summed cpu.

    Self time is a span's duration minus the part its child spans cover.
    """
    children = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append((span[1], span[2]))
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "wall": 0.0, "self": 0.0, "cpu": 0.0}
    )
    for index, (name, t0, t1, _thread, _parent, cpu) in enumerate(spans):
        entry = totals[name]
        entry["calls"] += 1
        entry["wall"] += t1 - t0
        entry["self"] += (t1 - t0) - _covered(children.get(index, ()), t0, t1)
        entry["cpu"] += cpu
    return totals


def layer_metrics(spans, counts, missing: set[str], run_s: float) -> dict:
    """Per-layer metrics of one traced run; a value is MISSING when any hook
    it depends on is missing."""
    totals = span_totals(spans)

    def get(name, field):
        return totals[name][field] if name in totals else 0

    def value(needs, compute):
        return MISSING if any(n in missing for n in needs) else compute()

    mc, kernel = "montecarlo.simulate_asr", "kernels.pair_rate_chunk"
    oma = ("baseline.asr_oma", "baseline.simulate_asr_oma")
    out = {
        "cli.self_s": get("cli.main", "self"),
        f"{mc}.calls": value([mc], lambda: get(mc, "calls")),
        f"{mc}.self_s": value([mc], lambda: get(mc, "self")),
        f"{mc}.cpu_per_wall": value(
            [mc], lambda: get(mc, "cpu") / get(mc, "wall") if get(mc, "wall") else 0.0
        ),
        "montecarlo.trials": value([mc], lambda: counts.get("montecarlo.trials", 0)),
        f"{kernel}.calls": value([kernel], lambda: get(kernel, "calls")),
        f"{kernel}.self_s": value([kernel], lambda: get(kernel, "self")),
        "kernels.rows": value([kernel], lambda: counts.get("kernels.rows", 0)),
        "kernels.ns_per_pair_rate": value(
            [kernel],
            lambda: 1e9 * get(kernel, "self") / counts.get("kernels.pair_rates", 0)
            if counts.get("kernels.pair_rates", 0)
            else 0.0,
        ),
        "kernels.run_share": value([kernel], lambda: get(kernel, "self") / run_s),
        "baseline.calls": value(oma, lambda: sum(get(n, "calls") for n in oma)),
        "baseline.self_s": value(oma, lambda: sum(get(n, "self") for n in oma)),
        "placement.sweep_grid.self_s": value(
            ["placement.sweep_grid"], lambda: get("placement.sweep_grid", "self")
        ),
        "placement.grid_points": value(
            ["placement.sweep_grid"], lambda: counts.get("placement.grid_points", 0)
        ),
    }
    for name in ("channel.order_stat_moments", "rate.asr"):
        out[f"{name}.calls"] = value([name], lambda n=name: get(n, "calls"))
        out[f"{name}.self_s"] = value([name], lambda n=name: get(n, "self"))
    return out


def _versions() -> dict[str, str]:
    from importlib import metadata

    import numpy

    import mwrnoma

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = MISSING
    backend = getattr(mwrnoma, "backend_name", None)
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "backend": backend() if callable(backend) else MISSING,
    }


def main(argv: list[str]) -> int:
    split = argv.index("--")
    report_path, flags, cli_argv = argv[0], argv[1:split], argv[split + 1 :]
    trace = "--trace" in flags

    import mwrnoma.cli as cli

    marks: dict = {}
    load_spec = cli.load_spec

    def marked_load_spec(*args, **kwargs):
        spec = load_spec(*args, **kwargs)
        marks.setdefault("setup_end", time.monotonic())
        return spec

    cli.load_spec = marked_load_spec
    tracer = Tracer() if trace else None
    missing = install_hooks(tracer) if trace else set()
    cli_main = tracer.wrap("cli.main", cli.main) if trace else cli.main

    rc = cli_main(cli_argv)
    marks["main_end"] = time.monotonic()
    report = {
        "rc": rc,
        "marks": marks,
        "scipy_imported": int("scipy" in sys.modules),
        "versions": _versions(),
    }
    if trace and "setup_end" in marks:
        run_s = marks["main_end"] - marks["setup_end"]
        report["layers"] = layer_metrics(tracer.spans, tracer.counts, missing, run_s)
        report["missing"] = sorted(missing)
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
