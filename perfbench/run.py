"""slotshare benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload simulate_gain --seed 1 --seconds 40 --trace 0

Workloads: ``simulate_gain``, ``region_sweep``, ``scalar_audit`` (see
``perfbench/README.md``).  The script imports the package from ``src/`` of
the checkout it sits in and nothing else; without ``src/slotshare`` it exits
with status 2 and prints no result.

This process only orchestrates.  It starts fresh interpreters one after the
other: a few that time the set-up alone, then one worker that sets up and
runs the workload.  With ``--trace 0`` the worker repeats the untraced call
for about ``--seconds`` seconds (at least three times) and the result holds
the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
calls and the result holds the per-layer metrics.  Every output is checked.
The end-to-end times are scaled to a reference host speed measured by a
calibration kernel around each call (see ``_calibrate`` and the README).
The last line of standard output is one JSON object; a report with the
machine, per-repetition timings and any failed checks precedes it and is
also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("simulate_gain", "region_sweep", "scalar_audit")
SETUP_CHILDREN = 6
MIN_REPS = 3
# A fixed calibration-kernel time, close to the kernel's time on the host of
# BASELINE.md.  A time scaled by REF_CAL_S / (measured kernel time) reads in
# seconds at the host speed where the kernel takes REF_CAL_S.
REF_CAL_S = 0.25
TIME_LIMIT_S = 175.0

END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "ops_passed_share": "share",
}


def _steps(args, result):
    return {"run_steps": len(args[1])}


def _bytes(args, result):
    return {"bytes": int(result.nbytes)}


# (span name, module, attribute, counter): the functions through which one
# slotshare module calls another.  Both slot-probability kernels share a span.
TARGETS = [
    ("seeding.run_generator", "slotshare.seeding", "run_generator", None),
    ("sim.uniforms", "slotshare.sim", "_Engine.uniforms", _bytes),
    ("sim.slot", "slotshare.sim", "_Engine.slot", _steps),
    ("sim.batch", "slotshare.sim", "_simulate_batch", None),
    ("sim.monte_carlo", "slotshare.sim", "monte_carlo", None),
    ("equilibrium.msne_tau", "slotshare.equilibrium", "_msne_tau", None),
    ("equilibrium.coop_tau", "slotshare.equilibrium", "_coop_tau", None),
    ("equilibrium.msne", "slotshare.equilibrium", "msne", None),
    ("equilibrium.cooperative_optimum", "slotshare.equilibrium", "cooperative_optimum", None),
    ("equilibrium.expected_stage_payoffs", "slotshare.equilibrium", "expected_stage_payoffs", None),
    ("model.sample_slot", "slotshare.model", "sample_slot", None),
    ("model.apply_slot", "slotshare.model", "apply_slot", None),
    ("model.slot_probabilities", "slotshare.model", "slot_probabilities_competitive", None),
    ("model.slot_probabilities", "slotshare.model", "slot_probabilities_cooperative", None),
    ("etiquette.branch", "slotshare.etiquette", "_branch_payoffs", None),
    ("etiquette.cell", "slotshare.etiquette", "deviation_inequalities", None),
    ("etiquette.grim_trigger", "slotshare.etiquette", "simulate_grim_trigger", None),
]

# Per-layer metric -> (span name, field, unit).  ``self_s`` is self time,
# ``p50``/``max`` are over span durations, other fields are counters.
SPAN_METRICS = {}
for _span, _fields in (
    ("seeding.run_generator", ("calls", "s")),
    ("sim.uniforms", ("calls", "s", "bytes")),
    ("sim.slot", ("calls", "s", "run_steps")),
    ("sim.batch", ("self_s",)),
    ("sim.monte_carlo", ("calls", "s")),
    ("equilibrium.msne_tau", ("calls", "s")),
    ("equilibrium.coop_tau", ("calls", "s")),
    ("equilibrium.msne", ("calls", "s")),
    ("equilibrium.cooperative_optimum", ("calls", "s")),
    ("equilibrium.expected_stage_payoffs", ("calls", "s")),
    ("model.sample_slot", ("calls", "s")),
    ("model.apply_slot", ("calls", "s")),
    ("model.slot_probabilities", ("calls", "s")),
    ("etiquette.branch", ("calls", "self_s")),
    ("etiquette.cell", ("calls", "p50_s", "max_s")),
    ("etiquette.grim_trigger", ("calls", "s")),
):
    for _field in _fields:
        _unit = {"calls": "count", "run_steps": "count", "bytes": "bytes"}.get(_field, "s")
        SPAN_METRICS[f"{_span}.{_field}"] = (_span, _field, _unit)

DERIVED_METRICS = {
    "etiquette.indeterminate_cells": "count",
    "etiquette.useful_step_ratio": "ratio",
    "fanout.speedup": "ratio",
    "trace.overhead_ratio": "ratio",
}
PER_LAYER = {name: unit for name, (_, _, unit) in SPAN_METRICS.items()}
PER_LAYER.update(DERIVED_METRICS)


def _span_value(summary, span, field):
    entry = summary.get(span)
    if entry is None:
        return 0
    if field == "calls":
        return entry["calls"]
    if field in ("s", "self_s"):
        return entry["self_s"]
    if field == "p50_s":
        return statistics.median(entry["durations"])
    if field == "max_s":
        return max(entry["durations"])
    return entry["counters"].get(field, 0)


class Outcome:
    """Running tally of checked operations for one worker."""

    def __init__(self, workload, inputs, reference):
        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, label, output):
        wl = self.workload
        flags = wl.check(self.inputs, output, self.reference)
        if self.first is None:
            self.first = output
        else:
            flags = [a and b for a, b in zip(flags, wl.same(self.first, output))]
        passed = sum(bool(f) for f in flags[: wl.ops_per_call])
        self._tally(label, passed, [i for i, f in enumerate(flags) if not f][:10])

    def crash(self, label):
        self._tally(label, 0, ["exception: " + traceback.format_exc(limit=3).strip()])
        traceback.print_exc(file=sys.stderr)

    def _tally(self, label, passed, bad):
        n = self.workload.ops_per_call
        self.attempted += n
        self.failed += n - passed
        if passed < n:
            self.failures.append(f"{label}: {n - passed} of {n} ops failed {bad}")


def _calibrate():
    """CPU seconds of this thread for a fixed mix of bytecode and numpy calls.

    It gauges how fast the host runs at this moment: on a shared host the
    speed drifts for minutes at a time, and every timed call drifts with it.
    Thread CPU time leaves out time spent waiting for the GIL or for a core,
    so other threads of the process cannot slow the kernel down.  The numpy
    part works in place on 32 KiB, so it leaves the worker's peak memory as
    it is.
    """
    import numpy

    a = numpy.ones(4096)
    t0 = time.thread_time()
    acc = 0
    for i in range(1_500_000):
        acc += (i * i) % 7
    for _ in range(12_000):
        numpy.multiply(a, 1.0001, out=a)
        numpy.add(a, 1.0, out=a)
        numpy.sqrt(a, out=a)
    return time.thread_time() - t0


def _worker(args):
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy and slotshare: part of the set-up

    if not Path(workloads.slotshare.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"slotshare imported from {workloads.slotshare.__file__}, not {SRC}")
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(args.seed)
    setup_s = time.perf_counter() - start
    cal = _calibrate()
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s, "cal_s": cal}))
        return

    import numpy
    import tracing

    reference = json.loads((BENCH / "reference.json").read_text()).get(wl.name)
    outcome = Outcome(wl, inputs, reference)
    result = {
        "setup_s": setup_s,
        "setup_cal_s": cal,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": wl.threads,
    }

    def call(label, threads, traced):
        tracer = tracing.Tracer() if traced else None
        try:
            if traced:
                with tracing.Boundaries(tracer, TARGETS) as bounds:
                    t0 = time.perf_counter()
                    output = tracer.run(wl.body, inputs, threads)
                    wall = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                output = wl.body(inputs, threads)
                wall = time.perf_counter() - t0
        except Exception:
            outcome.crash(label)
            return None
        outcome.record(label, output)
        if not traced:
            return wall, output, None
        absent = set(bounds.absent) | tracer.uncountable
        return wall, output, (tracing.summarize(tracer.spans), absent)

    loop_start = time.perf_counter()
    if not args.trace:
        # The kernel runs before the first call and after every call; each
        # call is scaled by the mean of the two kernel times around it.
        walls, cals = [], [cal]
        while len(walls) < MIN_REPS or time.perf_counter() - loop_start + walls[-1] + cals[-1] <= args.seconds:
            got = call(f"rep {len(walls) + 1}", wl.threads, traced=False)
            if got is None:
                break
            walls.append(got[0])
            cals.append(_calibrate())
        result["walls"] = walls
        result["cals"] = cals
        result["scaled_walls"] = [
            w * REF_CAL_S / ((a + b) / 2) for w, a, b in zip(walls, cals, cals[1:])
        ]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        result.update(_traced_loop(args, wl, inputs, call, loop_start))
    result.update(attempted=outcome.attempted, failed=outcome.failed, failures=outcome.failures)
    print(json.dumps(result))


def _traced_loop(args, wl, inputs, call, loop_start):
    """Alternate untraced and traced calls; derive the per-layer metrics."""
    alt_wall = None
    if wl.alt_threads is not None:
        got = call(f"traced threads={wl.alt_threads}", wl.alt_threads, traced=True)
        alt_wall = got[0] if got else None
    untraced, traced, layers, absent = [], [], [], set()
    last = None
    while True:
        t0 = time.perf_counter()
        plain = call(f"untraced rep {len(untraced) + 1}", wl.threads, traced=False)
        got = call(f"traced rep {len(traced) + 1}", wl.threads, traced=True)
        if plain is None or got is None:
            break
        untraced.append(plain[0])
        traced.append(got[0])
        last = got[1]
        summary, missing = got[2]
        absent |= missing
        spans = {name: {k: v for k, v in e.items() if k != "durations"} for name, e in summary.items()}
        layers.append({m: _span_value(summary, s, f) for m, (s, f, _) in SPAN_METRICS.items()})
        iteration = time.perf_counter() - t0
        if time.perf_counter() - loop_start + iteration > args.seconds:
            break
    if not layers:
        return {"layer": None, "absent": sorted(absent)}
    # The lower median keeps exact counts integral.
    layer = {m: statistics.median_low(v[m] for v in layers) for m in SPAN_METRICS}
    simulated = layer["sim.slot.run_steps"] + layer["model.apply_slot.calls"]
    layer["etiquette.indeterminate_cells"] = wl.indeterminate(last)
    layer["etiquette.useful_step_ratio"] = wl.useful_steps(inputs) / simulated if simulated else 0.0
    wall = statistics.median(traced)
    if wl.alt_threads is None:
        # No thread-count parameter: the workload has no fan-out to measure.
        layer["fanout.speedup"] = 1.0
    elif alt_wall is None:
        layer["fanout.speedup"] = 0.0  # the call failed and counts as failed ops
    elif wl.alt_threads == 1:
        layer["fanout.speedup"] = alt_wall / wall
    else:
        layer["fanout.speedup"] = wall / alt_wall
    layer["trace.overhead_ratio"] = wall / statistics.median(untraced)
    absent_metrics = sorted(m for m, (s, _, _) in SPAN_METRICS.items() if s in absent)
    if not simulated:
        absent_metrics.append("etiquette.useful_step_ratio")
    return {
        "layer": layer,
        "absent": absent_metrics,
        "spans": spans,
        "untraced_walls": untraced,
        "traced_walls": traced,
        "alt_threads": wl.alt_threads,
        "alt_wall": alt_wall,
    }


def _machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "slotshare").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "commit": commit or "unavailable (not a git checkout)",
        "src_sha256": digest.hexdigest(),
    }


def _child(args, role, timeout):
    env = dict(os.environ)
    # numpy's BLAS pool is unused here; keep the process at the workload's threads.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(
            cmd, capture_output=True, text=True, timeout=max(timeout, 1.0), env=env, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"{role} process exceeded {timeout:.0f} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0 or not done.stdout.strip():
        sys.exit(f"{role} process failed with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _report(args, machine, worker, metrics, units):
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"]
    lines += [f"machine {key} = {value}" for key, value in machine.items()]
    lines.append(f"machine python = {worker['python']}  numpy = {worker['numpy']}")
    for key in ("walls", "cals", "scaled_walls", "untraced_walls", "traced_walls"):
        if key in worker:
            lines.append(f"{key} ({len(worker[key])}) = " + ", ".join(f"{w:.4f}" for w in worker[key]))
    if worker.get("alt_wall") is not None:
        lines.append(f"traced wall at threads={worker['alt_threads']} = {worker['alt_wall']:.4f}")
    share = worker["failed"] / worker["attempted"] if worker["attempted"] else 1.0
    lines.append(
        f"ops_failed_share = {share:.6g} ({worker['failed']} of {worker['attempted']} ops failed)"
    )
    lines += [f"check failed: {text}" for text in worker["failures"]]
    absent = set(worker.get("absent", ()))
    for name, value in metrics.items():
        shown = "absent" if name in absent else f"{value:.6g} {units[name]}"
        lines.append(f"metric {name} = {shown}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "setup", "worker"), default="main",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "slotshare" / "__init__.py").is_file():
        print(f"error: no slotshare package under {SRC}", file=sys.stderr)
        return 2
    if args.role != "main":
        _worker(args)
        return 0

    started = time.monotonic()
    setup = []
    if not args.trace:
        for _ in range(SETUP_CHILDREN):
            child = _child(args, "setup", 30.0)
            setup.append(child["setup_s"] * REF_CAL_S / child["cal_s"])
    worker = _child(args, "worker", TIME_LIMIT_S - (time.monotonic() - started))
    setup.append(worker["setup_s"] * REF_CAL_S / worker["setup_cal_s"])

    attempted, failed = worker["attempted"], worker["failed"]
    if not worker.get("layer" if args.trace else "walls"):
        print("error: no call of the workload completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics, units = worker["layer"], PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(worker["scaled_walls"]),
            "peak_rss_mb": worker["peak_rss_mb"],
            "setup_s": statistics.median(setup),
            "ops_passed_share": 1.0 - failed / attempted,
        }
        units = END_TO_END
    machine = _machine()
    lines = _report(args, machine, worker, metrics, units)
    OUT_DIR.mkdir(exist_ok=True)
    record = {"args": vars(args), "machine": machine, "setup_samples": setup, "worker": worker,
              "metrics": metrics}
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
