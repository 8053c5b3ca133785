"""coadjoint benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload pathwise --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  Each run is one process,
single-threaded: BLAS thread counts are pinned to 1 and COADJOINT_THREADS is
unset before numpy is imported.

The workload body runs in rounds until the next round would end after
``--seconds``.  Every round verifies its results.  The last line of stdout
is the result JSON; the line before it is an info record with the machine,
the per-round times and the output fingerprint of round 0.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Times are
in reference seconds: wall seconds divided by the machine's speed factor,
read while the work runs (see speed.py); the wall times are in the info
record.
  setup_s           median of fresh-interpreter set-ups, each timed from
                    process start to the point the first timed call would
                    be made (imports, scenario load and schema validation,
                    systems, specs, geometries)
  wall_s            median round time, summed over the round's units
  path_steps_per_s  path-steps of one round divided by wall_s (grid counts
                    pinned node-steps, see workloads.Grid)
  peak_rss_mb       peak resident memory of this process
One op is one verified result; ops and failed ops are the result's
``attempted`` and ``failed``.

``--trace 1`` runs round 0 untraced, then rounds 0, 1, ... again through
span and counter wrappers, then the kernel probes, and reports the
per-layer metrics of BENCHMARK.json in wall time: medians over traced
rounds of each layer's per-round totals, the time no layer covered
(``other_s``) and the tracing overhead of traced round 0 against untraced
round 0.  A traced round must reproduce the untraced fingerprint; that is
one more op.
"""

from __future__ import annotations

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("COADJOINT_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up the workload, print 'ready' and exit (setup_s sample)")
    return p.parse_args(argv)


def import_package():
    """Import coadjoint from this checkout's src/ or exit without a result."""
    if not (SRC / "coadjoint" / "__init__.py").is_file():
        sys.exit(f"error: no coadjoint sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import coadjoint

    if Path(coadjoint.__file__).resolve().parent != (SRC / "coadjoint").resolve():
        sys.exit(f"error: imported coadjoint from {coadjoint.__file__}, not {SRC}")
    return coadjoint


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def machine_record(coadjoint) -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "coadjoint": coadjoint.__version__,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "COADJOINT_THREADS": os.environ.get("COADJOINT_THREADS"),
        "machine": platform.machine(),
    }


def git_sha() -> str:
    """HEAD of the checkout if it is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def setup_sample(workload: str) -> float:
    """Seconds from spawning a fresh interpreter until its set-up is done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", "0", "--seconds", "0", "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up sample exited {proc.returncode}")
    return elapsed


def setup_samples(workload: str):
    """``SETUP_SAMPLES`` set-up times, in wall and in reference seconds.

    A sample runs in a child process, so the speed factor is read around it
    rather than during it (the median of three readings each side), with
    this process and the child pinned to one CPU: the two vCPUs of the
    machine the benchmark was defined on change speed independently.
    """
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(affinity)})
    try:
        walls, refs = [], []
        before = statistics.median(speed.factor() for _ in range(3))
        for _ in range(SETUP_SAMPLES):
            elapsed = setup_sample(workload)
            after = statistics.median(speed.factor() for _ in range(3))
            walls.append(elapsed)
            refs.append(elapsed / (0.5 * (before + after)))
            before = after
    finally:
        os.sched_setaffinity(0, affinity)
    return walls, refs


def wall_timer(fn):
    """Run ``fn()``; return its wall time as both (wall_s, reference_s).

    The traced run's timer: its per-layer times are wall times.
    """
    t0 = time.perf_counter()
    fn()
    wall = time.perf_counter() - t0
    return wall, wall


def run_rounds(wl, seed, api, outcome_cls, deadline, timer=wall_timer, on_round=None):
    """Rounds 0, 1, ... until the next one would pass ``deadline``; at least one.

    ``timer(unit)`` runs each unit of a round and returns its (wall_s,
    reference_s); a round's times are the sums over its units.
    """
    walls, refs, outs = [], [], []
    r = 0
    while True:
        out = outcome_cls()
        t0 = time.perf_counter()
        times = [timer(unit) for unit in wl.units(r, seed, api, out)]
        walls.append(sum(w for w, _ in times))
        refs.append(sum(ref for _, ref in times))
        outs.append(out)
        if on_round is not None:
            on_round(walls[-1])
        r += 1
        elapsed = time.perf_counter() - t0
        if time.perf_counter() + elapsed > deadline:
            return walls, refs, outs


def median_or_zero(values):
    return float(statistics.median(values)) if values else 0.0


SPAN_METRICS = {
    "integrators.integrate_s": "integrators.integrate",
    "dynamics.reconstruct_momentum_s": "dynamics.reconstruct_momentum",
    "diagnostics.observable_series_s": "diagnostics.observable_series",
    "diagnostics.strong_error_s": "diagnostics.strong_error",
    "noise.sample_grid_s": "noise.sample_grid",
    "noise.coarsen_s": "noise.coarsen",
    "kolmogorov.mc_expectation_s": "kolmogorov.mc_expectation",
    "kolmogorov.ensemble_finals_s": "kolmogorov.ensemble_finals",
    "kolmogorov.backward_solve_s": "kolmogorov.backward_solve",
    "kolmogorov.forward_solve_s": "kolmogorov.forward_solve",
    "kolmogorov.operator_setup_s": "kolmogorov.operator_setup",
    "cli.simulate_s": "cli.simulate",
}
COUNT_METRICS = ("integrators.steps", "noise.increments", "kolmogorov.path_steps",
                 "kolmogorov.grid_nodes", "kolmogorov.admissible_dt", "cli.bytes_written")
CALLBACKS = {
    "dynamics.drift_calls_per_step": "dynamics.drift",
    "dynamics.diffusion_calls_per_step": "dynamics.diffusion",
    "dynamics.correction_calls_per_step": "dynamics.correction",
}


def traced_run(args, workloads, out_dir):
    from probes import run_probes
    from tracer import Tracer

    tracer = Tracer()
    api = workloads.Api(tracer)
    wl = workloads.WORKLOADS[args.workload](api, ROOT, out_dir)
    deadline = time.perf_counter() + args.seconds
    setup_spans = dict(tracer.spans)
    plain = workloads.Api()
    outcome = workloads.Outcome
    untraced, _, base_outs = run_rounds(wl, args.seed, plain, outcome, 0.0)

    rounds = []

    def collect(wall):
        rounds.append({"wall": wall, "top": tracer.top_level_s,
                       "spans": dict(tracer.spans), "counts": dict(tracer.counts)})
        tracer.new_round()

    tracer.new_round()
    walls, _, outs = run_rounds(wl, args.seed, api, outcome, deadline, on_round=collect)
    same = outs[0].fingerprint() == base_outs[0].fingerprint()
    failures = [f for o in base_outs + outs for f in o.failures]
    if not same:
        failures.append("traced round 0 changed the output fingerprint")
    attempted = sum(o.ops for o in base_outs + outs) + 1

    def per_round(fn):
        return median_or_zero([fn(rd, out) for rd, out in zip(rounds, outs)])

    metrics = {}
    for metric, span in SPAN_METRICS.items():
        metrics[metric] = per_round(lambda rd, out: sum(d for d, _ in rd["spans"].get(span, ())))
    for metric in COUNT_METRICS:
        metrics[metric] = per_round(lambda rd, out: out.counts.get(metric, 0.0))
    for metric, counter in CALLBACKS.items():
        def ratio(rd, out, counter=counter):
            steps = out.counts.get("integrators.steps", 0) + out.counts.get("ensemble.steps", 0)
            return rd["counts"].get(counter, 0) / steps if steps else 0.0
        metrics[metric] = per_round(ratio)
    step_us = [1e6 * d / n for rd in rounds for d, n in rd["spans"].get("integrators.integrate", ())]
    metrics["integrators.step_us_p50"] = median_or_zero(step_us)
    metrics["integrators.step_us_p90"] = (
        statistics.quantiles(step_us, n=10, method="inclusive")[8] if len(step_us) > 1
        else median_or_zero(step_us))
    metrics["integrators.step_samples"] = float(len(step_us))
    for metric, span in (("scenario.load_ms", "scenario.load_scenario"),
                         ("scenario.build_ms", "scenario.build_scenario")):
        metrics[metric] = 1e3 * median_or_zero([d for d, _ in setup_spans.get(span, ())])
    metrics["other_s"] = per_round(lambda rd, out: rd["wall"] - rd["top"])
    metrics["trace.rounds"] = float(len(rounds))
    metrics["trace.untraced_wall_s"] = untraced[0]
    metrics["trace.overhead_pct"] = 100.0 * (walls[0] - untraced[0]) / untraced[0]
    metrics.update(run_probes(args.workload))
    info = {"round_s": walls, "untraced_round_s": untraced,
            "fingerprint": base_outs[0].fingerprint(), "trace_identity": same}
    return metrics, attempted, failures, info


def untraced_run(args, workloads, out_dir):
    setups, setup_refs = setup_samples(args.workload)
    api = workloads.Api()
    wl = workloads.WORKLOADS[args.workload](api, ROOT, out_dir)
    deadline = time.perf_counter() + args.seconds
    clock = speed.Clock()
    walls, refs, outs = run_rounds(wl, args.seed, api, workloads.Outcome, deadline,
                                   timer=clock.time)
    wall = statistics.median(refs)
    steps = outs[0].counts["path_steps"]
    metrics = {
        "setup_s": statistics.median(setup_refs),
        "wall_s": wall,
        "path_steps_per_s": steps / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    failures = [f for o in outs for f in o.failures]
    q = statistics.quantiles(clock.reads, n=4)
    info = {"round_ref_s": refs, "round_wall_s": walls, "setup_ref_s": setup_refs,
            "setup_wall_s": setups,
            "speed_factor": {"reads": len(clock.reads), "min": min(clock.reads),
                             "p25": q[0], "median": q[1], "p75": q[2],
                             "max": max(clock.reads)},
            "fingerprint": outs[0].fingerprint(), "path_steps_per_round": steps}
    return metrics, sum(o.ops for o in outs), failures, info


def main(argv=None) -> int:
    args = parse_args(argv)
    coadjoint = import_package()
    end_to_end, per_layer, names = declared_metrics()
    if args.workload not in names:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {names}")
    import workloads

    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    if args.setup_only:
        workloads.WORKLOADS[args.workload](workloads.Api(), ROOT, out_dir)
        print("ready", flush=True)
        return 0
    try:
        run = traced_run if args.trace else untraced_run
        metrics, attempted, failures, info = run(args, workloads, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass
    declared = per_layer if args.trace else end_to_end
    if set(metrics) != set(declared):
        sys.exit(f"error: metrics {sorted(set(metrics) ^ set(declared))} do not match "
                 "BENCHMARK.json")
    for f in failures:
        print(f"FAILED: {f}", file=sys.stderr)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                failures=failures, machine=machine_record(coadjoint))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": float(metrics[k]), "unit": declared[k]} for k in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
