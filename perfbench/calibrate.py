"""Compute the pinned MC reference and the per-seed statistics behind the bands.

    python3 perfbench/calibrate.py reference [--paths 1000000]
    python3 perfbench/calibrate.py seeds --workload pathwise --first 1000 --count 40

``reference`` estimates E[m3(T)] from MC_CROSSCHECK.m0 with the workload's
own scheme and step count (Heun, 256 steps, xi = e1) on paths 2**62 + j, a
seed range no workload round reaches (see workloads.round_seed).  It prints
the JSON object stored as ``mc_crosscheck_m3`` in reference.json.

``seeds`` runs round 0 of a workload for each workload seed in a range and
prints, one JSON line per seed, the statistic each check bands: the three
study orders (pathwise), the MC z-score (ensemble_long) or the short-time
ratio (ensemble_short).  The bands in reference.json were set from one seed
range and confirmed on another; both ranges are recorded there.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from coadjoint import NoiseSpec, builtin, lie_poisson_system  # noqa: E402
from coadjoint.kolmogorov import ensemble_finals  # noqa: E402
from coadjoint.validation import K_RIGID, MC_CROSSCHECK, XI_SINGLE  # noqa: E402

REFERENCE_SEED = 2 ** 62
CHUNK = 20_000


def reference(paths: int) -> dict:
    cfg = MC_CROSSCHECK
    sys_ = lie_poisson_system(builtin("so3"), K_RIGID, NoiseSpec(channels=1, xi=XI_SINGLE, seed=0))
    total = 0.0
    total_sq = 0.0
    for start in range(0, paths, CHUNK):
        n = min(CHUNK, paths - start)
        m3 = ensemble_finals(sys_, cfg["m0"], cfg["T"], cfg["mc_steps"], n,
                             REFERENCE_SEED + start)[:, 2]
        total += float(np.sum(m3))
        total_sq += float(np.sum(m3 * m3))
        print(f"{start + n} paths", file=sys.stderr, flush=True)
    mean = total / paths
    var = (total_sq - paths * mean * mean) / (paths - 1)
    return {"mean": mean, "stderr": float(np.sqrt(var / paths)), "paths": paths,
            "seed": REFERENCE_SEED, "T": cfg["T"], "M": cfg["mc_steps"],
            "m0": cfg["m0"].tolist(), "xi": XI_SINGLE.tolist()}


def seed_stats(workload: str, first: int, count: int) -> None:
    import workloads

    api = workloads.Api()
    out_dir = ROOT / ".perfbench_out" / "calibrate"
    wl = workloads.WORKLOADS[workload](api, ROOT, out_dir)
    try:
        for seed in range(first, first + count):
            out = workloads.Outcome()
            for unit in wl.units(0, seed, api, out):
                unit()
            print(json.dumps({"seed": seed, **out.stats, "failures": out.failures}),
                  flush=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    ref = sub.add_parser("reference")
    ref.add_argument("--paths", type=int, default=1_000_000)
    s = sub.add_parser("seeds")
    s.add_argument("--workload", required=True,
                   choices=["pathwise", "ensemble_long", "ensemble_short"])
    s.add_argument("--first", type=int, required=True)
    s.add_argument("--count", type=int, required=True)
    args = p.parse_args(argv)
    if args.cmd == "reference":
        print(json.dumps(reference(args.paths), indent=2))
    else:
        seed_stats(args.workload, args.first, args.count)
    return 0


if __name__ == "__main__":
    sys.exit(main())
