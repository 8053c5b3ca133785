"""Scenario-driven command line: simulate, validate, kolmogorov.

Exit codes: 0 success, 1 input error, 2 integration divergence (partial
trajectory still written), 3 validation failure.  Every artifact embeds the
seed, step count, scheme, and generator id needed to reproduce it byte for
byte.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import observable_series, write_series_csv
from .dynamics import casimir
from .fields import ScalarField
from .integrators import (IntegrationDiverged, Trajectory, _write_json, integrate,
                          write_trajectory_csv)
from .kolmogorov import (
    GridGeometry,
    backward_solve,
    interpolate,
    lie_poisson_generator,
    mc_expectation,
    pde_mc_gate,
    write_density,
    write_density_slice_csv,
)
from .noise import sample_grid, time_grid
from .scenario import BuiltScenario, ScenarioError, build_scenario, load_scenario
from .validation import SUITES, format_rows, run_suite

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DIVERGED = 2
EXIT_VALIDATION = 3


def _scenario_grid(built: BuiltScenario):
    if built.scheme == "rk4":
        return time_grid(built.T, built.M)
    return sample_grid(built.noise, built.T, built.M)


def _write_outputs(built: BuiltScenario, traj: Trajectory, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = built.outputs.get("prefix", "trajectory")
    meta = dict(traj.metadata)
    meta["version"] = __version__
    meta["labels"] = list(traj.labels)
    traj = Trajectory(times=traj.times, states=traj.states, labels=traj.labels,
                      metadata=meta)
    write_trajectory_csv(traj, out_dir / f"{prefix}.csv", out_dir / f"{prefix}.meta.json")
    # the level's own momentum map, not its system's name, gives m
    mtraj = Trajectory(times=traj.times, states=built.system.momentum(traj.states),
                       labels=tuple(f"m{i+1}" for i in range(built.alg.dim)))
    for diag in built.outputs.get("diagnostics", []):
        if diag == "casimir":
            series = observable_series(mtraj, casimir(built.alg))
            write_series_csv(series, out_dir / f"{prefix}.casimir.csv")
        elif diag == "energy":
            series = observable_series(traj, built.energy)
            write_series_csv(series, out_dir / f"{prefix}.energy.csv")
        elif diag == "momentum_map":
            write_trajectory_csv(mtraj, out_dir / f"{prefix}.momentum.csv")


def cmd_simulate(args) -> int:
    try:
        built = build_scenario(load_scenario(args.scenario))
        grid = _scenario_grid(built)
    except (ScenarioError, OSError, ValueError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    out_dir = Path(args.out)
    try:
        traj = integrate(built.system, built.scheme, grid, built.x0)
    except IntegrationDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.partial is not None:
            _write_outputs(built, exc.partial, out_dir)
            print(f"partial trajectory written to {out_dir}", file=sys.stderr)
        return EXIT_DIVERGED
    _write_outputs(built, traj, out_dir)
    prefix = built.outputs.get("prefix", "trajectory")
    print(f"wrote {out_dir / (prefix + '.csv')} ({traj.steps + 1} rows)")
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        rows, passed = run_suite(args.suite, seeds=args.seeds)
    except (LookupError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(f"suite: {args.suite}")
    print(format_rows(rows))
    print(f"RESULT {args.suite}: {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_VALIDATION


def _parse_f0(spec: str, alg) -> ScalarField:
    if spec == "casimir":
        return casimir(alg)
    if spec == "const":
        return ScalarField.constant(1.0, alg.dim)
    if spec in ("m1", "m2", "m3"):
        return ScalarField.coordinate(int(spec[1]) - 1, alg.dim, name=spec)
    raise ScenarioError(
        f"--f0 must be one of casimir, const, m1, m2, m3; got {spec!r}"
    )


def _flag_values(flag: str, text: str, kind, count: int) -> tuple:
    """``count`` comma-separated values of type ``kind`` given to ``flag``."""
    try:
        values = tuple(kind(v) for v in text.split(","))
    except ValueError:
        values = ()
    if len(values) != count:
        raise ScenarioError(f"{flag}: need {count} comma-separated values, got {text!r}")
    return values


def cmd_kolmogorov(args) -> int:
    try:
        scn = load_scenario(args.scenario)
        for key, need in (("system", "lie_poisson"), ("algebra", "so3")):
            if scn[key] != need:
                raise ScenarioError(
                    f"$.{key}: the kolmogorov command needs {need!r}, got {scn[key]!r}"
                )
        if scn.get("u_policy", {"id": "legendre"})["id"] != "legendre":
            raise ScenarioError(
                "$.u_policy: the kolmogorov generator has psi = h, so u = K m; "
                "only 'legendre' applies"
            )
        built = build_scenario(scn)
        f0 = _parse_f0(args.f0, built.alg)
        shape = _flag_values("--grid", args.grid, int, 3)
        lo, hi = _flag_values("--box", args.box, float, 2)
        if min(shape) < 4:
            raise ScenarioError(f"--grid: need at least 4 nodes per axis, got {args.grid!r}")
        if not -np.inf < lo < hi < np.inf:
            raise ScenarioError(f"--box: need finite lo < hi, got {args.box!r}")
        if args.paths < 1:
            raise ScenarioError(f"--paths: need at least 1 path, got {args.paths}")
        geometry = GridGeometry(bounds=np.array([[lo, hi]] * 3), shape=shape)
        if not geometry.contains(built.x0):
            raise ScenarioError(f"--box: m0 {built.x0.tolist()} lies outside the box "
                                f"[{lo:g}, {hi:g}] on each axis")
        spec = lie_poisson_generator(built.alg, built.hamiltonian.kinetic_inverse,
                                     built.noise.xi)
    except (ScenarioError, OSError, ValueError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    # dynamics stays near the Casimir sphere of m0; keep it well inside the box
    radius = float(np.linalg.norm(built.x0))
    half_extent = float(np.min(np.abs(geometry.bounds)))
    if radius > 0 and half_extent < 1.3 * radius:
        print(
            f"warning: box half-extent {half_extent:g} is less than 1.3x the "
            f"Casimir radius |m0| = {radius:g}; boundary error may contaminate "
            "the solution",
            file=sys.stderr,
        )

    try:
        rho = backward_solve(spec, f0, built.T, geometry, dt=args.dt)
    except ValueError as exc:
        # CFL violations arrive here with the admissible dt in the message
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = built.outputs.get("prefix", "density")
    write_density(out_dir / f"{prefix}.density.bin", rho)
    for axis, name in enumerate("xyz"):
        write_density_slice_csv(
            out_dir / f"{prefix}.slice_{name}.csv", rho, axis,
            geometry.shape[axis] // 2,
        )

    pde_val = interpolate(rho, built.x0)
    mean, stderr = mc_expectation(
        spec.system, f0, built.x0, built.T, built.M, args.paths, built.noise.seed
    )
    gate = pde_mc_gate(stderr, geometry)
    agree = abs(mean - pde_val) <= gate
    verdict = "agree" if agree else "disagree"
    if args.f0 == "casimir" and agree:
        if abs(pde_val - f0(built.x0)) <= pde_mc_gate(0.0, geometry) + 1e-4:
            verdict = "conserved"
    report = {
        "f0": args.f0,
        "T": built.T,
        "grid": list(geometry.shape),
        "box": [lo, hi],
        "paths": args.paths,
        "mc_mean": mean,
        "mc_stderr": stderr,
        "pde_value": pde_val,
        "gate": gate,
        "verdict": verdict,
        "seed": built.noise.seed,
        "version": __version__,
    }
    _write_json(out_dir / f"{prefix}.crosscheck.json", report)
    print(f"verdict: {verdict} (|mc - pde| = {abs(mean - pde_val):.3e}, gate {gate:.3e})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coadjoint",
        description="Stochastic coadjoint motion: simulate, validate, solve Kolmogorov equations.",
    )
    parser.add_argument("--version", action="version", version=f"coadjoint {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate a scenario and write CSV artifacts")
    p_sim.add_argument("scenario", help="scenario JSON file")
    p_sim.add_argument("--out", default=".", help="output directory (default: current)")
    p_sim.set_defaults(func=cmd_simulate)

    p_val = sub.add_parser("validate", help="run a named invariant suite")
    p_val.add_argument("suite", choices=[*SUITES, "all"])
    p_val.add_argument("--seeds", type=int, default=8,
                       help="seeds for stochastic order estimates (default 8)")
    p_val.set_defaults(func=cmd_validate)

    p_kol = sub.add_parser("kolmogorov", help="backward solve plus Monte-Carlo cross-check")
    p_kol.add_argument("scenario", help="so3 lie_poisson scenario JSON file (u_policy legendre)")
    p_kol.add_argument("--f0", required=True,
                       help="initial observable: casimir | const | m1 | m2 | m3")
    p_kol.add_argument("--grid", required=True, help="nodes per axis, e.g. 48,48,48")
    p_kol.add_argument("--box", required=True,
                       help="cube bounds lo,hi; use --box=-1.4,1.4 for negative bounds")
    p_kol.add_argument("--dt", type=float, default=None,
                       help="outer time step of the Runge-Kutta-Chebyshev solve, at "
                            "most the drift CFL bound (default: that bound)")
    p_kol.add_argument("--paths", type=int, default=10_000,
                       help="Monte-Carlo ensemble size (default 10000)")
    p_kol.add_argument("--out", default=".", help="output directory")
    p_kol.set_defaults(func=cmd_kolmogorov)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
