"""The four benchmark workloads, built only from the public coadjoint API.

Each workload does its set-up in ``__init__`` (scenario load and schema
validation, systems, generator specs, grid geometries) and then produces
its verified results one round at a time.  ``units(r, seed, api, out)``
returns round ``r`` as a list of units: zero-argument calls, each producing
verified results, that the runner times one by one.
Round ``r`` of workload seed ``s`` draws all its noise from
``round_seed(s, r)``, so a round is a pure function of ``(s, r)``.

``api`` is either the plain public functions or the tracer's wrapped ones
(see ``Api``); the workloads cannot tell which, so both runs do the same
work on the same inputs.

Why these four workloads:

* ``pathwise``: single-path Python stepping in ``integrators``,
  ``dynamics`` and ``algebra`` on 3- and 6-vectors; ``noise`` only once per
  study; no grid.
* ``ensemble_long``: the batched Heun kernel over 1e4 paths x 256 steps;
  per-path noise is a small share.
* ``ensemble_short``: the same ``ensemble_finals`` in the opposite regime,
  5e4 paths x 2 steps, where per-path noise set-up dominates.
* ``grid``: the Kolmogorov grid operator only, no Monte Carlo; two solves
  with different sizes and ratios of diffusion to drift CFL bounds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from collections import defaultdict
from pathlib import Path

import numpy as np

from coadjoint import (
    GridGeometry,
    NoiseSpec,
    PhaseState,
    QuadraticLagrangian,
    ScalarField,
    builtin,
    builtin_chart,
    casimir,
    cli,
    empirical_order,
    kolmogorov,
    lie_poisson_generator,
    lie_poisson_system,
    momentum_map,
    phase_space_system,
)
from coadjoint import diagnostics, dynamics, integrators, noise, scenario
from coadjoint.validation import G_RIGID, K_RIGID, M0, MC_CROSSCHECK, P0, Q0, XI_PAIR

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())


def round_seed(seed: int, r: int) -> int:
    """Base noise seed of round ``r``: blocks of 2**20 seeds above 2**32.

    Ensemble path j of a round uses base + j (today's ``path_seed``), so a
    block holds every path of the largest ensemble (5e4) and no two rounds
    or workload seeds share a path.  The pinned reference ensemble starts at
    2**62, above every block.
    """
    return 2 ** 32 + ((seed % 2 ** 30) * 64 + r) * 2 ** 20


class CheckFailed(Exception):
    pass


def require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Outcome:
    """Ops attempted, failures, counts, checked statistics and the output
    fingerprint of one round."""

    def __init__(self):
        self.ops = 0
        self.failures = []
        self.counts = defaultdict(float)
        self.stats = {}
        self._hash = hashlib.sha256()

    @contextlib.contextmanager
    def op(self, what: str):
        """One verified result; a failed check, divergence or exception fails it."""
        self.ops += 1
        try:
            yield
        except Exception as exc:  # a failed op is counted and reported, not raised
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")

    def record(self, *values) -> None:
        for v in values:
            if isinstance(v, bytes):
                self._hash.update(v)
            else:
                self._hash.update(repr(np.asarray(v, dtype=float).tolist()).encode())

    def fingerprint(self) -> str:
        return self._hash.hexdigest()[:16]


def _steps_of(sys, scheme, grid, x0):
    return grid.steps


class Api:
    """The public functions the workloads call.

    Untraced, every attribute is the library function itself.  Traced,
    each is wrapped in a span named after its module, SdeSystems get
    counting callbacks, and ``patched()`` also routes ``mc_expectation``'s
    call to ``ensemble_finals`` through the span wrapper.
    """

    CALLS = {
        "load_scenario": (scenario.load_scenario, "scenario.load_scenario", None),
        "build_scenario": (scenario.build_scenario, "scenario.build_scenario", None),
        "sample_grid": (noise.sample_grid, "noise.sample_grid", None),
        "coarsen": (noise.coarsen, "noise.coarsen", None),
        "integrate": (integrators.integrate, "integrators.integrate", _steps_of),
        "strong_error": (diagnostics.strong_error, "diagnostics.strong_error", None),
        "observable_series": (diagnostics.observable_series,
                              "diagnostics.observable_series", None),
        "reconstruct_momentum": (dynamics.reconstruct_momentum,
                                 "dynamics.reconstruct_momentum", None),
        "cli_main": (cli.main, "cli.simulate", None),
        "mc_expectation": (kolmogorov.mc_expectation, "kolmogorov.mc_expectation", None),
        "ensemble_finals": (kolmogorov.ensemble_finals, "kolmogorov.ensemble_finals", None),
        "generator_apply": (kolmogorov.generator_apply, "kolmogorov.generator_apply", None),
        "admissible_dt": (kolmogorov.admissible_dt, "kolmogorov.operator_setup", None),
        "backward_solve": (kolmogorov.backward_solve, "kolmogorov.backward_solve", None),
        "forward_solve": (kolmogorov.forward_solve, "kolmogorov.forward_solve", None),
    }

    def __init__(self, tracer=None):
        self.tracer = tracer
        self._systems = {}
        for attr, (fn, span, size) in self.CALLS.items():
            setattr(self, attr, fn if tracer is None else tracer.wrap(span, fn, size))

    def system(self, sys):
        if self.tracer is None:
            return sys
        if id(sys) not in self._systems:
            # keep sys itself alive so its id cannot be reused
            self._systems[id(sys)] = (sys, self.tracer.counted_system(sys))
        return self._systems[id(sys)][1]

    def patched(self):
        if self.tracer is None:
            return contextlib.nullcontext()
        from unittest import mock

        return mock.patch.object(kolmogorov, "ensemble_finals", self.ensemble_finals)


def _rigid_body_scenario(api, root: Path):
    """The shipped rigid-body scenario, which is the MC_CROSSCHECK problem."""
    built = api.build_scenario(api.load_scenario(root / "scenarios" / "rigid_body.json"))
    if (not np.array_equal(built.x0, MC_CROSSCHECK["m0"]) or built.T != MC_CROSSCHECK["T"]
            or built.M != MC_CROSSCHECK["mc_steps"]):
        raise RuntimeError("scenarios/rigid_body.json no longer matches MC_CROSSCHECK")
    return built


class Pathwise:
    """Coupled-path studies behind ``validate ito/casimir/collectivize``, one
    seed per round, plus ``coadjoint simulate`` on the four shipped scenarios."""

    EXPONENTS = range(8, 14)            # ito and casimir studies, as in validate
    COLLECTIVE_EXPONENTS = range(8, 13)  # collectivization study, as in validate

    def __init__(self, api, root: Path, out_dir: Path):
        so3 = builtin("so3")
        self.casimir = casimir(so3)
        self.chart = builtin_chart("so3_on_r3")
        spec = NoiseSpec(channels=2, xi=XI_PAIR, seed=0)
        self.lp = lie_poisson_system(so3, K_RIGID, spec)
        L = QuadraticLagrangian(alg=so3, kinetic=G_RIGID, chart=self.chart)
        self.ps = phase_space_system(L, spec)
        self.x0_phase = np.concatenate([Q0, P0])
        self.m0_phase = momentum_map(self.chart, PhaseState(Q0, P0))
        self.out_dir = out_dir
        self.scenarios = []
        for path in sorted((root / "scenarios").glob("*.json")):
            built = api.build_scenario(api.load_scenario(path))
            self.scenarios.append((path, built.outputs.get("prefix", "trajectory"), built.M))
        self.bands = REFERENCE["bands"]

    def _study(self, api, out, what, noise_spec, exponents, paths):
        """Errors per level of one coupled study on a dyadic hierarchy."""
        top = max(exponents)
        fine = api.sample_grid(noise_spec, 1.0, 2 ** top)
        out.counts["noise.increments"] += fine.steps * fine.channels
        errs = []
        for ex in exponents:
            g = api.coarsen(fine, 2 ** top // 2 ** ex)
            errs.append(paths(g))
        hs = [2.0 ** -ex for ex in exponents]
        order = empirical_order(hs, errs)
        out.record(errs, order)
        out.stats[what] = order
        lo, hi = self.bands[what]
        require(lo <= order <= hi, f"{what} {order:.4f} outside [{lo}, {hi}]")

    def _integrate(self, api, out, sys, scheme, grid, x0):
        traj = api.integrate(sys, scheme, grid, x0)
        require(np.all(np.isfinite(traj.states)), "non-finite state")
        out.counts["integrators.steps"] += grid.steps
        out.counts["path_steps"] += grid.steps
        return traj

    def units(self, r: int, seed: int, api, out: Outcome) -> list:
        spec = NoiseSpec(channels=2, xi=XI_PAIR, seed=round_seed(seed, r))
        lp, ps = api.system(self.lp), api.system(self.ps)

        def ito(g):
            th = self._integrate(api, out, lp, "heun_strat", g, M0)
            ti = self._integrate(api, out, lp, "euler_ito", g, M0)
            return api.strong_error(th, ti)

        def drift(g):
            t = self._integrate(api, out, lp, "heun_strat", g, M0)
            return api.observable_series(t, self.casimir).sup()

        def collect(g):
            tp = self._integrate(api, out, ps, "heun_strat", g, self.x0_phase)
            tl = self._integrate(api, out, lp, "heun_strat", g, self.m0_phase)
            return api.strong_error(api.reconstruct_momentum(tp, self.chart), tl)

        def study(what, exponents, paths):
            def unit():
                with out.op(what.replace("_", " ")):
                    self._study(api, out, what, spec, exponents, paths)
            return unit

        return [study("ito_order", self.EXPONENTS, ito),
                study("casimir_order", self.EXPONENTS, drift),
                study("collectivize_order", self.COLLECTIVE_EXPONENTS, collect),
                lambda: self._simulate(api, out)]

    def _simulate(self, api, out: Outcome) -> None:
        for path, prefix, M in self.scenarios:
            with out.op(f"simulate {path.name}"):
                target = self.out_dir / prefix
                shutil.rmtree(target, ignore_errors=True)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = api.cli_main(["simulate", str(path), "--out", str(target)])
                require(code == 0, f"exit code {code}")
                out.counts["path_steps"] += M
                for f in sorted(target.iterdir()):
                    data = f.read_bytes()
                    out.counts["cli.bytes_written"] += len(data)
                    out.record(data)
                rows = (target / f"{prefix}.csv").read_text().splitlines()
                require(len(rows) == M + 2, f"{len(rows) - 1} CSV rows, expected {M + 1}")
                values = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
                require(np.all(np.isfinite(values)), "non-finite CSV value")


class EnsembleLong:
    """``mc_expectation`` of m3 from MC_CROSSCHECK.m0 at T = 0.2, 1e4 paths x
    256 steps, checked against the pinned large-ensemble reference."""

    PATHS = 10_000

    def __init__(self, api, root: Path, out_dir: Path):
        built = _rigid_body_scenario(api, root)
        self.sys = built.system
        self.m0, self.T, self.M = built.x0, built.T, built.M
        self.f = ScalarField.coordinate(2, 3, "m3")
        self.ref = REFERENCE["mc_crosscheck_m3"]
        self.z_max = REFERENCE["bands"]["mc_z_max"]

    def units(self, r: int, seed: int, api, out: Outcome) -> list:
        return [lambda: self._estimate(r, seed, api, out)]

    def _estimate(self, r: int, seed: int, api, out: Outcome) -> None:
        sys = api.system(self.sys)
        with out.op("mc expectation m3"):
            with api.patched():
                mean, stderr = api.mc_expectation(sys, self.f, self.m0, self.T, self.M,
                                                  self.PATHS, round_seed(seed, r))
            out.record(mean, stderr)
            z = abs(mean - self.ref["mean"]) / np.hypot(stderr, self.ref["stderr"])
            out.stats["mc_z"] = z
            require(np.isfinite(z) and z <= self.z_max, f"|z| = {z:.3f} > {self.z_max}")
        work = self.PATHS * self.M
        out.counts["path_steps"] += work
        out.counts["kolmogorov.path_steps"] += work
        out.counts["noise.increments"] += work * self.sys.channels
        out.counts["ensemble.steps"] += self.M


class EnsembleShort:
    """The short-time generator-consistency ensemble of ``validate kolmogorov``
    with XI_PAIR: 5e4 paths x 2 steps at h = 1e-3, compared with
    ``generator_apply``.

    validate uses 2e5 paths in one ensemble.  A round here is a quarter of
    that, so a run holds several rounds and wall_s is a median; the cost per
    path, and so the regime, is the same."""

    PATHS = 50_000
    H = 1e-3
    STEPS = 2

    def __init__(self, api, root: Path, out_dir: Path):
        so3 = builtin("so3")
        self.spec = lie_poisson_generator(so3, K_RIGID, XI_PAIR)
        self.sys = lie_poisson_system(so3, K_RIGID, NoiseSpec(channels=2, xi=XI_PAIR, seed=0))
        self.x0 = MC_CROSSCHECK["m0"]
        self.fields = [ScalarField.coordinate(i, 3, name=f"m{i + 1}") for i in range(3)]
        self.c_max = REFERENCE["bands"]["short_time_max"]

    def units(self, r: int, seed: int, api, out: Outcome) -> list:
        return [lambda: self._consistency(r, seed, api, out)]

    def _consistency(self, r: int, seed: int, api, out: Outcome) -> None:
        sys = api.system(self.sys)
        with out.op("short-time consistency"):
            finals = api.ensemble_finals(sys, self.x0, self.H, self.STEPS, self.PATHS,
                                         round_seed(seed, r))
            worst = 0.0
            for i, f in enumerate(self.fields):
                vals = finals[:, i]
                mean = float(np.mean(vals))
                stderr = float(np.std(vals, ddof=1) / np.sqrt(self.PATHS))
                lf = api.generator_apply(self.spec, f, self.x0)
                out.record(mean, stderr, lf)
                est = (mean - f(self.x0)) / self.H
                worst = max(worst, abs(est - lf) / (self.H + stderr / self.H))
            out.stats["short_time_ratio"] = worst
            require(worst <= self.c_max, f"ratio {worst:.3f} > {self.c_max}")
        work = self.PATHS * self.STEPS
        out.counts["path_steps"] += work
        out.counts["kolmogorov.path_steps"] += work
        out.counts["noise.increments"] += work * self.sys.channels
        out.counts["ensemble.steps"] += self.STEPS


class Grid:
    """``backward_solve`` of m3 at 48^3 on [-1.4, 1.4]^3 to T = 0.2, checked
    against the pinned MC reference, and ``forward_solve`` from (0.6, 0, 0.3)
    at 32^3 on [-1.2, 1.2]^3 to T = 0.05, checked for mass.  The PDE inputs
    are fixed, so the seed changes nothing here."""

    FORWARD_X0 = np.array([0.6, 0.0, 0.3])
    FORWARD_T = 0.05
    MASS_TOL = 0.05  # the bound test_delta_surrogate_mass uses
    # Node-steps per solve at the explicit-Euler step count of the solver
    # this benchmark was defined on (663 and 73 steps).  Pinned, so that
    # path_steps_per_s stays a fixed amount of work divided by wall_s when
    # a later solver takes other steps.
    NODE_STEPS = 48 ** 3 * 663 + 32 ** 3 * 73

    def __init__(self, api, root: Path, out_dir: Path):
        built = _rigid_body_scenario(api, root)
        self.spec = lie_poisson_generator(built.alg, built.hamiltonian.kinetic_inverse,
                                          built.noise.xi)
        self.m0, self.T = built.x0, built.T
        cfg = MC_CROSSCHECK
        self.back_geo = GridGeometry.cube(-cfg["box"], cfg["box"], cfg["nodes"])
        self.fwd_geo = GridGeometry.cube(-1.2, 1.2, 32)
        self.f = ScalarField.coordinate(2, 3, "m3")
        self.ref = REFERENCE["mc_crosscheck_m3"]

    def units(self, r: int, seed: int, api, out: Outcome) -> list:
        out.counts["path_steps"] += self.NODE_STEPS
        return [lambda: self._backward(api, out), lambda: self._forward(api, out)]

    def _backward(self, api, out: Outcome) -> None:
        with out.op("backward solve vs MC reference"):
            dt = api.admissible_dt(self.spec, self.back_geo)
            rho = api.backward_solve(self.spec, self.f, self.T, self.back_geo)
            pde = kolmogorov.interpolate(rho, self.m0)
            out.record(dt, pde)
            gate = 3.0 * self.ref["stderr"] + 2.0 * float(self.back_geo.dx[0]) ** 2
            err = abs(pde - self.ref["mean"])
            require(err <= gate, f"|pde - mc| = {err:.3e} > gate {gate:.3e}")
            out.counts["kolmogorov.admissible_dt"] = dt
            out.counts["kolmogorov.grid_nodes"] += int(np.prod(self.back_geo.shape))

    def _forward(self, api, out: Outcome) -> None:
        with out.op("forward solve mass"):
            fw = api.forward_solve(self.spec, self.FORWARD_X0, self.FORWARD_T, self.fwd_geo)
            mass = float(np.sum(fw.values) * np.prod(self.fwd_geo.dx))
            out.record(mass, fw.values[::4, ::4, ::4])
            require(abs(mass - 1.0) <= self.MASS_TOL, f"mass {mass:.5f}")
            out.counts["kolmogorov.grid_nodes"] += int(np.prod(self.fwd_geo.shape))


WORKLOADS = {
    "pathwise": Pathwise,
    "ensemble_long": EnsembleLong,
    "ensemble_short": EnsembleShort,
    "grid": Grid,
}
