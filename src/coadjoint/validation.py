"""Named validation suites with pinned seeds, one table row per check.

Each suite function returns a list of :class:`CheckRow`; the CLI prints them
and exits nonzero if any row fails.  The rows mirror the package's
acceptance gates: algebraic identities, momentum-map equivariance, the
Ito/Stratonovich double-bracket equivalence, Casimir conservation,
collectivization, and the Kolmogorov generator checks.

Everything here is deterministic: seeds are fixed arguments, ensembles
recombine in path order, and values format identically across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra as lie
from .actions import (
    PhaseState,
    builtin_chart,
    equivariance_residual,
    momentum_map,
)
from .diagnostics import empirical_order, observable_series, strong_error
from .dynamics import (
    QuadraticLagrangian,
    ReducedHamiltonian,
    casimir,
    lie_poisson_system,
    momentum_pairing_field,
    phase_space_system,
    reconstruct_momentum,
)
from .fields import CanonicalBracket, ScalarField, _dot, double_bracket
from .integrators import Trajectory, _drive, integrate
from .kolmogorov import (
    GridGeometry,
    _delta_surrogate,
    backward_solve,
    ensemble_finals,
    forward_solve,
    generator_apply,
    adjoint_apply,
    hamel_generator,
    interpolate,
    lie_poisson_generator,
    _mean_stderr,
    mc_expectation,
    pde_mc_gate,
)
from .noise import NoiseSpec, coarsen, sample_grid, time_grid

__all__ = ["CheckRow", "SUITES", "run_suite", "format_rows", "SHORT_TIME_C"]

# Standard rigid-body configuration used across suites: principal moments
# (1, 2, 3), so K = G^(-1) = diag(1, 1/2, 1/3).
K_RIGID = np.diag([1.0, 0.5, 1.0 / 3.0])
G_RIGID = np.diag([1.0, 2.0, 3.0])
M0 = np.array([0.8, 0.3, 0.5])
Q0 = np.array([1.0, 0.2, -0.3])
P0 = np.array([0.1, 0.7, 0.4])
XI_PAIR = np.array([[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]])
XI_SINGLE = np.array([[1.0, 0.0, 0.0]])
SO3 = lie.builtin("so3")
SO3_CHART = builtin_chart("so3_on_r3")
NOISE_PAIR = NoiseSpec(channels=2, xi=XI_PAIR, seed=0)
L_RIGID = QuadraticLagrangian(alg=SO3, kinetic=G_RIGID, chart=SO3_CHART)
X0_PHASE = np.concatenate([Q0, P0])
M0_PHASE = momentum_map(SO3_CHART, PhaseState(Q0, P0))
M_EXPONENTS = range(8, 14)
COLLECTIVIZATION_EXPONENTS = range(8, 13)  # phase-space steps dominate its cost
NESTED_SEED = 303
SHORT_TIME_SEED = 7
SHORT_TIME_PATHS = 200_000

# Gate constant for the short-time generator consistency check,
# |(E f(X_h) - f(x)) / h - Lf(x)| <= C (h + stderr / h), calibrated once at
# h = 1e-3 and 5e-4 on the pinned seeds (observed ratios were below 1.8).
SHORT_TIME_C = 3.0

MC_CROSSCHECK = {
    "m0": np.array([0.8, 0.45, 0.3]),
    "T": 0.2,
    "nodes": 48,
    "box": 1.4,
    "paths": 10_000,
    "mc_steps": 256,
    "seed": 2024,
}


@dataclass(frozen=True)
class CheckRow:
    check: str
    value: float
    threshold: float
    mode: str  # "max": value <= threshold, "min": value >= threshold

    @property
    def passed(self) -> bool:
        if self.mode == "max":
            return self.value <= self.threshold
        return self.value >= self.threshold


def _row_max(check, value, threshold):
    return CheckRow(check, float(value), float(threshold), "max")


def _row_min(check, value, threshold):
    return CheckRow(check, float(value), float(threshold), "min")


def suite_algebra(seeds: int = 8) -> list:
    rng = np.random.default_rng(101)
    rows = []
    for name in ("so3", "h3", "se2"):
        alg = lie.builtin(name)
        rows.append(_row_max(f"{name} antisymmetry residual", lie.antisymmetry_residual(alg), 1e-12))
        rows.append(_row_max(f"{name} jacobi residual", lie.jacobi_residual(alg), 1e-12))
        pairing = 0.0
        bilin = 0.0
        for _ in range(100):
            v, w, m = rng.normal(size=(3, alg.dim))
            a, b = rng.normal(size=2)
            norm = 1.0 + np.linalg.norm(m) * np.linalg.norm(v) * np.linalg.norm(w)
            pairing = max(
                pairing,
                abs(lie.ad_star(alg, v, m) @ w - m @ lie.bracket(alg, v, w)) / norm,
            )
            lhs = lie.bracket(alg, a * v + b * w, m)
            rhs = a * lie.bracket(alg, v, m) + b * lie.bracket(alg, w, m)
            bilin = max(bilin, float(np.max(np.abs(lhs - rhs))) / norm)
            lhs = lie.ad_star(alg, v, a * m + b * w)
            rhs = a * lie.ad_star(alg, v, m) + b * lie.ad_star(alg, v, w)
            bilin = max(bilin, float(np.max(np.abs(lhs - rhs))) / norm)
        rows.append(_row_max(f"{name} ad*-pairing identity", pairing, 1e-12))
        rows.append(_row_max(f"{name} bilinearity", bilin, 1e-12))
    return rows


def suite_equivariance(seeds: int = 8) -> list:
    rng = np.random.default_rng(202)
    rows = []
    for chart_name in ("so3_on_r3", "rn_translation", "h3_on_r3"):
        chart = builtin_chart(chart_name)
        closure = chart.closure_residual(rng.uniform(-2, 2, size=(100, chart.n)))
        rows.append(_row_max(f"{chart_name} commutation closure", closure, 1e-9))
        resid = 0.0
        pairing = 0.0
        for _ in range(100):
            s = PhaseState(rng.normal(size=chart.n), rng.normal(size=chart.n))
            resid = max(resid, float(np.max(np.abs(equivariance_residual(chart, s)))))
            u, v = rng.normal(size=(2, chart.alg.dim))
            fu = momentum_pairing_field(chart, u)
            fv = momentum_pairing_field(chart, v)
            lhs = CanonicalBracket(chart.n)(fu, fv, s.packed())
            rhs = momentum_map(chart, s) @ lie.bracket(chart.alg, u, v)
            pairing = max(pairing, abs(lhs + rhs))
        rows.append(_row_max(f"{chart_name} equivariance residual", resid, 1e-9))
        rows.append(_row_max(f"{chart_name} bracket pairing", pairing, 1e-9))
    return rows


def _nested_correction_residual() -> dict:
    """Closed-form Ito correction vs nested double bracket, all three builders."""
    rng = np.random.default_rng(NESTED_SEED)
    h = ReducedHamiltonian(alg=SO3, kinetic_inverse=K_RIGID)
    lp = lie_poisson_generator(SO3, K_RIGID, XI_PAIR)
    hamel = hamel_generator(SO3_CHART, h, XI_PAIR)
    cases = {
        "lie_poisson": (lp.system, lp.bracket, lp.phi, 3),
        "phase_space": (phase_space_system(L_RIGID, NOISE_PAIR), CanonicalBracket(3),
                        [momentum_pairing_field(SO3_CHART, x) for x in NOISE_PAIR.xi], 6),
        "hamel": (hamel.system, hamel.bracket, hamel.phi, 6),
    }
    out = {}
    for name, (sys, br, gks, dim) in cases.items():
        xs = rng.normal(size=(20, dim))
        oracle = np.stack(
            [sum(0.5 * double_bracket(br, g, ScalarField.coordinate(i, dim), xs) for g in gks)
             for i in range(dim)],
            axis=-1,
        )
        out[name] = float(np.max(np.abs(sys.ito_correction(0.0, xs) - oracle)))
    return out


def _check_seeds(seeds: int) -> None:
    if seeds < 1:
        raise ValueError(f"--seeds: need at least 1 seed, got {seeds}")


def _coupled_study(seeds: int, exponents, runs, error):
    """Mean across seeds of one coupled error per dyadic coarsening of one
    fine XI_PAIR grid per seed; returns (step sizes, mean errors).

    ``runs`` lists the (system, scheme, x0) integrations that share each
    grid, and ``error`` maps their trajectories, in that order, to a number.
    All seeds step together as one batch per run and level; each seed's
    error is computed on a contiguous copy of its own path, and the seed-by-
    level table is averaged in seed order, so every number equals the
    seed-by-seed study bit for bit.
    """
    _check_seeds(seeds)
    top = max(exponents)
    fines = [sample_grid(NoiseSpec(channels=2, xi=XI_PAIR, seed=seed), 1.0, 2 ** top)
             for seed in range(seeds)]
    errs = [[] for _ in range(seeds)]
    for ex in exponents:
        grids = [coarsen(fine, 2 ** (top - ex)) for fine in fines]
        dW, dt = np.stack([g.dW for g in grids], axis=1), grids[0].dt
        times = np.arange(len(dW) + 1) * dt
        paths = []
        for sys, scheme, x0 in runs:
            states = np.empty((len(times), seeds, sys.state_dim))
            _drive(sys, scheme, np.broadcast_to(x0, states.shape[1:]), dt, dW, states=states)
            paths.append((states, sys.labels))
        for seed in range(seeds):
            errs[seed].append(error(*(
                Trajectory(times=times, states=np.ascontiguousarray(states[:, seed]),
                           labels=labels)
                for states, labels in paths)))
    return [2.0 ** -ex for ex in exponents], np.mean(errs, axis=0)


def coupled_scheme_errors(seeds: int = 8):
    """Strat-vs-Ito strong errors on shared paths, averaged across seeds."""
    sys = lie_poisson_system(SO3, K_RIGID, NOISE_PAIR)
    return _coupled_study(seeds, M_EXPONENTS, [(sys, "heun_strat", M0), (sys, "euler_ito", M0)],
                          strong_error)


def suite_ito(seeds: int = 8) -> list:
    rows = []
    residuals = _nested_correction_residual()
    for builder, worst in residuals.items():
        rows.append(_row_max(f"{builder} correction vs nested bracket", worst, 1e-9))
    hs, errs = coupled_scheme_errors(seeds)
    order = empirical_order(hs, errs)
    rows.append(_row_min(f"strat/ito coupled order ({seeds} seeds)", order, 0.4))
    rows.append(_row_max("strat/ito coupled order (upper)", order, 1.2))
    ratios = errs[:-1] / errs[1:]
    rows.append(_row_min("strat/ito mean halving ratio", float(np.mean(ratios)), 1.3))
    return rows


def casimir_drift_errors(seeds: int = 8):
    """Pathwise sup Casimir drift under Heun, averaged across seeds."""
    C = casimir(SO3)
    sys = lie_poisson_system(SO3, K_RIGID, NOISE_PAIR)
    return _coupled_study(seeds, M_EXPONENTS, [(sys, "heun_strat", M0)],
                          lambda traj: observable_series(traj, C).sup())


def suite_casimir(seeds: int = 8) -> list:
    C = casimir(SO3)
    sys = lie_poisson_system(SO3, K_RIGID, NOISE_PAIR)
    ms = np.random.default_rng(404).normal(size=(100, 3))
    grad = C.gradient(ms)[:, None]
    worst = max(float(np.max(np.abs(_dot(grad, v))))
                for v in (sys.drift(0.0, ms)[:, None], sys.diffusion(0.0, ms)))
    rows = [_row_max("grad C . (drift, diffusion) orthogonality", worst, 1e-12)]
    hs, errs = casimir_drift_errors(seeds)
    rows.append(_row_min(f"casimir pathwise drift order ({seeds} seeds)", empirical_order(hs, errs), 1.0))
    noise_e3 = NoiseSpec(channels=1, xi=np.array([[0.0, 0.0, 1.0]]), seed=0)
    sys_e3 = lie_poisson_system(SO3, K_RIGID, noise_e3)
    m = np.array([1.0, 0.0, 0.0])
    nonorth = abs(C.gradient(m) @ sys_e3.ito_correction(0.0, m))
    rows.append(_row_min("ito correction leaves Casimir sphere (detector)", nonorth, 1e-1))
    return rows


def collectivization_seeds(seeds: int) -> int:
    """Seeds of the collectivization study for a ``--seeds`` count: half of
    it, at least 2."""
    _check_seeds(seeds)
    return max(2, seeds // 2)


def collectivization_errors(seeds: int = 4):
    """Coupled phase-space-through-J vs direct collective errors per step size.

    The phase-space integration dominates the cost, so this study defaults
    to a smaller seed set than the scheme-comparison ones; the measured
    order sits near 1, far above the 0.5 gate.
    """
    ps = phase_space_system(L_RIGID, NOISE_PAIR)
    lp = lie_poisson_system(SO3, K_RIGID, NOISE_PAIR)
    return _coupled_study(seeds, COLLECTIVIZATION_EXPONENTS,
                          [(ps, "heun_strat", X0_PHASE), (lp, "heun_strat", M0_PHASE)],
                          lambda tp, tl: strong_error(reconstruct_momentum(tp, SO3_CHART), tl))


def suite_collectivize(seeds: int = 8) -> list:
    n_seeds = collectivization_seeds(seeds)
    no_noise = NoiseSpec(channels=0, xi=np.zeros((0, 3)), seed=0)
    grid = time_grid(1.0, 10_000)  # dt = 1e-4
    tp = integrate(phase_space_system(L_RIGID, no_noise), "rk4", grid, X0_PHASE)
    tl = integrate(lie_poisson_system(SO3, K_RIGID, no_noise), "rk4", grid, M0_PHASE)
    det_err = strong_error(reconstruct_momentum(tp, SO3_CHART), tl)
    rows = [_row_max("deterministic collectivization error (dt=1e-4)", det_err, 1e-6)]
    hs, errs = collectivization_errors(n_seeds)
    rows.append(_row_min(f"stochastic collectivization order ({n_seeds} seeds)", empirical_order(hs, errs), 0.5))
    return rows


def short_time_consistency(xi, h: float):
    """Worst |(E f(X_h) - f(x))/h - Lf(x)| / (h + stderr/h) over f in {m1, m2, m3}."""
    spec = lie_poisson_generator(SO3, K_RIGID, xi)
    x0 = MC_CROSSCHECK["m0"]
    finals = ensemble_finals(spec.system, x0, h, 2, SHORT_TIME_PATHS, SHORT_TIME_SEED)
    worst = 0.0
    for i in range(3):
        f = ScalarField.coordinate(i, 3, name=f"m{i+1}")
        mean, stderr = _mean_stderr(finals[:, i])
        est = (mean - f(x0)) / h
        lf = generator_apply(spec, f, x0)
        worst = max(worst, abs(est - lf) / (h + stderr / h))
    return worst


def suite_kolmogorov(seeds: int = 8) -> list:
    C = casimir(SO3)
    one = ScalarField.constant(1.0)
    spec = lie_poisson_generator(SO3, K_RIGID, XI_SINGLE)
    ms = np.random.default_rng(505).normal(size=(50, 3))
    kill = float(np.max(np.abs(generator_apply(spec, C, ms))))
    kill_adj = float(np.max(np.abs(adjoint_apply(spec, C, ms))))
    rows = [
        _row_max("generator kills Casimir", kill, 1e-8),
        _row_max("adjoint kills Casimir", kill_adj, 1e-8),
        _row_max("generator kills constants", abs(generator_apply(spec, one, M0)), 0.0),
    ]
    for label, xi in (("xi=e1", XI_SINGLE), ("xi=pair", XI_PAIR)):
        for h in (1e-3, 5e-4):
            ratio = short_time_consistency(xi, h)
            rows.append(_row_max(f"short-time consistency {label} h={h:g}", ratio, SHORT_TIME_C))
    cfg = MC_CROSSCHECK
    geo = GridGeometry.cube(-cfg["box"], cfg["box"], cfg["nodes"])
    f = ScalarField.coordinate(2, 3, "m3")
    rho = backward_solve(spec, f, cfg["T"], geo)
    pde_val = interpolate(rho, cfg["m0"])
    mean, stderr = mc_expectation(
        spec.system, f, cfg["m0"], cfg["T"], cfg["mc_steps"], cfg["paths"], cfg["seed"]
    )
    gate = pde_mc_gate(stderr, geo)
    rows.append(_row_max("PDE vs MC expectation (rigid body)", abs(mean - pde_val), gate))
    rho_T = forward_solve(spec, cfg["m0"], cfg["T"], geo)
    paired = float(np.sum(_delta_surrogate(geo, cfg["m0"]) * rho.values))
    dual = abs(float(np.sum(rho_T.values * f.evaluate(geo.nodes()))) - paired) / abs(paired)
    rows.append(_row_max("forward/backward duality (rigid body)", dual, 1e-12))
    return rows


SUITES = {
    "algebra": suite_algebra,
    "equivariance": suite_equivariance,
    "ito": suite_ito,
    "casimir": suite_casimir,
    "collectivize": suite_collectivize,
    "kolmogorov": suite_kolmogorov,
}


def run_suite(name: str, seeds: int = 8):
    """Run one suite (or 'all'); returns (rows, all_passed)."""
    if name == "all":
        rows = []
        for suite_name in SUITES:
            rows.extend(run_suite(suite_name, seeds)[0])
        return rows, all(r.passed for r in rows)
    try:
        fn = SUITES[name]
    except KeyError:
        raise LookupError(
            f"unknown suite {name!r}; available: {sorted(SUITES)} or 'all'"
        ) from None
    rows = fn(seeds)
    return rows, all(r.passed for r in rows)


def format_rows(rows) -> str:
    width = max(len(r.check) for r in rows) + 2
    lines = [f"{'check':<{width}}{'value':>14}  {'threshold':>14}  pass"]
    for r in rows:
        rel = "<=" if r.mode == "max" else ">="
        lines.append(
            f"{r.check:<{width}}{r.value:>14.6e}  {rel} {r.threshold:<11.4e}  "
            f"{'ok' if r.passed else 'FAIL'}"
        )
    return "\n".join(lines)
