"""Kernel probes for the traced run: one public call timed in a tight loop.

Each probe builds its inputs from the validation constants, times batches of
calls of about 20 ms each, and reports the median batch's time per call.
The probes are the same on every workload except ``noise.path_grid_us``,
which samples one grid of the workload's own per-path shape.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from coadjoint import (
    NoiseSpec,
    QuadraticLagrangian,
    ScalarField,
    ad_star,
    builtin,
    builtin_chart,
    euler_ito_step,
    generator_apply,
    heun_stratonovich_step,
    lie_poisson_generator,
    lie_poisson_system,
    phase_space_system,
    sample_grid,
)
from coadjoint.validation import G_RIGID, K_RIGID, M0, MC_CROSSCHECK, P0, Q0, XI_PAIR, XI_SINGLE

BATCH_S = 0.02
BATCHES = 7
BATCH_ROWS = 10_000

# (steps M, channels C) of one ensemble path; pathwise samples one 2**13-step
# grid per study, and grid, which has no ensemble, uses the shape of the
# MC_CROSSCHECK ensemble its check refers to.
PATH_GRID_SHAPE = {
    "pathwise": (2 ** 13, 2),
    "ensemble_long": (MC_CROSSCHECK["mc_steps"], 1),
    "ensemble_short": (2, 2),
    "grid": (MC_CROSSCHECK["mc_steps"], 1),
}


def per_call_s(fn) -> float:
    """Median over batches of the time per call of ``fn()``."""
    fn()
    t0 = time.perf_counter()
    fn()
    n = max(1, int(BATCH_S / max(time.perf_counter() - t0, 1e-9)))
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples)


def run_probes(workload: str) -> dict:
    so3 = builtin("so3")
    chart = builtin_chart("so3_on_r3")
    pair = NoiseSpec(channels=2, xi=XI_PAIR, seed=0)
    lp2 = lie_poisson_system(so3, K_RIGID, pair)
    ps2 = phase_space_system(QuadraticLagrangian(alg=so3, kinetic=G_RIGID, chart=chart), pair)
    lp1 = lie_poisson_system(so3, K_RIGID, NoiseSpec(channels=1, xi=XI_SINGLE, seed=0))
    spec = lie_poisson_generator(so3, K_RIGID, XI_PAIR)
    m3 = ScalarField.coordinate(2, 3, "m3")
    rng = np.random.default_rng(0)
    v, m = rng.normal(size=(2, 3))
    vb, mb = rng.normal(size=(2, BATCH_ROWS, 3))
    dt = 2.0 ** -10
    dw2 = rng.normal(scale=np.sqrt(dt), size=2)
    dwb = rng.normal(scale=np.sqrt(dt), size=(BATCH_ROWS, 1))
    x_phase = np.concatenate([Q0, P0])
    M, C = PATH_GRID_SHAPE[workload]
    path_spec = NoiseSpec(channels=C, xi=np.zeros((C, 1)), seed=12345)
    return {
        "algebra.ad_star_single_us": 1e6 * per_call_s(lambda: ad_star(so3, v, m)),
        "algebra.ad_star_batch_ms": 1e3 * per_call_s(lambda: ad_star(so3, vb, mb)),
        "actions.chart_coefficients_us": 1e6 * per_call_s(lambda: chart.coefficients(Q0)),
        "integrators.heun_step_us": 1e6 * per_call_s(
            lambda: heun_stratonovich_step(lp2, 0.0, M0, dt, dw2)),
        "integrators.heun_step_phase_us": 1e6 * per_call_s(
            lambda: heun_stratonovich_step(ps2, 0.0, x_phase, dt, dw2)),
        "integrators.euler_ito_step_us": 1e6 * per_call_s(
            lambda: euler_ito_step(lp2, 0.0, M0, dt, dw2)),
        "integrators.heun_step_batch_ms": 1e3 * per_call_s(
            lambda: heun_stratonovich_step(lp1, 0.0, mb, dt, dwb)),
        "noise.path_grid_us": 1e6 * per_call_s(lambda: sample_grid(path_spec, 1.0, M)),
        "kolmogorov.generator_apply_ms": 1e3 * per_call_s(
            lambda: generator_apply(spec, m3, MC_CROSSCHECK["m0"])),
    }
