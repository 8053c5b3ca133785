"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with plain ``pytest``; each criterion prints its pass/fail line directly
to the terminal (bypassing capture) so the gate is visible in CI logs.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from coadjoint.algebra import builtin
from coadjoint.dynamics import ReducedHamiltonian, hamel_system, lie_poisson_system, linear_potential
from coadjoint.actions import builtin_chart
from coadjoint.diagnostics import observable_series
from coadjoint.integrators import integrate
from coadjoint.noise import NoiseSpec, time_grid
from coadjoint.validation import (
    K_RIGID,
    run_suite,
)

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def report(capsys):
    def _report(number, name, passed, elapsed):
        with capsys.disabled():
            status = "PASS" if passed else "FAIL"
            print(f"ACCEPTANCE {number}: {status} - {name} ({elapsed:.2f}s)")

    return _report


def run_timed(suite, seeds=8):
    t0 = time.perf_counter()
    rows, passed = run_suite(suite, seeds=seeds)
    return rows, passed, time.perf_counter() - t0


def test_criterion_1_algebraic_identities(report):
    rows, passed, elapsed = run_timed("algebra")
    report(1, "algebraic identities (Jacobi, antisymmetry, ad* pairing)", passed and elapsed < 1.0, elapsed)
    assert passed, [r.check for r in rows if not r.passed]
    assert elapsed < 1.0


def test_criterion_2_equivariance(report):
    rows, passed, elapsed = run_timed("equivariance")
    report(2, "momentum-map equivariance on built-in charts", passed and elapsed < 1.0, elapsed)
    assert passed, [r.check for r in rows if not r.passed]
    assert elapsed < 1.0


def test_criterion_3_ito_equals_strat_plus_double_bracket(report):
    rows, passed, elapsed = run_timed("ito")
    report(3, "Ito correction = double bracket; coupled-path order in [0.4, 1.2]", passed and elapsed < 60.0, elapsed)
    assert passed, [r.check for r in rows if not r.passed]
    assert elapsed < 60.0


def test_criterion_4_casimir_conservation(report):
    rows, passed, elapsed = run_timed("casimir")
    report(4, "Casimir tangency and pathwise conservation order >= 1", passed and elapsed < 30.0, elapsed)
    assert passed, [r.check for r in rows if not r.passed]
    assert elapsed < 30.0


def test_criterion_5_collectivization(report):
    rows, passed, elapsed = run_timed("collectivize")
    report(5, "collectivization: phase space through J vs collective dynamics", passed and elapsed < 30.0, elapsed)
    assert passed, [r.check for r in rows if not r.passed]
    assert elapsed < 30.0


def test_criterion_6_deterministic_limits(report):
    t0 = time.perf_counter()
    so3 = builtin("so3")
    no_noise = NoiseSpec(channels=0, xi=np.zeros((0, 3)), seed=0)
    lp = lie_poisson_system(so3, K_RIGID, no_noise)
    axis_drift = max(
        float(np.max(np.abs(lp.drift(0.0, axis)))) for axis in np.eye(3)
    )
    chart = builtin_chart("so3_on_r3")
    h = ReducedHamiltonian(alg=so3, kinetic_inverse=K_RIGID,
                           potential=linear_potential([0.0, 0.0, 1.0]))
    sys = hamel_system(chart, h, no_noise)
    x0 = np.concatenate([np.array([0.3, 0.4, 0.8]), np.array([0.0, 0.0, 1.0])])
    traj = integrate(sys, "rk4", time_grid(10.0, 10_000), x0)
    energy_drift = observable_series(traj, h.as_mq_field()).sup()
    elapsed = time.perf_counter() - t0
    passed = axis_drift <= 1e-12 and energy_drift <= 1e-8 and elapsed < 10.0
    report(6, "principal-axis equilibria and heavy-top energy under RK4", passed, elapsed)
    assert axis_drift <= 1e-12
    assert energy_drift <= 1e-8
    assert elapsed < 10.0


def test_criterion_7_generator_and_kolmogorov(report):
    rows, passed, elapsed = run_timed("kolmogorov")
    report(7, "generator kills Casimirs; short-time MC consistency; PDE vs MC", passed and elapsed < 600.0, elapsed)
    assert passed, [r.check for r in rows if not r.passed]
    assert elapsed < 600.0


def test_criterion_8_reproducibility(report, tmp_path):
    t0 = time.perf_counter()

    def run_validate_all():
        return subprocess.run(
            [sys.executable, "-m", "coadjoint.cli", "validate", "all"],
            capture_output=True, cwd=REPO,
        )

    first = run_validate_all()
    second = run_validate_all()
    validate_identical = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
    )

    scenario = REPO / "scenarios" / "rigid_body.json"
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = subprocess.run(
            [sys.executable, "-m", "coadjoint.cli", "simulate", str(scenario),
             "--out", str(out)],
            capture_output=True, cwd=REPO,
        ).returncode
        assert code == 0
        outs.append((out / "rigid_body.csv").read_bytes()
                    + (out / "rigid_body.meta.json").read_bytes())
    scenario_identical = outs[0] == outs[1]

    elapsed = time.perf_counter() - t0
    passed = validate_identical and scenario_identical
    report(8, "validate all and scenario reruns are byte-identical", passed, elapsed)
    assert validate_identical, "validate all output differed between runs"
    assert scenario_identical, "scenario rerun produced different bytes"
