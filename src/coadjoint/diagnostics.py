"""Quantitative test instruments: observable drift, pathwise errors, convergence orders.

All instruments are pure functions of their trajectory inputs, so re-running
on identical inputs is bit-identical.
"""

from __future__ import annotations

import numpy as np

from .fields import ScalarField
from .integrators import Trajectory

__all__ = ["observable_series", "strong_error", "empirical_order"]


def observable_series(traj: Trajectory, f: ScalarField) -> Trajectory:
    """f along the trajectory, evaluated in one call, minus f(x0): a one-column
    trajectory labelled with f's name."""
    v = f.evaluate(traj.states)
    return Trajectory(traj.times, (v - v[0])[:, None], labels=(f.name or "observable",))


def strong_error(a: Trajectory, b: Trajectory) -> float:
    """Max-over-time Euclidean distance on the shared time grid.

    If one trajectory is a dyadic refinement of the other, the finer one is
    subsampled to the coarser grid.
    """
    if a.states.shape[1] != b.states.shape[1]:
        raise ValueError("trajectories live in different state spaces")
    if a.steps > b.steps:
        a, b = b, a
    if b.steps % a.steps != 0:
        raise ValueError(
            f"incompatible grids: {b.steps} steps is not a multiple of {a.steps}"
        )
    stride = b.steps // a.steps
    tb = b.times[::stride]
    if np.max(np.abs(tb - a.times)) > 1e-9 * max(1.0, a.times[-1]):
        raise ValueError("trajectories do not share a time grid")
    diff = b.states[::stride] - a.states
    return float(np.max(np.linalg.norm(diff, axis=1)))


def empirical_order(hs, errs) -> float:
    """Least-squares slope of log(err) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if hs.size < 3:
        raise ValueError("need at least 3 points to fit an order")
    if np.any(hs <= 0) or np.any(errs <= 0):
        raise ValueError("step sizes and errors must be positive")
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    return float(slope)

