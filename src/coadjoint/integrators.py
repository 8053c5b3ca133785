"""Time-stepping kernels and the one driver that steps every SDE state.

Schemes: stochastic Heun (trapezoidal predictor-corrector) for Stratonovich
systems, Euler-Maruyama for Ito systems carrying an analytic correction
drift, and classical RK4 as the deterministic oracle.  Steps are pure
functions that broadcast over leading state axes; the driver ties the
uniform time step to Brownian increments so that pathwise comparisons reuse
identical noise, and steps single paths and Monte-Carlo ensembles alike.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "SdeSystem",
    "Trajectory",
    "IntegrationDiverged",
    "heun_stratonovich_step",
    "euler_ito_step",
    "rk4_step",
    "integrate",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

class IntegrationDiverged(RuntimeError):
    """A state component became non-finite; carries the failing step index.

    ``path`` is the index of the failing ensemble path (None for a single
    path); ``partial`` holds the trajectory up to the last finite state when
    :func:`integrate` raised this.
    """

    def __init__(self, step: int, last_state: np.ndarray, path: Optional[int] = None):
        self.step = step
        self.last_state = np.asarray(last_state)
        self.partial = None
        self.path = path
        where = "integration" if path is None else f"ensemble path {path}"
        super().__init__(
            f"{where} diverged at step {step}; last finite state {self.last_state}"
        )


@dataclass(frozen=True)
class SdeSystem:
    """Drift, stacked diffusion fields, and optional Ito correction drift.

    ``drift(t, x)`` returns ``(..., d)`` like x; ``diffusion(t, x)`` returns
    all C channel fields stacked as ``(..., C, d)``.  ``ito_correction`` is
    the bounded-variation extra drift that makes the Euler-Maruyama scheme
    integrate the same law the Stratonovich fields define.  Callbacks must
    be pure and broadcast over leading axes of x.  ``post_step(x_new, x0)``
    maps each row given its initial row, on single paths and ensembles.
    ``momentum(x)`` is the level's momentum map, (..., d) -> (..., r).
    """

    state_dim: int
    channels: int
    drift: Callable[[float, np.ndarray], np.ndarray]
    diffusion: Callable[[float, np.ndarray], np.ndarray]
    ito_correction: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    labels: tuple = ()
    name: str = ""
    post_step: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    momentum: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.labels and len(self.labels) != self.state_dim:
            raise ValueError(
                f"{len(self.labels)} labels for state dimension {self.state_dim}"
            )


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled states of one integration run."""

    times: np.ndarray
    states: np.ndarray
    labels: tuple = ()
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if states.shape[0] != times.shape[0]:
            raise ValueError("times and states must have equal length")
        dt = np.diff(times)
        # uniform up to float rounding of i * dt near the end of the horizon
        slack = max(1e-12 * dt[0], 8.0 * np.finfo(float).eps * abs(times[-1])) if times.size > 1 else 0.0
        if times.size > 1 and (np.any(dt <= 0) or np.ptp(dt) > slack):
            raise ValueError("times must be strictly increasing and uniform")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def steps(self) -> int:
        return self.times.shape[0] - 1

    def final(self) -> np.ndarray:
        return self.states[-1]


def heun_stratonovich_step(sys: SdeSystem, t: float, x, dt: float, dW) -> np.ndarray:
    """One stochastic Heun step for the Stratonovich interpretation.

    Predictor: Euler with drift and noise; corrector: trapezoidal average of
    both fields at the base point and the predictor.
    """
    x = np.asarray(x, dtype=float)
    dW = np.asarray(dW, dtype=float)
    fx = sys.drift(t, x)
    incr = fx * dt
    if sys.channels:
        gx = sys.diffusion(t, x)
        for k in range(sys.channels):
            incr = incr + gx[..., k, :] * dW[..., k, None]
    xp = x + incr
    tp = t + dt
    out = x + 0.5 * dt * (fx + sys.drift(tp, xp))
    if sys.channels:
        gp = sys.diffusion(tp, xp)
        for k in range(sys.channels):
            out = out + 0.5 * (gx[..., k, :] + gp[..., k, :]) * dW[..., k, None]
    return out


def euler_ito_step(sys: SdeSystem, t: float, x, dt: float, dW) -> np.ndarray:
    """One Euler-Maruyama step of the Ito form drift + correction.

    Refuses to run without an ito_correction: silently integrating the
    Stratonovich fields in Ito form would solve a different equation.
    """
    if sys.ito_correction is None:
        raise ValueError(
            f"system {sys.name!r} has no ito_correction; supply one "
            "(exactly zero is acceptable) before using the euler_ito scheme"
        )
    x = np.asarray(x, dtype=float)
    dW = np.asarray(dW, dtype=float)
    out = x + (sys.drift(t, x) + sys.ito_correction(t, x)) * dt
    if sys.channels:
        gx = sys.diffusion(t, x)
        for k in range(sys.channels):
            out = out + gx[..., k, :] * dW[..., k, None]
    return out


def rk4_step(drift: Callable[[float, np.ndarray], np.ndarray], t: float, x,
             dt: float) -> np.ndarray:
    """Classical fourth-order Runge-Kutta step for the drift alone."""
    x = np.asarray(x, dtype=float)
    k1 = drift(t, x)
    k2 = drift(t + 0.5 * dt, x + 0.5 * dt * k1)
    k3 = drift(t + 0.5 * dt, x + 0.5 * dt * k2)
    k4 = drift(t + dt, x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_KERNELS = {
    "heun_strat": heun_stratonovich_step,
    "euler_ito": euler_ito_step,
    "rk4": lambda sys, t, x, dt, dW: rk4_step(sys.drift, t, x, dt),
}


def _drive(sys: SdeSystem, scheme: str, x0, dt: float, dW, states=None,
           first_path: int = 0) -> np.ndarray:
    """Step ``x0``, one state (d,) or a batch (E, d), over the rows of ``dW``,
    (M, C) or (M, E, C), and return the final state.

    ``states[i]``, if given, receives the state after i steps.  The first
    non-finite row raises :class:`IntegrationDiverged` with the step, its
    last finite state and, for a batch, its path index ``first_path + row``.
    """
    step = _KERNELS[scheme]
    x = np.array(x0, dtype=float)
    if states is not None:
        states[0] = x
    for i in range(len(dW)):
        # blowup is detected and reported below; suppress the transient
        # overflow warnings the diverging step itself emits
        with np.errstate(over="ignore", invalid="ignore"):
            x_new = step(sys, i * dt, x, dt, dW[i])
        if not np.all(np.isfinite(x_new)):
            if x.ndim == 1:
                raise IntegrationDiverged(step=i + 1, last_state=x)
            bad = int(np.argmin(np.all(np.isfinite(x_new), axis=-1)))
            raise IntegrationDiverged(step=i + 1, last_state=x[bad], path=first_path + bad)
        if sys.post_step is not None:
            x_new = sys.post_step(x_new, x0)
        if states is not None:
            states[i + 1] = x_new
        x = x_new
    return x


def integrate(sys: SdeSystem, scheme: str, grid, x0) -> Trajectory:
    """Apply the chosen step over every grid interval, recording every state.

    Deterministic given (sys, scheme, grid, x0).  Raises
    :class:`IntegrationDiverged` on the first non-finite component.
    """
    if scheme not in _KERNELS:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {tuple(_KERNELS)}")
    if scheme == "rk4" and sys.channels:
        raise ValueError(
            f"rk4 steps the drift alone; system {sys.name!r} has {sys.channels} "
            "noise channels (use heun_strat or euler_ito)"
        )
    if scheme != "rk4" and grid.channels != sys.channels:
        raise ValueError(
            f"grid has {grid.channels} channels, system expects {sys.channels}"
        )
    x = np.asarray(x0, dtype=float)
    if x.shape != (sys.state_dim,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({sys.state_dim},)")
    M = grid.steps
    dt = grid.dt
    meta = {
        "system": sys.name,
        "scheme": scheme,
        "seed": None if grid.seed is None else int(grid.seed),
        "M": int(M),
        "T": float(grid.T),
        "generator": grid.generator,
    }
    states = np.empty((M + 1, sys.state_dim))
    try:
        _drive(sys, scheme, x, dt, grid.dW, states=states)
    except IntegrationDiverged as err:
        err.partial = Trajectory(times=np.arange(err.step) * dt, states=states[: err.step],
                                 labels=tuple(sys.labels),
                                 metadata={**meta, "diverged_at": err.step})
        raise
    times = np.arange(M + 1) * dt
    return Trajectory(times=times, states=states, labels=tuple(sys.labels), metadata=meta)


def _write_rows(path, header, rows) -> None:
    """CSV of a header row, then rows of floats as shortest-roundtrip float64 text."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) for v in row] for row in rows)


def _write_json(path, doc) -> None:
    """``doc`` as sorted, indented JSON with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trajectory_csv(traj: Trajectory, csv_path, meta_path=None) -> None:
    """CSV with a header row (t plus state labels) and shortest-roundtrip
    float64 text; optional JSON metadata sidecar."""
    labels = traj.labels or tuple(f"x{i}" for i in range(traj.states.shape[1]))
    _write_rows(csv_path, ("t",) + tuple(labels), np.column_stack([traj.times, traj.states]))
    if meta_path is not None:
        _write_json(meta_path, traj.metadata)


def read_trajectory_csv(csv_path) -> Trajectory:
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = np.array([[float(v) for v in row] for row in reader])
    return Trajectory(times=rows[:, 0], states=rows[:, 1:], labels=tuple(header[1:]))
