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
import functools
import json
import math
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
    be pure and broadcast over leading axes of x.  ``momentum(x)`` is the
    level's momentum map, (..., d) -> (..., r).

    A builder may give ``drift`` an attribute ``stacked``, with
    ``drift.stacked.fields = (drift, diffusion, ito_correction)``:
    ``stacked()`` returns an evaluator ``F(t, x)`` of the drift and the C
    noise fields as one new (1 + C, ..., d) array, one per run, which may
    keep scratch between calls.  ``stacked(ito=True)``, the Ito mode, adds
    the correction, taken from its own noise rows, to row 0.  It serves
    only while those callbacks are the system's own; any other system, such
    as one rebuilt by ``dataclasses.replace``, steps its own callbacks.
    """

    state_dim: int
    channels: int
    drift: Callable[[float, np.ndarray], np.ndarray]
    diffusion: Callable[[float, np.ndarray], np.ndarray]
    ito_correction: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    labels: tuple = ()
    name: str = ""
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


def _stacked(sys: SdeSystem, ito: bool = False) -> Callable[[float, np.ndarray], np.ndarray]:
    """``F(t, x)``: the drift (plus the Ito correction when ``ito``) as row 0
    and channel k's field as row k of one new (1 + C, ..., d) array; the
    builder's evaluator while its ``fields`` are this system's callbacks
    (see :class:`SdeSystem`), else a stack of the system's own callbacks."""
    own = getattr(sys.drift, "stacked", None)
    mine = (sys.drift, sys.diffusion, sys.ito_correction)[:2 + ito]
    if own is not None and all(a is b for a, b in zip(own.fields, mine)):
        return own(ito=ito)
    drift, diffusion, correction, C = sys.drift, sys.diffusion, sys.ito_correction, sys.channels

    def stacked(t, x):
        f = drift(t, x)
        if ito:
            f = f + correction(t, x)
        if not C:
            return f[None].copy()
        g = diffusion(t, x)
        out = np.empty((1 + C,) + np.broadcast_shapes(f.shape, g.shape[:-2] + g.shape[-1:]))
        out[0] = f
        out[1:] = np.moveaxis(g, -2, 0)
        return out

    return stacked


def _checked_increments(sys: SdeSystem, dW) -> np.ndarray:
    """``dW`` as floats; refuses one whose last axis does not hold one
    increment per channel."""
    dW = np.asarray(dW, dtype=float)
    if dW.ndim == 0 or dW.shape[-1] != sys.channels:
        given = f"{dW.shape[-1]} increments" if dW.ndim else "a scalar"
        raise ValueError(
            f"dW holds {given} per step, system {sys.name!r} has "
            f"{sys.channels} noise channels"
        )
    return dW


def _checked_state(sys: SdeSystem, x0) -> np.ndarray:
    """``x0`` as floats; refuses one that is not a single finite (state_dim,) state."""
    x = np.asarray(x0, dtype=float)
    if x.shape != (sys.state_dim,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({sys.state_dim},)")
    if not np.isfinite(x).all():
        raise ValueError(f"x0 {x} is not finite")
    return x


# The kernels take one stage evaluator F (the stacked fields, or rk4's
# drift) and the increments inc of one step.  Each sum over the leading
# stack axis adds the drift first, then channels 1..C, as one reduction; the
# stacked arrays keep that axis outermost in memory, so numpy adds the rows
# in that order.  The corrector and the Euler-Ito step work in the array F
# returned, which saves (1 + C)-row temporaries; x + y == y + x, so row 0
# may take x last.  np.add.reduce(a, 0) is the reduction a.sum(axis=0)
# runs, without its Python wrapper.

def _heun(F, t: float, x: np.ndarray, dt: float, inc: np.ndarray) -> np.ndarray:
    fx = F(t, x)
    xp = x + np.add.reduce(fx * inc, 0)
    out = F(t + dt, xp)
    out += fx
    out *= 0.5 * inc
    out[0] += x
    return np.add.reduce(out, 0)


def _euler_ito(F, t: float, x: np.ndarray, dt: float, inc: np.ndarray) -> np.ndarray:
    out = F(t, x)
    out *= inc
    out[0] += x
    return np.add.reduce(out, 0)


_KERNELS = {"heun_strat": _heun, "euler_ito": _euler_ito,
            "rk4": lambda drift, t, x, dt, inc: rk4_step(drift, t, x, dt)}


def _run(sys: SdeSystem, scheme: str, x0, dt: float, dW):
    """One run's set-up for ``scheme`` over the rows of ``dW``, (M, ..., C).

    Returns the step ``step(t, x, dt, inc)``; a copy of ``x0`` broadcast to
    ``lead``, its leading axes and the rows' aligned from the right; the
    increment buffer (dt, dW^1, ..., dW^C) as one (1 + C, *lead, 1) array,
    row 0 filled; and the channel-first views ``rows[i]`` that fill rows 1..C.
    The stochastic schemes step the stacked fields, euler_ito in Ito mode;
    rk4 steps the drift alone and takes only the number of rows.
    """
    x0 = np.asarray(x0, dtype=float)
    if scheme == "rk4":
        F, dW = sys.drift, np.zeros((len(dW), sys.channels))
    elif scheme == "euler_ito" and sys.ito_correction is None:
        raise ValueError(
            f"system {sys.name!r} has no ito_correction; supply one "
            "(exactly zero is acceptable) before using the euler_ito scheme"
        )
    else:
        F, dW = _stacked(sys, ito=scheme == "euler_ito"), _checked_increments(sys, dW)
    lead, wlead = x0.shape[:-1], dW.shape[1:-1]
    if wlead != lead:
        lead = np.broadcast_shapes(lead, wlead)
        x0 = np.broadcast_to(x0, lead + x0.shape[-1:])
    inc = np.empty((1 + sys.channels,) + lead + (1,))
    inc[0] = dt
    rows = dW.transpose(0, -1, *range(1, dW.ndim - 1)).reshape(
        (len(dW), dW.shape[-1]) + (1,) * (len(lead) - len(wlead)) + wlead + (1,))
    return functools.partial(_KERNELS[scheme], F), np.array(x0), inc, rows


def _one_step(sys: SdeSystem, scheme: str, t: float, x, dt: float, dW) -> np.ndarray:
    """One step of a stochastic scheme; the leading axes of x and dW
    broadcast against each other, aligned from the right."""
    step, x, inc, rows = _run(sys, scheme, x, dt, _checked_increments(sys, dW)[None])
    inc[1:] = rows[0]
    return step(t, x, dt, inc)


def heun_stratonovich_step(sys: SdeSystem, t: float, x, dt: float, dW) -> np.ndarray:
    """One stochastic Heun step for the Stratonovich interpretation.

    Predictor: Euler with drift and noise; corrector: trapezoidal average of
    both fields at the base point and the predictor.  ``dW`` holds one
    increment per channel on its last axis.
    """
    return _one_step(sys, "heun_strat", t, x, dt, dW)


def euler_ito_step(sys: SdeSystem, t: float, x, dt: float, dW) -> np.ndarray:
    """One Euler-Maruyama step of the Ito form drift + correction.

    Refuses to run without an ito_correction: silently integrating the
    Stratonovich fields in Ito form would solve a different equation.
    """
    return _one_step(sys, "euler_ito", t, x, dt, dW)


def rk4_step(drift: Callable[[float, np.ndarray], np.ndarray], t: float, x,
             dt: float) -> np.ndarray:
    """Classical fourth-order Runge-Kutta step for the drift alone."""
    x = np.asarray(x, dtype=float)
    k1 = drift(t, x)
    k2 = drift(t + 0.5 * dt, x + 0.5 * dt * k1)
    k3 = drift(t + 0.5 * dt, x + 0.5 * dt * k2)
    k4 = drift(t + dt, x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _drive(sys: SdeSystem, scheme: str, x0, dt: float, dW, states=None,
           first_path: int = 0) -> np.ndarray:
    """Step ``x0``, one state (d,) or a batch (E, d), over the rows of ``dW``,
    (M, C) or (M, E, C), and return the final state.  A step's increments
    line up with the state's leading axes from the right, so an (M, C) table
    drives every row of a batch alike; rk4 takes only the number of rows.

    ``states[i]``, if given, receives the state after i steps.  The first
    non-finite row raises :class:`IntegrationDiverged` with the step, its
    last finite state and, for a batch, its path index ``first_path + row``.
    """
    step, x, inc, rows = _run(sys, scheme, x0, dt, dW)
    if states is not None:
        states[0] = x
    # blowup is detected and reported below; suppress the transient
    # overflow warnings the diverging step itself emits
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(rows)):
            inc[1:] = rows[i]
            x_new = step(i * dt, x, dt, inc)
            # the sum of all entries is finite only if every entry is; a
            # finite state whose sum overflows takes the per-entry check
            if not math.isfinite(np.add.reduce(x_new, None)) and not np.isfinite(x_new).all():
                if x.ndim == 1:
                    raise IntegrationDiverged(step=i + 1, last_state=x)
                bad = int(np.argmin(np.isfinite(x_new).all(axis=-1)))
                raise IntegrationDiverged(step=i + 1, last_state=x[bad],
                                          path=first_path + bad)
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
    x = _checked_state(sys, x0)
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
