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

from .algebra import _aligned

__all__ = [
    "SdeSystem",
    "Trajectory",
    "IntegrationDiverged",
    "heun_stratonovich_step",
    "euler_ito_step",
    "integrate",
    "write_trajectory_csv",
]

class IntegrationDiverged(RuntimeError):
    """A state component became non-finite; carries the failing step index.

    ``path`` is the index of the failing ensemble path (None for a single
    path); ``partial`` holds the trajectory up to the last finite state when
    :func:`integrate` raised this.
    """

    def __init__(self, step: int, last_state: np.ndarray, path: Optional[int] = None):
        self.step = step
        self.last_state = np.array(last_state)
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
    ``stacked(lead)`` returns one run's evaluator ``F(t, x, out)``, which
    writes the drift into ``out[0]`` and the C noise fields into
    ``out[1:]`` of a (1 + C, *lead, d) stack and returns out; x has the
    leading axes ``lead``, or a leading slice of their first axis, which
    out matches.  F may keep scratch between calls and must not keep out;
    it settles what a run fixes (kernels, velocity rule, noise rows) when
    made.  ``stacked(lead, ito=True)``, the Ito mode, adds the correction,
    taken from its own noise rows, to row 0.  It serves only while those
    callbacks are the system's own; any other system, such as one rebuilt
    by ``dataclasses.replace``, steps its own callbacks.
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

    def sup(self) -> float:
        """The largest absolute entry over all states, e.g. an observable's drift."""
        return float(np.max(np.abs(self.states)))


def _stack_buffer(rows: tuple, lead: tuple, width: int) -> np.ndarray:
    """An empty (*rows, *lead, width) array with the stack axes outermost in
    memory.  A batch (E,) gets component-major rows, the layout ensemble
    states keep, in which the fields evaluate several times faster; else each
    index of the first axis is one block.  Each row or block of a cache line
    or more starts on one, in any leading slice too (``algebra._aligned``)."""
    if len(lead) == 1:
        return _aligned(rows + (width,) + lead).swapaxes(-1, -2)
    block = math.prod(rows[1:] + lead) * width
    return _aligned((rows[0], block)).reshape(rows + lead + (width,))


def _stacked(sys: SdeSystem, lead: tuple, ito: bool = False):
    """``F(t, x, out)`` for states with leading axes ``lead``: the drift (plus
    the Ito correction when ``ito``) into row 0 and channel k's field into
    row k of ``out``, (1 + C, *lead, d); the builder's evaluator while its
    ``fields`` are this system's callbacks (see :class:`SdeSystem`), else a
    stack of the system's own callbacks."""
    own = getattr(sys.drift, "stacked", None)
    mine = (sys.drift, sys.diffusion, sys.ito_correction)[:2 + ito]
    if own is not None and all(a is b for a, b in zip(own.fields, mine)):
        return own(lead, ito)
    drift, diffusion, correction, C = sys.drift, sys.diffusion, sys.ito_correction, sys.channels

    def stacked(t, x, out):
        out[0] = drift(t, x)
        if ito:
            out[0] += correction(t, x)
        if C:
            out[1:] = np.moveaxis(diffusion(t, x), -2, 0)
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
# drift), the run's workspace views (see _run) and one step's rows of the
# increment table; each writes the new state into xn and returns it.  Each
# sum over the leading stack axis adds the drift first, then channels
# 1..C, as one reduction; the stacks keep that axis outermost in memory, so
# numpy adds the rows in that order.  The predictor's products go into the
# second stack before F overwrites it with the corrector's fields, and the
# corrector and the Euler-Ito step work in place; x + y == y + x, so the
# predictor and row 0 (fx0, out0) may take x last.  np.add.reduce(a, 0) is
# the reduction a.sum(axis=0) runs, without its Python wrapper.

def _heun(F, dt, fx, out, fx0, out0, xp, t, x, inc, half, xn):
    F(t, x, fx)
    np.multiply(fx, inc, out=out)
    np.add.reduce(out, 0, out=xp)
    xp += x
    F(t + dt, xp, out)
    out += fx
    out *= half
    out0 += x
    return np.add.reduce(out, 0, out=xn)


def _euler_ito(F, dt, fx, out, fx0, out0, xp, t, x, inc, half, xn):
    F(t, x, fx)
    fx *= inc
    fx0 += x
    return np.add.reduce(fx, 0, out=xn)


def _rk4(drift, dt, fx, out, fx0, out0, xp, t, x, inc, half, xn):
    k1 = drift(t, x)
    k2 = drift(t + 0.5 * dt, x + 0.5 * dt * k1)
    k3 = drift(t + 0.5 * dt, x + 0.5 * dt * k2)
    k4 = drift(t + dt, x + dt * k3)
    xn[...] = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return xn


_KERNELS = {"heun_strat": _heun, "euler_ito": _euler_ito, "rk4": _rk4}


def _lead(x0: np.ndarray, wlead: tuple) -> tuple:
    """The leading axes of ``x0`` and of increments ``wlead``, aligned from
    the right; np.broadcast_shapes (about 3 us) only when they differ."""
    lead = x0.shape[:-1]
    return lead if lead == wlead else np.broadcast_shapes(lead, wlead)


def _run(sys: SdeSystem, scheme: str, x0, dt: float, dW):
    """One run of ``scheme`` on states like ``x0`` over the rows of ``dW``,
    (M, ..., C), whose leading axes, aligned from the right, make ``lead``.
    Its workspace, which every step reuses, holds a table of increments
    (dt, dW^1, ..., dW^C) and their halves, for a single path up to
    ``_CHECK_STEPS`` steps at the state's width, for a batch one step (1 +
    C, *lead, 1); two stage stacks, the predictor and three component-major
    states, laid out by :func:`_stack_buffer`.  Returns ``block(x0, dW)``: it
    copies x0 into the first state and returns ``step(t, x, inc, half, xn)``,
    ``table(lo, hi)``, which yields (i, inc, half) for rows lo..hi, laid out
    a table at a time in two calls, the three states and the number of rows,
    in leading slices of the buffers for a block of fewer paths.  The
    stochastic schemes step the stacked fields, euler_ito in Ito mode; rk4
    steps the drift alone and takes only the number of rows.
    """
    x0 = np.asarray(x0, dtype=float)
    if scheme == "euler_ito" and sys.ito_correction is None:
        raise ValueError(
            f"system {sys.name!r} has no ito_correction; supply one "
            "(exactly zero is acceptable) before using the euler_ito scheme"
        )
    wlead = () if scheme == "rk4" else _checked_increments(sys, dW).shape[1:-1]
    lead, C, d = _lead(x0, wlead), sys.channels, x0.shape[-1]
    F = sys.drift if scheme == "rk4" else _stacked(sys, lead, ito=scheme == "euler_ito")
    steps, width = (min(_CHECK_STEPS, len(dW)), d) if not lead else (1, 1)
    tables = _stack_buffer((2, steps, 1 + C), lead, width)
    tables[0, :, 0] = dt
    views = (*tables, *_stack_buffer((2, 1 + C), lead, d), *_stack_buffer((4,), lead, d))

    def block(x0, dW):
        x0 = np.asarray(x0, dtype=float)
        dW = np.zeros((len(dW), 0)) if scheme == "rk4" else np.asarray(dW, dtype=float)
        wlead = dW.shape[1:-1]
        here = _lead(x0, wlead)
        inc, half, fx, out, xp, x, y, z = views if here == lead else [
            v[(slice(None),) * (v.ndim - len(lead) - 1) + (slice(here[0]),)] for v in views]
        x[...] = x0
        rows = dW.transpose(0, -1, *range(1, dW.ndim - 1)).reshape(
            (len(dW), dW.shape[-1]) + (1,) * (len(here) - len(wlead)) + wlead + (1,))
        step = functools.partial(_KERNELS[scheme], F, dt, fx, out, fx[0], out[0], xp)
        incs, halves, noise = list(inc), list(half), inc[:, 1:]

        def table(lo, hi):
            for a in range(lo, hi, len(incs)):
                n = min(len(incs), hi - a)
                noise[:n] = rows[a:a + n]
                np.multiply(inc, 0.5, out=half)
                yield from zip(range(a, a + n), incs, halves)

        return step, table, x, y, z, len(rows)

    return block


def _one_step(sys: SdeSystem, scheme: str, t: float, x, dt: float, dW) -> np.ndarray:
    """One step of a stochastic scheme; the leading axes of x and dW
    broadcast against each other, aligned from the right."""
    dW = _checked_increments(sys, dW)[None]
    step, table, x, y, _, _ = _run(sys, scheme, x, dt, dW)(x, dW)
    (_, inc, half), = table(0, 1)
    return step(t, x, inc, half, y)


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


_CHECK_STEPS = 64  # steps per finiteness test in _drive


def _drive(sys: SdeSystem, scheme: str, x0, dt: float, dW, states=None,
           first_path: int = 0, run=None) -> np.ndarray:
    """Step ``x0``, one state (d,) or a batch (E, d), over the rows of ``dW``,
    (M, C) or (M, E, C), and return the final state.  A step's increments
    line up with the state's leading axes from the right, so an (M, C) table
    drives every row of a batch alike; rk4 takes only the number of rows.

    ``run``, a ``_run`` of the same system, scheme and dt for at least as
    many paths, lends its workspace, which the returned state lives in until
    its next block; without one the call sets up its own.  ``states[i]``, if
    given, receives the state after i steps.  The first non-finite row raises
    :class:`IntegrationDiverged` with the step, its last finite state and,
    for a batch, its path index ``first_path + row``.  A step adds the state
    to its increment, and inf or NaN plus anything is not finite, so the
    state is tested once per ``_CHECK_STEPS`` steps and after the last; a
    failed block is stepped again from its first state, testing each step.
    """
    step, table, x, y, z, M = (run or _run(sys, scheme, x0, dt, dW))(x0, dW)
    # a single path steps straight into the states it records
    single = states is not None and x.ndim == 1
    if states is not None:
        states[0] = x

    def advance(x, y, start, stop, check=False):
        for i, inc, half in table(start, stop):
            x_new = step(i * dt, x, inc, half, states[i + 1] if single else y)
            if check and not np.isfinite(x_new).all():
                if x.ndim == 1:
                    raise IntegrationDiverged(step=i + 1, last_state=x)
                bad = int(np.argmin(np.isfinite(x_new).all(axis=-1)))
                raise IntegrationDiverged(step=i + 1, last_state=x[bad], path=first_path + bad)
            if states is not None and not single:
                states[i + 1] = x_new
            x, y = x_new, x
        return x, y

    # blowup is detected and reported below; suppress the transient
    # overflow warnings the diverging steps themselves emit
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, M, _CHECK_STEPS):
            stop = min(start + _CHECK_STEPS, M)
            z[...] = x  # the block's first state, which a replay starts from
            x, y = advance(x, y, start, stop)
            # the sum of all entries is finite only if every entry is; a
            # finite state whose sum overflows takes the per-entry check
            if not math.isfinite(np.add.reduce(x, None)) and not np.isfinite(x).all():
                x, y = advance(z, y, start, stop, check=True)
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
    """CSV of a header row, then rows of floats as their repr, the shortest round-trip text."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(np.asarray(rows, dtype=float).tolist())


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
