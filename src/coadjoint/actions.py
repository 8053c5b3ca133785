"""Coordinate charts for Lie algebra actions on Q and the cotangent-lift momentum map.

A chart stores the coefficient functions A_a^i(q) of the action vector
fields, plus their first and second derivatives (analytic for the built-in
charts, central finite differences as a fallback for user charts).  The
rotation chart's sign is pinned so that the vector-field commutators close
on the so(3) structure constants of :mod:`coadjoint.algebra` with a plus
sign; with that choice the momentum map is m = p x q.

All chart callbacks broadcast over leading axes of q, which the ensemble
Monte-Carlo paths rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import LieAlgebraSpec, _einsum, builtin
from .fields import fd_jacobian

__all__ = [
    "ActionChart",
    "PhaseState",
    "momentum_map",
    "equivariance_residual",
    "builtin_chart",
    "chart_names",
]


@dataclass(frozen=True)
class PhaseState:
    """Standard cotangent coordinates (q, p)."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if q.shape != p.shape:
            raise ValueError(f"q and p must conform, got shapes {q.shape} and {p.shape}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    def packed(self) -> np.ndarray:
        return np.concatenate([self.q, self.p], axis=-1)


@dataclass(frozen=True)
class ActionChart:
    """Action coefficients A_a^i(q) on one coordinate chart of Q.

    ``A(q)`` returns shape (..., r, n); ``dA(q)`` shape (..., r, n, n) with
    dA[..., a, i, j] = dA_a^i/dq^j; ``d2A(q)`` shape (..., r, n, n, n) with
    the two derivative indices last.  Missing derivative callbacks fall back
    to :func:`coadjoint.fields.fd_jacobian` (built-in charts are always analytic).
    """

    alg: LieAlgebraSpec
    n: int
    A: Callable[[np.ndarray], np.ndarray]
    dA: Optional[Callable[[np.ndarray], np.ndarray]] = None
    d2A: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""

    def coefficients(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        return np.asarray(self.A(q), dtype=float)

    def d_coefficients(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if self.dA is not None:
            return np.asarray(self.dA(q), dtype=float)
        return fd_jacobian(self.coefficients, q)

    def d2_coefficients(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if self.d2A is not None:
            return np.asarray(self.d2A(q), dtype=float)
        return fd_jacobian(self.d_coefficients, q)

    def closure_residual(self, q) -> float:
        """max |[A_a, A_b]^k - c_ab^g A_g^k| at q."""
        a = self.coefficients(q)
        da = self.d_coefficients(q)
        # [A_a, A_b]^k = A_a^s dA_b^k/dq^s - A_b^s dA_a^k/dq^s
        comm = _einsum("...as,...bks->...abk", a, da)
        comm = comm - comm.swapaxes(-3, -2)
        target = _einsum("abg,...gk->...abk", self.alg.c, a)
        return float(np.max(np.abs(comm - target)))


def momentum_map(chart: ActionChart, state) -> np.ndarray:
    """Cotangent-lift momentum map m_a = p_i A_a^i(q).

    ``state`` is a PhaseState or a packed (..., 2n) array; a last axis that
    is not 2n wide is refused.
    """
    x = np.asarray(state.packed() if isinstance(state, PhaseState) else state, dtype=float)
    if x.shape[-1:] != (2 * chart.n,):
        raise ValueError(f"packed phase state has shape {x.shape}; chart {chart.name!r} "
                         f"needs a last axis of 2n = {2 * chart.n}")
    q, p = x[..., : chart.n], x[..., chart.n :]
    return _einsum("...ai,...i->...a", chart.coefficients(q), p)


def equivariance_residual(chart: ActionChart, state: PhaseState) -> np.ndarray:
    """R_ab = {m_a, m_b}(s) + c_ab^g m_g(s), with analytic chart derivatives.

    Identically zero for a valid chart; a corrupted A shows up as a large
    entry.
    """
    q, p = state.q, state.p
    a = chart.coefficients(q)
    da = chart.d_coefficients(q)
    m = _einsum("...ai,...i->...a", a, p)
    # {m_a, m_b} = (p_j dA_a^j/dq^k) A_b^k - (p_j dA_b^j/dq^k) A_a^k
    grad_q_m = _einsum("...j,...ajk->...ak", p, da)
    pb = _einsum("...ak,...bk->...ab", grad_q_m, a)
    pb = pb - pb.swapaxes(-1, -2)
    return pb + _einsum("abg,...g->...ab", chart.alg.c, m)


def _so3_chart() -> ActionChart:
    eps = builtin("so3").c  # Levi-Civita

    def A(q):
        return _einsum("aij,...j->...ai", eps, q)

    def dA(q):
        out = np.empty(q.shape[:-1] + (3, 3, 3))
        out[...] = eps
        return out

    def d2A(q):
        return np.zeros(q.shape[:-1] + (3, 3, 3, 3))

    # Sign pinned so [A_a, A_b] = +c_ab^g A_g with c = Levi-Civita; then
    # A_a(q) = q x e_a and the momentum map is m = p x q.
    return ActionChart(alg=builtin("so3"), n=3, A=A, dA=dA, d2A=d2A, name="so3_on_r3")


def _translation_chart() -> ActionChart:
    eye = np.eye(3)

    def A(q):
        out = np.empty(q.shape[:-1] + (3, 3))
        out[...] = eye
        return out

    def dA(q):
        return np.zeros(q.shape[:-1] + (3, 3, 3))

    def d2A(q):
        return np.zeros(q.shape[:-1] + (3, 3, 3, 3))

    return ActionChart(alg=builtin("r3"), n=3, A=A, dA=dA, d2A=d2A, name="rn_translation")


def _h3_chart() -> ActionChart:
    # A_1 = d/dx, A_2 = d/dy + x d/dz, A_3 = d/dz; closure gives c_12^3 = 1.
    def A(q):
        out = np.zeros(q.shape[:-1] + (3, 3))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = 1.0
        out[..., 1, 2] = q[..., 0]
        out[..., 2, 2] = 1.0
        return out

    def dA(q):
        out = np.zeros(q.shape[:-1] + (3, 3, 3))
        out[..., 1, 2, 0] = 1.0
        return out

    def d2A(q):
        return np.zeros(q.shape[:-1] + (3, 3, 3, 3))

    return ActionChart(alg=builtin("h3"), n=3, A=A, dA=dA, d2A=d2A, name="h3_on_r3")


_CHART_REGISTRY: dict[str, Callable[[], ActionChart]] = {
    "so3_on_r3": _so3_chart,
    "rn_translation": _translation_chart,
    "h3_on_r3": _h3_chart,
}


def builtin_chart(name: str) -> ActionChart:
    """Built-in charts: "so3_on_r3", "rn_translation" (r3 translating R^3), "h3_on_r3"."""
    try:
        make = _CHART_REGISTRY[name]
    except KeyError:
        raise LookupError(
            f"unknown chart {name!r}; available: {sorted(_CHART_REGISTRY)}"
        ) from None
    return make()


def chart_names() -> list[str]:
    return sorted(_CHART_REGISTRY)
