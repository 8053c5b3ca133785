"""Scalar fields with finite-difference fallbacks and Poisson bracket evaluators.

A :class:`ScalarField` is a real function of a flat state vector with an
optional analytic gradient, both broadcast over leading axes of the states;
:meth:`ScalarField.gradient` falls back to :func:`fd_jacobian`, central
differences with step ``1e-5 * (1 + |x|)``, when no gradient was supplied.

Poisson brackets are represented by their (state-dependent) Poisson tensor
``P(x)``, so every bracket evaluates as ``grad(f) . P(x) . grad(g)``, one
value per state of a (..., d) array.  Three
structures are provided: the canonical bracket on T*Q in (q, p) coordinates,
the minus Lie-Poisson bracket on the dual of a Lie algebra, and the mixed
bracket on (dual algebra) x Q used by the Hamel-form equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import LieAlgebraSpec, ad_star

__all__ = [
    "ScalarField",
    "fd_jacobian",
    "FD_STEP_SCALE",
    "PoissonBracket",
    "CanonicalBracket",
    "LiePoissonBracket",
    "HamelBracket",
    "double_bracket",
]

FD_STEP_SCALE = 1e-5


def _dot(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x . w over the last axis, broadcast over leading axes.

    Each row rounds as ``float(np.dot(x, w))`` does on that row alone, in
    either memory layout (BLAS rounds a strided row of d > 3 differently, so
    both are made contiguous); einsum and ``np.sum(x * w, -1)`` do not.
    """
    x, w = np.ascontiguousarray(x), np.ascontiguousarray(w)
    return (x[..., None, :] @ w[..., :, None])[..., 0, 0]


def fd_jacobian(fn: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
    """Central differences of ``fn`` along the last axis of ``x``, one state
    (d,) or a batch (..., d), appended as a new last axis.  Each row steps by
    ``FD_STEP_SCALE`` times (1 + |row|), whatever rows are batched with it.
    ``fn`` must broadcast: it is called once, on all 2d shifted copies stacked
    as (2, d, ..., d).  The result is C-contiguous."""
    x = np.asarray(x, dtype=float)
    h = FD_STEP_SCALE * (1.0 + np.sqrt(_dot(x, x)))
    shifted = np.broadcast_to(x, (2, x.shape[-1]) + x.shape).copy()
    j = np.arange(x.shape[-1])
    shifted[0, j, ..., j] += h
    shifted[1, j, ..., j] -= h
    vals = np.asarray(fn(shifted))
    diff = (vals[0] - vals[1]) / (2.0 * h).reshape(h.shape + (1,) * (vals.ndim - 2 - h.ndim))
    return np.ascontiguousarray(np.moveaxis(diff, 0, -1))


@dataclass(frozen=True)
class ScalarField:
    """Real-valued function of a flat state vector.

    ``value(x)`` broadcasts over leading axes of x: states of shape
    (..., d) give values of shape (...), as the ``SdeSystem`` callbacks do.
    Calling the field on one state returns a float.  ``grad(x)`` broadcasts
    the same way, with shape (..., d); it is used when provided, otherwise
    gradients come from central finite differences of ``value``.
    """

    value: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""

    def __call__(self, x) -> float:
        return float(self.value(np.asarray(x, dtype=float)))

    def evaluate(self, states) -> np.ndarray:
        """``value`` on every state of ``states`` (..., d) in one call, shape (...)."""
        states = np.asarray(states, dtype=float)
        try:
            out = np.asarray(self.value(states), dtype=float)
        except (TypeError, ValueError, IndexError) as err:
            raise ValueError(
                f"field {self.name!r} failed on states of shape {states.shape} "
                f"({err}); its value must broadcast over leading axes"
            ) from err
        if out.shape != states.shape[:-1]:
            raise ValueError(
                f"field {self.name!r} returned shape {out.shape} for states of shape "
                f"{states.shape}; its value must broadcast over leading axes"
            )
        return out

    def gradient(self, x) -> np.ndarray:
        """Gradient of the same shape as x (..., d)."""
        x = np.asarray(x, dtype=float)
        if self.grad is None:
            return fd_jacobian(self.evaluate, x)
        out = np.asarray(self.grad(x), dtype=float)
        if out.shape != x.shape:
            raise ValueError(f"field {self.name!r} gradient returned shape {out.shape} for "
                             f"states of shape {x.shape}; its grad must broadcast")
        return out

    @staticmethod
    def coordinate(i: int, dim: int, name: str = "") -> "ScalarField":
        """The i-th coordinate function on R^dim."""
        e = np.zeros(dim)
        e[i] = 1.0
        return ScalarField(
            value=lambda x, _i=i: x[..., _i],
            grad=lambda x, _e=e: np.full(np.shape(x), _e),
            name=name or f"x{i}",
        )

    @staticmethod
    def constant(c: float, name: str = "const") -> "ScalarField":
        return ScalarField(value=lambda x, _c=float(c): np.full(np.shape(x)[:-1], _c),
                           grad=lambda x: np.zeros(np.shape(x)), name=name)

    @staticmethod
    def linear(w, name: str = "") -> "ScalarField":
        """The pairing x -> w . x."""
        w = np.asarray(w, dtype=float)
        return ScalarField(
            value=lambda x, _w=w: _dot(x, _w),
            grad=lambda x, _w=w: np.full(np.shape(x), _w),
            name=name,
        )


class PoissonBracket:
    """Poisson bracket {f, g}(x) = grad(f) . P(x) . grad(g).

    ``tensor(x)`` is a C-contiguous (..., d, d) array, or one (d, d) array
    for all states.  The bracket runs on a row-major copy of x, so each row
    rounds as that state alone does, in either layout.
    """

    dim: int

    def tensor(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, f: ScalarField, g: ScalarField, x):
        """One value per state of x (..., d); a float for one state."""
        x = np.ascontiguousarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise ValueError(f"state has shape {x.shape}, expected (..., {self.dim})")
        out = _dot((f.gradient(x)[..., None, :] @ self.tensor(x))[..., 0, :], g.gradient(x))
        return float(out) if x.ndim == 1 else out


class CanonicalBracket(PoissonBracket):
    """{f, g} = df/dq^k dg/dp_k - dg/dq^k df/dp_k on packed (q, p) states."""

    def __init__(self, n: int):
        self.n = n
        self.dim = 2 * n
        eye = np.eye(n)
        self._tensor = np.block([[np.zeros((n, n)), eye], [-eye, np.zeros((n, n))]])

    def tensor(self, x: np.ndarray) -> np.ndarray:
        return self._tensor


class LiePoissonBracket(PoissonBracket):
    """Minus Lie-Poisson bracket {f, g}(m) = -c[a][b][g] m_g df/dm_a dg/dm_b."""

    def __init__(self, alg: LieAlgebraSpec):
        self.alg = alg
        self.dim = alg.dim

    def tensor(self, m: np.ndarray) -> np.ndarray:
        # column b is ad*(e_b, m), in C order so that rows round as one state
        star = ad_star(self.alg, np.eye(self.dim), m[..., None, :])
        return np.ascontiguousarray(star.swapaxes(-1, -2))


class HamelBracket(PoissonBracket):
    """Mixed bracket on (m, q) states: Lie-Poisson block coupled to Q via A.

    Tensor blocks: P[a][b] = -c[a][b][g] m_g, P[a][r+j] = -A_a^j(q),
    P[r+i][b] = A_b^i(q), P[r+i][r+j] = 0.
    """

    def __init__(self, chart):
        self.chart = chart
        self.alg = chart.alg
        self.r = chart.alg.dim
        self.n = chart.n
        self.dim = self.r + self.n

    def tensor(self, x: np.ndarray) -> np.ndarray:
        r, n = self.r, self.n
        m, q = x[..., :r], x[..., r:]
        a = self.chart.coefficients(q)
        out = np.zeros(x.shape[:-1] + (r + n, r + n))
        out[..., :r, :r] = ad_star(self.alg, np.eye(r), m[..., None, :]).swapaxes(-1, -2)
        out[..., :r, r:] = -a
        out[..., r:, :r] = a.swapaxes(-1, -2)
        return out


def double_bracket(bracket: PoissonBracket, g: ScalarField, f: ScalarField, x):
    """Nested bracket {g, {g, f}}(x), one value per state of x (..., d).

    The inner bracket is wrapped as a plain field, so the outer gradient is
    taken by finite differences of actual inner-bracket evaluations; this is
    the independent oracle against which closed-form Ito corrections are
    checked.
    """
    inner = ScalarField(value=lambda y: bracket(g, f, y), name=f"{{{g.name},{f.name}}}")
    return bracket(g, inner, x)
