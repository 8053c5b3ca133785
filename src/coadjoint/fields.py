"""Scalar fields with finite-difference fallbacks and Poisson bracket evaluators.

A :class:`ScalarField` is a real function of a flat state vector, whose
``value`` broadcasts over leading axes of the states, together with an
optional analytic gradient of one state; :meth:`ScalarField.gradient` falls
back to :func:`fd_jacobian`, central differences with step
``1e-5 * (1 + |x|)``, when no analytic gradient was supplied.

Poisson brackets are represented by their (state-dependent) Poisson tensor
``P(x)``, so every bracket evaluates as ``grad(f) . P(x) . grad(g)``.  Three
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
    either memory layout; einsum and ``np.sum(x * w, -1)`` do not.
    """
    return (x[..., None, :] @ w[..., :, None])[..., 0, 0]


def fd_jacobian(fn: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
    """Central differences of ``fn`` along the last axis of ``x``, one state
    (d,) or a batch (..., d), appended as a new last axis.  Each row steps by
    ``FD_STEP_SCALE`` times (1 + |row|), whatever rows are batched with it."""
    x = np.asarray(x, dtype=float)
    h = FD_STEP_SCALE * (1.0 + np.sqrt(_dot(x, x)))
    cols = []
    for j in range(x.shape[-1]):
        xp, xm = x.copy(), x.copy()
        xp[..., j] += h
        xm[..., j] -= h
        diff = np.asarray(fn(xp) - fn(xm))
        cols.append(diff / (2.0 * h).reshape(h.shape + (1,) * (diff.ndim - h.ndim)))
    return np.stack(cols, axis=-1)


@dataclass(frozen=True)
class ScalarField:
    """Real-valued function of a flat state vector.

    ``value(x)`` broadcasts over leading axes of x: states of shape
    (..., d) give values of shape (...), as the ``SdeSystem`` callbacks do.
    Calling the field on one state returns a float.  ``grad`` takes one
    state; it is used when provided, otherwise gradients come from central
    finite differences of ``value``.
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
        x = np.asarray(x, dtype=float)
        if self.grad is not None:
            return np.asarray(self.grad(x), dtype=float)
        return fd_jacobian(self.value, x)

    @staticmethod
    def coordinate(i: int, dim: int, name: str = "") -> "ScalarField":
        """The i-th coordinate function on R^dim."""
        e = np.zeros(dim)
        e[i] = 1.0
        return ScalarField(
            value=lambda x, _i=i: x[..., _i],
            grad=lambda x, _e=e: _e.copy(),
            name=name or f"x{i}",
        )

    @staticmethod
    def constant(c: float, dim: int, name: str = "const") -> "ScalarField":
        z = np.zeros(dim)
        return ScalarField(value=lambda x, _c=float(c): np.full(np.shape(x)[:-1], _c),
                           grad=lambda x, _z=z: _z.copy(), name=name)

    @staticmethod
    def linear(w, name: str = "") -> "ScalarField":
        """The pairing x -> w . x."""
        w = np.asarray(w, dtype=float)
        return ScalarField(
            value=lambda x, _w=w: _dot(x, _w),
            grad=lambda x, _w=w: _w.copy(),
            name=name,
        )

    @staticmethod
    def from_qp(
        n: int,
        value: Callable[[np.ndarray, np.ndarray], float],
        grad_q: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
        grad_p: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
        name: str = "",
    ) -> "ScalarField":
        """Wrap a function of separate (q, p) arguments over the packed state.

        ``value`` broadcasts over leading axes of q and p.  Analytic
        gradients are used only if both blocks are supplied.
        """

        def packed_value(x):
            return value(x[..., :n], x[..., n:])

        packed_grad = None
        if grad_q is not None and grad_p is not None:
            def packed_grad(x):
                return np.concatenate(
                    [np.asarray(grad_q(x[:n], x[n:]), dtype=float),
                     np.asarray(grad_p(x[:n], x[n:]), dtype=float)]
                )

        return ScalarField(value=packed_value, grad=packed_grad, name=name)


class PoissonBracket:
    """Poisson bracket {f, g}(x) = grad(f) . P(x) . grad(g)."""

    dim: int

    def tensor(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, f: ScalarField, g: ScalarField, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"state has shape {x.shape}, expected ({self.dim},)")
        return float(f.gradient(x) @ self.tensor(x) @ g.gradient(x))


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
        # column b is ad*(e_b, m); copied to C order so that the bracket's
        # matrix products round as they do on a row-major tensor
        return ad_star(self.alg, np.eye(self.dim), m).T.copy()


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
        m, q = x[:r], x[r:]
        a = self.chart.coefficients(q)
        out = np.zeros((r + n, r + n))
        out[:r, :r] = ad_star(self.alg, np.eye(r), m).T
        out[:r, r:] = -a
        out[r:, :r] = a.T
        return out


def double_bracket(bracket: PoissonBracket, g: ScalarField, f: ScalarField, x) -> float:
    """Nested bracket {g, {g, f}}(x).

    The inner bracket is wrapped as a plain field, so the outer gradient is
    taken by finite differences of actual inner-bracket evaluations; this is
    the independent oracle against which closed-form Ito corrections are
    checked.  That inner field is the one field that takes a single state
    only: it is evaluated point by point, never on a state array.
    """
    inner = ScalarField(value=lambda y: bracket(g, f, y), name=f"{{{g.name},{f.name}}}")
    return bracket(g, inner, x)
