"""Finite-dimensional Lie algebra arithmetic from structure constants.

All bracket and coadjoint computations in the package route through this
module so that the sign conventions are fixed in exactly one place:

* bracket:  [u, v]^g = c[a][b][g] u^a v^b
* ad_star:  ad*(v, m)_a = -c[a][b][g] m_g v^b,
  the dual map of ad_v, i.e. <ad_star(v, m), w> = <m, [v, w]> for all w.

These match a right group action on the configuration manifold; with the
Levi-Civita constants of so(3) they give the classical Euler equations
dm/dt = m x u.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LieAlgebraSpec",
    "bracket",
    "ad_star",
    "jacobi_residual",
    "antisymmetry_residual",
    "builtin",
    "abelian",
    "load_algebra_json",
    "BUILTIN_ALGEBRAS",
]

JACOBI_TOL = 1e-12


@dataclass(frozen=True)
class LieAlgebraSpec:
    """A Lie algebra given by its structure constants in a fixed basis.

    ``c[a][b][g]`` is the coefficient of e_g in [e_a, e_b].  Instances are
    immutable and safe to share across threads.
    """

    dim: int
    c: np.ndarray = field(repr=False)
    name: str = ""

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError(f"algebra dimension must be positive, got {self.dim}")
        c = np.array(self.c, dtype=float)
        if c.shape != (self.dim, self.dim, self.dim):
            raise ValueError(
                f"structure constants must have shape {(self.dim,) * 3}, got {c.shape}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    def check_valid(self, tol: float = JACOBI_TOL) -> None:
        """Raise ValueError unless antisymmetry and Jacobi hold to ``tol``."""
        anti = antisymmetry_residual(self)
        if anti > tol:
            raise ValueError(
                f"structure constants of {self.name!r} are not antisymmetric "
                f"(residual {anti:.3e} > {tol:.1e})"
            )
        jac = jacobi_residual(self)
        if jac > tol:
            raise ValueError(
                f"structure constants of {self.name!r} violate the Jacobi "
                f"identity (residual {jac:.3e} > {tol:.1e})"
            )


def _conform(alg: LieAlgebraSpec, v, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != alg.dim:
        raise ValueError(
            f"{what} has dimension {v.shape[-1]}, expected {alg.dim} for algebra "
            f"{alg.name!r}"
        )
    return v


def bracket(alg: LieAlgebraSpec, u, v) -> np.ndarray:
    """Lie bracket [u, v]^g = c[a][b][g] u^a v^b.

    Broadcasts over leading axes of ``u`` and ``v``.
    """
    u = _conform(alg, u, "u")
    v = _conform(alg, v, "v")
    return np.einsum("abg,...a,...b->...g", alg.c, u, v)


def ad_star(alg: LieAlgebraSpec, v, m) -> np.ndarray:
    """Coadjoint action ad*(v, m)_a = -c[a][b][g] m_g v^b.

    Satisfies <ad_star(v, m), w> = <m, bracket(v, w)> for all w.  For so(3)
    this is m x v = -(v x m).  Broadcasts over leading axes.
    """
    return _ad_star(alg.c, _conform(alg, v, "v"), _conform(alg, m, "m"))


def _ad_star(c: np.ndarray, v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """:func:`ad_star` on float arrays whose last axes already conform to ``c``."""
    return -np.einsum("abg,...g,...b->...a", c, m, v)


def antisymmetry_residual(alg: LieAlgebraSpec) -> float:
    """max |c[a][b][g] + c[b][a][g]| over all index tuples."""
    return float(np.max(np.abs(alg.c + alg.c.transpose(1, 0, 2))))


def jacobi_residual(alg: LieAlgebraSpec) -> float:
    """Max-norm of the cyclic Jacobi sum; 0 for a valid Lie algebra."""
    c = alg.c
    # sum_d c[a][b][d] c[d][g][e] + cyclic in (a, b, g)
    t = np.einsum("abd,dge->abge", c, c)
    cyc = t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
    return float(np.max(np.abs(cyc)))


def _so3_constants() -> np.ndarray:
    c = np.zeros((3, 3, 3))
    for a, b, g, s in [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0)]:
        c[a, b, g] = s
        c[b, a, g] = -s
    return c


def _h3_constants() -> np.ndarray:
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    return c


def _se2_constants() -> np.ndarray:
    # [e3, e1] = e2, [e3, e2] = -e1, [e1, e2] = 0
    c = np.zeros((3, 3, 3))
    c[2, 0, 1] = 1.0
    c[0, 2, 1] = -1.0
    c[2, 1, 0] = -1.0
    c[1, 2, 0] = 1.0
    return c


BUILTIN_ALGEBRAS = {
    "so3": _so3_constants,
    "h3": _h3_constants,
    "se2": _se2_constants,
}


def builtin(name: str) -> LieAlgebraSpec:
    """Built-in algebras: "so3" (Levi-Civita), "h3" (Heisenberg), "se2"."""
    try:
        make = BUILTIN_ALGEBRAS[name]
    except KeyError:
        raise LookupError(
            f"unknown built-in algebra {name!r}; available: "
            f"{sorted(BUILTIN_ALGEBRAS)}"
        ) from None
    alg = LieAlgebraSpec(dim=3, c=make(), name=name)
    alg.check_valid()
    return alg


def abelian(dim: int, name: str = "") -> LieAlgebraSpec:
    """Abelian algebra R^dim (all structure constants zero)."""
    return LieAlgebraSpec(dim=dim, c=np.zeros((dim, dim, dim)), name=name or f"r{dim}")


def load_algebra_json(source, name: str = "") -> LieAlgebraSpec:
    """Load an algebra from JSON: {"dim": r, "c": [[a, b, g, value], ...]}.

    Only nonzero entries are listed, with 0-based indices.  Antisymmetry is
    checked after assembly and violations are rejected, not repaired.
    """
    if isinstance(source, (str, bytes)):
        doc = json.loads(source)
    else:
        doc = json.load(source)
    if not isinstance(doc, dict) or set(doc) - {"dim", "c", "name"}:
        raise ValueError("algebra document must contain only 'dim', 'c', 'name'")
    dim = doc["dim"]
    if not isinstance(dim, int) or dim <= 0:
        raise ValueError(f"'dim' must be a positive integer, got {dim!r}")
    c = np.zeros((dim, dim, dim))
    for entry in doc["c"]:
        if len(entry) != 4:
            raise ValueError(f"structure-constant entry must be [a,b,g,value], got {entry!r}")
        a, b, g, value = entry
        for idx in (a, b, g):
            if not isinstance(idx, int) or not 0 <= idx < dim:
                raise ValueError(f"index {idx!r} out of range for dim {dim}")
        c[a, b, g] = float(value)
    alg = LieAlgebraSpec(dim=dim, c=c, name=name or doc.get("name", ""))
    alg.check_valid()
    return alg
