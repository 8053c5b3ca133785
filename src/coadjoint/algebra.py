"""Finite-dimensional Lie algebra arithmetic from structure constants.

All bracket and coadjoint computations in the package route through this
module so that the sign conventions are fixed in exactly one place:

* bracket:  [u, v]^g = c[a][b][g] u^a v^b
* ad_star:  ad*(v, m)_a = -c[a][b][g] m_g v^b,
  the dual map of ad_v, i.e. <ad_star(v, m), w> = <m, [v, w]> for all w.

These match a right group action on the configuration manifold; with the
Levi-Civita constants of so(3) they give the classical Euler equations
dm/dt = m x u.

ad* has three kernels: einsum, triples and a run's fixed noise rows.  An
*exact* spec, one whose every ad* component has at most two nonzero terms,
each with c = +-1 (so3, se2, h3 and every abelian algebra), takes the
triple kernel when an operand holds at least ``_TRIPLE_MIN_ROWS`` rows: it
writes each component from that component's nonzero (b, g, c) terms only.
Every other call takes the ``einsum`` over all of -c.  A collective run at
triple size binds its noise rows as fixed maps: ad*(xi_k, .) keeps only the
terms with xi_k^b != 0, as m_g (s xi_k^b), exact for s = +-1.  On an exact
spec all three round each product once, the zero terms they keep add
exactly, and a sum of two rounded terms does not depend on their order, so
the kernels agree bit for bit (up to the sign of an exact zero) and a row's
result does not depend on the batch it is in.
Contracting -c rather than negating the contraction of c changes no
nonzero bit, since rounding is symmetric in sign.
A non-exact spec always takes ``einsum``, whose sums follow the memory
layout of the state; the integrators keep every state of a batch (E,)
component-major, so its digits do not depend on the batch size either.

Every einsum of the package goes through ``_einsum``, or its C kernel bound
once per run by ``_ad_star_kernel``.  Every batch or grid array that a hot
ufunc writes into comes from ``_aligned``, which starts it on a cache line.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

# np.einsum without ``optimize`` returns ``c_einsum(*operands, **kwargs)``, so
# that C kernel gives the same bits without the dispatch and wrapper, about 1
# of the 2.8 us of an ad* call on 3-vectors; numpy 1 keeps it in numpy.core.
try:
    from numpy._core.multiarray import c_einsum as _c_einsum
except ImportError:
    try:
        from numpy.core.multiarray import c_einsum as _c_einsum
    except ImportError:
        _c_einsum = np.einsum

__all__ = [
    "LieAlgebraSpec",
    "bracket",
    "ad_star",
    "jacobi_residual",
    "antisymmetry_residual",
    "builtin",
    "BUILTIN_ALGEBRAS",
]

JACOBI_TOL = 1e-12

# Rows (size / dim of the larger operand) from which an exact spec's ad*
# takes the triple kernel.  so(3), v (2, E, 3) x m (E, 3), so 2E rows; one
# pinned CPU of 2, numpy 2.4.6, median of 9 x 400 calls, in us:
#                 row-major          component-major
#     E  rows   einsum  triples     einsum  triples
#     1     2      2.6     12.2        2.7     12.9
#    32    64     10.7     13.9        6.7     14.0
#    64   128     18.9     18.1       13.6     14.4
#   128   256     39.7     22.4       11.3     18.6
#  1024  2048    330.2     34.1       60.6     26.9
# The kernels cross at about 128 rows row-major and above 256 component-
# major; the ensembles call with 2e4 rows or more, a single path with 1 + C.
_TRIPLE_MIN_ROWS = 128

# float64 entries per 64-byte cache line.  A ufunc storing off a line runs at
# half speed: np.multiply into 20,000 floats took 5.7 us aligned, 11.0-11.9 us
# 8 to 56 bytes off (AVX-512 Xeon, numpy 2.4.6, one pinned CPU, best of 7).
_LINE = 8


@dataclass(frozen=True, eq=False)
class LieAlgebraSpec:
    """A Lie algebra given by its structure constants in a fixed basis.

    ``c[a][b][g]`` is the coefficient of e_g in [e_a, e_b].  Instances are
    immutable and safe to share across threads; two specs are equal when
    their dim, name and structure constants are.
    """

    dim: int
    c: np.ndarray = field(repr=False)
    name: str = ""
    # -c, which einsum contracts for ad*; per ad* component a, its nonzero
    # terms (b, g, -c[a][b][g]), positive coefficients first; and the
    # operand size from which ad* takes the triple kernel: _TRIPLE_MIN_ROWS
    # rows on an exact spec, never otherwise
    _minus_c: np.ndarray = field(init=False, repr=False)
    _terms: tuple = field(init=False, repr=False)
    _triples_from: float = field(init=False, repr=False)

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
        terms = tuple(
            tuple(sorted(((int(b), int(g), -float(c[a, b, g]))
                          for b, g in zip(*np.nonzero(c[a]))),
                         key=lambda t: t[2] < 0))
            for a in range(self.dim)
        )
        exact = all(len(ts) <= 2 and all(abs(s) == 1.0 for _, _, s in ts) for ts in terms)
        minus_c = -c
        minus_c.setflags(write=False)
        object.__setattr__(self, "_minus_c", minus_c)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_triples_from",
                           _TRIPLE_MIN_ROWS * self.dim if exact else math.inf)

    def __eq__(self, other):
        if not isinstance(other, LieAlgebraSpec):
            return NotImplemented
        return (self.dim, self.name) == (other.dim, other.name) and np.array_equal(
            self.c, other.c)

    def __hash__(self):
        # + 0.0 maps -0.0 to 0.0, so equal constants hash alike
        return hash((self.dim, self.name, (self.c + 0.0).tobytes()))

    def check_valid(self) -> None:
        """Raise ValueError unless antisymmetry and Jacobi hold to ``JACOBI_TOL``."""
        anti = antisymmetry_residual(self)
        if not anti <= JACOBI_TOL:
            raise ValueError(
                f"structure constants of {self.name!r} are not antisymmetric "
                f"(residual {anti:.3e} > {JACOBI_TOL:.1e})"
            )
        jac = jacobi_residual(self)
        if not jac <= JACOBI_TOL:
            raise ValueError(
                f"structure constants of {self.name!r} violate the Jacobi "
                f"identity (residual {jac:.3e} > {JACOBI_TOL:.1e})"
            )


def _einsum(*operands, out=None):
    """``np.einsum``'s result from its C kernel, which refuses ``out=None``."""
    return _c_einsum(*operands) if out is None else _c_einsum(*operands, out=out)


def _aligned(shape: tuple, first: int = 0, alloc=np.empty) -> np.ndarray:
    """A float array of ``shape`` from ``alloc`` whose entry ``first`` starts
    on a 64-byte cache line, wherever the heap puts the block.  Rows (last
    axis) of a line or more are padded to whole lines, so each starts on
    one; shorter rows, whose ufuncs cost their calls, not stores, are packed."""
    *outer, n = shape
    pad = -(-n // _LINE) * _LINE if n > _LINE else n
    block = alloc(math.prod(outer) * pad + _LINE - 1)
    skip = -(block.ctypes.data // 8 + first) % _LINE
    return block[skip:skip + math.prod(outer) * pad].reshape(*outer, pad)[..., :n]


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
    return _einsum("abg,...a,...b->...g", alg.c, u, v)


def ad_star(alg: LieAlgebraSpec, v, m) -> np.ndarray:
    """Coadjoint action ad*(v, m)_a = -c[a][b][g] m_g v^b.

    Satisfies <ad_star(v, m), w> = <m, bracket(v, w)> for all w.  For so(3)
    this is m x v = -(v x m).  Broadcasts over leading axes.
    """
    return _ad_star(alg, _conform(alg, v, "v"), _conform(alg, m, "m"))


def _ad_star(alg: LieAlgebraSpec, v: np.ndarray, m: np.ndarray, out=None, scratch=None):
    """:func:`ad_star` on float arrays whose last axes already conform to
    ``alg``, written into ``out`` (a new array without one); the kernel rule
    is in the module docstring."""
    if v.size >= alg._triples_from or m.size >= alg._triples_from:
        return _ad_star_triples(alg, v, m, out, scratch)
    try:
        return _einsum("abg,...g,...b->...a", alg._minus_c, m, v, out=out)
    except ValueError:
        raise _lead_mismatch(v, m) from None


def _ad_star_kernel(alg: LieAlgebraSpec, size=None, xi=None):
    """ad*(v, m) as ``kernel(m, v, out=None)``: einsum's C kernel itself for
    operands whose larger one holds ``size`` entries, fewer than the triple
    kernel takes; otherwise, or without a size, :func:`_ad_star`'s rule, a
    sized one keeping the triple kernel's scratch rows per operand shape.
    Given a run's fixed rows ``xi`` (C, r), a sized triple kernel takes v =
    (u, xi_1, ..., xi_C) and writes row k by the fixed map ad*(xi_k, .)."""
    if size is not None and size < alg._triples_from:
        return functools.partial(_c_einsum, "abg,...g,...b->...a", alg._minus_c)
    scratch = None if size is None else functools.cache(_aligned)
    if size is None or xi is None:
        return lambda m, v, out=None: _ad_star(alg, v, m, out, scratch)
    plan = [(k, a, [(g, s * float(x[b])) for b, g, s in terms if x[b] != 0])
            for k, x in enumerate(xi, 1) for a, terms in enumerate(alg._terms)]

    def kernel(m, v, out):
        _ad_star_triples(alg, v[0], m, out[0], scratch)
        for k, a, terms in plan:
            row = out[k, ..., a]
            if not terms:
                row.fill(0.0)
                continue
            (g, c), *rest = terms
            np.multiply(m[..., g], c, out=row)
            for g, c in rest:
                row += np.multiply(m[..., g], c, out=scratch(row.shape))
        return out

    return kernel


def _ad_star_triples(alg: LieAlgebraSpec, v: np.ndarray, m: np.ndarray, out=None, scratch=None):
    """ad* on an exact spec, written component by component from the nonzero
    terms, whose coefficients are +-1, into ``out`` or else a component-first
    (r, *lead) buffer returned as a (*lead, r) view; a second term goes
    through one scratch array, ``scratch(lead)`` or a new one."""
    try:
        lead = np.broadcast(v[..., 0], m[..., 0]).shape
    except ValueError:
        raise _lead_mismatch(v, m) from None
    if out is None:
        out = np.empty((alg.dim,) + lead).transpose(*range(1, len(lead) + 1), 0)
    tmp = scratch(lead) if scratch else np.empty(lead)
    for a, terms in enumerate(alg._terms):
        row = out[..., a]
        if not terms:
            row[...] = 0.0
            continue
        (b, g, s), *rest = terms
        np.multiply(m[..., g], v[..., b], out=row)
        if s < 0:
            np.negative(row, out=row)
        for b, g, s in rest:
            np.multiply(m[..., g], v[..., b], out=tmp)
            if s > 0:
                row += tmp
            else:
                row -= tmp
    return out


def _lead_mismatch(v: np.ndarray, m: np.ndarray) -> ValueError:
    return ValueError(
        f"ad_star: leading axes of v {v.shape} and m {m.shape} do not broadcast"
    )


def antisymmetry_residual(alg: LieAlgebraSpec) -> float:
    """max |c[a][b][g] + c[b][a][g]| over all index tuples."""
    return float(np.max(np.abs(alg.c + alg.c.transpose(1, 0, 2))))


def jacobi_residual(alg: LieAlgebraSpec) -> float:
    """Max-norm of the cyclic Jacobi sum; 0 for a valid Lie algebra."""
    c = alg.c
    # sum_d c[a][b][d] c[d][g][e] + cyclic in (a, b, g)
    t = _einsum("abd,dge->abge", c, c)
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
    "r3": lambda: np.zeros((3, 3, 3)),
}


def builtin(name: str) -> LieAlgebraSpec:
    """Built-in algebras: "so3" (Levi-Civita), "h3" (Heisenberg), "se2", "r3" (abelian)."""
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
