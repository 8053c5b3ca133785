"""Builders turning (chart, Lagrangian/Hamiltonian, noise directions) into SDE systems.

The action enters only through its Legendre data: the kinetic matrix G (or
K = G^(-1)) and the potential V(q), a :class:`ScalarField` over q like every
other scalar function of the package.

Three state spaces, one set of sign conventions (all routed through
:mod:`coadjoint.algebra`):

* phase space T*Q in packed (q, p) coordinates,
  dq^i = A_a^i(q) dx^a,   dp_i = -p_j dA_a^j/dq^i dx^a - dV/dq^i dt,
  with the stochastic element dx^a = u^a dt + xi_k^a o dW^k;
* the mixed (m, q) level,
  dm_a = -c_ab^g m_g o d(dh/dm_b) - A_a^j dh/dq^j dt,
  dq^i = A_b^i o d(dh/dm_b);
* the collective level on the dual algebra,
  dm = ad*(u, m) dt + ad*(xi_k, m) o dW^k with u = K m.

At every level dx couples to the state through the momentum map mu: the
algebra element w moves the state along the action field X_w, the
Hamiltonian vector field of <mu, w>.  One private coupling builds all three
systems from a level's X_w, its derivative DX_w and mu: drift X_u + force,
diffusion X_{xi_k}, and the Ito correction (1/2) sum_k DX_{xi_k} X_{xi_k},
which per coordinate function f is the nested double bracket
(1/2) sum_k {{f, <mu, xi_k>}, <mu, xi_k>}.  The bracket evaluation itself,
in :mod:`coadjoint.fields` and :mod:`coadjoint.kolmogorov`, is kept as the
independent test oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .actions import ActionChart, momentum_map
from .algebra import LieAlgebraSpec, _ad_star_kernel, _einsum
from .fields import ScalarField, _dot
from .integrators import SdeSystem, Trajectory, _stack_buffer
from .noise import NoiseSpec

__all__ = [
    "zero_potential",
    "linear_potential",
    "quadratic_potential",
    "QuadraticLagrangian",
    "ReducedHamiltonian",
    "phase_space_system",
    "lie_poisson_system",
    "hamel_system",
    "reconstruct_momentum",
    "casimir",
    "momentum_pairing_field",
]


_ZERO_POTENTIAL = ScalarField(
    value=lambda q: np.zeros(q.shape[:-1]),
    grad=lambda q: np.zeros_like(q),
)


def zero_potential() -> ScalarField:
    """V = 0, one shared instance: the builders add no force for it."""
    return _ZERO_POTENTIAL


def linear_potential(g) -> ScalarField:
    """V(q) = g . q (heavy-top style gravity term)."""
    g = np.asarray(g, dtype=float)
    return ScalarField(
        value=lambda q: _einsum("...i,i->...", q, g),
        grad=lambda q: np.full(q.shape, g),
    )


def quadratic_potential(k: float) -> ScalarField:
    """V(q) = (k/2) |q|^2."""
    return ScalarField(
        value=lambda q: 0.5 * k * _einsum("...i,...i->...", q, q),
        grad=lambda q: k * q,
    )


def _check_spd(mat: np.ndarray, what: str, dim: int) -> np.ndarray:
    """A read-only copy of ``mat`` after checking it is a symmetric positive
    definite dim x dim matrix."""
    mat = np.array(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {mat.shape}")
    if mat.shape[0] != dim:
        raise ValueError(f"{what} is {mat.shape[0]}x{mat.shape[0]}, algebra dimension is {dim}")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{what} must be finite, got {mat.tolist()}")
    if np.max(np.abs(mat - mat.T)) > 1e-12 * (1.0 + np.max(np.abs(mat))):
        raise ValueError(f"{what} must be symmetric")
    eigs = np.linalg.eigvalsh(mat)
    if eigs[0] <= 0:
        raise ValueError(f"{what} must be positive definite (min eigenvalue {eigs[0]:.3e})")
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class QuadraticLagrangian:
    """The Legendre data of l(u, q) = (1/2) u . G u - V(q): G symmetric
    positive definite, V and the chart the algebra acts by.

    Positive definiteness is the hyperregularity needed for an exact
    Legendre transform.
    """

    alg: LieAlgebraSpec
    kinetic: np.ndarray
    potential: ScalarField = field(default_factory=zero_potential)
    chart: Optional[ActionChart] = None

    def __post_init__(self):
        G = _check_spd(self.kinetic, "kinetic matrix G", self.alg.dim)
        object.__setattr__(self, "kinetic", G)

    @property
    def kinetic_inverse(self) -> np.ndarray:
        return np.linalg.inv(self.kinetic)


def _legendre_velocity(K: np.ndarray) -> Callable:
    """The Legendre velocity u = K m as ``velocity(m, out=None)``, one rule
    for every caller, writing into ``out`` (a new array without one).

    A diagonal K, a rigid body in principal axes, scales each component of
    m by its one entry, which rounds as the full sum does; any other K sums
    each row of a C-contiguous K * m in one order, so no u depends on the
    memory layout of its batch.
    """
    if np.array_equal(K, np.diag(np.diag(K))):
        k = np.diag(K).copy()
        return lambda m, out=None: np.multiply(m, k, out=out)
    return lambda m, out=None: np.add.reduce(np.multiply(K, m[..., None, :], order="C"), -1,
                                             out=out)


@dataclass(frozen=True)
class ReducedHamiltonian:
    """h(m, q) = (1/2) m . K m + V(q) with K = G^(-1) symmetric positive definite."""

    alg: LieAlgebraSpec
    kinetic_inverse: np.ndarray
    potential: ScalarField = field(default_factory=zero_potential)

    def __post_init__(self):
        K = _check_spd(self.kinetic_inverse, "kinetic inverse K", self.alg.dim)
        object.__setattr__(self, "kinetic_inverse", K)
        object.__setattr__(self, "_velocity", _legendre_velocity(K))

    @staticmethod
    def from_lagrangian(L: QuadraticLagrangian) -> "ReducedHamiltonian":
        return ReducedHamiltonian(
            alg=L.alg, kinetic_inverse=L.kinetic_inverse, potential=L.potential
        )

    def velocity(self, m) -> np.ndarray:
        """dh/dm = K m, the Legendre inverse of m = G u."""
        return self._velocity(np.asarray(m, dtype=float))

    def value(self, m, q=None) -> np.ndarray:
        m = np.asarray(m, dtype=float)
        kin = 0.5 * _einsum("...a,ab,...b->...", m, self.kinetic_inverse, m)
        if q is None:
            return kin
        return kin + self.potential.value(np.asarray(q, dtype=float))

    def as_field(self) -> ScalarField:
        """h as a scalar field over m alone (kinetic part)."""
        return ScalarField(value=self.value, grad=self.velocity, name="h")

    def as_mq_field(self) -> ScalarField:
        """h as a scalar field over the packed (m, q) state."""
        r = self.alg.dim

        def value(x):
            return self.value(x[..., :r], x[..., r:])

        def grad(x):
            return np.concatenate([self.velocity(x[..., :r]), self.potential.grad(x[..., r:])], -1)

        return ScalarField(value=value, grad=grad, name="h")


def _ito_sum(terms: np.ndarray) -> np.ndarray:
    """(1/2) sum_k DX_{xi_k}(x)[X_{xi_k}(x)] from its terms, channels first and
    never innermost in memory, so one reduction adds whole terms to +0.0 in
    channel order and no row depends on the batch size.
    X_w is the Hamiltonian vector field of <mu, w>, so per coordinate
    function f this is the double bracket (1/2) sum_k {{f, <mu, xi_k>}, <mu, xi_k>}.
    """
    return 0.5 * np.add.reduce(terms, 0, initial=0.0)


def _coupled_system(alg, at, field, dfield, mu, K: np.ndarray, noise: NoiseSpec,
                    u_of: Optional[Callable] = None, force=None, **system_kw) -> SdeSystem:
    """The SDE dx = X_u(x) dt + force(x) dt + X_{xi_k}(x) o dW^k of one level.

    A level evaluates once per stage what it needs at x: the stage s =
    ``at(x)``, arrays the stage owns (x itself if ``at`` is None).  From s
    and an ad* kernel ``ad`` of ``alg`` come the action field ``field(ad,
    s, w, out=None)`` = X_w(x) (ad* itself if None), broadcasting algebra
    elements w against states, written into ``out`` (a new array without
    one), ``dfield(ad, s, w, v)`` = DX_w(x)[v] and the momentum map
    ``mu(s)`` (s if None).  u is ``u_of(t, x)`` or K mu; ``force`` is None
    or ``(block, f)``, adding f(s) to the drift's ``[..., block]``.
    ``drift.stacked(lead, ito)`` makes the integrators' evaluators (see
    :class:`SdeSystem`), binding ad's kernel once per run; the other
    keywords go to SdeSystem.  The three callbacks refuse a state whose
    last axis is not ``state_dim`` wide.
    """
    r, C = K.shape[0], noise.channels
    d, name = system_kw["state_dim"], system_kw["name"]
    if C and noise.xi.shape[1] != r:
        raise ValueError(f"noise directions have dimension {noise.xi.shape[1]}, algebra needs {r}")
    # (C, r); the reshape turns the (0, 0) directions of NoiseSpec.make([], seed) into (0, r)
    xi = noise.xi.reshape(C, r)
    stage = at or (lambda x: x)
    legendre = _legendre_velocity(K)

    def bind(fn, size=None):
        # fn on the ad* kernel for operands of ``size`` entries, per call for None
        ad = _ad_star_kernel(alg, size)
        return ad if fn is None else functools.partial(fn, ad)

    X, DX = bind(field), bind(dfield)
    block, f = force or (None, None)

    def velocity(t, x, s, out=None):  # u into ``out`` (a new array without one)
        if u_of is None:
            return legendre(s if mu is None else mu(s), out)
        u = np.asarray(u_of(t, x), dtype=float)
        if u.shape[-1] != r:
            raise ValueError(f"u policy returned dimension {u.shape[-1]}, expected {r}")
        if out is not None:
            out[...] = u
        return u

    def checked(x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (d,):
            raise ValueError(f"state has shape {x.shape}; system {name!r} needs a last axis of {d}")
        return x

    def drift(t, x):
        s = stage(checked(x))
        out = X(s, velocity(t, x, s))
        if f is not None:
            out[..., block] += f(s)
        return out

    def diffusion(t, x):
        return X(stage(checked(x)[..., None, :]), xi)

    def correction(t, x):
        x = checked(x)
        # channels outermost, (C, ..., d): a batch is each term's inner axis
        w = xi.reshape((C,) + (1,) * (x.ndim - 1) + (r,))
        s = stage(x)
        return _ito_sum(DX(s, w, X(s, w)))

    def stacked(lead, ito=False):
        # the algebra elements (u, xi_1, ..., xi_C) of one run: the noise
        # rows are set once, so each stage writes only the velocity row
        w = xi.reshape((C,) + (1,) * len(lead) + (r,))
        W = _stack_buffer((1 + C,), lead, r)
        W[1:] = w

        @functools.cache
        def bound(n):
            # the evaluator of the run's first n rows, its kernels chosen for their shape
            Wn = W[:, :n]
            W0, Xw, DXw = Wn[0], bind(field, Wn.size), bind(dfield, Wn[1:].size)

            def evaluate(t, x, out):
                s = x if at is None else at(x)
                velocity(t, x, s, W0)
                Xw(s, Wn, out=out)
                if f is not None:
                    out[0, ..., block] += f(s)
                if ito:
                    out[0] += _ito_sum(DXw(s, w, out[1:]))
                return out

            return evaluate

        # a shorter block of the run steps on the leading rows of W
        return bound(None) if not lead else lambda t, x, out: bound(len(x))(t, x, out)

    drift.stacked, stacked.fields = stacked, (drift, diffusion, correction)
    return SdeSystem(channels=C, drift=drift, diffusion=diffusion,
                     ito_correction=correction, **system_kw)


def _chart_jacobian(da: np.ndarray, w) -> np.ndarray:
    """dB^i/dq^j of B^i = A_a^i(q) w^a from ``da`` = dA(q), shape (..., n, n)."""
    return _einsum("...aij,...a->...ij", da, w)


def _phase_fields(chart: ActionChart):
    """X_w(q, p) = (A(q)^T w, -dA(q)^T p . w), the cotangent lift, as the
    stage (q, p, A(q), dA(q)), field, derivative and m = p . A(q)."""
    n = chart.n
    A, dA = chart.A, chart.dA or chart.d_coefficients

    def at(x):
        q = x[..., :n]
        return q, x[..., n:], A(q), dA(q)

    def field(ad, s, w, out=None):
        q, p, a, da = s
        if out is None:
            out = np.empty(np.broadcast(w[..., 0], q[..., 0]).shape + (2 * n,))
        dp = out[..., n:]
        _einsum("...ai,...a->...i", a, w, out=out[..., :n])
        _einsum("...aji,...j,...a->...i", da, p, w, out=dp)
        np.negative(dp, out=dp)
        return out

    def dfield(ad, s, w, v):
        q, p, a, da = s
        vq, vp = v[..., :n], v[..., n:]
        db = _chart_jacobian(da, w)
        d2b = _einsum("...aijl,...a->...ijl", chart.d2_coefficients(q), w)
        dq = _einsum("...ij,...j->...i", db, vq)
        dp = (-_einsum("...lij,...l,...j->...i", d2b, p, vq)
              - _einsum("...li,...l->...i", db, vp))
        return np.concatenate([dq, dp], axis=-1)

    def mu(s):
        return _einsum("...ai,...i->...a", s[2], s[1])

    return at, field, dfield, mu


def phase_space_system(
    L: QuadraticLagrangian,
    noise: NoiseSpec,
    u_of: Optional[Callable] = None,
) -> SdeSystem:
    """Stratonovich dynamics on T*Q driven through the momentum map.

    The algebra acts by the cotangent lift X_w = (A(q)^T w, -dA(q)^T p . w):
    dq^i = A_a^i(q) u^a, dp_i = -p_j dA_a^j/dq^i u^a - dV/dq^i in the
    drift, and channel k replaces u by xi_k (no potential force).  The Ito
    correction is (1/2) sum_k DX_{xi_k} X_{xi_k}.  ``u_of(t, state)``
    defaults to the Legendre feedback u = K m(q, p).
    """
    chart = L.chart
    if chart is None:
        raise ValueError("Lagrangian carries no chart; phase-space dynamics needs one")
    if chart.alg != L.alg:
        raise ValueError(f"chart {chart.name!r} acts with algebra {chart.alg.name!r}, "
                         f"the Lagrangian is on {L.alg.name!r}")
    n = chart.n
    labels = tuple(f"q{i+1}" for i in range(n)) + tuple(f"p{i+1}" for i in range(n))
    return _coupled_system(
        chart.alg, *_phase_fields(chart), L.kinetic_inverse, noise, u_of,
        force=None if L.potential is zero_potential() else (
            slice(n, None), lambda s: -L.potential.grad(s[0])),
        momentum=lambda x: momentum_map(chart, x),
        state_dim=2 * n, labels=labels, name=f"phase_space[{chart.name}]",
    )


def lie_poisson_system(
    alg: LieAlgebraSpec,
    K,
    noise: NoiseSpec,
    u_of: Optional[Callable] = None,
) -> SdeSystem:
    """Collective Stratonovich dynamics on the dual algebra.

    The algebra acts by X_w(m) = ad*(w, m) with momentum map m itself:
    drift ad*(u, m) with u = K m (or a supplied policy), diffusion channel k
    ad*(xi_k, m), and the Ito correction (1/2) sum_k ad*(xi_k, ad*(xi_k, m)).
    """
    K = _check_spd(K, "kinetic inverse K", alg.dim)
    return _coupled_system(
        alg, None, None, lambda ad, m, w, v: ad(v, w), None, K, noise, u_of,
        momentum=lambda m: m,
        state_dim=alg.dim, labels=tuple(f"m{i+1}" for i in range(alg.dim)),
        name=f"lie_poisson[{alg.name}]",
    )


def hamel_system(
    chart: ActionChart,
    h: ReducedHamiltonian,
    noise: NoiseSpec,
) -> SdeSystem:
    """Stratonovich dynamics on the mixed (m, q) level.

    The algebra acts by X_w(m, q) = (ad*(w, m), A(q)^T w) with momentum map
    m: dm_a = -c_ab^g m_g dh/dm_b - A_a^j dh/dq^j, dq^i = A_b^i dh/dm_b in
    the drift.  Channel k replaces dh/dm by xi_k and drops the dh/dq term,
    which enters only through the bounded-variation part of the stochastic
    Hamiltonian.  The Ito correction is (1/2) sum_k DX_{xi_k} X_{xi_k}.
    """
    if chart.alg != h.alg:
        raise ValueError(f"chart {chart.name!r} acts with algebra {chart.alg.name!r}, "
                         f"the Hamiltonian is on {h.alg.name!r}")
    alg, r, n = h.alg, h.alg.dim, chart.n
    A, dA = chart.A, chart.dA or chart.d_coefficients

    def at(x):
        q = x[..., r:]
        return x[..., :r], q, A(q)

    def field(ad, s, w, out=None):
        m, q, a = s
        if out is None:
            out = np.empty(np.broadcast(w[..., 0], m[..., 0]).shape + (r + n,))
        ad(m, w, out=out[..., :r])
        _einsum("...bi,...b->...i", a, w, out=out[..., r:])
        return out

    def dfield(ad, s, w, v):
        dq = _einsum("...ij,...j->...i", _chart_jacobian(dA(s[1]), w), v[..., r:])
        return np.concatenate([ad(v[..., :r], w), dq], axis=-1)

    def force(s):
        _, q, a = s
        return -_einsum("...aj,...j->...a", a, h.potential.grad(q))

    labels = tuple(f"m{i+1}" for i in range(r)) + tuple(f"q{i+1}" for i in range(n))
    return _coupled_system(
        alg, at, field, dfield, lambda s: s[0], h.kinetic_inverse, noise,
        force=None if h.potential is zero_potential() else (slice(0, r), force),
        momentum=lambda x: x[..., :r],
        state_dim=r + n, labels=labels, name=f"hamel[{chart.name}]",
    )


def reconstruct_momentum(traj: Trajectory, chart: ActionChart) -> Trajectory:
    """Push a phase-space trajectory through the momentum map, pointwise in time."""
    n = chart.n
    expected = tuple(f"q{i+1}" for i in range(n)) + tuple(f"p{i+1}" for i in range(n))
    if traj.states.shape[1] != 2 * n or (traj.labels and tuple(traj.labels) != expected):
        raise ValueError(
            f"trajectory labels {traj.labels} do not match phase-space "
            f"coordinates of chart {chart.name!r}"
        )
    m = momentum_map(chart, traj.states)
    meta = dict(traj.metadata)
    meta["reconstructed_from"] = meta.get("system", "")
    meta["system"] = f"momentum_map[{chart.name}]"
    labels = tuple(f"m{i+1}" for i in range(chart.alg.dim))
    return Trajectory(times=traj.times, states=m, labels=labels, metadata=meta)


def casimir(alg: LieAlgebraSpec) -> ScalarField:
    """The quadratic Casimir C(m) = sum m_a^2 on the dual of so(3).

    Only so(3) carries this invariant form in v1; other algebras are
    rejected.
    """
    if alg.name != "so3":
        raise LookupError(
            f"the quadratic Casimir is available for so3 only, not {alg.name!r}"
        )
    return ScalarField(
        value=lambda m: _dot(m, m),
        grad=lambda m: 2.0 * np.asarray(m, dtype=float),
        name="casimir",
    )


def momentum_pairing_field(chart: ActionChart, xi) -> ScalarField:
    """<m(q, p), xi> = p_i A_a^i(q) xi^a as a field over the packed phase state."""
    xi = np.asarray(xi, dtype=float)
    n = chart.n

    def value(x):
        return _dot(momentum_map(chart, x), xi)

    def grad(x):
        q, p = x[..., :n], x[..., n:]
        a = chart.coefficients(q)
        da = chart.d_coefficients(q)
        gq = _einsum("...aji,...j,a->...i", da, p, xi)
        gp = _einsum("...ai,a->...i", a, xi)
        return np.concatenate([gq, gp], axis=-1)

    return ScalarField(value=value, grad=grad, name="m.xi")
