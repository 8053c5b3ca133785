"""Builders turning (chart, Lagrangian/Hamiltonian, noise directions) into SDE systems.

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

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .actions import ActionChart, momentum_map
from .algebra import LieAlgebraSpec, _ad_star
from .fields import ScalarField, _dot
from .integrators import SdeSystem, Trajectory
from .noise import NoiseSpec

__all__ = [
    "Potential",
    "zero_potential",
    "linear_potential",
    "quadratic_potential",
    "QuadraticLagrangian",
    "ReducedHamiltonian",
    "legendre",
    "phase_space_system",
    "ito_correction_phase",
    "lie_poisson_system",
    "hamel_system",
    "reconstruct_momentum",
    "casimir",
    "momentum_pairing_field",
]


@dataclass(frozen=True)
class Potential:
    """Configuration potential V(q) with an analytic gradient.

    Both callbacks broadcast over leading axes of q.
    """

    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    name: str = "potential"


_ZERO_POTENTIAL = Potential(
    value=lambda q: np.zeros(q.shape[:-1]),
    grad=lambda q: np.zeros_like(q),
    name="zero",
)


def zero_potential() -> Potential:
    """V = 0, one shared instance: the builders add no force for it."""
    return _ZERO_POTENTIAL


def linear_potential(g) -> Potential:
    """V(q) = g . q (heavy-top style gravity term)."""
    g = np.asarray(g, dtype=float)
    return Potential(
        value=lambda q: np.einsum("...i,i->...", q, g),
        grad=lambda q: np.broadcast_to(g, q.shape).copy(),
        name="linear",
    )


def quadratic_potential(k: float) -> Potential:
    """V(q) = (k/2) |q|^2."""
    return Potential(
        value=lambda q: 0.5 * k * np.einsum("...i,...i->...", q, q),
        grad=lambda q: k * q,
        name="quadratic",
    )


def _check_spd(mat: np.ndarray, what: str) -> np.ndarray:
    """A read-only copy of ``mat`` after checking it is symmetric positive definite."""
    mat = np.array(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {mat.shape}")
    if np.max(np.abs(mat - mat.T)) > 1e-12 * (1.0 + np.max(np.abs(mat))):
        raise ValueError(f"{what} must be symmetric")
    eigs = np.linalg.eigvalsh(mat)
    if eigs[0] <= 0:
        raise ValueError(f"{what} must be positive definite (min eigenvalue {eigs[0]:.3e})")
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class QuadraticLagrangian:
    """l(u, q) = (1/2) u . G u - V(q) with G symmetric positive definite.

    Positive definiteness is the hyperregularity needed for an exact
    Legendre transform.
    """

    alg: LieAlgebraSpec
    kinetic: np.ndarray
    potential: Potential = field(default_factory=zero_potential)
    chart: Optional[ActionChart] = None

    def __post_init__(self):
        G = _check_spd(self.kinetic, "kinetic matrix G")
        if G.shape[0] != self.alg.dim:
            raise ValueError(
                f"kinetic matrix is {G.shape[0]}x{G.shape[0]}, algebra dimension is {self.alg.dim}"
            )
        object.__setattr__(self, "kinetic", G)

    @property
    def kinetic_inverse(self) -> np.ndarray:
        return np.linalg.inv(self.kinetic)

    def value(self, u, q=None) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        kin = 0.5 * np.einsum("...a,ab,...b->...", u, self.kinetic, u)
        if q is None:
            return kin
        return kin - self.potential.value(np.asarray(q, dtype=float))

    def grad_q(self, q) -> np.ndarray:
        """dl/dq = -dV/dq."""
        return -self.potential.grad(np.asarray(q, dtype=float))


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

        def velocity(m, out=None):
            return np.multiply(m, k, out=out)
    else:
        def velocity(m, out=None):
            u = np.add.reduce(np.multiply(K, m[..., None, :], order="C"), -1)
            if out is None:
                return u
            out[...] = u
            return out
    return velocity


@dataclass(frozen=True)
class ReducedHamiltonian:
    """h(m, q) = (1/2) m . K m + V(q) with K = G^(-1) symmetric positive definite."""

    alg: LieAlgebraSpec
    kinetic_inverse: np.ndarray
    potential: Potential = field(default_factory=zero_potential)

    def __post_init__(self):
        K = _check_spd(self.kinetic_inverse, "kinetic inverse K")
        if K.shape[0] != self.alg.dim:
            raise ValueError(
                f"K is {K.shape[0]}x{K.shape[0]}, algebra dimension is {self.alg.dim}"
            )
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
        kin = 0.5 * np.einsum("...a,ab,...b->...", m, self.kinetic_inverse, m)
        if q is None:
            return kin
        return kin + self.potential.value(np.asarray(q, dtype=float))

    def as_field(self) -> ScalarField:
        """h as a scalar field over m alone (kinetic part)."""
        return ScalarField(value=self.value, grad=self.velocity, name="h")

    def as_mq_field(self, n: int) -> ScalarField:
        """h as a scalar field over the packed (m, q) state."""
        r = self.alg.dim

        def value(x):
            return self.value(x[..., :r], x[..., r:])

        def grad(x):
            return np.concatenate([self.velocity(x[..., :r]), self.potential.grad(x[..., r:])], -1)

        return ScalarField(value=value, grad=grad, name="h")


def legendre(L: QuadraticLagrangian, u, q=None):
    """Legendre transform: m = G u and h = (1/2) m . K m + V(q).

    Returns (m, h_value); the inverse u = K m recovers u exactly for the
    quadratic kinetic energy.
    """
    u = np.asarray(u, dtype=float)
    if u.shape[-1] != L.alg.dim:
        raise ValueError(f"u has dimension {u.shape[-1]}, expected {L.alg.dim}")
    m = np.einsum("ab,...b->...a", L.kinetic, u)
    return m, ReducedHamiltonian.from_lagrangian(L).value(m, q)


def _validated_u(u_of, t, x, r: int) -> np.ndarray:
    u = np.asarray(u_of(t, x), dtype=float)
    if u.shape[-1] != r:
        raise ValueError(f"u policy returned dimension {u.shape[-1]}, expected {r}")
    return u


def _directions(noise: NoiseSpec, r: int) -> np.ndarray:
    """The noise directions as a (C, r) array; the reshape turns the (0, 0)
    directions of ``NoiseSpec.make([], seed)`` into (0, r)."""
    if noise.channels and noise.xi.shape[1] != r:
        raise ValueError(
            f"noise directions have dimension {noise.xi.shape[1]}, algebra needs {r}"
        )
    return noise.xi.reshape(noise.channels, r)


def _ito_drift(field, dfield, xi: np.ndarray, x) -> np.ndarray:
    """(1/2) sum_k DX_{xi_k}(x)[X_{xi_k}(x)] for the action field X of one level.

    X_w is the Hamiltonian vector field of <mu, w>, so per coordinate
    function f this is the double bracket (1/2) sum_k {{f, <mu, xi_k>}, <mu, xi_k>}.
    All channels are evaluated in one call of ``field`` and ``dfield``.
    """
    x = np.asarray(x, dtype=float)
    # channels outermost, (C, ..., d), so a batch is the innermost axis of
    # each channel's term
    w = xi.reshape(xi.shape[:1] + (1,) * (x.ndim - 1) + xi.shape[1:])
    terms = dfield(w, x, field(w, x))
    out = np.zeros_like(x)
    # a fixed channel order keeps each row independent of the batch size
    for k in range(xi.shape[0]):
        out = out + terms[k]
    return 0.5 * out


def _stack_buffer(rows: int, lead: tuple, width: int) -> np.ndarray:
    """An empty (rows, *lead, width) array with the stack axis outermost in
    memory.  A batch (E,) gets component-major rows: the layout ensemble
    states keep, in which the fields evaluate several times faster."""
    if len(lead) == 1:
        return np.empty((rows, width) + lead).transpose(0, 2, 1)
    return np.empty((rows,) + lead + (width,))


def _coupled_system(field, dfield, momentum, K: np.ndarray, noise: NoiseSpec,
                    u_of: Optional[Callable] = None, force=None, **system_kw) -> SdeSystem:
    """The SDE dx = X_u(x) dt + force(x) dt + X_{xi_k}(x) o dW^k of one level.

    A level supplies its action field ``field(w, x)`` = X_w(x), broadcasting
    algebra elements w against states x, the directional derivative
    ``dfield(w, x, v)`` = DX_w(x)[v] and its momentum map ``momentum(x)``.
    The velocity u is ``u_of(t, x)`` or the Legendre feedback K mu(x);
    ``force`` is ``(block, f)``, adding f(x) to the drift's coordinates
    ``[..., block]`` only, or None.  The drift carries ``stacked()``, whose
    evaluators compute X once at (u, xi_1, ..., xi_C) for the integrators
    (the contract is in :class:`SdeSystem`); ``field`` must return a new
    array, since an evaluator reuses its W.  The
    system carries ``momentum`` as its own; the remaining keyword arguments
    go to :class:`SdeSystem`.
    """
    r = K.shape[0]
    xi = _directions(noise, r)

    # u into ``out`` (a new array without one)
    if u_of is None:
        legendre = _legendre_velocity(K)

        def velocity(t, x, out=None):
            return legendre(momentum(x), out)
    else:
        def velocity(t, x, out=None):
            u = _validated_u(u_of, t, x, r)
            if out is None:
                return u
            out[...] = u
            return out

    def forced(out, x):
        if force is not None:
            block, f = force
            out[..., block] += f(x)
        return out

    def drift(t, x):
        return forced(field(velocity(t, x), x), x)

    def diffusion(t, x):
        return field(xi, x[..., None, :])

    def stacked():
        W = U = None

        def evaluate(t, x):
            # one W per evaluator; its noise rows are set when the batch
            # shape changes, so each stage writes only the velocity row U
            nonlocal W, U
            lead = x.shape[:-1]
            if W is None or W.shape[1:-1] != lead:
                W = _stack_buffer(1 + len(xi), lead, r)
                W[1:] = xi.reshape((len(xi),) + (1,) * len(lead) + (r,))
                U = W[0]
            velocity(t, x, U)
            out = field(W, x)
            if force is not None:
                forced(out[0], x)
            return out

        return evaluate

    def correction(t, x):
        return _ito_drift(field, dfield, xi, x)

    drift.stacked, stacked.fields = stacked, (drift, diffusion)
    return SdeSystem(channels=noise.channels, drift=drift, diffusion=diffusion,
                     ito_correction=correction, momentum=momentum, **system_kw)


def _chart_jacobian(chart: ActionChart, q, w) -> np.ndarray:
    """dB^i/dq^j of the configuration field B^i = A_a^i(q) w^a, shape (..., n, n)."""
    return np.einsum("...aij,...a->...ij", chart.d_coefficients(q), w)


def _phase_fields(chart: ActionChart):
    """X_w(q, p) = (A(q)^T w, -dA(q)^T p . w), the cotangent lift, and its derivative."""
    n = chart.n

    def field(w, x):
        q, p = x[..., :n], x[..., n:]
        dq = np.einsum("...ai,...a->...i", chart.coefficients(q), w)
        dp = -np.einsum("...aji,...j,...a->...i", chart.d_coefficients(q), p, w)
        return np.concatenate([dq, dp], axis=-1)

    def dfield(w, x, v):
        q, p = x[..., :n], x[..., n:]
        vq, vp = v[..., :n], v[..., n:]
        db = _chart_jacobian(chart, q, w)
        d2b = np.einsum("...aijl,...a->...ijl", chart.d2_coefficients(q), w)
        dq = np.einsum("...ij,...j->...i", db, vq)
        dp = (-np.einsum("...lij,...l,...j->...i", d2b, p, vq)
              - np.einsum("...li,...l->...i", db, vp))
        return np.concatenate([dq, dp], axis=-1)

    return field, dfield


def phase_space_system(
    L: QuadraticLagrangian,
    noise: NoiseSpec,
    u_of: Optional[Callable] = None,
    name: str = "",
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
    if chart.alg.dim != L.alg.dim:
        raise ValueError("chart and Lagrangian algebras must conform")
    n = chart.n
    field, dfield = _phase_fields(chart)
    labels = tuple(f"q{i+1}" for i in range(n)) + tuple(f"p{i+1}" for i in range(n))
    return _coupled_system(
        field, dfield, lambda x: momentum_map(chart, x), L.kinetic_inverse, noise, u_of,
        force=None if L.potential is zero_potential() else (
            slice(n, None), lambda x: L.grad_q(x[..., :n])),
        state_dim=2 * n, labels=labels, name=name or f"phase_space[{chart.name}]",
    )


def ito_correction_phase(chart: ActionChart, noise: NoiseSpec, state) -> np.ndarray:
    """Stratonovich-to-Ito drift correction on T*Q, (1/2) sum_k DX_{xi_k} X_{xi_k}.

    Per channel, with B^i = A_a^i xi^a:
      q-block: (1/2) dB^i/dq^j B^j,
      p-block: (1/2) [ -p_l d2B^l/dq^i dq^j B^j + dB^l/dq^i p_m dB^m/dq^l ].
    """
    return _ito_drift(*_phase_fields(chart), _directions(noise, chart.alg.dim), state)


def lie_poisson_system(
    alg: LieAlgebraSpec,
    K,
    noise: NoiseSpec,
    u_of: Optional[Callable] = None,
    name: str = "",
    reproject_casimir: bool = False,
) -> SdeSystem:
    """Collective Stratonovich dynamics on the dual algebra.

    The algebra acts by X_w(m) = ad*(w, m) with momentum map m itself:
    drift ad*(u, m) with u = K m (or a supplied policy), diffusion channel k
    ad*(xi_k, m), and the Ito correction (1/2) sum_k ad*(xi_k, ad*(xi_k, m)).

    ``reproject_casimir`` renormalizes |m| to its initial value after every
    step (off by default; the unprojected Casimir drift is itself a
    diagnostic quantity).
    """
    K = _check_spd(K, "kinetic inverse K")

    post = None
    if reproject_casimir:
        def post(x_new, x0):
            norm = np.linalg.norm(x_new, axis=-1, keepdims=True)
            target = np.linalg.norm(x0, axis=-1, keepdims=True)
            return x_new * np.divide(target, norm, out=np.ones_like(norm), where=norm != 0.0)

    return _coupled_system(
        lambda w, m: _ad_star(alg, w, m), lambda w, m, v: _ad_star(alg, w, v),
        lambda m: m, K, noise, u_of,
        state_dim=alg.dim, labels=tuple(f"m{i+1}" for i in range(alg.dim)),
        name=name or f"lie_poisson[{alg.name}]", post_step=post,
    )


def hamel_system(
    chart: ActionChart,
    h: ReducedHamiltonian,
    noise: NoiseSpec,
    name: str = "",
) -> SdeSystem:
    """Stratonovich dynamics on the mixed (m, q) level.

    The algebra acts by X_w(m, q) = (ad*(w, m), A(q)^T w) with momentum map
    m: dm_a = -c_ab^g m_g dh/dm_b - A_a^j dh/dq^j, dq^i = A_b^i dh/dm_b in
    the drift.  Channel k replaces dh/dm by xi_k and drops the dh/dq term,
    which enters only through the bounded-variation part of the stochastic
    Hamiltonian.  The Ito correction is (1/2) sum_k DX_{xi_k} X_{xi_k}.
    """
    if chart.alg.dim != h.alg.dim:
        raise ValueError("chart and Hamiltonian algebras must conform")
    r, n = h.alg.dim, chart.n
    alg = h.alg

    def field(w, x):
        m, q = x[..., :r], x[..., r:]
        dq = np.einsum("...bi,...b->...i", chart.coefficients(q), w)
        return np.concatenate([_ad_star(alg, w, m), dq], axis=-1)

    def dfield(w, x, v):
        dq = np.einsum("...ij,...j->...i", _chart_jacobian(chart, x[..., r:], w), v[..., r:])
        return np.concatenate([_ad_star(alg, w, v[..., :r]), dq], axis=-1)

    def force(x):
        q = x[..., r:]
        return -np.einsum("...aj,...j->...a", chart.coefficients(q), h.potential.grad(q))

    labels = tuple(f"m{i+1}" for i in range(r)) + tuple(f"q{i+1}" for i in range(n))
    return _coupled_system(
        field, dfield, lambda x: x[..., :r], h.kinetic_inverse, noise,
        force=None if h.potential is zero_potential() else (slice(0, r), force),
        state_dim=r + n, labels=labels, name=name or f"hamel[{chart.name}]",
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


def casimir(alg: LieAlgebraSpec, name: str = "quadratic") -> ScalarField:
    """The quadratic Casimir C(m) = sum m_a^2 on the dual of so(3).

    Only so(3) carries this invariant form in v1; other algebras are
    rejected.
    """
    if name != "quadratic":
        raise LookupError(f"unknown Casimir {name!r}; only 'quadratic' is available")
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
        gq = np.einsum("...aji,...j,a->...i", da, p, xi)
        gp = np.einsum("...ai,a->...i", a, xi)
        return np.concatenate([gq, gp], axis=-1)

    return ScalarField(value=value, grad=grad, name="m.xi")
