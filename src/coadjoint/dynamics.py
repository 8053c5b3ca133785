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

Every builder also supplies the analytic Ito correction drift, a closed-form
contraction of the structure constants and chart derivatives equal to the
nested double bracket (1/2) sum_k {{f, <m, xi_k>}, <m, xi_k>} per coordinate
function f; the bracket evaluation itself is kept as the independent test
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .actions import ActionChart, momentum_map
from .algebra import LieAlgebraSpec, ad_star
from .fields import ScalarField
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


def zero_potential() -> Potential:
    return Potential(
        value=lambda q: np.zeros(q.shape[:-1]),
        grad=lambda q: np.zeros_like(q),
        name="zero",
    )


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
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {mat.shape}")
    if np.max(np.abs(mat - mat.T)) > 1e-12 * (1.0 + np.max(np.abs(mat))):
        raise ValueError(f"{what} must be symmetric")
    eigs = np.linalg.eigvalsh(mat)
    if eigs[0] <= 0:
        raise ValueError(f"{what} must be positive definite (min eigenvalue {eigs[0]:.3e})")
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
        G.setflags(write=False)
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
        K.setflags(write=False)
        object.__setattr__(self, "kinetic_inverse", K)

    @staticmethod
    def from_lagrangian(L: QuadraticLagrangian) -> "ReducedHamiltonian":
        return ReducedHamiltonian(
            alg=L.alg, kinetic_inverse=L.kinetic_inverse, potential=L.potential
        )

    def velocity(self, m) -> np.ndarray:
        """dh/dm = K m, the Legendre inverse of m = G u."""
        return np.einsum("ab,...b->...a", self.kinetic_inverse, np.asarray(m, dtype=float))

    def value(self, m, q=None) -> np.ndarray:
        m = np.asarray(m, dtype=float)
        kin = 0.5 * np.einsum("...a,ab,...b->...", m, self.kinetic_inverse, m)
        if q is None:
            return kin
        return kin + self.potential.value(np.asarray(q, dtype=float))

    def as_field(self) -> ScalarField:
        """h as a scalar field over m alone (kinetic part)."""
        return ScalarField(
            value=lambda m: float(self.value(m)),
            grad=lambda m: self.velocity(m),
            name="h",
        )

    def as_mq_field(self, n: int) -> ScalarField:
        """h as a scalar field over the packed (m, q) state."""
        r = self.alg.dim

        def value(x):
            return float(self.value(x[:r], x[r:]))

        def grad(x):
            return np.concatenate([self.velocity(x[:r]), self.potential.grad(x[r:])])

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
    h = 0.5 * np.einsum("...a,ab,...b->...", m, L.kinetic_inverse, m)
    if q is not None:
        h = h + L.potential.value(np.asarray(q, dtype=float))
    return m, h


def _legendre_feedback(chart: ActionChart, K: np.ndarray):
    """u(t, x) = K m(q, p): the default velocity policy on phase space."""

    def u_of(t, x):
        m = momentum_map(chart, x)
        return np.einsum("ab,...b->...a", K, m)

    return u_of


def _validated_u(u_of, t, x, r: int) -> np.ndarray:
    u = np.asarray(u_of(t, x), dtype=float)
    if u.shape[-1] != r:
        raise ValueError(f"u policy returned dimension {u.shape[-1]}, expected {r}")
    return u


def phase_space_system(
    L: QuadraticLagrangian,
    noise: NoiseSpec,
    u_of: Optional[Callable] = None,
    name: str = "",
) -> SdeSystem:
    """Stratonovich dynamics on T*Q driven through the momentum map.

    Drift: dq^i = A_a^i(q) u^a, dp_i = -p_j dA_a^j/dq^i u^a - dV/dq^i;
    channel k replaces u by xi_k (no potential force).  The Ito correction
    applies (1/2) sum_k X_k(X_k .) to each coordinate function, in closed
    form from A, dA, d2A.  ``u_of(t, state)`` defaults to the Legendre
    feedback u = K m(q, p).
    """
    chart = L.chart
    if chart is None:
        raise ValueError("Lagrangian carries no chart; phase-space dynamics needs one")
    if chart.alg.dim != L.alg.dim:
        raise ValueError("chart and Lagrangian algebras must conform")
    _check_noise(noise, L.alg.dim)
    n = chart.n
    r = L.alg.dim
    if u_of is None:
        u_of = _legendre_feedback(chart, L.kinetic_inverse)
    xi = noise.xi

    def drift(t, x):
        q, p = x[..., :n], x[..., n:]
        u = _validated_u(u_of, t, x, r)
        a = chart.coefficients(q)
        da = chart.d_coefficients(q)
        dq = np.einsum("...ai,...a->...i", a, u)
        dp = -np.einsum("...aji,...j,...a->...i", da, p, u) + L.grad_q(q)
        return np.concatenate([dq, dp], axis=-1)

    def diffusion(t, x):
        q, p = x[..., :n], x[..., n:]
        a = chart.coefficients(q)
        da = chart.d_coefficients(q)
        dq = np.einsum("...ai,ka->...ki", a, xi)
        dp = -np.einsum("...aji,...j,ka->...ki", da, p, xi)
        return np.concatenate([dq, dp], axis=-1)

    def correction(t, x):
        return ito_correction_phase(chart, noise, x)

    labels = tuple(f"q{i+1}" for i in range(n)) + tuple(f"p{i+1}" for i in range(n))
    return SdeSystem(
        state_dim=2 * n,
        channels=noise.channels,
        drift=drift,
        diffusion=diffusion,
        ito_correction=correction,
        labels=labels,
        name=name or f"phase_space[{chart.name}]",
    )


def ito_correction_phase(chart: ActionChart, noise: NoiseSpec, state) -> np.ndarray:
    """Closed-form Stratonovich-to-Ito drift correction on T*Q.

    Per channel, with B^i = A_a^i xi^a:
      q-block: (1/2) dB^i/dq^j B^j,
      p-block: (1/2) [ -p_l d2B^l/dq^i dq^j B^j + dB^l/dq^i p_m dB^m/dq^l ].
    """
    x = np.asarray(state, dtype=float)
    n = chart.n
    q, p = x[..., :n], x[..., n:]
    a = chart.coefficients(q)
    da = chart.d_coefficients(q)
    d2a = chart.d2_coefficients(q)
    dq = np.zeros_like(q)
    dp = np.zeros_like(p)
    for k in range(noise.channels):
        xi = noise.xi[k]
        b = np.einsum("...ai,a->...i", a, xi)            # B^i
        db = np.einsum("...aij,a->...ij", da, xi)        # dB^i/dq^j
        d2b = np.einsum("...aijl,a->...ijl", d2a, xi)    # d2B^i/dq^j dq^l
        dq = dq + np.einsum("...ij,...j->...i", db, b)
        dp = dp - np.einsum("...lij,...l,...j->...i", d2b, p, b)
        dp = dp + np.einsum("...li,...ml,...m->...i", db, db, p)
    return 0.5 * np.concatenate([dq, dp], axis=-1)


def _check_noise(noise: NoiseSpec, r: int) -> None:
    if noise.channels and noise.xi.shape[1] != r:
        raise ValueError(
            f"noise directions have dimension {noise.xi.shape[1]}, algebra needs {r}"
        )


def _coadjoint_noise(alg: LieAlgebraSpec, noise: NoiseSpec):
    """Noise fields of the dual-algebra block, shared by the collective and Hamel builders.

    Returns ``(diffusion, correction)`` as ``(t, m)`` callbacks:
    ``diffusion`` stacks the channel fields ad*(xi_k, m) as ``(..., C, r)``
    and ``correction`` is the Ito double-bracket drift
    (1/2) sum_k ad*(xi_k, ad*(xi_k, m)).
    """
    # (0, r) without noise, so the grid solvers can evaluate a zero diffusion
    xi = noise.xi.reshape(noise.channels, alg.dim)

    def diffusion(t, m):
        return ad_star(alg, xi, m[..., None, :])

    def correction(t, m):
        out = np.zeros_like(m)
        for k in range(noise.channels):
            xk = np.broadcast_to(xi[k], m.shape)
            out = out + ad_star(alg, xk, ad_star(alg, xk, m))
        return 0.5 * out

    return diffusion, correction


def lie_poisson_system(
    alg: LieAlgebraSpec,
    K,
    noise: NoiseSpec,
    u_of: Optional[Callable] = None,
    name: str = "",
    reproject_casimir: bool = False,
) -> SdeSystem:
    """Collective Stratonovich dynamics on the dual algebra.

    Drift ad*(u, m) with u = K m (or a supplied policy), diffusion channel k
    is ad*(xi_k, m), and the Ito correction is
    (1/2) sum_k ad*(xi_k, ad*(xi_k, m)).

    ``reproject_casimir`` renormalizes |m| to its initial value after every
    step (off by default; the unprojected Casimir drift is itself a
    diagnostic quantity).
    """
    K = _check_spd(K, "kinetic inverse K")
    _check_noise(noise, alg.dim)
    diffusion, correction = _coadjoint_noise(alg, noise)

    def drift(t, m):
        if u_of is None:
            u = np.einsum("ab,...b->...a", K, m)
        else:
            u = _validated_u(u_of, t, m, alg.dim)
        return ad_star(alg, u, m)

    post = None
    if reproject_casimir:
        def post(x_new, x0):
            norm = np.linalg.norm(x_new, axis=-1, keepdims=True)
            target = np.linalg.norm(x0, axis=-1, keepdims=True)
            return x_new * np.divide(target, norm, out=np.ones_like(norm), where=norm != 0.0)

    labels = tuple(f"m{i+1}" for i in range(alg.dim))
    return SdeSystem(
        state_dim=alg.dim,
        channels=noise.channels,
        drift=drift,
        diffusion=diffusion,
        ito_correction=correction,
        labels=labels,
        name=name or f"lie_poisson[{alg.name}]",
        post_step=post,
    )


def hamel_system(
    chart: ActionChart,
    h: ReducedHamiltonian,
    noise: NoiseSpec,
    name: str = "",
) -> SdeSystem:
    """Stratonovich dynamics on the mixed (m, q) level.

    Drift: dm_a = -c_ab^g m_g dh/dm_b - A_a^j dh/dq^j, dq^i = A_b^i dh/dm_b.
    Channel k replaces dh/dm by xi_k and drops the dh/dq term, which enters
    only through the bounded-variation part of the stochastic Hamiltonian.
    """
    if chart.alg.dim != h.alg.dim:
        raise ValueError("chart and Hamiltonian algebras must conform")
    _check_noise(noise, h.alg.dim)
    r, n = h.alg.dim, chart.n
    alg = h.alg
    xi = noise.xi
    m_diffusion, m_correction = _coadjoint_noise(alg, noise)

    def drift(t, x):
        m, q = x[..., :r], x[..., r:]
        u = h.velocity(m)
        a = chart.coefficients(q)
        vq = h.potential.grad(q)
        dm = ad_star(alg, u, m) - np.einsum("...aj,...j->...a", a, vq)
        dq = np.einsum("...bi,...b->...i", a, u)
        return np.concatenate([dm, dq], axis=-1)

    def diffusion(t, x):
        m, q = x[..., :r], x[..., r:]
        a = chart.coefficients(q)
        dq = np.einsum("...bi,kb->...ki", a, xi)
        return np.concatenate([m_diffusion(t, m), dq], axis=-1)

    def correction(t, x):
        m, q = x[..., :r], x[..., r:]
        a = chart.coefficients(q)
        da = chart.d_coefficients(q)
        dq = np.zeros_like(q)
        for k in range(noise.channels):
            b = np.einsum("...bi,b->...i", a, xi[k])
            db = np.einsum("...bij,b->...ij", da, xi[k])
            dq = dq + np.einsum("...ij,...j->...i", db, b)
        return np.concatenate([m_correction(t, m), 0.5 * dq], axis=-1)

    labels = tuple(f"m{i+1}" for i in range(r)) + tuple(f"q{i+1}" for i in range(n))
    return SdeSystem(
        state_dim=r + n,
        channels=noise.channels,
        drift=drift,
        diffusion=diffusion,
        ito_correction=correction,
        labels=labels,
        name=name or f"hamel[{chart.name}]",
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
        value=lambda m: float(np.dot(m, m)),
        grad=lambda m: 2.0 * np.asarray(m, dtype=float),
        name="casimir",
    )


def momentum_pairing_field(chart: ActionChart, xi) -> ScalarField:
    """<m(q, p), xi> = p_i A_a^i(q) xi^a as a field over the packed phase state."""
    xi = np.asarray(xi, dtype=float)
    n = chart.n

    def value(x):
        return float(momentum_map(chart, x) @ xi)

    def grad(x):
        q, p = x[:n], x[n:]
        a = chart.coefficients(q)
        da = chart.d_coefficients(q)
        gq = np.einsum("...aji,...j,a->...i", da, p, xi)
        gp = np.einsum("...ai,a->...i", a, xi)
        return np.concatenate([gq, gp])

    return ScalarField(value=value, grad=grad, name="m.xi")
