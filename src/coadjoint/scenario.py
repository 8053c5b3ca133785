"""Scenario documents: one JSON file describing a complete simulation run.

The schema (shipped as ``schema/scenario.schema.json``) rejects unknown
fields, so a typo in a noise direction list fails loudly instead of being
ignored.  Semantic checks beyond the schema (built-in names, SPD matrices,
dimension agreement, power-of-two step counts) raise
:class:`ScenarioError` with the offending field named.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .actions import builtin_chart, chart_names
from .algebra import BUILTIN_ALGEBRAS, LieAlgebraSpec, abelian, builtin
from .dynamics import (
    Potential,
    QuadraticLagrangian,
    ReducedHamiltonian,
    _check_spd,
    hamel_system,
    lie_poisson_system,
    linear_potential,
    phase_space_system,
    quadratic_potential,
    zero_potential,
)
from .fields import ScalarField
from .integrators import SdeSystem
from .noise import NoiseSpec

__all__ = ["ScenarioError", "Scenario", "load_scenario", "build_scenario", "scenario_schema"]


class ScenarioError(ValueError):
    """Invalid scenario document; the message names the field at fault."""


def _algebra_by_name(name: str) -> LieAlgebraSpec:
    """Scenario algebra names: the lie_core built-ins plus the abelian r3."""
    if name == "r3":
        return abelian(3)
    return builtin(name)


def _algebra_names() -> list:
    return sorted(BUILTIN_ALGEBRAS) + ["r3"]


def scenario_schema() -> dict:
    with resources.files("coadjoint.schema").joinpath("scenario.schema.json").open() as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Scenario:
    """Validated scenario fields, still in document form."""

    doc: dict

    def __getitem__(self, key):
        return self.doc[key]

    def get(self, key, default=None):
        return self.doc.get(key, default)


@dataclass(frozen=True)
class BuiltScenario:
    """Everything a runner needs: the system, initial state, and run plan.

    ``energy`` is the Hamiltonian as a field over the system's own state.
    """

    system: SdeSystem
    x0: np.ndarray
    noise: NoiseSpec
    T: float
    M: int
    scheme: str
    alg: LieAlgebraSpec
    hamiltonian: ReducedHamiltonian
    energy: ScalarField
    outputs: dict = field(default_factory=dict)


@functools.cache
def _scenario_validator():
    """The schema's validator, built and checked against its metaschema once
    per process; jsonschema is imported on the first scenario load."""
    from jsonschema.validators import validator_for

    schema = scenario_schema()
    cls = validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file against the published schema."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    _check_finite(doc)
    from jsonschema.exceptions import best_match

    # the error jsonschema.validate would raise
    error = best_match(_scenario_validator().iter_errors(doc))
    if error is not None:
        raise ScenarioError(f"{error.json_path}: {error.message}")
    _semantic_checks(doc)
    return Scenario(doc=doc)


def _check_finite(node, path: str = "$") -> None:
    """Refuses a NaN or infinite number anywhere in ``node``, naming its JSON
    path; json reads NaN, Infinity and an overflowing 1e400 as such floats."""
    if isinstance(node, float) and not np.isfinite(node):
        raise ScenarioError(f"{path}: {node!r} is not a finite number")
    if isinstance(node, (dict, list)):
        keyed = isinstance(node, dict)
        for key, value in node.items() if keyed else enumerate(node):
            _check_finite(value, f"{path}.{key}" if keyed else f"{path}[{key}]")


def _semantic_checks(doc: dict) -> None:
    system = doc["system"]
    if doc["algebra"] not in _algebra_names():
        raise ScenarioError(
            f"$.algebra: unknown algebra {doc['algebra']!r}; "
            f"available: {_algebra_names()}"
        )
    if system in ("phase_space", "hamel"):
        if "chart" not in doc:
            raise ScenarioError(f"$.chart: required for system {system!r}")
        if doc["chart"] not in chart_names():
            raise ScenarioError(
                f"$.chart: unknown chart {doc['chart']!r}; available: {chart_names()}"
            )
    M = doc["M"]
    if doc["scheme"] == "rk4" and doc.get("xi"):
        raise ScenarioError(
            f"$.scheme: rk4 steps the drift alone, but the scenario has "
            f"{len(doc['xi'])} noise direction(s); use heun_strat or euler_ito, "
            "or set xi to []"
        )
    if doc["scheme"] != "rk4" and M & (M - 1):
        raise ScenarioError(f"$.M: {M} is not a power of two")
    kin_key = "G" if "G" in doc["kinetic"] else "K"
    try:
        _check_spd(doc["kinetic"][kin_key], "matrix")
    except ValueError as exc:
        raise ScenarioError(f"$.kinetic.{kin_key}: {exc}") from None
    if system == "lie_poisson":
        if "m0" not in doc:
            raise ScenarioError("$.m0: required for system 'lie_poisson'")
        if doc.get("potential", {"id": "zero"})["id"] != "zero":
            raise ScenarioError("$.potential: lie_poisson dynamics has no configuration potential")
    elif system == "phase_space":
        x0 = doc.get("x0", {})
        if "q" not in x0 or "p" not in x0:
            raise ScenarioError("$.x0: phase_space needs both 'q' and 'p'")
    else:
        x0 = doc.get("x0", {})
        if "m" not in x0 or "q" not in x0:
            raise ScenarioError("$.x0: hamel needs both 'm' and 'q'")
        if doc.get("u_policy", {"id": "legendre"})["id"] != "legendre":
            raise ScenarioError(
                "$.u_policy: the hamel system fixes u = dh/dm; only 'legendre' applies"
            )
    policy = doc.get("u_policy", {"id": "legendre"})
    if policy["id"] == "constant" and "value" not in policy:
        raise ScenarioError("$.u_policy: constant policy needs a 'value' vector")
    for diag in doc.get("outputs", {}).get("diagnostics", []):
        if diag == "momentum_map" and system != "phase_space":
            raise ScenarioError(
                "$.outputs.diagnostics: momentum_map applies to phase_space runs only"
            )
        if diag == "casimir" and doc["algebra"] != "so3":
            raise ScenarioError(
                "$.outputs.diagnostics: the quadratic Casimir needs algebra so3"
            )


def _build_potential(doc: dict, n: int) -> Potential:
    pot = doc.get("potential", {"id": "zero"})
    params = pot.get("params", {})
    if pot["id"] == "zero":
        return zero_potential()
    if pot["id"] == "linear":
        g = np.asarray(params.get("g", []), dtype=float)
        if g.shape != (n,):
            raise ScenarioError(f"$.potential.params.g: need a {n}-vector")
        return linear_potential(g)
    k = params.get("k")
    if not isinstance(k, (int, float)):
        raise ScenarioError("$.potential.params.k: need a number")
    return quadratic_potential(float(k))


def _u_policy(doc: dict, alg: LieAlgebraSpec):
    """Translate the policy document into a u_of callable (None = Legendre)."""
    policy = doc.get("u_policy", {"id": "legendre"})
    if policy["id"] == "legendre":
        return None
    if policy["id"] == "zero":
        zero = np.zeros(alg.dim)
        return lambda t, x: np.broadcast_to(zero, x.shape[:-1] + (alg.dim,))
    value = np.asarray(policy["value"], dtype=float)
    if value.shape != (alg.dim,):
        raise ScenarioError(f"$.u_policy.value: need a {alg.dim}-vector")
    return lambda t, x: np.broadcast_to(value, x.shape[:-1] + (alg.dim,))


def build_scenario(scn: Scenario) -> BuiltScenario:
    """Instantiate the system, noise, and initial state a scenario describes."""
    doc = scn.doc
    alg = _algebra_by_name(doc["algebra"])
    kin = doc["kinetic"]
    if "G" in kin:
        G = np.asarray(kin["G"], dtype=float)
        K = np.linalg.inv(G)
    else:
        K = np.asarray(kin["K"], dtype=float)
        G = np.linalg.inv(K)
    if G.shape[0] != alg.dim:
        raise ScenarioError(
            f"$.kinetic: matrix is {G.shape[0]}x{G.shape[0]}, algebra "
            f"{alg.name!r} has dimension {alg.dim}"
        )
    xi = np.asarray(doc.get("xi", []), dtype=float)
    if xi.size and xi.shape[1] != alg.dim:
        raise ScenarioError(f"$.xi: directions must be {alg.dim}-vectors")
    noise = NoiseSpec.make(xi if xi.size else np.zeros((0, alg.dim)), seed=doc["seed"])

    system_kind = doc["system"]
    if system_kind in ("phase_space", "hamel"):
        chart = builtin_chart(doc["chart"])
        if chart.alg.name != alg.name:
            raise ScenarioError(
                f"$.chart: chart {doc['chart']!r} acts with algebra "
                f"{chart.alg.name!r}, scenario says {alg.name!r}"
            )

    if system_kind == "lie_poisson":
        m0 = np.asarray(doc["m0"], dtype=float)
        if m0.shape != (alg.dim,):
            raise ScenarioError(f"$.m0: need a {alg.dim}-vector")
        hamiltonian = ReducedHamiltonian(alg=alg, kinetic_inverse=K)
        system = lie_poisson_system(alg, K, noise, u_of=_u_policy(doc, alg))
        energy = hamiltonian.as_field()
        x0 = m0
    elif system_kind == "phase_space":
        potential = _build_potential(doc, 3)
        L = QuadraticLagrangian(alg=alg, kinetic=G, potential=potential, chart=chart)
        hamiltonian = ReducedHamiltonian.from_lagrangian(L)
        system = phase_space_system(L, noise, u_of=_u_policy(doc, alg))
        energy = ScalarField(
            value=lambda x: hamiltonian.value(system.momentum(x), x[..., :chart.n]),
            name="energy",
        )
        q = np.asarray(doc["x0"]["q"], dtype=float)
        p = np.asarray(doc["x0"]["p"], dtype=float)
        if q.shape != (chart.n,) or p.shape != (chart.n,):
            raise ScenarioError(f"$.x0: q and p must be {chart.n}-vectors")
        x0 = np.concatenate([q, p])
    else:
        potential = _build_potential(doc, 3)
        hamiltonian = ReducedHamiltonian(alg=alg, kinetic_inverse=K, potential=potential)
        system = hamel_system(chart, hamiltonian, noise)
        energy = hamiltonian.as_mq_field(chart.n)
        m = np.asarray(doc["x0"]["m"], dtype=float)
        q = np.asarray(doc["x0"]["q"], dtype=float)
        if m.shape != (alg.dim,) or q.shape != (chart.n,):
            raise ScenarioError(
                f"$.x0: m must be a {alg.dim}-vector and q a {chart.n}-vector"
            )
        x0 = np.concatenate([m, q])

    return BuiltScenario(
        system=system,
        x0=x0,
        noise=noise,
        T=float(doc["T"]),
        M=int(doc["M"]),
        scheme=doc["scheme"],
        alg=alg,
        hamiltonian=hamiltonian,
        energy=energy,
        outputs=doc.get("outputs", {}),
    )
