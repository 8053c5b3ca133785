"""Scenario documents: one JSON file describing a complete simulation run.

The schema (shipped as ``schema/scenario.schema.json``) rejects unknown
fields, so a typo in a noise direction list fails loudly instead of being
ignored.  A standard-library walker enforces it, with jsonschema's error
choice and words, and refuses a schema keyword it does not implement.
:func:`build_scenario` is the one reader: it takes each field once, with
its default, checks what the schema cannot (built-in names, SPD matrices,
dimension agreement, power-of-two step counts), raising
:class:`ScenarioError` with the offending field named, and builds the run.
:func:`load_scenario` runs it after the schema, so a document loads only if
it builds.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .actions import builtin_chart, chart_names
from .algebra import BUILTIN_ALGEBRAS, LieAlgebraSpec, builtin
from .dynamics import (
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

__all__ = ["ScenarioError", "load_scenario", "build_scenario", "scenario_schema"]


class ScenarioError(ValueError):
    """Invalid scenario document; the message names the field at fault."""


def scenario_schema() -> dict:
    with resources.files("coadjoint.schema").joinpath("scenario.schema.json").open() as fh:
        return json.load(fh)


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


_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float), "integer": int}
# keyword: (the type of value it constrains, x breaks rule r, jsonschema's
# message); $ref, items and properties descend instead
_RULES = {
    "type": (None, lambda x, r: not _is(x, r), lambda x, r: f"{x!r} is not of type {r!r}"),
    "const": (None, lambda x, r: not _same(x, r), lambda x, r: f"{r!r} was expected"),
    "enum": (None, lambda x, r: not any(_same(x, e) for e in r),
             lambda x, r: f"{x!r} is not one of {r!r}"),
    "minimum": ("number", operator.lt, lambda x, r: f"{x!r} is less than the minimum of {r!r}"),
    "maximum": ("number", operator.gt, lambda x, r: f"{x!r} is greater than the maximum of {r!r}"),
    "exclusiveMinimum": ("number", operator.le,
                         lambda x, r: f"{x!r} is less than or equal to the minimum of {r!r}"),
    "minItems": ("array", lambda x, r: len(x) < r,
                 lambda x, r: f"{x!r} {'should be non-empty' if r == 1 else 'is too short'}"),
    "minProperties": ("object", lambda x, r: len(x) < r, lambda x, r: f"{x!r} " + (
        "should be non-empty" if r == 1 else "does not have enough properties")),
    "maxProperties": ("object", lambda x, r: len(x) > r, lambda x, r: f"{x!r} " + (
        "is expected to be empty" if r == 0 else "has too many properties")),
    # of several missing properties, best_match reports the first
    "required": ("object", lambda x, r: not set(r) <= x.keys(),
                 lambda x, r: f"{next(n for n in r if n not in x)!r} is a required property"),
}


def _is(x, kind: str) -> bool:
    """JSON's types: true is not a number, and 1.0 is an integer."""
    if kind == "integer" and isinstance(x, float):
        return x.is_integer()
    return isinstance(x, _TYPES[kind]) and not isinstance(x, bool)


def _same(a, b) -> bool:
    """JSON's equality: 1 equals 1.0, and true is not 1."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(v, b[k]) for k, v in a.items())
    return isinstance(a, bool) == isinstance(b, bool) and a == b


@functools.cache
def _checked_schema() -> dict:
    """The published schema, read once per process and refused if it has a
    keyword, or a form of one, that ``_schema_errors`` does not enforce."""
    schema = scenario_schema()
    refs, stack = [f"#/$defs/{name}" for name in schema["$defs"]], [schema]
    while stack:
        for key, r in stack.pop().items():
            known = (key in ("title", "$defs", "properties")
                     or key == "$schema" and r == "https://json-schema.org/draft/2020-12/schema"
                     or key in _RULES and (key != "type" or r in tuple(_TYPES))
                     or key == "$ref" and r in refs
                     or key == "additionalProperties" and r is False
                     or key == "items" and isinstance(r, dict))
            if not known:
                raise NotImplementedError(f"scenario schema: {key}: {r!r} is not enforced")
            if key in ("$defs", "properties"):
                stack += r.values()
            elif key == "items":
                stack.append(r)
    return schema


def _schema_errors(x, schema: dict, defs: dict, path: tuple = ()):
    """Yields (path, x fails the schema's type, message) for each rule x breaks,
    in jsonschema's order: keywords as the schema lists them, depth first."""
    untyped = "type" not in schema or not _is(x, schema["type"])
    for key, r in schema.items():
        kind, broken, message = _RULES.get(key, ("", None, None))
        if broken and (kind is None or _is(x, kind)) and broken(x, r):
            yield path, untyped, message(x, r)
        elif key == "$ref":
            yield from _schema_errors(x, defs[r.removeprefix("#/$defs/")], defs, path)
        elif key == "items" and _is(x, "array"):
            for i, item in enumerate(x):
                yield from _schema_errors(item, r, defs, path + (i,))
        elif key == "properties" and _is(x, "object"):
            for name in [name for name in r if name in x]:
                yield from _schema_errors(x[name], r[name], defs, path + (name,))
        elif key == "additionalProperties" and _is(x, "object") and (
                extras := sorted(x.keys() - schema.get("properties", {}).keys())):
            yield path, untyped, "Additional properties are not allowed ({} {} unexpected)".format(
                ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were")


def load_scenario(path) -> dict:
    """The scenario document at ``path``, validated against the published
    schema and refused unless :func:`build_scenario` would build it."""
    return _load(path)[0]


def _load(path):
    """:func:`load_scenario`'s document and the run it builds, built once."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    _check_finite(doc)
    schema = _checked_schema()
    # jsonschema's best_match: the shallowest path, then the greatest path,
    # then a value of the wrong type, then the first found
    errors = list(_schema_errors(doc, schema, schema["$defs"]))
    if errors:
        where, _, message = max(errors, key=lambda e: (-len(e[0]), e[0], e[1]))
        steps = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in where)
        raise ScenarioError(f"${steps}: {message}")
    return doc, build_scenario(doc)


def _check_finite(node, path: str = "$") -> None:
    """Refuses a NaN or infinite number anywhere in ``node``, naming its JSON
    path; json reads NaN, Infinity and an overflowing 1e400 as such floats."""
    if isinstance(node, float) and not np.isfinite(node):
        raise ScenarioError(f"{path}: {node!r} is not a finite number")
    if isinstance(node, (dict, list)):
        keyed = isinstance(node, dict)
        for key, value in node.items() if keyed else enumerate(node):
            _check_finite(value, f"{path}.{key}" if keyed else f"{path}[{key}]")


def build_scenario(doc: dict) -> BuiltScenario:
    """The system, noise, and initial state ``doc`` describes.

    Every field is read once, with its default, and checked; a field at
    fault raises :class:`ScenarioError` naming it, the document-level rules
    before the shape rules.  The schema is :func:`load_scenario`'s, which
    runs this too."""
    system, name, scheme = doc["system"], doc["algebra"], doc["scheme"]
    if name not in BUILTIN_ALGEBRAS:
        raise ScenarioError(
            f"$.algebra: unknown algebra {name!r}; available: {sorted(BUILTIN_ALGEBRAS)}")
    # each system reads one initial state and refuses the fields of the others
    if system == "lie_poisson":
        for key in ("chart", "x0"):
            if key in doc:
                raise ScenarioError(f"$.{key}: system 'lie_poisson' reads no {key}")
    else:
        if "chart" not in doc:
            raise ScenarioError(f"$.chart: required for system {system!r}")
        if doc["chart"] not in chart_names():
            raise ScenarioError(
                f"$.chart: unknown chart {doc['chart']!r}; available: {chart_names()}")
        if "m0" in doc:
            raise ScenarioError(f"$.m0: system {system!r} reads its state from x0, not m0")
    pot = doc.get("potential", {"id": "zero"})
    params = pot.get("params", {})
    for key in params:
        if key not in {"zero": (), "linear": ("g",), "quadratic": ("k",)}[pot["id"]]:
            raise ScenarioError(
                f"$.potential.params.{key}: the {pot['id']} potential takes no {key!r}")
    M, xi = int(doc["M"]), doc.get("xi", [])  # JSON takes 64.0 for an integer
    if scheme == "rk4" and xi:
        raise ScenarioError(
            f"$.scheme: rk4 steps the drift alone, but the scenario has {len(xi)} noise "
            "direction(s); use heun_strat or euler_ito, or set xi to []")
    if scheme != "rk4" and M & (M - 1):
        raise ScenarioError(f"$.M: {M} is not a power of two")
    kin_key = "G" if "G" in doc["kinetic"] else "K"
    kin = doc["kinetic"][kin_key]
    try:
        # its size is checked against the algebra below, with the other shapes
        matrix = _check_spd(kin, "matrix", len(kin))
    except ValueError as exc:
        raise ScenarioError(f"$.kinetic.{kin_key}: {exc}") from None
    x0, policy = doc.get("x0", {}), doc.get("u_policy", {"id": "legendre"})
    if system == "lie_poisson":
        if "m0" not in doc:
            raise ScenarioError("$.m0: required for system 'lie_poisson'")
        if pot["id"] != "zero":
            raise ScenarioError("$.potential: lie_poisson dynamics has no configuration potential")
    elif system == "phase_space":
        if "q" not in x0 or "p" not in x0:
            raise ScenarioError("$.x0: phase_space needs both 'q' and 'p'")
        if "m" in x0:
            raise ScenarioError("$.x0.m: phase_space reads q and p; m is their momentum map")
    else:
        if "m" not in x0 or "q" not in x0:
            raise ScenarioError("$.x0: hamel needs both 'm' and 'q'")
        if "p" in x0:
            raise ScenarioError("$.x0.p: hamel reads m and q, not p")
        if policy["id"] != "legendre":
            raise ScenarioError(
                "$.u_policy: the hamel system fixes u = dh/dm; only 'legendre' applies")
    if policy["id"] == "constant" and "value" not in policy:
        raise ScenarioError("$.u_policy: constant policy needs a 'value' vector")
    if policy["id"] != "constant" and "value" in policy:
        raise ScenarioError(
            f"$.u_policy.value: only the constant policy takes a value, not {policy['id']!r}")
    outputs = doc.get("outputs", {})
    for diag in outputs.get("diagnostics", []):
        if diag == "momentum_map" and system != "phase_space":
            raise ScenarioError(
                "$.outputs.diagnostics: momentum_map applies to phase_space runs only")
        if diag == "casimir" and name != "so3":
            raise ScenarioError("$.outputs.diagnostics: the quadratic Casimir needs algebra so3")

    alg = builtin(name)
    if matrix.shape[0] != alg.dim:
        raise ScenarioError(f"$.kinetic: matrix is {matrix.shape[0]}x{matrix.shape[0]}, "
                            f"algebra {name!r} has dimension {alg.dim}")
    G, K = (matrix, np.linalg.inv(matrix)) if kin_key == "G" else (np.linalg.inv(matrix), matrix)
    for k, row in enumerate(xi):
        if len(row) != alg.dim:
            raise ScenarioError(f"$.xi[{k}]: directions must be {alg.dim}-vectors")
    noise = NoiseSpec.make(np.reshape(np.asarray(xi, dtype=float), (len(xi), alg.dim)),
                           seed=int(doc["seed"]))
    chart = None if system == "lie_poisson" else builtin_chart(doc["chart"])
    if chart is not None and chart.alg.name != name:
        raise ScenarioError(f"$.chart: chart {doc['chart']!r} acts with algebra "
                            f"{chart.alg.name!r}, scenario says {name!r}")
    potential = zero_potential()
    if pot["id"] == "linear":
        g = np.asarray(params.get("g", []), dtype=float)
        if g.shape != (chart.n,):
            raise ScenarioError(f"$.potential.params.g: need a {chart.n}-vector")
        potential = linear_potential(g)
    elif pot["id"] == "quadratic":
        if not isinstance(params.get("k"), (int, float)):
            raise ScenarioError("$.potential.params.k: need a number")
        potential = quadratic_potential(float(params["k"]))
    u_of = None
    if policy["id"] != "legendre":
        value = np.asarray(policy["value"] if policy["id"] == "constant" else np.zeros(alg.dim),
                           dtype=float)
        if value.shape != (alg.dim,):
            raise ScenarioError(f"$.u_policy.value: need a {alg.dim}-vector")
        u_of = lambda t, x: np.full(x.shape[:-1] + (alg.dim,), value)
    if system == "lie_poisson":
        state = np.asarray(doc["m0"], dtype=float)
        if state.shape != (alg.dim,):
            raise ScenarioError(f"$.m0: need a {alg.dim}-vector")
        hamiltonian = ReducedHamiltonian(alg=alg, kinetic_inverse=K)
        sde, energy = lie_poisson_system(alg, K, noise, u_of=u_of), hamiltonian.as_field()
    elif system == "phase_space":
        q, p = np.asarray(x0["q"], dtype=float), np.asarray(x0["p"], dtype=float)
        if q.shape != (chart.n,) or p.shape != (chart.n,):
            raise ScenarioError(f"$.x0: q and p must be {chart.n}-vectors")
        state = np.concatenate([q, p])
        L = QuadraticLagrangian(alg=alg, kinetic=G, potential=potential, chart=chart)
        hamiltonian = ReducedHamiltonian.from_lagrangian(L)
        sde = phase_space_system(L, noise, u_of=u_of)
        energy = ScalarField(
            value=lambda x: hamiltonian.value(sde.momentum(x), x[..., :chart.n]),
            name="energy",
        )
    else:
        m, q = np.asarray(x0["m"], dtype=float), np.asarray(x0["q"], dtype=float)
        if m.shape != (alg.dim,) or q.shape != (chart.n,):
            raise ScenarioError(f"$.x0: m must be a {alg.dim}-vector and q a {chart.n}-vector")
        state = np.concatenate([m, q])
        hamiltonian = ReducedHamiltonian(alg=alg, kinetic_inverse=K, potential=potential)
        sde, energy = hamel_system(chart, hamiltonian, noise), hamiltonian.as_mq_field()
    return BuiltScenario(system=sde, x0=state, noise=noise, T=float(doc["T"]), M=M,
                         scheme=scheme, alg=alg, hamiltonian=hamiltonian, energy=energy,
                         outputs=outputs)
