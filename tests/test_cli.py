import ast
import dataclasses
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coadjoint.cli import _scenario_grid, _write_outputs, main
from coadjoint.integrators import integrate
from coadjoint.scenario import ScenarioError, build_scenario, load_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
SHIPPED = ("rigid_body", "heavy_top", "rigid_body_phase", "translation_martingale")


def write_scenario(tmp_path, doc, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def rigid_body_doc(**overrides):
    doc = {
        "schema_version": 1,
        "system": "lie_poisson",
        "algebra": "so3",
        "kinetic": {"K": [[1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 1 / 3]]},
        "xi": [[1.0, 0.0, 0.0]],
        "u_policy": {"id": "legendre"},
        "m0": [0.8, 0.45, 0.3],
        "T": 0.2,
        "M": 64,
        "scheme": "heun_strat",
        "seed": 2024,
        "outputs": {"prefix": "rb", "diagnostics": ["casimir"]},
    }
    doc.update(overrides)
    return doc


def with_(**fields):
    return lambda doc: {**doc, **fields}


def without(*names):
    return lambda doc: {k: v for k, v in doc.items() if k not in names}


def kinetic(value):
    """The kinetic matrix, under the key the scenario uses, replaced by value."""
    return lambda doc: {**doc, "kinetic": {key: value for key in doc["kinetic"]}}


def outputs(**fields):
    return lambda doc: {**doc, "outputs": {**doc.get("outputs", {}), **fields}}


# single-violation edits of a shipped scenario, each schema keyword in turn,
# plus the places where JSON's types part from Python's (the valid_ edits
# pass); a few edits break rules at several depths or on siblings, to pin
# which error is reported
ORACLE_EDITS = {
    "type_root": lambda doc: [doc],
    "type_string": with_(algebra=3),
    "type_number_bool": with_(T=True),
    "type_number_string": with_(T="0.2"),
    "type_integer_bool": with_(M=True),
    "type_integer_fraction": with_(M=2.5),
    "valid_integer_float": lambda doc: {**doc, "M": float(doc["M"])},
    "type_array": with_(xi={"0": [1.0, 0.0, 0.0]}),
    "type_object": with_(kinetic=[[1.0]]),
    "type_items_bool": kinetic([[True, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    "type_items_string": with_(xi=[["1", 0.0, 0.0]]),
    "additional_unknown": with_(xis=[[1.0, 0.0, 0.0]]),
    "additional_two_unknown": with_(zeta=1, **{"a b": 2}),
    "additional_nested": outputs(prefx="run"),
    "additional_kinetic": with_(kinetic={"M": [[1.0]]}),
    "required": without("seed"),
    "required_two": without("T", "M"),
    "required_potential_id": with_(potential={"params": {}}),
    "const_2": with_(schema_version=2),
    "const_true": with_(schema_version=True),
    "valid_const_float": with_(schema_version=1.0),
    "enum_system": with_(system="collective"),
    "enum_scheme": with_(scheme="milstein"),
    "enum_bool": with_(scheme=True),
    "enum_policy": with_(u_policy={"id": "greedy"}),
    "enum_diagnostic": outputs(diagnostics=["casimir", "entropy"]),
    "min_properties": with_(kinetic={}),
    "max_properties": with_(kinetic={"G": [[1.0]], "K": [[1.0]]}),
    "min_items_vector": with_(xi=[[]]),
    "min_items_matrix": kinetic([]),
    "min_items_row": kinetic([[]]),
    "minimum_M": with_(M=0),
    "minimum_seed": with_(seed=-1),
    "maximum_seed": with_(seed=2 ** 64),
    "valid_seed_maximum": with_(seed=2 ** 64 - 1),
    "seed_bool": with_(seed=False),
    "valid_seed_float": with_(seed=3.0),
    "exclusive_minimum_zero": with_(T=0),
    "exclusive_minimum_negative": with_(T=-0.5),
    "ref_policy_value": with_(u_policy={"id": "constant", "value": [True, 0.0, 0.0]}),
    "ref_potential_g": with_(potential={"id": "linear", "params": {"g": []}}),
    "ref_potential_k": with_(potential={"id": "quadratic", "params": {"k": "2"}}),
    "string_prefix": outputs(prefix=3),
    "depths": with_(T=0, xi=[[]], extra=1),
    "siblings": with_(T=0, M=0),
    "siblings_nested": with_(xi=[["x"], []]),
    "same_object": with_(kinetic={"X": [[1.0]], "Y": [[1.0]]}),
}


class TestScenarioValidation:
    def test_loads_shipped_scenarios(self):
        for name in SHIPPED:
            built = build_scenario(load_scenario(SCENARIOS / f"{name}.json"))
            assert built.system.state_dim in (3, 6)

    def test_empty_xi_keeps_algebra_dimension(self, tmp_path):
        path = write_scenario(tmp_path, rigid_body_doc(M=100, scheme="rk4", xi=[]))
        assert build_scenario(load_scenario(path)).noise.xi.shape == (0, 3)

    def test_unknown_field_rejected(self, tmp_path):
        path = write_scenario(tmp_path, rigid_body_doc(xis=[[1, 0, 0]]))
        with pytest.raises(ScenarioError, match="xis"):
            load_scenario(path)

    def test_hypoelliptic_flag_rejected(self, tmp_path, capsys):
        # the schema no longer accepts a field that no code reads
        path = write_scenario(tmp_path, rigid_body_doc(hypoelliptic_asserted=True))
        assert main(["simulate", str(path), "--out", str(tmp_path)]) == 1
        assert "hypoelliptic_asserted" in capsys.readouterr().err

    def test_non_spd_kinetic_names_matrix(self, tmp_path):
        doc = rigid_body_doc(kinetic={"K": [[1.0, 0.0, 0.0], [0.0, -0.5, 0.0], [0.0, 0.0, 1.0]]})
        path = write_scenario(tmp_path, doc)
        with pytest.raises(ScenarioError, match="kinetic.K.*positive definite"):
            load_scenario(path)

    def test_ragged_kinetic_names_matrix(self, tmp_path):
        doc = rigid_body_doc(kinetic={"G": [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]})
        path = write_scenario(tmp_path, doc)
        with pytest.raises(ScenarioError, match=r"\$\.kinetic\.G"):
            load_scenario(path)

    def test_m_power_of_two_for_stochastic(self, tmp_path):
        path = write_scenario(tmp_path, rigid_body_doc(M=100))
        with pytest.raises(ScenarioError, match="power of two"):
            load_scenario(path)

    def test_rk4_allows_any_m(self, tmp_path):
        path = write_scenario(tmp_path, rigid_body_doc(M=100, scheme="rk4", xi=[]))
        built = build_scenario(load_scenario(path))
        assert built.M == 100

    def test_missing_initial_state(self, tmp_path):
        doc = rigid_body_doc()
        del doc["m0"]
        path = write_scenario(tmp_path, doc)
        with pytest.raises(ScenarioError, match="m0"):
            load_scenario(path)

    @pytest.mark.parametrize("name, edit, message", [
        ("rigid_body", {"m0": [0.8, 0.45]}, "$.m0: need a 3-vector"),
        ("rigid_body", {"kinetic": {"K": [[1.0, 0.0], [0.0, 0.5]]}},
         "$.kinetic: matrix is 2x2, algebra 'so3' has dimension 3"),
        ("rigid_body", {"xi": [[1.0, 0.0, 0.0], [0.0, 1.0]]},
         "$.xi[1]: directions must be 3-vectors"),
        ("heavy_top", {"chart": "h3_on_r3"},
         "$.chart: chart 'h3_on_r3' acts with algebra 'h3', scenario says 'so3'"),
        ("heavy_top", {"potential": {"id": "linear", "params": {"g": [0.0, 1.0]}}},
         "$.potential.params.g: need a 3-vector"),
        ("heavy_top", {"potential": {"id": "quadratic"}}, "$.potential.params.k: need a number"),
        ("rigid_body", {"u_policy": {"id": "constant", "value": [1.0, 0.0]}},
         "$.u_policy.value: need a 3-vector"),
        ("rigid_body_phase", {"x0": {"q": [1.0, 0.2], "p": [0.1, 0.7, 0.4]}},
         "$.x0: q and p must be 3-vectors"),
    ], ids=["m0_2", "kinetic_2x2", "ragged_xi", "chart_of_h3", "g_2", "quadratic_without_k",
            "policy_value_2", "x0_q_2"])
    def test_load_refuses_what_build_refuses(self, tmp_path, name, edit, message):
        # a document loads only if it builds, and both refuse it alike
        doc = {**json.loads((SCENARIOS / f"{name}.json").read_text()), **edit}
        for check in (lambda: load_scenario(write_scenario(tmp_path, doc)),
                      lambda: build_scenario(doc)):
            with pytest.raises(ScenarioError) as err:
                check()
            assert str(err.value) == message

    @pytest.mark.parametrize("name, edit, message", [
        ("rigid_body_phase", {"m0": [0.8, 0.45, 0.3]},
         "$.m0: system 'phase_space' reads its state from x0, not m0"),
        ("heavy_top", {"m0": [0.8, 0.45, 0.3]},
         "$.m0: system 'hamel' reads its state from x0, not m0"),
        ("rigid_body", {"chart": "so3_on_r3"}, "$.chart: system 'lie_poisson' reads no chart"),
        ("rigid_body", {"x0": {"m": [0.8, 0.45, 0.3]}}, "$.x0: system 'lie_poisson' reads no x0"),
        ("rigid_body_phase", {"x0": {"q": [1.0, 0.2, -0.3], "p": [0.1, 0.7, 0.4],
                                     "m": [0.1, 0.2, 0.3]}},
         "$.x0.m: phase_space reads q and p; m is their momentum map"),
        ("heavy_top", {"x0": {"m": [0.3, 0.4, 0.8], "q": [0.0, 0.0, 1.0], "p": [0.1, 0.2, 0.3]}},
         "$.x0.p: hamel reads m and q, not p"),
        ("rigid_body", {"u_policy": {"id": "legendre", "value": [1.0, 0.0, 0.0]}},
         "$.u_policy.value: only the constant policy takes a value, not 'legendre'"),
        ("rigid_body_phase", {"u_policy": {"id": "zero", "value": [1.0, 0.0, 0.0]}},
         "$.u_policy.value: only the constant policy takes a value, not 'zero'"),
    ], ids=["m0_on_phase_space", "m0_on_hamel", "chart_on_lie_poisson", "x0_on_lie_poisson",
            "x0_m_on_phase_space", "x0_p_on_hamel", "value_on_legendre", "value_on_zero"])
    def test_field_its_system_does_not_read_refused(self, tmp_path, name, edit, message):
        # every document here builds without the field, which nothing would read
        doc = {**json.loads((SCENARIOS / f"{name}.json").read_text()), **edit}
        for check in (lambda: load_scenario(write_scenario(tmp_path, doc)),
                      lambda: build_scenario(doc)):
            with pytest.raises(ScenarioError) as err:
                check()
            assert str(err.value) == message

    @pytest.mark.parametrize("edit, message", [
        ({"M": 100}, "$.M: 100 is not a power of two"),
        ({"kinetic": {"K": [[1.0, 0.0, 0.0], [0.0, -0.5, 0.0], [0.0, 0.0, 1.0]]}},
         "$.kinetic.K: matrix must be positive definite (min eigenvalue -5.000e-01)"),
    ], ids=["M_100", "K_not_spd"])
    def test_build_checks_an_unloaded_document(self, edit, message):
        # build_scenario applies load_scenario's checks to a dict it is given
        with pytest.raises(ScenarioError) as err:
            build_scenario(rigid_body_doc(**edit))
        assert str(err.value) == message

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1,,}')
        with pytest.raises(ScenarioError, match="line"):
            load_scenario(path)

    @pytest.mark.parametrize("overrides", [
        {"xis": [[1, 0, 0]]}, {"M": "64"}, {"scheme": "milstein"},
        {"kinetic": {"K": [[1.0, 0.0], [0.0, 1.0]], "G": [[1.0]]}}, {"m0": "x"},
    ], ids=["unknown_field", "type", "enum", "two_kinetics", "m0_string"])
    def test_schema_messages_match_jsonschema_validate(self, tmp_path, overrides):
        import jsonschema

        from coadjoint.scenario import scenario_schema

        doc = rigid_body_doc(**overrides)
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(doc, scenario_schema())
        with pytest.raises(ScenarioError) as got:
            load_scenario(write_scenario(tmp_path, doc))
        assert str(got.value) == f"{want.value.json_path}: {want.value.message}"

    def test_schema_checked_once_per_process(self, monkeypatch):
        # the schema is read, and its keywords checked, on the first load only
        from coadjoint import scenario

        read, calls = scenario.scenario_schema, []
        monkeypatch.setattr(scenario, "scenario_schema", lambda: calls.append(1) or read())
        scenario._checked_schema.cache_clear()
        for _ in range(2):
            load_scenario(SCENARIOS / "rigid_body.json")
        scenario._checked_schema.cache_clear()
        assert len(calls) == 1

    @pytest.mark.parametrize("name", SHIPPED)
    @pytest.mark.parametrize("case", ORACLE_EDITS)
    def test_schema_walker_matches_jsonschema_oracle(self, tmp_path, name, case):
        # jsonschema is the test oracle: the same verdict, path and message
        import jsonschema

        from coadjoint.scenario import scenario_schema

        doc = ORACLE_EDITS[case](json.loads((SCENARIOS / f"{name}.json").read_text()))
        path = write_scenario(tmp_path, doc)
        try:
            jsonschema.validate(doc, scenario_schema())
        except jsonschema.ValidationError as want:
            assert not case.startswith("valid_")
            with pytest.raises(ScenarioError) as got:
                load_scenario(path)
            assert str(got.value) == f"{want.json_path}: {want.message}"
        else:
            assert case.startswith("valid_")
            assert load_scenario(path) == doc
            build_scenario(doc)

    @pytest.mark.parametrize("path, rule", [
        (("properties", "algebra", "pattern"), "^so"),
        (("properties", "algebra", "type"), ["string", "null"]),
        (("properties", "x0", "additionalProperties"), {"type": "number"}),
        (("properties", "m0", "$ref"), "#/definitions/vector"),
        (("$defs", "vector", "items"), False),
        (("$defs", "vector", "maxItems"), 3),
        (("$schema",), "http://json-schema.org/draft-04/schema#"),
    ], ids=["pattern", "type_list", "additional_schema", "ref_outside_defs", "items_false",
            "maxItems", "draft_04"])
    def test_unenforced_schema_rule_refused(self, monkeypatch, path, rule):
        # a rule the walker does not implement fails the first load instead
        # of passing every document
        from coadjoint import scenario

        schema = scenario.scenario_schema()
        node = schema
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = rule
        monkeypatch.setattr(scenario, "scenario_schema", lambda: schema)
        scenario._checked_schema.cache_clear()
        try:
            with pytest.raises(NotImplementedError, match=re.escape(f"{path[-1]}: {rule!r}")):
                load_scenario(SCENARIOS / "rigid_body.json")
        finally:
            scenario._checked_schema.cache_clear()

    def test_cli_import_leaves_jsonschema_unloaded(self, tmp_path):
        # nor logging or concurrent.futures, whose import alone slows the
        # ensemble loop measurably; loading, building and simulating the
        # shipped scenarios imports no jsonschema either
        code = (
            "import sys, coadjoint, coadjoint.cli\n"
            "print([m for m in ('jsonschema', 'logging', 'concurrent.futures') if m in sys.modules])\n"
            "from coadjoint.scenario import build_scenario, load_scenario\n"
            f"for name in {SHIPPED!r}:\n"
            f"    build_scenario(load_scenario({str(SCENARIOS)!r} + '/' + name + '.json'))\n"
            f"code = coadjoint.cli.main(['simulate', {str(SCENARIOS / 'heavy_top.json')!r}, "
            f"'--out', {str(tmp_path)!r}])\n"
            "print(code, [m for m in ('jsonschema', 'referencing', 'attrs') if m in sys.modules])\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=src_env(), timeout=120)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("[]", "0 []")

    def test_hamel_rejects_constant_policy(self, tmp_path):
        doc = {
            "schema_version": 1,
            "system": "hamel",
            "algebra": "so3",
            "chart": "so3_on_r3",
            "kinetic": {"K": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]},
            "xi": [],
            "u_policy": {"id": "constant", "value": [1, 0, 0]},
            "x0": {"m": [1, 0, 0], "q": [0, 0, 1]},
            "T": 1.0,
            "M": 8,
            "scheme": "heun_strat",
            "seed": 0,
        }
        path = write_scenario(tmp_path, doc)
        with pytest.raises(ScenarioError, match="u_policy"):
            load_scenario(path)


class TestSimulateCommand:
    @pytest.mark.parametrize("command", [
        ["simulate"],
        ["kolmogorov", "--f0", "m3", "--grid", "8,8,8", "--box=-1.2,1.2", "--paths", "10"],
    ])
    def test_each_command_builds_its_scenario_once(self, tmp_path, monkeypatch, command):
        import coadjoint.cli
        import coadjoint.scenario

        builds = []

        def counted(doc, build=coadjoint.scenario.build_scenario):
            builds.append(1)
            return build(doc)

        monkeypatch.setattr(coadjoint.scenario, "build_scenario", counted)
        monkeypatch.setattr(coadjoint.cli, "build_scenario", counted, raising=False)
        path = write_scenario(tmp_path, rigid_body_doc(M=8))
        code = main([command[0], str(path), *command[1:], "--out", str(tmp_path / "out")])
        assert code == 0 and len(builds) == 1

    def test_writes_rows_and_metadata(self, tmp_path):
        path = write_scenario(tmp_path, rigid_body_doc())
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 0
        rows = (out / "rb.csv").read_text().strip().splitlines()
        assert len(rows) == 64 + 2  # header + M + 1 states
        meta = json.loads((out / "rb.meta.json").read_text())
        assert meta["seed"] == 2024
        assert meta["generator"] == "philox4x64"
        assert (out / "rb.casimir.csv").exists()

    def test_rerun_byte_identical(self, tmp_path):
        path = write_scenario(tmp_path, rigid_body_doc())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", str(path), "--out", str(out1)]) == 0
        assert main(["simulate", str(path), "--out", str(out2)]) == 0
        assert (out1 / "rb.csv").read_bytes() == (out2 / "rb.csv").read_bytes()
        assert (out1 / "rb.meta.json").read_bytes() == (out2 / "rb.meta.json").read_bytes()

    def test_rk4_with_noise_exits_1(self, tmp_path, capsys):
        # rk4 steps the drift alone; with noise directions it would write a
        # deterministic trajectory for a stochastic scenario
        doc = json.loads((SCENARIOS / "rigid_body.json").read_text())
        doc["scheme"] = "rk4"
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 1
        assert "$.scheme" in capsys.readouterr().err
        assert not out.exists()

    def test_rk4_metadata_claims_no_noise(self, tmp_path):
        path = write_scenario(tmp_path, rigid_body_doc(M=100, scheme="rk4", xi=[]))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 0
        meta = json.loads((out / "rb.meta.json").read_text())
        assert meta["scheme"] == "rk4"
        assert meta["seed"] is None
        assert meta["generator"] is None

    @pytest.mark.parametrize("literal", ["Infinity", "NaN", "1e400"])
    @pytest.mark.parametrize("field, where", [("T", "$.T"), ("m0", "$.m0[0]")])
    def test_non_finite_number_exits_1(self, tmp_path, capsys, literal, field, where):
        # json reads NaN, Infinity and an overflowing literal as non-finite
        # floats, which the schema takes for numbers
        doc = rigid_body_doc(**{field: "@" if field == "T" else ["@", 0.45, 0.3]})
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc).replace('"@"', literal))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{where}: " in err and "not a finite number" in err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        ({"potential": {"id": "linear", "params": {"g": ["0", "0", "1"]}}},
         "$.potential.params.g[2]: '1' is not of type 'number'"),
        ({"potential": {"id": "quadratic", "params": {"k": True}}},
         "$.potential.params.k: True is not of type 'number'"),
        ({"potential": {"id": "linear", "params": {"g": [0.0, 0.0, 1.0], "k": 2.0}}},
         "$.potential.params.k: the linear potential takes no 'k'"),
        ({"potential": {"id": "zero", "params": {"g": [0.0, 0.0, 1.0]}}},
         "$.potential.params.g: the zero potential takes no 'g'"),
        ({"xi": [[0.0, 0.0, 1.0], [1.0, 0.0]]}, "$.xi[1]: directions must be 3-vectors"),
        ({"seed": 2 ** 70}, f"$.seed: {2 ** 70} is greater than the maximum of {2 ** 64 - 1}"),
        ({"algebra": "so4"},
         "$.algebra: unknown algebra 'so4'; available: ['h3', 'r3', 'se2', 'so3']"),
    ], ids=["g_strings", "k_bool", "k_beside_g", "param_of_zero", "ragged_xi", "seed_2_70",
            "algebra_so4"])
    def test_coerced_or_unplaced_input_exits_1(self, tmp_path, capsys, edit, message):
        # each refusal names its JSON path, before any output is written
        doc = json.loads((SCENARIOS / "heavy_top.json").read_text())
        doc.update(edit)
        out = tmp_path / "out"
        assert main(["simulate", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_invalid_scenario_exits_1(self, tmp_path, capsys):
        path = write_scenario(tmp_path, rigid_body_doc(M=100))
        assert main(["simulate", str(path), "--out", str(tmp_path)]) == 1
        assert "power of two" in capsys.readouterr().err

    def test_diagnostics_follow_the_level_not_the_name(self, tmp_path):
        # the Casimir, energy and momentum files come from the level's own
        # momentum map and energy, whatever its system is called
        for name in SHIPPED:
            built = build_scenario(load_scenario(SCENARIOS / f"{name}.json"))
            traj = integrate(built.system, built.scheme, _scenario_grid(built), built.x0)
            renamed = dataclasses.replace(
                built, system=dataclasses.replace(built.system, name="custom"))
            _write_outputs(built, traj, tmp_path / name / "named")
            _write_outputs(renamed, traj, tmp_path / name / "custom")
            diags = built.outputs.get("diagnostics", [])
            files = sorted((tmp_path / name / "named").glob("*.*.csv"))
            assert len(files) == len(diags)
            for path in files:
                other = tmp_path / name / "custom" / path.name
                assert path.read_bytes() == other.read_bytes(), (name, path.name)

    def test_divergence_exits_2_with_partial(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "system": "phase_space",
            "algebra": "so3",
            "chart": "so3_on_r3",
            "kinetic": {"G": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]},
            "potential": {"id": "quadratic", "params": {"k": 1e8}},
            "xi": [[0.0, 0.0, 1.0]],
            "u_policy": {"id": "legendre"},
            "x0": {"q": [1.0, 0, 0], "p": [0.0, 1.0, 0]},
            "T": 1.0,
            "M": 16,
            "scheme": "heun_strat",
            "seed": 1,
            "outputs": {"prefix": "boom"},
        }
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 2
        assert "diverged" in capsys.readouterr().err
        meta = json.loads((out / "boom.meta.json").read_text())
        assert meta["diverged_at"] >= 1
        rows = (out / "boom.csv").read_text().strip().splitlines()
        assert len(rows) == meta["diverged_at"] + 1  # header + finite states


class TestValidateCommand:
    def test_algebra_suite_passes(self, capsys):
        assert main(["validate", "algebra"]) == 0
        out = capsys.readouterr().out
        assert "RESULT algebra: PASS" in out
        assert "jacobi" in out

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["validate", "everything"])

    @pytest.mark.parametrize("suite", ["ito", "collectivize"])
    def test_seeds_below_one_exits_1(self, suite, capsys):
        assert main(["validate", suite, "--seeds", "0"]) == 1
        captured = capsys.readouterr()
        assert "--seeds" in captured.err
        assert captured.out == ""

    def test_output_reproducible(self, capsys):
        main(["validate", "equivariance"])
        first = capsys.readouterr().out
        main(["validate", "equivariance"])
        second = capsys.readouterr().out
        assert first == second


class TestKolmogorovCommand:
    def test_casimir_verdict_conserved(self, tmp_path, capsys):
        path = write_scenario(tmp_path, rigid_body_doc(M=128))
        out = tmp_path / "out"
        code = main([
            "kolmogorov", str(path), "--f0", "casimir",
            "--grid", "24,24,24", "--box=-1.4,1.4",
            "--paths", "400", "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "rb.crosscheck.json").read_text())
        assert report["verdict"] == "conserved"
        assert (out / "rb.density.bin").exists()
        assert (out / "rb.slice_z.csv").exists()

    def test_coordinate_observable_agrees(self, tmp_path):
        path = write_scenario(tmp_path, rigid_body_doc(M=128))
        out = tmp_path / "out"
        code = main([
            "kolmogorov", str(path), "--f0", "m3",
            "--grid", "24,24,24", "--box=-1.4,1.4",
            "--paths", "400", "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "rb.crosscheck.json").read_text())
        assert report["verdict"] == "agree"
        assert abs(report["mc_mean"] - report["pde_value"]) <= report["gate"]

    def test_constant_observable_constant_field(self, tmp_path):
        from coadjoint.kolmogorov import read_density

        path = write_scenario(tmp_path, rigid_body_doc(M=64))
        out = tmp_path / "out"
        code = main([
            "kolmogorov", str(path), "--f0", "const",
            "--grid", "16,16,16", "--box=-1.2,1.2",
            "--paths", "50", "--out", str(out),
        ])
        assert code == 0
        rho = read_density(out / "rb.density.bin")
        assert np.max(np.abs(rho.values - 1.0)) <= 1e-12

    def test_cfl_violation_exits_1(self, tmp_path, capsys):
        path = write_scenario(tmp_path, rigid_body_doc())
        code = main([
            "kolmogorov", str(path), "--f0", "m3",
            "--grid", "24,24,24", "--box=-1.4,1.4",
            "--dt", "1.0", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "admissible" in capsys.readouterr().err

    def test_rejects_non_legendre_policy(self, tmp_path, capsys):
        # the generator's psi = h fixes u = K m; a constant u would make the
        # Monte-Carlo side solve a different equation than the grid
        doc = rigid_body_doc(u_policy={"id": "constant", "value": [0, 0, 3]})
        path = write_scenario(tmp_path, doc)
        code = main(["kolmogorov", str(path), "--f0", "m1",
                     "--grid", "16,16,16", "--box=-1.2,1.2",
                     "--paths", "50", "--out", str(tmp_path)])
        assert code == 1
        assert "u_policy" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, args", [
        ("--paths", ["--grid", "16,16,16", "--box=-1.2,1.2", "--paths", "0"]),
        ("--grid", ["--grid", "16,16", "--box=-1.2,1.2"]),
        ("--box", ["--grid", "16,16,16", "--box", "1.4"]),
        ("--grid", ["--grid", "3,16,16", "--box=-1.2,1.2"]),
        ("--box", ["--grid", "16,16,16", "--box=1.2,-1.2"]),
        ("--box", ["--grid", "16,16,16", "--box=-0.5,0.5"]),
        ("--box", ["--grid", "16,16,16", "--box=-inf,inf"]),
    ])
    def test_bad_flag_exits_1_before_writing(self, tmp_path, capsys, flag, args):
        path = write_scenario(tmp_path, rigid_body_doc())
        out = tmp_path / "out"
        code = main(["kolmogorov", str(path), "--f0", "m3", *args, "--out", str(out)])
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        # the paths stay finite near 1e173, but np.std overflows
        ({"T": 50, "M": 4, "xi": [[3, 0, 0]]}, "standard error is inf"),
        ({"T": 20, "M": 16, "xi": [[30, 0, 0]]}, "ensemble path 1 diverged at step 5"),
    ])
    def test_blown_up_ensemble_exits_2(self, tmp_path, capsys, edit, message):
        path = write_scenario(tmp_path, rigid_body_doc(**edit))
        out = tmp_path / "out"
        code = main(["kolmogorov", str(path), "--f0", "m3", "--grid", "4,4,4",
                     "--box=-2,2", "--paths", "50", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: " in err and message in err and "no cross-check" in err
        assert (out / "rb.density.bin").exists()
        assert not (out / "rb.crosscheck.json").exists()

    def test_blown_up_ensemble_stderr_is_the_commands_own(self, tmp_path):
        # run as a user would, with Python's default warning filters: the
        # overflowing spread reaches stderr only through the command's error
        path = write_scenario(tmp_path, rigid_body_doc(T=50, M=4, xi=[[3, 0, 0]]))
        out = tmp_path / "out"
        run = subprocess.run(
            [sys.executable, "-m", "coadjoint.cli", "kolmogorov", str(path), "--f0", "m3",
             "--grid", "4,4,4", "--box=-2,2", "--paths", "50", "--out", str(out)],
            capture_output=True, text=True, env=src_env(), timeout=120)
        assert run.returncode == 2
        assert run.stderr == (
            "error: Monte-Carlo standard error is inf: the ensemble's spread overflows, "
            f"so no gate can judge it\ndensity written to {out}; no cross-check\n")
        assert not (out / "rb.crosscheck.json").exists()

    def test_requires_so3_algebra(self, tmp_path, capsys):
        doc = rigid_body_doc(algebra="r3", outputs={"prefix": "rb"})
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        code = main(["kolmogorov", str(path), "--f0", "m3", "--grid", "16,16,16",
                     "--box=-1,1", "--out", str(out)])
        assert code == 1
        assert "$.algebra" in capsys.readouterr().err
        assert not out.exists()

    def test_requires_lie_poisson_scenario(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "system": "hamel",
            "algebra": "so3",
            "chart": "so3_on_r3",
            "kinetic": {"K": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]},
            "xi": [],
            "x0": {"m": [1, 0, 0], "q": [0, 0, 1]},
            "T": 1.0,
            "M": 8,
            "scheme": "heun_strat",
            "seed": 0,
        }
        path = write_scenario(tmp_path, doc)
        code = main(["kolmogorov", str(path), "--f0", "m3",
                     "--grid", "16,16,16", "--box=-1,1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "$.system" in err and "lie_poisson" in err


class TestEntryPoints:
    def test_benchmark_modules_import(self, monkeypatch):
        # the benchmark imports these at start-up; a public name they use
        # that the package drops fails here instead of in the benchmark run
        monkeypatch.syspath_prepend(str(ROOT))
        for name in ("perfbench.workloads", "perfbench.probes"):
            importlib.import_module(name)

    def test_convergence_study_script(self):
        out = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "convergence_study.py"), "--seeds", "1"],
            capture_output=True, text=True, env=src_env(), timeout=600,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.count("empirical order:") == 3
        assert "Heun (Strat) vs corrected Euler (Ito), 1-seed average" in out.stdout

    def test_convergence_study_rejects_zero_seeds(self):
        out = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "convergence_study.py"), "--seeds", "0"],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert out.returncode == 1
        assert out.stderr == "error: --seeds: need at least 1 seed, got 0\n"

    def test_exports_resolve(self):
        # each module's __all__ names exist, and each name the package
        # re-exports is in its module's __all__, so `import *` never breaks
        import coadjoint

        for info in pkgutil.iter_modules(coadjoint.__path__):
            module = importlib.import_module(f"coadjoint.{info.name}")
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"coadjoint.{info.name}.__all__ lists {name!r}"
        tree = ast.parse((ROOT / "src" / "coadjoint" / "__init__.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                listed = importlib.import_module(f"coadjoint.{node.module}").__all__
                for alias in node.names:
                    assert alias.name in listed, f"{alias.name!r} not in coadjoint.{node.module}.__all__"

    def test_module_help(self):
        out = subprocess.run([sys.executable, "-m", "coadjoint.cli", "--help"],
                             capture_output=True, text=True, env=src_env(), timeout=120)
        assert out.returncode == 0, out.stderr
        assert "simulate" in out.stdout
