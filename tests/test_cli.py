import dataclasses
import importlib
import json
import os
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
        # the validator is built, and the schema checked against its
        # metaschema, on the first load only
        from jsonschema.validators import validator_for

        from coadjoint import scenario

        cls = validator_for(scenario.scenario_schema())
        check, calls = cls.check_schema.__func__, []

        def counting(c, schema, *args, **kwargs):
            calls.append(schema)
            return check(c, schema, *args, **kwargs)

        monkeypatch.setattr(cls, "check_schema", classmethod(counting))
        scenario._scenario_validator.cache_clear()
        for _ in range(2):
            load_scenario(SCENARIOS / "rigid_body.json")
        scenario._scenario_validator.cache_clear()
        assert len(calls) == 1

    def test_cli_import_leaves_jsonschema_unloaded(self):
        code = "import sys, coadjoint, coadjoint.cli; print('jsonschema' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=src_env(), timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

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
        assert "--seeds: need at least 1 seed" in out.stderr
        assert "Traceback" not in out.stderr

    def test_module_help(self):
        out = subprocess.run([sys.executable, "-m", "coadjoint.cli", "--help"],
                             capture_output=True, text=True, env=src_env(), timeout=120)
        assert out.returncode == 0, out.stderr
        assert "simulate" in out.stdout
