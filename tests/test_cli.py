"""End-to-end tests for the experiment runner CLI."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from roughflow.cli import list_registry, load_config, main, validate_config
from roughflow.errors import ConfigError

SRC = Path(__file__).resolve().parents[1] / "src"
CONFIG_DIR = SRC / "roughflow" / "configs"
LINEAR = CONFIG_DIR / "linear_rde.json"
FBM = CONFIG_DIR / "fbm_cocycle.json"

BASE = {
    "schema_version": 1,
    "name": "base",
    "seed": 3,
    "tolerances": {"tol": 0.1},
    "pipeline": [
        {"name": "ramp", "kind": "path", "shape": "line", "nodes": 65},
        {
            "name": "geo",
            "kind": "check",
            "check": "geometricity",
            "source": "ramp",
            "tolerance": "tol",
        },
    ],
}


def _write(tmp_path, config, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(config))
    return str(p)


def _records(out_dir, name):
    lines = (Path(out_dir) / f"{name}_record.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


# ------------------------------------------------------------- validation


def test_validate_bundled_configs(capsys):
    assert main(["validate", str(LINEAR)]) == 0
    assert main(["validate", str(FBM)]) == 0
    out = capsys.readouterr().out
    assert "ok: linear_rde" in out
    assert "ok: fbm_cocycle" in out


def test_missing_config_file_is_config_error(capsys):
    assert main(["validate", "no/such/file.json"]) == 2
    assert main(["run", "no/such/file.json"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_unparseable_json_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_schema_violation_reports_field_path(tmp_path, capsys):
    config = copy.deepcopy(BASE)
    del config["seed"]
    assert main(["validate", _write(tmp_path, config)]) == 2
    assert "seed" in capsys.readouterr().err

    config = copy.deepcopy(BASE)
    config["pipeline"][0]["nodes"] = 1
    assert main(["validate", _write(tmp_path, config)]) == 2
    assert "$.pipeline[0].nodes" in capsys.readouterr().err


def _mutations():
    def dup_name(c):
        c["pipeline"][1]["name"] = "ramp"
        return "duplicate"

    def later_source(c):
        c["pipeline"][0], c["pipeline"][1] = c["pipeline"][1], c["pipeline"][0]
        return "source"

    def unknown_check(c):
        c["pipeline"][1]["check"] = "nonsense"
        return "unknown check"

    def unnamed_tolerance(c):
        c["pipeline"][1]["tolerance"] = "missing"
        return "not a named tolerance"

    def unknown_kernel(c):
        c["pipeline"].insert(
            0, {"name": "w", "kind": "sampler", "kernel": "weird", "level": 4}
        )
        return "unknown kernel"

    def fbm_needs_hurst(c):
        c["pipeline"].insert(
            0, {"name": "w", "kind": "sampler", "kernel": "fbm", "level": 4}
        )
        return "hurst"

    def sampler_needs_level(c):
        c["pipeline"].insert(0, {"name": "w", "kind": "sampler", "kernel": "bm"})
        return "level"

    def unknown_family(c):
        c["pipeline"].insert(
            1,
            {
                "name": "s",
                "kind": "solver",
                "source": "ramp",
                "family": "bogus",
                "y0": [1.0],
                "step": 0.1,
            },
        )
        return "unknown family"

    def solver_needs_family(c):
        c["pipeline"].insert(
            1,
            {"name": "s", "kind": "solver", "source": "ramp", "y0": [1.0], "step": 0.1},
        )
        return "family"

    def check_wrong_source_kind(c):
        c["pipeline"].insert(
            1,
            {
                "name": "s",
                "kind": "solver",
                "source": "ramp",
                "family": "linear_fields",
                "family_params": {"matrices": [[[0.0]]]},
                "y0": [1.0],
                "step": 0.1,
            },
        )
        c["pipeline"][2]["source"] = "s"
        return "cannot read"

    def multilevel_cocycle(c):
        c["pipeline"].insert(
            0,
            {
                "name": "w",
                "kind": "sampler",
                "kernel": "bm",
                "levels": [4, 5],
                "dim": 2,
            },
        )
        c["pipeline"][2] = {
            "name": "cc",
            "kind": "check",
            "check": "cocycle_decay",
            "source": "w",
            "tolerance": "tol",
        }
        return "single-level"

    def exp_solution_needs_line(c):
        c["pipeline"][0]["shape"] = "sine"
        c["pipeline"].insert(
            1,
            {
                "name": "s",
                "kind": "solver",
                "source": "ramp",
                "family": "linear_fields",
                "family_params": {"matrices": [[[0.0]]]},
                "y0": [1.0],
                "step": 0.1,
            },
        )
        c["pipeline"][2] = {
            "name": "e",
            "kind": "check",
            "check": "exp_solution",
            "source": "s",
            "tolerance": "tol",
        }
        return "line"

    return [
        dup_name,
        later_source,
        unknown_check,
        unnamed_tolerance,
        unknown_kernel,
        fbm_needs_hurst,
        sampler_needs_level,
        unknown_family,
        solver_needs_family,
        check_wrong_source_kind,
        multilevel_cocycle,
        exp_solution_needs_line,
    ]


@pytest.mark.parametrize("mutate", _mutations(), ids=lambda f: f.__name__)
def test_semantic_validation_rejects(mutate):
    config = copy.deepcopy(BASE)
    fragment = mutate(config)
    with pytest.raises(ConfigError, match=fragment):
        validate_config(config)


# ---------------------------------------------------------------- running


def test_linear_rde_run_and_record_structure(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(LINEAR), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "pass ramp_check" in stdout and "pass exp_check" in stdout

    records = _records(out, "linear_rde")
    header, summary = records[0], records[-1]
    assert header["record"] == "header"
    assert len(header["config_hash"]) == 64
    assert len(header["input_hash"]) == 40
    assert header["seed"] == 1

    config, _ = load_config(str(LINEAR))
    configured = [s["name"] for s in config["pipeline"] if s["kind"] == "check"]
    check_records = [r for r in records if r["record"] == "check"]
    assert [r["name"] for r in check_records] == configured
    for rec in check_records:
        assert rec["threshold"] == config["tolerances"][rec["tolerance"]]
        assert rec["pass"] is True

    assert summary["record"] == "summary"
    assert summary["passed"] is True
    assert summary["wall_time_s"] > 0

    assert (out / "spiral.csv").exists()
    for stem in configured:
        text = (out / f"{stem}.tsv").read_text().splitlines()
        assert text[0].startswith("# x:") and text[1].startswith("# y:")


@pytest.mark.parametrize("path", [LINEAR, FBM], ids=["linear_rde", "fbm_cocycle"])
def test_run_record_has_one_stage_line_per_stage(tmp_path, path):
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    config, _ = load_config(str(path))
    records = _records(out, config["name"])
    kinds = [r["record"] for r in records]
    n = len(config["pipeline"])
    assert kinds[: n + 1] == ["header"] + ["stage"] * n
    assert set(kinds[n + 1 : -1]) == {"check"} and kinds[-1] == "summary"
    stages = records[1 : n + 1]
    assert [(r["name"], r["kind"]) for r in stages] == [
        (s["name"], s["kind"]) for s in config["pipeline"]
    ]
    for rec in stages:
        assert set(rec) == {"record", "name", "kind", "wall_time_s"}
        assert rec["wall_time_s"] >= 0.0


def test_fbm_cocycle_residuals_decrease(tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(FBM), "--out", str(out)]) == 0
    rows = [
        line.split("\t")
        for line in (out / "shift_cocycle.tsv").read_text().splitlines()
        if not line.startswith("#")
    ][1:]
    aligned = [float(r[1]) for r in rows]
    offgrid = [float(r[2]) for r in rows]
    assert len(rows) == 4
    assert max(aligned) <= 1e-10
    assert all(b < a for a, b in zip(offgrid, offgrid[1:]))
    assert offgrid[0] > 1e-4


def test_failing_check_exits_1(tmp_path, capsys):
    config, _ = load_config(str(LINEAR))
    config["tolerances"]["exp_gap"] = 1e-12
    out = tmp_path / "out"
    code = main(["run", _write(tmp_path, config), "--out", str(out)])
    assert code == 1
    assert "FAIL exp_check" in capsys.readouterr().out
    records = _records(out, "linear_rde")
    assert records[-1]["passed"] is False
    assert any(r["record"] == "check" and r["pass"] is False for r in records)


def test_numerical_failure_exits_3_with_stage_name(tmp_path, capsys):
    config = {
        "schema_version": 1,
        "name": "boom",
        "seed": 1,
        "tolerances": {"tol": 1.0},
        "pipeline": [
            {"name": "ramp", "kind": "path", "shape": "line", "nodes": 257},
            {
                "name": "explode",
                "kind": "solver",
                "source": "ramp",
                "family": "scalar_polynomial",
                "family_params": {"coefficient_rows": [[0.0, 0.0, 1.0]]},
                "y0": [2.0],
                "step": 0.00390625,
            },
        ],
    }
    code = main(["run", _write(tmp_path, config), "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "'explode'" in err


def test_bad_stage_value_is_config_error(tmp_path, capsys):
    config = {
        "schema_version": 1,
        "name": "badrho",
        "seed": 1,
        "tolerances": {"tol": 1.0},
        "pipeline": [
            {
                "name": "w",
                "kind": "sampler",
                "kernel": "bm",
                "level": 4,
                "dim": 2,
                "p": 2.9,
            },
            {"name": "drv", "kind": "driver", "source": "w", "family": "shear_pair",
             "rho": 1.3},
        ],
    }
    code = main(["run", _write(tmp_path, config), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'drv'" in err


# ----------------------------------------------------------- determinism


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(LINEAR), "--out", str(a)]) == 0
    assert main(["run", str(LINEAR), "--out", str(b)]) == 0
    for name in ("spiral.csv", "exp_check.tsv", "ramp_check.tsv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    strip = lambda recs: [
        {k: v for k, v in r.items() if k != "wall_time_s"} for r in recs
    ]
    assert strip(_records(a, "linear_rde")) == strip(_records(b, "linear_rde"))


def test_parallel_sampling_matches_serial(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(FBM), "--out", str(a)]) == 0
    assert main(["run", str(FBM), "--out", str(b), "--jobs", "3"]) == 0
    assert (a / "shift_cocycle.tsv").read_bytes() == (b / "shift_cocycle.tsv").read_bytes()


def test_seed_override_recorded_and_changes_data(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(FBM), "--out", str(a)]) == 0
    assert main(["run", str(FBM), "--out", str(b), "--seed", "42"]) in (0, 1)
    assert _records(a, "fbm_cocycle")[0]["seed"] == 0
    assert _records(b, "fbm_cocycle")[0]["seed"] == 42
    assert (a / "shift_cocycle.tsv").read_bytes() != (b / "shift_cocycle.tsv").read_bytes()


def test_output_dir_precedence(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "envout"
    monkeypatch.setenv("ROUGHFLOW_OUT", str(env_dir))
    assert main(["run", str(LINEAR)]) == 0
    assert (env_dir / "linear_rde_record.jsonl").exists()

    flag_dir = tmp_path / "flagout"
    assert main(["run", str(LINEAR), "--out", str(flag_dir)]) == 0
    assert (flag_dir / "linear_rde_record.jsonl").exists()
    capsys.readouterr()


def test_csv_floats_roundtrip(tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(LINEAR), "--out", str(out)]) == 0
    lines = (out / "spiral.csv").read_text().splitlines()
    header, first = lines[0], lines[1].split(",")
    assert header.startswith("t,")
    val = float(first[1])
    assert ("%.17g" % val) == first[1]


# -------------------------------------------------------------- registry


def test_list_registry_contents_and_order(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fbm", "bm", "linear_fields", "rotation_fields"):
        assert name in out
    lines = out.splitlines()
    kernels = lines[lines.index("kernels:") + 1 : lines.index("vector field families:")]
    families = lines[lines.index("vector field families:") + 1 : lines.index("checks:")]
    assert kernels == sorted(kernels)
    assert families == sorted(families)


def test_list_registry_includes_extensions(tmp_path, capsys):
    config = copy.deepcopy(BASE)
    config["extensions"] = {
        "kernels": {"rough_bm": {"kernel": "fbm", "params": {"hurst": 0.35}}}
    }
    assert main(["list", _write(tmp_path, config)]) == 0
    assert "rough_bm" in capsys.readouterr().out


def test_extension_kernel_usable(tmp_path):
    config = {
        "schema_version": 1,
        "name": "ext",
        "seed": 5,
        "extensions": {
            "kernels": {"rough_bm": {"kernel": "fbm", "params": {"hurst": 0.35}}}
        },
        "tolerances": {"geo": 1e-8},
        "pipeline": [
            {"name": "w", "kind": "sampler", "kernel": "rough_bm", "level": 5,
             "dim": 2, "p": 2.9},
            {"name": "g", "kind": "check", "check": "geometricity", "source": "w",
             "tolerance": "geo"},
        ],
    }
    assert main(["run", _write(tmp_path, config), "--out", str(tmp_path / "out")]) == 0


def _src_env():
    """This process's environment with the checkout's src first on PYTHONPATH, for child interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "roughflow.cli", "run", str(LINEAR), "--out",
         str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0
    assert "all checks passed" in proc.stdout


def test_import_loads_no_scipy():
    code = (
        "import sys, roughflow, roughflow.cli\n"
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
