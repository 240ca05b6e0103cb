"""Config parsing, suite runner, bundled scenarios and the CLI."""

import contextlib
import functools
import io
import json
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

import goldenslant
from goldenslant.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_SUITE_FAILED,
    list_bundled,
    main,
    resolve_config,
)
from goldenslant.config import (MAX_DIM, MAX_POINT_WORK, MAX_POINTS, SampleSpec, load_config,
                                parse_config)
from goldenslant.errors import ConfigError, DomainError
from goldenslant.expr import parse
from goldenslant.suites import (
    render_report,
    run_curvature_suite,
    run_identities_suite,
    run_scenario,
)
from support import jet_route

MINIMAL = {
    "ambient": {"dim": 4,
                "phi": {"pattern": ["psi", "psi", "one_minus_psi", "one_minus_psi"]}},
    "suites": ["structure"],
}

SLANT_SCENARIO = {
    "ambient": {"dim": 4,
                "phi": {"pattern": ["psi", "one_minus_psi", "psi", "one_minus_psi"]}},
    "immersion": {
        "params": ["u1", "u2"],
        "components": ["psi*u1", "(1-psi)*u1", "psi*u2", "(1-psi)*u2"],
        "samples": {"grid": [[-1, 1, 2], [-1, 1, 2]]},
    },
    "suites": ["structure", "identities", "slant"],
}

# Every jet of this immersion is finite, but the QR of its 10^308 column gives NaN frames.
NAN_FRAMES = {
    "ambient": SLANT_SCENARIO["ambient"],
    "immersion": {
        "params": ["u1", "u2"],
        "components": ["10^308*u1+u2^2", "u1", "u2", "u1*u2"],
        "samples": {"grid": [[-1, 1, 2], [-1, 1, 2]]},
    },
    "suites": ["slant"],
}
DIGIT_LIMIT = sys.get_int_max_str_digits()
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="no int-string digit limit")


def _example_3(metric_00: str | None = None, component_0: str | None = None) -> dict:
    """The bundled paper_example_3 with metric entry (0, 0) or component 0 replaced."""
    data = json.loads(resolve_config("paper_example_3").read_text())
    if metric_00 is not None:
        data["ambient"]["metric"] = [[metric_00 if i == j == 0 else str(int(i == j))
                                      for j in range(4)] for i in range(4)]
    if component_0 is not None:
        data["immersion"]["components"][0] = component_0
    return data


def _curvature_run(**spaceform):
    """Mutation that asks for the curvature suite with these spaceform entries."""
    def mutate(data):
        data["suites"] = ["curvature"]
        data["spaceform"] = {"c_p": 1, "c_q": -1, "p": 2, **spaceform}
    return mutate


def _dim(n):
    """Mutation to an n-dimensional ambient space with a matching phi pattern."""
    def mutate(data):
        data["ambient"] = {"dim": n, "phi": {"pattern": ["psi"] * n}}
    return mutate


def _immersion(components=("u", "u^2", "0", "0"), params=("u",), **samples):
    """Mutation that asks for the point suites on this immersion and samples."""
    def mutate(data):
        data["suites"] = ["identities", "extrinsic", "slant"]
        data["immersion"] = {"params": list(params), "components": list(components)}
        if samples:
            data["immersion"]["samples"] = samples
    return mutate


def _wide_immersion(grid, dim=MAX_DIM):
    """Mutation to a curve, surface or 3-fold, one parameter per ``grid`` row, in ``dim``
    dimensions."""
    params = ["u", "v", "w"][:len(grid)]

    def mutate(data):
        _dim(dim)(data)
        _immersion(params + ["0"] * (dim - len(params)), params, grid=grid)(data)
    return mutate


SECTIONS = ("/ambient", "/ambient/phi", "/immersion", "/immersion/samples", "/spaceform",
            "/slant", "/tolerances")


def _section(pointer, make):
    """Mutation that replaces the config section at ``pointer`` with ``make(section)``, the
    section being ``{}`` where absent; an immersion is present, so every section is read."""
    def mutate(data):
        _immersion()(data)
        *parents, name = pointer[1:].split("/")
        owner = functools.reduce(operator.getitem, parents, data)
        owner[name] = make(owner.get(name, {}))
    return mutate


def _strict_json(text: str) -> dict:
    """json.loads that rejects the non-standard NaN/Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def _p_mismatch(data):
    # phi = psi I has a 4-dimensional psi-eigenspace, not the claimed p = 1.
    data["ambient"]["phi"]["pattern"] = ["psi"] * 4
    data["ambient"]["metric"] = [["2", "0", "0", "0"], ["0", "1", "0", "0"],
                                 ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    _curvature_run(p=1)(data)


class TestConfigParsing:
    def test_minimal_config(self):
        cfg = parse_config(MINIMAL)
        assert cfg.dim == 4 and cfg.suites == ("structure",)
        structure = cfg.build_structure()
        assert structure.backend == "exact"

    def test_suite_order_is_canonical(self):
        data = dict(SLANT_SCENARIO, suites=["slant", "structure", "identities"])
        assert parse_config(data).suites == ("structure", "identities", "slant")

    def test_explicit_matrix_phi(self):
        data = {
            "ambient": {
                "dim": 2,
                "phi": {"matrix": [["1/2+1/2*sqrt5", "0"], ["0", "1/2-1/2*sqrt5"]]},
            },
            "suites": ["structure"],
        }
        structure = parse_config(data).build_structure()
        assert structure.backend == "exact"

    def test_from_involution_phi(self):
        data = {
            "ambient": {"dim": 2, "phi": {"from_involution": [["0", "1"], ["1", "0"]]}},
            "suites": ["structure"],
        }
        structure = parse_config(data).build_structure()
        report = run_scenario(parse_config(data))
        assert report["suites"]["structure"]["pass"]
        assert structure.n == 2

    def test_metric_entries_parsed_exactly(self):
        data = {
            "ambient": {
                "dim": 2,
                "metric": [["2", "0"], ["0", "3"]],
                "phi": {"pattern": ["psi", "one_minus_psi"]},
            },
            "suites": ["structure"],
        }
        report = run_scenario(parse_config(data))
        assert report["suites"]["structure"]["exact_zero"]

    @pytest.mark.parametrize(
        "mutate,path",
        [
            (lambda d: d.pop("ambient"), "/ambient"),
            (lambda d: d["ambient"].pop("dim"), "/ambient/dim"),
            (lambda d: d["ambient"].__setitem__("phi", {}), "/ambient/phi"),
            (lambda d: d.__setitem__("suites", ["bogus"]), "/suites/0"),
            (lambda d: d.__setitem__("suites", ["slant"]), "/immersion"),
            (lambda d: d.__setitem__("suites", ["curvature"]), "/spaceform"),
            (lambda d: d.__setitem__("unknown", 1), "/unknown"),
            (lambda d: d["ambient"]["phi"].__setitem__(
                "pattern", ["psi", "psi", "psi", "nope"]), "/ambient/phi/pattern/3"),
            (_curvature_run(c_p=math.nan), "/spaceform/c_p"),
            (_curvature_run(c_p=math.inf), "/spaceform/c_p"),
            (_curvature_run(c_p=10 ** 400), "/spaceform/c_p"),
            (lambda d: d.__setitem__("tolerances", {"tol_frame": math.nan}),
             "/tolerances/tol_frame"),
            (lambda d: d.__setitem__("tolerances", {"tol_angle": math.inf}),
             "/tolerances/tol_angle"),
            (lambda d: d.__setitem__("tolerances", {"tol_struct": -1e-9}),
             "/tolerances/tol_struct"),
            (_curvature_run(trials=100_001), "/spaceform/trials"),
            (_dim(MAX_DIM + 1), "/ambient/dim"),
            (_p_mismatch, "/spaceform/p"),
            (lambda d: d.__setitem__("seed", -1), "/seed"),
            (_curvature_run(seed=-1), "/spaceform/seed"),
            (_immersion(grid=[[0, 1, MAX_POINTS]], extra_points=[[2]]), "/immersion/samples"),
            (_wide_immersion([[0, 1, 2], [-1.7e308, 1.7e308, 3]], dim=4),
             "/immersion/samples/grid/1"),
            # 46^3 points are within MAX_POINTS, but not 46^3 * 32^2 within MAX_POINT_WORK.
            (_wide_immersion([[0, 1, 46]] * 3), "/immersion/samples"),
            (lambda d: d["ambient"].__setitem__("phi", {"matrix": [
                ["1/0", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"],
                ["0", "0", "0", "1"]]}), "/ambient/phi/matrix/0/0"),
            (lambda d: d["ambient"].__setitem__("metric", [
                ["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"],
                ["0", "0", "0", "0/0"]]), "/ambient/metric/3/3"),
            (_immersion(("u", "(" * 2000 + "u" + ")" * 2000, "0", "0")),
             "/immersion/components/1"),
            (_immersion(("u", "u^9^9^9", "0", "0")), "/immersion/components/1"),
            (_immersion(("u", "u+", "0", "0")), "/immersion/components/1"),
            # Digits are ASCII only: str.isdigit takes these, Fraction rejects the first two
            # and would read "٣" as 3.
            (_immersion(("u1", "u1*²", "0", "0"), params=("u1",)), "/immersion/components/1"),
            (_immersion(("u1", "u1+①", "0", "0"), params=("u1",)), "/immersion/components/1"),
            (_immersion(("u1", "٣*u1", "0", "0"), params=("u1",)), "/immersion/components/1"),
            # Every section is an object first, then holds only known entries.
            *[(_section(section, lambda _, value=value: value), section)
              for section in SECTIONS for value in ([], 3, "x", None)],
            *[(_section(section, lambda entries: {**entries, "bogus": 1}), f"{section}/bogus")
              for section in SECTIONS],
        ],
    )
    def test_validation_errors_carry_pointer_paths(self, mutate, path):
        data = json.loads(json.dumps(MINIMAL))
        mutate(data)
        with pytest.raises(ConfigError) as err:
            cfg = parse_config(data)
            # spaceform.p is checked against the psi-eigenspace of the built phi.
            run_curvature_suite(cfg, cfg.build_structure(), cfg.tolerances)
        assert err.value.path == path

    def test_trials_cap_is_inclusive(self):
        data = json.loads(json.dumps(MINIMAL))
        _curvature_run(trials=100_000)(data)
        assert parse_config(data).spaceform.trials == 100_000

    def test_dim_cap_is_inclusive(self):
        data = json.loads(json.dumps(MINIMAL))
        _dim(MAX_DIM)(data)
        assert parse_config(data).dim == MAX_DIM

    def test_points_cap_is_inclusive(self):
        # Points are counted from the grid, never built.
        data = json.loads(json.dumps(MINIMAL))
        _immersion(["u", "v", "0", "0"], ["u", "v"], grid=[[0, 1, 1000], [0, 1, 100]])(data)
        assert parse_config(data).immersion_samples.size == MAX_POINTS
        data["immersion"]["samples"]["extra_points"] = [[0, 0]]
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.path == "/immersion/samples"

    def test_point_work_cap_is_inclusive(self):
        data = json.loads(json.dumps(MINIMAL))
        _wide_immersion([[0, 1, 128], [0, 1, 128]])(data)
        cfg = parse_config(data)
        assert cfg.immersion_samples.size * cfg.dim ** 2 == MAX_POINT_WORK
        data["immersion"]["samples"]["extra_points"] = [[0, 0]]
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.path == "/immersion/samples"

    def test_immersion_needs_fewer_params_than_dim(self):
        data = json.loads(json.dumps(SLANT_SCENARIO))
        data["immersion"]["params"] = ["u1", "u2", "u3", "u4"]
        data["immersion"]["components"] = ["u1", "u2", "u3", "u4"]
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.path == "/immersion/params"

    def test_spaceform_section(self):
        data = {
            "ambient": {"dim": 4,
                        "phi": {"pattern": ["psi", "psi", "one_minus_psi",
                                            "one_minus_psi"]}},
            "spaceform": {"c_p": 1, "c_q": -1, "p": 2},
            "suites": ["curvature"],
        }
        cfg = parse_config(data)
        assert cfg.spaceform.trials == 100 and cfg.spaceform.p == 2

    def test_tolerance_overrides(self):
        data = dict(MINIMAL, tolerances={"tol_angle": 1e-4})
        cfg = parse_config(data)
        assert cfg.tolerances.tol_angle == 1e-4
        assert cfg.tolerances.tol_frame == 1e-9

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.cfg")

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)


class TestRunScenario:
    def test_slant_scenario_report_shape(self):
        report = run_scenario(parse_config(SLANT_SCENARIO))
        assert report["overall_pass"]
        assert list(report["suites"]) == ["structure", "identities", "slant"]
        slant = report["suites"]["slant"]
        assert slant["classification"] == "proper_slant"
        assert math.isclose(slant["cos_theta"], 4 / math.sqrt(21), abs_tol=1e-12)
        assert slant["exact"]["lambda"] == "16/21"
        meta = report["meta"]
        assert meta["seed"] == 0 and "tol_frame" in meta["tolerances"]

    def test_report_rendering_is_deterministic(self):
        cfg = parse_config(SLANT_SCENARIO)
        a = render_report(run_scenario(cfg))
        b = render_report(run_scenario(cfg))
        assert a == b

    def test_explicit_identity_metric_reports_as_none(self):
        # The identity metric is known by its value, so writing it out changes nothing.
        checked = 0
        for name in list_bundled():
            data = json.loads(resolve_config(name).read_text())
            ambient = data["ambient"]
            if "metric" in ambient or "pattern" not in ambient["phi"]:
                continue
            n = ambient["dim"]
            explicit = json.loads(json.dumps(data))
            explicit["ambient"]["metric"] = [["1" if i == j else "0" for j in range(n)]
                                             for i in range(n)]
            for backend in ("auto", "float"):
                assert (render_report(run_scenario(parse_config(explicit), backend=backend))
                        == render_report(run_scenario(parse_config(data), backend=backend)))
            checked += 1
        assert checked == len(list_bundled())

    def test_invalid_structure_fails_dependent_suites(self):
        data = {
            "ambient": {"dim": 2, "phi": {"matrix": [["1", "0"], ["0", "1"]]}},
            "spaceform": {"c_p": 1, "c_q": -1, "p": 1},
            "suites": ["structure", "curvature"],
        }
        report = run_scenario(parse_config(data))
        assert not report["overall_pass"]
        suites = report["suites"]
        assert "error" in suites["structure"]
        assert suites["curvature"] == suites["structure"]

    def test_nan_identity_residual_fails_the_suite(self):
        cfg = parse_config(SLANT_SCENARIO)
        structure = cfg.build_structure().to_float()
        # The jet route evaluates each point of the affine immersion, so a NaN can sit at
        # one point after the first; s leaves the first residual, p_squared, finite,
        # which a Python max() seeded with it would keep over a later NaN.
        geom = jet_route(cfg.build_immersion(), structure.metric, structure)
        geom.ops.s[1, 0, 0] = np.nan
        result = run_identities_suite(geom, cfg.tolerances)
        assert math.isnan(result["residuals"]["s_squared"])
        assert result["residuals"]["p_squared"] <= 1e-12
        assert not result["pass"]

    def test_non_finite_floats_render_as_strict_json(self):
        text = render_report({"x": math.nan, "y": [math.inf, -math.inf],
                              "z": np.float64("nan")})
        assert _strict_json(text) == {"x": "NaN", "y": ["Infinity", "-Infinity"], "z": "NaN"}

    def test_float_backend_forced(self):
        report = run_scenario(parse_config(MINIMAL), backend="float")
        assert report["suites"]["structure"]["backend"] == "float"
        assert report["suites"]["structure"]["pass"]

    def test_seed_override(self):
        cfg = parse_config(SLANT_SCENARIO)
        report = run_scenario(cfg, seed=123)
        assert report["meta"]["seed"] == 123


class TestBundledConfigs:
    def test_listing_contains_the_reproduction_set(self):
        names = list_bundled()
        for expected in ("paper_example_2", "paper_example_3", "paper_example_4_k1",
                         "spaceform_n4"):
            assert expected in names
        assert names == sorted(names)
        assert list_bundled() == names  # stable across calls

    @pytest.mark.parametrize("name", [n for n in list_bundled()
                                      if n != "paper_example_4_k2_paperformula"])
    def test_every_bundled_config_passes(self, name, capsys):
        assert main(["run", name]) == EXIT_OK
        capsys.readouterr()

    def test_unnormalized_variant_demonstrates_the_flag(self, capsys):
        code = main(["run", "paper_example_4_k2_paperformula"])
        out = json.loads(capsys.readouterr().out)
        assert code == EXIT_SUITE_FAILED
        slant = out["suites"]["slant"]
        assert slant["flags"]["reference_invalid"]
        assert abs(slant["reference_cosine"]) > 1.0
        assert 0.0 <= slant["cos_theta"] <= 1.0

    def test_example_3_headline_value(self, capsys):
        assert main(["run", "paper_example_3"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert math.isclose(out["suites"]["slant"]["cos_theta"], 0.8728715609439694,
                            abs_tol=1e-12)

    def test_spaceform_findings_are_reported_not_hidden(self, capsys):
        assert main(["run", "spaceform_n4"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        findings = out["suites"]["curvature"]["findings"]
        assert findings["non_semi_symmetry_nonvanishing"]
        assert not findings["commutation_conforms"]
        assert out["suites"]["curvature"]["pass"]  # hard identities all hold


class TestCli:
    def test_run_writes_report_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main(["run", "paper_example_1", "--report", str(target)]) == EXIT_OK
        capsys.readouterr()
        data = json.loads(target.read_text())
        assert data["overall_pass"]

    def test_byte_identical_reports(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["run", "spaceform_n4", "--report", str(a)])
        main(["run", "spaceform_n4", "--report", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("target", ["a directory", "a missing parent"])
    def test_unwritable_report_path_exits_2(self, tmp_path, capsys, target):
        path = tmp_path if target == "a directory" else tmp_path / "missing" / "x.json"
        assert main(["run", "paper_example_1", "--report", str(path)]) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"report error: --report {path}: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [["run", "paper_example_3"], ["list"], ["explain", "slant"]],
                             ids=["run", "list", "explain"])
    def test_closed_stdout_exits_2_without_a_traceback(self, argv):
        # A fresh process: the handling points fd 1 at os.devnull, which pytest's must not be.
        read, write = os.pipe()
        os.close(read)
        src = str(Path(goldenslant.__file__).resolve().parents[1])
        try:
            proc = subprocess.run([sys.executable, "-m", "goldenslant", *argv], stdout=write,
                                  stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
                                  text=True, timeout=120)
        finally:
            os.close(write)
        assert proc.returncode == EXIT_CONFIG_ERROR
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
        assert proc.stderr.startswith("output error: stdout: ")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["run", "paper_example_1", "--backend", "exact"],
        ["run", "paper_example_1", "--backend", "gpu"],
        ["run", "paper_example_1", "--seed", "x"],
        ["frobnicate"],
    ], ids=["backend-exact", "backend-unknown", "seed-not-an-int", "unknown-command"])
    def test_bad_arguments_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: goldenslant")

    def test_missing_config_is_a_config_error(self, capsys):
        assert main(["run", "no_such_config"]) == EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err

    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys):
        binary = tmp_path / "binary.cfg"
        binary.write_bytes(b"\xff\xfe{}")
        nested = tmp_path / "nested.cfg"
        nested.write_text("[" * 200_000)  # deeper than json.loads can recurse
        # a directory, a file that is not UTF-8, then JSON nested too deep to decode
        for source in (tmp_path, binary, nested):
            assert main(["run", str(source)]) == EXIT_CONFIG_ERROR
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("config error: ") and len(captured.err.splitlines()) == 1

    def test_config_requiring_missing_section_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(json.dumps({
            "ambient": {"dim": 4,
                        "phi": {"pattern": ["psi", "psi", "one_minus_psi",
                                            "one_minus_psi"]}},
            "suites": ["slant"],
        }))
        assert main(["run", str(path)]) == EXIT_CONFIG_ERROR
        assert "/immersion" in capsys.readouterr().err

    def _run_mutated(self, tmp_path, mutate) -> int:
        data = json.loads(json.dumps(MINIMAL))
        mutate(data)
        path = tmp_path / "mutated.cfg"
        path.write_text(json.dumps(data))  # NaN is written as the bare token
        return main(["run", str(path)])

    @pytest.mark.filterwarnings("error")  # a RuntimeWarning would reach stderr
    @pytest.mark.parametrize("count", [1, 3])
    def test_grid_span_past_the_float_range_is_a_config_error(self, tmp_path, capsys, count):
        # hi - lo overflows: np.linspace would give NaN sample points.
        mutate = _immersion(grid=[[-1.7e308, 1.7e308, count]])
        assert self._run_mutated(tmp_path, mutate) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: /immersion/samples/grid/0: ")
        assert len(captured.err.splitlines()) == 1

    def test_grid_span_within_the_float_range_loads(self):
        data = json.loads(json.dumps(MINIMAL))
        _immersion(grid=[[-8.9e307, 8.9e307, 3]])(data)
        assert parse_config(data).immersion_samples.grid == ((-8.9e307, 8.9e307, 3),)

    @pytest.mark.parametrize("config,message", [
        ({**MINIMAL, "slant": []}, "/slant: expected an object"),
        ({**MINIMAL, "slant": {"bogus": 1}}, "/slant/bogus: unknown entry"),
        ([MINIMAL], ": top level must be an object"),
    ], ids=["section-not-an-object", "unknown-entry", "top-level-not-an-object"])
    def test_config_shape_errors_name_their_rule(self, tmp_path, capsys, config, message):
        path = tmp_path / "shape.cfg"
        path.write_text(json.dumps(config))
        assert main(["run", str(path)]) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"config error: {message}\n"

    def test_non_finite_curvature_is_a_config_error(self, tmp_path, capsys):
        assert self._run_mutated(tmp_path, _curvature_run(c_p=math.nan)) == EXIT_CONFIG_ERROR
        assert "/spaceform/c_p" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")  # a RuntimeWarning would reach stderr
    def test_overflowing_curvatures_pass_quietly(self, tmp_path, capsys):
        # A and B are near 1e307, but the oracle divides them by max|kappa| before any
        # product, so its bound stays finite; the exact certificate does not overflow, and
        # its Bianchi identity holds exactly.
        mutate = _curvature_run(c_p=1e308, c_q=-1e308)
        assert self._run_mutated(tmp_path, mutate) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        curvature = _strict_json(captured.out)["suites"]["curvature"]
        assert curvature["pass"]
        assert curvature["identities"]["bianchi"] == 0.0
        oracle = curvature["identities"]["ambient_oracle"]
        assert math.isfinite(oracle) and oracle <= 1e-12

    @pytest.mark.filterwarnings("error")  # a RuntimeWarning would reach stderr
    @pytest.mark.parametrize("component,grid", [
        ("exp(1000*u)", [0.5, 2, 3]), ("u^2^30", [0.5, 2, 3]),
        # Affine, so evaluated from the exact form: a coefficient past the float
        # range, and values past it.
        ("10^200*10^200*u", [-1, 1, 3]), ("10^150*u+10^160", [-1e200, 1e200, 3]),
    ])
    def test_overflowing_immersion_is_a_typed_suite_error(self, tmp_path, capsys, component,
                                                          grid):
        mutate = _immersion((component, "u", "0", "0"), grid=[grid])
        assert self._run_mutated(tmp_path, mutate) == EXIT_SUITE_FAILED
        captured = capsys.readouterr()
        assert captured.err == ""
        suites = _strict_json(captured.out)["suites"]
        # The jet route's message and witness point, whichever route ran.
        with pytest.raises(DomainError) as jets:
            parse(component, ["u"]).eval_jets(SampleSpec(grid=(tuple(grid),)).points())
        for name in ("identities", "extrinsic", "slant"):
            assert suites[name]["error"] == f"DomainError: {jets.value}", suites[name]

    @pytest.mark.filterwarnings("error")  # a RuntimeWarning would reach stderr
    @pytest.mark.parametrize("suites", [["structure", "identities", "slant"], ["curvature"]])
    @pytest.mark.parametrize("entry", ["metric", "phi"])
    def test_exact_entry_past_the_float_range_is_a_typed_suite_error(self, tmp_path, capsys,
                                                                     entry, suites):
        def mutate(data):
            # An exact entry of 10^400 has no float view.
            matrix = [[str(10 ** 400 if i == j == 0 else int(i == j)) for j in range(4)]
                      for i in range(4)]
            if entry == "metric":
                data["ambient"]["metric"] = matrix
            else:
                data["ambient"]["phi"] = {"matrix": matrix}
            _immersion(("u", "u", "0", "0"))(data)
            _curvature_run()(data)
            data["suites"] = suites
        assert self._run_mutated(tmp_path, mutate) == EXIT_SUITE_FAILED
        captured = capsys.readouterr()
        assert captured.err == ""
        report = _strict_json(captured.out)["suites"]
        for name in suites:
            if entry == "phi":
                # phi^2 - phi - I has a (0, 0) entry near 10^800, an infinite residual.
                assert report[name]["error"] == (
                    "InvalidStructure: golden axioms violated: structure=inf, "
                    "self-adjoint=0.000e+00, compat=inf"), report[name]
            elif name == "structure":
                assert report[name]["pass"] and report[name]["exact_zero"]
            else:
                assert report[name]["error"] == ("DomainError: exact entry (0, 0) is beyond "
                                                 "the float range"), report[name]

    def _run_config(self, tmp_path, data, *args) -> int:
        path = tmp_path / "scenario.cfg"
        path.write_text(json.dumps(data))
        return main(["run", str(path), *args])

    def test_nan_frames_fail_the_slant_suite(self, tmp_path, capsys):
        # A NaN angle spread classifies as non_slant, which has no residuals to fail.
        assert self._run_config(tmp_path, NAN_FRAMES) == EXIT_SUITE_FAILED
        slant = _strict_json(capsys.readouterr().out)["suites"]["slant"]
        assert slant["theta"] == "NaN" and slant["angle_spread"] == "NaN"
        assert not slant["pass"]

    @pytest.mark.filterwarnings("error")  # a RuntimeWarning would reach stderr
    @pytest.mark.parametrize("backend", ["auto", "float"])
    def test_nan_frames_fail_every_point_suite_quietly(self, tmp_path, capsys, backend):
        data = {**NAN_FRAMES, "suites": ["identities", "extrinsic", "slant"]}
        assert self._run_config(tmp_path, data, "--backend", backend) == EXIT_SUITE_FAILED
        captured = capsys.readouterr()
        assert captured.err == ""
        suites = _strict_json(captured.out)["suites"]
        assert not any(suite["pass"] for suite in suites.values()), suites

    @needs_digit_limit
    @pytest.mark.parametrize("operator", ["+", "^"], ids=["literal", "exponent"])
    def test_number_past_the_digit_limit_is_a_config_error(self, tmp_path, capsys, operator):
        component = f"psi*u1{operator}" + "1" * (DIGIT_LIMIT + 1)
        assert self._run_config(tmp_path, _example_3(component_0=component)) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: /immersion/components/0: number has too many "
                                "digits (at offset 7)\n")

    @needs_digit_limit
    def test_lambda_past_the_digit_limit_is_a_typed_suite_error(self, tmp_path, capsys):
        # A metric entry within the limit whose exact lambda has integers past it.
        digits = DIGIT_LIMIT // 2
        entry = "1" + "0" * (digits - 1) + "7/1" + "0" * digits
        report = tmp_path / "report.json"
        code = self._run_config(tmp_path, _example_3(metric_00=entry), "--report", str(report))
        assert code == EXIT_SUITE_FAILED
        captured = capsys.readouterr()
        assert captured.err == "" and report.read_text() == captured.out
        suites = _strict_json(captured.out)["suites"]
        assert suites["slant"]["error"].startswith("DomainError: "), suites["slant"]
        assert suites["structure"]["pass"] and suites["identities"]["pass"]

    @pytest.mark.filterwarnings("error")  # a RuntimeWarning would reach stderr
    @pytest.mark.parametrize("backend", ["auto", "float"])
    @pytest.mark.parametrize("entry", ["3" * 400, "1" + "0" * 308 + "*sqrt5"],
                             ids=["past-the-range", "sqrt5-term-past-the-range"])
    def test_metric_entry_past_the_float_range_fails_quietly(self, tmp_path, capsys, entry,
                                                             backend):
        data = _example_3(metric_00=entry)
        assert self._run_config(tmp_path, data, "--backend", backend) == EXIT_SUITE_FAILED
        captured = capsys.readouterr()
        assert captured.err == ""
        suites = _strict_json(captured.out)["suites"]
        for name in ("identities", "slant"):
            assert suites[name]["error"] == ("DomainError: exact entry (0, 0) is beyond "
                                             "the float range"), suites[name]

    def test_negative_seed_flag_is_a_config_error(self, capsys):
        assert main(["run", "paper_example_3", "--seed", "-5"]) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: /seed:")

    def test_spaceform_p_must_match_the_ambient_structure(self, tmp_path, capsys):
        assert self._run_mutated(tmp_path, _p_mismatch) == EXIT_SUITE_FAILED
        captured = capsys.readouterr()
        assert captured.err == ""
        error = json.loads(captured.out)["suites"]["curvature"]["error"]
        assert error.startswith("ConfigError: /spaceform/p:")

    def test_list_command(self, capsys):
        assert main(["list"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert "paper_example_2" in out

    def test_explain_command(self, capsys):
        assert main(["explain", "identities"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "P^2 = P + I - tQ" in out and "Q = QP + sQ" in out

    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "-0.5"])
    def test_tol_angle_flag_follows_the_tolerance_rule(self, value, capsys):
        assert main(["run", "paper_example_3", f"--tol-angle={value}"]) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: /tolerances/tol_angle:")

    def test_zero_denominator_exits_2_at_the_entry(self, tmp_path, capsys):
        mutate = lambda d: d["ambient"].__setitem__("phi", {"matrix": [  # noqa: E731
            ["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "2/0"],
            ["0", "0", "0", "1"]]})
        assert self._run_mutated(tmp_path, mutate) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("config error: /ambient/phi/matrix/2/3:")

    def test_deep_component_exits_2_at_its_pointer(self, tmp_path, capsys):
        mutate = _immersion(("(" * 2000 + "u" + ")" * 2000, "u", "0", "0"))
        assert self._run_mutated(tmp_path, mutate) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: /immersion/components/0: expression nests deeper")
        assert len(err.splitlines()) == 1

    def test_tol_angle_override_lands_in_report(self, capsys):
        assert main(["run", "paper_example_3", "--tol-angle", "1e-4"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["meta"]["tolerances"]["tol_angle"] == 1e-4

    def test_seed_flag(self, capsys):
        assert main(["run", "paper_example_3", "--seed", "42"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["meta"]["seed"] == 42

    def test_constant_power_past_the_bit_bound_runs_on_the_float_route(self, tmp_path, capsys):
        mutate = _immersion(("u", "u+0.5^4000000", "0", "0"))
        assert self._run_mutated(tmp_path, mutate) == EXIT_OK
        suites = json.loads(capsys.readouterr().out)["suites"]
        assert suites["identities"]["exact"] == {"available": False}
        assert suites["slant"]["exact"] == {"available": False}
        assert suites["slant"]["classification"] == "invariant"


# A config that reaches every section and suite, on a few points and trials.
FUZZ_BASE = {
    "ambient": {"dim": 4,
                "metric": [["1", "0", "0", "0"], ["0", "2", "0", "0"], ["0", "0", "1", "0"],
                           ["0", "0", "0", "1"]],
                "phi": {"pattern": ["psi", "one_minus_psi", "psi", "one_minus_psi"]}},
    "immersion": {"params": ["u", "v"], "components": ["u", "v", "u*v", "sin(u)"],
                  "samples": {"grid": [[-1, 1, 2], [-1, 1, 2]], "extra_points": [[0, 0]]}},
    "spaceform": {"c_p": 1, "c_q": -1, "p": 2, "trials": 5, "seed": 3},
    "slant": {"angle_formula": "projection"},
    "tolerances": {"tol_angle": 1e-6},
    "suites": ["structure", "identities", "extrinsic", "slant", "curvature"],
    "seed": 0,
}


def _paths(value, path=()):
    """Every path into a JSON value, the root excluded."""
    out = []
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        out.append(path + (key,))
        out.extend(_paths(child, path + (key,)))
    return out


_FUZZ_PATHS = _paths(FUZZ_BASE)
_TOKENS = ["u", "v", "w", "psi", "sqrt5", "pi", "sin(", "exp(", "sqrt(", "(", ")", "+", "-",
           "*", "/", "^", "0", "2", "0.5", "30", "9", " ", ".", "1e3", "#", "²", "①",
           "٣"]
_expr_text = st.lists(st.sampled_from(_TOKENS), max_size=10).map("".join)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6), st.floats(width=64),
    st.sampled_from(["psi", "one_minus_psi", "1/0", "1/2+1/2*sqrt5", "unnormalized",
                     "curvature", "slant", "u"]),
    _expr_text,
)
_json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["grid", "pattern", "c_p", "x", "extra_points"]),
                      inner, max_size=3),
    max_leaves=8,
)
_mutation = st.tuples(st.sampled_from(_FUZZ_PATHS), st.sampled_from(["set", "delete"]),
                      _json_values)


def _mutated(mutations) -> dict:
    data = json.loads(json.dumps(FUZZ_BASE))
    for path, action, value in mutations:
        try:  # an earlier mutation may have removed or replaced the path
            node = data
            for key in path[:-1]:
                node = node[key]
            if action == "delete":
                del node[path[-1]]
            else:
                node[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass
    return data


@settings(max_examples=60, deadline=None)
@given(mutations=st.lists(_mutation, max_size=3),
       components=st.none() | st.lists(_expr_text, min_size=4, max_size=4))
@pytest.mark.filterwarnings("error::RuntimeWarning")  # it would reach stderr
def test_fuzzed_configs_exit_cleanly(tmp_path_factory, mutations, components):
    data = _mutated(mutations)
    if components is not None and isinstance(data.get("immersion"), dict):
        data["immersion"]["components"] = components
    path = tmp_path_factory.mktemp("fuzz") / "fuzzed.cfg"
    path.write_text(json.dumps(data))  # NaN and Infinity are written as bare tokens
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", str(path)])
    assert code in (EXIT_OK, EXIT_SUITE_FAILED, EXIT_CONFIG_ERROR)
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("config error:")), lines
    assert (code == EXIT_CONFIG_ERROR) == bool(lines)


def _huge_sample(start: float) -> dict:
    """FUZZ_BASE, slant suite only, unnormalized cosine, one grid axis starting at ``start``."""
    data = json.loads(json.dumps(FUZZ_BASE))
    data["immersion"]["samples"]["grid"][1][0] = start
    data["slant"] = {"angle_formula": "unnormalized"}
    data["suites"] = ["slant"]
    return data


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("start", [1e160, 8.286481015334895e+153])
def test_huge_samples_fail_the_unnormalized_cosine_quietly(tmp_path, start):
    # Both once overflowed: a NaN cosine that passed unflagged, and a wrong 0.0.
    path = tmp_path / "huge.cfg"
    path.write_text(json.dumps(_huge_sample(start)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", str(path)])
    assert err.getvalue() == "" and code == EXIT_SUITE_FAILED
    slant = json.loads(out.getvalue())["suites"]["slant"]
    assert slant["flags"] == {"reference_invalid": True, "reference_mismatch": True}
    assert math.isfinite(slant["reference_cosine"]) and slant["reference_cosine"] > 1.0
    assert slant["pass"] is False


def test_non_finite_reference_cosine_sets_both_flags(monkeypatch):
    import goldenslant.suites as suites
    monkeypatch.setattr(suites, "reference_cosine", lambda ops, x: math.nan)
    slant = run_scenario(parse_config(_huge_sample(-1.0)))["suites"]["slant"]
    assert slant["flags"] == {"reference_invalid": True, "reference_mismatch": True}
    assert slant["pass"] is False
