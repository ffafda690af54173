"""Command-line interface: output contracts, exit codes, determinism."""

import contextlib
import io
import json
import re
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micropull import SweepResult
from micropull import cli, coupled, electro
from micropull.cli import EXIT_USAGE, emit_sweep_csv, run
from micropull.coupled import PullInResult


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestEmitSweepCsv:
    def test_converged_rows_only(self, sweep_point):
        result = SweepResult(points=(
            sweep_point(10.0, 1.5e-7, True, 3),
            sweep_point(20.0, 3.5e-7, True, 4),
            sweep_point(30.0, 6.5e-7, True, 5),
        ))
        sink = io.StringIO()
        emit_sweep_csv(result, sink)
        lines = sink.getvalue().strip().split("\n")
        assert lines[0] == "voltage_V,tip_displacement_um,converged,iterations"
        assert len(lines) == 4
        assert not any(line.startswith("#") for line in lines)
        assert lines[1] == "10.0,0.15,true,3"

    def test_pull_in_comment(self, sweep_point):
        result = SweepResult(
            points=(sweep_point(10.0, 1.5e-7, True, 3), sweep_point(20.0, 0.0, False, 100)),
            pull_in=PullInResult(
                bracket_low=14.9, bracket_high=15.0,
                pull_in_voltage=14.95, tip_displacement=2e-6,
            ),
        )
        sink = io.StringIO()
        emit_sweep_csv(result, sink)
        last = sink.getvalue().strip().split("\n")[-1]
        assert last.startswith("# pull_in_V=")
        assert float(last.split("=")[1]) == pytest.approx(14.95)

    def test_round_trip(self, sweep_point):
        points = tuple(
            sweep_point(3.7 * (k + 1), 1.234567e-7 * (k + 1) ** 2, True, k + 2)
            for k in range(5)
        )
        sink = io.StringIO()
        emit_sweep_csv(SweepResult(points=points), sink)
        rows = sink.getvalue().strip().split("\n")[1:]
        for p, row in zip(points, rows):
            v, d, conv, iters = row.split(",")
            assert float(v) == pytest.approx(p.voltage, rel=1e-12)
            # 6 significant digits bound the relative error by half an ulp
            # of the leading digit, i.e. 5e-6
            assert float(d) * 1e-6 == pytest.approx(p.tip_displacement, rel=5e-6)
            assert conv == "true"
            assert int(iters) == p.iterations


class TestCatalogCommand:
    def test_lists_all_specimens(self, capsys):
        code, out = run_cli(capsys, "catalog")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 17
        assert lines[0].startswith("id,dimension_source,length_um")
        assert any(line.startswith("ST1-1,nominal,100.0,15.0,2.0,5.0") for line in lines)

    def test_json_format(self, capsys):
        code, out = run_cli(capsys, "catalog", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["specimens"]) == 16


class TestRatiosCommand:
    def test_st1_8_measured(self, capsys):
        code, out = run_cli(capsys, "ratios", "--id", "ST1-8", "--dims", "measured")
        assert code == 0
        header, row = out.strip().split("\n")
        fields = dict(zip(header.split(","), row.split(",")))
        assert float(fields["r2"]) == pytest.approx(0.497, abs=1e-3)
        assert fields["large_displacement_warning"] == "true"


class TestAnalyticCommand:
    def test_st1_1_measured(self, capsys):
        code, out = run_cli(capsys, "analytic", "--id", "ST1-1", "--dims", "measured")
        assert code == 0
        header, row = out.strip().split("\n")
        fields = dict(zip(header.split(","), row.split(",")))
        assert float(fields["pull_in_voltage_V"]) == pytest.approx(180.0, abs=1.0)
        assert float(fields["pull_in_displacement_um"]) == pytest.approx(0.92, abs=0.01)

    def test_modulus_override_scales_voltage(self, capsys):
        _, out_base = run_cli(capsys, "analytic", "--id", "ST1-1", "--dims", "measured")
        _, out_quad = run_cli(
            capsys, "analytic", "--id", "ST1-1", "--dims", "measured", "--E", "664"
        )
        v_base = float(out_base.strip().split("\n")[1].split(",")[3])
        v_quad = float(out_quad.strip().split("\n")[1].split(",")[3])
        assert v_quad == pytest.approx(2.0 * v_base, rel=1e-9)


class TestSweepCommand:
    def test_csv_contract(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "--id", "ST1-1", "--dims", "measured",
            "--load", "plate", "--vmax", "90", "--steps", "3",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "voltage_V,tip_displacement_um,converged,iterations"
        assert len(lines) == 4
        volts = [float(line.split(",")[0]) for line in lines[1:]]
        assert volts == [30.0, 60.0, 90.0]

    def test_pull_in_comment_when_sweep_crosses(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "--id", "ST1-1", "--dims", "measured",
            "--load", "plate", "--vmax", "260", "--steps", "3",
        )
        assert code == 0
        last = out.strip().split("\n")[-1]
        assert last.startswith("# pull_in_V=")
        assert 150.0 < float(last.split("=")[1]) < 200.0

    def test_failed_point_tip_inside_gap(self, capsys, st1_1_measured):
        # the failed 200 V row once printed 11.0956 um for a 5 um gap
        code, out = run_cli(
            capsys, "sweep", "--id", "ST1-1", "--dims", "measured",
            "--load", "plate", "--vmax", "200", "--steps", "5",
        )
        assert code == 0
        voltage, tip_um, converged, _ = out.strip().split("\n")[-2].split(",")
        assert (voltage, converged) == ("200.0", "false")
        assert 0.0 <= float(tip_um) < st1_1_measured.gap_g * 1e6

    def test_json_mirrors_csv(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "--id", "ST1-1", "--dims", "measured",
            "--load", "plate", "--vmax", "90", "--steps", "3", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["points"]) == 3
        assert doc["pull_in_V"] is None
        assert doc["points"][0]["voltage_V"] == pytest.approx(30.0)

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out = run_cli(
            capsys, "sweep", "--id", "ST1-1", "--dims", "measured",
            "--load", "plate", "--vmax", "60", "--steps", "2", "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("voltage_V,")


class TestBandCommand:
    def test_two_moduli_emitted(self, capsys):
        code, out = run_cli(
            capsys, "band", "--id", "ST1-1", "--dims", "measured",
            "--load", "plate", "--vmax", "100", "--steps", "4", "--E", "150,166",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "young_modulus_gpa,voltage_V,tip_displacement_um,converged,iterations"
        moduli = {line.split(",")[0] for line in lines[1:] if not line.startswith("#")}
        assert moduli == {"150.0", "166.0"}

    def test_rejects_single_modulus(self, capsys):
        code, _ = run_cli(
            capsys, "band", "--id", "ST1-1", "--vmax", "100", "--E", "150",
        )
        assert code == 2


class TestFieldDumpOption:
    def test_dump_written(self, capsys, tmp_path):
        dump = tmp_path / "field.csv"
        code, _ = run_cli(
            capsys, "sweep", "--id", "ST1-1", "--dims", "measured",
            "--vmax", "50", "--steps", "2", "--dump-field", str(dump),
        )
        assert code == 0
        assert dump.read_text().startswith("x_um,y_um,phi_V")

    def test_every_cell_is_the_exact_field_value(self, capsys, monkeypatch, tmp_path):
        # one row per grid node, column by column, each cell the float it prints
        searched, find_pull_in = {}, cli.find_pull_in

        def recording(spec, cfg):
            searched.update(spec=spec, cfg=cfg, result=find_pull_in(spec, cfg))
            return searched["result"]

        monkeypatch.setattr(cli, "find_pull_in", recording)
        dump = tmp_path / "field.csv"
        code, _ = run_cli(
            capsys, "pullin", "--id", "ST1-1", "--dims", "measured", "--dump-field", str(dump),
        )
        assert code == 0
        result = searched["result"]
        field = electro.solve_field2d(
            searched["spec"], result.deflection, result.bracket_low, searched["cfg"].load_model
        )
        header, *lines = dump.read_text().splitlines()
        assert header == "x_um,y_um,phi_V"
        nx1, ny1 = field.potential.shape
        assert len(lines) == nx1 * ny1
        for k, line in enumerate(lines):
            i, j = divmod(k, ny1)
            x, y, phi = line.split(",")
            assert float(x) == field.grid_x[i] * 1e6
            assert float(y) == field.grid_y[i, j] * 1e6
            assert float(phi) == field.potential[i, j]

    @pytest.mark.parametrize("command, search", [
        (("pullin",), "find_pull_in"),
        (("sweep", "--vmax", "100", "--steps", "2"), "voltage_sweep"),
    ])
    def test_dump_solves_field_of_reported_state(
        self, capsys, monkeypatch, tmp_path, command, search
    ):
        # one field solve on the state the result carries, no equilibrium re-solve
        counts = {"field": 0, "equilibrium": 0}
        at_search_end = {}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(electro, "solve_field2d", counted("field", electro.solve_field2d))
        monkeypatch.setattr(
            coupled._Runner, "equilibrium", counted("equilibrium", coupled._Runner.equilibrium)
        )
        searched = getattr(cli, search)

        def recording(*args, **kwargs):
            out = searched(*args, **kwargs)
            at_search_end.update(counts)
            return out

        monkeypatch.setattr(cli, search, recording)
        dump = tmp_path / "field.csv"
        code, _ = run_cli(
            capsys, *command, "--id", "ST1-1", "--dims", "measured", "--load", "field2d",
            "--dump-field", str(dump),
        )
        assert code == 0
        assert counts["field"] == at_search_end["field"] + 1
        assert counts["equilibrium"] == at_search_end["equilibrium"]
        assert dump.read_text().startswith("x_um,y_um,phi_V")

    def test_requires_field2d(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "sweep", "--id", "ST1-1", "--load", "plate",
            "--vmax", "50", "--steps", "2", "--dump-field", str(tmp_path / "f.csv"),
        )
        assert code == 2


class TestExitCodes:
    def test_unknown_specimen_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "sweep", "--id", "unknown-id", "--vmax", "10")
        assert code == 2

    def test_missing_file_is_file_error(self, capsys):
        code, _ = run_cli(capsys, "catalog", "--file", "/nonexistent/specimens.json")
        assert code == 4

    @pytest.mark.parametrize("content", [
        b"{not json",
        b'\xff\xfe{"specimens": []}',  # not UTF-8
        b"[" * 100_000,  # nested deeper than the decoder's recursion limit
        b'[{"specimens": []}]',
        b'{"specimen": []}',
        b'{"specimens": {}}',
        b'{"specimens": [1]}',
    ], ids=["invalid-json", "not-utf8", "deeply-nested", "top-level-array", "no-specimens",
            "specimens-not-array", "entry-not-object"])
    def test_malformed_file_is_file_error(self, capsys, tmp_path, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code = run(["catalog", "--file", str(bad)])
        err = capsys.readouterr().err
        assert code == 4
        assert err.count("\n") == 1
        assert err.startswith("micropull: file error:")

    def test_boolean_number_is_file_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"specimens": [{
            "id": "x", "length_um": 100.0, "width_um": 15.0,
            "thickness_um": True, "gap_um": 5.0,
            "young_modulus_gpa": 166.0, "poisson_ratio": 0.23,
            "dimension_source": "nominal",
        }]}))
        code = run(["catalog", "--file", str(bad)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("micropull: file error: ")
        assert "thickness_um" in lines[0]

    def test_bad_arguments_usage_error(self, capsys):
        code, _ = run_cli(capsys, "sweep", "--id", "ST1-1")  # missing --vmax
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("pullin", "--fringing", "-1"),
            ("pullin", "--load", "field2d", "--coupling", "monolithic"),
            ("sweep", "--vmax", "nan"),
            ("sweep", "--vmax", "inf"),
            ("sweep", "--vmax", "-5"),
            ("sweep", "--vmax", "1e200"),
            ("sweep", "--load", "field2d", "--vmax", "1e200"),
            ("band", "--vmax", "2e4"),
            ("band", "--load", "field2d", "--vmax", "1e200"),
            ("sweep", "--vmax", "50", "--steps", "1"),
            ("band", "--vmax", "50", "--E", "150,150"),
            ("band", "--vmax", "50", "--E", "nan,150"),
            ("band", "--vmax", "50", "--steps", "0"),
            ("sweep", "--vmax", "50", "--dump-field", "unused.csv"),
            ("band", "--load", "field2d", "--vmax", "50", "--dump-field", "unused.csv"),
            ("pullin", "--fringing", "nan"),
            ("pullin", "--load", "field2d", "--fringing", "0.3"),
        ],
    )
    def test_invalid_values_are_usage_errors(self, capsys, monkeypatch, argv):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started before the arguments were checked")

        for name in ("find_pull_in", "voltage_sweep", "modulus_band_sweep"):
            monkeypatch.setattr(cli, name, no_solve)
        command, *rest = argv
        defaults = [] if "--load" in rest else ["--load", "plate"]
        code = run([command, "--id", "ST1-6", *defaults, *rest])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("micropull: error: ")

    @pytest.mark.parametrize("command", [("analytic",), ("pullin", "--load", "plate")])
    def test_non_finite_specimen_file_is_file_error(self, capsys, tmp_path, command):
        rigid = tmp_path / "rigid.json"
        rigid.write_text(json.dumps({"specimens": [{
            "id": "rigid", "length_um": 200.0, "width_um": 15.0,
            "thickness_um": 2.0, "gap_um": 5.0,
            "young_modulus_gpa": float("inf"), "poisson_ratio": 0.23,
            "dimension_source": "nominal",
        }]}))
        assert "Infinity" in rigid.read_text()
        code = run([*command, "--file", str(rigid), "--id", "rigid"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("micropull: file error: ")

    @pytest.mark.parametrize("name, value", [
        ("young_modulus_gpa", 1e-12),  # below catalog.MIN_YOUNG_MODULUS
        ("length_um", 10**400),  # an integer too large for a float
        # lengths outside catalog._LENGTH_RANGE_UM, 1 nm .. 1 m
        ("gap_um", 0.000999),
        ("thickness_um", 1e-150),
        ("gap_um", 1e-150),
        ("length_um", 1.000001e6),
        ("length_um", 1e150),
    ])
    def test_unusable_specimen_number_is_file_error(self, capsys, tmp_path, name, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"specimens": [{
            "id": "x", "length_um": 100.0, "width_um": 15.0,
            "thickness_um": 2.0, "gap_um": 5.0,
            "young_modulus_gpa": 166.0, "poisson_ratio": 0.23,
            "dimension_source": "nominal", name: value,
        }]}))
        code = run(["analytic", "--file", str(bad)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("micropull: file error: ")
        assert "specimens[0]" in lines[0]

    @pytest.mark.parametrize("argv", [
        ("pullin", "--load", "plate", "--out"),
        ("sweep", "--vmax", "50", "--steps", "2", "--dump-field"),
    ], ids=["out", "dump-field"])
    def test_unwritable_path_is_file_error(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "x.csv"
        code = run([*argv, str(path), "--id", "ST1-1", "--dims", "measured"])
        captured = capsys.readouterr()
        assert code == 4
        if "--out" in argv:
            assert captured.out == ""
        assert captured.err.splitlines() == [
            f"micropull: file error: [Errno 2] No such file or directory: '{path}'"
        ]

    # corners of the file length range, t and g below l, at moduli from 1 Pa
    # up: the solves fail with exit 3 at worst
    @pytest.mark.parametrize("l, w, t, g, e_gpa", [
        (1e6, 1e-3, 1e-3, 1e-3, 166.0),
        (1e6, 1e6, 999e3, 999e3, 1e-9),
        (2e-3, 1e6, 1e-3, 1e-3, 166.0),
        (2e-3, 1e-3, 1e-3, 1e-3, 1e291),
    ])
    def test_length_range_corner_prints_no_traceback(self, capsys, tmp_path, l, w, t, g, e_gpa):
        corner = tmp_path / "corner.json"
        corner.write_text(json.dumps({"specimens": [{
            "id": "x", "length_um": l, "width_um": w, "thickness_um": t, "gap_um": g,
            "young_modulus_gpa": e_gpa, "poisson_ratio": 0.23, "dimension_source": "nominal",
        }]}))
        for argv in (
            ("analytic",),
            ("pullin", "--load", "plate"),
            ("pullin", "--load", "plate", "--coupling", "monolithic"),
            ("pullin",),
            ("sweep", "--load", "plate", "--vmax", "10000", "--steps", "4"),
        ):
            assert run([*argv, "--file", str(corner)]) in (0, 3), argv
            assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("pullin",),
        ("pullin", "--coupling", "monolithic"),
        ("sweep", "--vmax", "100", "--steps", "2"),
    ], ids=["pullin", "pullin-monolithic", "sweep"])
    def test_overflowing_fringing_prints_no_traceback(self, capsys, argv):
        # on ST1-8 (g/w = 26.7) the fringing factor 1 + f (g - v)/w overflows,
        # and the load vector raised ValueError out of the coupling loop
        code = run([*argv, "--id", "ST1-8", "--load", "plate", "--fringing", "1e308"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("micropull: no pull-in: ") and line.endswith(", load overflow")

    @pytest.mark.parametrize("argv", [
        ("--load", "plate"),
        ("--load", "plate", "--coupling", "monolithic"),
        ("--load", "field2d"),
        ("--load", "plate", "--model", "linear"),
    ], ids=["plate", "monolithic", "field2d", "linear"])
    def test_stiff_corner_names_its_voltage_above_the_cap(self, capsys, tmp_path, argv):
        # the last corner above: every residual entry is finite, but its square
        # overflowed the residual norm, so the nonlinear modes reported
        # "structural divergence" or "newton divergence"
        corner = tmp_path / "corner.json"
        corner.write_text(json.dumps({"specimens": [{
            "id": "x", "length_um": 2e-3, "width_um": 1e-3, "thickness_um": 1e-3,
            "gap_um": 1e-3, "young_modulus_gpa": 1e291, "poisson_ratio": 0.23,
            "dimension_source": "nominal",
        }]}))
        assert run(["pullin", *argv, "--file", str(corner)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        head, sep, volts = line.rpartition("at a tip deflection of 0.35 gap, ")
        assert head.startswith("micropull: no pull-in: ") and sep
        assert volts.endswith(" V")
        assert 3e145 < float(volts[:-2]) < 4e145
        # six significant digits, not the 146-digit integer of a fixed-point format
        assert re.fullmatch(r"\d(\.\d{1,5})?e\+145", volts[:-2])

    def test_no_pull_in_is_exit_3(self, capsys, tmp_path):
        stiff = tmp_path / "stiff.json"
        stiff.write_text(json.dumps({"specimens": [{
            "id": "stiff", "length_um": 50.0, "width_um": 15.0,
            "thickness_um": 10.0, "gap_um": 20.0,
            "young_modulus_gpa": 166.0, "poisson_ratio": 0.23,
            "dimension_source": "nominal",
        }]}))
        code, _ = run_cli(
            capsys, "pullin", "--file", str(stiff), "--id", "stiff", "--load", "plate",
        )
        assert code == 3


_GOOD = {
    "--vmax": st.floats(min_value=1e-3, max_value=1e4).map(repr),
    "--steps": st.integers(min_value=2, max_value=50).map(str),
    "--fringing": st.floats(min_value=0.0, max_value=10.0).map(repr),
    "--E": st.floats(min_value=1.0, max_value=1e3).map(repr),
    "--E pair": st.lists(
        st.floats(min_value=1.0, max_value=1e3), min_size=2, max_size=2, unique=True,
    ).map(lambda pair: ",".join(map(repr, pair))),
}
_NOT_NUMBERS = st.sampled_from(["", "x", "1,,2", "0x10"])
_NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "1e400"])
_BAD = {
    "--vmax": st.floats(max_value=0.0).map(repr) | _NON_FINITE | _NOT_NUMBERS
    | st.floats(min_value=1e4, exclude_min=True).map(repr),  # above the 10 kV cap
    "--steps": st.integers(max_value=1).map(str) | st.sampled_from(["2.5", "1e3"])
    | _NOT_NUMBERS,
    "--fringing": st.floats(max_value=-1e-300).map(repr) | _NON_FINITE | _NOT_NUMBERS,
    "--E": st.floats(max_value=0.0).map(repr) | _NON_FINITE | _NOT_NUMBERS
    | st.sampled_from(["150,166", "1e-300", "5e-324"]),  # the last two below 1 Pa
    "--E pair": st.sampled_from(
        ["150", "150,150", "nan,166", "0,166", "-150,166", "150,inf", "150,166,170", ",",
         "1e-300,166"]
    ) | _NOT_NUMBERS,
}


@st.composite
def _refused_invocation(draw):
    """A sweep, pullin or band command line with at least one invalid value."""
    command = draw(st.sampled_from(["sweep", "pullin", "band"]))
    load = draw(st.sampled_from(["plate", "field2d"]))
    argv = [command, "--id", "ST1-6", "--dims", "measured", "--load", load]
    # field2d refuses any --fringing, which would hide the drawn invalid value
    options = ["--vmax", "--steps", "--E", *(["--fringing"] if load == "plate" else [])]
    invalid = draw(st.sampled_from(options))
    for option in options:
        key = "--E pair" if option == "--E" and command == "band" else option
        if option == invalid:
            value = draw(_BAD[key])
        elif draw(st.booleans()):
            value = draw(_GOOD[key])
        else:
            continue
        argv.append(f"{option}={value}")
    return argv


@st.composite
def _closed_form_invocation(draw):
    """An analytic or ratios command line, with a valid or invalid --E."""
    command = draw(st.sampled_from(["analytic", "ratios"]))
    argv = [command, "--id", draw(st.sampled_from(["ST1-1", "ST1-6", "ST1-8"])),
            "--dims", draw(st.sampled_from(["nominal", "measured"]))]
    if draw(st.booleans()):
        argv.append("--E=" + draw(_GOOD["--E"] | _BAD["--E"]))
    return argv


class TestExitCodeProperty:
    """No drawn command line escapes the documented exit codes."""

    @settings(max_examples=400, deadline=None)
    @given(argv=st.one_of(_refused_invocation(), _closed_form_invocation()))
    def test_exit_code_documented_and_no_traceback(self, argv):
        def no_solve(*args, **kwargs):
            raise AssertionError(f"{argv} started a solve")

        out, err = io.StringIO(), io.StringIO()
        with contextlib.ExitStack() as stack:
            for name in ("find_pull_in", "voltage_sweep", "modulus_band_sweep"):
                stack.enter_context(mock.patch.object(cli, name, no_solve))
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            code = run(argv)
        assert code in (0, 2, 3, 4)
        if argv[0] in ("sweep", "pullin", "band"):
            assert code == EXIT_USAGE
        assert "Traceback" not in err.getvalue()


class TestFileSelector:
    # every command that takes a specimen selector
    COMMANDS = [
        ["ratios"], ["analytic"], ["sweep", "--vmax", "50"], ["pullin"], ["band", "--vmax", "50"],
    ]

    def one_entry(self, tmp_path, dimension_source):
        one = tmp_path / "one.json"
        one.write_text(json.dumps({"specimens": [{
            "id": "X1", "length_um": 100.0, "width_um": 15.0,
            "thickness_um": 2.0, "gap_um": 5.0,
            "young_modulus_gpa": 166.0, "poisson_ratio": 0.23,
            "dimension_source": dimension_source,
        }]}))
        return str(one)

    def test_single_specimen_file_needs_no_id(self, capsys, tmp_path):
        one = self.one_entry(tmp_path, "nominal")
        for dims in ([], ["--dims", "nominal"]):
            code, out = run_cli(capsys, "analytic", "--file", one, *dims)
            assert code == 0
            assert out.startswith("id,")

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_explicit_dims_must_match_single_entry(self, capsys, tmp_path, argv):
        code = run([*argv, "--file", self.one_entry(tmp_path, "measured"), "--dims", "nominal"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "micropull: error: no specimen 'X1' with nominal dimensions"
        ]

    def test_several_specimens_need_id(self, capsys, tmp_path):
        two = tmp_path / "two.json"
        record = {
            "id": "X1", "length_um": 100.0, "width_um": 15.0,
            "thickness_um": 2.0, "gap_um": 5.0,
            "young_modulus_gpa": 166.0, "poisson_ratio": 0.23,
            "dimension_source": "nominal",
        }
        two.write_text(json.dumps({"specimens": [record, {**record, "id": "X2"}]}))
        code = run(["sweep", "--file", str(two), "--vmax", "50"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "micropull: error: --id is required (the specimen set has several entries)"
        ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_empty_specimen_set_is_named(self, capsys, tmp_path, argv):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"specimens": []}))
        code = run([*argv, "--file", str(empty)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.splitlines() == ["micropull: error: the specimen set is empty"]
        code, out = run_cli(capsys, "catalog", "--file", str(empty))
        assert code == 0
        assert out.splitlines() == [",".join(cli._CATALOG_HEADER)]


class TestCompliantCorner:
    """The most compliant beam the specimen file accepts (L = 1 m; w, t and
    g = 1 nm; E = 1 Pa) pulls in near 1.5e-22 V, where its forces are of order
    1e-47 N: the solvers may hold no absolute force floor."""

    MODES = [
        ["--load", "plate", "--model", m, "--coupling", c]
        for m in ("linear", "nonlinear") for c in ("staggered", "monolithic")
    ] + [["--load", "field2d", "--model", m] for m in ("linear", "nonlinear")]

    @pytest.fixture(scope="class")
    def corner(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("corner") / "corner.json"
        path.write_text(json.dumps({"specimens": [{
            "id": "C", "length_um": 1e6, "width_um": 0.001, "thickness_um": 0.001,
            "gap_um": 0.001, "young_modulus_gpa": 1e-9, "poisson_ratio": 0.25,
            "dimension_source": "nominal",
        }]}))
        return str(path)

    def pull_in_v(self, capsys, corner, mode):
        code, out = run_cli(capsys, "pullin", "--file", corner, *mode)
        assert code == 0
        return float(out.splitlines()[1].split(",")[2])

    @pytest.mark.parametrize("mode", MODES, ids=lambda mode: "-".join(mode[1::2]))
    def test_pullin_settles(self, capsys, corner, mode):
        assert 1e-22 < self.pull_in_v(capsys, corner, mode) < 2e-22

    def test_couplings_agree(self, capsys, corner):
        # the staggered stop holds no absolute floor either: lam is about 1e-44 V^2
        # here; abs=0, since approx's default 1e-12 V would pass any two of these
        for plate in (self.MODES[0:2], self.MODES[2:4]):  # staggered, monolithic
            staggered, monolithic = (self.pull_in_v(capsys, corner, mode) for mode in plate)
            assert monolithic == pytest.approx(staggered, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("mode", MODES[:4], ids=lambda mode: "-".join(mode[3::2]))
    def test_sweep_tips_positive(self, capsys, corner, mode):
        code, out = run_cli(
            capsys, "sweep", "--file", corner, *mode, "--vmax", "1e-22", "--steps", "4"
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 4
        assert all(float(row[1]) > 0.0 and row[2] == "true" for row in rows)

    def test_sweep_tips_agree_across_plate_modes(self, capsys, corner):
        tips = []
        for mode in self.MODES[:4]:
            code, out = run_cli(
                capsys, "sweep", "--file", corner, *mode, "--vmax", "1e-22", "--steps", "4"
            )
            assert code == 0
            tips.append([line.split(",")[1] for line in out.splitlines()[1:]])
        assert tips == [tips[0]] * 4


class TestDeterminism:
    def test_sweep_byte_identical_across_processes(self, tmp_path):
        cmd = [
            sys.executable, "-m", "micropull", "sweep", "--id", "ST1-1",
            "--dims", "measured", "--load", "plate", "--vmax", "120", "--steps", "4",
        ]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.decode().startswith("voltage_V,")
