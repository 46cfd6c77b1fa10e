import json
import logging
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import FIXTURES
from vibrot import cli
from vibrot import molecule as mo
from vibrot import rotor as ro
from vibrot import watson as wa
from vibrot.cli import JobSpec, ParseError, ValidationError, parse_input, run


def write_input(tmp_path, text, name="job.inp"):
    path = tmp_path / name
    path.write_text(text)
    return path


MINIMAL = """
[atoms]
A 1.0 0.0 0.0 0.0
B 1.0 1.1 0.0 0.0

[internal_coordinates]
stretch 1 2

[force_constants]
1.0
"""


class TestParseInput:
    def test_two_mass_fixture_round_trips(self):
        parsed = parse_input(FIXTURES / "twomass.inp")
        mol = parsed.molecule
        assert mol.dimensionality == 1
        assert mol.natoms == 2
        np.testing.assert_allclose(mol.masses, [1.0, 1.0])
        assert all(
            isinstance(c, mo.CartesianDisplacement)
            for c in parsed.internal_coordinates.coords
        )
        np.testing.assert_allclose(
            parsed.force_field.f.entries, [[2.0, -1.0], [-1.0, 2.0]]
        )
        assert parsed.rotor_spec.classification == "asymmetric"
        np.testing.assert_allclose(parsed.initial_conditions.kappa, [0.1, 0.1])

    def test_empty_atoms_rejected(self, tmp_path):
        path = write_input(
            tmp_path,
            "[atoms]\n\n[internal_coordinates]\nstretch 1 2\n\n[force_constants]\n1.0\n",
        )
        with pytest.raises(ValidationError):
            parse_input(path)

    def test_tiny_asymmetry_accepted_and_symmetrized(self, tmp_path, caplog):
        # 1e-12 of the largest entry is below the warning margin; 1e-11 is
        # symmetrized with one logged warning.
        for off_diagonal, warnings in (("-0.9999999999990", 0), ("-0.99999999998", 1)):
            caplog.clear()
            path = write_input(
                tmp_path,
                f"""
[atoms]
A 1.0 0.0 0.0 0.0
B 1.0 1.1 0.0 0.0

[internal_coordinates]
cart 1 x
cart 2 x

[force_constants]
2.0 -1.0
{off_diagonal} 2.0
""",
            )
            with caplog.at_level(logging.WARNING, logger="vibrot.cli"):
                parsed = parse_input(path)
            f = parsed.force_field.f.entries
            assert f[0, 1] == f[1, 0]
            assert [r.levelno for r in caplog.records] == [logging.WARNING] * warnings
            for record in caplog.records:
                assert "symmetrized force constants" in record.getMessage()

    def test_large_asymmetry_rejected(self, tmp_path):
        path = write_input(
            tmp_path,
            """
[atoms]
A 1.0 0.0 0.0 0.0
B 1.0 1.1 0.0 0.0

[internal_coordinates]
cart 1 x
cart 2 x

[force_constants]
2.0 -1.0
-0.9 2.0
""",
        )
        with pytest.raises(ValidationError):
            parse_input(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = write_input(tmp_path, "[atoms]\nA 1.0 0.0 0.0 0.0\n[broken\n")
        with pytest.raises(ParseError) as err:
            parse_input(path)
        assert err.value.line == 3

    def test_not_a_number_reports_line(self, tmp_path):
        path = write_input(tmp_path, MINIMAL.replace("1.1", "one.one"))
        with pytest.raises(ParseError) as err:
            parse_input(path)
        assert "one.one" in str(err.value)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize(
        "section,old",
        [("mass", "A 1.0"), ("coordinate", "1.1"), ("force constant", "\n1.0\n")],
    )
    def test_non_finite_number_rejected_with_line(self, tmp_path, section, old, token):
        new = old.replace("1.0", token) if section != "coordinate" else token
        path = write_input(tmp_path, MINIMAL.replace(old, new))
        with pytest.raises(ParseError) as err:
            parse_input(path)
        lineno = {"mass": 3, "coordinate": 4, "force constant": 10}[section]
        assert err.value.line == lineno
        assert "not a finite number" in str(err.value)

    @pytest.mark.parametrize(
        "section,bad",
        [("[rotor]\na = nan\nb = 2.0\nc = 1.0\n", 13),
         ("[rotor]\na = 3.0\nb = inf\nc = 1.0\n", 14),
         ("[rotor]\na = 3.0 4.0\nb = 2.0\nc = 1.0\n", 13),
         ("[rotor]\na = 3.0\nb =\nc = 1.0\n", 14),
         ("[dynamics]\nkappa = 0.1\nbeta = 0.0\nt_end =\n", 15),
         ("[dynamics]\nkappa = nan\nbeta = 0.0\n", 13),
         ("[dynamics]\nkappa = 0.1\nbeta = -inf\n", 14),
         ("[dynamics]\nkappa = 0.1\nbeta = 0.0\nt_end = inf\n", 15),
         ("[dynamics]\nkappa = 0.1\nbeta = 0.0\nsamples = 2.7\n", 15)],
    )
    def test_bad_rotor_and_dynamics_numbers_rejected(self, tmp_path, section, bad):
        path = write_input(tmp_path, MINIMAL + "\n" + section)
        with pytest.raises(ParseError) as err:
            parse_input(path)
        assert err.value.line == bad

    def test_unknown_coordinate_kind(self, tmp_path):
        path = write_input(
            tmp_path,
            MINIMAL.replace("stretch 1 2", "wiggle 1 2"),
        )
        with pytest.raises(ParseError):
            parse_input(path)

    def test_missing_section(self, tmp_path):
        path = write_input(tmp_path, "[atoms]\nA 1.0 0.0 0.0 0.0\n")
        with pytest.raises(ValidationError):
            parse_input(path)

    def test_unknown_section_rejected_with_line(self, tmp_path):
        path = write_input(tmp_path, MINIMAL + "\n[extras]\nfoo = 1\n")
        with pytest.raises(ParseError) as err:
            parse_input(path)
        assert "[extras]" in str(err.value)

    def test_force_constant_count_checked(self, tmp_path):
        path = write_input(tmp_path, MINIMAL + "0.5\n")
        with pytest.raises(ValidationError):
            parse_input(path)


class TestRun:
    def test_two_mass_modes_report(self, tmp_path):
        job = JobSpec(
            input_path=FIXTURES / "twomass.inp",
            tasks=("modes",),
            output_dir=tmp_path,
            unit_mode="natural",
        )
        assert run(job) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        freqs = report["modes"]["frequencies"]
        assert freqs[0] == pytest.approx(1.0, abs=1e-10)
        assert freqs[1] == pytest.approx(math.sqrt(3.0), abs=1e-10)
        assert (tmp_path / "modes.xyz").exists()

    def test_rotor_only_levels(self, tmp_path):
        job = JobSpec(
            input_path=FIXTURES / "twomass.inp",
            tasks=("rotor",),
            output_dir=tmp_path,
            jmax=2,
        )
        assert run(job) == 0
        text = (tmp_path / "levels.txt").read_text()
        j1 = [l for l in text.splitlines() if re.match(r"\s*1\s", l)]
        energies = sorted(float(l.split()[3]) for l in j1)
        np.testing.assert_allclose(energies, [3.0, 4.0, 5.0], atol=1e-6)
        assert not (tmp_path / "modes.xyz").exists()

    def test_dynamics_trajectory(self, tmp_path):
        job = JobSpec(
            input_path=FIXTURES / "twomass.inp",
            tasks=("dynamics",),
            output_dir=tmp_path,
            unit_mode="natural",
        )
        assert run(job) == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,x1,x2"
        t, x1, x2 = (float(v) for v in lines[-1].split(","))
        assert t == pytest.approx(10.0)
        # symmetric initial displacement stays on the cos(t) mode
        assert x1 == pytest.approx(0.1 * math.cos(10.0), abs=1e-9)
        assert x2 == pytest.approx(x1, abs=1e-12)

    def test_watson_diagnostics_on_water(self, tmp_path):
        job = JobSpec(
            input_path=FIXTURES / "water.inp",
            tasks=("modes", "watson-diagnostics"),
            output_dir=tmp_path,
        )
        assert run(job) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        sr = report["watson"]["sum_rule_residuals"]
        assert sr["rule1"] < 1e-8
        assert sr["rule2"] < 1e-8
        assert report["watson"]["watson_u0"] < 0

    def test_unknown_task_is_usage_error(self):
        with pytest.raises(ValidationError):
            JobSpec(input_path="x", tasks=("modesx",))
        assert cli.main(["analyze", "input", "--tasks", "modesx"]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        job = JobSpec(input_path=tmp_path / "absent.inp", tasks=("modes",),
                      output_dir=tmp_path)
        assert run(job) == 2

    def test_missing_dynamics_section_exit_2_and_outputs_removed(self, tmp_path):
        path = write_input(
            tmp_path,
            """
[atoms]
A 1.0 0.0 0.0 0.0
B 1.0 1.1 0.0 0.0

[internal_coordinates]
cart 1 x
cart 2 x

[force_constants]
1.0
0.0 -1.0
""",
        )
        out = tmp_path / "out"
        job = JobSpec(input_path=path, tasks=("modes", "dynamics"), output_dir=out)
        assert run(job) == 2
        assert not (out / "modes.xyz").exists()
        assert not (out / "report.json").exists()

    def test_unstable_mode_exit_3_and_outputs_removed(self, tmp_path):
        # saddle-point force field: modes solve, the closed form refuses
        path = write_input(
            tmp_path,
            """
[atoms]
A 1.0 0.0 0.0 0.0
B 1.0 1.1 0.0 0.0

[internal_coordinates]
cart 1 x
cart 2 x

[force_constants]
1.0
0.0 -1.0

[dynamics]
kappa = 0.1 0.0
beta = 0.0 0.0
""",
        )
        out = tmp_path / "out"
        job = JobSpec(input_path=path, tasks=("modes", "dynamics"), output_dir=out)
        assert run(job) == 3
        assert not (out / "modes.xyz").exists()
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "edit,code,message",
        [(("[force_constants]\n8.45", "[force_constants]\nnan"), 2,
          "line 13: not a finite number"),
         (("O 15.999 0.0 ", "O 15.999 nan "), 2, "line 3: not a finite number"),
         # J = 1 levels (at most A + B = 1.5e308) are finite; J = 2 overflows
         (("", "\n[rotor]\na = 1e308\nb = 5e307\nc = 1e307\n"), 3,
          "rotor Hamiltonian for J = 2 is not finite")],
        ids=["nan-force-constant", "nan-coordinate", "overflowing-rotor"],
    )
    def test_non_finite_input_or_levels_exit_with_no_outputs(
        self, tmp_path, capsys, edit, code, message
    ):
        text = (FIXTURES / "water.inp").read_text()
        old, new = edit
        assert old in text
        path = write_input(tmp_path, text.replace(old, new, 1) if old else text + new)
        out = tmp_path / "out"
        assert cli.main(
            ["analyze", str(path), "--tasks", "modes,rotor", "--out", str(out),
             "--jmax", "2"]
        ) == code
        assert message in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "option,message",
        [("samples = 0", "samples must be positive"),
         ("samples = 2.7", "samples must be an integer"),
         ("samples = 5 6", "samples must be an integer"),
         ("t_end = -3", "t_end must be positive"),
         ("t_end = 0", "t_end must be positive")],
    )
    def test_dynamics_options_validated(self, tmp_path, capsys, option, message):
        text = (FIXTURES / "twomass.inp").read_text()
        key = option.split()[0]
        lines = [ln for ln in text.splitlines() if not ln.startswith(key)]
        path = write_input(tmp_path, "\n".join(lines) + f"\n{option}\n")
        out = tmp_path / "out"
        assert cli.main(
            ["analyze", str(path), "--tasks", "modes,dynamics", "--out", str(out)]
        ) == 2
        err = capsys.readouterr().err
        assert message in err and f"line {len(lines) + 1}:" in err
        assert not out.exists()

    def test_samples_bounded_by_trajectory_size(self, tmp_path):
        # twomass has 2 coordinates; parsing allocates no trajectory
        text = (FIXTURES / "twomass.inp").read_text()
        limit = cli.TRAJECTORY_VALUES_MAX // 2
        assert "samples = 101" in text
        at = write_input(tmp_path, text.replace("samples = 101", f"samples = {limit}"))
        assert parse_input(at).dynamics_options["samples"] == limit
        over = write_input(
            tmp_path, text.replace("samples = 101", f"samples = {limit + 1}"), "over.inp"
        )
        line = text.splitlines().index("samples = 101") + 1
        with pytest.raises(ValidationError, match=f"line {line}: samples x 2 coordinates"):
            parse_input(over)

    @pytest.mark.parametrize(
        "exc,code",
        [(OSError("disk full"), 2), (cli.QuadformError("singular"), 3)],
        ids=["oserror", "quadform-error"],
    )
    def test_stream_failing_midway_leaves_no_outputs(
        self, tmp_path, monkeypatch, exc, code
    ):
        out = tmp_path / "out"
        opened = []

        def failing_csv(times, states):
            yield "t,x1,x2\n"
            yield "0,0,0\n" * 10_000  # past the write buffer
            opened.append((out / "trajectory.csv").exists())
            raise exc

        monkeypatch.setattr(cli, "_trajectory_csv", failing_csv)
        assert cli.main(
            ["analyze", str(FIXTURES / "twomass.inp"), "--tasks", "modes,dynamics",
             "--out", str(out)]
        ) == code
        assert opened == [True]
        assert not any(out.iterdir())

    def test_watson_job_computes_inertia_derivatives_once(self, tmp_path, monkeypatch):
        calls = []
        original = wa.interaction_coefficients

        def counted(mol, l):
            calls.append(1)
            return original(mol, l)

        monkeypatch.setattr(wa, "interaction_coefficients", counted)
        code = cli.main(
            ["analyze", str(FIXTURES / "water.inp"), "--tasks",
             "modes,watson-diagnostics", "--out", str(tmp_path)]
        )
        assert code == 0 and len(calls) == 1

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            job = JobSpec(
                input_path=FIXTURES / "twomass.inp",
                tasks=("modes", "dynamics", "rotor"),
                output_dir=out,
                unit_mode="natural",
                jmax=3,
            )
            assert run(job) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_report_floats_round_trip_at_printed_precision(self, tmp_path):
        job = JobSpec(
            input_path=FIXTURES / "twomass.inp",
            tasks=("modes",),
            output_dir=tmp_path,
            unit_mode="natural",
        )
        assert run(job) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        parsed = cli.parse_input(FIXTURES / "twomass.inp")
        from vibrot import molecule as mol_mod
        from vibrot import normalmodes as nm

        b = mol_mod.build_b_matrix(parsed.molecule, parsed.internal_coordinates)
        masses = mol_mod.MassMatrix.from_molecule(parsed.molecule)
        g = mol_mod.build_g_matrix(b, masses)
        res = nm.solve(g, parsed.force_field, unit_mode="natural")
        for printed, in_memory in zip(
            report["modes"]["frequencies"], res.frequencies_cm
        ):
            assert printed == float(f"{in_memory:.12e}")

    def test_ill_conditioned_g_keeps_l_orthonormal(self, tmp_path):
        # cond(G) = 1.3e9: l from an explicit G^-1 drifted off orthonormal by
        # 9e-8, and the Watson layer rejected the run with exit 3.
        path = FIXTURES / "illcond8.inp"
        code = cli.main(
            ["analyze", str(path), "--tasks", "modes,watson-diagnostics",
             "--out", str(tmp_path)]
        )
        assert code == 0
        res = cli._solve_modes(parse_input(path), "cm")
        assert np.abs(res.l.T @ res.l - np.eye(res.nmodes)).max() <= 1e-12

    @pytest.mark.parametrize(
        "flag,value",
        [("--frames", "1"), ("--frames", "0"), ("--amplitude", "0"),
         ("--amplitude", "-0.1"), ("--amplitude", "nan"), ("--amplitude", "inf"),
         ("--jmax", "-1")],
    )
    def test_job_options_out_of_range_exit_2(self, tmp_path, capsys, flag, value):
        code = cli.main(
            ["analyze", str(FIXTURES / "water.inp"), "--tasks", "modes,rotor",
             "--out", str(tmp_path), flag, value]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not any(tmp_path.iterdir())

    def test_main_end_to_end(self, tmp_path):
        code = cli.main(
            [
                "analyze",
                str(FIXTURES / "water.inp"),
                "--tasks",
                "modes,rotor,watson-diagnostics",
                "--out",
                str(tmp_path),
                "--jmax",
                "2",
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        # rotor constants derived from the molecular inertia
        assert report["rotor"]["classification"] == "asymmetric"
        assert len(report["modes"]["frequencies"]) == 3


def xyz_per_line(molecule, result, job):
    """modes.xyz written one line at a time, as the bulk writer must match."""
    lines = []
    for i in range(result.nmodes):
        mode = result.cart_displacements[:, i].reshape(molecule.natoms, -1)
        freq = result.frequencies_cm[i]
        for t in range(job.frames):
            s = job.amplitude * math.sin(2.0 * math.pi * t / job.frames)
            lines.append(f"{molecule.natoms}")
            lines.append(f"mode={i} freq={freq:.6f} frame={t}")
            for atom, r0, d in zip(molecule.atoms, molecule.positions, mode):
                xyz = r0.copy()
                xyz[: d.size] += s * d
                lines.append(f"{atom.label} {xyz[0]:.10f} {xyz[1]:.10f} {xyz[2]:.10f}")
    return "\n".join(lines) + "\n"


class TestXyzWriter:
    @pytest.mark.parametrize("fixture", ["water.inp", "twomass.inp"])
    def test_matches_per_line_writer(self, tmp_path, fixture):
        parsed = parse_input(FIXTURES / fixture)
        result = cli._solve_modes(parsed, "cm")
        job = JobSpec(input_path=FIXTURES / fixture, frames=9, amplitude=0.7)
        text = "".join(cli._xyz_frames(parsed.molecule, result, job))
        assert text == xyz_per_line(parsed.molecule, result, job)
        assert text.count("\n") == result.nmodes * 9 * (parsed.molecule.natoms + 2)

    def test_percent_in_label_is_literal(self):
        mol = mo.Molecule.from_lists(["%d%%"], [1.0], [[0.5, 0.0, 0.0]])
        result = SimpleNamespace(nmodes=1, frequencies_cm=np.array([1.0]),
                                 cart_displacements=np.array([[1.0], [0.0], [0.0]]))
        job = JobSpec(input_path="x.inp", frames=2)
        assert "".join(cli._xyz_frames(mol, result, job)) == xyz_per_line(mol, result, job)


def trajectory_csv_per_element(times, states):
    """trajectory.csv formatted one float at a time."""
    n = states.shape[1]
    rows = ["t," + ",".join(f"x{i + 1}" for i in range(n))]
    for t, x in zip(times, states):
        rows.append(",".join([f"{t:.12e}"] + [f"{v:.12e}" for v in x]))
    return "\n".join(rows) + "\n"


class TestTrajectoryWriter:
    SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -1.7976931348623157e308]

    @pytest.mark.parametrize("samples,n", [(7, 4), (5, 1), (1, 3), (1, 1)])
    def test_matches_per_element_writer(self, samples, n):
        rng = np.random.default_rng(samples * 10 + n)
        states = rng.normal(size=(samples, n)) * 10.0 ** rng.integers(-300, 300, (samples, n))
        flat = states.reshape(-1)
        flat[: len(self.SPECIAL)] = self.SPECIAL[: flat.size]
        times = np.linspace(0.0, 3.5, samples)
        times[0] = -0.0
        text = "".join(cli._trajectory_csv(times, states))
        assert text == trajectory_csv_per_element(times, states)
        assert text.count("\n") == samples + 1


def json_per_element(seq, indent):
    """A list emitted element by element, the path every non-float list takes."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    items = [inner + cli.emit_json(v, indent + 1) for v in seq]
    return "[\n" + ",\n".join(items) + "\n" + pad + "]"


class TestJsonEmitter:
    @pytest.mark.parametrize(
        "seq",
        [[1.5, -0.0, 0.0, 5e-324, -1.7976931348623157e308, 1e-300],
         list(np.random.default_rng(3).normal(size=50) * 1e10),
         [np.float64(-0.0), 2.0, np.float64(1e-20)],
         [1.0, float("nan"), 2.0],
         [float("inf"), 1.0],
         [1.0, float("-inf")],
         [0.5, 1, np.float64(2.0)],
         [True, 1.0],
         [1.0, False],
         [np.int64(3), 2.5],
         [2.5, {"a": 1.0}],
         [2.5, [1.0, 2.0]]],
    )
    @pytest.mark.parametrize("indent", [0, 3])
    def test_float_lists_match_element_path(self, seq, indent):
        assert cli.emit_json(seq, indent) == json_per_element(seq, indent)
        assert cli.emit_json(tuple(seq), indent) == json_per_element(seq, indent)

    def test_float_array_matches_element_path(self):
        arr = np.array([[-0.0, 1.25e-7], [3.0, -4.5e300]])
        assert cli.emit_json(arr, 1) == json_per_element(list(arr), 1)
        assert cli.emit_json(arr[0]) == json_per_element(list(arr[0]), 0)

    def test_fixed_float_format(self):
        assert cli.emit_json(1.0) == "1.000000000000e+00"
        assert cli.emit_json(float("inf")) == '"inf"'

    def test_nested_order_stable(self):
        obj = {"b": [1, 2.5], "a": {"x": None, "y": True}}
        expected = (
            '{\n  "b": [\n    1,\n    2.500000000000e+00\n  ],\n'
            '  "a": {\n    "x": null,\n    "y": true\n  }\n}'
        )
        assert cli.emit_json(obj) == expected


def json_escape_per_char(s):
    out = []
    for ch in s:
        if ch in '"\\':
            out.append("\\" + ch)
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return '"' + "".join(out) + '"'


def emit_json_per_element(obj, indent=0):
    """report.json text built one element and one key at a time."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json_escape_per_char(str(k))}: {emit_json_per_element(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        if not len(obj):
            return "[]"
        items = [f"{inner}{emit_json_per_element(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        if math.isnan(x):
            return '"nan"'
        return f"{x:.12e}"
    if obj is None:
        return "null"
    return json_escape_per_char(str(obj))


def levels_text_per_line(spec, levels):
    lines = [
        f"# rotor: A={spec.a_const:.6f} B={spec.b_const:.6f} C={spec.c_const:.6f} "
        f"({spec.classification})",
        "#   J  parity  index        E(cm-1)  degeneracy",
    ]
    for lv in levels:
        lines.append(
            f"{lv.j:5d}  {lv.parity_class:>6s}  {lv.index:5d} {lv.energy:14.6f}  {lv.degeneracy:10d}"
        )
    return "\n".join(lines) + "\n"


def assert_same_text(got, want):
    """Byte equality, reported by the first differing line (pytest's full diff
    of two long texts takes minutes)."""
    if got != want:
        pairs = zip(got.splitlines(keepends=True), want.splitlines(keepends=True))
        first = next(
            ((i, g, w) for i, (g, w) in enumerate(pairs) if g != w),
            ("lengths", len(got), len(want)),
        )
        pytest.fail(f"texts differ, first at line {first}")


class TestRotorWriters:
    ODD = 'q"\\\x01\x1f\x7f é%s'  # quote, backslash, control, DEL, non-ASCII, %

    def rotor_output(self):
        spec = ro.classify(27.88, 14.51, 9.28)
        levels = ro.asymmetric_levels(spec, 40) + [
            ro.RotorLevel(41, self.ODD, 0, -0.0, 83),
            ro.RotorLevel(41, "E+", 1, math.inf, 83),
            ro.RotorLevel(41, "O-", 2, math.nan, 83),
        ]
        report = {
            "input": self.ODD,
            "rotor": {
                "constants": {"a": spec.a_const, "b": np.float64(spec.b_const), "c": 1e-300},
                "classification": spec.classification,
                "jmax": 40,
                "levels": [
                    {"j": lv.j, "parity": lv.parity_class, "index": lv.index,
                     "energy": lv.energy, "degeneracy": lv.degeneracy}
                    for lv in levels
                ],
            },
            self.ODD: {self.ODD: [1.0, self.ODD], "flag": True, "none": None,
                       "big": 10**30, "n": np.int64(-3), "e": {}, "l": []},
            3: -math.inf,
        }
        return spec, levels, report

    def test_emit_json_matches_per_element_writer(self):
        _, _, report = self.rotor_output()
        text = cli.emit_json(report)
        assert_same_text(text, emit_json_per_element(report))
        assert json.loads(text)[self.ODD][self.ODD][1] == self.ODD

    def test_levels_text_matches_per_line_writer(self):
        spec, levels, _ = self.rotor_output()
        assert_same_text(cli._levels_text(spec, levels), levels_text_per_line(spec, levels))

    def test_escape_matches_per_char_loop(self):
        for s in ("", "plain", 'say "hi"', "a\\b", "tab\t", self.ODD,
                  "".join(map(chr, range(0x90)))):
            assert cli._json_escape(s) == json_escape_per_char(s)
