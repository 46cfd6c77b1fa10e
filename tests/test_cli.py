import json
import logging
import math
import re

import numpy as np
import pytest

from conftest import FIXTURES
from vibrot import cli
from vibrot import molecule as mo
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


class TestJsonEmitter:
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
