import dataclasses
import itertools
import json
import logging
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, levels_by_tuple_sort
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
         ("[dynamics]\nkappa = 0.1\nbeta = 0.0\nsamples = 2.7\n", 15),
         ("[dynamics]\nkappa = 0.1\nbeta = 0.0\nsample = 7\n", 15),
         ("[dynamics]\nkappa = 0.1\nbeta = 0.0\nkappa = 0.2\n", 15),
         ("[rotor]\na = 3.0\na = 9.0\nb = 2.0\nc = 1.0\n", 14),
         ("[rotor]\na = 3.0\nb = 2.0\nc = 1.0\nd = 0.5\n", 16),
         ("[molecule]\ndimension = 3\n", 13),
         ("[molecule]\ndimensionality = 3\ndimensionality = 1\n", 14)],
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
        assert sr["rule3"] < 1e-8
        assert report["watson"]["watson_u0"] < 0

    def test_unknown_task_is_usage_error(self):
        with pytest.raises(ValidationError):
            JobSpec(input_path="x", tasks=("modesx",))
        assert cli.main(["analyze", "input", "--tasks", "modesx"]) == 2

    def test_unknown_unit_mode_is_usage_error(self):
        with pytest.raises(ValidationError, match="unit mode must be one of natural, cm"):
            JobSpec(input_path="x", unit_mode="spectroscopic")

    def test_jmax_bounded_by_level_count(self, tmp_path, capsys):
        # (jmax + 1)^2 levels: 999 is the largest jmax within ROTOR_LEVELS_MAX.
        # No job runs: the bound is checked before the input is read.
        assert cli.ROTOR_LEVELS_MAX == 1000**2
        JobSpec(input_path="x", tasks=("rotor",), jmax=999)
        with pytest.raises(ValidationError, match="ROTOR_LEVELS_MAX = 1000000"):
            JobSpec(input_path="x", tasks=("rotor",), jmax=1000)
        absent = str(tmp_path / "absent.inp")
        for jmax, message in (("999", "cannot read"), ("1000", "1002001 rotor levels")):
            code = cli.main(["analyze", absent, "--tasks", "rotor", "--jmax", jmax,
                             "--out", str(tmp_path)])
            assert code == 2
            assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_frames_bounded_by_xyz_size(self, tmp_path, monkeypatch, capsys):
        # water: 3 atoms and 3 modes, so 27 modes.xyz values a frame; a
        # rejected frame count allocates nothing
        args = ["analyze", str(FIXTURES / "water.inp"), "--tasks", "modes", "--out", str(tmp_path)]
        assert cli.main(args + ["--frames", str(10**12)]) == 2
        assert "XYZ_VALUES_MAX" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())
        monkeypatch.setattr(cli, "XYZ_VALUES_MAX", 27 * 20)
        assert cli.main(args + ["--frames", "21"]) == 2
        assert not any(tmp_path.iterdir())
        assert cli.main(args + ["--frames", "20"]) == 0
        assert (tmp_path / "modes.xyz").exists()
        # the bound holds only where modes.xyz is written
        args[3] = "rotor"
        assert cli.main(args + ["--frames", "21"]) == 0

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

    @pytest.mark.parametrize(
        "header,atoms,tasks,message",
        [("", MINIMAL, "modes,dynamics", "requires a [dynamics] section"),
         ("[molecule]\ndimensionality = 2\n", MINIMAL, "modes,watson-diagnostics",
          "requires a 3-dimensional molecule"),
         ("", MINIMAL, "modes,watson-diagnostics", "requires a nonlinear molecule"),
         ("", "[atoms]\nX 1.0 0.0 0.0 0.0\n[internal_coordinates]\ncart 1 x\n"
          "[force_constants]\n1.0\n", "modes,rotor", "inertia is degenerate"),
         # off the origin, the centre-of-mass shift leaves moments of 4e-32
         ("", "[atoms]\nX 12.0 0.4 -1.0 2.0\n[internal_coordinates]\ncart 1 x\n"
          "[force_constants]\n1.0\n", "modes,rotor", "inertia is degenerate")],
        ids=["no-dynamics-section", "planar-watson", "linear-watson", "point-rotor",
             "offset-point-rotor"],
    )
    def test_task_preconditions_checked_before_solve_or_write(
        self, tmp_path, monkeypatch, capsys, header, atoms, tasks, message
    ):
        def reached(*args):
            raise cli.QuadformError("the job went past its precondition checks")

        monkeypatch.setattr(cli, "_solve_modes", reached)
        monkeypatch.setattr(cli, "_xyz_frames", reached)
        path = write_input(tmp_path, header + atoms)
        out = tmp_path / "out"
        assert cli.main(["analyze", str(path), "--tasks", tasks, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

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

    # A finite but huge force constant or initial displacement overflows in
    # the solve or the energy; neither may be written as nan or inf, and no
    # numpy warning reaches stderr.  A huge coupling alone is symmetrized
    # without overflow, and the dynamics refuses its indefinite F.
    @pytest.mark.parametrize(
        "old,new,message",
        [("-1.0 2.0", "1e308 1.7e308", "the GF solve gave non-finite eigenvalues or modes"),
         ("-1.0 2.0", "1e308 2.0", "lambda = -1.000e+308 < 0"),
         ("kappa = 0.1 0.1", "kappa = 1e200 1e200", "the trajectory or its energy is not finite")],
        ids=["overflowing-solve", "overflowing-coupling", "overflowing-energy"],
    )
    def test_overflow_exits_3_with_no_outputs(self, tmp_path, capsys, old, new, message):
        text = (FIXTURES / "twomass.inp").read_text()
        assert old in text
        path = write_input(tmp_path, text.replace(old, new, 1))
        out = tmp_path / "out"
        code = cli.main(["analyze", str(path), "--tasks", "modes,dynamics", "--out", str(out)])
        assert code == 3
        assert message in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_rotor_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # The Wang blocks are tridiagonal already, so eigvalsh's reduction to
        # tridiagonal form is exact and the levels cannot depend on how BLAS
        # splits the work.
        src = str(Path(cli.__file__).parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            subprocess.run(
                [sys.executable, "-m", "vibrot.cli", "analyze", str(FIXTURES / "water.inp"),
                 "--tasks", "rotor", "--jmax", "60", "--out", str(out)],
                env=env, check=True, timeout=120,
            )
            outputs.append([(out / name).read_bytes() for name in ("report.json", "levels.txt")])
        assert outputs[0] == outputs[1]
        assert outputs[0][1].count(b"\n") == 2 + 61**2

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
            yield b"t,x1,x2\n"
            yield b"0,0,0\n" * 10_000  # past the write buffer
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

    def test_watson_rotor_job_makes_two_eighs(self, tmp_path, monkeypatch):
        # one of I0 for the equilibrium frame, read by every layer, and one
        # of W in the GF solve
        calls = []
        original = np.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        code = cli.main(
            ["analyze", str(FIXTURES / "water.inp"), "--tasks",
             "modes,watson-diagnostics,rotor", "--out", str(tmp_path)]
        )
        assert code == 0 and len(calls) == 2

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
        text = b"".join(cli._xyz_frames(parsed.molecule, result, job)).decode()
        assert text == xyz_per_line(parsed.molecule, result, job)
        assert text.count("\n") == result.nmodes * 9 * (parsed.molecule.natoms + 2)

    def test_percent_in_label_is_literal(self):
        mol = mo.Molecule.from_lists(["%d%%"], [1.0], [[0.5, 0.0, 0.0]])
        result = SimpleNamespace(nmodes=1, frequencies_cm=np.array([1.0]),
                                 cart_displacements=np.array([[1.0], [0.0], [0.0]]))
        job = JobSpec(input_path="x.inp", frames=2)
        text = b"".join(cli._xyz_frames(mol, result, job)).decode()
        assert text == xyz_per_line(mol, result, job)

    # FORMAT_BLOCK_VALUES = 36 holds 2 modes of 3 atoms at 2 frames a mode;
    # at 5 frames (45 values) one mode spans two blocks.
    @pytest.mark.parametrize("nmodes,frames", [(1, 2), (2, 2), (3, 2), (2, 5)])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_per_line_writer_at_block_edges(self, monkeypatch, nmodes, frames, dim):
        monkeypatch.setattr(cli, "FORMAT_BLOCK_VALUES", 36)
        rng = np.random.default_rng(nmodes * 100 + frames * 10 + dim)
        positions = rng.normal(size=(3, 3)) * 10.0 ** rng.integers(-3, 4, (3, 3))
        mol = mo.Molecule.from_lists(
            ["%d%%", "\u00d6", "a\x00b"], [1.0, 2.0, 3.0], positions, dimensionality=dim
        )
        result = SimpleNamespace(
            nmodes=nmodes, frequencies_cm=rng.normal(size=nmodes) * 1e3,
            cart_displacements=rng.normal(size=(mol.ncart, nmodes)),
        )
        job = JobSpec(input_path="x.inp", frames=frames, amplitude=0.4)
        text = b"".join(cli._xyz_frames(mol, result, job)).decode()
        assert text == xyz_per_line(mol, result, job)
        assert text.count("\n") == nmodes * frames * 5


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
        text = b"".join(cli._trajectory_csv(times, states)).decode()
        assert text == trajectory_csv_per_element(times, states)
        assert text.count("\n") == samples + 1

    # 4 columns (t, x1..x3) and FORMAT_BLOCK_VALUES = 12: blocks of 3 rows
    @pytest.mark.parametrize("samples", [1, 2, 3, 4, 7])
    def test_matches_per_element_writer_at_block_edges(self, monkeypatch, samples):
        monkeypatch.setattr(cli, "FORMAT_BLOCK_VALUES", 12)
        rng = np.random.default_rng(samples)
        states = rng.normal(size=(samples, 3)) * 10.0 ** rng.integers(-40, 20, (samples, 3))
        states.reshape(-1)[::5] = np.resize(self.SPECIAL, states.reshape(-1)[::5].size)
        times = np.linspace(0.0, 2.0, samples)
        text = b"".join(cli._trajectory_csv(times, states)).decode()
        assert text == trajectory_csv_per_element(times, states)


def formatted_per_cell(values, convs, seps):
    """Rows of a table formatted one value at a time with the % operator, or
    by indexing a column's label tuple."""
    def cell(conv, v):
        return conv[int(v)] if isinstance(conv, tuple) else conv % v

    return ["".join(cell(conv, v) + sep for v, conv, sep in zip(row, convs, seps))
            for row in values.tolist()]


def table_rows(values, convs, seps):
    """The rows of cli._format_table, decoded."""
    return [row.decode() for row in cli._format_table(values, convs, seps)]


CONVERSIONS = ("%.12e", "%.10f", "%14.6f")
INT_CONVERSIONS = ("%d", "%5d", "%10d")
LABELS = ("E+", "\u00d6%s", "", "a\x00b\"")


class TestExactFormatter:
    # Exact decimal ties: both neighbours are equally near, % rounds half to even.
    TIES = {
        "%.12e": [1234567890123.5, 1234567890124.5, -9999999999999.5, 1000000000000.5],
        "%.10f": [2.0**-11, 3 * 2.0**-11, -(1 + 2.0**-11), 9999.00048828125],
        "%14.6f": [2.0**-7, 3 * 2.0**-7, -(1 + 2.0**-7), 1234567 + 2.0**-7],
    }
    # Two-product scalings (|x| < 1e-10) that land on the wrong side of a
    # half-integer: only the spacing margin sends them to the % fallback.
    NEAR_TIES = [3.3608200639765e-24, 3.8506434990125e-18, 1.0524213559715e-18,
                 4.3092961272105e-24, 8.1202055335555e-12, 3.7807137916805e-21]
    EDGES = [
        9.9999999999995, 9999.99999999995, 99999.9999999995, 1e-100, -1e200, 5e-324,
        -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.0, -0.0,
        math.nan, math.inf, -math.inf, 1.5, -0.25, 5e-11, 1.5e-10, 2.5e-10,
        # the exact-scaling ranges: 10^k for k <= 22 in one product, down to
        # |x| = 1e-32 in two, integer parts below 10^4 for %.10f
        1e13, np.nextafter(1e13, 0.0), 1e12, 1e-10, np.nextafter(1e-10, 0.0), 1e-9,
        1e-32, np.nextafter(1e-32, 0.0), 1e-33, 1e4, np.nextafter(1e4, 0.0), 9999.5,
        # %14.6f: 14 characters hold integer parts below 10^7; signed values take %
        1e7, np.nextafter(1e7, 0.0), 9999999.9999995, 9999999.999999, -1e6,
        np.nextafter(-1e6, 0.0), -999999.9999995, -999999.999999, 1e17, -1e17, 1e18,
        -1e-7, 4.9999995e-7, 123456.5,
    ]
    INTEGERS = [0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10000, 12345, 10**15, 2.0**53, -1,
                -9999, -10**12, -0.0, 2.5, 9999.5, -0.5]

    @pytest.mark.parametrize("conv", CONVERSIONS)
    def test_edges_match_percent(self, conv):
        values = np.array([self.TIES[conv] + self.NEAR_TIES + self.EDGES]).T
        assert table_rows(values, [conv], ["\n"]) == formatted_per_cell(
            values, [conv], ["\n"]
        )

    @pytest.mark.parametrize("conv", CONVERSIONS)
    def test_ties_take_the_percent_fallback(self, conv):
        near = self.NEAR_TIES if conv == "%.12e" else []
        _, _, exact = cli._rounded_digits(np.array(self.TIES[conv] + near), conv)
        assert not exact.any()
        plain = [1.5, -0.25, 0.0, -0.0, 3e-20]
        _, _, exact = cli._rounded_digits(np.array(plain), conv)
        # %14.6f leaves every signed value, -0.0 too, to the fallback
        assert exact.tolist() == [conv != "%14.6f" or math.copysign(1, v) > 0 for v in plain]

    @pytest.mark.parametrize("conv", INT_CONVERSIONS)
    def test_integer_columns_match_percent(self, conv):
        values = np.array([self.INTEGERS]).T
        assert table_rows(values, [conv], [";"]) == formatted_per_cell(
            values, [conv], [";"]
        )
        _, exact = cli._cell_words(values.reshape(-1), conv)
        assert exact.tolist() == [0 <= v < 10_000 and v == int(v) for v in self.INTEGERS]

    # 8 columns: FORMAT_BLOCK_VALUES = 8 puts one row in a block, 17 two
    @pytest.mark.parametrize("block", [8, 17, 1 << 14])
    def test_mixed_columns_match_per_cell(self, monkeypatch, block):
        # wide fallback texts (1e300 in %.10f and %14.6f, 10^15 in %d) next to
        # table cells, across rows and columns of every kind
        monkeypatch.setattr(cli, "FORMAT_BLOCK_VALUES", block)
        rng = np.random.default_rng(7)
        rows = 9
        convs = ["%5d", LABELS, "%.10f", "%14.6f", "%.12e", "%d", "%10d", "%14.6f"]
        values = np.column_stack([
            rng.integers(0, 12_000, rows), rng.integers(0, len(LABELS), rows),
            rng.normal(size=rows) * 10.0 ** rng.integers(-3, 12, rows),
            rng.normal(size=rows) * 10.0 ** rng.integers(-8, 9, rows),
            rng.normal(size=rows), rng.integers(0, 10**5, rows),
            rng.integers(0, 10**4, rows), rng.normal(size=rows) * 1e5,
        ]).astype(float)
        values[2, 2:5] = 1e300
        values[5, [0, 5, 6]] = 10**15
        values[7, 3] = -math.inf
        seps = [" ", "\u00d6", "", ",\n  \"x\": ", "%s", "\x00", "\n", "|"]
        assert table_rows(values, convs, seps) == formatted_per_cell(
            values, convs, seps
        )
        text = b"".join(cli._format_blocks(values, convs, seps)).decode()
        assert text == "".join(formatted_per_cell(values, convs, seps))

    @settings(max_examples=300)
    @given(st.lists(st.floats(), min_size=1, max_size=12), st.sampled_from(CONVERSIONS))
    def test_matches_percent_on_any_double(self, row, conv):
        values = np.array([row])
        seps = [",", "\u00d6\x00"] * 6
        assert table_rows(values, [conv] * len(row), seps[: len(row)]) == (
            formatted_per_cell(values, [conv] * len(row), seps)
        )

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.integers(-10**16, 10**16), st.sampled_from(INT_CONVERSIONS)),
                    min_size=1, max_size=8))
    def test_matches_percent_on_any_integer(self, cells):
        values = np.array([[float(v) for v, _ in cells]])
        convs = [conv for _, conv in cells]
        seps = [" "] * len(cells)
        assert table_rows(values, convs, seps) == formatted_per_cell(
            values, convs, seps
        )


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

    @pytest.mark.parametrize(
        "obj",
        [np.array([1.0, np.nan, -0.0]),
         np.array([np.inf, -2.5e-300]),
         np.array([-np.inf]),
         np.array([-0.0, 0.0, 5e-324, -1.7976931348623157e308]),
         np.array([]),
         np.array([0.1]),
         np.array([[1.0, -0.0], [np.nan, 3.0]]),
         np.arange(24.0).reshape(2, 3, 4) - 11.5,
         np.zeros((3, 0, 0)),
         np.array([3, -1, 0]),
         np.array([1.5, np.inf, 0.1], dtype=np.float32),
         [np.float64(-0.0), np.float64(0.25), np.float64(1e20)]],
    )
    @pytest.mark.parametrize("indent", [0, 3])
    def test_arrays_match_per_element_emitter(self, obj, indent):
        assert cli.emit_json(obj, indent) == emit_json_per_element(obj, indent)

    @pytest.mark.parametrize("shape", [(7,), (3, 4), (3, 4, 2), (1, 1, 9)])
    def test_arrays_across_format_blocks(self, monkeypatch, shape):
        monkeypatch.setattr(cli, "FORMAT_BLOCK_VALUES", 5)
        rng = np.random.default_rng(len(shape))
        arr = rng.normal(size=shape) * 10.0 ** rng.integers(-40, 40, shape)
        assert cli.emit_json(arr, 2) == emit_json_per_element(arr, 2)

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


# One entry of report.json's level list, as the % template that wrote it
# before the level list came from the vectorized formatter.
LEVEL_JSON = (
    '      {\n        "j": %d,\n        "parity": "%s",\n        "index": %d,\n'
    '        "energy": %.12e,\n        "degeneracy": %d\n      }'
)


def assert_level_writers_match_templates(spec, levels):
    """levels.txt against the per-line writer, and report.json's level list
    against LEVEL_JSON, one level at a time."""
    assert_same_text(b"".join(cli._levels_text(spec, levels)).decode(),
                     levels_text_per_line(spec, levels))
    entries = [LEVEL_JSON % (lv.j, lv.parity_class, lv.index, lv.energy, lv.degeneracy)
               for lv in levels]
    want = (emit_json_per_element({"rotor": {"jmax": 1}})[: -len("\n  }\n}")]
            + ',\n    "levels": [\n' + ",\n".join(entries) + "\n    ]\n  }\n}")
    report = {"rotor": {"jmax": 1, "levels": levels}}
    assert_same_text(b"".join(cli._json_chunks(report, 0)).decode(), want)


def level_dict(lv):
    return {"j": lv.j, "parity": lv.parity_class, "index": lv.index,
            "energy": lv.energy, "degeneracy": lv.degeneracy}


class TestRotorWriters:
    ODD = 'q"\\\x01\x1f\x7f é%s'  # quote, backslash, control, DEL, non-ASCII, %

    ROTORS = {
        "asymmetric": (27.88, 14.51, 9.28),
        "prolate": (6.4, 1.9, 1.9),
        "oblate": (3.1, 3.1, 1.2),
        "spherical": (2.5, 2.5, 2.5),  # every level of a J ties: checks the tie order
    }

    def odd_levels(self):
        """Levels no rotor produces: an escaped label and non-finite energies."""
        return [
            ro.RotorLevel(41, self.ODD, 0, -0.0, 83),
            ro.RotorLevel(41, "E+", 1, math.inf, 83),
            ro.RotorLevel(41, "O-", 2, math.nan, 83),
        ]

    def rotor_output(self):
        """A rotor report whose odd levels take emit_json's generic path."""
        spec = ro.classify(27.88, 14.51, 9.28)
        levels = list(ro.asymmetric_levels(spec, 40)) + self.odd_levels()
        report = {
            "input": self.ODD,
            "rotor": {
                "constants": {"a": spec.a_const, "b": np.float64(spec.b_const), "c": 1e-300},
                "classification": spec.classification,
                "jmax": 40,
                "levels": [level_dict(lv) for lv in levels],
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
        spec = ro.classify(27.88, 14.51, 9.28)
        levels = ro.asymmetric_levels(spec, 40)
        energies = [-0.0, math.inf, math.nan]
        levels = ro.RotorLevels(*(np.append(a, b) for a, b in zip(
            (levels.j, levels.code, levels.index, levels.energy),
            ([41] * 3, np.int8([0, 0, 3]), [0, 1, 2], energies))))
        assert_same_text(b"".join(cli._levels_text(spec, levels)).decode(),
                         levels_text_per_line(spec, levels))

    # jmax 0 and 1 have empty E- blocks; FORMAT_BLOCK_VALUES = 5 puts one
    # level in a block, 10 two and 15 three (5 values a level).
    @pytest.mark.parametrize("block", [5, 10, 15, 10**6])
    @pytest.mark.parametrize("jmax", [0, 1, 2, 3])
    def test_level_writers_at_block_edges(self, monkeypatch, block, jmax):
        monkeypatch.setattr(cli, "FORMAT_BLOCK_VALUES", block)
        spec = ro.classify(27.88, 14.51, 9.28)
        levels = ro.asymmetric_levels(spec, jmax)
        assert len(levels) == (jmax + 1) ** 2
        assert_level_writers_match_templates(spec, levels)

    # Energies no rotor produces: signed zero, non-finite, wider than %14.6f's
    # 14 characters, and %14.6f ties.
    ODD_ENERGIES = [-0.0, math.inf, -math.inf, math.nan, 1e7, 9999999.9999995, -1e6,
                    -999999.9999995, 1.7976931348623157e308, -5e-324, 2.0**-7, 123456.5,
                    -9999999.25, 1e22, 0.0, 12.5]

    def test_level_writers_on_odd_energies(self, monkeypatch):
        monkeypatch.setattr(cli, "FORMAT_BLOCK_VALUES", 20)
        spec = ro.classify(27.88, 14.51, 9.28)
        levels = ro.asymmetric_levels(spec, 3)
        levels = dataclasses.replace(levels, energy=np.array(self.ODD_ENERGIES))
        assert_level_writers_match_templates(spec, levels)

    @settings(max_examples=100)
    @given(st.lists(st.floats(), min_size=9, max_size=9),
           st.lists(st.integers(0, 10**6), min_size=9, max_size=9))
    def test_level_writers_on_drawn_energies(self, energies, indices):
        spec = ro.classify(27.88, 14.51, 9.28)
        levels = ro.asymmetric_levels(spec, 2)
        levels = dataclasses.replace(levels, energy=np.array(energies), index=np.array(indices))
        assert_level_writers_match_templates(spec, levels)

    @pytest.mark.parametrize("abc", ROTORS.values(), ids=ROTORS)
    def test_rotor_files_match_per_level_writers(self, tmp_path, abc):
        path = write_input(tmp_path, MINIMAL + "[rotor]\na = %r\nb = %r\nc = %r\n" % abc)
        code = cli.main(["analyze", str(path), "--tasks", "rotor", "--jmax", "40",
                         "--out", str(tmp_path)])
        assert code == 0
        spec = ro.classify(*abc)
        levels = levels_by_tuple_sort(spec, 40)
        if spec.classification == "spherical":
            assert all(len({lv.energy for lv in levels if lv.j == j}) == 1 for j in range(41))
        report = {
            "input": path.name,
            "tasks": ["rotor"],
            "unit_mode": "cm",
            "rotor": {
                "constants": {"a": spec.a_const, "b": spec.b_const, "c": spec.c_const},
                "classification": spec.classification,
                "jmax": 40,
                "levels": [level_dict(lv) for lv in levels],
            },
        }
        assert_same_text((tmp_path / "report.json").read_text(),
                         emit_json_per_element(report) + "\n")
        assert_same_text((tmp_path / "levels.txt").read_text(),
                         levels_text_per_line(spec, levels))

    def test_escape_matches_per_char_loop(self):
        for s in ("", "plain", 'say "hi"', "a\\b", "tab\t", self.ODD,
                  "".join(map(chr, range(0x90)))):
            assert cli._json_escape(s) == json_escape_per_char(s)


# -- the command-line contract under drawn inputs ------------------------------

CHAIN_ATOMS = (("C", 12.0), ("N", 14.003074), ("O", 15.994915), ("F", 18.998403),
               ("S", 31.972071))
EXTREME_NUMBERS = ("1e308", "-1e308", "1e200", "-1e200", "1e-300", "5e-324", "0", "-0.0",
                   "1e16", "1e999", "nan", "inf")
# (kind, two indices taken modulo the line or token count, a replacement number)
MUTATIONS = st.tuples(st.sampled_from(("delete", "swap", "extreme")), st.integers(0, 10**6),
                      st.integers(0, 10**6), st.sampled_from(EXTREME_NUMBERS))
# the string fields of report.json; every other string is a non-finite float
REPORT_LABELS = ("input", "tasks", "unit_mode", "classification", "parity")


def chain_input(natoms, seed, dynamics, rotor):
    """A valid Z-matrix chain: atom k is bonded to k-1, bent at k-1 against k-2
    and twisted about (k-2, k-1) against k-3, which gives the 3N-6 coordinates of
    a nonlinear molecule.  Each coordinate couples to its list neighbours by at
    most a tenth of their diagonal entries' geometric mean, so F > 0."""
    rng = np.random.default_rng(seed)
    bonds = rng.uniform(1.3, 1.6, natoms)
    angles = np.radians(rng.uniform(100.0, 130.0, natoms))
    dihedrals = np.radians(rng.choice([180.0, 60.0, -60.0], natoms) + rng.normal(0.0, 10.0, natoms))
    pos = np.zeros((natoms, 3))
    pos[1, 0] = bonds[1]
    pos[2] = pos[1] + bonds[2] * np.array([-math.cos(angles[2]), math.sin(angles[2]), 0.0])
    for k in range(3, natoms):
        a, b, c = pos[k - 3 : k]
        bc = (c - b) / np.linalg.norm(c - b)
        n = np.cross(b - a, bc)
        n /= np.linalg.norm(n)
        t, p = angles[k], dihedrals[k]
        pos[k] = c + bonds[k] * (-math.cos(t) * bc + math.sin(t)
                                 * (math.cos(p) * np.cross(n, bc) + math.sin(p) * n))
    coords = []
    for k in range(2, natoms + 1):
        coords.append(f"stretch {k - 1} {k}")
        if k >= 3:
            coords.append(f"bend {k - 2} {k - 1} {k}")
        if k >= 4:
            coords.append(f"torsion {k - 3} {k - 2} {k - 1} {k}")
    n = len(coords)
    diag = rng.uniform(0.5, 8.0, n)
    off = rng.uniform(-0.1, 0.1, n - 1) * np.sqrt(diag[:-1] * diag[1:])
    lines = ["[molecule]", "dimensionality = 3", "[atoms]"]
    for k, p in zip(rng.integers(len(CHAIN_ATOMS), size=natoms), pos):
        lines.append("%s %r %.10f %.10f %.10f" % (*CHAIN_ATOMS[k], *p))
    lines += ["[internal_coordinates]", *coords, "[force_constants]", f"{diag[0]:.6f}"]
    lines += [" ".join(["0"] * (i - 1) + [f"{off[i - 1]:.6f}", f"{diag[i]:.6f}"])
              for i in range(1, n)]
    if dynamics:
        lines += ["[dynamics]",
                  "kappa = " + " ".join(f"{v:.6f}" for v in rng.uniform(-0.02, 0.02, n)),
                  "beta = " + " ".join(f"{v:.6f}" for v in rng.uniform(-0.01, 0.01, n)),
                  "t_end = 10.0", "samples = 11"]
    if rotor:
        lines += ["[rotor]"] + [f"{k} = {v:.6f}" for k, v in
                                zip("abc", sorted(rng.uniform(0.5, 10.0, 3), reverse=True))]
    return "\n".join(lines) + "\n"


def mutate(text, mutations):
    """Apply (kind, i, j, number) edits: delete line i, swap tokens i and j,
    or put the number in place of numeric token i."""
    rows = [line.split() for line in text.splitlines()]
    for kind, i, j, number in mutations:
        if kind == "delete":
            del rows[i % len(rows)]
            continue
        tokens = [(r, c) for r, row in enumerate(rows) for c, tok in enumerate(row)
                  if kind == "swap" or re.fullmatch(r"[-+0-9.e]+", tok)]
        (r1, c1), (r2, c2) = tokens[i % len(tokens)], tokens[j % len(tokens)]
        if kind == "swap":
            rows[r1][c1], rows[r2][c2] = rows[r2][c2], rows[r1][c1]
        else:
            rows[r1][c1] = number
    return "".join(" ".join(row) + "\n" for row in rows)


def output_numbers(path):
    """The numbers an output file holds, read by its format.  Labels, which
    may spell inf or nan, are skipped."""
    lines = path.read_text().splitlines()
    if path.name == "report.json":
        def walk(obj, key):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    yield from walk(v, k)
            elif isinstance(obj, list):
                for v in obj:
                    yield from walk(v, key)
            elif obj is not None and not (isinstance(obj, str) and key in REPORT_LABELS):
                yield float(obj)  # emit_json writes a non-finite float as a string

        return list(walk(json.loads("\n".join(lines)), None))
    if path.name == "trajectory.csv":
        return [float(v) for line in lines[1:] for v in line.split(",")]
    if path.name == "levels.txt":
        header = [float(w.split("=")[1]) for w in lines[0].split() if "=" in w]
        return header + [float(v) for line in lines[2:]
                         for k, v in enumerate(line.split()) if k != 1]
    assert path.name == "modes.xyz"
    natoms = int(lines[0])
    numbers = []
    for start in range(0, len(lines), natoms + 2):
        numbers += [float(w.split("=")[1]) for w in lines[start + 1].split()]
        numbers += [float(v) for line in lines[start + 2 : start + 2 + natoms]
                    for v in line.split()[1:]]
    return numbers


class TestCliContract:
    """On any input, cli.main returns 0, 2 or 3 and raises nothing; exit 0
    writes only finite numbers, and a failed run leaves no output behind."""

    @settings(max_examples=60)
    @given(
        natoms=st.integers(3, 6),
        seed=st.integers(0, 2**32 - 1),
        dynamics=st.booleans(),
        rotor=st.booleans(),
        tasks=st.sets(st.sampled_from(cli.TASKS), min_size=1),
        units=st.sampled_from(cli.UNIT_MODES),
        mutations=st.lists(MUTATIONS, max_size=2),
    )
    def test_drawn_chains_keep_the_contract(
        self, natoms, seed, dynamics, rotor, tasks, units, mutations
    ):
        text = mutate(chain_input(natoms, seed, dynamics, rotor), mutations)
        with tempfile.TemporaryDirectory() as tmp:
            path = write_input(Path(tmp), text)
            out = Path(tmp) / "out"
            code = cli.main(["analyze", str(path), "--tasks", ",".join(sorted(tasks)),
                             "--units", units, "--frames", "3", "--jmax", "3",
                             "--out", str(out)])
            assert code in (0, 2, 3)
            written = sorted(out.iterdir()) if out.exists() else []
            if code:
                assert written == []
            else:
                assert "report.json" in [p.name for p in written]
                for p in written:
                    assert np.isfinite(output_numbers(p)).all(), p.name


class TestTaskTable:
    """run() checks every selected task, then runs the tasks in the table's
    order, whatever the order of --tasks."""

    def test_outputs_do_not_depend_on_task_order(self, tmp_path):
        path = write_input(tmp_path, chain_input(5, 11, dynamics=True, rotor=True))
        outputs = set()
        for order in itertools.permutations(cli.TASKS):
            out = tmp_path / "-".join(order)
            assert cli.main(["analyze", str(path), "--tasks", ",".join(order), "--frames", "3",
                             "--jmax", "4", "--out", str(out)]) == 0
            outputs.add(tuple((p.name, p.read_bytes()) for p in sorted(out.iterdir())))
        assert len(outputs) == 1
        (files,) = outputs
        assert [name for name, _ in files] == [
            "levels.txt", "modes.xyz", "report.json", "trajectory.csv"]
        report = json.loads(dict(files)["report.json"])
        assert report["tasks"] == list(cli.TASKS)
        assert list(report) == ["input", "tasks", "unit_mode", "modes", "dynamics", "watson",
                                "rotor"]

    def test_report_json_is_streamed(self, tmp_path, monkeypatch):
        # a 40-atom chain's zeta and a jmax-200 level list: about 7 MB of
        # report.json, written a block at a time
        path = write_input(tmp_path, chain_input(40, 1, dynamics=False, rotor=False))
        write = cli._Outputs.write
        peaks = {}

        def traced_write(self, name, chunks):
            tracemalloc.start()
            try:
                return write(self, name, chunks)
            finally:
                peaks[name] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

        monkeypatch.setattr(cli._Outputs, "write", traced_write)
        assert cli.main(["analyze", str(path), "--tasks", "watson-diagnostics,rotor", "--jmax",
                         "200", "--out", str(tmp_path)]) == 0
        size = (tmp_path / "report.json").stat().st_size
        assert size > 5e6
        assert peaks["report.json"] < size / 4
