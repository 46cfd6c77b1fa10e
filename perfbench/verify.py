"""Checks on the files one `vibrot analyze` job wrote.

A job passes when it exited 0, wrote the files its tasks promise, and its
numbers agree with the oracle (oracle.py, computed from the generated input)
within tolerances far above roundoff and far below any real defect.  Inputs
whose seed-code outputs were recorded in reference.json are also compared
with those values, and their output digest is compared byte for byte; a
digest mismatch is reported, not failed, so an accuracy-improving change is
not scored as failed work.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

RTOL = 1e-7          # eigenvalues, frequencies, energies: relative to the largest
ROTOR_RTOL = 1e-9    # rotor levels and trace rule: relative to J(J+1)(A+B+C)
WATSON_TOL = 1e-8    # Watson rule 1 and Eckart residuals; rule 2 relative to 4 sum m r^2
TRAJ_TOL = 1e-9      # trajectory rows: relative to max |kappa|, |x|
FRAMES = 20          # `vibrot analyze --frames` default: animation frames per mode

OUTPUT_FILES = {
    "modes": "modes.xyz",
    "dynamics": "trajectory.csv",
    "rotor": "levels.txt",
}


@dataclass
class Job:
    """One `vibrot analyze` invocation and what its outputs must satisfy."""

    inp: object                 # inputs.Input
    tasks: tuple
    units: str = "cm"
    jmax: int = 5
    expect: dict = field(default_factory=dict)   # filled by prepare()

    def args(self) -> list:
        return ["--tasks", ",".join(self.tasks), "--units", self.units, "--jmax", str(self.jmax)]

    def argv(self, input_path: Path, out_dir: Path) -> list:
        return ["analyze", str(input_path), "--out", str(out_dir)] + self.args()

    @property
    def key(self) -> str:
        """Identity of the job's inputs, independent of where files live."""
        blob = self.inp.text + "\n" + " ".join(self.args())
        return hashlib.sha256(blob.encode()).hexdigest()

    @property
    def input_name(self) -> str:
        """File name for the input; report.json records it."""
        return self.inp.name + ".inp"

    @property
    def files(self) -> list:
        return ["report.json"] + [OUTPUT_FILES[t] for t in self.tasks if t in OUTPUT_FILES]


def sample_js(jmax: int) -> list:
    return sorted({0, 1, 2, 3, jmax} | {round(jmax * f) for f in (0.1, 0.25, 0.5, 0.75)})


def prepare(job: Job) -> Job:
    """Compute the oracle's expectations for a job once, before it is timed."""
    inp, exp = job.inp, job.expect
    needs_modes = any(t in job.tasks for t in ("modes", "dynamics", "watson-diagnostics"))
    if needs_modes:
        g = oracle.g_matrix(inp)
        lam = oracle.gf_eigen(inp, g)[0]
        exp["lambdas"] = lam
        exp["frequencies"] = oracle.frequencies(lam, job.units)
    if "dynamics" in job.tasks:
        d = inp.dynamics
        times = np.linspace(0.0, d["t_end"], d["samples"])
        exp["traj_first"] = np.asarray(d["kappa"], dtype=float)
        exp["traj_last"] = oracle.trajectory(inp, g, times[-1:])[0]
        exp["energy"] = oracle.dynamics_energy(inp, g)
    if "watson-diagnostics" in job.tasks:
        # Rule 2 compares sums of a_k a_k, which grow like 4 sum_i m_i r_i^2
        # (amu^2 Angstrom^4 scale); its roundoff grows with the molecule.
        m = inp.masses
        pos = inp.positions - m @ inp.positions / m.sum()
        exp["rule_tol"] = {"rule1": WATSON_TOL,
                           "rule2": WATSON_TOL * 4.0 * float(np.einsum("i,ia,ia->", m, pos, pos))}
    if "rotor" in job.tasks:
        abc = inp.rotor if inp.rotor is not None else oracle.rotational_constants(inp)
        a, b, c = sorted(abc, reverse=True)
        exp["constants"] = (a, b, c)
        exp["levels"] = {j: oracle.rotor_energies(a, b, c, j) for j in sample_js(job.jmax)}
    return job


def digest(out_dir: Path, names) -> str:
    h = hashlib.sha256()
    for name in sorted(names):
        h.update(name.encode() + b"\0")
        with open(out_dir / name, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def count_lines(path: Path) -> int:
    n = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            n += chunk.count(b"\n")
    return n


def _close(got, want, scale, tol) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= tol * scale))


def check_report(job: Job, report: dict) -> list:
    """Problems found in a parsed report.json; empty when it is correct."""
    problems = []
    exp, inp = job.expect, job.inp
    if report.get("tasks") != list(job.tasks) or report.get("unit_mode") != job.units:
        problems.append("report header does not echo the job")

    if "modes" in job.tasks:
        modes = report.get("modes") or {}
        lam = exp["lambdas"]
        if not _close(modes.get("lambdas", []), lam, np.abs(lam).max(), RTOL):
            problems.append("eigenvalues differ from the oracle")
        freq = exp["frequencies"]
        if not _close(modes.get("frequencies", []), freq, np.abs(freq).max(), RTOL):
            problems.append("frequencies differ from the oracle")
        eck = modes.get("eckart_residuals")
        if inp.dim == 3:
            worst = max(
                max(eck["translational"], default=0.0), max(eck["rotational"], default=0.0)
            ) if eck else math.inf
            if not worst <= WATSON_TOL:
                problems.append(f"Eckart residual {worst:.3e} above {WATSON_TOL:g}")

    if "dynamics" in job.tasks:
        dyn = report.get("dynamics") or {}
        if dyn.get("samples") != inp.dynamics["samples"]:
            problems.append("dynamics sample count differs from the input")
        if not _close(dyn.get("energy", math.nan), exp["energy"], abs(exp["energy"]), RTOL):
            problems.append("dynamics energy differs from the oracle")

    if "watson-diagnostics" in job.tasks:
        rules = (report.get("watson") or {}).get("sum_rule_residuals") or {}
        for rule, tol in exp["rule_tol"].items():
            value = rules.get(rule, math.inf)
            if not value <= tol:
                problems.append(f"Watson {rule} residual {value} above {tol:.3g}")

    if "rotor" in job.tasks:
        problems += _check_rotor(job, report.get("rotor") or {})
    return problems


def _check_rotor(job: Job, rotor: dict) -> list:
    problems = []
    a, b, c = job.expect["constants"]
    got = rotor.get("constants", {})
    if not _close([got.get(k, math.nan) for k in "abc"], [a, b, c], a, ROTOR_RTOL):
        problems.append("rotor constants differ from the oracle")
    levels = rotor.get("levels", [])
    if len(levels) != (job.jmax + 1) ** 2:
        return problems + [f"{len(levels)} rotor levels, expected {(job.jmax + 1) ** 2}"]
    by_j = [[] for _ in range(job.jmax + 1)]
    for lv in levels:
        j = lv["j"]
        if not 0 <= j <= job.jmax or lv["degeneracy"] != 2 * j + 1:
            return problems + [f"malformed rotor level {lv}"]
        by_j[j].append(lv["energy"])
    for j, energies in enumerate(by_j):
        scale = j * (j + 1) * (a + b + c) + a
        if len(energies) != 2 * j + 1:
            problems.append(f"J={j} has {len(energies)} levels, expected {2 * j + 1}")
        elif abs(sum(energies) - (2 * j + 1) * j * (j + 1) * (a + b + c) / 3) > (
            ROTOR_RTOL * (2 * j + 1) * scale
        ):
            problems.append(f"J={j} levels break the trace rule")
        elif j in job.expect["levels"] and not _close(
            sorted(energies), job.expect["levels"][j], scale, ROTOR_RTOL
        ):
            problems.append(f"J={j} levels differ from the oracle")
    return problems


def check_files(job: Job, out_dir: Path) -> list:
    """Problems in the text outputs, checked by shape and end points."""
    problems = []
    inp = job.inp
    if "modes" in job.tasks:
        want = len(job.expect["lambdas"]) * FRAMES * (inp.natoms + 2)
        got = count_lines(out_dir / "modes.xyz")
        if got != want:
            problems.append(f"modes.xyz has {got} lines, expected {want}")
    if "rotor" in job.tasks:
        got = count_lines(out_dir / "levels.txt")
        if got != 2 + (job.jmax + 1) ** 2:
            problems.append(f"levels.txt has {got} lines")
    if "dynamics" in job.tasks:
        problems += _check_trajectory(job, out_dir / "trajectory.csv")
    return problems


def _check_trajectory(job: Job, path: Path) -> list:
    samples = job.inp.dynamics["samples"]
    with open(path, "rb") as fh:
        header = fh.readline()
        first = fh.readline()
        fh.seek(max(0, fh.seek(0, 2) - 64 * 1024))
        last = fh.read().splitlines()[-1]
    if count_lines(path) != samples + 1:
        return ["trajectory.csv row count differs from samples"]
    if header.decode().split(",")[0] != "t":
        return ["trajectory.csv header malformed"]
    row0 = np.array(first.decode().split(","), dtype=float)
    row_n = np.array(last.decode().split(","), dtype=float)
    kappa, x_end = job.expect["traj_first"], job.expect["traj_last"]
    problems = []
    if row0[0] != 0.0 or not _close(row0[1:], kappa, np.abs(kappa).max(), TRAJ_TOL):
        problems.append("trajectory row 0 is not kappa")
    scale = max(np.abs(kappa).max(), np.abs(x_end).max())
    if not _close(row_n[1:], x_end, scale, 1e3 * TRAJ_TOL):
        problems.append("final trajectory row differs from the oracle")
    return problems


@dataclass
class Outcome:
    ok: bool
    problems: list
    identical: object = None     # True/False against reference.json, None when absent
    bytes_written: int = 0


def verify(job: Job, exit_code: int, out_dir: Path, reference: dict) -> Outcome:
    if exit_code != 0:
        return Outcome(False, [f"exit code {exit_code}"])
    missing = [n for n in job.files if not (out_dir / n).is_file()]
    if missing:
        return Outcome(False, [f"missing {', '.join(missing)}"])
    try:
        with open(out_dir / "report.json") as fh:
            report = json.load(fh)
        problems = check_report(job, report) + check_files(job, out_dir)
        ref = reference.get(job.key)
        if ref is not None:
            problems += check_reference(job, report, ref)
    except (ValueError, KeyError, TypeError, IndexError) as exc:  # malformed output
        return Outcome(False, [f"unreadable output: {exc!r}"])
    identical = None if ref is None else digest(out_dir, job.files) == ref["digest"]
    written = sum((out_dir / n).stat().st_size for n in job.files)
    return Outcome(not problems, problems, identical, written)


def check_reference(job: Job, report: dict, ref: dict) -> list:
    """Compare with the values the seed code produced for this input."""
    problems = []
    if "frequencies" in ref:
        want = np.array(ref["frequencies"])
        got = (report.get("modes") or {}).get("frequencies", [])
        if not _close(got, want, np.abs(want).max(), RTOL):
            problems.append("frequencies differ from the seed reference")
    if "levels" in ref:
        want = np.array(ref["levels"])
        got = [lv["energy"] for lv in (report.get("rotor") or {}).get("levels", [])]
        if not _close(got[: want.size], want, np.abs(want).max(), ROTOR_RTOL):
            problems.append("rotor levels differ from the seed reference")
    return problems
