"""Command-line surface: input parsing, pipeline orchestration, reports.

The input is a single keyed text file with bracketed sections:

    [molecule]              optional; dimensionality = 1 | 2 | 3
    [atoms]                 label mass x y z          (one atom per line)
    [internal_coordinates]  stretch i j | bend i j k | torsion i j k l
                            | cart i x|y|z | lincomb w1 ... wN
                            (atom indices are 1-based)
    [force_constants]       dense lower-triangle rows, or full square rows
    [rotor]                 a = .., b = .., c = ..    (cm^-1, optional)
    [dynamics]              kappa = .., beta = ..     (optional)
                            t_end = 10.0 (> 0), samples = 201 (integer > 0,
                            samples x coordinates <= TRAJECTORY_VALUES_MAX)

Every number must be finite; nan, inf and overflowing literals are parse
errors.

Outputs: report.json (always), modes.xyz, levels.txt, trajectory.csv as
requested by the task list.  report.json is byte-deterministic: fixed field
order and %.12e float formatting.  modes.xyz and trajectory.csv are
streamed to disk in chunks, not built as one string first.
Exit codes: 0 success, 2 validation or usage error, 3 numerical failure;
on failure every output file of the run is removed, also one that failed
midway.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import dynamics as dyn
from . import molecule as mo
from . import normalmodes as nm
from . import rotor as ro
from . import watson as wa
from .quadform import QuadformError, SymMatrix

TASKS = ("modes", "dynamics", "rotor", "watson-diagnostics")

# Relative asymmetry of a full-square [force_constants] block: beyond
# F_SYMMETRY_REJECT it is an error, above F_SYMMETRY_WARN it is symmetrized
# with a warning.
F_SYMMETRY_REJECT = 1e-9
F_SYMMETRY_WARN = 1e-12
# Largest trajectory a [dynamics] section may ask for, counted in values
# (samples x internal coordinates): 10^7 values are 80 MB per float64 array
# and about 200 MB of trajectory.csv.
TRAJECTORY_VALUES_MAX = 10_000_000

log = logging.getLogger(__name__)

_AXES = {"x": 0, "y": 1, "z": 2, "0": 0, "1": 1, "2": 2}


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class ValidationError(ValueError):
    pass


class ParsedInput(NamedTuple):
    molecule: mo.Molecule
    internal_coordinates: mo.InternalCoordinateSet
    force_field: nm.ForceField
    rotor_spec: Optional[ro.RotorSpec]
    initial_conditions: Optional[dyn.InitialConditions]
    dynamics_options: dict


@dataclass
class JobSpec:
    input_path: Path
    tasks: tuple = ("modes",)
    output_dir: Path = Path(".")
    unit_mode: str = "cm"
    jmax: int = 5
    frames: int = 20
    amplitude: float = 0.3

    def __post_init__(self):
        self.input_path = Path(self.input_path)
        self.output_dir = Path(self.output_dir)
        tasks = tuple(self.tasks)
        if not tasks:
            raise ValidationError("at least one task is required")
        for t in tasks:
            if t not in TASKS:
                raise ValidationError(
                    f"unknown task {t!r}; choose from {', '.join(TASKS)}"
                )
        self.tasks = tasks
        if self.frames < 2:
            raise ValidationError("frames must be at least 2")
        if not (math.isfinite(self.amplitude) and self.amplitude > 0):
            raise ValidationError("amplitude must be positive and finite")
        if self.jmax < 0:
            raise ValidationError("jmax must be non-negative")


# -- input parsing -------------------------------------------------------------


_SECTIONS = (
    "molecule",
    "atoms",
    "internal_coordinates",
    "force_constants",
    "rotor",
    "dynamics",
)


def _split_sections(text: str):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(lineno, f"malformed section header {raw.strip()!r}")
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise ParseError(
                    lineno, f"unknown section [{name}]; expected one of "
                    + ", ".join(_SECTIONS)
                )
            if name in sections:
                raise ParseError(lineno, f"duplicate section [{name}]")
            current = []
            sections[name] = current
            continue
        if current is None:
            raise ParseError(lineno, "content before any [section] header")
        current.append((lineno, line))
    return sections


def _parse_keyed(lines, section: str):
    out = {}
    for lineno, line in lines:
        if "=" not in line:
            raise ParseError(lineno, f"expected key = value in [{section}]")
        key, _, value = line.partition("=")
        out[key.strip().lower()] = (lineno, value.strip())
    return out


def _floats(lineno: int, text: str):
    vals = []
    for tok in text.split():
        try:
            val = float(tok)
        except ValueError:
            raise ParseError(lineno, f"not a number: {tok!r}") from None
        if not math.isfinite(val):
            raise ParseError(lineno, f"not a finite number: {tok!r}")
        vals.append(val)
    return vals


def _scalar(lineno: int, text: str) -> float:
    vals = _floats(lineno, text)
    if len(vals) != 1:
        raise ParseError(lineno, f"expected one number, got {text!r}")
    return vals[0]


def _parse_atoms(lines):
    labels, masses, positions = [], [], []
    for lineno, line in lines:
        toks = line.split()
        if len(toks) != 5:
            raise ParseError(lineno, "atom lines are: label mass x y z")
        labels.append(toks[0])
        vals = _floats(lineno, " ".join(toks[1:]))
        if vals[0] <= 0:
            raise ValidationError(f"line {lineno}: mass must be positive")
        masses.append(vals[0])
        positions.append(vals[1:])
    if not labels:
        raise ValidationError("[atoms] section is empty")
    return labels, masses, positions


def _atom_index(lineno: int, token: str, natoms: int) -> int:
    try:
        idx = int(token)
    except ValueError:
        raise ParseError(lineno, f"not an atom index: {token!r}") from None
    if not 1 <= idx <= natoms:
        raise ValidationError(f"line {lineno}: atom index {idx} outside 1..{natoms}")
    return idx - 1


def _parse_internal_coordinates(lines, natoms: int, ncart: int, dim: int):
    coords = []
    for lineno, line in lines:
        toks = line.split()
        kind = toks[0].lower()
        args = toks[1:]
        try:
            if kind == "stretch" and len(args) == 2:
                coords.append(
                    mo.BondStretch(*(_atom_index(lineno, a, natoms) for a in args))
                )
            elif kind == "bend" and len(args) == 3:
                coords.append(
                    mo.AngleBend(*(_atom_index(lineno, a, natoms) for a in args))
                )
            elif kind == "torsion" and len(args) == 4:
                coords.append(
                    mo.Torsion(*(_atom_index(lineno, a, natoms) for a in args))
                )
            elif kind == "cart" and len(args) == 2:
                axis = _AXES.get(args[1].lower())
                if axis is None or axis >= dim:
                    raise ValidationError(
                        f"line {lineno}: axis {args[1]!r} invalid for dimensionality {dim}"
                    )
                coords.append(
                    mo.CartesianDisplacement(
                        atom=_atom_index(lineno, args[0], natoms), axis=axis
                    )
                )
            elif kind == "lincomb":
                weights = _floats(lineno, " ".join(args))
                if len(weights) != ncart:
                    raise ValidationError(
                        f"line {lineno}: lincomb needs {ncart} weights"
                    )
                coords.append(mo.LinearCombination(weights=tuple(weights)))
            else:
                raise ParseError(
                    lineno,
                    f"unknown internal coordinate {line!r} "
                    "(stretch/bend/torsion/cart/lincomb)",
                )
        except mo.MoleculeError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from exc
    if not coords:
        raise ValidationError("[internal_coordinates] section is empty")
    return mo.InternalCoordinateSet(tuple(coords))


def _parse_force_constants(lines, n: int):
    rows = [(lineno, _floats(lineno, line)) for lineno, line in lines]
    if len(rows) != n:
        raise ValidationError(
            f"[force_constants] has {len(rows)} rows for {n} internal coordinates"
        )
    f = np.zeros((n, n))
    lower = all(len(vals) == i + 1 for i, (_, vals) in enumerate(rows))
    full = all(len(vals) == n for _, vals in rows)
    if lower:
        for i, (_, vals) in enumerate(rows):
            f[i, : i + 1] = vals
            f[: i + 1, i] = vals
    elif full:
        for i, (_, vals) in enumerate(rows):
            f[i] = vals
        asym = float(np.abs(f - f.T).max())
        scale = max(float(np.abs(f).max()), 1e-300)
        if asym > F_SYMMETRY_REJECT * scale:
            raise ValidationError(
                f"force-constant matrix asymmetric by {asym:.3e}"
            )
        if asym > F_SYMMETRY_WARN * scale:
            log.warning("symmetrized force constants (asymmetry %.3e)", asym)
        f = 0.5 * (f + f.T)
    else:
        raise ParseError(
            rows[0][0], "rows must form a lower triangle or a full square matrix"
        )
    return nm.ForceField(f=SymMatrix(f))


def parse_input(path) -> ParsedInput:
    """Parse and validate an input file into domain objects."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    sections = _split_sections(text)

    for required in ("atoms", "internal_coordinates", "force_constants"):
        if required not in sections:
            raise ValidationError(f"missing [{required}] section")

    dim = 3
    if "molecule" in sections:
        keyed = _parse_keyed(sections["molecule"], "molecule")
        if "dimensionality" in keyed:
            lineno, value = keyed["dimensionality"]
            if value not in ("1", "2", "3"):
                raise ValidationError(f"line {lineno}: dimensionality must be 1, 2 or 3")
            dim = int(value)

    labels, masses, positions = _parse_atoms(sections["atoms"])
    try:
        molecule = mo.Molecule.from_lists(labels, masses, positions, dimensionality=dim)
    except mo.MoleculeError as exc:
        raise ValidationError(str(exc)) from exc

    ics = _parse_internal_coordinates(
        sections["internal_coordinates"], molecule.natoms, molecule.ncart, dim
    )
    force_field = _parse_force_constants(sections["force_constants"], len(ics))

    rotor_spec = None
    if "rotor" in sections:
        keyed = _parse_keyed(sections["rotor"], "rotor")
        consts = {}
        for key in ("a", "b", "c"):
            if key not in keyed:
                raise ValidationError(f"[rotor] section needs {key} =")
            lineno, value = keyed[key]
            consts[key] = _scalar(lineno, value)
        try:
            rotor_spec = ro.classify(consts["a"], consts["b"], consts["c"])
        except ro.RotorError as exc:
            raise ValidationError(str(exc)) from exc

    initial = None
    dyn_options = {"t_end": 10.0, "samples": 201}
    if "dynamics" in sections:
        keyed = _parse_keyed(sections["dynamics"], "dynamics")
        for key in ("kappa", "beta"):
            if key not in keyed:
                raise ValidationError(f"[dynamics] section needs {key} =")
        kappa = _floats(*keyed["kappa"])
        beta = _floats(*keyed["beta"])
        if len(kappa) != len(ics) or len(beta) != len(ics):
            raise ValidationError(
                f"kappa/beta must have {len(ics)} entries (one per internal coordinate)"
            )
        initial = dyn.InitialConditions(kappa=np.array(kappa), beta_vel=np.array(beta))
        if "t_end" in keyed:
            lineno, value = keyed["t_end"]
            dyn_options["t_end"] = _scalar(lineno, value)
            if dyn_options["t_end"] <= 0:
                raise ValidationError(f"line {lineno}: t_end must be positive")
        if "samples" in keyed:
            lineno, value = keyed["samples"]
            try:
                dyn_options["samples"] = int(value)
            except ValueError:
                raise ParseError(lineno, f"samples must be an integer: {value!r}") from None
            if dyn_options["samples"] < 1:
                raise ValidationError(f"line {lineno}: samples must be positive")
            if dyn_options["samples"] * len(ics) > TRAJECTORY_VALUES_MAX:
                raise ValidationError(
                    f"line {lineno}: samples x {len(ics)} coordinates exceeds "
                    f"{TRAJECTORY_VALUES_MAX} trajectory values"
                )
    return ParsedInput(molecule, ics, force_field, rotor_spec, initial, dyn_options)


# -- deterministic JSON --------------------------------------------------------


_JSON_ESCAPES = {i: f"\\u{i:04x}" for i in range(0x20)} | {ord('"'): '\\"', ord("\\"): "\\\\"}


def _json_escape(s: str) -> str:
    if s.isprintable() and '"' not in s and "\\" not in s:  # nothing to escape
        return '"' + s + '"'
    return '"' + s.translate(_JSON_ESCAPES) + '"'


def emit_json(obj, indent: int = 0) -> str:
    """JSON text with insertion-ordered keys and %.12e float formatting."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k, v in obj.items():
            # exact int, str and finite float values inline; the rest recurse
            t = type(v)
            if t is int:
                text = str(v)
            elif t is str:
                text = _json_escape(v)
            elif t is float and math.isfinite(v):
                text = "%.12e" % v
            else:
                text = emit_json(v, indent + 1)
            items.append(f"{inner}{_json_escape(str(k))}: {text}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(isinstance(v, float) and math.isfinite(v) for v in seq):
            # flat list of finite floats: the same bytes as the element path below
            template = ",\n".join([inner + "%.12e"] * len(seq))
            return "[\n" + template % tuple(seq) + "\n" + pad + "]"
        items = [f"{inner}{emit_json(v, indent + 1)}" for v in seq]
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
    return _json_escape(str(obj))


# -- pipeline ------------------------------------------------------------------


@dataclass
class _Outputs:
    directory: Path
    written: list = field(default_factory=list)

    def write(self, name: str, chunks) -> Path:
        """Stream the text chunks into directory/name.

        The path is recorded before the file is opened, so cleanup() also
        removes a file whose chunks raised midway.
        """
        path = self.directory / name
        self.written.append(path)
        with open(path, "w") as fh:
            fh.writelines(chunks)
        return path

    def cleanup(self):
        for path in self.written:
            try:
                path.unlink()
            except OSError:
                pass


def _solve_modes(parsed: ParsedInput, unit_mode: str) -> nm.NormalModeResult:
    b = mo.build_b_matrix(parsed.molecule, parsed.internal_coordinates)
    masses = mo.MassMatrix.from_molecule(parsed.molecule)
    g = mo.build_g_matrix(b, masses)
    mode = "natural" if unit_mode == "natural" else "spectroscopic"
    return nm.solve(g, parsed.force_field, b=b, masses=masses, unit_mode=mode)


def _xyz_frames(molecule: mo.Molecule, result, job: JobSpec):
    """modes.xyz as text chunks, two per animation frame."""
    atom_lines = "".join(
        atom.label.replace("%", "%%") + " %.10f %.10f %.10f\n"
        for atom in molecule.atoms
    )
    for i in range(result.nmodes):
        mode_vec = result.cart_displacements[:, i]
        geoms = nm.mode_animation(molecule, mode_vec, job.amplitude, job.frames)
        freq = result.frequencies_cm[i]
        for t, coords in enumerate(geoms.reshape(len(geoms), -1).tolist()):
            yield f"{molecule.natoms}\nmode={i} freq={freq:.6f} frame={t}\n"
            yield atom_lines % tuple(coords)


def _levels_text(spec: ro.RotorSpec, levels) -> str:
    header = (
        f"# rotor: A={spec.a_const:.6f} B={spec.b_const:.6f} C={spec.c_const:.6f} "
        f"({spec.classification})\n"
        "#   J  parity  index        E(cm-1)  degeneracy\n"
    )
    values = [
        x
        for lv in levels
        for x in (lv.j, lv.parity_class, lv.index, lv.energy, lv.degeneracy)
    ]
    return header + "%5d  %6s  %5d %14.6f  %10d\n" * len(levels) % tuple(values)


def _trajectory_csv(times, states):
    """trajectory.csv as text chunks: the header, then one row per sample."""
    n = states.shape[1]
    yield "t," + ",".join(f"x{i + 1}" for i in range(n)) + "\n"
    row = ",".join(["%.12e"] * (n + 1)) + "\n"
    for t, x in zip(times.tolist(), states):
        yield row % (t, *x.tolist())


def run(job: JobSpec) -> int:
    """Execute a job; returns the process exit code."""
    outputs = _Outputs(directory=job.output_dir)
    try:
        parsed = parse_input(job.input_path)
        job.output_dir.mkdir(parents=True, exist_ok=True)
        report = {
            "input": job.input_path.name,
            "tasks": list(job.tasks),
            "unit_mode": job.unit_mode,
        }

        needs_modes = any(
            t in job.tasks for t in ("modes", "dynamics", "watson-diagnostics")
        )
        if needs_modes:
            result = _solve_modes(parsed, job.unit_mode)

        if "modes" in job.tasks:
            ecd = (
                wa.eckart_conditions_check(parsed.molecule, result.l)
                if parsed.molecule.dimensionality == 3
                else None
            )
            report["modes"] = {
                "lambdas": list(result.lambdas),
                "frequencies": list(result.frequencies_cm),
                "eckart_residuals": (
                    {
                        "translational": list(ecd.translational),
                        "rotational": list(ecd.rotational),
                    }
                    if ecd is not None
                    else None
                ),
            }
            outputs.write("modes.xyz", _xyz_frames(parsed.molecule, result, job))

        if "dynamics" in job.tasks:
            if parsed.initial_conditions is None:
                raise ValidationError("dynamics task requires a [dynamics] section")
            metric = result.g_inv
            times = np.linspace(
                0.0,
                parsed.dynamics_options["t_end"],
                parsed.dynamics_options["samples"],
            )
            states = dyn.trajectory_closed_form(
                result, metric, parsed.initial_conditions, times
            )
            energy0 = float(
                0.5
                * parsed.initial_conditions.beta_vel
                @ metric.entries
                @ parsed.initial_conditions.beta_vel
                + 0.5
                * parsed.initial_conditions.kappa
                @ parsed.force_field.f.entries
                @ parsed.initial_conditions.kappa
            )
            report["dynamics"] = {
                "t_end": parsed.dynamics_options["t_end"],
                "samples": parsed.dynamics_options["samples"],
                "energy": energy0,
            }
            outputs.write("trajectory.csv", _trajectory_csv(times, states))

        if "watson-diagnostics" in job.tasks:
            if parsed.molecule.dimensionality != 3:
                raise ValidationError(
                    "watson-diagnostics requires a 3-dimensional molecule"
                )
            cd = wa.coriolis_data(parsed.molecule, result.l)
            sr = wa.sum_rule_residuals(cd, parsed.molecule, result.l)
            ie = wa.inertia_expansion(parsed.molecule, result.l, cd.a_coeff)
            unit = "natural" if job.unit_mode == "natural" else "cm"
            nvib = cd.n_modes
            report["watson"] = {
                "zeta": [
                    [list(cd.zeta[a, k]) for k in range(nvib)] for a in range(3)
                ],
                "interaction_coefficients": [
                    [list(cd.a_coeff[k, a]) for a in range(3)] for k in range(nvib)
                ],
                "sum_rule_residuals": {
                    "rule1": sr.rule1,
                    "rule2": sr.rule2,
                    "rule3": sr.rule3,
                },
                "inertia_tensor": [list(row) for row in ie.i0],
                "watson_u0": wa.watson_u(ie, np.zeros(nvib), unit),
            }

        if "rotor" in job.tasks:
            spec = parsed.rotor_spec
            if spec is None:
                spec = ro.rotor_spec_from_inertia(
                    mo.inertia(parsed.molecule).rotational_constants
                )
                if spec is None:
                    raise ValidationError(
                        "no [rotor] section and the molecular inertia is degenerate"
                    )
            levels = ro.asymmetric_levels(spec, job.jmax)
            report["rotor"] = {
                "constants": {
                    "a": spec.a_const,
                    "b": spec.b_const,
                    "c": spec.c_const,
                },
                "classification": spec.classification,
                "jmax": job.jmax,
                "levels": [
                    {
                        "j": lv.j,
                        "parity": lv.parity_class,
                        "index": lv.index,
                        "energy": lv.energy,
                        "degeneracy": lv.degeneracy,
                    }
                    for lv in levels
                ],
            }
            outputs.write("levels.txt", [_levels_text(spec, levels)])

        outputs.write("report.json", [emit_json(report) + "\n"])
        return 0
    except (ParseError, ValidationError, OSError) as exc:
        outputs.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        QuadformError,
        mo.MoleculeError,
        dyn.DynamicsError,
        wa.WatsonError,
        ro.RotorError,
        np.linalg.LinAlgError,
    ) as exc:
        outputs.cleanup()
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vibrot",
        description="Normal modes, harmonic dynamics, Watson diagnostics "
        "and rigid-rotor levels from a single input file.",
    )
    sub = parser.add_subparsers(dest="command")
    analyze = sub.add_parser("analyze", help="run an analysis job")
    analyze.add_argument("input", help="input file path")
    analyze.add_argument(
        "--tasks",
        default="modes",
        help=f"comma-separated subset of: {', '.join(TASKS)}",
    )
    analyze.add_argument("--out", default=".", help="output directory")
    analyze.add_argument(
        "--units", default="cm", choices=("natural", "cm"), help="frequency units"
    )
    analyze.add_argument("--jmax", type=int, default=5, help="highest rotor J")
    analyze.add_argument(
        "--frames", type=int, default=20, help="animation frames per mode"
    )
    analyze.add_argument(
        "--amplitude", type=float, default=0.3, help="animation amplitude (Angstrom)"
    )
    args = parser.parse_args(argv)
    if args.command != "analyze":
        parser.print_usage(sys.stderr)
        return 2
    try:
        job = JobSpec(
            input_path=args.input,
            tasks=tuple(t.strip() for t in args.tasks.split(",") if t.strip()),
            output_dir=args.out,
            unit_mode=args.units,
            jmax=args.jmax,
            frames=args.frames,
            amplitude=args.amplitude,
        )
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(job)


if __name__ == "__main__":
    sys.exit(main())
