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
errors.  [molecule], [rotor] and [dynamics] take only the keys above, each at
most once; an unknown or repeated key is a parse error.

Options: --units natural|cm; --jmax N with (N + 1)^2 <= ROTOR_LEVELS_MAX
levels, so N <= 999; --frames N with at most XYZ_VALUES_MAX modes.xyz values
when the modes task runs.  Outputs: report.json (always), modes.xyz,
levels.txt, trajectory.csv as requested by the task list.  report.json has a
fixed field order and %.12e float formatting.  The bytes of every output are
deterministic for one numpy/BLAS build and BLAS thread count; the rotor-only
outputs do not depend on the thread count.
The tasks are a table (_TASKS) in the paper's order: modes, dynamics,
watson-diagnostics, rotor.  run() checks every selected task, then runs
them in table order, whatever the order of --tasks, and writes report.json
last.  Every output is streamed to a binary file in UTF-8 chunks.  Its
tables come from an exact vectorized formatter (_format_table) that falls
back to % for every value it cannot prove; the bytes are those of %.
Exit codes: 0 success, 2 validation or usage error, 3 numerical failure;
on failure every output file of the run is removed, also one that failed
midway.  A task the input cannot run (dynamics without [dynamics],
watson-diagnostics on a linear or non-3-D molecule, rotor without [rotor]
and with degenerate inertia) exits 2 before anything is solved or written.
numpy's floating-point warnings are off during a job: a non-finite result
is refused by a check instead.
"""

from __future__ import annotations

import argparse
import functools
import itertools
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

# Relative asymmetry of a full-square [force_constants] block: beyond
# F_SYMMETRY_REJECT it is an error, above F_SYMMETRY_WARN it is symmetrized
# with a warning.
F_SYMMETRY_REJECT = 1e-9
F_SYMMETRY_WARN = 1e-12
# Largest trajectory a [dynamics] section may ask for, counted in values
# (samples x internal coordinates): 10^7 values are 80 MB per float64 array
# and about 200 MB of trajectory.csv.
TRAJECTORY_VALUES_MAX = 10_000_000
# Largest animation the modes task may write, counted in modes.xyz values
# (frames x 3 atoms x modes): 10^7 values are about 150 MB of modes.xyz.
XYZ_VALUES_MAX = 10_000_000
# Most rotor levels, (jmax + 1)^2, that --jmax may ask for: 10^6 levels (jmax
# <= 999) are about 145 MB of report.json and 48 MB of levels.txt.
ROTOR_LEVELS_MAX = 1_000_000
UNIT_MODES = ("natural", "cm")

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
                raise ValidationError(f"unknown task {t!r}; choose from {', '.join(TASKS)}")
        self.tasks = tasks
        if self.unit_mode not in UNIT_MODES:
            raise ValidationError(f"unit mode must be one of {', '.join(UNIT_MODES)}")
        if self.frames < 2:
            raise ValidationError("frames must be at least 2")
        if not (math.isfinite(self.amplitude) and self.amplitude > 0):
            raise ValidationError("amplitude must be positive and finite")
        if self.jmax < 0:
            raise ValidationError("jmax must be non-negative")
        if (self.jmax + 1) ** 2 > ROTOR_LEVELS_MAX:
            raise ValidationError(
                f"jmax {self.jmax} gives {(self.jmax + 1) ** 2} rotor levels, "
                f"more than ROTOR_LEVELS_MAX = {ROTOR_LEVELS_MAX}"
            )


# -- input parsing -------------------------------------------------------------


_SECTIONS = ("molecule", "atoms", "internal_coordinates", "force_constants", "rotor", "dynamics")


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


def _parse_keyed(lines, section: str, keys: tuple):
    """{key: (line number, value text)}; each key one of `keys`, at most once."""
    out = {}
    for lineno, line in lines:
        if "=" not in line:
            raise ParseError(lineno, f"expected key = value in [{section}]")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in keys:
            raise ParseError(
                lineno, f"unknown key {key!r} in [{section}]; expected one of " + ", ".join(keys)
            )
        if key in out:
            raise ParseError(lineno, f"repeated key {key!r} in [{section}]")
        out[key] = (lineno, value.strip())
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


# The internal coordinates given by atoms: keyword -> (class, atom count).
_ATOM_COORDINATES = {"stretch": (mo.BondStretch, 2), "bend": (mo.AngleBend, 3),
                     "torsion": (mo.Torsion, 4)}


def _parse_internal_coordinates(lines, natoms: int, ncart: int, dim: int):
    coords = []
    for lineno, line in lines:
        toks = line.split()
        kind = toks[0].lower()
        args = toks[1:]
        cls, count = _ATOM_COORDINATES.get(kind, (None, None))
        try:
            if len(args) == count:
                coords.append(cls(*(_atom_index(lineno, a, natoms) for a in args)))
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
        keyed = _parse_keyed(sections["molecule"], "molecule", ("dimensionality",))
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

    ics = _parse_internal_coordinates(sections["internal_coordinates"], molecule.natoms,
                                      molecule.ncart, dim)
    force_field = _parse_force_constants(sections["force_constants"], len(ics))

    rotor_spec = None
    if "rotor" in sections:
        keyed = _parse_keyed(sections["rotor"], "rotor", ("a", "b", "c"))
        consts = []
        for key in ("a", "b", "c"):
            if key not in keyed:
                raise ValidationError(f"[rotor] section needs {key} =")
            consts.append(_scalar(*keyed[key]))
        try:
            rotor_spec = ro.classify(*consts)
        except ro.RotorError as exc:
            raise ValidationError(str(exc)) from exc

    initial = None
    dyn_options = {"t_end": 10.0, "samples": 201}
    if "dynamics" in sections:
        keys = ("kappa", "beta", "t_end", "samples")
        keyed = _parse_keyed(sections["dynamics"], "dynamics", keys)
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


# -- exact float formatting ----------------------------------------------------

# Most values one _format_table block holds (at least one row is taken): a
# block and its temporaries stay near 1 MB, whatever the size of the table.
# Blocks of 2^14 values took twice the memory and were no faster.
FORMAT_BLOCK_VALUES = 1 << 13

_POW10 = np.array([float(10**k) for k in range(23)])  # exact: 5**k < 2**53 for k <= 22


# Formatted text is built in uint32 words, so that one store writes 4 bytes.
# The bytes _PAD, _ROW_END and _LONG never occur in UTF-8: _PAD fills the
# unused bytes of a word and is deleted on output, _ROW_END follows the last
# separator of a row and splits the rows, and _LONG stands for a fallback text
# too wide for its cell, which is spliced in after _PAD is deleted.
_PAD, _ROW_END, _LONG = b"\xff", b"\xfe", b"\xfd"


def _words(chars) -> np.ndarray:
    """Strings of 4 byte values as words; the value 0 stands for _PAD."""
    chars = np.asarray(chars, np.uint8)
    return np.frombuffer(np.where(chars == 0, _PAD[0], chars).astype(np.uint8).tobytes(), np.uint32)


# Word tables of the float cells ("\0" below is _PAD).
_N4 = np.arange(10_000)[:, None]
_CHARS4 = _N4 // [1000, 100, 10, 1] % 10 + ord("0")
_DIGITS4 = _words(_CHARS4)                                                  # "0042"
_INT4 = _words(np.where(_N4 >= [1000, 100, 10, 0], _CHARS4, 0))             # "\0\042"
_POINT2 = _words([(0, ord("."), *c[2:]) for c in _CHARS4[:100]])           # "\0.42"
_SIGN = _words([(0, 0, 0, 0), (0, 0, 0, ord("-"))])                        # "\0\0\0-"
_LEAD = _words([(0, s, c[3], ord(".")) for s in (0, ord("-")) for c in _CHARS4[:10]])  # "\0-4."
_EXP = _words([list(b"e%+03d" % e) for e in range(-32, 14)])               # "e-05"
_RJUST4 = _words(np.where(_N4 >= [1000, 100, 10, 0], _CHARS4, ord(" ")))    # "  42"
_RJUST3 = _words(np.where(_N4 >= [10**4, 100, 10, 1], _CHARS4, [0, 32, 32, 32])[:1000])  # "\0 42"
del _N4, _CHARS4

# Words per cell of each float conversion.
_FLOAT_WORDS = {"%.12e": 5, "%.10f": 5, "%14.6f": 4}
# Integer cells come from a table of 0 <= v < _INT_TABLE; other values take %.
_INT_TABLE = 10_000


def _rounded_digits(values: np.ndarray, conv: str):
    """The decimal digits that conv ("%.12e", "%.10f" or "%14.6f") prints for |values|.

    Returns (digits, exp10, exact).  For "%.12e", digits is the 13-digit
    mantissa as an integer and exp10 the decimal exponent; for "%.10f" and
    "%14.6f", digits is round(|x| 10^10) or round(|x| 10^6) and exp10 is 0.
    The scaled value s = |x| 10^k
    is one correctly rounded product with an exact 10^k (k <= 22), or two
    (10^22, then 10^(k-22)) for the %.12e exponents down to -32, so it lies
    within steps * spacing(s) of the exact |x| 10^k.  Where frac(s) is farther
    than that from 1/2, round(s) equals the correctly rounded decimal that %
    prints.  exact is False, and digits meaningless, at every other value:
    near-ties, nan, +-inf, exponents out of range, integer parts of 10^4 or
    more for "%.10f", and for "%14.6f" the values wider than 14 characters
    (integer parts of 10^7 or more) and those with a sign, -0.0 included.
    """
    a = np.abs(values)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if conv == "%.10f":
            exp10 = 0
            s = a * _POW10[10]
            steps = 1
            exact = s < 1e14 - 0.5  # an integer part of at most 4 digits
        elif conv == "%14.6f":
            exp10 = 0
            s = a * _POW10[6]
            steps = 1
            exact = (s < 1e13 - 0.5) & ~np.signbit(values)  # 7 integer digits, no sign
        else:
            e = np.floor(np.log10(a))
            exact = (e >= -32) & (e <= 12)
            exp10 = np.where(exact, e, 0.0).astype(np.int64)
            k = 12 - exp10
            k1 = np.minimum(k, 22)
            s = a * _POW10[k1] * _POW10[k - k1]
            steps = 1 + (k > 22)
            # a log10 one off puts s outside [10^12, 10^13); zero prints 0.0...e+00
            exact = (exact & (s >= 1e12) & (s < 1e13)) | (a == 0)
        exact &= np.abs(s - np.floor(s) - 0.5) > steps * np.spacing(s)
        digits = np.rint(np.where(exact, s, 0.0)).astype(np.int64)
    if conv == "%.12e":
        carry = digits == 10**13  # 9.9999999999995 -> 1.000000000000e+01
        digits[carry] = 10**12
        exp10 += carry
    return digits, exp10, exact


@functools.lru_cache(maxsize=None)
def _table_words(conv) -> np.ndarray:
    """The word table of a lookup column, one row of words per value.

    conv is a tuple of labels, or "%d" or "%<width>d", whose table holds
    conv % v for 0 <= v < _INT_TABLE, built from digits as _INT4 is.
    """
    if isinstance(conv, tuple):
        texts = [label.encode() for label in conv]
        size = -(-max(map(len, texts)) // 4) * 4
        return np.frombuffer(b"".join(t.ljust(size, _PAD) for t in texts), np.uint32).reshape(
            len(texts), -1
        )
    width = int(conv[1:-1] or 0)
    size = -(-max(width, 4) // 4) * 4
    n = np.arange(_INT_TABLE)[:, None]
    place = 10 ** np.arange(size - 1, -1, -1)
    blank = np.where(np.arange(size) >= size - width, ord(" "), 0)
    return _words(np.where((n >= place) | (place == 1), n // place % 10 + ord("0"), blank)).reshape(
        _INT_TABLE, -1
    )


def _cell_words(values: np.ndarray, conv):
    """(words, exact): the words of conv's cell for each of the flat values.

    words is a sequence of word arrays, the first, second, ... word of every
    cell; a cell is exact where it equals conv % v (conv[v] for labels).
    """
    if isinstance(conv, tuple):
        return _table_words(conv).take(values.astype(np.intp), 0).T, np.ones(values.shape, bool)
    if conv.endswith("d"):
        exact = (values >= 0) & (values < _INT_TABLE) & (np.floor(values) == values)
        return _table_words(conv).take(np.where(exact, values, 0).astype(np.intp), 0).T, exact
    digits, exp10, exact = _rounded_digits(values, conv)
    negative = np.signbit(values)
    if conv == "%.10f":  # "\0\0\0-" "\0\042" "\0.12" "3456" "7890"
        ipart, frac = np.divmod(digits, 10**10)
        hi, lo = np.divmod(frac, 10**8)
        mid, low = np.divmod(lo, 10**4)
        words = (_SIGN[negative.view(np.uint8)], _INT4[ipart], _POINT2[hi], _DIGITS4[mid],
                 _DIGITS4[low])
    elif conv == "%14.6f":  # "\0 12" "3456" "\0.12" "3456", or "\0   " "  42" ...
        ipart, frac = np.divmod(digits, 10**6)
        hi, lo = np.divmod(ipart, 10**4)
        words = (_RJUST3[hi], np.where(hi > 0, _DIGITS4[lo], _RJUST4[lo]),
                 _POINT2[frac // 10**4], _DIGITS4[frac % 10**4])
    else:  # "\0-1." "2345" "6789" "0123" "e+05"
        lead, rest = np.divmod(digits, 10**12)
        hi, lo = np.divmod(rest, 10**8)
        mid, low = np.divmod(lo, 10**4)
        words = (_LEAD[lead + 10 * negative], _DIGITS4[hi], _DIGITS4[mid], _DIGITS4[low],
                 _EXP[exp10 + 32])
    return words, exact


def _format_table(values: np.ndarray, convs, seps):
    """UTF-8 rows of a (rows, cols) float table, column c formatted by convs[c].

    A conversion is "%.12e", "%.10f" or "%14.6f"; "%d" or "%<width>d" for a
    column of integers; or a tuple of labels, which the column's values
    index.  seps holds one string per column, written verbatim after each
    value of that column.  Every row encodes "".join(conv % v + sep for v,
    conv, sep in zip(row, convs, seps)), with conv[int(v)] for a label
    column, for every double: cells that _rounded_digits proves, and
    integers and labels that a table holds, are built from word tables, and
    only the others are formatted by conv % v.  Blocks of at most
    FORMAT_BLOCK_VALUES values are formatted at a time.
    """
    # map holds no block while the next one is formatted
    return itertools.chain.from_iterable(map(_rows, _format_blocks(values, convs, seps, _ROW_END)))


def _rows(block: bytes) -> list:
    return block.split(_ROW_END)[:-1]


@functools.lru_cache(maxsize=256)
def _row_layout(convs: tuple, seps: tuple, row_end: bytes):
    """(template, layout) of a table row: each column's cell words, then its
    separator's words.

    template is one row with the separators in place and _PAD in the cells;
    layout holds (conv, its columns, the first word of each of its cells,
    where each of the cell's words goes).  Writers format tables of the same
    columns again and again, so the layouts are kept.
    """
    sep_bytes = [s.encode() for s in seps]
    sep_bytes[-1] += row_end
    sizes = [(_FLOAT_WORDS.get(conv) or _table_words(conv).shape[1], -(-len(s) // 4))
             for conv, s in zip(convs, sep_bytes)]
    template = np.frombuffer(b"".join(
        _PAD * (4 * w) + s.ljust(4 * n, _PAD) for (w, n), s in zip(sizes, sep_bytes)
    ), np.uint32)
    starts = list(itertools.accumulate((w + n for w, n in sizes), initial=0))
    groups = {}
    for c, conv in enumerate(convs):
        groups.setdefault(conv, []).append(c)
    layout = []
    for conv, cs in groups.items():
        at = [starts[c] for c in cs]
        step = at[1] - at[0] if len(at) > 1 else 1
        # evenly spaced cells are written through a view, faster than an index array
        evenly = at == list(range(at[0], at[-1] + 1, step))
        where = [slice(at[0] + j, at[-1] + j + 1, step) if evenly else np.array(at) + j
                 for j in range(sizes[cs[0]][0])]
        layout.append((conv, slice(None) if len(cs) == len(convs) else cs, np.array(at), where))
    return template, layout


def _format_blocks(values, convs, seps, row_end: bytes = b"", table=np.asarray):
    """_format_table's rows joined in UTF-8 blocks, each row followed by row_end.

    values has a row per table row; table makes the float rows of a slice of
    it, one block at a time.
    """
    rows, cols = len(values), len(convs)
    template, layout = _row_layout(tuple(convs), tuple(seps), row_end)
    step = max(1, FORMAT_BLOCK_VALUES // cols)
    # one buffer for every block: a new one per block let the peak RSS of a
    # long run of jmax-200 rotor jobs creep up by megabytes
    buffer = np.empty((min(step, rows), template.size), np.uint32)
    for start in range(0, rows, step):
        # no name here holds a block while the next one is formatted
        yield _format_block(table(values[start : start + step]), buffer, template, layout)


def _format_block(block, buffer, template, layout) -> bytes:
    """One block of _format_blocks, built in the first rows of buffer."""
    n = len(block)
    record = buffer[:n]
    record[:] = template
    long = []  # (word offset, text) of fallback texts wider than their cell
    for conv, sel, at, where in layout:
        flat = block[:, sel].reshape(-1)
        words, exact = _cell_words(flat, conv)
        for index, w in zip(where, words):
            record[:, index] = w.reshape(n, -1)
        if exact.all():
            continue
        slow = np.flatnonzero(~exact)
        size = 4 * len(words)
        row, col = np.divmod(slow, len(at))
        texts = []
        for r, a, v in zip(row.tolist(), at[col].tolist(), flat[slow].tolist()):
            text = (conv % v).encode()
            if len(text) > size:
                long.append((r * template.size + a, text))
                text = _LONG
            texts.append(text.ljust(size, _PAD))
        record[row[:, None], at[col][:, None] + np.arange(len(words))] = np.frombuffer(
            b"".join(texts), np.uint32
        ).reshape(slow.size, -1)
    text = record.tobytes().translate(None, _PAD)
    if long:
        parts = text.split(_LONG)
        long.sort()
        text = b"".join(itertools.chain.from_iterable(zip(parts, [t for _, t in long])))
        text += parts[-1]
    return text


# -- deterministic JSON --------------------------------------------------------


_JSON_ESCAPES = {i: f"\\u{i:04x}" for i in range(0x20)} | {ord('"'): '\\"', ord("\\"): "\\\\"}
_JSON_CONTAINERS = (dict, list, tuple, np.ndarray, ro.RotorLevels)


def _json_escape(s: str) -> str:
    return '"' + s.translate(_JSON_ESCAPES) + '"'


def emit_json(obj, indent: int = 0) -> str:
    """JSON text with insertion-ordered keys and %.12e float formatting.

    A dict, list, array or RotorLevels (written as a list of level dicts) is
    _json_chunks' text; the stream asks emit_json for every scalar.
    """
    if isinstance(obj, _JSON_CONTAINERS):
        return b"".join(_json_chunks(obj, indent)).decode()
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


def _json_chunks(obj, indent: int):
    """emit_json's text as UTF-8 chunks.  Finite float arrays and a level list
    come from the formatter in blocks, so no chunk holds more than a block."""
    pad, inner = "  " * indent, "\n" + "  " * (indent + 1)
    if isinstance(obj, (list, tuple)) and obj and all(isinstance(v, float) for v in obj):
        obj = np.array(obj)
    if isinstance(obj, ro.RotorLevels) and len(obj):
        yield from _level_list(obj, indent)
    elif (
        isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim and obj.size
        and np.isfinite(obj).all()
    ):
        # finite floats: the same bytes as the element path below
        sep = ",\n" + "  " * (indent + obj.ndim)
        table = obj.astype(float, copy=False).reshape(-1, obj.shape[-1])
        rows = _format_table(table, ["%.12e"] * table.shape[1], [sep] * (table.shape[1] - 1) + [""])
        yield from _json_array(obj.shape, indent, rows)
    elif isinstance(obj, dict):
        for i, (k, v) in enumerate(obj.items()):
            yield (("," if i else "{") + inner + _json_escape(str(k)) + ": ").encode()
            yield from _json_chunks(v, indent + 1)
        yield ("\n" + pad + "}" if obj else "{}").encode()
    elif isinstance(obj, _JSON_CONTAINERS):  # an empty RotorLevels too
        for i, v in enumerate(obj):
            yield (("," if i else "[") + inner).encode()
            yield from _json_chunks(v, indent + 1)
        yield ("\n" + pad + "]" if len(obj) else "[]").encode()
    else:
        yield emit_json(obj).encode()


def _json_array(shape, indent: int, rows):
    """A float array as nested lists, its innermost rows taken from rows."""
    inner = ("\n" + "  " * (indent + 1)).encode()
    if len(shape) == 1:
        yield b"[" + inner + next(rows)
    else:
        for i in range(shape[0]):
            yield (b"," if i else b"[") + inner
            yield from _json_array(shape[1:], indent + 1, rows)
    yield ("\n" + "  " * indent + "]").encode()


def _level_list(levels: ro.RotorLevels, indent: int):
    """The level dicts of emit_json as table rows: every row but the last is
    followed by the opening of the next entry."""
    entry, key = "\n" + "  " * (indent + 1), "\n" + "  " * (indent + 2)
    opening = entry + "{" + key + '"j": '
    convs = ("%d", ro.PARITY_CLASSES, "%d", "%.12e", "%d")
    seps = (',' + key + '"parity": "', '",' + key + '"index": ', "," + key + '"energy": ',
            "," + key + '"degeneracy": ')
    more, last = seps + (entry + "}," + opening,), seps + (entry + "}",)
    yield ("[" + opening).encode()
    yield from _format_blocks(levels[:-1], convs, more, b"", _level_table)
    yield from _format_blocks(levels[-1:], convs, last, b"", _level_table)
    yield ("\n" + "  " * indent + "]").encode()


# -- outputs -------------------------------------------------------------------


@dataclass
class _Outputs:
    directory: Path
    written: list = field(default_factory=list)

    def write(self, name: str, chunks) -> Path:
        """Stream the UTF-8 chunks into directory/name.

        The path is recorded before the file is opened, so cleanup() also
        removes a file whose chunks raised midway.
        """
        path = self.directory / name
        self.written.append(path)
        with open(path, "wb") as fh:
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
    return nm.solve(g, parsed.force_field, b=b, masses=masses, unit_mode=unit_mode)


def _xyz_frames(molecule: mo.Molecule, result, job: JobSpec):
    """modes.xyz as UTF-8 chunks, two per animation frame."""
    labels = [atom.label for atom in molecule.atoms]
    # one row per frame; each z is followed by the next atom's label
    seps = [s for label in labels[1:] for s in (" ", " ", f"\n{label} ")] + [" ", " ", "\n"]
    freqs = result.frequencies_cm.tolist()
    per_block = max(1, FORMAT_BLOCK_VALUES // (job.frames * len(seps)))
    for first in range(0, result.nmodes, per_block):
        modes = range(first, min(first + per_block, result.nmodes))
        geoms = np.concatenate([
            nm.mode_animation(molecule, result.cart_displacements[:, i], job.amplitude, job.frames)
            for i in modes
        ])
        rows = _format_table(geoms.reshape(len(geoms), -1), ["%.10f"] * len(seps), seps)
        for (i, t), row in zip(itertools.product(modes, range(job.frames)), rows):
            header = f"{molecule.natoms}\nmode={i} freq={freqs[i]:.6f} frame={t}\n{labels[0]} "
            yield header.encode()
            yield row


# The (conversions, separators) of a levels.txt line, one table row per level
# with the columns of _level_table.
_LEVEL_LINE = (("%5d", tuple("%6s" % c for c in ro.PARITY_CLASSES), "%5d", "%14.6f", "%10d"),
               ("  ", "  ", " ", "  ", "\n"))


def _level_table(levels: ro.RotorLevels) -> np.ndarray:
    """(J, parity class code, index, energy, degeneracy) of each level, as floats."""
    return np.array((levels.j, levels.code, levels.index, levels.energy, 2 * levels.j + 1), float).T


def _levels_text(spec: ro.RotorSpec, levels: ro.RotorLevels):
    """levels.txt as UTF-8 chunks: the header, then blocks of level lines."""
    yield (
        f"# rotor: A={spec.a_const:.6f} B={spec.b_const:.6f} C={spec.c_const:.6f} "
        f"({spec.classification})\n"
        "#   J  parity  index        E(cm-1)  degeneracy\n"
    ).encode()
    yield from _format_blocks(levels, *_LEVEL_LINE, b"", _level_table)


def _trajectory_csv(times, states):
    """trajectory.csv as UTF-8 chunks: the header, then blocks of rows."""
    n = states.shape[1]
    yield ("t," + ",".join(f"x{i + 1}" for i in range(n)) + "\n").encode()
    step = max(1, FORMAT_BLOCK_VALUES // (n + 1))
    for i in range(0, len(times), step):
        block = np.column_stack((times[i : i + step], states[i : i + step]))
        yield from _format_blocks(block, ["%.12e"] * (n + 1), [","] * n + ["\n"])


# -- the task table ------------------------------------------------------------


def _check_modes(parsed: ParsedInput, job: JobSpec):
    xyz_values = job.frames * 3 * parsed.molecule.natoms * len(parsed.internal_coordinates)
    if xyz_values > XYZ_VALUES_MAX:
        raise ValidationError(
            f"--frames {job.frames} gives {xyz_values} modes.xyz values, "
            f"more than XYZ_VALUES_MAX = {XYZ_VALUES_MAX}"
        )


def _modes_task(parsed: ParsedInput, modes, job: JobSpec):
    mol, result = parsed.molecule, modes()
    ecd = wa.eckart_conditions_check(mol, result.l) if mol.dimensionality == 3 else None
    eckart = ecd and {"translational": ecd.translational, "rotational": ecd.rotational}
    section = {"lambdas": result.lambdas, "frequencies": result.frequencies_cm,
               "eckart_residuals": eckart}
    return section, [("modes.xyz", _xyz_frames(mol, result, job))]


def _check_dynamics(parsed: ParsedInput, job: JobSpec):
    if parsed.initial_conditions is None:
        raise ValidationError("dynamics task requires a [dynamics] section")


def _dynamics_task(parsed: ParsedInput, modes, job: JobSpec):
    result, ic, options = modes(), parsed.initial_conditions, parsed.dynamics_options
    times = np.linspace(0.0, options["t_end"], options["samples"])
    states = dyn.trajectory_closed_form(result, result.g_inv, ic, times)
    energy0 = float(
        0.5 * ic.beta_vel @ result.g_inv.entries @ ic.beta_vel
        + 0.5 * ic.kappa @ parsed.force_field.f.entries @ ic.kappa
    )
    if not (math.isfinite(energy0) and np.isfinite(states).all()):
        raise dyn.NonFiniteTrajectory("the trajectory or its energy is not finite")
    section = {"t_end": options["t_end"], "samples": options["samples"], "energy": energy0}
    return section, [("trajectory.csv", _trajectory_csv(times, states))]


def _check_watson(parsed: ParsedInput, job: JobSpec):
    if parsed.molecule.dimensionality != 3:
        raise ValidationError("watson-diagnostics requires a 3-dimensional molecule")
    if math.inf in mo.inertia(parsed.molecule).rotational_constants:
        raise ValidationError("watson-diagnostics requires a nonlinear molecule")


def _watson_task(parsed: ParsedInput, modes, job: JobSpec):
    mol, result = parsed.molecule, modes()
    cd = wa.coriolis_data(mol, result.l)
    sr = wa.sum_rule_residuals(cd, mol, result.l)
    ie = wa.inertia_expansion(mol, result.l, cd.a_coeff)
    section = {
        "zeta": cd.zeta,
        "interaction_coefficients": cd.a_coeff,
        "sum_rule_residuals": {"rule1": sr.rule1, "rule2": sr.rule2, "rule3": sr.rule3},
        "inertia_tensor": ie.i0,
        "watson_u0": wa.watson_u(ie, np.zeros(cd.n_modes), job.unit_mode),
    }
    return section, []


def _rotor_spec(parsed: ParsedInput, job: JobSpec) -> ro.RotorSpec:
    """The [rotor] constants, or those of the molecular inertia; the rotor check."""
    spec = parsed.rotor_spec or ro.rotor_spec_from_inertia(
        mo.inertia(parsed.molecule).rotational_constants)
    if spec is None:
        raise ValidationError("no [rotor] section and the molecular inertia is degenerate")
    return spec


def _rotor_task(parsed: ParsedInput, modes, job: JobSpec):
    spec = _rotor_spec(parsed, job)
    levels = ro.asymmetric_levels(spec, job.jmax)
    section = {
        "constants": {"a": spec.a_const, "b": spec.b_const, "c": spec.c_const},
        "classification": spec.classification,
        "jmax": job.jmax,
        "levels": levels,
    }
    return section, [("levels.txt", _levels_text(spec, levels))]


class _Task(NamedTuple):
    """check(parsed, job) raises ValidationError if the input cannot run the
    task; run(parsed, modes, job) returns (report section, [(file name,
    chunks)]), where modes() solves on its first call."""

    name: str  # the --tasks name
    key: str   # the report section
    check: object
    run: object


# The paper's order, which is the order of report.json's sections and of the writes.
_TASKS = (
    _Task("modes", "modes", _check_modes, _modes_task),
    _Task("dynamics", "dynamics", _check_dynamics, _dynamics_task),
    _Task("watson-diagnostics", "watson", _check_watson, _watson_task),
    _Task("rotor", "rotor", _rotor_spec, _rotor_task),
)
TASKS = tuple(task.name for task in _TASKS)


@np.errstate(all="ignore")  # a non-finite result is refused, not warned about
def run(job: JobSpec) -> int:
    """Execute a job; returns the process exit code."""
    outputs = _Outputs(directory=job.output_dir)
    try:
        parsed = parse_input(job.input_path)
        tasks = [task for task in _TASKS if task.name in job.tasks]
        # every precondition is checked before anything is solved or written
        for task in tasks:
            task.check(parsed, job)
        job.output_dir.mkdir(parents=True, exist_ok=True)
        modes = functools.cache(lambda: _solve_modes(parsed, job.unit_mode))
        report = {"input": job.input_path.name, "tasks": [task.name for task in tasks],
                  "unit_mode": job.unit_mode}
        for task in tasks:
            report[task.key], files = task.run(parsed, modes, job)
            for name, chunks in files:
                outputs.write(name, chunks)
        outputs.write("report.json", itertools.chain(_json_chunks(report, 0), [b"\n"]))
        return 0
    except (ParseError, ValidationError, OSError) as exc:
        outputs.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadformError, mo.MoleculeError, dyn.DynamicsError, wa.WatsonError, ro.RotorError,
            np.linalg.LinAlgError) as exc:
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
    analyze.add_argument("--tasks", default="modes",
                         help=f"comma-separated subset of: {', '.join(TASKS)}")
    analyze.add_argument("--out", default=".", help="output directory")
    analyze.add_argument("--units", default="cm", choices=UNIT_MODES, help="frequency units")
    analyze.add_argument("--jmax", type=int, default=5, help="highest rotor J")
    analyze.add_argument("--frames", type=int, default=20, help="animation frames per mode")
    analyze.add_argument("--amplitude", type=float, default=0.3,
                         help="animation amplitude (Angstrom)")
    args = parser.parse_args(argv)
    if args.command != "analyze":
        parser.print_usage(sys.stderr)
        return 2
    try:
        tasks = tuple(t.strip() for t in args.tasks.split(",") if t.strip())
        job = JobSpec(input_path=args.input, tasks=tasks, output_dir=args.out,
                      unit_mode=args.units, jmax=args.jmax, frames=args.frames,
                      amplitude=args.amplitude)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(job)


if __name__ == "__main__":
    sys.exit(main())
