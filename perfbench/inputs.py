"""Seeded input files for the benchmark workloads.

Every input is described twice: as the text file that `vibrot analyze`
reads, and as the arrays the verifier's oracle works from.  The arrays are
parsed back from the formatted text, so both sides see the same rounded
numbers.

Synthetic molecules are Z-matrix chains: atom k is bonded to k-1, bent at
k-1 against k-2 and twisted about (k-2, k-1) against k-3, which gives the
3N-6 coordinates (N-1 stretches, N-2 bends, N-3 torsions) of a nonlinear
molecule.  F is diagonally dominant once scaled by its diagonal: each
coordinate couples only to its two neighbours in the list, with at most a
tenth of the geometric mean of the two diagonal entries, so F stays
positive definite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# Mono-isotopic masses (amu) of C, N, O, F and S; heavy atoms keep cond(G) moderate.
CHAIN_MASSES = (12.0, 14.003074, 15.994915, 18.998403, 31.972071)
CHAIN_LABELS = ("C", "N", "O", "F", "S")

DIAG_RANGE = {"stretch": (4.0, 8.0), "bend": (0.5, 1.0), "torsion": (0.05, 0.2)}
COUPLING_MAX = 0.1


@dataclass
class Input:
    """One input file plus the data the oracle needs to check its outputs."""

    name: str
    labels: list
    masses: np.ndarray          # (natoms,)
    positions: np.ndarray       # (natoms, 3), as written to the file
    dim: int
    coords: list                # ("stretch", i, j) | ("bend", i, j, k) | ... 0-based
    f: np.ndarray               # (n, n) force constants, as written
    rotor: Optional[tuple] = None        # (a, b, c) from a [rotor] section
    dynamics: Optional[dict] = None      # kappa, beta, t_end, samples
    cond_g: float = field(default=float("nan"))
    text: str = ""
    generated: bool = False     # a seeded synthetic molecule, not a fixed input

    @property
    def natoms(self) -> int:
        return len(self.labels)

    @property
    def ncoords(self) -> int:
        return len(self.coords)

    def describe(self) -> str:
        return (
            f"{self.name}: {self.natoms} atoms, {self.ncoords} coordinates, "
            f"cond(G) = {self.cond_g:.3e}"
        )


def _fmt(x: float, digits: int) -> str:
    return f"{x:.{digits}f}"


def _rounded(values, digits: int) -> np.ndarray:
    return np.array([float(_fmt(v, digits)) for v in np.ravel(values)]).reshape(
        np.shape(values)
    )


def _render(inp: Input) -> str:
    lines = [f"# {inp.name}", "[molecule]", f"dimensionality = {inp.dim}", "", "[atoms]"]
    for label, m, p in zip(inp.labels, inp.masses, inp.positions):
        lines.append(f"{label} {float(m)!r} {_fmt(p[0], 10)} {_fmt(p[1], 10)} {_fmt(p[2], 10)}")
    lines += ["", "[internal_coordinates]"]
    axis_names = "xyz"
    for c in inp.coords:
        if c[0] == "cart":
            lines.append(f"cart {c[1] + 1} {axis_names[c[2]]}")
        else:
            lines.append(c[0] + " " + " ".join(str(a + 1) for a in c[1:]))
    lines += ["", "[force_constants]"]
    for i in range(inp.ncoords):
        lines.append(" ".join(repr(float(v)) if v else "0" for v in inp.f[i, : i + 1]))
    if inp.rotor is not None:
        lines += ["", "[rotor]"] + [f"{k} = {float(v)!r}" for k, v in zip("abc", inp.rotor)]
    if inp.dynamics is not None:
        d = inp.dynamics
        lines += [
            "",
            "[dynamics]",
            "kappa = " + " ".join(repr(float(v)) for v in d["kappa"]),
            "beta = " + " ".join(repr(float(v)) for v in d["beta"]),
            f"t_end = {float(d['t_end'])!r}",
            f"samples = {d['samples']}",
        ]
    return "\n".join(lines) + "\n"


def _finish(inp: Input) -> Input:
    from oracle import g_matrix  # local import: oracle imports this module

    inp.positions = _rounded(inp.positions, 10)
    inp.cond_g = float(np.linalg.cond(g_matrix(inp)))
    inp.text = _render(inp)
    return inp


def _place(prev3, r, theta, phi):
    """Position bonded to prev3[2] at distance r, angle theta, dihedral phi."""
    a, b, c = prev3
    bc = c - b
    bc /= np.linalg.norm(bc)
    n = np.cross(b - a, bc)
    n /= np.linalg.norm(n)
    m = np.cross(n, bc)
    return c + r * (
        -math.cos(theta) * bc
        + math.sin(theta) * math.cos(phi) * m
        + math.sin(theta) * math.sin(phi) * n
    )


def chain(name: str, natoms: int, rng: np.random.Generator, samples: int = 0) -> Input:
    """Z-matrix chain of `natoms` atoms; a [dynamics] section when samples > 0."""
    if natoms < 3:
        raise ValueError("a nonlinear chain needs at least 3 atoms")
    species = rng.integers(len(CHAIN_MASSES), size=natoms)
    bonds = rng.uniform(1.3, 1.6, size=natoms)
    angles = np.radians(rng.uniform(100.0, 130.0, size=natoms))
    dihedrals = np.radians(
        rng.choice([180.0, 60.0, -60.0], size=natoms) + rng.normal(0.0, 10.0, size=natoms)
    )
    pos = np.zeros((natoms, 3))
    pos[1] = [bonds[1], 0.0, 0.0]
    pos[2] = pos[1] + bonds[2] * np.array([-math.cos(angles[2]), math.sin(angles[2]), 0.0])
    for k in range(3, natoms):
        pos[k] = _place(pos[k - 3 : k].copy(), bonds[k], angles[k], dihedrals[k])

    coords = []
    for k in range(1, natoms):
        coords.append(("stretch", k - 1, k))
        if k >= 2:
            coords.append(("bend", k - 2, k - 1, k))
        if k >= 3:
            coords.append(("torsion", k - 3, k - 2, k - 1, k))
    n = len(coords)
    diag = np.array([rng.uniform(*DIAG_RANGE[c[0]]) for c in coords])
    f = np.diag(diag)
    eps = rng.uniform(-COUPLING_MAX, COUPLING_MAX, size=n - 1)
    off = eps * np.sqrt(diag[:-1] * diag[1:])
    f[np.arange(n - 1), np.arange(1, n)] = off
    f[np.arange(1, n), np.arange(n - 1)] = off
    f = _rounded(f, 6)

    dynamics = None
    if samples:
        dynamics = {
            "kappa": _rounded(rng.uniform(-0.02, 0.02, size=n), 6),
            "beta": _rounded(rng.uniform(-0.01, 0.01, size=n), 6),
            "t_end": 10.0,
            "samples": samples,
        }
    return _finish(
        Input(
            name=name,
            labels=[CHAIN_LABELS[s] for s in species],
            masses=np.array([CHAIN_MASSES[s] for s in species]),
            positions=pos,
            dim=3,
            coords=coords,
            f=f,
            dynamics=dynamics,
            generated=True,
        )
    )


def twomass() -> Input:
    """The bundled two-mass, three-spring 1-D fixture."""
    return _finish(
        Input(
            name="twomass",
            labels=["m1", "m2"],
            masses=np.array([1.0, 1.0]),
            positions=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            dim=1,
            coords=[("cart", 0, 0), ("cart", 1, 0)],
            f=np.array([[2.0, -1.0], [-1.0, 2.0]]),
            rotor=(3.0, 2.0, 1.0),
            dynamics={
                "kappa": np.array([0.1, 0.1]),
                "beta": np.array([0.0, 0.0]),
                "t_end": 10.0,
                "samples": 101,
            },
        )
    )


# Isotopologues of the water fixture: (name, O mass, H mass, H mass).
WATER_ISOTOPOLOGUES = (
    ("water", 15.999, 1.008, 1.008),
    ("water-hd", 15.999, 1.008, 2.014),
    ("water-d2", 15.999, 2.014, 2.014),
    ("water-18o", 17.999, 1.008, 1.008),
    ("water-18o-hd", 17.999, 1.008, 2.014),
    ("water-18o-d2", 17.999, 2.014, 2.014),
)


def water(variant: int = 0) -> Input:
    """The bundled water fixture, or one of its isotopologues."""
    name, mo, mh1, mh2 = WATER_ISOTOPOLOGUES[variant]
    return _finish(
        Input(
            name=name,
            labels=["O", "H", "H"],
            masses=np.array([mo, mh1, mh2]),
            positions=np.array(
                [[0.0, 0.0, 0.117176], [0.0, 0.7572, -0.468706], [0.0, -0.7572, -0.468706]]
            ),
            dim=3,
            coords=[("stretch", 0, 1), ("stretch", 0, 2), ("bend", 1, 0, 2)],
            f=np.array([[8.45, -0.10, 0.25], [-0.10, 8.45, 0.25], [0.25, 0.25, 0.70]]),
        )
    )
