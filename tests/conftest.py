import ctypes
import math
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from vibrot import molecule as mo
from vibrot import normalmodes as nm
from vibrot import rotor as ro
from vibrot.quadform import SymMatrix

FIXTURES = Path(__file__).parent / "fixtures"

# GF solves and Watson sums vary in cost from example to example, so no test
# has a per-example deadline; each keeps its own max_examples.
settings.register_profile("vibrot", deadline=None)
settings.load_profile("vibrot")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, such as an unreaped
    modes.xyz writer."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind ({'running' if pid == 0 else 'unreaped'})")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_spd(rng, n, cond=100.0):
    """Random symmetric positive definite matrix with bounded conditioning."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    vals = np.exp(rng.uniform(0.0, np.log(cond), size=n))
    return SymMatrix((q * vals) @ q.T)


def two_mass_system(m=1.0, k=1.0):
    """The two-mass/three-spring fixture: returns (g, force_field)."""
    g = SymMatrix.diagonal([1.0 / m, 1.0 / m])
    f = nm.ForceField(f=SymMatrix([[2.0 * k, -k], [-k, 2.0 * k]]))
    return g, f


def water_molecule():
    return mo.Molecule.from_lists(
        ["O", "H", "H"],
        [15.999, 1.008, 1.008],
        [
            [0.0, 0.000000, 0.117176],
            [0.0, 0.757200, -0.468706],
            [0.0, -0.757200, -0.468706],
        ],
    )


def water_pipeline():
    """Full GF pipeline on the bent triatomic; returns (mol, b, masses, g, result)."""
    mol = water_molecule()
    ics = mo.InternalCoordinateSet(
        (mo.BondStretch(0, 1), mo.BondStretch(0, 2), mo.AngleBend(1, 0, 2))
    )
    b = mo.build_b_matrix(mol, ics)
    masses = mo.MassMatrix.from_molecule(mol)
    g = mo.build_g_matrix(b, masses)
    result = nm.solve(g, WATER_F, b=b, masses=masses)
    return mol, b, masses, g, result


WATER_F = nm.ForceField(
    f=SymMatrix([[8.45, -0.10, 0.25], [-0.10, 8.45, 0.25], [0.25, 0.25, 0.70]])
)
# Masses (amu) of the water fixture's isotopologues: 16O or 18O, each H or D.
water_isotopologue = st.tuples(
    st.sampled_from((15.999, 17.999)),
    st.sampled_from((1.008, 2.014)),
    st.sampled_from((1.008, 2.014)),
)


def bent_triatomic(masses, r1, r2, theta, tilt=0.0):
    """Water-like molecule in the yz-plane (x out of plane): atom 0 bonded to
    atoms 1 and 2 at r1 and r2 Angstrom with the angle theta (rad) between
    them, turned by tilt (rad) about x.  Returns (mol, g, result) of the GF
    solve with the water force field."""
    h = 0.5 * theta
    pos = np.array([[0.0, 0.0, 0.0],
                    [0.0, r1 * math.sin(h), -r1 * math.cos(h)],
                    [0.0, -r2 * math.sin(h), -r2 * math.cos(h)]])
    c, s = math.cos(tilt), math.sin(tilt)
    pos = pos @ np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])
    mol = mo.Molecule.from_lists(["O", "H", "H"], masses, pos)
    ics = mo.InternalCoordinateSet(
        (mo.BondStretch(0, 1), mo.BondStretch(0, 2), mo.AngleBend(1, 0, 2))
    )
    b = mo.build_b_matrix(mol, ics)
    m = mo.MassMatrix.from_molecule(mol)
    g = mo.build_g_matrix(b, m)
    return mol, g, nm.solve(g, WATER_F, b=b, masses=m)


@pytest.fixture(scope="session")
def water():
    return water_pipeline()


def dense_band_blocks(spec, j):
    """[(parity class, dense Wang block)] of one J, each block placed element
    by element from the band of H (d[k + J] = H[k, k], o[k + J] = H[k, k + 2]):
    the dense matrices the dense eigvalsh saw, built without the module's
    block builder."""
    d, o = ro._band(spec, j)
    blocks = []
    for cls, start in zip(ro.PARITY_CLASSES, (0, 2, 1, 1)):
        ks = range(start, j + 1, 2)
        h = np.zeros((len(ks), len(ks)))
        for i, k in enumerate(ks):
            h[i, i] = d[k + j]
            if i:
                h[i - 1, i] = h[i, i - 1] = o[k - 2 + j]
        if cls == "E+" and j >= 2:
            h[0, 1] = h[1, 0] = math.sqrt(2.0) * o[j]  # <0| H |2,+>
        elif cls in ("O+", "O-") and j >= 1:
            h[0, 0] += o[j - 1] if cls == "O+" else -o[j - 1]  # +- H[1, -1]
        blocks.append((cls, h))
    return blocks


def levels_by_tuple_sort(spec, jmax):
    """Rotor levels as RotorLevel objects, each J ordered by sorting
    (energy, parity class, index) tuples: the ordering the array form keeps.
    The energies are dense eigvalsh's, on dense_band_blocks."""
    levels = []
    for j in range(jmax + 1):
        entries = []
        for cls, sub in dense_band_blocks(spec, j):
            entries.extend((e, cls, i) for i, e in enumerate(np.linalg.eigvalsh(sub).tolist()))
        entries.sort()
        levels.extend(ro.RotorLevel(j, cls, i, e, 2 * j + 1) for e, cls, i in entries)
    return levels


def failed_dsterf_lookup(failure, tmp_path):
    """(library directory, symbol) for which rotor._dsterf fails as named."""
    if failure == "no-directory":
        return tmp_path / "missing", "scipy_dsterf_64_"
    if failure == "not-a-library":
        (tmp_path / "libscipy_openblas64_-0.so").write_bytes(b"not a shared library")
    if failure in ("no-file", "not-a-library"):
        return tmp_path, "scipy_dsterf_64_"
    assert failure == "no-symbol"
    return Path(np.__file__).parents[1] / "numpy.libs", "scipy_no_such_symbol_64_"


def set_usable_cpus(monkeypatch, n):
    """Make the process look as if it could run on n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


def failing_dsterf(dsterf, fail_here):
    """A foreign function with dsterf's arguments that runs dsterf, except on
    the first block for which fail_here() is true: there it leaves the block
    as it is and returns info = 1, as dsterf does when it does not converge."""
    failed = []

    @ctypes.CFUNCTYPE(None, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p)
    def stub(n, d, e, info):
        if not failed and fail_here():
            failed.append(threading.current_thread())
            ctypes.c_int64.from_address(info).value = 1
        else:
            dsterf(n, d, e, info)

    stub.failed = failed
    return stub


def on_helper_thread():
    return threading.current_thread() is not threading.main_thread()
