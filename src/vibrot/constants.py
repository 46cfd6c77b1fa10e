"""Physical constants and unit conversions shared across the package.

All conversion factors are derived at import time from CODATA 2018 values
(h and c are exact in SI), never hardcoded downstream.  Working units are
amu for masses, Angstrom for lengths, aJ for energies and cm^-1 for
spectroscopic quantities.
"""

import math

# CODATA 2018
PLANCK_H = 6.62607015e-34          # J s (exact)
SPEED_OF_LIGHT_CM = 2.99792458e10  # cm / s (exact)
ATOMIC_MASS_KG = 1.66053906660e-27  # kg

# B [cm^-1] = ROTATIONAL_CM / I [amu Angstrom^2], i.e. h / (8 pi^2 c I).
ROTATIONAL_CM = PLANCK_H / (
    8.0 * math.pi**2 * SPEED_OF_LIGHT_CM * ATOMIC_MASS_KG * 1.0e-20
)

# nu [cm^-1] = WAVENUMBER_CM * sqrt(lambda [aJ Angstrom^-2 amu^-1]):
# sqrt(lambda) is an angular frequency once aJ/(Angstrom^2 amu) is taken
# to SI, and nu = omega / (2 pi c).
WAVENUMBER_CM = math.sqrt(1.0e-18 / (ATOMIC_MASS_KG * 1.0e-20)) / (
    2.0 * math.pi * SPEED_OF_LIGHT_CM
)

# The unit modes: name -> (frequency factor, U factor).  A frequency is its
# factor times sqrt(lambda); the Watson U = -(hbar^2 / 8) Tr mu, with inertia
# in amu Angstrom^2, is -(U factor) Tr mu.  natural takes hbar = 1; cm gives
# cm^-1, with hbar^2 / (8 h c) = (1/4) h / (8 pi^2 c).  Rotational constants
# are cm^-1 in both modes.
UNIT_MODES = {"natural": (1.0, 1.0 / 8.0), "cm": (WAVENUMBER_CM, ROTATIONAL_CM / 4.0)}


def unit_factors(unit_mode) -> tuple:
    """The (frequency, U) factors of a unit mode: the one check of unit names."""
    if isinstance(unit_mode, str) and unit_mode in UNIT_MODES:
        return UNIT_MODES[unit_mode]
    raise ValueError(f"unit mode must be one of {', '.join(UNIT_MODES)}")
