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
