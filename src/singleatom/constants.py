"""Physical constants, unit conversions, the Rb-87 species constants and the
uniform time grid.

The fundamental constants are CODATA 2022 values written as literals; they
equal the values of :mod:`scipy.constants` 1.17 bit for bit, without paying
for its import.  The Rb-87 constants are those the line table
(``data/rb87_lines.json``, the only home of line wavelengths and lifetimes)
does not carry: mass, nuclear spin, g_J, hyperfine splittings, saturation
intensities and the D2 linewidth of the Bloch models.  The grid rule
``linspace`` lives here because the CLI and the g2 kernels of ``obe`` both
use it and every run already loads this module.
"""

import math

PI = math.pi
TWO_PI = 2.0 * math.pi

C = 299792458.0  # m/s
H = 6.62607015e-34  # J s
HBAR = H / (2 * math.pi)
KB = 1.380649e-23  # J/K
EPS0 = 8.8541878188e-12  # F/m
MU_B = 9.2740100657e-24  # J/T
ATOMIC_MASS = 1.66053906892e-27  # kg

# Rb-87 bulk properties
RB87_MASS = 86.9092 * ATOMIC_MASS
RB87_TWO_I = 3  # nuclear spin I = 3/2, stored doubled

# Natural linewidth of the D2 line used by the Bloch models.  Kept as the
# measured 6.065 MHz rather than derived from the table's 26.24 ns lifetime,
# which would make it 5.9e-5 larger and move every g2 value.
RB87_GAMMA_D2 = TWO_PI * 6.065e6

# Hyperfine structure
RB87_GROUND_HFS = TWO_PI * 6.83468e9        # F=1 <-> F=2 splitting of 5S1/2
RB87_5P32_F2_F3_SPLITTING = TWO_PI * 266.65e6  # F'=2 <-> F'=3 of 5P3/2

# Saturation intensities (W/m^2) for an isotropically polarized pump field,
# per hyperfine transition of the D2 line.  1 mW/cm^2 = 10 W/m^2.
RB87_ISAT_F1_F2 = 60.1    # F=1 -> F'=2
RB87_ISAT_F2_F2 = 100.1   # F=2 -> F'=2
RB87_ISAT_F2_F3 = 35.8    # F=2 -> F'=3

# Lande factor of the electronic ground state (used for vector light shifts)
RB87_GJ_GROUND = 2.0

MW_PER_CM2 = 10.0  # W/m^2 per mW/cm^2


def intensity_from_mw_cm2(value: float) -> float:
    """Convert an intensity in mW/cm^2 to W/m^2."""
    return value * MW_PER_CM2


def rabi_frequency(intensity: float, i_sat: float) -> float:
    """Rabi rate (rad/s) Gamma sqrt(I / 2 I_sat) of a D2 transition; I, I_sat in W/m^2."""
    return RB87_GAMMA_D2 * math.sqrt(intensity / (2 * i_sat))


def angular_frequency(wavelength: float) -> float:
    """Angular frequency (rad/s) of light with the given vacuum wavelength (m)."""
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    return TWO_PI * C / wavelength


def linspace(stop: float, points: int) -> list[float]:
    """``np.linspace(0.0, stop, points)`` bit for bit where the step
    stop / (points - 1) is positive or stop is 0: k * step + 0.0, and the
    last point is stop.  A step that underflows to 0 is refused before the
    grid is built (the CLI's checks of g2 and larmor, ``obe._step``)."""
    step = stop / (points - 1)
    return [k * step + 0.0 for k in range(points - 1)] + [stop]
