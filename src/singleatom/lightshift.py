"""AC-Stark shifts, dipole potentials and photon scattering rates.

The module covers three levels of refinement for an alkali atom in a
far-detuned laser field:

* a two-level oscillator model (complex polarizability, dipole potential,
  scattering rate),
* the fine-structure D-line formula for the electronic ground state of an
  alkali with Lande factor g_J = 2,
* the full hyperfine-resolved shift of any |J, F, m_F> level, summing over
  all dipole couplings in a :class:`LineTable` with Wigner 6j and
  Clebsch-Gordan weights.

Sign convention: red detuning gives a negative (trapping) ground-state
shift.  Detuning denominators keep the counter-rotating term through the
effective detuning 1/D = 1/(w0-w) + 1/(w0+w), so the expressions stay valid
for trap lasers detuned by tens of nanometers.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from importlib import resources

from .angular import clebsch_gordan, wigner_6j
from .constants import (
    C,
    EPS0,
    HBAR,
    PI,
    RB87_GJ_GROUND,
    RB87_GROUND_HFS,
    RB87_TWO_I,
    angular_frequency,
)

__all__ = [
    "LaserField",
    "SpectralLine",
    "LineTable",
    "HyperfineLevel",
    "load_default_lines",
    "LineDataError",
    "classical_polarizability",
    "dipole_potential_two_level",
    "scattering_rate_two_level",
    "ground_shift_alkali",
    "scattering_rate_alkali",
    "hyperfine_shift",
    "mean_level_shift",
    "find_magic_wavelength",
]

LINE_DATA_ENV = "SINGLEATOM_LINE_DATA"


@dataclass(frozen=True)
class LaserField:
    """A monochromatic laser field: wavelength (m), intensity (W/m^2), polarization.

    ``epsilon`` is -1, 0 or +1 for sigma-, pi and sigma+ light; the string
    ``"linear"`` is accepted as an alias for 0.
    """

    wavelength: float
    intensity: float
    epsilon: int | str = 0

    def __post_init__(self):
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")
        if self.intensity < 0:
            raise ValueError("intensity must be nonnegative")
        eps = 0 if self.epsilon == "linear" else self.epsilon
        if eps not in (-1, 0, 1):
            raise ValueError("epsilon must be -1, 0, +1 or 'linear'")
        object.__setattr__(self, "epsilon", eps)

    @property
    def omega(self) -> float:
        return angular_frequency(self.wavelength)


@dataclass(frozen=True)
class SpectralLine:
    """One fine-structure dipole coupling between two named levels."""

    label: str
    lower: str
    upper: str
    wavelength: float     # m
    lifetime: float       # s, partial lifetime of the upper level (1/A)
    two_j_lower: int
    two_j_upper: int

    @property
    def omega(self) -> float:
        return angular_frequency(self.wavelength)

    @property
    def rate(self) -> float:
        """Partial decay rate A of the upper level into this channel (1/s)."""
        return 1.0 / self.lifetime


@dataclass(frozen=True)
class LineTable:
    """Immutable set of dipole couplings plus the nuclear spin."""

    lines: tuple[SpectralLine, ...]
    two_i: int = RB87_TWO_I

    def __post_init__(self):
        pairs = set()
        for line in self.lines:
            if line.wavelength <= 0 or line.lifetime <= 0:
                raise ValueError(f"line {line.label}: wavelength and lifetime must be positive")
            key = (line.lower, line.upper)
            if key in pairs:
                raise ValueError(f"duplicate coupling {key}")
            pairs.add(key)

    def couplings_of(self, level: str) -> list[tuple[SpectralLine, bool]]:
        """All lines touching ``level``; the flag is True when the partner lies above."""
        out = []
        for line in self.lines:
            if line.lower == level:
                out.append((line, True))
            elif line.upper == level:
                out.append((line, False))
        return out

    def get(self, lower: str, upper: str) -> SpectralLine:
        for line in self.lines:
            if line.lower == lower and line.upper == upper:
                return line
        raise KeyError(f"no line data for the coupling {lower} -> {upper}")


@dataclass(frozen=True)
class HyperfineLevel:
    """A hyperfine Zeeman level |n_label; J, F, m_F> with optional energy offset."""

    n_label: str
    two_j: int
    two_f: int
    two_m_f: int
    energy_offset: float = 0.0   # rad/s relative to the fine-structure level

    def __post_init__(self):
        if abs(self.two_m_f) > self.two_f:
            raise ValueError("|m_F| exceeds F")
        if not _triangle(self.two_j, RB87_TWO_I, self.two_f):
            raise ValueError("F incompatible with J and nuclear spin I=3/2")


def _triangle(ta, tb, tc):
    return (ta + tb + tc) % 2 == 0 and abs(ta - tb) <= tc <= ta + tb


class LineDataError(ValueError):
    """A line-data file that cannot be read or does not follow the schema."""


def load_lines(path: str) -> LineTable:
    """Load a line table from a JSON file (see data/rb87_lines.json for the schema).

    Raises ``LineDataError`` naming ``path`` when the file cannot be read,
    is not JSON, or lacks a schema key.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        return _table_from_dict(raw)
    except OSError as exc:
        raise LineDataError(f"line data {path}: {exc.strerror}") from exc
    except KeyError as exc:
        raise LineDataError(f"line data {path}: missing key {exc}") from exc
    except (ValueError, TypeError, AttributeError) as exc:
        raise LineDataError(f"line data {path}: {exc}") from exc


def _table_from_dict(raw: dict) -> LineTable:
    lines = tuple(
        SpectralLine(
            label=entry["label"],
            lower=entry["lower"],
            upper=entry["upper"],
            wavelength=entry["lambda_nm"] * 1e-9,
            lifetime=entry["lifetime_ns"] * 1e-9,
            two_j_lower=entry["two_j_lower"],
            two_j_upper=entry["two_j_upper"],
        )
        for entry in raw["lines"]
    )
    return LineTable(lines=lines, two_i=raw.get("nuclear_two_i", RB87_TWO_I))


_DEFAULT_TABLE: LineTable | None = None


def load_default_lines() -> LineTable:
    """The bundled Rb-87 table, or the file named by $SINGLEATOM_LINE_DATA."""
    global _DEFAULT_TABLE
    override = os.environ.get(LINE_DATA_ENV)
    if override:
        return load_lines(override)
    if _DEFAULT_TABLE is None:
        raw = json.loads(
            resources.files("singleatom.data").joinpath("rb87_lines.json").read_text()
        )
        _DEFAULT_TABLE = _table_from_dict(raw)
    return _DEFAULT_TABLE


# --- two-level oscillator model -------------------------------------------


def classical_polarizability(omega: float, omega0: float, gamma_on_res: float) -> complex:
    """Complex polarizability of a damped classical oscillator.

    alpha(w) = 6 pi eps0 c^3 * (G/w0^2) / (w0^2 - w^2 - i (w^3/w0^2) G)
    with G the on-resonance damping rate.
    """
    if omega0 <= 0:
        raise ValueError("omega0 must be positive")
    denom = omega0**2 - omega**2 - 1j * (omega**3 / omega0**2) * gamma_on_res
    return 6 * PI * EPS0 * C**3 * (gamma_on_res / omega0**2) / denom


def _check_detuning(omega, omega0):
    if omega == omega0:
        raise ValueError("zero detuning: dipole potential diverges in the RWA")


def dipole_potential_two_level(field: LaserField, omega0: float, gamma: float,
                               rwa: bool = False) -> float:
    """Two-level dipole potential (J) at the field's intensity.

    With ``rwa=False`` both resonant contributions are kept; with ``rwa=True``
    only the co-rotating G/Delta term survives (Delta = w - w0).
    """
    w = field.omega
    if rwa:
        _check_detuning(w, omega0)
        delta = w - omega0
        return 3 * PI * C**2 / (2 * omega0**3) * (gamma / delta) * field.intensity
    _check_detuning(w, omega0)
    return (
        -3 * PI * C**2 / (2 * omega0**3)
        * (gamma / (omega0 - w) + gamma / (omega0 + w))
        * field.intensity
    )


def scattering_rate_two_level(field: LaserField, omega0: float, gamma: float,
                              rwa: bool = False) -> float:
    """Two-level photon scattering rate (1/s); hbar*rate = (G/Delta)*U under the RWA."""
    w = field.omega
    _check_detuning(w, omega0)
    if rwa:
        delta = w - omega0
        return 3 * PI * C**2 / (2 * HBAR * omega0**3) * (gamma / delta) ** 2 * field.intensity
    lorentz = gamma / (omega0 - w) + gamma / (omega0 + w)
    return (
        3 * PI * C**2 / (2 * HBAR * omega0**3)
        * (w / omega0) ** 3 * lorentz**2
        * field.intensity
    )


# --- alkali D-line formulas -----------------------------------------------


def _effective_inverse_detuning(omega_line: float, omega: float) -> float:
    """1/D' = 1/(w0 - w) + 1/(w0 + w); positive for red detuning."""
    if omega == omega_line:
        raise ValueError("laser resonant with a line; detuning must be nonzero")
    return 1.0 / (omega_line - omega) + 1.0 / (omega_line + omega)


def _signed_detuning(omega_line: float, omega: float) -> float:
    """Effective detuning carrying the usual w - w0 sign (negative when red)."""
    return -1.0 / _effective_inverse_detuning(omega_line, omega)


def _d_lines(lines: LineTable) -> tuple[SpectralLine, SpectralLine]:
    d1 = lines.get("5S1/2", "5P1/2")
    d2 = lines.get("5S1/2", "5P3/2")
    return d1, d2


def ground_shift_alkali(field: LaserField, m_j: float, lines: LineTable) -> float:
    """Ground-state dipole potential (J) of an alkali atom with g_J = 2.

    Valid for detunings large compared to the hyperfine structure; for
    linear polarization the result does not depend on m_J, for circular
    polarization the vector term lifts the m_J = +-1/2 degeneracy.
    """
    d1, d2 = _d_lines(lines)
    eps = field.epsilon
    gjm = RB87_GJ_GROUND * m_j
    delta1 = _signed_detuning(d1.omega, field.omega)
    delta2 = _signed_detuning(d2.omega, field.omega)
    return (
        3 * PI * C**2 / 2
        * (
            d1.rate * (1 - eps * gjm) / (3 * d1.omega**3 * delta1)
            + d2.rate * (2 + eps * gjm) / (3 * d2.omega**3 * delta2)
        )
        * field.intensity
    )


def scattering_rate_alkali(field: LaserField, lines: LineTable) -> float:
    """Ground-state photon scattering rate (1/s) for linear polarization."""
    d1, d2 = _d_lines(lines)
    w = field.omega
    delta1 = w - d1.omega
    delta2 = w - d2.omega
    if delta1 == 0 or delta2 == 0:
        raise ValueError("laser resonant with a D line")
    return (
        PI * C**2 / (2 * HBAR)
        * (
            d1.rate**2 / (d1.omega**3 * delta1**2)
            + 2 * d2.rate**2 / (d2.omega**3 * delta2**2)
        )
        * field.intensity
    )


# --- hyperfine-resolved light shifts --------------------------------------

# Ground 5S1/2 hyperfine level energies relative to the center of gravity,
# in units of the magnetic-dipole constant A = HFS/2: E_F = K/2 * A with
# K = F(F+1) - I(I+1) - J(J+1).
_GROUND_HFS_OFFSET = {
    2: 0.75 * RB87_GROUND_HFS / 2,    # two_f = 4
    1: -1.25 * RB87_GROUND_HFS / 2,   # two_f = 2
}


def _ground_offset(level_label: str, two_f: int) -> float:
    if level_label != "5S1/2":
        return 0.0  # excited hyperfine splittings neglected at these detunings
    return _GROUND_HFS_OFFSET[two_f // 2]


def _reduced_pair_strength(line: SpectralLine) -> float:
    """|<J_lower || e r || J_upper>|^2 from the pair lifetime (C^2 m^2)."""
    return (
        3 * PI * EPS0 * HBAR * C**3 / line.omega**3
        * (line.two_j_upper + 1) / (line.two_j_lower + 1)
        * line.rate
    )


def hyperfine_shift(level: HyperfineLevel, field: LaserField, lines: LineTable) -> float:
    """Light shift (rad/s) of one hyperfine Zeeman level.

    Sums over every coupling of the level's fine-structure state in the
    table; upward and downward couplings enter with opposite signs of the
    effective detuning.  Raises ``KeyError`` naming the coupling when the
    table lacks a required line.
    """
    couplings = lines.couplings_of(level.n_label)
    if not couplings:
        raise KeyError(f"no line data couples to level {level.n_label!r}")
    two_i = lines.two_i
    eps = field.epsilon
    w = field.omega
    tf, tmf = level.two_f, level.two_m_f
    tj = level.two_j

    shift = 0.0
    for line, partner_above in couplings:
        if partner_above:
            tjp = line.two_j_upper
            red_sq = _reduced_pair_strength(line)
        else:
            tjp = line.two_j_lower
            # reversed reduced element (completeness sum rule):
            # |<J_up||er||J_lo>|^2 = (2J_lo+1)/(2J_up+1) |<J_lo||er||J_up>|^2
            red_sq = _reduced_pair_strength(line) * (line.two_j_lower + 1) / (line.two_j_upper + 1)

        level_offset = _ground_offset(level.n_label, tf)
        tmf_p = tmf - 2 * eps
        for tfp in range(abs(tjp - two_i), tjp + two_i + 1, 2):
            if abs(tmf_p) > tfp:
                continue
            partner_label = line.upper if partner_above else line.lower
            omega_pair = line.omega - level_offset - _ground_offset(partner_label, tfp)
            inv_det = _effective_inverse_detuning(omega_pair, w)
            if not partner_above:
                inv_det = -inv_det
            six_j = wigner_6j(tj / 2, tjp / 2, 1, tfp / 2, tf / 2, two_i / 2)
            cg = clebsch_gordan(tfp / 2, tmf_p / 2, 1, eps, tf / 2, tmf / 2)
            weight = (tfp + 1) * (tj + 1) * six_j**2 * cg**2
            # energy shift in J, one more hbar converts to rad/s
            shift += -field.intensity / (2 * EPS0 * C * HBAR) * red_sq * weight * inv_det
    return shift / HBAR


def mean_level_shift(level_label: str, two_j: int, field: LaserField,
                     lines: LineTable) -> float:
    """Scalar light shift (J) of a fine-structure level, Zeeman-averaged.

    Equal occupation of the magnetic sublevels removes the vector and tensor
    parts, leaving a polarization-independent scalar shift.  Used for the
    ground/excited comparison behind the magic-wavelength search.
    """
    couplings = lines.couplings_of(level_label)
    if not couplings:
        raise KeyError(f"no line data couples to level {level_label!r}")
    w = field.omega
    total = 0.0
    for line, partner_above in couplings:
        inv_det = _effective_inverse_detuning(line.omega, w)
        if partner_above:
            g = (line.two_j_upper + 1) / (line.two_j_lower + 1)
            total += -PI * C**2 / (2 * line.omega**3) * g * line.rate * inv_det
        else:
            total += +PI * C**2 / (2 * line.omega**3) * line.rate * inv_det
    return total * field.intensity


def _shift_difference(wavelength: float, intensity: float, lines: LineTable,
                      excited: str, excited_two_j: int) -> float:
    field = LaserField(wavelength=wavelength, intensity=intensity, epsilon=0)
    ground = mean_level_shift("5S1/2", 1, field, lines)
    upper = mean_level_shift(excited, excited_two_j, field, lines)
    return ground - upper


def find_magic_wavelength(lines: LineTable, bracket: tuple[float, float],
                          excited: str = "5P3/2", excited_two_j: int = 3,
                          rel_tol: float = 1e-4) -> float:
    """Wavelength (m) where ground and Zeeman-averaged excited shifts cross.

    The bracket is split at every line resonance of either level so that
    bisection only ever sees genuine sign changes of the continuous shift
    difference, not poles.  Raises ``ValueError`` when the bracket contains
    no crossing.
    """
    lo, hi = bracket
    if not 0 < lo < hi:
        raise ValueError("bracket must satisfy 0 < lo < hi")
    intensity = 1e7  # arbitrary; the crossing is intensity-independent

    resonances = sorted(
        line.wavelength
        for line, _ in lines.couplings_of("5S1/2") + lines.couplings_of(excited)
        if lo < line.wavelength < hi
    )
    edges = [lo] + resonances + [hi]
    pad = 1e-4  # keep clear of the poles, relative

    roots = []
    for a, b in zip(edges[:-1], edges[1:]):
        a_in = a * (1 + pad) if a in resonances else a
        b_in = b * (1 - pad) if b in resonances else b
        if a_in >= b_in:
            continue
        fa = _shift_difference(a_in, intensity, lines, excited, excited_two_j)
        fb = _shift_difference(b_in, intensity, lines, excited, excited_two_j)
        if fa == 0.0:
            roots.append(a_in)
            continue
        if fa * fb > 0:
            continue
        x0, x1, f0 = a_in, b_in, fa
        while (x1 - x0) / x0 > rel_tol:
            mid = 0.5 * (x0 + x1)
            fm = _shift_difference(mid, intensity, lines, excited, excited_two_j)
            if fm == 0.0:
                x0 = x1 = mid
                break
            if f0 * fm < 0:
                x1 = mid
            else:
                x0, f0 = mid, fm
        roots.append(0.5 * (x0 + x1))

    if not roots:
        raise ValueError("no ground/excited shift crossing inside the bracket")
    return roots[0]
