"""AC-Stark shifts, dipole potentials and photon scattering rates.

The module covers two levels of refinement for an alkali atom in a
far-detuned laser field:

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

import functools
import json
import os
import sys
from dataclasses import dataclass

from .angular import _triangle_ok, clebsch_gordan, wigner_6j
from .constants import (
    C,
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
    "ground_shift_alkali",
    "scattering_rate_alkali",
    "hyperfine_shift",
    "mean_level_shift",
    "find_magic_wavelength",
    "shortest_resolved_wavelength",
]

LINE_DATA_ENV = "SINGLEATOM_LINE_DATA"


@dataclass(frozen=True)
class LaserField:
    """A monochromatic laser field: wavelength (m), intensity (W/m^2), polarization.

    ``epsilon`` is -1, 0 or +1 for sigma-, pi and sigma+ light.
    """

    wavelength: float
    intensity: float
    epsilon: int = 0

    def __post_init__(self):
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")
        if self.intensity < 0:
            raise ValueError("intensity must be nonnegative")
        if self.epsilon not in (-1, 0, 1):
            raise ValueError("epsilon must be -1, 0 or +1")

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
    """Immutable set of dipole couplings."""

    lines: tuple[SpectralLine, ...]

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

    def d_lines(self) -> tuple[SpectralLine, SpectralLine]:
        """The D1 and D2 couplings of the 5S1/2 ground state."""
        return self.get("5S1/2", "5P1/2"), self.get("5S1/2", "5P3/2")

    def get(self, lower: str, upper: str) -> SpectralLine:
        for line in self.lines:
            if line.lower == lower and line.upper == upper:
                return line
        raise KeyError(f"no line data for the coupling {lower} -> {upper}")


@dataclass(frozen=True)
class HyperfineLevel:
    """A hyperfine Zeeman level |n_label; J, F, m_F>."""

    n_label: str
    two_j: int
    two_f: int
    two_m_f: int

    def __post_init__(self):
        if abs(self.two_m_f) > self.two_f:
            raise ValueError("|m_F| exceeds F")
        if not _triangle_ok(self.two_j, RB87_TWO_I, self.two_f):
            raise ValueError("F incompatible with J and nuclear spin I=3/2")


class LineDataError(ValueError):
    """A line-data file that cannot be read or does not follow the schema."""


def load_lines(path: str) -> LineTable:
    """Load a line table from a JSON file (see data/rb87_lines.json for the schema).

    Raises ``LineDataError`` naming ``path`` when the file cannot be read,
    is not JSON, lacks a schema key, or lacks the D1 or D2 line of 5S1/2.
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
    # the hyperfine sums use Rb-87's I = 3/2 (RB87_TWO_I); a table may only confirm it
    declared = raw.get("nuclear_two_i", RB87_TWO_I)
    if declared != RB87_TWO_I:
        raise ValueError(f"nuclear_two_i must be {RB87_TWO_I} (Rb-87), got {declared!r}")
    table = LineTable(lines=lines)
    try:
        table.d_lines()  # every trap computation starts from them
    except KeyError as exc:
        raise ValueError(f"{exc.args[0]}, a D line of the ground state") from None
    return table


_BUNDLED_LINE_DATA = os.path.join(os.path.dirname(__file__), "data", "rb87_lines.json")


@functools.lru_cache(maxsize=8)
def _cached_lines(path: str, mtime_ns: int, size: int) -> LineTable:
    return load_lines(path)


def load_default_lines() -> LineTable:
    """The file named by $SINGLEATOM_LINE_DATA, or the bundled Rb-87 table.

    Each table is read once per file version (path, mtime, size), so a
    rewritten file is read again.
    """
    path = os.environ.get(LINE_DATA_ENV) or _BUNDLED_LINE_DATA
    try:
        stat = os.stat(path)
    except OSError as exc:
        raise LineDataError(f"line data {path}: {exc.strerror}") from exc
    return _cached_lines(path, stat.st_mtime_ns, stat.st_size)


# --- alkali D-line formulas -----------------------------------------------


def _effective_inverse_detuning(omega_line: float, omega: float) -> float:
    """1/D' = 1/(w0 - w) + 1/(w0 + w); positive for red detuning."""
    if omega == omega_line:
        raise ValueError("laser resonant with a line; detuning must be nonzero")
    return 1.0 / (omega_line - omega) + 1.0 / (omega_line + omega)


def _signed_detuning(omega_line: float, omega: float) -> float:
    """Effective detuning carrying the usual w - w0 sign (negative when red)."""
    return -1.0 / _effective_inverse_detuning(omega_line, omega)


def ground_shift_alkali(field: LaserField, m_j: float, lines: LineTable) -> float:
    """Ground-state dipole potential (J) of an alkali atom with g_J = 2.

    Valid for detunings large compared to the hyperfine structure; for
    linear polarization the result does not depend on m_J, for circular
    polarization the vector term lifts the m_J = +-1/2 degeneracy.
    """
    d1, d2 = lines.d_lines()
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
    d1, d2 = lines.d_lines()
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


def _scalar_terms(level_label: str, two_f: int | None, field: LaserField,
                  lines: LineTable):
    """(2J, c, 2F') of every coupling of a level, J and J' read from the table.

    c (J per W/m^2) is the scalar shift coefficient: the line strength times
    the effective inverse detuning 1/D'.  Without ``two_f`` there is one term
    per line at the fine-structure detuning (2F' None); with it, one per
    partner F' at the hyperfine-resolved detuning, weighted by
    (2F'+1)(2J+1){J J' 1; F' F I}^2.  The weights sum to one over F' and
    sum_m <F' m-q; 1 q|F m>^2 = (2F+1)/3 for any q, so the m_F mean of a
    sublevel shift is sum(c) * I, the scalar part alone (Le Kien,
    Schneeweiss & Rauschenbeutel, Eur. Phys. J. D 67, 92 (2013)).
    """
    couplings = lines.couplings_of(level_label)
    if not couplings:
        raise KeyError(f"no line data couples to level {level_label!r}")
    for line, partner_above in couplings:
        if partner_above:
            tj, tjp, partner = line.two_j_lower, line.two_j_upper, line.upper
            # |<J_up||er||J_lo>|^2 = (2J_up+1)/(2J_lo+1) |<J_lo||er||J_up>|^2
            g = -(tjp + 1) / (tj + 1)
        else:
            tj, tjp, partner = line.two_j_upper, line.two_j_lower, line.lower
            g = 1.0
        strength = PI * C**2 / (2 * line.omega**3) * g * line.rate
        if two_f is None:
            yield tj, strength * _effective_inverse_detuning(line.omega, field.omega), None
            continue
        if not _triangle_ok(tj, RB87_TWO_I, two_f):
            raise ValueError(f"2F = {two_f} is not a hyperfine level of {level_label} "
                             f"(2J = {tj} in the line table, I = 3/2)")
        level_offset = _ground_offset(level_label, two_f)
        for tfp in range(abs(tjp - RB87_TWO_I), tjp + RB87_TWO_I + 1, 2):
            six_j = wigner_6j(tj / 2, tjp / 2, 1, tfp / 2, two_f / 2, RB87_TWO_I / 2)
            omega_pair = line.omega - level_offset - _ground_offset(partner, tfp)
            weight = (tfp + 1) * (tj + 1) * six_j**2
            yield tj, strength * weight * _effective_inverse_detuning(omega_pair, field.omega), tfp


def hyperfine_shift(level: HyperfineLevel, field: LaserField, lines: LineTable) -> float:
    """Light shift (rad/s) of one hyperfine Zeeman level.

    Sums over every coupling of the level's fine-structure state in the
    table; upward and downward couplings enter with opposite signs of the
    effective detuning.  Raises ``KeyError`` naming the coupling when the
    table lacks a required line, and ``ValueError`` when ``level.two_j``
    is not the table's J of the level.
    """
    eps = field.epsilon
    tf, tmf = level.two_f, level.two_m_f
    tmf_p = tmf - 2 * eps
    shift = 0.0
    for tj, c, tfp in _scalar_terms(level.n_label, tf, field, lines):
        if tj != level.two_j:
            raise ValueError(f"level {level.n_label} has 2J = {tj} in the line table, "
                             f"not {level.two_j}")
        if abs(tmf_p) <= tfp:
            cg = clebsch_gordan(tfp / 2, tmf_p / 2, 1, eps, tf / 2, tmf / 2)
            shift += 3 * c * cg**2
    return shift * field.intensity / HBAR


def mean_level_shift(level_label: str, field: LaserField, lines: LineTable,
                     two_f: int | None = None) -> float:
    """Scalar light shift (J) of a level, Zeeman-averaged.

    Equal occupation of the magnetic sublevels removes the vector and tensor
    parts, leaving a polarization-independent scalar shift.  Without
    ``two_f`` it is the fine-structure level's shift (the ground/excited
    comparison behind the magic-wavelength search); with ``two_f`` it is
    hbar times the m_F mean of ``hyperfine_shift`` for that F.
    """
    return sum(c for _, c, _ in _scalar_terms(level_label, two_f, field, lines)) * field.intensity


def _shift_difference(wavelength: float, intensity: float, lines: LineTable) -> float:
    field = LaserField(wavelength=wavelength, intensity=intensity, epsilon=0)
    ground = mean_level_shift("5S1/2", field, lines)
    upper = mean_level_shift("5P3/2", field, lines)
    return ground - upper


def shortest_resolved_wavelength(lines: LineTable) -> float:
    """eps times the longest wavelength (m) of a line of 5S1/2 or 5P3/2: below it
    1/(w0 - w) + 1/(w0 + w) is lost in rounding noise (about eps w / 2 w0 of it)."""
    couplings = lines.couplings_of("5S1/2") + lines.couplings_of("5P3/2")
    return sys.float_info.epsilon * max(line.wavelength for line, _ in couplings)


def find_magic_wavelength(lines: LineTable, bracket: tuple[float, float]) -> float:
    """Shortest wavelength (m) in the bracket where the 5S1/2 and the
    Zeeman-averaged 5P3/2 shifts cross, bisected to a relative width of 1e-4.

    The bracket is split at every line resonance of either level so that
    bisection only ever sees genuine sign changes of the continuous shift
    difference, not poles.  Raises ``ValueError`` when the bracket contains
    no crossing, and when lo is below ``shortest_resolved_wavelength``.
    """
    lo, hi = bracket
    if not shortest_resolved_wavelength(lines) <= lo < hi:
        raise ValueError("bracket must satisfy eps * (longest line) <= lo < hi")
    intensity = 1e7  # arbitrary; the crossing is intensity-independent

    resonances = sorted(
        line.wavelength
        for line, _ in lines.couplings_of("5S1/2") + lines.couplings_of("5P3/2")
        if lo < line.wavelength < hi
    )
    edges = [lo] + resonances + [hi]
    pad = 1e-4  # keep clear of the poles, relative

    for a, b in zip(edges[:-1], edges[1:]):
        a_in = a * (1 + pad) if a in resonances else a
        b_in = b * (1 - pad) if b in resonances else b
        if a_in >= b_in:
            continue
        fa = _shift_difference(a_in, intensity, lines)
        if fa == 0.0:
            return a_in
        fb = _shift_difference(b_in, intensity, lines)
        if fa * fb > 0:
            continue
        x0, x1, f0 = a_in, b_in, fa
        while (x1 - x0) / x0 > 1e-4:
            mid = 0.5 * (x0 + x1)
            fm = _shift_difference(mid, intensity, lines)
            if fm == 0.0:
                return mid
            if f0 * fm < 0:
                x1 = mid
            else:
                x0, f0 = mid, fm
        return 0.5 * (x0 + x1)
    raise ValueError("no ground/excited shift crossing inside the bracket")
