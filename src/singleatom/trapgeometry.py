"""Focused Gaussian-beam trap geometry, characteristic temperatures, heating.

A red-detuned focused beam forms a cigar-shaped trap.  Near the focus the
potential is a cylindrically symmetric harmonic oscillator whose radial and
axial frequencies follow from the depth, the waist and the Rayleigh length.
"""

import math

from .constants import HBAR, KB, PI, TWO_PI

__all__ = [
    "GaussianBeam",
    "TrapSpec",
    "harmonic_frequencies",
    "doppler_temperature",
    "recoil_temperature",
    "heating_rate",
    "trap_volume",
]


class GaussianBeam:
    """A focused TEM00 beam: power (W), waist (m, 1/e^2 radius), wavelength (m)."""

    __slots__ = ("power", "waist_w0", "wavelength")

    def __init__(self, power: float, waist_w0: float, wavelength: float):
        self.power, self.waist_w0, self.wavelength = power, waist_w0, wavelength
        if min(power, waist_w0, wavelength) <= 0:
            raise ValueError("power, waist and wavelength must be positive")

    @property
    def rayleigh_length(self) -> float:
        return PI * self.waist_w0**2 / self.wavelength

    @property
    def peak_intensity(self) -> float:
        return 2 * self.power / (PI * self.waist_w0**2)


class TrapSpec:
    """Trap parameters: depth magnitude (J), waist (m), Rayleigh length (m), mass (kg)."""

    __slots__ = ("depth_u", "waist_w0", "z_r", "atom_mass")

    def __init__(self, depth_u: float, waist_w0: float, z_r: float, atom_mass: float):
        self.depth_u, self.waist_w0, self.z_r, self.atom_mass = depth_u, waist_w0, z_r, atom_mass
        if min(depth_u, waist_w0, z_r, atom_mass) <= 0:
            raise ValueError("all trap parameters must be positive")

    @classmethod
    def from_beam(cls, beam: GaussianBeam, depth_u: float, atom_mass: float) -> "TrapSpec":
        return cls(depth_u=depth_u, waist_w0=beam.waist_w0,
                   z_r=beam.rayleigh_length, atom_mass=atom_mass)


def harmonic_frequencies(trap: TrapSpec) -> tuple[float, float]:
    """Radial and axial oscillation frequencies (rad/s) of the harmonic expansion."""
    omega_r = math.sqrt(4 * trap.depth_u / (trap.atom_mass * trap.waist_w0**2))
    omega_z = math.sqrt(2 * trap.depth_u / (trap.atom_mass * trap.z_r**2))
    return omega_r, omega_z


def doppler_temperature(gamma: float) -> float:
    """Doppler cooling limit T_D = hbar*Gamma/(2 kB) for decay rate Gamma (rad/s)."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    return HBAR * gamma / (2 * KB)


def recoil_temperature(wavelength: float, mass: float) -> float:
    """Recoil temperature hbar^2 k^2/(m kB) for one photon of the given wavelength.

    The Boltzmann constant is included so that the conventional tabulated
    values (e.g. 361.95 nK for the Rb-87 D2 line) are reproduced.
    """
    if wavelength <= 0 or mass <= 0:
        raise ValueError("wavelength and mass must be positive")
    k = TWO_PI / wavelength
    return (HBAR * k) ** 2 / (mass * KB)


def heating_rate(t_rec: float, gamma_sc: float) -> float:
    """Temperature increase rate (K/s) from photon-recoil heating in a 3D
    harmonic trap in thermal equilibrium.

    The (2/3) T_rec per scattering event is shared equally between kinetic
    and potential energy, so the temperature rises by T_rec gamma_sc / 3.
    """
    return (1.0 / 3.0) * t_rec * gamma_sc


def trap_volume(trap: TrapSpec, temperature: float) -> float:
    """Effective volume (m^3) of the thermal sample, modeled as a cylinder.

    eta = kB*T/depth must lie in (0, 1); a sample at or above the trap depth
    is not confined.
    """
    eta = KB * temperature / trap.depth_u
    if not 0.0 < eta < 1.0:
        raise ValueError(f"kB*T/U = {eta:.3g} outside (0, 1): sample not trapped")
    return (
        PI * trap.waist_w0**2 * trap.z_r
        * math.log(1.0 / (1.0 - eta))
        * math.sqrt(eta / (1.0 - eta))
    )
