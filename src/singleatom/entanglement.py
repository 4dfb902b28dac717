"""Two-qubit entanglement algebra: Bell states, correlations, CHSH, fidelity.

Conventions: computational basis ordered (uu, ud, du, dd); an equatorial
analyzer angle phi measures along the Bloch direction (cos phi, sin phi, 0).
For the singlet the trace formula gives E(a, b) = -a.b, i.e.
-cos(phi_A - phi_B) for equatorial settings.  The closed-form correlation
fringes, visibility-to-fidelity estimate, pair rate and the noisy-singlet
CHSH correlations that the CLI's bell scenario prints live in ``readout``,
on the standard library; this numpy algebra is their oracle and serves the
library and the acceptance criteria.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TwoQubitState",
    "MeasurementSetting",
    "bell_state",
    "correlation",
    "chsh",
    "fidelity",
    "noisy_channel",
    "atom_photon_state",
    "AtomPhotonState",
    "teleport_decompose",
    "swap_decompose",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)

# kets over (up, down)
_UP = np.array([1.0, 0.0], dtype=complex)
_DOWN = np.array([0.0, 1.0], dtype=complex)

_BELL_VECTORS = {
    "psi+": (np.kron(_UP, _DOWN) + np.kron(_DOWN, _UP)) / math.sqrt(2),
    "psi-": (np.kron(_UP, _DOWN) - np.kron(_DOWN, _UP)) / math.sqrt(2),
    "phi+": (np.kron(_UP, _UP) + np.kron(_DOWN, _DOWN)) / math.sqrt(2),
    "phi-": (np.kron(_UP, _UP) - np.kron(_DOWN, _DOWN)) / math.sqrt(2),
}


@dataclass(frozen=True)
class TwoQubitState:
    """4x4 density matrix over (uu, ud, du, dd) with physicality checks."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        object.__setattr__(self, "rho", rho)
        if rho.shape != (4, 4):
            raise ValueError("rho must be 4x4")
        if np.abs(rho - rho.conj().T).max() > 1e-10:
            raise ValueError("rho must be Hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-8:
            raise ValueError("rho must have unit trace")
        if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -1e-8:
            raise ValueError("rho must be positive semidefinite")

    @classmethod
    def from_vector(cls, psi: np.ndarray) -> "TwoQubitState":
        psi = np.asarray(psi, dtype=complex)
        psi = psi / np.linalg.norm(psi)
        return cls(rho=np.outer(psi, psi.conj()))


@dataclass(frozen=True)
class MeasurementSetting:
    """Equatorial analyzer at angle ``phi``, along (cos phi, sin phi, 0)."""

    phi: float

    @property
    def bloch_vector(self) -> np.ndarray:
        return np.array([math.cos(self.phi), math.sin(self.phi), 0.0])

    @property
    def operator(self) -> np.ndarray:
        n = self.bloch_vector
        return n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z


def bell_state(which: str) -> TwoQubitState:
    """Pure density matrix of one of the four Bell states.

    Accepts 'psi+', 'psi-', 'phi+', 'phi-'.
    """
    if which not in _BELL_VECTORS:
        raise ValueError(f"unknown Bell state {which!r}")
    return TwoQubitState.from_vector(_BELL_VECTORS[which])


def correlation(state: TwoQubitState, a: MeasurementSetting,
                b: MeasurementSetting) -> float:
    """Spin correlation E = tr(rho sigma.a x sigma.b), in [-1, 1]."""
    op = np.kron(a.operator, b.operator)
    return float(np.trace(state.rho @ op).real)


def chsh(state: TwoQubitState, a: MeasurementSetting, a2: MeasurementSetting,
         b: MeasurementSetting, b2: MeasurementSetting) -> float:
    """CHSH combination S = |E(a,b)-E(a,b')| + |E(a',b)+E(a',b')| (LHV bound 2)."""
    return abs(correlation(state, a, b) - correlation(state, a, b2)) + abs(
        correlation(state, a2, b) + correlation(state, a2, b2)
    )


def fidelity(state: TwoQubitState, target: TwoQubitState) -> float:
    """Overlap <Psi|rho|Psi> with a pure target state."""
    eigvals, eigvecs = np.linalg.eigh(target.rho)
    if abs(eigvals.max() - 1.0) > 1e-8:
        raise ValueError("target must be a pure state")
    psi = eigvecs[:, np.argmax(eigvals)]
    return float(np.real(psi.conj() @ state.rho @ psi))


def noisy_channel(target: TwoQubitState, p: float) -> TwoQubitState:
    """White-noise admixture p*|Psi><Psi| + (1-p)/4 * identity."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rho = p * target.rho + (1.0 - p) / 4.0 * np.eye(4, dtype=complex)
    return TwoQubitState(rho=rho)


@dataclass(frozen=True)
class AtomPhotonState:
    """Collected atom-photon state: qutrit (m = -1, 0, +1) x photon (s+, s-)."""

    rho: np.ndarray           # 6x6
    fidelity: float           # overlap with the ideal psi+ in the qubit block


# Fraction of the pi-dipole intensity that survives projection onto the
# collection mode's transverse polarization, azimuthally averaged.
PI_MODE_SUPPRESSION = 0.5


def atom_photon_state(theta_max: float) -> AtomPhotonState:
    """Atom-photon state collected through an aperture of half-angle theta_max.

    The sigma+/sigma- decay channels contribute the maximally entangled
    component with the dipole weight (1+cos^2)/2; light from the pi channel
    (sin^2 weight, reduced by ``PI_MODE_SUPPRESSION``) is an incoherent
    admixture that leaves the atom in m = 0.  Returns the normalized state
    and its fidelity with respect to the ideal entangled pair.
    """
    if not 0.0 < theta_max <= math.pi / 2.0:
        raise ValueError("theta_max must lie in (0, pi/2]")
    c = math.cos(theta_max)
    # cone integrals of the dipole intensity patterns (up to common factors)
    sigma_weight = 0.5 * ((1.0 - c) + (1.0 - c**3) / 3.0)
    pi_weight = PI_MODE_SUPPRESSION * 0.5 * ((1.0 - c) - (1.0 - c**3) / 3.0)
    total = sigma_weight + pi_weight

    # basis: (m=-1, m=0, m=+1) x (sigma+, sigma-)
    psi = np.zeros(6, dtype=complex)
    psi[0] = 1.0 / math.sqrt(2.0)   # |m=-1, sigma+>
    psi[5] = 1.0 / math.sqrt(2.0)   # |m=+1, sigma->
    rho = sigma_weight / total * np.outer(psi, psi.conj())
    # pi photon: atom in m=0, photon polarization unpolarized in the qubit space
    rho[2, 2] += pi_weight / total / 2.0
    rho[3, 3] += pi_weight / total / 2.0
    fid = float(np.real(psi.conj() @ rho @ psi))
    return AtomPhotonState(rho=rho, fidelity=fid)


_CORRECTIONS = {
    "psi-": IDENTITY2,
    "psi+": SIGMA_Z,
    "phi-": SIGMA_X,
    "phi+": SIGMA_Z @ SIGMA_X,
}


def teleport_decompose(alpha: complex, beta: complex):
    """Bell decomposition of |psi>_A (x) |psi->_BC.

    Returns a list of (bell_label, conditional_amplitudes, correction)
    tuples: projecting particles A and B on the labeled Bell state leaves C
    in the normalized conditional state, and applying the correction
    restores the input up to a global phase.  All four branches carry
    probability 1/4.
    """
    norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    if norm == 0:
        raise ValueError("input state must be nonzero")
    a, b = alpha / norm, beta / norm
    branches = {
        "psi-": np.array([-a, -b], dtype=complex),
        "psi+": np.array([-a, b], dtype=complex),
        "phi-": np.array([b, a], dtype=complex),
        "phi+": np.array([-b, a], dtype=complex),
    }
    return [(label, amps, _CORRECTIONS[label]) for label, amps in branches.items()]


def swap_decompose() -> dict[tuple[str, str], float]:
    """Coefficients of |psi->_AB |psi->_CD in the (AD) x (BC) Bell basis.

    Only matched pairs appear, each with magnitude 1/2:
    + psi+psi+ - psi-psi- - phi+phi+ + phi-phi-.
    """
    # build the 4-particle state on legs ordered (A, B, C, D)
    psi_m = _BELL_VECTORS["psi-"]
    state = np.kron(psi_m, psi_m).reshape(2, 2, 2, 2)  # indices A, B, C, D
    coeffs: dict[tuple[str, str], float] = {}
    for name_ad, vec_ad in _BELL_VECTORS.items():
        for name_bc, vec_bc in _BELL_VECTORS.items():
            basis = np.einsum(
                "ad,bc->abcd",
                vec_ad.reshape(2, 2),
                vec_bc.reshape(2, 2),
            )
            coeff = complex(np.tensordot(basis.conj(), state, axes=4))
            if abs(coeff) > 1e-12:
                coeffs[(name_ad, name_bc)] = float(coeff.real)
    return coeffs
