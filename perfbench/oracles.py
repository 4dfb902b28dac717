"""Output checks of the benchmark, run after the timed loop.

Each check returns a list of failure messages; an empty list is a pass.
Closed forms and physical constants are coded here from their textbook
definitions (scipy.constants, the bundled line-data JSON), not taken from
the package.  The four-level g2 check reuses the package's Liouvillian
matrix and trap-shift parameters on purpose: what it checks is the
propagation, by an independent ``scipy.linalg.expm`` of that matrix.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from scipy import constants as sc
from scipy.integrate import solve_ivp
from scipy.linalg import expm

C, HBAR, KB = sc.c, sc.hbar, sc.k
MU_B = sc.physical_constants["Bohr magneton"][0]
RB87_MASS = 86.9092 * sc.atomic_mass
GAMMA_D2 = 2 * math.pi * 6.065e6
LAMBDA_D2 = 780.246e-9
ISAT_F2_F3 = 35.8  # W/m^2, F=2 -> F'=3

G2_TOL = 1e-6       # four-level g2 against expm (gap at the parent: 5.6e-10)
CSV_REL = 1e-9      # closed forms printed with 12 significant digits
N_DELAYS = 10       # sampled delays per g2 check

SCENARIOS = ("lightshift", "magic", "trap", "loading", "g2", "stirap",
             "larmor", "bell", "correlations", "spectrum-fit", "pair-rate")

HEADERS = {
    "lightshift": ["wavelength_nm", "power_mw", "waist_um", "depth_mk",
                   "scatter_per_s"],
    "magic": ["bracket_lo_um", "bracket_hi_um", "magic_um"],
    "trap": ["depth_mk", "omega_r_khz", "omega_z_khz", "scatter_per_s",
             "t_doppler_uk", "t_recoil_nk", "heating_uk_per_s"],
    "g2": ["tau_ns", "g2"],
    "stirap": ["alpha_deg", "p_f1"],
    "larmor": ["t_ns", "survival"],
    "bell": ["setting_a", "setting_b", "phi_a_deg", "phi_b_deg", "value"],
    "correlations": ["beta_deg", "p_f1"],
    "spectrum-fit": ["quantity", "value"],
    "pair-rate": ["eta", "t_fiber", "cycle_us", "duty_factor", "pairs_per_min"],
}

# defaults of the CLI flags the oracles need when a draw leaves them out
DEFAULTS = {
    "wavelength-nm": 856.0, "gamma-per-s": 0.2, "beta-cm3-s": 5e-10,
    "temperature-uk": 100.0, "n-max": 5, "irl-mw-cm2": 12.0,
    "delta-rl-mhz": 0.0, "tau-max-ns": 200.0, "points": 801,
    "trap-wavelength-nm": 856.0, "kinetic-uk": 100.0, "visibility": 1.0,
    "prep-phase-rad": 0.0, "g-f": -0.5, "t-max-us": 10.0, "phi-a-deg": 0.0,
    "phi-a2-deg": 90.0, "phi-b-deg": 45.0, "phi-b2-deg": 135.0,
    "noise-p": 1.0, "basis": "x", "t-fiber": math.sqrt(0.95),
    "cycle-us": 1.0, "duty-factor": 1.0, "bracket-um": "1.2,1.6",
}


def _close(a: float, b: float, rel: float = CSV_REL, abs_tol: float = 1e-12) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


def parse_grid(spec) -> np.ndarray:
    """The CLI's 'start..stop:step' grid (inclusive) or a single number."""
    spec = str(spec)
    if ".." not in spec:
        return np.array([float(spec)])
    span, step = spec.split(":")
    start, stop = (float(x) for x in span.split(".."))
    n = int(round((stop - start) / float(step)))
    return start + float(step) * np.arange(n + 1)


def read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("ragged CSV rows")
    return header, rows


def numeric(rows: list[list[str]]) -> np.ndarray:
    """Float array of the CSV body; raises on a non-finite or malformed cell."""
    data = np.array([[float(x) for x in r] for r in rows], dtype=float)
    if not np.all(np.isfinite(data)):
        raise ValueError("non-finite value in CSV")
    return data


# --- physics references ---------------------------------------------------


def _d_lines(line_data_path: str) -> tuple[dict, dict]:
    with open(line_data_path, encoding="utf-8") as fh:
        lines = json.load(fh)["lines"]
    by_label = {entry["label"]: entry for entry in lines}
    return by_label["D1"], by_label["D2"]


def alkali_depth_and_rate(power_mw: float, waist_um: float, wavelength_nm: float,
                          line_data_path: str) -> tuple[float, float]:
    """(|U| in J, scattering rate in 1/s) of a linearly
    polarized far-detuned trap on the D1/D2 doublet, counter-rotating terms
    kept in the potential and dropped in the rate."""
    intensity = 2 * power_mw * 1e-3 / (math.pi * (waist_um * 1e-6) ** 2)
    w = 2 * math.pi * C / (wavelength_nm * 1e-9)
    pot = 0.0
    rate = 0.0
    for entry, weight in zip(_d_lines(line_data_path), (1.0, 2.0)):
        w0 = 2 * math.pi * C / (entry["lambda_nm"] * 1e-9)
        gam = 1.0 / (entry["lifetime_ns"] * 1e-9)
        inv_det = 1.0 / (w0 - w) + 1.0 / (w0 + w)
        pot -= math.pi * C**2 / 2 * weight * gam / w0**3 * inv_det * intensity
        rate += (math.pi * C**2 / (2 * HBAR) * weight * gam**2
                 / (w0**3 * (w - w0) ** 2) * intensity)
    return abs(pot), rate


def loading_stationary(rate: float, gamma: float, beta_prime: float,
                       n_max: int) -> np.ndarray:
    """Stationary law of the loading chain: gain R below n_max, one-body
    loss n*gamma, pair loss n(n-1)*beta'/2 removing two atoms."""
    dim = n_max + 1
    q = np.zeros((dim, dim))
    for n in range(dim):
        gain = rate if n < n_max else 0.0
        one = gamma * n
        pair = beta_prime * n * (n - 1) / 2.0
        q[n, n] = -(gain + one + pair)
        if n + 1 < dim:
            q[n + 1, n] += gain
        if n >= 1:
            q[n - 1, n] += one
        if n >= 2:
            q[n - 2, n] += pair
    a = np.vstack([q, np.ones(dim)])
    b = np.zeros(dim + 1)
    b[-1] = 1.0
    return np.linalg.lstsq(a, b, rcond=None)[0]


def trap_volume(depth_j: float, waist_um: float, wavelength_nm: float,
                temperature_uk: float) -> float:
    """Cylinder volume of a thermal sample in a Gaussian trap."""
    w0 = waist_um * 1e-6
    z_r = math.pi * w0**2 / (wavelength_nm * 1e-9)
    eta = KB * temperature_uk * 1e-6 / depth_j
    return math.pi * w0**2 * z_r * math.log(1 / (1 - eta)) * math.sqrt(eta / (1 - eta))


def two_level_closed_form(omega: float, delta: float, tau: np.ndarray) -> np.ndarray:
    g = GAMMA_D2
    or_sq = omega**2 + delta**2 - (g / 4) ** 2
    env = np.exp(-3 * g * tau / 4)
    if or_sq > 0:
        o = math.sqrt(or_sq)
        return 1 - env * (np.cos(o * tau) + 3 * g / (4 * o) * np.sin(o * tau))
    k = math.sqrt(-or_sq)
    return 1 - env * (np.cosh(k * tau) + 3 * g / (4 * k) * np.sinh(k * tau))


def two_level_obe_expm(omega: float, delta: float, tau: np.ndarray) -> np.ndarray:
    """Two-level g2 from the exact exponential of the affine Bloch equations
    for (rho_ee, u, v), started in the ground state."""
    g = GAMMA_D2
    m = np.zeros((4, 4))
    m[:3, :3] = [[-g, 0.0, omega], [0.0, -g / 2, -delta], [-omega, delta, -g / 2]]
    m[2, 3] = omega / 2
    steady = (omega**2 / 4) / (delta**2 + omega**2 / 2 + g**2 / 4)
    y0 = np.array([0.0, 0.0, 0.0, 1.0])
    return np.array([(expm(m * t) @ y0)[0] for t in tau]) / steady


def four_level_params(p: dict):
    """Package parameters of a four-level draw (CLI flag units)."""
    from singleatom.bloch import FourLevelParams, apply_trap_shifts
    from singleatom.lightshift import LaserField

    params = FourLevelParams(
        i_cl=p["icl-mw-cm2"] * 10.0, i_rl=p.get("irl-mw-cm2", 12.0) * 10.0,
        delta_cl=2 * math.pi * p["delta-mhz"] * 1e6,
        delta_rl=2 * math.pi * p.get("delta-rl-mhz", 0.0) * 1e6)
    if p.get("trap-power-mw") is not None:
        intensity = 2 * p["trap-power-mw"] * 1e-3 / (math.pi * (p["trap-waist-um"] * 1e-6) ** 2)
        field = LaserField(wavelength=p.get("trap-wavelength-nm", 856.0) * 1e-9,
                           intensity=intensity, epsilon=0)
        params = apply_trap_shifts(params, field,
                                   kinetic_reduction=p.get("kinetic-uk", 100.0) * 1e-6)
    return params


def four_level_expm(params, tau: np.ndarray) -> np.ndarray:
    """g2 from expm of the package's real 16x16 generator.

    The steady state is the SVD null vector; the post-emission state puts
    the decays of a (F'=2, half to F=1, half to F=2) and d (F'=3, all to
    F=2) into the ground populations, in the layout a, b, c, d first.
    """
    from singleatom.bloch import FourLevelLiouvillian

    mat = FourLevelLiouvillian(params).matrix_real
    null = np.linalg.svd(mat)[2][-1]
    null = null / null[:4].sum()
    p_a, p_d = null[0], null[3]
    g_ab, g_ac, g_dc = params.gamma_ab, params.gamma_ac, params.gamma_dc
    denom = (g_ab + g_ac) * p_a + g_dc * p_d
    x0 = np.zeros(16)
    x0[1] = g_ab * p_a / denom
    x0[2] = (g_ac * p_a + g_dc * p_d) / denom
    return np.array([(expm(mat * t) @ x0)[[0, 3]].sum() for t in tau]) / (p_a + p_d)


def sample_indices(n: int, count: int = N_DELAYS) -> list[int]:
    """Delay indices spread over the grid, always including tau = 0."""
    return sorted({0, n - 1, *np.linspace(0, n - 1, count).astype(int).tolist()})


def check_g2_values(p: dict, tau_s: np.ndarray, g2: np.ndarray,
                    tol: float = G2_TOL) -> list[str]:
    """Check a g2 curve of any model against its reference at sampled delays."""
    errors = []
    if abs(g2[0]) > 1e-9:
        errors.append(f"g2(0) = {g2[0]:.3g}, expected 0")
    idx = sample_indices(len(tau_s))
    tau = tau_s[idx]
    model = p.get("model", "four-level")
    omega3 = GAMMA_D2 * math.sqrt(p["icl-mw-cm2"] * 10.0 / (2 * ISAT_F2_F3))
    delta = 2 * math.pi * p["delta-mhz"] * 1e6
    refs = []
    if model == "two-level-analytic":
        refs.append(("closed form", two_level_closed_form(omega3, delta, tau), 1e-8))
    elif model == "two-level-obe":
        refs.append(("OBE expm", two_level_obe_expm(omega3, delta, tau), tol))
        if delta == 0.0:
            refs.append(("closed form", two_level_closed_form(omega3, 0.0, tau), tol))
    else:
        ref = four_level_expm(four_level_params(p), tau)
        if model == "full":
            ref = ref * (1 + p["env-a"] * np.exp(-tau / (p["env-tau-us"] * 1e-6)))
        refs.append(("four-level expm", ref, tol))
    for name, ref, limit in refs:
        gap = float(np.max(np.abs(g2[idx] - ref)))
        if not gap <= limit:
            errors.append(f"g2 differs from the {name} by {gap:.3g} (limit {limit:g})")
    return errors


# --- per-scenario CLI checks ------------------------------------------------


def _merged(unit: dict) -> dict:
    p = dict(DEFAULTS)
    p.update(unit["params"])
    return p


def check_scenario(unit: dict, header: list[str], rows: list[list[str]],
                   line_data_path: str) -> list[str]:
    """Content checks of one successful CLI run's CSV."""
    scen = unit["scenario"]
    p = _merged(unit)
    expected = HEADERS.get(scen)
    if scen == "loading":
        expected = ["rate_per_s", "mean"] + [f"p{n}" for n in range(p["n-max"] + 1)]
    if header != expected:
        return [f"header {header} != {expected}"]
    if scen == "bell":
        data = numeric([r[4:] for r in rows])
    elif scen == "spectrum-fit":
        data = numeric([r[1:] for r in rows])
    else:
        data = numeric(rows)
    errors: list[str] = []

    def expect(name, got, want, rel=CSV_REL, abs_tol=1e-12):
        if not _close(float(got), float(want), rel, abs_tol):
            errors.append(f"{scen} {name}: got {got!r}, expected {want!r}")

    def expect_rows(n):
        if len(rows) != n:
            errors.append(f"{scen}: {len(rows)} rows, expected {n}")
            return False
        return True

    if scen in ("lightshift", "trap"):
        if not expect_rows(1):
            return errors
        depth, rate = alkali_depth_and_rate(p["power-mw"], p["waist-um"],
                                               p["wavelength-nm"], line_data_path)
        row = data[0]
        if scen == "lightshift":
            expect("depth_mk", row[3], depth / KB * 1e3)
            expect("scatter_per_s", row[4], rate)
        else:
            w0 = p["waist-um"] * 1e-6
            z_r = math.pi * w0**2 / (p["wavelength-nm"] * 1e-9)
            t_rec = (HBAR * 2 * math.pi / LAMBDA_D2) ** 2 / (RB87_MASS * KB)
            expect("depth_mk", row[0], depth / KB * 1e3)
            expect("omega_r_khz", row[1],
                   math.sqrt(4 * depth / (RB87_MASS * w0**2)) / (2 * math.pi) / 1e3)
            expect("omega_z_khz", row[2],
                   math.sqrt(2 * depth / (RB87_MASS * z_r**2)) / (2 * math.pi) / 1e3)
            expect("scatter_per_s", row[3], rate)
            expect("t_doppler_uk", row[4], HBAR * GAMMA_D2 / (2 * KB) * 1e6)
            expect("t_recoil_nk", row[5], t_rec * 1e9)
            expect("heating_uk_per_s", row[6], t_rec * rate / 3 * 1e6)
    elif scen == "magic":
        if expect_rows(1):
            lo, hi = (float(x) for x in str(p["bracket-um"]).split(","))
            expect("bracket_lo_um", data[0][0], lo)
            expect("bracket_hi_um", data[0][1], hi)
            if not lo < data[0][2] < hi:
                errors.append(f"magic: {data[0][2]} um outside the bracket")
    elif scen == "loading":
        rates = parse_grid(p["rate-per-s"])
        if expect_rows(len(rates)):
            depth, _ = alkali_depth_and_rate(p["power-mw"], p["waist-um"],
                                                p["wavelength-nm"], line_data_path)
            volume = trap_volume(depth, p["waist-um"], p["wavelength-nm"],
                                 p["temperature-uk"])
            beta_prime = p["beta-cm3-s"] * 1e-6 / volume
            for row, r in zip(data, rates):
                probs = row[2:]
                ref = loading_stationary(r, p["gamma-per-s"], beta_prime, p["n-max"])
                gap = float(np.max(np.abs(probs - ref)))
                if gap > 1e-8:
                    errors.append(f"loading R={r}: p differs by {gap:.3g}")
                expect("mean", row[1], float(np.dot(np.arange(len(probs)), probs)),
                       rel=1e-9, abs_tol=1e-10)
    elif scen == "stirap":
        alpha = parse_grid(p["alpha-deg"])
        if expect_rows(len(alpha)):
            ref = p["visibility"] * np.sin(np.radians(alpha) - p["prep-phase-rad"] / 2) ** 2
            gap = float(np.max(np.abs(data[:, 1] - ref)))
            if gap > 1e-10:
                errors.append(f"stirap: p_f1 differs from V sin^2 by {gap:.3g}")
    elif scen == "larmor":
        if expect_rows(p["points"]):
            t = np.linspace(0.0, p["t-max-us"] * 1e-6, p["points"])
            omega_l = abs(MU_B * p["g-f"] * p["b-mgauss"] * 1e-7) / HBAR
            gap = float(np.max(np.abs(data[:, 1] - np.cos(omega_l * t) ** 2)))
            gap_t = float(np.max(np.abs(data[:, 0] - t * 1e9)))
            if gap > 1e-9 or gap_t > 1e-9 * p["t-max-us"] * 1e3:
                errors.append(f"larmor: cos^2 gap {gap:.3g}, time gap {gap_t:.3g}")
    elif scen == "bell":
        if expect_rows(5):
            noise = p["noise-p"]
            ang = {k: math.radians(p[f"phi-{k}-deg"]) for k in ("a", "a2", "b", "b2")}
            labels = (("a", "b"), ("a", "b2"), ("a2", "b"), ("a2", "b2"))
            e = {pair: -noise * math.cos(ang[pair[0]] - ang[pair[1]]) for pair in labels}
            for row, value, pair in zip(rows, data[:, 0], labels):
                if tuple(row[:2]) != pair:
                    errors.append(f"bell: row labels {row[:2]} != {pair}")
                expect(f"E{pair}", value, e[pair], abs_tol=1e-11)
            s = abs(e["a", "b"] - e["a", "b2"]) + abs(e["a2", "b"] + e["a2", "b2"])
            expect("S", data[4, 0], s, abs_tol=1e-11)
            if "phi-a-deg" not in unit["params"]:
                expect("S (canonical)", data[4, 0], 2 * math.sqrt(2) * noise, abs_tol=1e-11)
    elif scen == "correlations":
        beta = parse_grid(p["beta-deg"])
        if expect_rows(len(beta)):
            offset = 0.0 if p["basis"] == "x" else math.pi / 2
            ref = 0.5 * (1 + p["visibility"] * np.cos(2 * np.radians(beta) - offset))
            gap = float(np.max(np.abs(data[:, 1] - ref)))
            if gap > 1e-10:
                errors.append(f"correlations: p_f1 differs by {gap:.3g}")
    elif scen == "pair-rate":
        if expect_rows(1):
            ref = (0.25 * p["eta"] ** 2 * p["t-fiber"] ** 2 * p["duty-factor"]
                   * 60.0 / (p["cycle-us"] * 1e-6))
            expect("pairs_per_min", data[0][4], ref)
    elif scen == "spectrum-fit":
        if expect_rows(3):
            spec = unit["spectrum"]
            sigma_true = spectrum_sigma_hz(spec["e_kin_uk"])
            sigma, stderr, e_kin = data[:, 0]
            if abs(sigma - sigma_true) > 0.02 * sigma_true:
                errors.append(f"spectrum-fit: sigma {sigma:.6g} Hz, generated {sigma_true:.6g}")
            if not stderr >= 0:
                errors.append(f"spectrum-fit: stderr {stderr}")
            lam = unit["params"].get("wavelength-nm", 780.246)
            expect("e_kin_over_kb_uk", e_kin,
                   0.5 * RB87_MASS * 3 * (lam * 1e-9 * sigma) ** 2 / KB * 1e6)
    elif scen == "g2":
        if expect_rows(p["points"]):
            tau_ns = np.linspace(0.0, p["tau-max-ns"], p["points"])
            gap_t = float(np.max(np.abs(data[:, 0] - tau_ns)))
            if gap_t > 1e-9 * p["tau-max-ns"]:
                errors.append(f"g2: tau column off by {gap_t:.3g} ns")
            errors += check_g2_values(p, tau_ns * 1e-9, data[:, 1])
    return errors


def spectrum_sigma_hz(e_kin_uk: float) -> float:
    """1-D Doppler width of an isotropic sample with mean kinetic energy E."""
    return math.sqrt(2 * KB * e_kin_uk * 1e-6 / (3 * RB87_MASS)) / LAMBDA_D2


def spectrum_profiles(spec: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(frequency, reference, fluorescence) on a 20 kHz grid: a Lorentzian
    laser line and its convolution with the Doppler Gaussian."""
    freq = -8e6 + 0.02e6 * np.arange(800)
    ref = 1.0 / (1.0 + (2 * freq / (spec["laser_fwhm_mhz"] * 1e6)) ** 2)
    sigma = spectrum_sigma_hz(spec["e_kin_uk"])
    half = int(math.ceil(6 * sigma / 0.02e6))
    kf = 0.02e6 * np.arange(-half, half + 1)
    kernel = np.exp(-0.5 * (kf / sigma) ** 2)
    fluor = np.convolve(ref, kernel / kernel.sum(), mode="same")
    return freq, ref / ref.max(), fluor / fluor.max()


def write_spectrum_files(spec: dict, ref_path: str, fluor_path: str) -> None:
    freq, ref, fluor = spectrum_profiles(spec)
    for path, amp in ((ref_path, ref), (fluor_path, fluor)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# frequency_hz,amplitude\n")
            fh.writelines(f"{f:.12g},{a:.12g}\n" for f, a in zip(freq, amp))


def check_cli_unit(unit: dict, code: int | None, stdout: str, stderr: str,
                   out_path: str, line_data_path: str) -> list[str]:
    """All checks of one CLI invocation; ``code`` None means it timed out."""
    if code is None:
        return ["timed out"]
    mode = unit["mode"]
    exists = os.path.exists(out_path)
    if mode == "invalid":
        errors = []
        if code != 2:
            errors.append(f"invalid input exited {code}, expected 2")
        lines = stderr.splitlines()
        if len(lines) != 1 or not lines[0].startswith("validation:"):
            errors.append(f"invalid input wrote {len(lines)} stderr lines: {stderr[:200]!r}")
        if exists:
            errors.append("invalid input wrote a CSV")
        return errors
    if code != 0:
        return [f"exit {code}: {stderr.strip()[-300:]}"]
    if mode == "validate":
        errors = [] if stdout == "configuration ok\n" else [f"validate-only printed {stdout!r}"]
        return errors + (["validate-only wrote a CSV"] if exists else [])
    if unit["scenario"] == "list":
        names = [line.split(":")[0] for line in stdout.splitlines()]
        return [] if names == list(SCENARIOS) else [f"list printed {names}"]
    if not exists:
        return ["no CSV written"]
    with open(out_path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        header, rows = read_csv(text)
        errors = check_scenario(unit, header, rows, line_data_path)
    except ValueError as exc:
        return [f"malformed CSV: {exc}"]
    except Exception as exc:  # an output the checks cannot digest is a failure
        return [f"check raised {type(exc).__name__}: {exc}"]
    if unit["metadata"]:
        try:
            with open(out_path + ".meta.json", encoding="utf-8") as fh:
                meta = json.load(fh)
            if meta.get("scenario") != unit["scenario"]:
                errors.append(f"metadata scenario {meta.get('scenario')!r}")
        except (OSError, ValueError) as exc:
            errors.append(f"metadata sidecar unreadable: {exc}")
    return errors


# --- lib-sweep study points ---------------------------------------------------


def stirap_reference(point: dict) -> float:
    """Transfer efficiency |c_c|^2 of the lossy three-level STIRAP problem,
    integrated with DOP853 at tight tolerance."""
    peak = point["stirap_peak_per_us"] * 1e6
    delay = point["stirap_delay_us"] * 1e-6
    loss = point["stirap_loss_per_us"] * 1e6
    dur = 1e-6

    def env(t, start):
        x = (t - start) / dur
        return peak * math.sin(math.pi * x) ** 2 if 0.0 <= x <= 1.0 else 0.0

    def rhs(t, y):
        a, b, c = y[0] + 1j * y[1], y[2] + 1j * y[3], y[4] + 1j * y[5]
        op, os_ = env(t, delay), env(t, 0.0)
        da = -loss / 2 * a + 0.5j * (op * b + os_ * c)
        db = 0.5j * op * a
        dc = 0.5j * os_ * a
        return [da.real, da.imag, db.real, db.imag, dc.real, dc.imag]

    sol = solve_ivp(rhs, (0.0, delay + dur), [0, 0, 1, 0, 0, 0], method="DOP853",
                    rtol=1e-11, atol=1e-13)
    return float(sol.y[4, -1] ** 2 + sol.y[5, -1] ** 2)


def check_study_point(point: dict, result: dict, deep: bool) -> list[str]:
    """Checks of one lib-sweep study point; ``deep`` adds the STIRAP
    reference integration, which costs about as much as the point."""
    errors = []
    g2 = np.asarray(result["g2"], dtype=float)
    if g2.shape != (point["points"],) or not np.all(np.isfinite(g2)):
        return [f"g2 has shape {g2.shape} or non-finite values"]
    p = {"icl-mw-cm2": point["icl_mw_cm2"], "irl-mw-cm2": point["irl_mw_cm2"],
         "delta-mhz": point["delta_mhz"], "trap-power-mw": point["trap_power_mw"],
         "trap-waist-um": point["trap_waist_um"], "model": "four-level"}
    tau = np.linspace(0.0, point["tau_max_ns"] * 1e-9, point["points"])
    errors += check_g2_values(p, tau, g2)

    st = result["stirap"]
    if not 0.0 <= st["efficiency"] <= 1.0:
        errors.append(f"stirap efficiency {st['efficiency']}")
    if abs(st["norm_leak"] - st["scattered"]) > 1e-6:
        errors.append(f"stirap norm leak {st['norm_leak']:.6g} != scattered "
                      f"{st['scattered']:.6g}")
    if deep:
        ref = stirap_reference(point)
        if abs(st["efficiency"] - ref) > 1e-6:
            errors.append(f"stirap efficiency {st['efficiency']:.9f}, reference {ref:.9f}")

    probs = np.asarray(result["loading"], dtype=float)
    ref = loading_stationary(10 ** point["log10_rate_per_s"], point["gamma_per_s"],
                             point["beta_cm3_s"] * 1e-6 / (point["volume_um3"] * 1e-18),
                             point["n_max"])
    if probs.shape != ref.shape or float(np.max(np.abs(probs - ref))) > 1e-8:
        errors.append("loading distribution differs from the reference chain")
    return errors
