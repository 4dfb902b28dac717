"""Speed reference: fixed tasks that run none of the program's code.

The shared machine the benchmark runs on changes speed by up to 2x in
phases of 10 s to minutes (a unit's CPU time moves with its wall time, so
this is the machine, not scheduling).  A 30 s run cannot average such
phases out.  So a reference task is timed right before every timed unit,
outside the unit's timer, and the unit's wall time is scaled by
``nominal / reference``: the time the unit would have taken had the
machine run the reference in its nominal time.  Reported latencies are
these scaled times; the raw wall times stay in the run record.  The nominal
times are the references' times in a typical phase of a 2-vCPU VM, so
scaled and raw times there read about the same.

Each workload uses the reference that tracked its units best in 5-minute
traces on that VM, with three candidates timed before every unit
(interpreter launches, a pure-Python loop, scipy's RK45 on a small system);
the figures are the spread (IQR/median) over 30 s windows of the median
unit time:

- CLI units start an interpreter and import numpy/scipy, so their reference
  launches a bare interpreter (``-I -S``: no site, no environment, so no
  code of the checkout) three times: ``spawn()``.  Spread of ``import
  singleatom.cli`` 0.32 raw, 0.05 scaled (0.06 with the loop, 0.10 with
  RK45); of cli-g2-long units 0.30 raw, 0.06 scaled.
- lib-sweep study points step the library's integrator around small numpy
  calls in one process, so their reference is scipy's RK45 on a fixed
  linear system in that process: ``ode()``.  Spread 0.22 raw, 0.013 scaled
  (0.05 with the loop).  A single solve right after a study point runs
  with the caches the point left behind; over 6 seeds of 30 s runs it
  spread the scaled tail latency to 0.16, the fastest of three solves to
  0.07.
"""

from __future__ import annotations

import subprocess
import sys
import time

SPAWN_NOMINAL_S = 0.030  # spawn()
ODE_NOMINAL_S = 0.0080  # ode()


def spawn() -> float:
    """Seconds to launch and reap a bare interpreter three times."""
    cmd = [sys.executable, "-I", "-S", "-c", "pass"]
    t0 = time.perf_counter()
    for _ in range(3):
        subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def ode() -> float:
    """Seconds for scipy's RK45 to integrate a fixed 16-state linear system:
    Python-level stepping around small numpy calls, as in the library's
    integrator, but none of the library's code.  The fastest of three
    repeats, so that the caches a study point leaves behind do not count."""
    import numpy as np
    from scipy.integrate import solve_ivp

    matrix = np.random.default_rng(0).standard_normal((16, 16)) * 0.3 - 2.0 * np.eye(16)
    y0 = np.ones(16)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        solve_ivp(lambda t, y: matrix @ y, (0.0, 40.0), y0, rtol=1e-8, atol=1e-10)
        times.append(time.perf_counter() - t0)
    return min(times)


def scaled(wall: float, reference: float, nominal: float) -> float:
    """``wall`` at the speed where the reference takes ``nominal`` seconds."""
    return wall * nominal / reference
