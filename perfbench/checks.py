"""Reference values and output checks, computed apart from the package.

Nothing here imports ``mfdgp``: the references come from closed forms and
the checks read the files the CLI writes. Every ``check_*`` function
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

# Peclet map of the reactor proxy, restated from its published form
# Pe = 40 (c/t)^0.8 (t/p)^0.4 (1 + i(1 - i)).
PE_KAPPA = 40.0
PE_COIL_EXP = 0.8
PE_PITCH_EXP = 0.4
REACTOR_LOWER = (5.0, 1.5, 4.0, 0.0)
REACTOR_UPPER = (20.0, 4.0, 15.0, 1.0)
# Pe is increasing in the coil radius and decreasing in the tube radius
# and the pitch (exponents above), and 1 + i(1 - i) peaks at i = 0.5.
REACTOR_PE_ARGMAX = (20.0, 1.5, 4.0, 0.5)
CELLS_PER_LEVEL = (20, 40, 80, 160, 320)

# Fitted tank counts lie within 4.4% of the dispersion reference on
# Pe 28-268 at every level (measured); 6% leaves a margin of 1.6 points.
DISPERSION_TOL = 0.06
RTD_AREA_TOL = 1e-3


def forrester_high(x):
    """Negated Forrester function -(6x - 2)^2 sin(12x - 4)."""
    x = np.asarray(x, dtype=np.float64)
    return -((6.0 * x - 2.0) ** 2) * np.sin(12.0 * x - 4.0)


def forrester_optimum() -> tuple[float, float]:
    """(x*, f*) of the top Forrester level on [0, 1].

    The best point of a 1e5 grid brackets the root of the derivative
    -12 w (sin 2w + w cos 2w), w = 6x - 2, which is then solved to full
    precision, so f* is at least every value the program can report.
    """
    grid = np.linspace(0.0, 1.0, 100_001)
    i = int(np.argmax(forrester_high(grid)))

    def slope(x):
        w = 6.0 * x - 2.0
        return np.sin(2.0 * w) + w * np.cos(2.0 * w)

    x_star = brentq(slope, grid[i - 1], grid[i + 1], xtol=1e-15)
    return float(x_star), float(forrester_high(x_star))


def peclet(coil_radius, tube_radius, pitch, inversion_fraction) -> float:
    curvature = (coil_radius / tube_radius) ** PE_COIL_EXP
    packing = (tube_radius / pitch) ** PE_PITCH_EXP
    mixing = 1.0 + inversion_fraction * (1.0 - inversion_fraction)
    return PE_KAPPA * curvature * packing * mixing


def geometry_for_peclet(pe: float, rng: np.random.Generator) -> tuple:
    """A random geometry inside the box whose Peclet number is ``pe``.

    Tube radius, pitch and inversion fraction are drawn uniformly; the coil
    radius is solved for. Draws are rejected until the coil radius fits.
    """
    lo, hi = REACTOR_LOWER, REACTOR_UPPER
    for _ in range(100_000):
        t = rng.uniform(lo[1], hi[1])
        p = rng.uniform(lo[2], hi[2])
        i = rng.uniform(lo[3], hi[3])
        mixing = 1.0 + i * (1.0 - i)
        c = t * (pe / (PE_KAPPA * (t / p) ** PE_PITCH_EXP * mixing)) ** (1.0 / PE_COIL_EXP)
        if lo[0] <= c <= hi[0] and t < c:
            return (float(c), float(t), float(p), float(i))
    raise ValueError(f"no geometry in the box reaches Pe = {pe}")


def dispersion_tanks(pe: float, cells: int | None = None) -> float:
    """Tank count 1/sigma^2 of the closed-closed axial-dispersion model.

    sigma^2 = 2/P - 2/P^2 (1 - exp(-P)). With ``cells`` the upwind
    scheme's numerical dispersion (dz/2)(1 - dtheta/dz) is added to 1/Pe,
    with the explicit step dtheta = 0.8 / (1/dz + 2/(Pe dz^2)).
    """
    inv = 1.0 / pe
    if cells is not None:
        dz = 1.0 / cells
        dtheta = 0.8 / (1.0 / dz + 2.0 / (pe * dz * dz))
        inv += 0.5 * dz * (1.0 - dtheta / dz)
    p = 1.0 / inv
    var = 2.0 / p - 2.0 / p**2 * (1.0 - math.exp(-p))
    return 1.0 / var


# --- reading CLI output ------------------------------------------------------


def read_log(path) -> tuple[list[dict], dict | None]:
    """(eval lines, last summary line) of a results log."""
    evals, summary = [], None
    for line in Path(path).read_text().splitlines():
        payload = json.loads(line)
        if payload["type"] == "eval":
            evals.append(payload)
        elif payload["type"] == "summary":
            summary = payload
    return evals, summary


def read_fidelity_table(path) -> list[dict]:
    with Path(path).open(newline="") as fh:
        return [
            {"level": int(r["level"]), "cells": int(r["cell_count"]), "n": float(r["fitted_n"])}
            for r in csv.DictReader(fh)
        ]


def read_rtd(path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1]


# --- campaign checks ---------------------------------------------------------


def check_ledger(costs, budget_spent, budget_total) -> list[str]:
    """Costs sum to the spent budget; only the last evaluation crosses the line."""
    problems = []
    if not costs:
        return ["the log holds no evaluations"]
    if min(costs) <= 0:
        problems.append("a recorded cost is not positive")
    total = math.fsum(costs)
    if abs(total - budget_spent) > 1e-9 * max(1.0, abs(budget_spent)):
        problems.append(f"costs sum to {total!r}, summary says {budget_spent!r}")
    if budget_spent < budget_total:
        problems.append(f"spent {budget_spent!r} < budget {budget_total!r}")
    elif budget_spent - budget_total >= costs[-1]:
        problems.append(f"overshoot {budget_spent - budget_total!r} >= last cost {costs[-1]!r}")
    return problems


def check_in_box(xs, lower, upper) -> list[str]:
    lo, hi = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    bad = [x for x in xs if np.any(np.asarray(x) < lo) or np.any(np.asarray(x) > hi)]
    return [f"{len(bad)} points outside the box, first {bad[0]}"] if bad else []


def check_incumbent(evals, summary, top_level) -> list[str]:
    """The summary's incumbent is the best top-level record."""
    top = [e for e in evals if e["level"] == top_level]
    if not top:
        return ["no top-level evaluation"]
    best = max(top, key=lambda e: e["y"])
    problems = []
    if summary["incumbent_y"] != best["y"]:
        problems.append(f"incumbent_y {summary['incumbent_y']!r} != best top y {best['y']!r}")
    if summary["incumbent_x"] != best["x"]:
        problems.append(f"incumbent_x {summary['incumbent_x']} != best top x {best['x']}")
    return problems


def check_reproduced(y_logged, y_again, what="re-evaluation") -> list[str]:
    if abs(y_again - y_logged) > 1e-9 * max(1.0, abs(y_logged)):
        return [f"{what} gives {y_again!r}, the log holds {y_logged!r}"]
    return []


def check_regret(f_star, best_y) -> list[str]:
    regret = f_star - best_y
    if regret < -1e-9 * max(1.0, abs(f_star)):
        return [f"regret {regret!r} < 0: best y {best_y!r} beats the reference {f_star!r}"]
    return []


# --- fidelity-study checks ---------------------------------------------------


def check_rtd_area(theta, e_theta) -> list[str]:
    area = float(np.trapezoid(e_theta, theta))
    if abs(area - 1.0) > RTD_AREA_TOL:
        return [f"RTD area {area!r} is not 1 +- {RTD_AREA_TOL}"]
    return []


def check_convergence(tank_counts) -> list[str]:
    """|N_l - N_top| does not increase with the level l."""
    gaps = [abs(n - tank_counts[-1]) for n in tank_counts]
    if any(b > a for a, b in zip(gaps, gaps[1:])):
        return [f"gaps to the finest level {gaps} increase with the level"]
    return []


def check_dispersion(tank_counts, cells, pe) -> list[str]:
    problems = []
    for n, c in zip(tank_counts, cells):
        ref = dispersion_tanks(pe, c)
        if abs(n / ref - 1.0) > DISPERSION_TOL:
            problems.append(
                f"N {n:.4g} on {c} cells is {n / ref - 1.0:+.3f} off the reference {ref:.4g}"
                f" at Pe {pe:.4g}"
            )
    return problems
