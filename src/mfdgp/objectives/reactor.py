"""Coiled-tube reactor proxy: tracer transport, RTD, and plug-flow scoring.

The proxy plays the role of an expensive mesh-resolved flow solver at desk
scale. A geometry is mapped to a Peclet number by a smooth surrogate
relation, a tracer pulse is advected through a 1-D axial-dispersion model
on a fidelity-controlled grid, and the outlet response is scored by
fitting the tanks-in-series residence-time model

    E(theta) = N * (N*theta)^(N-1) * exp(-N*theta) / Gamma(N).

Coarse grids add numerical dispersion on top of the physical 1/Pe term,
so the fitted tank count N climbs toward an asymptote as the cell count
doubles up the fidelity ladder - the same convergence shape a mesh study
of the full solver exhibits. Higher N means closer to plug flow, and the
surrogate Peclet map makes N grow with coil radius and shrink with pitch,
so the optimization landscape rewards tightly wound, low-pitch coils.

``scipy.optimize`` is imported inside :func:`fit_tanks_in_series`, and
``scipy.special`` inside :func:`_initial_pulse` (``erf``) and
:func:`tanks_in_series_curve` (``gammaln``), not at module level. On a bare
``import scipy``, loading ``scipy.optimize`` takes about 0.35 s and
``scipy.special`` about 0.17 s, and ``init``, ``report`` and a forrester
campaign never solve or fit a curve. So a reactor-proxy process, a
campaign or ``validate-fidelity``, pays for both at its first solve, inside
its first objective call. ``math.erf`` and ``math.lgamma`` would need no
import, but they differ from scipy's in the last bits (on 7 of the 625
pulse edges, and on most real tank counts), so reactor records would move.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import DomainError, MfdgpError
from ..space import DesignSpace
from ..streams import COST, point_hash, substream
from .base import MultiFidelityObjective, default_base_costs

CELLS_PER_LEVEL = (20, 40, 80, 160, 320)
DEFAULT_BASE_COSTS = default_base_costs(len(CELLS_PER_LEVEL))
COST_SIGMA = 0.2  # lognormal spread of the per-evaluation cost multiplier

# Design box for the four optimized geometry parameters (lengths in mm):
# coil radius, tube radius, pitch, inversion fraction. Total volume is
# held fixed.
GEOMETRY_BOX = DesignSpace(lower=[5.0, 1.5, 4.0, 0.0], upper=[20.0, 4.0, 15.0, 1.0])
DEFAULT_TOTAL_VOLUME = 20.0  # mL

# Peclet surrogate coefficients.
PE_KAPPA = 40.0
PE_COIL_EXP = 0.8
PE_PITCH_EXP = 0.4
PE_INVERSION_GAIN = 1.0

_THETA_MAX = 4.0
_PULSE_CENTER = 0.03
_PULSE_WIDTH = 0.01
_MAX_CURVE_POINTS = 2000


@dataclass(frozen=True)
class ReactorGeometry:
    """Coil parameterization: all lengths finite and positive, tube inside the coil."""

    coil_radius: float
    tube_radius: float
    pitch: float
    inversion_fraction: float

    def __post_init__(self):
        for name in ("coil_radius", "tube_radius", "pitch"):
            if not 0 < getattr(self, name) < np.inf:
                raise DomainError(f"{name} must be finite and > 0")
        if not self.tube_radius < self.coil_radius:
            raise DomainError("tube_radius must be smaller than coil_radius")
        if not 0.0 <= self.inversion_fraction <= 1.0:
            raise DomainError("inversion_fraction must lie in [0, 1]")

    def as_array(self) -> np.ndarray:
        """The four parameters and the fixed total volume, the point the cost stream hashes."""
        return np.asarray(
            [self.coil_radius, self.tube_radius, self.pitch,
             self.inversion_fraction, DEFAULT_TOTAL_VOLUME]
        )


def geometry_to_peclet(geom: ReactorGeometry) -> float:
    """Smooth surrogate for the geometry -> dispersion relationship.

    Strictly increasing in coil radius, strictly decreasing in pitch, and
    symmetric in the inversion fraction about 0.5.
    """
    curvature = (geom.coil_radius / geom.tube_radius) ** PE_COIL_EXP
    packing = (geom.tube_radius / geom.pitch) ** PE_PITCH_EXP
    inv = geom.inversion_fraction
    mixing = 1.0 + PE_INVERSION_GAIN * inv * (1.0 - inv)
    return PE_KAPPA * curvature * packing * mixing


@dataclass(frozen=True)
class RTDCurve:
    """Dimensionless residence-time distribution E(theta) on a theta grid; read-only copies."""

    theta: np.ndarray
    e_theta: np.ndarray

    def __post_init__(self):
        theta = np.array(self.theta, dtype=np.float64)
        e = np.array(self.e_theta, dtype=np.float64)
        if theta.ndim != 1 or theta.shape != e.shape:
            raise DomainError("theta and e_theta must be 1-D arrays of equal length")
        if theta[0] != 0.0 or np.any(np.diff(theta) <= 0):
            raise DomainError("theta must start at 0 and strictly increase")
        if np.any(e < 0):
            raise DomainError("E(theta) must be non-negative")
        area = float(np.trapezoid(e, theta))
        if abs(area - 1.0) > 1e-3:
            raise DomainError(f"E(theta) must integrate to 1 (got {area})")
        theta.flags.writeable = e.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "e_theta", e)

    def moments(self) -> tuple[float, float]:
        """Mean and variance of the distribution by trapezoid quadrature."""
        mean = float(np.trapezoid(self.theta * self.e_theta, self.theta))
        var = float(np.trapezoid((self.theta - mean) ** 2 * self.e_theta, self.theta))
        return mean, var


@dataclass(frozen=True)
class PlugFlowMetric:
    """Fitted tanks-in-series count."""

    n_tanks: float


def _initial_pulse(cells: int) -> np.ndarray:
    """Cell-averaged narrow Gaussian near the inlet, unit total mass."""
    from scipy.special import erf

    dz = 1.0 / cells
    edges = np.linspace(0.0, 1.0, cells + 1)
    cdf = 0.5 * (1.0 + erf((edges - _PULSE_CENTER) / (np.sqrt(2.0) * _PULSE_WIDTH)))
    c = np.diff(cdf) / dz
    return c / (np.sum(c) * dz)


def _cost_multiplier(geom: ReactorGeometry, level_index: int, seed: int) -> float:
    rng = substream(seed, COST, level_index, point_hash(geom.as_array()))
    return float(np.exp(COST_SIGMA * rng.standard_normal()))


def cells_for_level(level_index: int) -> int:
    if not 1 <= level_index <= len(CELLS_PER_LEVEL):
        raise DomainError(f"level {level_index} outside ladder 1..{len(CELLS_PER_LEVEL)}")
    return CELLS_PER_LEVEL[level_index - 1]


def reactor_proxy_simulate(
    geom: ReactorGeometry,
    level: int,
    seed: int = 0,
    base_cost: float | None = None,
) -> tuple[RTDCurve, float]:
    """Simulate a tracer pulse at one fidelity and return (RTD, cost).

    ``level`` is the fidelity's index, 1..5 (:func:`cells_for_level`).

    Solves dc/dtheta = (1/Pe) d2c/dz2 - dc/dz on z in [0, 1] with closed
    boundaries by explicit conservative finite volumes (upwind advection,
    central dispersion) under a stability-safe timestep. The recorded
    outlet history is normalized to unit area and to unit mean, so the
    returned curve is a proper dimensionless RTD.

    Each step is six ufunc calls with positional ``out`` on buffers and
    views made once per solve, and performs the same float operations in
    the same order as the allocating form ``c - (dtheta/dz) * diff([0,
    c[:-1] - (1/(Pe dz)) * diff(c), c[-1]])``, so the outlet history is the
    same bit for bit. ``grad`` holds one entry per cell and its last, the
    closed outlet's, stays 0, so one subtraction writes the interior and
    the outflow fluxes: ``c[-1] - 0.0`` is ``c[-1]`` bit for bit, -0.0, nan
    and +-inf included. A non-finite value still spreads to the outlet,
    with numpy's overflow and invalid-value warnings silenced, and the
    finite check after the loop reports it as ``MfdgpError``.
    """
    cells = cells_for_level(level)
    pe = geometry_to_peclet(geom)

    dz = 1.0 / cells
    # positivity-preserving explicit step: advective + dispersive limits
    dtheta = 0.8 / (1.0 / dz + 2.0 / (pe * dz * dz))
    steps = int(np.ceil(_THETA_MAX / dtheta))

    c = _initial_pulse(cells)
    inv_pe_dz = 1.0 / (pe * dz)
    courant = dtheta / dz
    outlet = np.empty(steps + 1)
    outlet[0] = c[-1]
    flux = np.zeros(cells + 1)  # flux[0] is the closed inlet and stays 0
    grad = np.zeros(cells)  # grad[-1] is the closed outlet and stays 0
    div = np.empty(cells)
    c_hi, c_lo, grad_in, flux_hi, flux_lo = c[1:], c[:-1], grad[:-1], flux[1:], flux[:-1]
    subtract, multiply = np.subtract, np.multiply  # a step is mostly call overhead
    with np.errstate(invalid="ignore", over="ignore"):
        for n in range(1, steps + 1):
            subtract(c_hi, c_lo, grad_in)
            multiply(grad_in, inv_pe_dz, grad_in)
            subtract(c, grad, flux_hi)
            subtract(flux_hi, flux_lo, div)
            multiply(div, courant, div)
            subtract(c, div, c)
            outlet[n] = c[-1]
    if not np.all(np.isfinite(outlet)):
        raise MfdgpError(f"non-finite outlet concentration at Pe={pe:.3g}, cells={cells}")

    theta = dtheta * np.arange(steps + 1)
    stride = max(1, int(np.ceil(theta.size / _MAX_CURVE_POINTS)))
    keep = np.arange(0, theta.size, stride)
    if keep[-1] != theta.size - 1:
        keep = np.append(keep, theta.size - 1)
    theta, e = theta[keep], np.maximum(outlet[keep], 0.0)

    e = e / np.trapezoid(e, theta)
    mean = np.trapezoid(theta * e, theta)
    theta, e = theta / mean, e * mean
    e = e / np.trapezoid(e, theta)

    base = DEFAULT_BASE_COSTS[level - 1] if base_cost is None else float(base_cost)
    cost = base * _cost_multiplier(geom, level, seed)
    return RTDCurve(theta=theta, e_theta=e), cost


def tanks_in_series_curve(n_tanks: float, theta) -> np.ndarray:
    """Model RTD for a real-valued tank count, safe at theta = 0."""
    from scipy.special import gammaln

    theta = np.asarray(theta, dtype=np.float64)
    n = float(n_tanks)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_e = np.log(n) + (n - 1.0) * np.log(n * theta) - n * theta - gammaln(n)
        e = np.exp(log_e)
    # theta = 0 limits: 0 for n > 1, 1 for n = 1, divergent below
    return np.nan_to_num(e, nan=1.0, posinf=1e12)


def fit_tanks_in_series(curve: RTDCurve) -> PlugFlowMetric:
    """Least-squares tank count for a measured RTD.

    Initialized at the method-of-moments estimate N0 = 1 / var(theta) and
    refined by bounded scalar minimization in log N over
    [max(0.5, N0/10), 10*N0].
    """
    from scipy.optimize import minimize_scalar

    n0 = moments_tank_estimate(curve)
    lo, hi = max(0.5, n0 / 10.0), 10.0 * n0

    def sse(log_n: float) -> float:
        model = tanks_in_series_curve(np.exp(log_n), curve.theta)
        return float(np.sum((model - curve.e_theta) ** 2))

    res = minimize_scalar(
        sse, bounds=(np.log(lo), np.log(hi)), method="bounded",
        options={"xatol": 1e-12},
    )
    return PlugFlowMetric(n_tanks=float(np.exp(res.x)))


def moments_tank_estimate(curve: RTDCurve) -> float:
    """The method-of-moments tank count N0 = 1 / var(theta), the fit's starting point."""
    _, var = curve.moments()
    if var <= 1e-12:
        raise DomainError(
            "curve variance is zero: the response is at the plug-flow limit N -> infinity"
        )
    return 1.0 / var


def write_rtd_csv(curve: RTDCurve, path) -> None:
    """Two-column CSV export: theta, e_theta, one float repr per field.

    The file is written as one string, with the bytes ``csv.writer``
    writes in its default (excel) dialect: CRLF line ends and no quoting,
    since a float repr holds no comma, quote or line break.
    """
    rows = "".join(
        f"{t!r},{e!r}\r\n" for t, e in zip(curve.theta.tolist(), curve.e_theta.tolist())
    )
    with Path(path).open("w", newline="") as fh:
        fh.write("theta,e_theta\r\n" + rows)


class ReactorProxyObjective(MultiFidelityObjective):
    """Plug-flow tank count as a maximization objective over coil geometry.

    The design vector is (coil_radius, tube_radius, pitch,
    inversion_fraction) inside :data:`GEOMETRY_BOX`; total volume is fixed.
    """

    space = GEOMETRY_BOX

    def __init__(self, seed: int = 0, nominals=None, base_costs=None):
        if nominals is not None and len(nominals) != len(CELLS_PER_LEVEL):
            raise DomainError(
                f"reactor proxy defines {len(CELLS_PER_LEVEL)} fidelities, "
                f"got a {len(nominals)}-level ladder"
            )
        super().__init__(seed, nominals, base_costs)

    def geometry(self, x) -> ReactorGeometry:
        x = self.check_point(x)
        return ReactorGeometry(
            coil_radius=float(x[0]), tube_radius=float(x[1]), pitch=float(x[2]),
            inversion_fraction=float(x[3]),
        )

    def simulate(self, geom: ReactorGeometry, level) -> tuple[RTDCurve, float]:
        """(RTD, cost) of ``geom`` at the ladder's ``level`` under this objective's
        seed and base cost; :meth:`evaluate` and ``validate-fidelity`` both call it."""
        # a module-global lookup, so a patch of reactor.reactor_proxy_simulate
        # (perfbench's tracer and setup_probe.py make one) reaches both callers
        return reactor_proxy_simulate(
            geom, level.index, seed=self.seed, base_cost=self.base_costs[level.index - 1]
        )

    def evaluate(self, x, level):
        lv = self.resolve_level(level)
        curve, cost = self.simulate(self.geometry(x), lv)
        return fit_tanks_in_series(curve).n_tanks, cost


def default_geometry() -> ReactorGeometry:
    """Declared default coil used by demos and the fidelity-validation study."""
    return ReactorGeometry(
        coil_radius=12.5, tube_radius=2.5, pitch=10.0, inversion_fraction=0.0,
    )
