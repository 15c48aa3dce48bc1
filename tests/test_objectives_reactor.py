import csv

import numpy as np
import pytest
from scipy.stats import gamma as gamma_dist

from mfdgp.errors import DomainError, MfdgpError
from mfdgp.objectives import reactor


def synthetic_curve(n_tanks, theta_max, points=500):
    """Model curve via scipy's gamma density: an independent code path from
    the package's log-gamma implementation. E(theta) for N tanks is the
    gamma(shape=N, scale=1/N) density."""
    theta = np.linspace(0.0, theta_max, points)
    e = gamma_dist.pdf(theta, a=n_tanks, scale=1.0 / n_tanks)
    return reactor.RTDCurve(theta=theta, e_theta=e)


# ---------------------------------------------------------------------------
# geometry and the Peclet surrogate
# ---------------------------------------------------------------------------


def test_geometry_validation():
    with pytest.raises(DomainError):
        reactor.ReactorGeometry(coil_radius=2.0, tube_radius=2.5, pitch=10, inversion_fraction=0)
    with pytest.raises(DomainError):
        reactor.ReactorGeometry(coil_radius=10, tube_radius=2, pitch=-1, inversion_fraction=0)
    with pytest.raises(DomainError):
        reactor.ReactorGeometry(coil_radius=10, tube_radius=2, pitch=5, inversion_fraction=1.5)
    for bad in (np.inf, np.nan):
        with pytest.raises(DomainError, match="finite and > 0"):
            reactor.ReactorGeometry(coil_radius=10, tube_radius=2, pitch=bad, inversion_fraction=0)
        with pytest.raises(DomainError, match="finite and > 0"):
            reactor.ReactorGeometry(coil_radius=bad, tube_radius=2, pitch=5, inversion_fraction=0)


def test_peclet_closed_form_at_default_geometry():
    # hand evaluation: 40 * (12.5/2.5)^0.8 * (2.5/10)^0.4 * 1
    geom = reactor.default_geometry()
    expected = 40.0 * 5.0**0.8 * 0.25**0.4
    assert reactor.geometry_to_peclet(geom) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(83.2553207401873, rel=1e-10)


def test_peclet_monotone_in_coil_radius_and_pitch():
    rng = np.random.default_rng(1)
    for _ in range(25):
        tube = rng.uniform(1.5, 4.0)
        pitch = rng.uniform(4.0, 15.0)
        inv = rng.uniform()
        coils = np.sort(rng.uniform(5.0, 20.0, size=2))
        pe = [
            reactor.geometry_to_peclet(
                reactor.ReactorGeometry(c, tube, pitch, inv)
            )
            for c in coils
        ]
        assert pe[1] > pe[0]
        pitches = np.sort(rng.uniform(4.0, 15.0, size=2))
        pe = [
            reactor.geometry_to_peclet(
                reactor.ReactorGeometry(12.0, tube, p, inv)
            )
            for p in pitches
        ]
        assert pe[1] < pe[0]


def test_peclet_inversion_symmetry():
    a = reactor.geometry_to_peclet(reactor.ReactorGeometry(12, 2.5, 8, 0.0))
    b = reactor.geometry_to_peclet(reactor.ReactorGeometry(12, 2.5, 8, 1.0))
    assert a == pytest.approx(b, rel=1e-14)
    peak = reactor.geometry_to_peclet(reactor.ReactorGeometry(12, 2.5, 8, 0.5))
    assert peak > a


# ---------------------------------------------------------------------------
# transport simulation
# ---------------------------------------------------------------------------


def test_rtd_integrates_to_one_everywhere():
    geom = reactor.default_geometry()
    for level in range(1, 6):
        curve, cost = reactor.reactor_proxy_simulate(geom, level, seed=3)
        area = np.trapezoid(curve.e_theta, curve.theta)
        assert area == pytest.approx(1.0, abs=1e-3)
        assert cost > 0
        assert curve.theta[0] == 0.0
        assert np.all(curve.e_theta >= 0)


def test_plug_flow_limit_peak_near_unit_time():
    # extreme curvature ratio pushes Pe >= 1e4: nearly pure advection,
    # so the tracer exits at one residence time
    geom = reactor.ReactorGeometry(
        coil_radius=1000.0, tube_radius=0.1, pitch=0.1, inversion_fraction=0.0
    )
    assert reactor.geometry_to_peclet(geom) >= 1e4
    curve, _ = reactor.reactor_proxy_simulate(geom, 5, seed=0)
    peak = curve.theta[np.argmax(curve.e_theta)]
    assert abs(peak - 1.0) <= 0.05


def test_fitted_n_converges_up_the_ladder():
    # five random geometries: the gap to the finest level shrinks monotonically
    rng = np.random.default_rng(42)
    box = reactor.GEOMETRY_BOX
    for _ in range(5):
        x = box.lower + rng.uniform(size=4) * (box.upper - box.lower)
        geom = reactor.ReactorGeometry(x[0], x[1], x[2], x[3])
        ns = []
        for level in range(1, 6):
            curve, _ = reactor.reactor_proxy_simulate(geom, level, seed=1)
            ns.append(reactor.fit_tanks_in_series(curve).n_tanks)
        gaps = [abs(n - ns[-1]) for n in ns]
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a * 1.05


def test_simulation_deterministic():
    geom = reactor.default_geometry()
    c1, cost1 = reactor.reactor_proxy_simulate(geom, 3, seed=9)
    c2, cost2 = reactor.reactor_proxy_simulate(geom, 3, seed=9)
    assert np.array_equal(c1.theta, c2.theta)
    assert np.array_equal(c1.e_theta, c2.e_theta)
    assert cost1 == cost2


def test_cost_varies_with_seed_but_not_per_call():
    geom = reactor.default_geometry()
    _, a = reactor.reactor_proxy_simulate(geom, 2, seed=1)
    _, b = reactor.reactor_proxy_simulate(geom, 2, seed=2)
    assert a != b  # lognormal multiplier depends on the seed


def _allocating_simulate(geom, level, seed=0, base_cost=None):
    """The solver with a fresh array per operation: the reference for the in-place loop.

    Returns theta, E(theta), the cost and the unclipped outlet history.
    """
    cells = reactor.cells_for_level(level)
    pe = reactor.geometry_to_peclet(geom)
    dz = 1.0 / cells
    dtheta = 0.8 / (1.0 / dz + 2.0 / (pe * dz * dz))
    steps = int(np.ceil(reactor._THETA_MAX / dtheta))
    c = reactor._initial_pulse(cells)
    inv_pe_dz = 1.0 / (pe * dz)
    outlet = np.empty(steps + 1)
    outlet[0] = c[-1]
    for n in range(1, steps + 1):
        interior = c[:-1] - inv_pe_dz * np.diff(c)
        flux = np.concatenate(([0.0], interior, [c[-1]]))
        c = c - (dtheta / dz) * np.diff(flux)
        outlet[n] = c[-1]
    theta = dtheta * np.arange(steps + 1)
    stride = max(1, int(np.ceil(theta.size / reactor._MAX_CURVE_POINTS)))
    keep = np.arange(0, theta.size, stride)
    if keep[-1] != theta.size - 1:
        keep = np.append(keep, theta.size - 1)
    theta, e = theta[keep], np.maximum(outlet[keep], 0.0)
    e = e / np.trapezoid(e, theta)
    mean = np.trapezoid(theta * e, theta)
    theta, e = theta / mean, e * mean
    e = e / np.trapezoid(e, theta)
    base = reactor.DEFAULT_BASE_COSTS[level - 1] if base_cost is None else float(base_cost)
    return theta, e, base * reactor._cost_multiplier(geom, level, seed), outlet


class _OutletRecorder:
    """numpy for the reactor module, keeping a copy of each array ``isfinite`` sees.

    The solver's one ``isfinite`` call is its divergence check on the whole
    outlet history, before the curve clips it at 0.
    """

    def __init__(self):
        self.histories = []

    def __getattr__(self, name):
        return getattr(np, name)

    def isfinite(self, x):
        self.histories.append(np.array(x))
        return np.isfinite(x)


def _geometry_at_peclet(pe):
    # tube 2.5, pitch 10, no inversion: solve the Peclet map for the coil radius
    packing = (2.5 / 10.0) ** reactor.PE_PITCH_EXP
    ratio = (pe / (reactor.PE_KAPPA * packing)) ** (1.0 / reactor.PE_COIL_EXP)
    return reactor.ReactorGeometry(
        coil_radius=2.5 * ratio, tube_radius=2.5, pitch=10.0, inversion_fraction=0.0
    )


@pytest.mark.parametrize("pe", [30.0, 83.0, 250.0, "negative-zero-tail"])
def test_in_place_solver_matches_allocating_reference(monkeypatch, pe):
    if pe == "negative-zero-tail":
        # -0.0 in the last quarter of the cells, where the solver's outflow
        # flux is c[-1] minus a zero-padded gradient
        pe, pulse = 30.0, reactor._initial_pulse

        def signed_tail(cells):
            c = pulse(cells)
            c[-cells // 4:] = -0.0
            return c

        monkeypatch.setattr(reactor, "_initial_pulse", signed_tail)
    geom = _geometry_at_peclet(pe)
    assert reactor.geometry_to_peclet(geom) == pytest.approx(pe)
    for level in range(1, 6):
        recorder = _OutletRecorder()
        with monkeypatch.context() as patch:
            patch.setattr(reactor, "np", recorder)
            curve, cost = reactor.reactor_proxy_simulate(geom, level, seed=4)
        theta, e, ref_cost, outlet = _allocating_simulate(geom, level, seed=4)
        assert np.array_equal(curve.theta, theta)
        assert np.array_equal(curve.e_theta, e)
        assert cost == ref_cost
        # the clipped curve counts -0.0 and +0.0 equal; the history keeps the sign
        [history] = recorder.histories
        assert history.tobytes() == outlet.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_pulse_reaches_the_divergence_check(monkeypatch, bad):
    pulse = reactor._initial_pulse

    def spoiled(cells):
        c = pulse(cells)
        c[cells // 2] = bad
        return c

    monkeypatch.setattr(reactor, "_initial_pulse", spoiled)
    for level in (1, 5):
        with pytest.raises(MfdgpError, match="non-finite outlet concentration"):
            reactor.reactor_proxy_simulate(reactor.default_geometry(), level)


def test_cells_ladder():
    assert [reactor.cells_for_level(t) for t in range(1, 6)] == [20, 40, 80, 160, 320]
    with pytest.raises(DomainError):
        reactor.cells_for_level(6)


# ---------------------------------------------------------------------------
# tanks-in-series fitting
# ---------------------------------------------------------------------------


def test_exponential_case_n_equals_one():
    curve = synthetic_curve(1.0, theta_max=10.0)
    # gamma(1, 1) density is exp(-theta)
    np.testing.assert_allclose(curve.e_theta, np.exp(-curve.theta), atol=1e-12)
    metric = reactor.fit_tanks_in_series(curve)
    assert metric.n_tanks == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("n_true,theta_max", [(1, 10.0), (2, 8.0), (5, 4.0), (10, 4.0), (20, 4.0)])
def test_round_trip_identity(n_true, theta_max):
    curve = synthetic_curve(float(n_true), theta_max)
    metric = reactor.fit_tanks_in_series(curve)
    assert metric.n_tanks == pytest.approx(n_true, abs=1e-3)


def test_moment_initializer_matches_gamma_identity():
    # the tanks model has variance 1/N, so the initializer recovers N
    curve = synthetic_curve(5.0, theta_max=4.0)
    assert reactor.moments_tank_estimate(curve) == pytest.approx(5.0, abs=2e-2)


def test_degenerate_curve_raises_plug_flow_hint():
    theta = np.linspace(0, 2, 200)
    e = np.zeros_like(theta)
    e[100] = 1.0 / (theta[1] - theta[0])  # a spike: zero-variance limit
    spike = reactor.RTDCurve(theta=theta, e_theta=e)
    with pytest.raises(DomainError, match="plug-flow limit"):
        reactor.fit_tanks_in_series(spike)


def test_model_curve_formula_matches_scipy():
    theta = np.linspace(0.0, 4.0, 200)
    for n in (1.0, 2.5, 7.0):
        mine = reactor.tanks_in_series_curve(n, theta)
        ref = gamma_dist.pdf(theta, a=n, scale=1.0 / n)
        np.testing.assert_allclose(mine, ref, atol=1e-10)


# ---------------------------------------------------------------------------
# RTD curve type and CSV export
# ---------------------------------------------------------------------------


def test_rtd_curve_validation():
    with pytest.raises(DomainError):
        reactor.RTDCurve(theta=[0.1, 0.2], e_theta=[1.0, 1.0])  # must start at 0
    with pytest.raises(DomainError):
        reactor.RTDCurve(theta=[0.0, 0.0, 1.0], e_theta=[1, 1, 1])  # not increasing
    with pytest.raises(DomainError):
        reactor.RTDCurve(theta=[0.0, 1.0], e_theta=[-0.1, 2.1])  # negative density
    with pytest.raises(DomainError):
        reactor.RTDCurve(theta=[0.0, 1.0], e_theta=[5.0, 5.0])  # area far from 1


def test_rtd_csv_bytes_match_per_row_writer(tmp_path):
    for pe in (30.0, 250.0):
        for level in range(1, 6):
            curve, _ = reactor.reactor_proxy_simulate(_geometry_at_peclet(pe), level)
            reactor.write_rtd_csv(curve, tmp_path / "rtd.csv")
            with (tmp_path / "ref.csv").open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["theta", "e_theta"])
                for t, e in zip(curve.theta, curve.e_theta):
                    writer.writerow([repr(float(t)), repr(float(e))])
            assert (tmp_path / "rtd.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# ---------------------------------------------------------------------------
# objective wrapper
# ---------------------------------------------------------------------------


def test_reactor_objective_is_definitional_composition():
    obj = reactor.ReactorProxyObjective(seed=0)
    x = np.array([12.5, 2.5, 10.0, 0.0])
    value, cost = obj.evaluate(x, 5)
    curve, direct_cost = reactor.reactor_proxy_simulate(
        obj.geometry(x), 5, seed=0, base_cost=obj.base_costs[4]
    )
    metric = reactor.fit_tanks_in_series(curve)
    assert value == metric.n_tanks
    assert cost == direct_cost


def test_large_coil_low_pitch_beats_small_coil_high_pitch():
    obj = reactor.ReactorProxyObjective(seed=0)
    good, _ = obj.evaluate([18.0, 2.5, 5.0, 0.0], 5)
    bad, _ = obj.evaluate([6.0, 2.5, 13.0, 0.0], 5)
    assert good > bad


def test_reactor_objective_determinism():
    obj = reactor.ReactorProxyObjective(seed=7)
    x = np.array([10.0, 2.0, 6.0, 0.3])
    assert obj.evaluate(x, 2) == obj.evaluate(x, 2)


def test_reactor_objective_box():
    obj = reactor.ReactorProxyObjective()
    for bound in (reactor.GEOMETRY_BOX.lower, reactor.GEOMETRY_BOX.upper):
        with pytest.raises(ValueError, match="read-only"):
            bound[0] = bound[0]  # the module-level box is shared by every objective
    with pytest.raises(DomainError):
        obj.evaluate([4.0, 2.5, 10.0, 0.0], 1)  # coil radius below the box
