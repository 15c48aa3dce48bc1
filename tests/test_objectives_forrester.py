import numpy as np
import pytest

from mfdgp.errors import ConfigError, DomainError
from mfdgp.objectives import ForresterFamily, get_objective, objective_names
from mfdgp.objectives.forrester import forrester_high


@pytest.fixture(scope="module")
def family():
    return ForresterFamily()


def grid_oracle():
    # independent 10^4-point grid maximization of the closed form
    xs = np.linspace(0.0, 1.0, 10_001)
    vals = -((6 * xs - 2) ** 2) * np.sin(12 * xs - 4)
    i = np.argmax(vals)
    return xs[i], vals[i]


def test_top_level_matches_grid_optimum(family):
    x_star, f_star = grid_oracle()
    value, _ = family.evaluate([x_star], 5)
    assert value == pytest.approx(f_star, abs=1e-3)
    assert x_star == pytest.approx(0.7572, abs=1e-4)


def test_full_fidelity_is_pure_high_function(family):
    for x in (0.0, 0.3, 0.7572, 1.0):
        value, _ = family.evaluate([x], 5)
        assert value == forrester_high(x)


def test_level_interpolates_between_fidelities(family):
    x = 0.4
    lo, _ = family.evaluate([x], 1)
    hi, _ = family.evaluate([x], 5)
    mid, _ = family.evaluate([x], 3)  # nominal 0.5
    assert mid == pytest.approx(0.5 * lo + 0.5 * hi, abs=1e-12)


def test_cost_ladder_doubles(family):
    costs = [family.evaluate([0.5], t)[1] for t in range(1, 6)]
    assert costs == [1.0, 2.0, 4.0, 8.0, 16.0]


def test_out_of_box_rejected(family):
    with pytest.raises(DomainError):
        family.evaluate([1.2], 1)
    with pytest.raises(DomainError):
        family.evaluate([-0.01], 5)


def test_determinism(family):
    assert family.evaluate([0.31], 4) == family.evaluate([0.31], 4)


def test_known_optimum_exposed(family):
    x_star, f_star = family.known_optimum()
    gx, gf = grid_oracle()
    assert x_star[0] == pytest.approx(gx, abs=1e-12)
    assert f_star == pytest.approx(gf, abs=1e-12)


def test_custom_base_costs():
    family = ForresterFamily(base_costs=[0.25, 0.5, 1.0, 2.0, 4.0])
    assert family.evaluate([0.5], 1)[1] == 0.25
    with pytest.raises(DomainError):
        ForresterFamily(base_costs=[1.0])


def test_registry():
    assert "forrester5" in objective_names()
    assert "reactor-proxy" in objective_names()
    obj = get_objective("forrester5")
    assert obj.dimension == 1
    with pytest.raises(ConfigError):
        get_objective("nope")
