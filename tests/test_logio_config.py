import dataclasses
import json
import re

import numpy as np
import pytest

from mfdgp import campaign, config as cfgmod, logio
from mfdgp.errors import ConfigError, CorruptLogError
from mfdgp.objectives import ForresterFamily


def run_small_campaign(tmp_path, budget=36.0, seed=0):
    obj = ForresterFamily()
    log_path = tmp_path / "records.jsonl"
    cfg = cfgmod.CampaignConfig(budget=budget, seed=seed)
    with logio.ResultsLogWriter(log_path, cfg) as writer:
        state = campaign.resume(
            campaign.CampaignState(ladder=tuple(obj.ladder)), obj, obj.space, 1, 2.0, budget,
            seed, on_record=writer.record,
        )
        writer.summary(state)
    return log_path, state


def test_replay_reconstructs_state(tmp_path):
    log_path, state = run_small_campaign(tmp_path)
    cfg, replayed = logio.replay(log_path)
    assert cfg == cfgmod.CampaignConfig(budget=36.0)
    assert len(replayed.records) == len(state.records)
    assert replayed.budget_spent == pytest.approx(
        sum(r.cost for r in replayed.records), abs=1e-9
    )
    assert replayed.budget_spent == pytest.approx(state.budget_spent, abs=1e-12)
    assert replayed.budget_total == state.budget_total  # from the summary line
    assert replayed.incumbent.y == state.incumbent.y
    assert np.array_equal(replayed.incumbent.x, state.incumbent.x)
    assert np.array_equal(replayed.tau, state.tau)


def test_replayed_tau_equals_live_tau_on_scripted_costs(tmp_path, monkeypatch):
    # one level's costs whose running mean (1.0166666666666666) and plain
    # mean (1.0166666666666668) differ in the last bit; a 1-rung ladder, as
    # the header's config names it
    costs = [0.6, 1.1, 1.9, 0.6, 1.5, 0.4]
    obj = ForresterFamily(nominals=(1.0,))
    top = tuple(obj.ladder)

    class Scripted:
        ladder = obj.ladder
        calls = 0

        def evaluate(self, x, level):
            y, _ = obj.evaluate(x, level)
            self.calls += 1
            return y, costs[self.calls - 1]

    held = []
    select = campaign.select_fidelity

    def spy(model, x_star, tau, beta, rng_seed):
        held.append(tau.tolist())
        return select(model, x_star, tau, beta, rng_seed)

    monkeypatch.setattr(campaign, "select_fidelity", spy)
    log_path = tmp_path / "records.jsonl"
    cfg = cfgmod.CampaignConfig(budget=6.0, nominals=(1.0,))
    with logio.ResultsLogWriter(log_path, cfg) as writer:
        state = campaign.resume(
            campaign.CampaignState(ladder=top), Scripted(), obj.space, 1, 2.0, 6.0, 0,
            on_record=writer.record,
        )
    assert [r.cost for r in state.records] == costs
    _, replayed = logio.replay(log_path)
    assert replayed.ladder == top
    assert np.array_equal(replayed.tau, state.tau)
    assert replayed.tau[0] == np.mean(costs)
    # at every pick the loop held the mean of the costs recorded before it
    assert held == [[np.mean(costs[:j])] for j in range(1, 6)]


def test_log_values_round_trip_exactly(tmp_path):
    log_path, state = run_small_campaign(tmp_path)
    _, replayed = logio.replay(log_path)
    for a, b in zip(replayed.records, state.records):
        assert np.array_equal(a.x, b.x)
        assert a.y == b.y and a.cost == b.cost and a.iteration == b.iteration


def test_corrupt_line_number_reported(tmp_path):
    log_path, _ = run_small_campaign(tmp_path)
    text = log_path.read_text().splitlines()
    text[3] = text[3][:-5]  # truncate a record mid-JSON
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(text) + "\n")
    with pytest.raises(CorruptLogError) as err:
        logio.replay(bad)
    assert err.value.line_number == 4


# Each edit turns line 3 (a level-2 initial-design eval) of a header plus
# two evals into a line whose copies of a fact disagree with their owner:
# the ladder owns the level and its nominal, the iteration owns the phase,
# and the ledger owns the next iteration.
REFUSED_EVAL_EDITS = {
    "level-7": ({"level": 7, "nominal": 1.0}, "level 7 is not on the ladder"),
    "nominal-0.9": ({"nominal": 0.9}, "nominal 0.9 is not level 2's 0.25"),
    "loop-phase-at-0": ({"phase": "bo-loop"}, "phase 'bo-loop' disagrees"),
    "initial-phase-at-1": ({"iteration": 1}, "phase 'initial-design' disagrees"),
    "level-true": ({"level": True, "nominal": 0.0}, "level True is not on the ladder"),
    "level-1.0": ({"level": 1.0, "nominal": 0.0}, "level 1.0 is not on the ladder"),
    "iteration-minus-1": ({"iteration": -1}, "iteration must be an int >= 0"),
    "iteration-string": ({"iteration": "3", "phase": "bo-loop"}, "iteration must be an int"),
    "iteration-4-first": ({"iteration": 4, "phase": "bo-loop"}, "iteration 4 does not follow 0"),
}


@pytest.mark.parametrize("edit", REFUSED_EVAL_EDITS.values(), ids=REFUSED_EVAL_EDITS.keys())
def test_replay_rejects_level_off_the_ladder(tmp_path, edit):
    fields, message = edit
    p = tmp_path / "off.jsonl"
    line = {"type": "eval", "iteration": 0, "phase": "initial-design", "level": 1,
            "nominal": 0.0, "x": [0.5], "y": 1.0, "cost": 1.0}
    lines = [{"type": "header", "config": {}}, line,
             {**line, "level": 2, "nominal": 0.25, **fields}]
    p.write_text("".join(json.dumps(payload) + "\n" for payload in lines))
    with pytest.raises(CorruptLogError, match=re.escape(message)) as err:
        logio.replay(p)
    assert err.value.line_number == 3


def test_replay_rejects_summary_without_total(tmp_path):
    p = tmp_path / "summary.jsonl"
    header = {"type": "header", "config": {}}
    p.write_text(json.dumps(header) + "\n" + json.dumps({"type": "summary"}) + "\n")
    with pytest.raises(CorruptLogError) as err:
        logio.replay(p)
    assert err.value.line_number == 2


def test_header_required(tmp_path):
    p = tmp_path / "headerless.jsonl"
    p.write_text(json.dumps({"type": "eval"}) + "\n")
    with pytest.raises(CorruptLogError) as err:
        logio.replay(p)
    assert err.value.line_number == 1


def test_replay_skips_an_error_line(tmp_path):
    p = tmp_path / "err.jsonl"
    with logio.ResultsLogWriter(p, cfgmod.CampaignConfig()) as writer:
        writer.error("solver died")
    _, state = logio.replay(p)
    assert state.error is None
    assert state.records == []


# ---------------------------------------------------------------------------
# configuration files
# ---------------------------------------------------------------------------


def test_template_parses_to_defaults(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text(cfgmod.TEMPLATE)
    assert cfgmod.parse_config(path) == cfgmod.CampaignConfig()


def test_unknown_key_fails_closed(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text(cfgmod.TEMPLATE)
    path.write_text(path.read_text() + "\nbudgit = 10\n")
    with pytest.raises(ConfigError, match="budgit"):
        cfgmod.parse_config(path)


def test_unknown_section_fails_closed(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[campagin]\nobjective = forrester5\n")
    with pytest.raises(ConfigError, match="campagin"):
        cfgmod.parse_config(path)


def test_dimension_mismatch_rejected(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text(
        "[campaign]\nobjective = forrester5\n[space]\nlower = 0, 0\nupper = 1, 1\n"
    )
    with pytest.raises(ConfigError, match="dimension"):
        cfgmod.parse_config(path)


def test_bad_values_rejected(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[campaign]\nn = zero\n")
    with pytest.raises(ConfigError):
        cfgmod.parse_config(path)
    path.write_text("[campaign]\nbudget = -5\n")
    with pytest.raises(ConfigError):
        cfgmod.parse_config(path)
    for line in ("budget = inf", "budget = nan", "beta = nan", "beta = inf"):
        path.write_text(f"[campaign]\n{line}\n")
        with pytest.raises(ConfigError, match="finite"):
            cfgmod.parse_config(path)


def test_payload_round_trip(tmp_path):
    # a config written to a log's header is the config replay reads back
    cfg = cfgmod.CampaignConfig(
        objective="reactor-proxy",
        lower=[5.0, 1.5, 4.0, 0.0],
        upper=[20.0, 4.0, 15.0, 1.0],
        base_costs=[1, 2, 4, 8, 16],
        budget=25.0,
        seed=3,
    )
    log_path = tmp_path / "records.jsonl"
    with logio.ResultsLogWriter(log_path, cfg):
        pass
    again, state = logio.replay(log_path)
    assert again == cfg and state.budget_total == 25.0


@pytest.mark.parametrize(
    "payload",
    [{"beta": True}, {"budget": True}, {"lower": [False]}, {"upper": [True]},
     {"lower": [False], "upper": [True]}, {"nominals": [False, 0.25, 0.5, 0.75, 1.0]},
     {"base_costs": [True, 2, 4, 8, 16]}],
    ids=["beta", "budget", "lower", "upper", "lower-and-upper", "nominals", "base-costs"],
)
def test_bool_numbers_rejected(payload):
    # bool is an int subclass, so True would otherwise pass as 1 and False as 0
    with pytest.raises(ConfigError, match="must hold numbers"):
        cfgmod.CampaignConfig(**payload)


@pytest.mark.parametrize(
    "payload",
    [{"lower": "0.5"}, {"lower": ["0.5"]}, {"beta": "2"}, {"budget": None},
     {"nominals": ["0", 0.25, 0.5, 0.75, 1.0]}, {"base_costs": ["1", "2", "4", "8", "16"]}],
    ids=["lower-str", "lower-str-item", "beta-str", "budget-none", "nominals-str-item",
         "base-costs-str-items"],
)
def test_non_real_numbers_rejected(payload):
    # DesignSpace and the ladder would convert "0.5" to 0.5; a string is refused instead
    with pytest.raises(ConfigError, match="must hold numbers"):
        cfgmod.CampaignConfig(**payload)


@pytest.mark.parametrize("name", ["objective", "out"])
@pytest.mark.parametrize("value", [None, 5, ["a"]], ids=["none", "int", "list"])
def test_names_that_are_not_strings_rejected(name, value):
    # a log header can hold any JSON value; a list made the frozen config unhashable
    with pytest.raises(ConfigError, match=f"{name} must be a string"):
        cfgmod.CampaignConfig(**{name: value})


def test_config_checks_itself_and_cannot_change():
    with pytest.raises(ConfigError, match="n must be >= 1"):
        cfgmod.CampaignConfig(n=0)
    with pytest.raises(ConfigError, match="budget"):
        cfgmod.CampaignConfig(budget=float("inf"))
    cfg = cfgmod.CampaignConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 3
    assert dataclasses.replace(cfg, seed=3).seed == 3
    with pytest.raises(ConfigError, match="seed must be an integer"):
        dataclasses.replace(cfg, seed="3")


def test_config_keeps_tuples_the_caller_cannot_edit():
    lower, costs = [0.0], [1, 2, 4, 8, 16]
    cfg = cfgmod.CampaignConfig(lower=lower, base_costs=costs)
    lower.append(0.5)
    costs[0] = 99
    assert cfg.lower == (0.0,) and cfg.base_costs == (1, 2, 4, 8, 16)
    assert all(type(c) is int for c in cfg.base_costs)  # elements kept as given
    for name in ("lower", "upper", "nominals", "base_costs"):
        assert type(getattr(cfg, name)) is tuple
    assert cfg.build_space().dimension == 1
    assert json.dumps(dataclasses.asdict(cfg)["lower"]) == "[0.0]"  # a header's bytes as before
    # a hand-written header's scalar bound is a one-tuple
    scalar = cfgmod.CampaignConfig(lower=0.0, upper=1.0)
    assert (scalar.lower, scalar.upper) == ((0.0,), (1.0,))


def test_new_log_must_carry_its_config(tmp_path):
    # a writer without a config appends, and only to a log that exists, so no
    # writer makes a log without a header (which resume and report refuse)
    log_path = tmp_path / "records.jsonl"
    with pytest.raises(FileNotFoundError):
        logio.ResultsLogWriter(log_path)
    assert not log_path.exists()
    with logio.ResultsLogWriter(log_path, cfgmod.CampaignConfig()):
        pass
    header = json.loads(log_path.read_text())
    assert cfgmod.CampaignConfig(**header["config"]) == cfgmod.CampaignConfig()
    with logio.ResultsLogWriter(log_path):
        pass
    assert log_path.read_text().count("\n") == 1  # an appended log writes no header
