import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mfdgp import acquisition, campaign, cli, dgp, gp
from mfdgp import logio
from mfdgp.errors import ConditioningError, DomainError, MfdgpError
from mfdgp.objectives import ForresterFamily, reactor

# Cheap declared base costs keep CLI campaigns small: initial design with
# n = 3 costs 45, so a budget of 50 leaves a handful of loop evaluations.
CHEAP_COSTS = "1, 2, 3, 4, 5"


def write_config(path, n=3, budget=50.0, seed=7, out="out", base_costs=CHEAP_COSTS):
    path.write_text(
        "[campaign]\n"
        "objective = forrester5\n"
        f"n = {n}\n"
        "beta = 2.0\n"
        f"budget = {budget}\n"
        f"seed = {seed}\n"
        f"out = {out}\n"
        "[space]\n"
        "lower = 0.0\n"
        "upper = 1.0\n"
        "[fidelity]\n"
        "nominals = 0.0, 0.25, 0.5, 0.75, 1.0\n"
        f"base_costs = {base_costs}\n"
    )


def eval_lines(log_path):
    return [
        line
        for line in Path(log_path).read_text().splitlines()
        if json.loads(line)["type"] == "eval"
    ]


def read_csv_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len({len(r) for r in rows}) == 1  # constant column count
    return rows


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------


def test_init_writes_template_and_respects_noclobber(tmp_path, capsys):
    target = tmp_path / "c.ini"
    assert cli.main(["init", str(target)]) == 0
    assert target.exists()
    target.write_text("keep\n")
    capsys.readouterr()
    assert cli.main(["init", str(target)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert target.read_text() == "keep\n"
    assert cli.main(["init", str(target), "--force"]) == 0


def test_init_template_runs_end_to_end(tmp_path, monkeypatch):
    # the shipped template with a tiny budget completes a campaign
    monkeypatch.chdir(tmp_path)
    assert cli.main(["init", "c.ini"]) == 0
    text = Path("c.ini").read_text().replace("budget = 60.0", "budget = 32.0")
    Path("c.ini").write_text(text)
    assert cli.main(["run", "--config", "c.ini", "--out", "tpl-out"]) == 0
    assert (tmp_path / "tpl-out" / "records.jsonl").exists()


# each subcommand takes only the flags it reads; the others are argparse errors
_LOG = ["--log", "r.jsonl"]


@pytest.mark.parametrize(
    "argv",
    [
        ["init", "c.ini", "--config", "x.ini"],
        ["init", "c.ini", "--seed", "1"],
        ["init", "c.ini", "--out", "d"],
        ["run", "--config", "c.ini", "--force"],
        ["resume", *_LOG, "--budget", "1", "--config", "c.ini"],
        ["resume", *_LOG, "--budget", "1", "--out", "d"],
        ["resume", *_LOG, "--budget", "1", "--force"],
        ["resume", *_LOG, "--budget", "1", "--seed", "1"],
        ["validate-fidelity", "--force"],
        ["validate-fidelity", "--config", "c.ini"],
        ["report", *_LOG, "--config", "c.ini"],
        ["report", *_LOG, "--seed", "1"],
        ["report", *_LOG, "--force"],
    ],
    ids=["init-config", "init-seed", "init-out", "run-force", "resume-config", "resume-out",
         "resume-force", "resume-seed", "validate-fidelity-force", "validate-fidelity-config",
         "report-config", "report-seed", "report-force"],
)
def test_flag_the_subcommand_ignores_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_streams_initial_then_loop_records(tmp_path):
    cfg = tmp_path / "c.ini"
    write_config(cfg, out=str(tmp_path / "out"))
    assert cli.main(["run", "--config", str(cfg)]) == 0
    log_path = tmp_path / "out" / "records.jsonl"
    records = [json.loads(line) for line in eval_lines(log_path)]
    assert len(records) >= 16
    assert all(r["phase"] == "initial-design" for r in records[:15])
    assert records[15]["phase"] == "bo-loop"
    # replay holds the ledger invariants
    _, state = logio.replay(log_path)
    assert state.budget_spent == pytest.approx(
        sum(r.cost for r in state.records), abs=1e-9
    )
    assert state.incumbent is not None


def test_run_budget_equal_to_initial_design(tmp_path):
    cfg = tmp_path / "c.ini"
    write_config(cfg, n=1, budget=15.0, out=str(tmp_path / "out"))
    assert cli.main(["run", "--config", str(cfg)]) == 0
    records = [json.loads(line) for line in eval_lines(tmp_path / "out" / "records.jsonl")]
    assert len(records) == 5
    assert all(r["phase"] == "initial-design" for r in records)


def test_run_determinism_byte_identical_records(tmp_path):
    cfg_a = tmp_path / "a.ini"
    cfg_b = tmp_path / "b.ini"
    write_config(cfg_a, out=str(tmp_path / "outA"))
    write_config(cfg_b, out=str(tmp_path / "outB"))
    assert cli.main(["run", "--config", str(cfg_a)]) == 0
    assert cli.main(["run", "--config", str(cfg_b)]) == 0
    assert eval_lines(tmp_path / "outA" / "records.jsonl") == eval_lines(
        tmp_path / "outB" / "records.jsonl"
    )


def test_run_rejects_bad_config_before_evaluating(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[campaign]\nobjective = unknown-thing\n")
    assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_CONFIG
    cfg.write_text("[campaign]\nbudgets = 3\n")
    assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_CONFIG
    with pytest.raises(SystemExit) as exc:  # --config missing
        cli.main(["run"])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "--config" in capsys.readouterr().err


FORRESTER_BOX = "[space]\nlower = 0.0\nupper = 1.0\n"
REACTOR_BOX = "[space]\nlower = 5.0, 1.5, 4.0, 0.0\nupper = 20.0, 4.0, 15.0, 1.0\n"


@pytest.mark.parametrize(
    "text",
    [
        "[campaign]\nobjective = forrester5\n" + FORRESTER_BOX
        + "[fidelity]\nnominals = 0.5, 0.2\n",
        "[campaign]\nobjective = forrester5\n" + FORRESTER_BOX
        + "[fidelity]\nnominals = 0, 1.5\n",
        "[campaign]\nobjective = forrester5\n" + FORRESTER_BOX
        + "[fidelity]\nbase_costs = 1, 0, 4, 8, 16\n",
        "[campaign]\nobjective = forrester5\n[space]\nlower = nan\nupper = 1.0\n",
        "[campaign]\nobjective = reactor-proxy\n" + REACTOR_BOX
        + "[fidelity]\nnominals = 0, 0.5, 1\n",
        "[campaign]\nobjective = forrester5\n[space]\nlower = 0.0\nupper = 2.0\n",
        "[campaign]\nobjective = reactor-proxy\n"
        "[space]\nlower = 5.0, 1.5, 3.0, 0.0\nupper = 20.0, 4.0, 15.0, 1.0\n",
        b"[campaign]\nobjective = forrester5\n" + FORRESTER_BOX.encode() + b"# caf\xe9\n",
        "[DEFAULT]\nbudget = 5\nbogus = 1\n",
        "[fidelity]\nnominals = ,\n",
        "[campaign]\nn = 1001\n",
        "[campaign]\nn = 100000000000000000000\n",
    ],
    ids=["decreasing-nominals", "nominal-above-1", "zero-base-cost", "nan-bound",
         "reactor-3-levels", "upper-outside-box", "reactor-lower-outside-box", "not-utf-8",
         "default-section-only", "empty-nominals", "n-above-1000", "n-10e20"],
)
def test_values_the_built_objects_reject_exit_2(tmp_path, monkeypatch, capsys, text):
    monkeypatch.chdir(tmp_path)
    raw = text if isinstance(text, bytes) else text.encode()
    Path("c.ini").write_bytes(raw)
    assert cli.main(["run", "--config", "c.ini"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not Path("campaign-out").exists()
    assert Path("c.ini").read_bytes() == raw


@pytest.mark.parametrize("out", ["runs/100%done", "runs/%(seed)s"])
def test_percent_in_out_is_a_literal_directory(tmp_path, monkeypatch, out):
    # no interpolation: %(seed)s names neither the file's seed nor --seed's
    monkeypatch.chdir(tmp_path)
    write_config(Path("c.ini"), n=1, budget=1.0, seed=4, out=out)
    assert cli.main(["run", "--config", "c.ini", "--seed", "3"]) == 0
    assert [p.name for p in Path("runs").iterdir()] == [Path(out).name]
    assert len(eval_lines(Path(out) / "records.jsonl")) == 5


def test_seed_flag_overrides_config(tmp_path):
    cfg = tmp_path / "c.ini"
    write_config(cfg, seed=7, out=str(tmp_path / "o1"))
    assert cli.main(["run", "--config", str(cfg)]) == 0
    write_config(cfg, seed=8, out=str(tmp_path / "o2"))
    assert cli.main(["run", "--config", str(cfg), "--seed", "7"]) == 0
    assert eval_lines(tmp_path / "o1" / "records.jsonl") == eval_lines(
        tmp_path / "o2" / "records.jsonl"
    )


def _fail_in_training(monkeypatch):
    # the 2nd training call (loop iteration 2) fails to factorize
    train = dgp.train
    calls = {"n": 0}

    def failing_train(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise ConditioningError("forced factorization failure")
        return train(*args, **kwargs)

    monkeypatch.setattr(dgp, "train", failing_train)


def _fail_in_acquisition(monkeypatch):
    # one gp.predict call inside the 2nd UCB solve (loop iteration 2) fails
    solve_ucb, predict = acquisition.solve_ucb, gp.predict
    calls = {"solves": 0, "raised": False}

    def counting_solve_ucb(*args, **kwargs):
        calls["solves"] += 1
        return solve_ucb(*args, **kwargs)

    def failing_predict(*args, **kwargs):
        if calls["solves"] == 2 and not calls["raised"]:
            calls["raised"] = True
            raise ConditioningError("forced variance below clamp threshold")
        return predict(*args, **kwargs)

    monkeypatch.setattr(acquisition, "solve_ucb", counting_solve_ucb)
    monkeypatch.setattr(gp, "predict", failing_predict)


def test_training_failure_exits_3_and_resume_completes(tmp_path, monkeypatch, capsys):
    _fail_in_training(monkeypatch)
    _assert_exit_3_and_resume_completes(tmp_path, monkeypatch, capsys,
                                        "forced factorization failure")


def test_acquisition_failure_exits_3_and_resume_completes(tmp_path, monkeypatch, capsys):
    _fail_in_acquisition(monkeypatch)
    _assert_exit_3_and_resume_completes(tmp_path, monkeypatch, capsys,
                                        "forced variance below clamp threshold")


def _assert_exit_3_and_resume_completes(tmp_path, monkeypatch, capsys, message):
    # the failure is patched in: the run stops in loop iteration 2 with exit 3
    cfg = tmp_path / "c.ini"
    write_config(cfg, budget=58.0, out=str(tmp_path / "out"))
    log = tmp_path / "out" / "records.jsonl"
    assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_OBJECTIVE
    assert "Traceback" not in capsys.readouterr().err
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert [p["type"] for p in lines[-2:]] == ["error", "summary"]
    assert message in lines[-2]["message"]
    assert len(eval_lines(log)) == 16  # 15 initial + 1 loop evaluation
    assert lines[-1]["model_best"] is not None  # the final model trained

    # resuming from the failed log finishes the same campaign
    monkeypatch.undo()
    assert cli.main(["resume", "--log", str(log), "--budget", "0.0"]) == 0
    write_config(cfg, budget=58.0, out=str(tmp_path / "full"))
    assert cli.main(["run", "--config", str(cfg)]) == 0
    assert eval_lines(log) == eval_lines(tmp_path / "full" / "records.jsonl")


def test_resume_finishes_failed_initial_design(tmp_path, monkeypatch):
    # level 3 fails once, at the first point of its design: the run stops
    # after the 6 level 1-2 evaluations; the resume finishes the design and
    # the loop, record for record like an uninterrupted run
    evaluate = ForresterFamily.evaluate

    def failing_evaluate(self, x, level):
        if level.index == 3:
            raise RuntimeError("solver exploded")
        return evaluate(self, x, level)

    monkeypatch.setattr(ForresterFamily, "evaluate", failing_evaluate)
    cfg = tmp_path / "c.ini"
    write_config(cfg, out=str(tmp_path / "out"))
    log = tmp_path / "out" / "records.jsonl"
    assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_OBJECTIVE
    assert len(eval_lines(log)) == 6
    error = json.loads(log.read_text().splitlines()[-2])
    assert error["message"].startswith("objective failed at iteration 0 (initial-design), level 3")
    # no top-level record yet, so the summary holds no recommendation
    assert json.loads(log.read_text().splitlines()[-1])["model_best"] is None
    monkeypatch.setattr(ForresterFamily, "evaluate", evaluate)
    assert cli.main(["resume", "--log", str(log), "--budget", "5.0"]) == 0
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert lines[-1]["type"] == "summary" and lines[-1]["budget_total"] == 55.0
    write_config(cfg, budget=55.0, out=str(tmp_path / "full"))
    assert cli.main(["run", "--config", str(cfg)]) == 0
    assert eval_lines(log) == eval_lines(tmp_path / "full" / "records.jsonl")


def test_cost_overflow_exits_3(tmp_path, capsys):
    # base costs of 1e308 take the spend to infinity at the level-2 design
    # point: the run refuses that record and its summary holds the last
    # finite spend
    cfg = tmp_path / "c.ini"
    write_config(cfg, n=1, base_costs=", ".join(["1e308"] * 5), out=str(tmp_path / "out"))
    log = tmp_path / "out" / "records.jsonl"
    assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_OBJECTIVE
    assert "Traceback" not in capsys.readouterr().err
    assert "Infinity" not in log.read_text()
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert [p["type"] for p in lines[-2:]] == ["error", "summary"]
    assert lines[-2]["message"].startswith("ledger refused the evaluation at iteration 0")
    assert "level 2" in lines[-2]["message"]
    assert lines[-1]["budget_spent"] == 1e308
    assert len(eval_lines(log)) == 1


def test_cost_that_leaves_the_spend_unchanged_exits_3(tmp_path, capsys, monkeypatch, recwarn):
    # a level-5 cost of 1e-320 is below half an ulp of the design's spend of
    # 15, so it would leave the spend there and the loop would never reach
    # the budget; the run refuses that record. The loop is stubbed out, so
    # a run that accepts the record ends instead of spinning
    monkeypatch.setattr(campaign, "continue_run", lambda state, *args, **kwargs: state)
    cfg = tmp_path / "c.ini"
    write_config(cfg, n=1, base_costs="1, 2, 4, 8, 1e-320", out=str(tmp_path / "out"))
    log = tmp_path / "out" / "records.jsonl"
    assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_OBJECTIVE
    err = capsys.readouterr().err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert [p["type"] for p in lines[-2:]] == ["error", "summary"]
    assert lines[-2]["message"].startswith("ledger refused the evaluation at iteration 0")
    assert "level 5" in lines[-2]["message"]
    assert lines[-1]["budget_spent"] == 15.0
    assert len(eval_lines(log)) == 4


def test_cost_ratio_that_overflows_exits_3(tmp_path, capsys, recwarn):
    # level 1's design cost of 1e-320 moves the empty ledger's spend, so the
    # ledger takes it; at the first loop iteration max(tau) / tau overflows,
    # and the fidelity pick refuses the costs instead of scoring infinity
    cfg = tmp_path / "c.ini"
    write_config(cfg, n=1, budget=34.0, base_costs="1e-320, 2, 4, 8, 16",
                 out=str(tmp_path / "out"))
    log = tmp_path / "out" / "records.jsonl"
    assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_OBJECTIVE
    err = capsys.readouterr().err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert [p["type"] for p in lines[-2:]] == ["error", "summary"]
    assert lines[-2]["message"].startswith("model failed at iteration 1: cost ratio")
    assert len(eval_lines(log)) == 5


# ---------------------------------------------------------------------------
# resume
# ---------------------------------------------------------------------------


def test_resume_splice_equivalence(tmp_path):
    short_cfg = tmp_path / "short.ini"
    full_cfg = tmp_path / "full.ini"
    write_config(short_cfg, budget=50.0, out=str(tmp_path / "short"))
    write_config(full_cfg, budget=58.0, out=str(tmp_path / "full"))
    assert cli.main(["run", "--config", str(short_cfg)]) == 0
    assert cli.main(
        ["resume", "--log", str(tmp_path / "short" / "records.jsonl"), "--budget", "8.0"]
    ) == 0
    assert cli.main(["run", "--config", str(full_cfg)]) == 0
    assert eval_lines(tmp_path / "short" / "records.jsonl") == eval_lines(
        tmp_path / "full" / "records.jsonl"
    )


def test_resume_appends_on_a_new_line(tmp_path):
    # a log whose last line lacks its newline still replays; the resume must
    # not glue its first line onto that summary line
    cfg = tmp_path / "c.ini"
    write_config(cfg, out=str(tmp_path / "out"))
    log = tmp_path / "out" / "records.jsonl"
    assert cli.main(["run", "--config", str(cfg)]) == 0
    first = eval_lines(log)
    log.write_bytes(log.read_bytes().rstrip(b"\n"))
    assert cli.main(["resume", "--log", str(log), "--budget", "2"]) == 0
    _, state = logio.replay(log)
    lines = eval_lines(log)
    assert len(lines) > len(first) and lines[:len(first)] == first
    assert len(state.records) == len(lines)


def test_resume_zero_budget_is_noop(tmp_path):
    cfg = tmp_path / "c.ini"
    write_config(cfg, out=str(tmp_path / "out"))
    assert cli.main(["run", "--config", str(cfg)]) == 0
    log = tmp_path / "out" / "records.jsonl"
    before = eval_lines(log)
    assert cli.main(["resume", "--log", str(log), "--budget", "0.0"]) == 0
    assert eval_lines(log) == before


@pytest.mark.parametrize("budget", ["inf", "nan", "-1.0"])
def test_resume_rejects_bad_budget_exit_2(tmp_path, budget):
    cfg = tmp_path / "c.ini"
    write_config(cfg, n=1, budget=15.0, out=str(tmp_path / "out"))
    assert cli.main(["run", "--config", str(cfg)]) == 0
    log = tmp_path / "out" / "records.jsonl"
    before = log.read_text()
    assert cli.main(["resume", "--log", str(log), "--budget", budget]) == cli.EXIT_CONFIG
    assert log.read_text() == before


def test_resume_total_overflow_exit_2(tmp_path, monkeypatch):
    # the log's total of 1.5e308 plus --budget 1.5e308 is infinite; the loop
    # is stubbed out, as no spend reaches such totals
    monkeypatch.setattr(campaign, "continue_run", lambda state, *args, **kwargs: state)
    cfg = tmp_path / "c.ini"
    write_config(cfg, n=1, budget=1.5e308, out=str(tmp_path / "out"))
    assert cli.main(["run", "--config", str(cfg)]) == 0
    log = tmp_path / "out" / "records.jsonl"
    before = log.read_text()
    assert json.loads(before.splitlines()[-1])["budget_total"] == 1.5e308
    assert cli.main(["resume", "--log", str(log), "--budget", "1.5e308"]) == cli.EXIT_CONFIG
    assert log.read_text() == before


def test_resume_finishes_a_log_cut_before_its_first_summary(tmp_path):
    # the header and 8 evals: with no summary, the total is the header's budget
    cfg = tmp_path / "c.ini"
    write_config(cfg, n=1, budget=40.0, seed=3, out=str(tmp_path / "full"))
    assert cli.main(["run", "--config", str(cfg)]) == 0
    full = tmp_path / "full" / "records.jsonl"
    cut = tmp_path / "cut.jsonl"
    cut.write_text("".join(full.read_text().splitlines(keepends=True)[:9]))
    assert len(eval_lines(cut)) == 8
    assert cli.main(["resume", "--log", str(cut), "--budget", "0"]) == 0
    assert eval_lines(cut) == eval_lines(full)
    assert json.loads(cut.read_text().splitlines()[-1])["budget_total"] == 40.0


def test_resume_or_report_of_a_missing_log_exits_2(tmp_path, capsys):
    log = tmp_path / "records.jsonl"
    for argv in (["resume", "--log", str(log), "--budget", "1"], ["report", "--log", str(log)]):
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_resume_truncated_log_exit_4(tmp_path):
    cfg = tmp_path / "c.ini"
    write_config(cfg, out=str(tmp_path / "out"))
    assert cli.main(["run", "--config", str(cfg)]) == 0
    log = tmp_path / "out" / "records.jsonl"
    log.write_text(log.read_text()[:-12])
    assert cli.main(["resume", "--log", str(log), "--budget", "5.0"]) == cli.EXIT_CORRUPT_LOG


def test_eval_x_of_another_shape_exit_4(tmp_path, capsys):
    # a 1-D campaign's log whose second level-1 eval (line 3) gets a 2-entry
    # x, or whose every x gets 0.5 appended (first caught at line 2)
    def one_wide(lines):
        assert json.loads(lines[2])["level"] == 1
        _set_fields(lines, 3, x=[0.1, 0.2])

    def every_wide(lines):
        for i, line in enumerate(lines, start=1):
            rec = json.loads(line)
            if rec["type"] == "eval":
                _set_fields(lines, i, x=rec["x"] + [0.5])

    _assert_edited_log_exit_4(tmp_path, capsys, "one", 2, one_wide, 3)
    _assert_edited_log_exit_4(tmp_path, capsys, "every", 1, every_wide, 2)


def test_eval_non_finite_y_or_x_exit_4(tmp_path, capsys):
    # a 1-D, n=1 campaign's log whose level-2 eval (line 3) has y NaN, or
    # whose level-1 eval (line 2) has x Infinity; Python's json reads both
    def edit(line_no, level, key, value):
        def apply(lines):
            assert json.loads(lines[line_no - 1])["level"] == level
            _set_fields(lines, line_no, **{key: value})
        return apply

    _assert_edited_log_exit_4(tmp_path, capsys, "nan_y", 1, edit(3, 2, "y", float("nan")), 3)
    _assert_edited_log_exit_4(tmp_path, capsys, "inf_x", 1, edit(2, 1, "x", [float("inf")]), 2)


def _set_fields(lines, line_no, **fields):
    """Set ``fields`` on the JSON object of 1-based line ``line_no`` of a log's byte lines."""
    lines[line_no - 1] = (json.dumps({**json.loads(lines[line_no - 1]), **fields}) + "\n").encode()


def _assert_edited_log_exit_4(tmp_path, capsys, name, n, edit, line_no):
    # run forrester5 at budget 1, edit its log's byte lines, then resume and
    # report must exit 4 naming line_no, print no traceback and leave the
    # log's bytes and its directory unchanged
    cfg = tmp_path / f"{name}.ini"
    write_config(cfg, n=n, budget=1.0, out=str(tmp_path / name))
    assert cli.main(["run", "--config", str(cfg)]) == 0
    log = tmp_path / name / "records.jsonl"
    lines = log.read_bytes().splitlines(keepends=True)
    edit(lines)
    log.write_bytes(b"".join(lines))
    before = log.read_bytes()
    capsys.readouterr()
    for argv in (["resume", "--log", str(log), "--budget", "40.0"],
                 ["report", "--log", str(log)]):
        assert cli.main(argv) == cli.EXIT_CORRUPT_LOG
        err = capsys.readouterr().err
        assert err.startswith("corrupt log: ") and f"(line {line_no})" in err
        assert "Traceback" not in err
        assert log.read_bytes() == before
    assert [p.name for p in log.parent.iterdir()] == ["records.jsonl"]


def _not_utf_8(line_no):
    def apply(lines):
        lines[line_no - 1] = lines[line_no - 1].replace(b'"type"', b'"ty\xffpe"')
    return apply


def _fields(line_no, **fields):
    return lambda lines: _set_fields(lines, line_no, **fields)


def _overflowing_costs(lines):
    # two costs of 1e308 sum to infinity at the second, line 3
    for line_no in (2, 3):
        _set_fields(lines, line_no, cost=1e308)


def _second_header(lines):
    # a copy of the header at line 5, as when two logs are joined
    lines.insert(4, lines[0])


def _level_7_then_not_json(lines):
    # replay checks the lines in order, so line 3 is named before line 6 is decoded
    _set_fields(lines, 3, level=7)
    lines[5] = b"not json\n"


# A 1-D, n=1 campaign's log: the header, then the initial design at levels
# 1-5 on lines 2-6 (line 3 is level 2, nominal 0.25), then the summary on
# line 7. An infinite total, or a cost that leaves the spend unchanged
# (1e-320 after level 1's cost of 1), would let resume run without end, and
# a 401-digit integer overflows a float.
REFUSED_LOG_EDITS = {
    "header-not-utf-8": (_not_utf_8(1), 1),
    "eval-not-utf-8": (_not_utf_8(4), 4),
    "nominal-0.9": (_fields(3, nominal=0.9), 3),
    "loop-phase-at-0": (_fields(3, phase="bo-loop"), 3),
    "initial-phase-at-1": (_fields(3, iteration=1), 3),
    "level-true": (_fields(2, level=True), 2),
    "level-1.0": (_fields(2, level=1.0), 2),
    "iteration-minus-1": (_fields(3, iteration=-1), 3),
    "iteration-string": (_fields(3, iteration="3", phase="bo-loop"), 3),
    "iteration-4-first": (_fields(2, iteration=4, phase="bo-loop"), 2),
    "summary-total-true": (_fields(7, budget_total=True), 7),
    "summary-total-inf": (_fields(7, budget_total=float("inf")), 7),
    "summary-total-huge-int": (_fields(7, budget_total=10**400), 7),
    "y-huge-int": (_fields(3, y=10**400), 3),
    "y-true": (_fields(3, y=True), 3),
    "y-string": (_fields(3, y="1.5"), 3),
    "cost-true": (_fields(3, cost=True), 3),
    "cost-string": (_fields(3, cost="2"), 3),
    "cost-overflow": (_overflowing_costs, 3),
    "cost-no-spend": (_fields(3, cost=1e-320), 3),
    "x-true": (_fields(2, x=True), 2),
    "x-scalar": (_fields(2, x=0.5), 2),
    "x-string-element": (_fields(2, x=["0.5"]), 2),
    "second-header": (_second_header, 5),
    "first-bad-line-wins": (_level_7_then_not_json, 3),
}


@pytest.mark.parametrize("edit", REFUSED_LOG_EDITS.values(), ids=REFUSED_LOG_EDITS.keys())
def test_refused_log_line_exit_4(tmp_path, capsys, edit):
    _assert_edited_log_exit_4(tmp_path, capsys, "log", 1, *edit)


# ---------------------------------------------------------------------------
# validate-fidelity
# ---------------------------------------------------------------------------


def test_validate_fidelity_outputs(tmp_path):
    out = tmp_path / "rtd"
    assert cli.main(["validate-fidelity", "--out", str(out), "--seed", "0"]) == 0
    rows = read_csv_rows(out / "fidelity_table.csv")
    assert rows[0] == ["level", "cell_count", "fitted_n", "cost"]
    assert len(rows) == 6
    cells = [int(r[1]) for r in rows[1:]]
    assert cells == sorted(cells) and len(set(cells)) == 5
    ns = [float(r[2]) for r in rows[1:]]
    gaps = [abs(n - ns[-1]) for n in ns]
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a * 1.05
    for level in range(1, 6):
        curve_rows = read_csv_rows(out / f"rtd_level_{level}.csv")
        assert curve_rows[0] == ["theta", "e_theta"]
        data = np.asarray([[float(a), float(b)] for a, b in curve_rows[1:]])
        area = np.trapezoid(data[:, 1], data[:, 0])
        assert area == pytest.approx(1.0, abs=1e-3)


# Each command runs in one helper block: where two CPUs are visible, a helper
# process is forked at the command's first job and reaped when it ends.

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the helper is forked")


def visible_cpus(monkeypatch, count):
    """Make helper.block see ``count`` CPUs: two or more fork the helper, one does not."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture
def forks(monkeypatch):
    """The pid each os.fork returned in this process."""
    pids, fork = [], os.fork

    def counted_fork():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_validate_fidelity_agrees_with_the_objective(tmp_path, monkeypatch):
    geometry = [7.5, 2.0, 12.0, 0.4]
    files = {}
    # the finest mesh solved in the helper, then every level in this process
    for cpus in (2, 1):
        visible_cpus(monkeypatch, cpus)
        out = tmp_path / f"rtd-{cpus}"
        argv = ["validate-fidelity", "--out", str(out), "--seed", "5",
                "--geometry", ",".join(map(repr, geometry))]
        assert cli.main(argv) == 0
        assert_no_child_left()
        files[cpus] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert len(files[2]) == 6 and files[2] == files[1]
    rows = read_csv_rows(tmp_path / "rtd-2" / "fidelity_table.csv")[1:]
    objective = reactor.ReactorProxyObjective(seed=5)
    assert [int(r[0]) for r in rows] == [lv.index for lv in objective.ladder]
    for row, level in zip(rows, objective.ladder):
        n_tanks, cost = objective.evaluate(geometry, level)
        assert (float(row[2]), float(row[3])) == (float(repr(n_tanks)), float(repr(cost)))


@needs_fork
def test_validate_fidelity_failing_at_the_top_level_in_the_helper_exits_3(
        tmp_path, monkeypatch, capsys, forks):
    # the finest mesh alone fails, inside the helper: its error reaches this
    # process in ladder order, after the coarser levels' CSVs are written
    simulate, solved_here = reactor.reactor_proxy_simulate, []

    def failing_at_the_top(geom, level, **kwargs):
        solved_here.append(level)
        if level == 5:
            raise MfdgpError("non-finite outlet concentration at the finest mesh")
        return simulate(geom, level, **kwargs)

    monkeypatch.setattr(reactor, "reactor_proxy_simulate", failing_at_the_top)
    errors = {}
    for cpus in (2, 1):
        visible_cpus(monkeypatch, cpus)
        out = tmp_path / f"rtd-{cpus}"
        assert cli.main(["validate-fidelity", "--out", str(out)]) == cli.EXIT_OBJECTIVE
        assert_no_child_left()
        errors[cpus] = capsys.readouterr().err
        assert sorted(path.name for path in out.iterdir()) == [
            f"rtd_level_{t}.csv" for t in range(1, 5)
        ]
    assert errors[2] == errors[1]
    assert errors[2].splitlines() == ["error: non-finite outlet concentration at the finest mesh"]
    assert len(forks) == 1
    # with the helper this process solved levels 1-4, without it all five
    assert solved_here == [1, 2, 3, 4] + [1, 2, 3, 4, 5]


@needs_fork
def test_each_command_forks_at_most_one_helper(tmp_path, monkeypatch, forks):
    # init and report hand the helper no job, so they fork none; a command
    # that trains or solves forks one for all its jobs, and reaps it
    visible_cpus(monkeypatch, 2)
    cfg, log = tmp_path / "c.ini", str(tmp_path / "out" / "records.jsonl")
    write_config(cfg, out=str(tmp_path / "out"))
    for argv, expected in [
        (["init", str(tmp_path / "template.ini")], 0),
        (["run", "--config", str(cfg)], 1),
        (["resume", "--log", log, "--budget", "6"], 1),
        (["report", "--log", log], 0),
        (["validate-fidelity", "--out", str(tmp_path / "rtd")], 1),
    ]:
        del forks[:]
        assert cli.main(argv) == 0, argv
        assert_no_child_left()
        assert len(forks) == expected, argv


def test_validate_fidelity_rejects_bad_geometry(tmp_path, capsys):
    # a wrong count, non-finite values and pitches outside the design box's [4, 15]
    out = tmp_path / "out"
    for geometry in ("1,2,3", "12.5,2.5,inf,0", "12.5,2.5,nan,0", "12.5,2.5,0,0",
                     "12.5,2.5,3.9,0", "12.5,2.5,1e6,0"):
        assert cli.main(
            ["validate-fidelity", "--out", str(out), "--geometry", geometry]
        ) == cli.EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: bad --geometry") and "Traceback" not in err


def test_validate_fidelity_divergence_exits_3(tmp_path, monkeypatch, capsys):
    pulse = reactor._initial_pulse

    def spoiled(cells):
        c = pulse(cells)
        c[0] = np.nan
        return c

    monkeypatch.setattr(reactor, "_initial_pulse", spoiled)
    visible_cpus(monkeypatch, 2)
    out = tmp_path / "rtd"
    assert cli.main(["validate-fidelity", "--out", str(out)]) == cli.EXIT_OBJECTIVE
    assert_no_child_left()
    err = capsys.readouterr().err
    assert "non-finite outlet" in err
    assert "cells=20" in err  # the coarsest level fails first, before the helper's top level
    assert "RuntimeWarning" not in err
    assert not (out / "fidelity_table.csv").exists()


def test_validate_fidelity_package_error_exits_3(tmp_path, monkeypatch, capsys):
    # any package error a command raises ends in one "error:" line, not a traceback
    def refused(curve):
        raise DomainError("curve variance is zero: the response is at the plug-flow limit")

    monkeypatch.setattr(reactor, "fit_tanks_in_series", refused)
    out = tmp_path / "rtd"
    assert cli.main(["validate-fidelity", "--out", str(out)]) == cli.EXIT_OBJECTIVE
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: curve variance is zero: the response is at the plug-flow limit"
    ]
    assert not (out / "fidelity_table.csv").exists()


def _run_fresh_interpreter(script, cwd):
    # a fresh interpreter: this one has scipy.stats and scipy.optimize loaded by the tests
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc


def test_a_forrester_campaign_loads_neither_scipy_stats_nor_scipy_optimize(tmp_path):
    # the samplers are in-house and scipy.optimize waits for a tank fit, so
    # a campaign whose loop draws a Sobol pool loads neither, and
    # validate-fidelity never loads scipy.stats
    write_config(tmp_path / "c.ini", out=str(tmp_path / "out"))
    _run_fresh_interpreter(
        "import json, sys\n"
        "from mfdgp import cli\n"
        f"assert cli.main(['run', '--config', {str(tmp_path / 'c.ini')!r}]) == 0\n"
        f"lines = open({str(tmp_path / 'out' / 'records.jsonl')!r}).read().splitlines()\n"
        "assert any(json.loads(line).get('phase') == 'bo-loop' for line in lines)\n"
        "assert 'scipy.stats' not in sys.modules\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        f"assert cli.main(['validate-fidelity', '--out', {str(tmp_path / 'rtd')!r}]) == 0\n"
        "assert 'scipy.stats' not in sys.modules\n",
        tmp_path,
    )


@needs_fork
def test_a_campaign_with_the_restart_helper_writes_each_byte_once(tmp_path):
    # the run forks one helper at its first training, which leaves by
    # os._exit, and the report forks none; so the golden records and report
    # come out, and a line this process still buffers for stdout when it
    # forks is written once, not again at the helper's exit
    proc = _run_fresh_interpreter(
        "import os, sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "forks, fork = [], os.fork\n"
        "def counted_fork():\n"
        "    pid = fork()\n"
        "    forks.append(pid)\n"
        "    return pid\n"
        "os.fork = counted_fork\n"
        "from test_golden import DATA, golden_outputs\n"
        "sys.stdout = open(1, 'w', closefd=False)  # block-buffered, even under PYTHONUNBUFFERED\n"
        "print('before the campaign')\n"
        f"files = golden_outputs('forrester5', {str(tmp_path)!r})\n"
        "assert files == {rel: (DATA / rel).read_text() for rel in files}\n"
        "assert len(forks) == 1, forks\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('a helper was left unreaped')\n",
        tmp_path,
    )
    lines = proc.stdout.splitlines()
    assert lines[0] == "before the campaign"
    assert len(lines) == len(set(lines)) == 3, lines


def test_importing_the_cli_leaves_out_scipy_optimize(tmp_path):
    # the package root is a docstring: importing it loads no submodule
    _run_fresh_interpreter(
        "import sys\n"
        "import mfdgp\n"
        "assert not [m for m in sys.modules if m.startswith('mfdgp.')]\n"
        "import mfdgp.cli\n"
        "assert 'scipy.optimize' not in sys.modules\n",
        tmp_path,
    )


def test_forrester_commands_load_no_scipy_subpackage_and_a_reactor_solve_loads_special(tmp_path):
    # gp loads scipy's compiled LAPACK module by path and the reactor imports
    # scipy.special inside its solve, so importing the CLI and a forrester
    # run, resume and report load none of these; validate-fidelity loads
    # scipy.special at its first solve
    write_config(tmp_path / "c.ini", out=str(tmp_path / "out"))
    log = str(tmp_path / "out" / "records.jsonl")
    _run_fresh_interpreter(
        "import sys\n"
        "from mfdgp import cli\n"
        "NAMES = ('scipy.linalg', 'scipy.special', 'scipy.optimize', 'scipy.stats')\n"
        "def loaded():\n"
        "    return [name for name in NAMES if name in sys.modules]\n"
        "assert loaded() == [], loaded()\n"
        f"assert cli.main(['run', '--config', {str(tmp_path / 'c.ini')!r}]) == 0\n"
        "assert loaded() == [], loaded()\n"
        f"assert cli.main(['resume', '--log', {log!r}, '--budget', '6']) == 0\n"
        "assert loaded() == [], loaded()\n"
        f"assert cli.main(['report', '--log', {log!r}]) == 0\n"
        "assert loaded() == [], loaded()\n"
        f"assert cli.main(['validate-fidelity', '--out', {str(tmp_path / 'rtd')!r}]) == 0\n"
        "assert 'scipy.special' in sys.modules\n",
        tmp_path,
    )


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_outputs_consistent_csvs(tmp_path):
    cfg = tmp_path / "c.ini"
    write_config(cfg, out=str(tmp_path / "out"))
    assert cli.main(["run", "--config", str(cfg)]) == 0
    log = tmp_path / "out" / "records.jsonl"
    assert cli.main(["report", "--log", str(log)]) == 0

    conv = read_csv_rows(tmp_path / "out" / "convergence.csv")
    assert conv[0] == ["iteration", "cumulative_cost", "incumbent_value"]
    incumbents = [float(r[2]) for r in conv[1:]]
    assert all(b >= a for a, b in zip(incumbents, incumbents[1:]))
    costs = [float(r[1]) for r in conv[1:]]
    assert all(b > a for a, b in zip(costs, costs[1:]))

    tl = read_csv_rows(tmp_path / "out" / "fidelity_timeline.csv")
    assert tl[0] == ["iteration", "level", "cost"]
    levels = {int(r[1]) for r in tl[1:]}
    assert levels <= {1, 2, 3, 4, 5}

    n_records = len(eval_lines(log))
    assert len(tl) - 1 == n_records
    summary = (tmp_path / "out" / "report_summary.txt").read_text()
    counts = {
        int(k): int(v)
        for k, v in (
            pair.split(":")
            for pair in summary.splitlines()[3].split(" = ")[1].split(", ")
        )
    }
    assert sum(counts.values()) == n_records


def test_report_corrupt_log_exit_4(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "header", "format": "mfdgp-results", "config": {}}\nnot json\n')
    assert cli.main(["report", "--log", str(bad)]) == cli.EXIT_CORRUPT_LOG


@pytest.mark.parametrize("command", ["resume", "report"])
@pytest.mark.parametrize(
    "config",
    [{"config": {"bogus": 1}}, {}, {"config": {"n": 0}}, {"config": {"lower": [0.0, 1.0]}},
     {"config": {"n": 1.5}}, {"config": {"n": True}}, {"config": {"seed": "a"}},
     {"config": {"beta": True}}, {"config": {"budget": True}},
     {"config": {"lower": [False]}}, {"config": {"upper": [True]}},
     {"config": {"upper": [2.0]}},
     {"config": {"objective": "reactor-proxy", "lower": [5.0, 1.5, 3.0, 0.0],
                 "upper": [20.0, 4.0, 15.0, 1.0]}},
     {"config": {"budget": 10**400}}, {"config": {"upper": [10**400]}},
     {"config": {"lower": ["0.5"]}}, {"config": {"beta": "2"}},
     {"config": {"objective": "reactor-proxy", "lower": [5.0, 1.5, 4.0, 0.0],
                 "upper": [20.0, 4.0, 15.0, 1.0], "base_costs": ["1", "2", "4", "8", "16"]}},
     {"config": {"nominals": []}}, {"config": {"objective": ["forrester5"]}},
     {"config": {"objective": None}}, {"config": {"out": None}}, {"config": {"out": 5}},
     {"config": {"out": ["a"]}}, {"config": {"n": 1001}}, {"config": {"n": 10**20}}],
    ids=["unknown-key", "no-config", "n-zero", "lower-upper-mismatch",
         "n-float", "n-bool", "seed-str", "beta-bool", "budget-bool", "lower-bool",
         "upper-bool", "upper-outside-box", "reactor-lower-outside-box",
         "budget-huge-int", "upper-huge-int", "lower-str", "beta-str", "base-costs-str",
         "empty-nominals", "objective-list", "objective-null", "out-null", "out-int",
         "out-list", "n-above-1000", "n-10e20"],
)
def test_bad_header_config_exit_4(tmp_path, capsys, command, config):
    log = tmp_path / "records.jsonl"
    log.write_text(json.dumps({"type": "header", "format": "mfdgp-results", **config}) + "\n")
    before = log.read_bytes()
    argv = [command, "--log", str(log)] + (["--budget", "5.0"] if command == "resume" else [])
    assert cli.main(argv) == cli.EXIT_CORRUPT_LOG
    assert "(line 1)" in capsys.readouterr().err
    assert log.read_bytes() == before


# ---------------------------------------------------------------------------
# output paths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["file", "below-file"])
def test_output_path_that_cannot_be_a_directory_exits_2(tmp_path, monkeypatch, capsys, out):
    monkeypatch.chdir(tmp_path)
    Path("afile").write_text("keep\n")
    write_config(Path("c.ini"), n=1, budget=15.0, out="campaign")
    assert cli.main(["run", "--config", "c.ini"]) == 0  # a log for report to read
    capsys.readouterr()
    for argv in (["validate-fidelity", "--out", out],
                 ["run", "--config", "c.ini", "--out", out],
                 ["report", "--log", "campaign/records.jsonl", "--out", out]):
        assert cli.main(argv) == cli.EXIT_CONFIG, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv
    assert Path("afile").read_text() == "keep\n"
    assert [str(p) for p in Path(".").rglob("records.jsonl")] == ["campaign/records.jsonl"]
