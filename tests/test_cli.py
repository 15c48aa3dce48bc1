import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mfdgp import cli, dgp
from mfdgp.dgp import default_ladder
from mfdgp import logio
from mfdgp.errors import ConditioningError
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


def test_init_writes_template_and_respects_noclobber(tmp_path):
    target = tmp_path / "c.ini"
    assert cli.main(["init", str(target)]) == 0
    assert target.exists()
    assert cli.main(["init", str(target)]) == cli.EXIT_CONFIG
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
    state = logio.replay(log_path, default_ladder(), 1)
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
    ],
    ids=["decreasing-nominals", "nominal-above-1", "zero-base-cost", "nan-bound",
         "reactor-3-levels", "upper-outside-box", "reactor-lower-outside-box"],
)
def test_values_the_built_objects_reject_exit_2(tmp_path, monkeypatch, capsys, text):
    monkeypatch.chdir(tmp_path)
    Path("c.ini").write_text(text)
    assert cli.main(["run", "--config", "c.ini"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    assert not Path("campaign-out").exists()


def test_seed_flag_overrides_config(tmp_path):
    cfg = tmp_path / "c.ini"
    write_config(cfg, seed=7, out=str(tmp_path / "o1"))
    assert cli.main(["run", "--config", str(cfg)]) == 0
    write_config(cfg, seed=8, out=str(tmp_path / "o2"))
    assert cli.main(["run", "--config", str(cfg), "--seed", "7"]) == 0
    assert eval_lines(tmp_path / "o1" / "records.jsonl") == eval_lines(
        tmp_path / "o2" / "records.jsonl"
    )


def test_training_failure_exits_3_and_resume_completes(tmp_path, monkeypatch, capsys):
    # the 2nd training call (loop iteration 2) fails to factorize
    train = dgp.train
    calls = {"n": 0}

    def failing_train(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise ConditioningError("forced factorization failure", (1e-10, 1e-8))
        return train(*args, **kwargs)

    monkeypatch.setattr(dgp, "train", failing_train)
    cfg = tmp_path / "c.ini"
    write_config(cfg, budget=58.0, out=str(tmp_path / "out"))
    log = tmp_path / "out" / "records.jsonl"
    assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_OBJECTIVE
    assert "Traceback" not in capsys.readouterr().err
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert [p["type"] for p in lines[-2:]] == ["error", "summary"]
    assert "forced factorization failure" in lines[-2]["message"]
    assert len(eval_lines(log)) == 16  # 15 initial + 1 loop evaluation
    assert lines[-1]["model_best"] is not None  # the final model trained

    # resuming from the failed log finishes the same campaign
    monkeypatch.setattr(dgp, "train", train)
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
    monkeypatch.setattr(ForresterFamily, "evaluate", evaluate)
    assert cli.main(["resume", "--log", str(log), "--budget", "5.0"]) == 0
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert lines[-1]["type"] == "summary" and lines[-1]["budget_total"] == 55.0
    write_config(cfg, budget=55.0, out=str(tmp_path / "full"))
    assert cli.main(["run", "--config", str(cfg)]) == 0
    assert eval_lines(log) == eval_lines(tmp_path / "full" / "records.jsonl")


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
        bad = json.loads(lines[2])
        assert bad["level"] == 1
        lines[2] = json.dumps({**bad, "x": [0.1, 0.2]}) + "\n"

    def every_wide(lines):
        for i, line in enumerate(lines):
            rec = json.loads(line)
            if rec["type"] == "eval":
                lines[i] = json.dumps({**rec, "x": rec["x"] + [0.5]}) + "\n"

    _assert_edited_log_exit_4(tmp_path, capsys, "one", 2, one_wide, 3)
    _assert_edited_log_exit_4(tmp_path, capsys, "every", 1, every_wide, 2)


def test_eval_non_finite_y_or_x_exit_4(tmp_path, capsys):
    # a 1-D, n=1 campaign's log whose level-2 eval (line 3) has y NaN, or
    # whose level-1 eval (line 2) has x Infinity; Python's json reads both
    def edit(line_no, level, key, value):
        def apply(lines):
            rec = json.loads(lines[line_no - 1])
            assert rec["level"] == level
            lines[line_no - 1] = json.dumps({**rec, key: value}) + "\n"
        return apply

    _assert_edited_log_exit_4(tmp_path, capsys, "nan_y", 1, edit(3, 2, "y", float("nan")), 3)
    _assert_edited_log_exit_4(tmp_path, capsys, "inf_x", 1, edit(2, 1, "x", [float("inf")]), 2)


def _assert_edited_log_exit_4(tmp_path, capsys, name, n, edit, line_no):
    # run forrester5 at budget 1, edit its log, then resume and report must
    # exit 4 naming line_no and leave the log and its directory unchanged
    cfg = tmp_path / f"{name}.ini"
    write_config(cfg, n=n, budget=1.0, out=str(tmp_path / name))
    assert cli.main(["run", "--config", str(cfg)]) == 0
    log = tmp_path / name / "records.jsonl"
    lines = log.read_text().splitlines(keepends=True)
    edit(lines)
    log.write_text("".join(lines))
    before = log.read_text()
    for argv in (["resume", "--log", str(log), "--budget", "40.0"],
                 ["report", "--log", str(log)]):
        assert cli.main(argv) == cli.EXIT_CORRUPT_LOG
        assert f"(line {line_no})" in capsys.readouterr().err
        assert log.read_text() == before
    assert [p.name for p in log.parent.iterdir()] == ["records.jsonl"]


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


def test_validate_fidelity_rejects_bad_geometry(tmp_path):
    # a wrong count, non-finite values and pitches outside the design box's [4, 15]
    out = tmp_path / "out"
    for geometry in ("1,2,3", "12.5,2.5,inf,0", "12.5,2.5,nan,0", "12.5,2.5,0,0",
                     "12.5,2.5,3.9,0", "12.5,2.5,1e6,0"):
        assert cli.main(
            ["validate-fidelity", "--out", str(out), "--geometry", geometry]
        ) == cli.EXIT_CONFIG
        assert not out.exists()


def test_validate_fidelity_divergence_exits_3(tmp_path, monkeypatch, capsys):
    pulse = reactor._initial_pulse

    def spoiled(cells):
        c = pulse(cells)
        c[0] = np.nan
        return c

    monkeypatch.setattr(reactor, "_initial_pulse", spoiled)
    out = tmp_path / "rtd"
    assert cli.main(["validate-fidelity", "--out", str(out)]) == cli.EXIT_OBJECTIVE
    err = capsys.readouterr().err
    assert "non-finite outlet" in err
    assert "RuntimeWarning" not in err
    assert not (out / "fidelity_table.csv").exists()


def test_only_sampling_loads_scipy_stats(tmp_path):
    # a fresh interpreter: this one has scipy.stats loaded by the tests
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from mfdgp import cli\n"
        f"assert cli.main(['validate-fidelity', '--out', {str(tmp_path / 'rtd')!r}]) == 0\n"
        "assert 'scipy.stats' not in sys.modules\n"
        "from mfdgp.space import DesignSpace\n"
        "DesignSpace([0.0], [1.0]).sample_lhs(3, np.random.default_rng(0))\n"
        "assert 'scipy.stats' in sys.modules\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


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
                 "upper": [20.0, 4.0, 15.0, 1.0]}}],
    ids=["unknown-key", "no-config", "n-zero", "lower-upper-mismatch",
         "n-float", "n-bool", "seed-str", "beta-bool", "budget-bool", "lower-bool",
         "upper-bool", "upper-outside-box", "reactor-lower-outside-box"],
)
def test_bad_header_config_exit_4(tmp_path, capsys, command, config):
    log = tmp_path / "records.jsonl"
    log.write_text(json.dumps({"type": "header", "format": "mfdgp-results", **config}) + "\n")
    argv = [command, "--log", str(log)] + (["--budget", "5.0"] if command == "resume" else [])
    assert cli.main(argv) == cli.EXIT_CORRUPT_LOG
    assert "(line 1)" in capsys.readouterr().err


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
