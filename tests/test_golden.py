"""Golden records: two short campaigns reproduce their committed outputs byte for byte.

``tests/data/golden_*.jsonl`` hold the ``eval`` and ``summary`` lines of
two ``mfdgp run`` campaigns, and ``tests/data/golden_*_report/`` the three
files ``mfdgp report`` writes from each log. A refactor must leave them
unchanged. A change that moves records on purpose regenerates the files
with ``PYTHONPATH=src python tests/test_golden.py`` and says so in
CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from mfdgp import cli

DATA = Path(__file__).parent / "data"

# forrester5: n = 3 at costs 1..5 is a 45-unit design, then 3 loop evals.
# reactor-proxy: 5 design evals and 2 loop evals on the 4-D box.
CAMPAIGNS = {
    "forrester5": (
        "objective = forrester5\nn = 3\nbudget = 58.0\nseed = 7\n",
        "lower = 0.0\nupper = 1.0\n"
        "[fidelity]\nnominals = 0.0, 0.25, 0.5, 0.75, 1.0\nbase_costs = 1, 2, 3, 4, 5\n",
    ),
    "reactor_proxy": (
        "objective = reactor-proxy\nn = 1\nbudget = 34.0\nseed = 0\n",
        "lower = 5.0, 1.5, 4.0, 0.0\nupper = 20.0, 4.0, 15.0, 1.0\n",
    ),
}

REPORT_FILES = ("convergence.csv", "fidelity_timeline.csv", "report_summary.txt")


def golden_outputs(name, workdir) -> dict[str, str]:
    """Run and report the named campaign in ``workdir``; map each golden file name to its text."""
    campaign, space = CAMPAIGNS[name]
    out = Path(workdir) / name
    cfg = Path(workdir) / f"{name}.ini"
    cfg.write_text(
        f"[campaign]\n{campaign}beta = 2.0\nout = {out}\n[space]\n{space}"
    )
    assert cli.main(["run", "--config", str(cfg)]) == 0
    log = out / "records.jsonl"
    assert cli.main(["report", "--log", str(log)]) == 0
    records = "".join(
        line + "\n"
        for line in log.read_text().splitlines()
        if json.loads(line)["type"] in ("eval", "summary")
    )
    files = {f"golden_{name}.jsonl": records}
    for report in REPORT_FILES:
        files[f"golden_{name}_report/{report}"] = (out / report).read_text()
    return files


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    return {name: golden_outputs(name, workdir) for name in CAMPAIGNS}


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_reproduces_golden_records(name, outputs):
    golden = f"golden_{name}.jsonl"
    assert outputs[name][golden] == (DATA / golden).read_text()


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
@pytest.mark.parametrize("report", REPORT_FILES)
def test_report_reproduces_golden_files(name, report, outputs):
    golden = f"golden_{name}_report/{report}"
    assert outputs[name][golden] == (DATA / golden).read_text()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CAMPAIGNS):
            for rel, text in golden_outputs(name, tmp).items():
                (DATA / rel).parent.mkdir(exist_ok=True)
                (DATA / rel).write_text(text)
