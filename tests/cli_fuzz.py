"""Seeded fuzz of the CLI's inputs: hostile config values and log fields must end in a clean exit.

Each case writes a small forrester5 config (n = 1, base costs 1-5, budget
20), replaces none (half the cases), one or two of its values with hostile
ones, and runs ``mfdgp run`` in-process. When that leaves a results log, the case
replaces one field of a random ``eval`` or ``summary`` line with a hostile
JSON value (``NaN`` and ``Infinity`` included, which Python's ``json``
reads) and runs ``mfdgp resume --budget 2`` and ``mfdgp report`` on it.

A command fails the fuzz when it raises (a traceback), exits with a code
outside {0, 2, 3, 4}, lets a ``RuntimeWarning`` through, or exits 4 and
still changes the log. The fuzz prints each failure with its case and
mutations, then one line of totals, and exits 1 if any command failed.

Budgets stay small. Every hostile value is either refused or keeps a
campaign at a few evaluations: ``budget = 1e308`` is a valid config that
runs without end, and a base cost of 1e-3 leaves room for 20,000
evaluations in a budget of 20, so neither is drawn.

Not a tier-1 test (pytest does not collect it); run it by hand:

    PYTHONPATH=src python tests/cli_fuzz.py [--cases 60] [--seed 0]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

from mfdgp import cli

CLEAN_EXITS = {0, 2, 3, 4}
NAN, INF = float("nan"), float("inf")

BASE_CONFIG = {
    "campaign": {"objective": "forrester5", "n": "1", "beta": "2.0", "budget": "20",
                 "seed": "0", "out": "out"},
    "space": {"lower": "0.0", "upper": "1.0"},
    "fidelity": {"nominals": "0.0, 0.25, 0.5, 0.75, 1.0", "base_costs": "1, 2, 3, 4, 5"},
}

# Hostile text for each config key, as it would stand in the file.
CONFIG_VALUES = {
    ("campaign", "objective"): ["", "nope", "reactor-proxy", "FORRESTER5"],
    ("campaign", "n"): ["0", "-3", "2.5", "abc", "", "100000000000000000000"],
    ("campaign", "beta"): ["-1", "nan", "inf", "1e308", "abc", "0", "1e-320"],
    ("campaign", "budget"): ["0", "-1", "nan", "inf", "abc", "1e-320", "", "15"],
    ("campaign", "seed"): ["-1", "100000000000000000000000", "1.5", "abc", ""],
    ("campaign", "out"): ["", "nested/dir", "config.ini/below-a-file"],
    ("space", "lower"): ["", "0 0", "nan", "-1", "1", "0.5", "abc", "inf"],
    ("space", "upper"): ["", "0 0", "nan", "2", "0", "0.5", "abc", "1e-320"],
    ("fidelity", "nominals"): ["0, 1", "1, 0", "0, 0.5, 0.5", "-1, 0, 1", "nan", "1", "abc",
                               "0, 0.25, 0.5, 0.75, 1, 1.5"],
    ("fidelity", "base_costs"): ["1, 2, 3, 4", "0, 1, 2, 3, 4", "-1, 2, 3, 4, 5",
                                 "nan, 2, 3, 4, 5", "inf, 2, 3, 4, 5", "1e-320, 2, 4, 8, 16",
                                 "1, 2, 4, 8, 1e-320", "1e-300, 2, 3, 4, 5", "abc",
                                 "1e308, 1e308, 1e308, 1e308, 1e308", "5, 4, 3, 2, 1", ""],
}

# Hostile JSON values for each field of an eval or summary line.
LOG_VALUES = {
    "eval": {
        "iteration": [-1, 1.5, "0", None, True, 10**30, 7],
        "phase": ["bo-loop", "initial-design", "x", None],
        "level": [0, 6, True, 1.0, "1", None, 10**30],
        "nominal": [0.3, "0.0", None, INF, NAN],
        "x": [[], [0.5, 0.5], ["0.5"], [NAN], [INF], [1e308], [-5.0], None, 0.5],
        "y": [NAN, INF, -INF, "1", None, True, 1e308, -1e308, 0.0],
        "cost": [0, -1, 1e-320, 1e308, INF, NAN, "1", None, True],
    },
    "summary": {
        "budget_total": [-1, NAN, INF, "60", True, None, 0, 1e-320, 10**400],
        "budget_spent": [NAN, "x", None],
        "incumbent_y": [NAN, "x"],
        "per_level_counts": [None, []],
    },
}


def write_config(path: Path, config: dict) -> None:
    lines = []
    for section, items in config.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in items.items())
    path.write_text("\n".join(lines) + "\n")


def run_command(argv: list, log: Path | None = None) -> str | None:
    """Run ``mfdgp argv`` in-process; what went wrong, or None for a clean exit."""
    before = log.read_bytes() if log is not None and log.exists() else None
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own exit
            code = exc.code
        except Exception:  # any escape is what the fuzz looks for
            return "traceback:\n" + traceback.format_exc()
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    if runtime:
        return f"RuntimeWarning {runtime} (exit {code})"
    if code not in CLEAN_EXITS:
        return f"exit {code}: {out.getvalue()[-400:]}"
    if code == 4 and before is not None and log.read_bytes() != before:
        return "exit 4 changed the log"
    return None


def mutate_log(log: Path, rng: random.Random) -> str:
    """Replace one field of a random eval or summary line; the mutation's description."""
    lines = log.read_text().splitlines()
    candidates = [i for i, line in enumerate(lines)
                  if json.loads(line).get("type") in LOG_VALUES]
    if not candidates:  # a run that stopped right after the header
        return "log left as written"
    i = rng.choice(candidates)
    payload = json.loads(lines[i])
    field = rng.choice(sorted(LOG_VALUES[payload["type"]]))
    value = rng.choice(LOG_VALUES[payload["type"]][field])
    payload[field] = value
    lines[i] = json.dumps(payload)
    log.write_text("\n".join(lines) + "\n")
    return f"line {i + 1} ({payload['type']}) {field} = {json.dumps(value)}"


def run_case(case: int, rng: random.Random, workdir: Path) -> tuple[int, list]:
    """One case in ``workdir``: the commands run and the failures, each a description."""
    config = {section: dict(items) for section, items in BASE_CONFIG.items()}
    mutations = []
    for key in rng.sample(sorted(CONFIG_VALUES), rng.choice([0, 0, 1, 2])):
        value = rng.choice(CONFIG_VALUES[key])
        config[key[0]][key[1]] = value
        mutations.append(f"[{key[0]}] {key[1]} = {value!r}")
    write_config(workdir / "config.ini", config)
    failures = []
    failure = run_command(["run", "--config", "config.ini"])
    commands = 1
    if failure:
        failures.append(f"case {case} run {mutations}: {failure}")
    log = workdir / (config["campaign"]["out"] or ".") / cli.LOG_NAME
    if log.is_file():
        mutations.append(mutate_log(log, rng))
        for argv in (["resume", "--log", str(log), "--budget", "2"],
                     ["report", "--log", str(log), "--out", "report"]):
            commands += 1
            failure = run_command(argv, log)
            if failure:
                failures.append(f"case {case} {argv[0]} {mutations}: {failure}")
    return commands, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=60, help="number of cases (default: 60)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the mutations (default: 0)")
    args = parser.parse_args()
    rng = random.Random(args.seed)
    start = os.getcwd()
    commands, failures = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        for case in range(args.cases):
            workdir = Path(tmp) / f"case-{case}"
            workdir.mkdir()
            os.chdir(workdir)
            try:
                ran, failed = run_case(case, rng, workdir)
            finally:
                os.chdir(start)
            commands += ran
            failures += failed
    for failure in failures:
        print(failure)
    print(f"{args.cases} cases, {commands} commands, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
