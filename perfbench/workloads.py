"""The benchmark's workloads, their correctness checks and their metrics.

Every workload is a fixed round of ``mfdgp`` CLI commands run in this
process through ``mfdgp.cli.main``. A run repeats whole rounds until the
requested seconds have passed, so every run attempts the same commands.

* ``forrester-mf``: ``mfdgp run`` on forrester5, n=1, budget 60, campaign
  seeds 0-2. The objective costs nothing, so all time is optimizer time.
* ``reactor-mf``: ``mfdgp run`` on reactor-proxy, n=1, budget 40, campaign
  seed 0. 4-D box and 5-D augmented layer inputs.
* ``fidelity-study``: ``mfdgp validate-fidelity`` at six geometries whose
  Peclet numbers are fixed (30 to 250) while the geometry itself is drawn
  from the run's seed. The GP layers sit idle; the solver does the work.

The campaign seeds are part of the workload: campaign time and regret
change by a factor of two from one campaign seed to the next, so the run's
seed only sets the order of the round's commands there.
"""

from __future__ import annotations

import io
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import layers
import micro
import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench-out"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

FORRESTER_SEEDS = (0, 1, 2)
FORRESTER_BUDGET = 60.0
REACTOR_SEEDS = (0,)
REACTOR_BUDGET = 40.0
STUDY_PECLETS = (30.0, 46.0, 70.0, 107.0, 163.0, 250.0)
TOP_LEVEL = 5
SETUP_PROBES = 3

WORKLOADS = ("forrester-mf", "reactor-mf", "fidelity-study")


@dataclass
class Command:
    """One CLI command of a round and what its checks need to know."""

    argv: list
    out: Path
    objective: str = ""
    seed: int = 0
    lower: tuple = ()
    upper: tuple = ()
    geometry: tuple = ()


@dataclass
class Outcome:
    """Timings and results of one command; ``wall_s`` is on the speed clock."""

    ok: bool
    wall_s: float
    raw_s: float
    gaps_s: list = field(default_factory=list)
    answer_error: float = 0.0
    regret: float = 0.0


def _config_text(objective, seed, budget, out, lower, upper) -> str:
    return (
        "[campaign]\n"
        f"objective = {objective}\n"
        "n = 1\n"
        "beta = 2.0\n"
        f"budget = {budget!r}\n"
        f"seed = {seed}\n"
        f"out = {out}\n"
        "[space]\n"
        f"lower = {', '.join(map(repr, lower))}\n"
        f"upper = {', '.join(map(repr, upper))}\n"
    )


def build_round(workload: str, seed: int, wdir: Path) -> list[Command]:
    """The round's commands, made from the run's seed; configs go to ``wdir``."""
    rng = np.random.default_rng(seed)
    if workload == "fidelity-study":
        commands = []
        for k in rng.permutation(len(STUDY_PECLETS)):
            geom = checks.geometry_for_peclet(STUDY_PECLETS[k], rng)
            out = wdir / f"pe{STUDY_PECLETS[k]:g}"
            argv = ["validate-fidelity", "--geometry", ",".join(map(repr, geom)),
                    "--seed", str(seed), "--out", str(out)]
            commands.append(Command(argv=argv, out=out, objective="reactor-proxy",
                                    seed=seed, geometry=geom))
        return commands
    if workload == "forrester-mf":
        objective, seeds, budget = "forrester5", FORRESTER_SEEDS, FORRESTER_BUDGET
        lower, upper = (0.0,), (1.0,)
    else:
        objective, seeds, budget = "reactor-proxy", REACTOR_SEEDS, REACTOR_BUDGET
        lower, upper = checks.REACTOR_LOWER, checks.REACTOR_UPPER
    commands = []
    for s in rng.permutation(seeds):
        out = wdir / f"seed{s}"
        cfg = wdir / f"seed{s}.ini"
        cfg.write_text(_config_text(objective, int(s), budget, out, lower, upper))
        commands.append(Command(argv=["run", "--config", str(cfg)], out=out,
                                objective=objective, seed=int(s), lower=lower, upper=upper))
    return commands


def probe_setup(command: Command) -> float:
    """Wall seconds from starting a fresh process to its first objective call.

    ``run_workload`` puts the median of these on the speed clock with the
    run's median probe: a probe inside the fresh process reads slow (cold
    caches), and a single probe is too noisy to scale one setup by.
    """
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(PROBE), *command.argv],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout.split()[-1]) - t0


def reference_optima(workload: str, problems: list) -> dict:
    """f* per campaign objective of the workload, computed apart from the package."""
    if workload == "forrester-mf":
        return {"forrester5": checks.forrester_optimum()[1]}
    if workload == "reactor-mf":
        return {"reactor-proxy": _reactor_optimum(problems)}
    return {}


def _reactor_optimum(problems: list) -> float:
    """Level-5 N at the Pe-maximizing corner, after checking N rises with Pe.

    N depends on the geometry only through Pe, and the corner maximizes the
    Pe map over the box, so if N increases with Pe the corner's N is the
    optimum.
    """
    from mfdgp.objectives import get_objective

    objective = get_objective("reactor-proxy")
    rng = np.random.default_rng(0)
    scan = []
    for pe in STUDY_PECLETS:
        y, _ = objective.evaluate(np.asarray(checks.geometry_for_peclet(pe, rng)), TOP_LEVEL)
        scan.append(y)
    f_star, _ = objective.evaluate(np.asarray(checks.REACTOR_PE_ARGMAX), TOP_LEVEL)
    scan.append(f_star)
    if any(b <= a for a, b in zip(scan, scan[1:])):
        problems.append(f"level-5 N does not rise with Pe: {scan}")
    pe_max = checks.peclet(*checks.REACTOR_PE_ARGMAX)
    problems += checks.check_dispersion([f_star], [checks.CELLS_PER_LEVEL[-1]], pe_max)
    return f_star


def _run_cli(argv) -> bool:
    from mfdgp import cli

    try:
        with redirect_stdout(io.StringIO()):
            return cli.main(argv) == 0
    except Exception:  # a traceback out of the CLI is a failed command, not a crash
        traceback.print_exc(file=sys.stderr)
        return False


def _evaluation_gaps(tracer, w: dict, clock, skip: int, study: bool) -> list:
    """Idle time of the simulator before each of its calls after the first ``skip``.

    The simulator is ``objective.evaluate`` in a campaign and the reactor
    solve in a fidelity study; a gap runs from the end of one call to the
    start of the next.
    """
    sel = w["kind"] == tracer.name_id("reactor.simulate" if study else "objective.evaluate")
    starts, ends = w["start"][sel], w["end"][sel]
    k = max(skip, 1)
    return list(clock(starts[k:]) - clock(ends[k - 1:-1]))


def check_campaign(cmd: Command, f_stars: dict, problems: list) -> tuple[float, float, int]:
    """Check one campaign's log; returns (regret, answer error, initial evaluations)."""
    from mfdgp.objectives import get_objective

    evals, summary = checks.read_log(cmd.out / "records.jsonl")
    where = f"{cmd.objective} seed {cmd.seed}: "
    if summary is None:
        problems.append(where + "no summary line")
        return 0.0, 0.0, 0
    found = []
    found += checks.check_ledger(
        [e["cost"] for e in evals], summary["budget_spent"], summary["budget_total"]
    )
    found += checks.check_in_box([e["x"] for e in evals], cmd.lower, cmd.upper)
    found += checks.check_incumbent(evals, summary, TOP_LEVEL)
    best_x, best_y = summary["incumbent_x"], summary["incumbent_y"]
    y_again, _ = get_objective(cmd.objective, seed=cmd.seed).evaluate(np.asarray(best_x), TOP_LEVEL)
    found += checks.check_reproduced(best_y, y_again)
    if cmd.objective == "forrester5":
        found += checks.check_reproduced(
            best_y, float(checks.forrester_high(best_x[0])), "the closed form"
        )
    f_star = f_stars[cmd.objective]
    found += checks.check_regret(f_star, best_y)
    problems += [where + p for p in found]
    regret = f_star - best_y
    initial = sum(1 for e in evals if e["phase"] == "initial-design")
    return regret, regret / abs(f_star), initial


def check_study(cmd: Command, problems: list) -> float:
    """Check one fidelity study's outputs; returns the finest level's continuum error."""
    table = checks.read_fidelity_table(cmd.out / "fidelity_table.csv")
    pe = checks.peclet(*cmd.geometry)
    where = f"geometry {cmd.geometry} (Pe {pe:.4g}): "
    found = []
    if [row["cells"] for row in table] != list(checks.CELLS_PER_LEVEL):
        found.append(f"cell counts {[row['cells'] for row in table]}")
    for row in table:
        theta, e_theta = checks.read_rtd(cmd.out / f"rtd_level_{row['level']}.csv")
        found += checks.check_rtd_area(theta, e_theta)
    tanks = [row["n"] for row in table]
    found += checks.check_convergence(tanks)
    found += checks.check_dispersion(tanks, checks.CELLS_PER_LEVEL, pe)
    problems += [where + p for p in found]
    continuum = checks.dispersion_tanks(pe)
    return abs(tanks[-1] - continuum) / continuum


def run_round(commands, tracer, targets, f_stars, problems) -> list[Outcome]:
    outcomes = []
    for cmd in commands:
        shutil.rmtree(cmd.out, ignore_errors=True)
        first = len(tracer.kind)
        with tracer.installed(targets), tracer.span("cli.command"):
            ok = _run_cli(cmd.argv)
        w = tracer.window(first)
        clock = tracer.clock(w)
        out = Outcome(ok=ok, wall_s=float(clock(w["end"][0]) - clock(w["start"][0])),
                      raw_s=float(w["end"][0] - w["start"][0]))
        if ok:
            if cmd.argv[0] == "run":
                out.regret, out.answer_error, skip = check_campaign(cmd, f_stars, problems)
            else:
                out.answer_error, skip = check_study(cmd, problems), 1
            out.gaps_s = _evaluation_gaps(tracer, w, clock, skip, cmd.argv[0] != "run")
        outcomes.append(out)
    return outcomes


END_TO_END = (
    ("setup_s", "s"),
    ("command_s", "s"),
    ("decision_s", "s"),
    ("answer_error", "share"),
    ("peak_rss_mb", "MB"),
)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run whole rounds for ``seconds``; return the result line as a dict."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    wdir = OUT / workload
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    commands = build_round(workload, seed, wdir)
    problems: list[str] = []

    setup = [] if trace else [probe_setup(commands[0]) for _ in range(SETUP_PROBES)]
    f_stars = reference_optima(workload, problems)

    probe = speed.solver_probe if workload == "fidelity-study" else speed.gp_probe
    tracer = tracing.Tracer(probe=probe)
    targets = tracing.package_targets(full=trace)
    before = tracing.snapshot(targets)
    rounds = []
    t_begin = time.perf_counter()
    while True:
        rounds.append(run_round(commands, tracer, targets, f_stars, problems))
        if time.perf_counter() - t_begin >= seconds:
            break
    unrestored = tracing.changed(before)
    if unrestored:
        problems.append(f"wrapped functions not restored: {unrestored}")

    done = [o for r in rounds for o in r if o.ok]
    attempted = sum(len(r) for r in rounds)
    if not done:
        raise RuntimeError(f"every one of the {attempted} commands failed")
    command_s = statistics.fmean(o.wall_s for r in rounds for o in r)
    raw_s = statistics.fmean(o.raw_s for r in rounds for o in r)
    w = tracer.window()
    probe_s = statistics.median(w["amount"][w["kind"] == tracer.name_id(tracing.PROBE)] / 1e9)
    print(f"{workload}: {len(rounds)} rounds, wall time per command {raw_s:.4g} s,"
          f" on the speed clock {command_s:.4g} s", file=sys.stderr)
    if trace:
        spans = tracer.spans()
        np.savez_compressed(wdir / "spans.npz", **spans)
        values = layers.layer_metrics(
            spans, len(rounds), statistics.fmean(o.regret for o in done), command_s
        )
        values.update(micro.micro_metrics())
        units = dict(layers.PER_LAYER)
    else:
        gaps = [g for o in done for g in o.gaps_s]
        values = {
            "setup_s": statistics.median(setup) * speed.PROBE_REF_S / probe_s,
            "command_s": command_s,
            "decision_s": statistics.fmean(gaps),
            "answer_error": statistics.fmean(o.answer_error for o in done),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - len(done),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
