"""Command-line front end: configure, run, resume, validate, report.

Exit codes: 0 success, 2 configuration error, 3 campaign or simulation
failure, 4 corrupt results log.

Exit 2 covers:

* a flag the subcommand does not take, or ``run`` without ``--config``;
* ``init`` on an existing file without ``--force``;
* a config file that is not UTF-8, that holds an unknown section or key
  (a ``[DEFAULT]`` section with any key is one), or any config value that
  fails its checks;
* a ``--budget`` that is not finite and >= 0, or that makes the resumed
  total, the log's total plus ``--budget``, not finite;
* a ``--geometry`` outside the reactor's design box;
* a file that cannot be read or written: a missing config or log, or an
  output directory (``--out`` or the configured ``out``) that names a
  plain file or a path below one, in which case ``run`` writes no log.

Exit 4 covers a results log that :func:`logio.replay` refuses: a line that
is not UTF-8 or not JSON; an eval line whose values fail their checks,
whose level, nominal, phase or iteration disagree with the ladder or with
each other, or whose cost makes the spend not finite or leaves it
unchanged; a summary whose budget total is not finite and >= 0; or a
header line after line 1, as when two logs are joined. A first line that
is not a header, or a header whose config fails the same checks as a
config file, is a corrupt line 1. Replay checks the lines in order and
names the first bad one. ``resume`` and ``report`` leave a refused log
unchanged.

``run`` brings an empty ledger to the configured budget, ``resume`` the
replayed log to its last total plus ``--budget``, through one body.
``resume`` always continues on the seed the log header names.

Exit 3 covers every way a ``run`` or ``resume`` campaign fails part-way:
the objective raises, returns a cost that is not finite and > 0 or one
that makes the spend not finite or leaves it unchanged, or a package error
is raised while training, acquiring or picking a fidelity: a
``ConditioningError``, say, or recorded costs so far apart that the cost
ratio max(tau) / tau overflows a fidelity score. The log
keeps the records so far and ends with an ``error`` line and a ``summary``
line. The recommendation is skipped when no top-fidelity record exists,
and when the final model cannot be trained.
Any other package error a command raises exits 3 with one ``error:`` line,
as when ``validate-fidelity``'s transport solve diverges or its tank fit
refuses a curve.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import astuple, replace
from pathlib import Path

from . import campaign, config as cfgmod, logio
from .errors import ConfigError, CorruptLogError, MfdgpError
from .objectives import reactor

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OBJECTIVE = 3
EXIT_CORRUPT_LOG = 4

LOG_NAME = "records.jsonl"


def _final_model(state, cfg):
    return campaign.train_model(state, cfg.seed)


def _campaign(args, cfg, state, budget_total, writer) -> int:
    """Bring ``state`` to ``budget_total``; end the log with any error line, then the summary."""
    with writer:
        space = cfg.build_space()
        campaign.resume(
            state, cfg.build_objective(), space, cfg.n, cfg.beta, budget_total, cfg.seed,
            on_record=writer.record,
        )
        model_best = None
        if state.incumbent is not None:
            try:
                model_best = campaign.recommend(_final_model(state, cfg), space)
            except MfdgpError as exc:
                state.error = state.error or f"final model failed: {exc}"
        if state.error:
            writer.error(state.error)
            print(f"error: {state.error}", file=sys.stderr)
        writer.summary(state, model_best)
    print(f"{args.command} complete: {len(state.records)} evaluations, "
          f"budget {state.budget_spent:g}/{state.budget_total:g}, log at {writer.path}")
    return EXIT_OBJECTIVE if state.error else EXIT_OK


def cmd_init(args) -> int:
    path = Path(args.path)
    if path.exists() and not args.force:
        raise ConfigError(f"{path} exists (use --force to overwrite)")
    path.write_text(cfgmod.TEMPLATE)
    print(f"wrote configuration template to {path}")
    return EXIT_OK


def cmd_run(args) -> int:
    overrides = {k: getattr(args, k) for k in ("seed", "out") if getattr(args, k) is not None}
    cfg = replace(cfgmod.parse_config(args.config), **overrides)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    state = campaign.CampaignState(ladder=cfg.build_objective().ladder)
    writer = logio.ResultsLogWriter(out_dir / LOG_NAME, cfg)
    return _campaign(args, cfg, state, cfg.budget, writer)


def cmd_resume(args) -> int:
    if not (math.isfinite(args.budget) and args.budget >= 0):
        raise ConfigError("--budget must be finite and >= 0")
    cfg, state = logio.replay(args.log)
    total = state.budget_total + args.budget
    if not math.isfinite(total):
        raise ConfigError(f"--budget {args.budget!r} makes the total {total!r}")
    return _campaign(args, cfg, state, total, logio.ResultsLogWriter(args.log))


def cmd_validate_fidelity(args) -> int:
    objective = reactor.ReactorProxyObjective(seed=args.seed)
    out_dir = Path(args.out)
    try:
        geom = objective.geometry([float(v) for v in args.geometry.split(",")])
    except (ValueError, MfdgpError) as exc:
        raise ConfigError(f"bad --geometry: {exc}") from exc

    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    # The fit and CSV writer are looked up on the module at each call, as the
    # solver is in simulate: perfbench's tracer and setup_probe.py patch them.
    for level in objective.ladder:
        curve, cost = objective.simulate(geom, level)
        metric = reactor.fit_tanks_in_series(curve)
        reactor.write_rtd_csv(curve, out_dir / f"rtd_level_{level.index}.csv")
        rows.append(
            (level.index, reactor.cells_for_level(level.index), metric.n_tanks, cost)
        )
    with (out_dir / "fidelity_table.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "cell_count", "fitted_n", "cost"])
        for row in rows:
            writer.writerow([row[0], row[1], repr(row[2]), repr(row[3])])
    print("level  cells  fitted_N      cost")
    for level, cells, n, cost in rows:
        print(f"{level:>5}  {cells:>5}  {n:>8.3f}  {cost:>8.3f}")
    print(f"wrote per-level RTD curves and fidelity_table.csv to {out_dir}")
    return EXIT_OK


def cmd_report(args) -> int:
    log_path = Path(args.log)
    _, state = logio.replay(log_path)
    out_dir = Path(args.out) if args.out else log_path.parent

    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "convergence.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "cumulative_cost", "incumbent_value"])
        for i, rec in enumerate(state.records, start=1):
            seen = campaign.CampaignState(state.ladder, state.records[:i])
            if seen.incumbent is not None:
                writer.writerow([rec.iteration, repr(seen.budget_spent), repr(seen.incumbent.y)])
    with (out_dir / "fidelity_timeline.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "level", "cost"])
        for rec in state.records:
            writer.writerow([rec.iteration, rec.level.index, repr(rec.cost)])
    counts = state.per_level_counts()
    lines = [
        "campaign report",
        f"records = {len(state.records)}",
        f"budget_spent = {state.budget_spent!r}",
        "per_level_counts = " + ", ".join(f"{k}:{v}" for k, v in sorted(counts.items())),
    ]
    inc = state.incumbent
    if inc is not None:
        lines.append(f"incumbent_x = {[float(v) for v in inc.x]!r}")
        lines.append(f"incumbent_y = {inc.y!r}")
    (out_dir / "report_summary.txt").write_text("\n".join(lines) + "\n")
    print(f"wrote convergence.csv, fidelity_timeline.csv, report_summary.txt to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfdgp",
        description="Multi-fidelity Bayesian optimization campaigns with a deep GP surrogate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="write a commented configuration template")
    p.add_argument("path", help="where to write the template")
    p.add_argument("--force", action="store_true", help="overwrite an existing file")
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("run", help="run a campaign from a config file")
    p.add_argument("--config", required=True, metavar="PATH", help="campaign configuration file")
    p.add_argument("--seed", type=int, metavar="INT", help="override the configured random seed")
    p.add_argument("--out", metavar="DIR", help="override the output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("resume", help="continue a finished or interrupted campaign")
    p.add_argument("--log", required=True, metavar="PATH", help="existing results log")
    p.add_argument("--budget", type=float, required=True, metavar="COST",
                   help="extra budget to spend on top of the previous total")
    p.set_defaults(func=cmd_resume)

    p = sub.add_parser("validate-fidelity", help="simulate all reactor fidelities at one geometry")
    p.add_argument("--seed", type=int, default=0, metavar="INT",
                   help="seed of the per-level cost jitter (default: 0)")
    p.add_argument("--out", default="validate-out", metavar="DIR",
                   help="output directory (default: validate-out)")
    p.add_argument("--geometry", default=",".join(map(repr, astuple(reactor.default_geometry()))),
                   metavar="C,T,P,I",
                   help="coil radius, tube radius, pitch, inversion fraction "
                        "(default: %(default)s)")
    p.set_defaults(func=cmd_validate_fidelity)

    p = sub.add_parser("report", help="emit convergence and fidelity-timeline CSVs from a log")
    p.add_argument("--log", required=True, metavar="PATH", help="results log to analyze")
    p.add_argument("--out", metavar="DIR", help="output directory (default: the log's)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CorruptLogError as exc:
        print(f"corrupt log: {exc}", file=sys.stderr)
        return EXIT_CORRUPT_LOG
    except MfdgpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OBJECTIVE
    except OSError as exc:  # a missing input, or an output path that cannot be made
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
