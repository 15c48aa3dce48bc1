"""Print a SHA-256 of each identity campaign's records and fidelity study, to compare two commits.

Usage, from the repository root:

    python3 tools/records_digest.py

Runs six campaigns through ``mfdgp.cli.main`` in a temporary directory:
forrester5 at n=1, budget 60, seeds 0-3, reactor-proxy at n=1, budget 40,
seed 0, and forrester5 on its top rung alone (``nominals = 1.0``, so a
one-layer model) at n=3, budget 20, seed 0 (beta 2 throughout). For each
it prints one line: the campaign's name, the SHA-256 of its log's ``eval``
and ``summary`` lines, and the SHA-256 of the three files ``mfdgp report``
writes from that log. It then runs ``mfdgp validate-fidelity --seed 3`` at
the default geometry and at 5.5,2.0,14,0.3, and prints one line per
geometry: the SHA-256 of ``fidelity_table.csv`` and ``rtd_level_1..5.csv``.
A change that claims to leave records and fidelity outputs unchanged
prints the same lines as its parent. The commands' own messages go to
standard error. The whole check takes about a minute on one core.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mfdgp import cli  # noqa: E402

REPORT_FILES = ("convergence.csv", "fidelity_timeline.csv", "report_summary.txt")
FORRESTER_BOX = ("0.0", "1.0")
REACTOR_BOX = ("5.0, 1.5, 4.0, 0.0", "20.0, 4.0, 15.0, 1.0")
# (name, objective, seed, n, budget, box, [fidelity] section)
CAMPAIGNS = [(f"forrester5-seed{s}", "forrester5", s, 1, 60.0, FORRESTER_BOX, "")
             for s in range(4)]
CAMPAIGNS.append(("reactor-proxy-seed0", "reactor-proxy", 0, 1, 40.0, REACTOR_BOX, ""))
CAMPAIGNS.append(("forrester5-top-rung-seed0", "forrester5", 0, 3, 20.0, FORRESTER_BOX,
                  "[fidelity]\nnominals = 1.0\n"))
STUDY_FILES = ("fidelity_table.csv",) + tuple(f"rtd_level_{t}.csv" for t in range(1, 6))
STUDIES = [("fidelity-default", []), ("fidelity-5.5,2.0,14,0.3", ["--geometry", "5.5,2.0,14,0.3"])]


def _main_ok(argv) -> None:
    with contextlib.redirect_stdout(sys.stderr):
        status = cli.main(argv)
    if status != 0:
        raise SystemExit(f"mfdgp {' '.join(argv)} exited {status}")


def _files_digest(out: Path, names) -> str:
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode() + b"\0" + (out / name).read_bytes() + b"\0")
    return digest.hexdigest()


def campaign_digests(name, objective, seed, n, budget, box, fidelity,
                     workdir: Path) -> tuple[str, str]:
    """(records digest, report digest) of one ``mfdgp run`` plus ``mfdgp report``."""
    out = workdir / name
    cfg = workdir / f"{name}.ini"
    cfg.write_text(
        f"[campaign]\nobjective = {objective}\nn = {n}\nbeta = 2.0\nbudget = {budget!r}\n"
        f"seed = {seed}\nout = {out}\n[space]\nlower = {box[0]}\nupper = {box[1]}\n"
        + fidelity
    )
    log = out / "records.jsonl"
    _main_ok(["run", "--config", str(cfg)])
    _main_ok(["report", "--log", str(log)])
    records = hashlib.sha256()
    for line in log.read_text().splitlines():
        if json.loads(line)["type"] in ("eval", "summary"):
            records.update(line.encode() + b"\n")
    return records.hexdigest(), _files_digest(out, REPORT_FILES)


def study_digest(name, geometry_args, workdir: Path) -> str:
    """Digest of the CSVs one ``mfdgp validate-fidelity --seed 3`` writes."""
    out = workdir / name
    _main_ok(["validate-fidelity", "--seed", "3", "--out", str(out), *geometry_args])
    return _files_digest(out, STUDY_FILES)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, *settings in CAMPAIGNS:
            records, report = campaign_digests(name, *settings, Path(tmp))
            print(f"{name}  records {records}  report {report}", flush=True)
        for name, geometry_args in STUDIES:
            print(f"{name}  files {study_digest(name, geometry_args, Path(tmp))}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
