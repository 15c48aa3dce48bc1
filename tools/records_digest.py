"""Print a SHA-256 of each identity campaign's records, to compare two commits.

Usage, from the repository root:

    python3 tools/records_digest.py

Runs five campaigns through ``mfdgp.cli.main`` in a temporary directory:
forrester5 at n=1, budget 60, seeds 0-3, and reactor-proxy at n=1, budget
40, seed 0 (beta 2 throughout). For each it prints one line: the campaign's
name, the SHA-256 of its log's ``eval`` and ``summary`` lines, and the
SHA-256 of the three files ``mfdgp report`` writes from that log. A change
that claims to leave records unchanged prints the same lines as its parent.
The commands' own messages go to standard error. The five campaigns take
about a minute on one core.
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
CAMPAIGNS = [(f"forrester5-seed{s}", "forrester5", s, 60.0, FORRESTER_BOX) for s in range(4)]
CAMPAIGNS.append(("reactor-proxy-seed0", "reactor-proxy", 0, 40.0, REACTOR_BOX))


def campaign_digests(objective, seed, budget, box, workdir: Path) -> tuple[str, str]:
    """(records digest, report digest) of one ``mfdgp run`` plus ``mfdgp report``."""
    out = workdir / f"{objective}-{seed}"
    cfg = workdir / f"{objective}-{seed}.ini"
    cfg.write_text(
        f"[campaign]\nobjective = {objective}\nn = 1\nbeta = 2.0\nbudget = {budget!r}\n"
        f"seed = {seed}\nout = {out}\n[space]\nlower = {box[0]}\nupper = {box[1]}\n"
    )
    log = out / "records.jsonl"
    for argv in (["run", "--config", str(cfg)], ["report", "--log", str(log)]):
        with contextlib.redirect_stdout(sys.stderr):
            status = cli.main(argv)
        if status != 0:
            raise SystemExit(f"mfdgp {argv[0]} exited {status} for {objective} seed {seed}")
    records = hashlib.sha256()
    for line in log.read_text().splitlines():
        if json.loads(line)["type"] in ("eval", "summary"):
            records.update(line.encode() + b"\n")
    report = hashlib.sha256()
    for name in REPORT_FILES:
        report.update(name.encode() + b"\0" + (out / name).read_bytes() + b"\0")
    return records.hexdigest(), report.hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, objective, seed, budget, box in CAMPAIGNS:
            records, report = campaign_digests(objective, seed, budget, box, Path(tmp))
            print(f"{name}  records {records}  report {report}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
