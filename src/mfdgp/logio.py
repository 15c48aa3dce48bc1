"""Append-only results log: one JSON record per line.

A log starts with a header line carrying the campaign configuration, then
one ``eval`` line per objective evaluation in the order they happened.
Every run or resume ends with a ``summary`` line, preceded by an ``error``
line when it stopped on a failure (an objective error, or a package error
while training or acquiring); a resumed log therefore may contain errors
and summaries mid-file. Replay keeps the last error and the last summary's
budget total. Line-delimited writes mean a crash loses at most one line, and
reloading a log reconstructs a campaign state whose budget and incumbent
invariants hold exactly.

An ``eval`` line repeats two facts that have one owner each: its
``nominal`` is the ladder level's, and its ``phase`` derives from its
``iteration``. The writer keeps both fields; :func:`replay` checks them
against their owners and refuses a line where a copy disagrees.

No timestamps are written anywhere: two runs with the same configuration
and seed produce byte-identical record sequences.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .campaign import CampaignState, EvaluationRecord
from .errors import CorruptLogError

_FORMAT = "mfdgp-results"
_FLOAT_MAX = float(np.finfo(np.float64).max)


class ResultsLogWriter:
    """Owns the output file; appends one line per event and flushes eagerly.

    A new log starts with a header carrying ``config_payload``, which it
    must be given; ``append=True`` continues an existing log, writes no
    header and takes no payload.
    """

    def __init__(self, path, config_payload=None, append=False):
        if append != (config_payload is None):
            raise TypeError("a new results log needs a config payload; append=True takes none")
        self.path = Path(path)
        self._fh = self.path.open("a" if append else "w")
        if not append:
            self._write({"type": "header", "format": _FORMAT, "version": 1,
                         "config": config_payload})

    def _write(self, payload: dict) -> None:
        self._fh.write(json.dumps(payload) + "\n")
        self._fh.flush()

    def record(self, rec: EvaluationRecord) -> None:
        self._write(
            {
                "type": "eval",
                "iteration": rec.iteration,
                "phase": rec.phase,
                "level": rec.level.index,
                "nominal": rec.level.nominal,
                "x": [float(v) for v in rec.x],
                "y": rec.y,
                "cost": rec.cost,
            }
        )

    def error(self, message: str) -> None:
        self._write({"type": "error", "message": message})

    def summary(self, state: CampaignState, model_best=None) -> None:
        incumbent = state.incumbent
        payload = {
            "type": "summary",
            "budget_total": state.budget_total,
            "budget_spent": state.budget_spent,
            "per_level_counts": {str(k): v for k, v in state.per_level_counts().items()},
            "incumbent_x": None if incumbent is None else [float(v) for v in incumbent.x],
            "incumbent_y": None if incumbent is None else incumbent.y,
            "model_best": None if model_best is None else [float(v) for v in model_best],
        }
        self._write(payload)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _decode(raw: bytes, line_no: int) -> dict:
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        message = f"line is not UTF-8 ({exc.reason} at byte {exc.start})"
        raise CorruptLogError(message, line_no) from exc
    if not line.strip():
        raise CorruptLogError("blank line in results log", line_no)
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorruptLogError(f"unparseable record: {exc.msg}", line_no) from exc
    if not isinstance(payload, dict) or "type" not in payload:
        raise CorruptLogError("record is not an object with a 'type'", line_no)
    return payload


def read_log_lines(path) -> list[dict]:
    """Parse every line; a malformed or non-UTF-8 line raises naming its 1-based number."""
    lines = Path(path).read_bytes().splitlines()
    return [_decode(line, i) for i, line in enumerate(lines, start=1)]


def read_header(path) -> dict:
    """Decode line 1 only; it must be a results-log header."""
    with Path(path).open("rb") as fh:
        header = _decode(fh.readline(), 1)
    if header["type"] != "header":
        raise CorruptLogError("first line is not a results-log header", 1)
    return header


def _is_number(value) -> bool:
    """Whether a decoded JSON value is a number: an int or a float, not a bool or a string."""
    return type(value) in (int, float)


def _record_from_payload(payload: dict, line_no: int, levels: dict) -> EvaluationRecord:
    """The record of one eval line, holding the ladder's own level object."""
    index, nominal, phase = payload.get("level"), payload.get("nominal"), payload.get("phase")
    if type(index) is not int or index not in levels:  # JSON true is a bool, 1.0 a float
        raise CorruptLogError(f"level {index!r} is not on the ladder", line_no)
    level = levels[index]
    if not _is_number(nominal) or nominal != level.nominal:
        raise CorruptLogError(
            f"nominal {nominal!r} is not level {index}'s {level.nominal!r}", line_no
        )
    x, y, cost = payload.get("x"), payload.get("y"), payload.get("cost")
    if not (_is_number(y) and _is_number(cost) and type(x) is list and all(map(_is_number, x))):
        message = f"x {x!r} must be a list of numbers, y {y!r} and cost {cost!r} numbers"
        raise CorruptLogError(message, line_no)
    try:
        rec = EvaluationRecord(
            x=np.asarray(x, dtype=np.float64),
            level=level,
            y=y,
            cost=cost,
            iteration=payload["iteration"],
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptLogError(f"invalid eval record: {exc}", line_no) from exc
    if phase != rec.phase:
        raise CorruptLogError(
            f"phase {phase!r} disagrees with iteration {rec.iteration}'s {rec.phase!r}", line_no
        )
    return rec


def replay(path, ladder, dimension: int) -> CampaignState:
    """Rebuild a CampaignState from a log's eval lines, last error and last summary.

    ``budget_total`` is the last summary's total, a finite number >= 0 (not
    a bool), 0.0 if the log has none. Every line must be UTF-8 JSON. An
    eval line's ``level`` must be an int (not a bool or float) on ``ladder``
    with the ladder's ``nominal``, and the record holds the ladder's level.
    Its ``iteration`` must be an int >= 0 with the ``phase`` it implies, and
    the ledger's next, as :func:`~mfdgp.campaign.resume` numbers them: 0
    before the first loop record, else the last iteration plus one. Its
    ``y`` and ``cost`` must be JSON numbers (not bools or strings), its
    ``x`` a list of them of the objective's ``dimension``, and
    :class:`EvaluationRecord` checks the values. Any other line raises
    ``CorruptLogError`` naming its number.
    """
    state = CampaignState(ladder=tuple(ladder))
    levels = {lv.index: lv for lv in state.ladder}
    last = 0  # the iteration of the last eval line
    for i, payload in enumerate(read_log_lines(path), start=1):
        if payload["type"] == "eval":
            rec = _record_from_payload(payload, i, levels)
            if rec.x.shape != (dimension,):
                raise CorruptLogError(f"x has shape {rec.x.shape}, not ({dimension},)", i)
            if rec.iteration not in ((0, 1) if last == 0 else (last + 1,)):
                raise CorruptLogError(f"iteration {rec.iteration} does not follow {last}", i)
            last = rec.iteration
            state.records.append(rec)
        elif payload["type"] == "error":
            state.error = payload.get("message")
        elif payload["type"] == "summary":
            total = payload.get("budget_total")
            if not _is_number(total) or not 0 <= total <= _FLOAT_MAX:
                raise CorruptLogError(f"budget_total {total!r} is not finite and >= 0", i)
            state.budget_total = float(total)
    return state
