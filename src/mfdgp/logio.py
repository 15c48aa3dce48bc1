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

No timestamps are written anywhere: two runs with the same configuration
and seed produce byte-identical record sequences.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .campaign import CampaignState, EvaluationRecord
from .dgp import FidelityLevel
from .errors import CorruptLogError

_FORMAT = "mfdgp-results"


class ResultsLogWriter:
    """Owns the output file; appends one line per event and flushes eagerly."""

    def __init__(self, path, config_payload=None, append=False):
        self.path = Path(path)
        mode = "a" if append else "w"
        self._fh = self.path.open(mode)
        if not append:
            header = {"type": "header", "format": _FORMAT, "version": 1}
            if config_payload is not None:
                header["config"] = config_payload
            self._write(header)

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


def _decode(line: str, line_no: int) -> dict:
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
    """Parse every line; a malformed line raises naming its 1-based number."""
    lines = Path(path).read_text().splitlines()
    return [_decode(line, i) for i, line in enumerate(lines, start=1)]


def read_header(path) -> dict:
    """Decode line 1 only; it must be a results-log header."""
    with Path(path).open() as fh:
        header = _decode(fh.readline(), 1)
    if header["type"] != "header":
        raise CorruptLogError("first line is not a results-log header", 1)
    return header


def _record_from_payload(payload: dict, line_no: int) -> EvaluationRecord:
    try:
        return EvaluationRecord(
            x=np.asarray(payload["x"], dtype=np.float64),
            level=FidelityLevel(index=payload["level"], nominal=payload["nominal"]),
            y=payload["y"],
            cost=payload["cost"],
            iteration=payload["iteration"],
            phase=payload["phase"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptLogError(f"invalid eval record: {exc}", line_no) from exc


def replay(path, ladder, dimension: int) -> CampaignState:
    """Rebuild a CampaignState from a log's eval lines, last error and last summary.

    ``budget_total`` is the last summary's total, 0.0 if the log has none.
    Every eval must sit on ``ladder`` and have an ``x`` of the objective's
    ``dimension``.
    """
    state = CampaignState(ladder=tuple(ladder))
    levels = {lv.index for lv in state.ladder}
    for i, payload in enumerate(read_log_lines(path), start=1):
        if payload["type"] == "eval":
            rec = _record_from_payload(payload, i)
            if rec.level.index not in levels:
                raise CorruptLogError(f"level {rec.level.index} is not on the ladder", i)
            if rec.x.shape != (dimension,):
                raise CorruptLogError(f"x has shape {rec.x.shape}, not ({dimension},)", i)
            state.records.append(rec)
        elif payload["type"] == "error":
            state.error = payload.get("message")
        elif payload["type"] == "summary":
            try:
                state.budget_total = float(payload["budget_total"])
            except (KeyError, TypeError, ValueError) as exc:
                raise CorruptLogError(f"invalid summary record: {exc!r}", i) from exc
    return state
