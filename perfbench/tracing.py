"""Spans recorded from outside the package by wrapping its functions.

A :class:`Tracer` replaces chosen module functions and class methods with
wrappers that append one span per call (name, parent, start, end and an
optional amount such as rows or evaluations) to flat in-memory arrays.
Uninstalling puts every original object back. Nothing inside ``src/`` is
edited: the wrappers work because the package looks these functions up
as module or class attributes at call time.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

import speed


def _rows(position):
    def amount(args, kwargs, result):
        return int(np.atleast_2d(args[position]).shape[0])
    return amount


def _level(args, kwargs, result):
    level = args[1] if len(args) > 1 else kwargs["level"]
    return int(getattr(level, "index", level))


def _method_level(args, kwargs, result):
    return _level(args[1:], kwargs, result)


def _matrix_entries(args, kwargs, result):
    return int(result.size)


def _nfev(args, kwargs, result):
    return int(result.nfev)


def package_targets(full: bool) -> list[tuple]:
    """(owner, attribute, span name, amount, probe) for every wrapped callable.

    ``probe`` marks the calls before which the speed probe runs: each
    objective call, solve, tank fit, layer fit and acquisition solve, so a
    probe runs at least every second or so of package work. The short list
    is all the untraced metrics need; ``full`` adds every layer boundary.
    """
    from mfdgp import acquisition, campaign, cli, dgp, gp, logio
    from mfdgp.objectives import forrester, reactor

    light = [
        (forrester.ForresterFamily, "evaluate", "objective.evaluate", _method_level, True),
        (reactor.ReactorProxyObjective, "evaluate", "objective.evaluate", _method_level, True),
        (reactor, "reactor_proxy_simulate", "reactor.simulate", _level, True),
        (reactor, "fit_tanks_in_series", "reactor.fit", None, True),
        (gp, "fit", "gp.fit", None, True),
        (acquisition, "solve_ucb", "acquisition.solve_ucb", None, True),
    ]
    if not full:
        return light
    return light + [
        (campaign, "continue_run", "campaign.loop", None, False),
        (campaign, "select_fidelity", "campaign.select_fidelity", None, False),
        (campaign, "recommend", "campaign.recommend", None, False),
        (cli, "_final_model", "cli.final_model", None, False),
        (dgp, "train", "dgp.train", None, False),
        (dgp, "propagate", "dgp.propagate", _rows(1), False),
        (gp, "minimize", "gp.minimize", _nfev, False),
        (gp.TrainedGP, "from_params", "gp.from_params", None, False),
        (gp, "log_marginal_likelihood", "gp.log_marginal_likelihood", None, False),
        (gp, "predict", "gp.predict", _rows(1), False),
        (gp, "kernel_matrix", "kernels.kernel_matrix", _matrix_entries, False),
        (acquisition, "ucb_values", "acquisition.ucb_values", _rows(1), False),
        (reactor, "write_rtd_csv", "reactor.write_rtd_csv", None, False),
        (logio.ResultsLogWriter, "record", "logio.record", None, False),
    ]


PROBE = "bench.probe"


class Tracer:
    """Flat span store plus the wrappers that fill it.

    ``probe`` is called before every target marked for it; it returns the
    probe's own measured seconds, kept in nanoseconds as the amount of a
    ``bench.probe`` span so that the speed clock can be rebuilt from spans.
    """

    def __init__(self, probe=None):
        self.probe = probe
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("q")
        self._stack = [-1]
        self._patched: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.kind)
        self.kind.append(name_id)
        self.parent.append(self._stack[-1])
        self.amount.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.name_id(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def run_probe(self) -> None:
        idx = self._open(self.name_id(PROBE))
        try:
            seconds = self.probe()
        finally:
            self._close(idx)
        self.amount[idx] = int(seconds * 1e9)

    def _wrapper(self, func, name_id, amount, probe):
        probe = probe and self.probe is not None

        def wrapper(*args, **kwargs):
            if probe:
                self.run_probe()
            idx = self._open(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(idx)
            if amount is not None:
                self.amount[idx] = amount(args, kwargs, result)
            return result
        return wrapper

    def install(self, targets) -> None:
        for owner, attr, name, amount, probe in targets:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(
                    self._wrapper(original.__func__, self.name_id(name), amount, probe)
                )
            else:
                replacement = self._wrapper(original, self.name_id(name), amount, probe)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    def window(self, first: int = 0, last: int | None = None) -> dict:
        """Raw span arrays for indexes first..last."""
        return {
            "kind": np.array(self.kind[first:last], dtype=np.int64),
            "parent": np.array(self.parent[first:last], dtype=np.int64),
            "start": np.array(self.start[first:last], dtype=np.float64),
            "end": np.array(self.end[first:last], dtype=np.float64),
            "amount": np.array(self.amount[first:last], dtype=np.int64),
        }

    def clock(self, w: dict) -> speed.SpeedClock:
        """The speed clock of the probes among the spans ``w``."""
        probes = w["kind"] == self.name_id(PROBE)
        return speed.SpeedClock(
            w["start"][probes], w["end"][probes], w["amount"][probes] / 1e9
        )

    def spans(self) -> dict:
        """Every span, with durations and self times on the speed clock.

        Probe spans take no time on that clock, so they drop out of their
        parents' self time.
        """
        w = self.window()
        clock = self.clock(w)
        duration = clock(w["end"]) - clock(w["start"])
        parent = w["parent"]
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=duration.size
        )
        w.update(names=np.asarray(self.names), duration=duration,
                 self_time=duration - covered)
        return w


def snapshot(targets) -> dict:
    """The objects currently bound at every target, keyed by (owner, attribute)."""
    return {(owner, attr): owner.__dict__[attr] for owner, attr, *_ in targets}


def changed(before: dict) -> list[str]:
    """Targets no longer bound to the object recorded in ``before``."""
    return [
        f"{owner.__name__}.{attr}"
        for (owner, attr), obj in before.items()
        if owner.__dict__[attr] is not obj
    ]
