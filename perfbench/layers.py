"""Per-layer metrics of a traced run, derived from its spans.

Times are inclusive span time unless the name says ``self``; every value
is per round, so counts repeat exactly from run to run.
"""

from __future__ import annotations

import numpy as np

LEVELS = (1, 2, 3, 4, 5)

# Span-name prefix -> module whose self time it counts toward.
MODULES = ("campaign", "dgp", "gp", "kernels", "acquisition", "objective",
           "reactor", "logio", "cli")

PER_LAYER = (
    [("campaign.loop_s", "s"), ("campaign.train_s", "s"), ("campaign.acquire_s", "s"),
     ("campaign.select_s", "s"), ("campaign.objective_s", "s"),
     ("campaign.stage_share", "share"), ("campaign.loop_iters", "count"),
     ("campaign.evals", "count"), ("campaign.regret", "objective")]
    + [("dgp.train_calls", "count")]
    + [(f"dgp.layer{t}_fit_s", "s") for t in LEVELS]
    + [(f"dgp.layer{t}_lml_evals", "count") for t in LEVELS]
    + [("dgp.propagate_calls", "count"), ("dgp.propagate_rows", "count"),
       ("dgp.propagate_s", "s")]
    + [("gp.fit_calls", "count"), ("gp.fit_s", "s"), ("gp.lml_evals", "count"),
       ("gp.nm_evals", "count"), ("gp.lml_per_nm_eval", "share"),
       ("gp.predict_calls", "count"), ("gp.predict_rows", "count"), ("gp.predict_s", "s"),
       ("kernels.matrix_calls", "count"), ("kernels.matrix_entries", "count"),
       ("kernels.matrix_s", "s")]
    + [("acquisition.solve_s", "s"), ("acquisition.ucb_calls", "count"),
       ("acquisition.ucb_rows", "count")]
    + [(f"reactor.simulate_s_level{t}", "s") for t in LEVELS]
    + [("reactor.fit_s", "s"), ("reactor.solves", "count"), ("reactor.csv_write_s", "s"),
       ("logio.write_s", "s"), ("cli.final_model_s", "s")]
    + [(f"self.{m}_s", "s") for m in MODULES]
    + [("micro.lml_us", "us"), ("micro.propagate_pool_ms", "ms")]
    + [(f"micro.reactor_solve_ms_level{t}", "ms") for t in LEVELS]
    + [("trace.command_s", "s"), ("trace.spans", "count")]
)


class SpanTable:
    """Queries over one run's spans, divided by its number of rounds."""

    def __init__(self, spans: dict, rounds: int):
        self.s = spans
        self.rounds = rounds
        self.names = list(spans["names"])
        self.n = spans["kind"].size

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.n, dtype=bool)
        return self.s["kind"] == self.names.index(name)

    def within(self, outer: str) -> np.ndarray:
        """Spans that start inside a span named ``outer`` (outer excluded)."""
        m = self.mask(outer)
        return (self.enclosing(m, np.ones(self.n, dtype=bool)) >= 0) & ~m

    def time(self, name: str, where=None) -> float:
        m = self.mask(name) if where is None else self.mask(name) & where
        return float(self.s["duration"][m].sum()) / self.rounds

    def count(self, name: str, where=None) -> float:
        m = self.mask(name) if where is None else self.mask(name) & where
        return float(m.sum()) / self.rounds

    def amount(self, name: str, where=None) -> float:
        m = self.mask(name) if where is None else self.mask(name) & where
        return float(self.s["amount"][m].sum()) / self.rounds

    def fit_layers(self) -> tuple[np.ndarray, np.ndarray]:
        """(gp.fit span mask, layer number per span; 0 outside dgp.train)."""
        fits = self.mask("gp.fit")
        layer = np.zeros(self.n, dtype=np.int64)
        parent = self.s["parent"]
        idx = np.flatnonzero(fits)
        if idx.size:
            par = parent[idx]
            under_train = self.mask("dgp.train")[np.maximum(par, 0)] & (par >= 0)
            new_group = np.r_[True, par[1:] != par[:-1]]
            first = np.maximum.accumulate(np.where(new_group, np.arange(idx.size), 0))
            layer[idx] = np.where(under_train, np.arange(idx.size) - first + 1, 0)
        return fits, layer

    def enclosing(self, outer_mask: np.ndarray, inner_mask: np.ndarray) -> np.ndarray:
        """Index of the ``outer_mask`` span around each ``inner_mask`` span (-1 if none).

        The outer spans must not nest in one another (true of any one span
        name here), so their windows are disjoint and sorted by start.
        """
        o_idx = np.flatnonzero(outer_mask)
        i_start = self.s["start"][inner_mask]
        pos = np.searchsorted(self.s["start"][o_idx], i_start, side="right") - 1
        out = np.full(i_start.size, -1, dtype=np.int64)
        has = pos >= 0
        hit = has.copy()
        hit[has] = i_start[has] < self.s["end"][o_idx[pos[has]]]
        out[hit] = o_idx[pos[hit]]
        return out


def layer_metrics(spans: dict, rounds: int, regret: float, command_s: float) -> dict:
    """Every per-layer metric except the micro timings."""
    t = SpanTable(spans, rounds)
    loop = t.within("campaign.loop")
    m = {}
    m["campaign.loop_s"] = t.time("campaign.loop")
    m["campaign.train_s"] = t.time("dgp.train", loop)
    m["campaign.acquire_s"] = t.time("acquisition.solve_ucb", loop)
    m["campaign.select_s"] = t.time("campaign.select_fidelity", loop)
    m["campaign.objective_s"] = t.time("objective.evaluate", loop)
    stages = (m["campaign.train_s"] + m["campaign.acquire_s"] + m["campaign.select_s"]
              + m["campaign.objective_s"])
    m["campaign.stage_share"] = stages / m["campaign.loop_s"] if m["campaign.loop_s"] else 0.0
    m["campaign.loop_iters"] = t.count("objective.evaluate", loop)
    m["campaign.evals"] = t.count("objective.evaluate")
    m["campaign.regret"] = regret

    m["dgp.train_calls"] = t.count("dgp.train")
    fits, layer = t.fit_layers()
    lml = t.mask("gp.log_marginal_likelihood")
    around = t.enclosing(fits, lml)
    lml_layer = np.where(around >= 0, layer[np.maximum(around, 0)], 0)
    for lv in LEVELS:
        m[f"dgp.layer{lv}_fit_s"] = float(t.s["duration"][fits & (layer == lv)].sum()) / rounds
        m[f"dgp.layer{lv}_lml_evals"] = float(np.sum(lml_layer == lv)) / rounds
    m["dgp.propagate_calls"] = t.count("dgp.propagate")
    m["dgp.propagate_rows"] = t.amount("dgp.propagate")
    m["dgp.propagate_s"] = t.time("dgp.propagate")

    m["gp.fit_calls"] = t.count("gp.fit")
    m["gp.fit_s"] = t.time("gp.fit")
    m["gp.lml_evals"] = t.count("gp.log_marginal_likelihood")
    m["gp.nm_evals"] = t.amount("gp.minimize")
    parent = t.s["parent"]
    in_minimize = np.zeros(t.n, dtype=bool)
    has = parent >= 0
    in_minimize[has] = t.mask("gp.minimize")[parent[has]]
    useful = t.count("gp.log_marginal_likelihood", in_minimize)
    m["gp.lml_per_nm_eval"] = useful / m["gp.nm_evals"] if m["gp.nm_evals"] else 0.0
    m["gp.predict_calls"] = t.count("gp.predict")
    m["gp.predict_rows"] = t.amount("gp.predict")
    m["gp.predict_s"] = t.time("gp.predict")
    m["kernels.matrix_calls"] = t.count("kernels.kernel_matrix")
    m["kernels.matrix_entries"] = t.amount("kernels.kernel_matrix")
    m["kernels.matrix_s"] = t.time("kernels.kernel_matrix")

    m["acquisition.solve_s"] = t.time("acquisition.solve_ucb")
    m["acquisition.ucb_calls"] = t.count("acquisition.ucb_values")
    m["acquisition.ucb_rows"] = t.amount("acquisition.ucb_values")

    simulate = t.mask("reactor.simulate")
    for lv in LEVELS:
        sel = simulate & (t.s["amount"] == lv)
        m[f"reactor.simulate_s_level{lv}"] = float(t.s["duration"][sel].sum()) / rounds
    m["reactor.fit_s"] = t.time("reactor.fit")
    m["reactor.solves"] = t.count("reactor.simulate")
    m["reactor.csv_write_s"] = t.time("reactor.write_rtd_csv")
    m["logio.write_s"] = t.time("logio.record")
    m["cli.final_model_s"] = t.time("cli.final_model") + t.time("campaign.recommend")

    prefix = np.asarray([name.split(".")[0] for name in t.names])
    self_by_kind = np.bincount(t.s["kind"], weights=t.s["self_time"], minlength=len(t.names))
    for module in MODULES:
        m[f"self.{module}_s"] = float(self_by_kind[prefix == module].sum()) / rounds

    m["trace.command_s"] = command_s
    m["trace.spans"] = t.n / rounds
    return m
