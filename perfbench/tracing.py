"""Outside-in tracing of a cfsubspace run.

The tracer wraps the public functions each module of ``cfsubspace`` calls in
another, as the calling module sees them, and records one span per call:
name, parent, start and end (``time.perf_counter``). It also counts work at
the same boundaries (edges, solves, ADMM iterations, SVDs, fading draws,
combiner and SINR calls, full hopping collisions). Nothing inside the
package is edited; every wrapper is removed again when the ``with`` block of
:meth:`Tracer.installed` ends. Spans are kept in memory until written out.

Only single-process runs can be traced: spans made in pool workers are lost.
"""

import contextlib
import json
import time

import numpy as np

import cfsubspace.channel as channel_mod
import cfsubspace.experiment as experiment_mod
import cfsubspace.receiver as receiver_mod
import cfsubspace.rpca as rpca_mod

SOLVER_SPANS = ("rpca.outlier_pursuit_tuned", "rpca.outlier_pursuit")

# Counters that must repeat exactly between two traced runs of one input.
EXACT_COUNTERS = ("geometry.edges", "geometry.orphan_ues", "channel.draws",
                  "rpca.edges", "rpca.solves", "rpca.admm_iters", "rpca.svd_calls",
                  "hopping.full_collision_pairs", "hopping.layouts",
                  "hopping.squares_used_total", "dmrs.field_calls",
                  "receiver.combiner_calls", "receiver.sinr_calls",
                  "receiver.kind_draws")


def full_collision_pairs(schedule) -> int:
    """UE pairs whose hopping sequences coincide in every slot."""
    _, counts = np.unique(schedule.subcarriers, axis=0, return_counts=True)
    return int(np.sum(counts * (counts - 1) // 2))


class Tracer:
    """Span and counter store for one traced pass over a set of inputs."""

    def __init__(self):
        self.spans = []      # [name, parent index or -1, start, end]
        self._stack = []
        self.counts = dict.fromkeys(EXACT_COUNTERS, 0)
        self.converged = []  # per edge: final solve converged
        self.ranks = []      # per edge: selected rank
        self._edge = -1
        self.edge_of_span = {}

    # -- spans ------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        record = [name, self._stack[-1] if self._stack else -1,
                  time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def _in_layer(self, layer) -> bool:
        return bool(self._stack) and \
            self.spans[self._stack[-1]][0].startswith(layer + ".")

    def _wrap(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            per_edge = name.startswith("rpca.") and not self._in_layer("rpca")
            if name == "rpca.collect_srs":
                self._edge += 1
            with self.span(name) as index:
                if per_edge:
                    self.edge_of_span[index] = self._edge
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters fed from the wrapped calls' results ---------------------
    def _count(self, key, n=1):
        self.counts[key] += n

    def _on_clusters(self, graph):
        self._count("geometry.edges", len(graph.edges))
        self._count("geometry.orphan_ues", len(graph.orphan_ues))

    def _on_squares(self, assignment):
        self._count("hopping.layouts")
        self._count("hopping.squares_used_total",
                    len(np.unique(assignment.square_id)))

    def _on_schedule(self, schedule):
        self._count("hopping.full_collision_pairs", full_collision_pairs(schedule))

    def _on_solve(self, result):
        self._count("rpca.solves")
        self._count("rpca.admm_iters", int(result.iterations))

    def _on_tuned(self, result):
        self.converged.append(bool(result.converged))

    def _on_estimates(self, estimates):
        self.ranks.append(int(estimates[0].rank))

    def _on_rates(self, reports):
        for report in reports.values():
            self._count("receiver.kind_draws", report.sinr_samples.shape[0])

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        t = self._wrap
        count = self._count
        solve = t("rpca.outlier_pursuit", rpca_mod.outlier_pursuit, self._on_solve)
        patches = [
            (experiment_mod, "generate_layout",
             t("geometry.generate_layout", experiment_mod.generate_layout)),
            (experiment_mod, "calibrate_snr",
             t("geometry.calibrate_snr", experiment_mod.calibrate_snr)),
            (experiment_mod, "form_clusters",
             t("geometry.form_clusters", experiment_mod.form_clusters,
               self._on_clusters)),
            (experiment_mod, "assign_dmrs",
             t("geometry.assign_dmrs", experiment_mod.assign_dmrs)),
            (experiment_mod, "network_supports",
             t("channel.network_supports", experiment_mod.network_supports)),
            (experiment_mod, "mols_family",
             t("hopping.mols_family", experiment_mod.mols_family)),
            (experiment_mod, "allocate_squares",
             t("hopping.allocate_squares", experiment_mod.allocate_squares,
               self._on_squares)),
            (experiment_mod, "build_schedule",
             t("hopping.build_schedule", experiment_mod.build_schedule,
               self._on_schedule)),
            (experiment_mod, "collect_srs",
             t("rpca.collect_srs", experiment_mod.collect_srs,
               lambda _: count("rpca.edges"))),
            (experiment_mod, "outlier_pursuit_tuned",
             t("rpca.outlier_pursuit_tuned", experiment_mod.outlier_pursuit_tuned,
               self._on_tuned)),
            (experiment_mod, "outlier_pursuit", solve),
            (rpca_mod, "outlier_pursuit", solve),
            (experiment_mod, "subspace_estimates",
             t("rpca.subspace_estimates", experiment_mod.subspace_estimates,
               self._on_estimates)),
            (experiment_mod, "power_efficiency",
             t("rpca.power_efficiency", experiment_mod.power_efficiency)),
            (experiment_mod, "ergodic_rates",
             t("receiver.ergodic_rates", experiment_mod.ergodic_rates,
               self._on_rates)),
            (receiver_mod, "dmrs_field",
             t("dmrs.dmrs_field", receiver_mod.dmrs_field,
               lambda _: count("dmrs.field_calls"))),
            (receiver_mod, "cluster_combiner",
             t("receiver.cluster_combiner", receiver_mod.cluster_combiner,
               lambda _: count("receiver.combiner_calls"))),
            (receiver_mod, "uplink_sinr",
             t("receiver.uplink_sinr", receiver_mod.uplink_sinr,
               lambda _: count("receiver.sinr_calls"))),
            (channel_mod.NetworkChannelSampler, "__init__",
             t("channel.sampler_init", channel_mod.NetworkChannelSampler.__init__)),
            (channel_mod.NetworkChannelSampler, "sample",
             t("channel.sample", channel_mod.NetworkChannelSampler.sample,
               lambda _: count("channel.draws"))),
        ]
        svd = np.linalg.svd

        def counted_svd(*args, **kwargs):
            if self._in_layer("rpca"):
                count("rpca.svd_calls")
            return svd(*args, **kwargs)

        patches.append((np.linalg, "svd", counted_svd))
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, fn in patches:
                setattr(owner, attr, fn)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- derived numbers --------------------------------------------------
    def self_times(self) -> list:
        """Per span: its duration minus the time its direct children cover."""
        own = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def nesting_errors(self) -> list:
        """Spans that end before they start, never end, or stick out of
        their parent's interval. A correct stack-based tracer gives none."""
        bad = []
        for index, (name, parent, start, end) in enumerate(self.spans):
            if end is None or end < start:
                bad.append(index)
            elif parent >= 0:
                _, _, p_start, p_end = self.spans[parent]
                if p_end is None or start < p_start or end > p_end:
                    bad.append(index)
        return bad

    def layer_times(self) -> dict:
        """Per layer: busy time (outermost spans of the layer) and self time."""
        busy, self_t = {}, {}
        for (name, parent, start, end), own in zip(self.spans, self.self_times()):
            layer = name.split(".")[0]
            self_t[layer] = self_t.get(layer, 0.0) + own
            if parent < 0 or not self.spans[parent][0].startswith(layer + "."):
                busy[layer] = busy.get(layer, 0.0) + (end - start)
        return {"busy": busy, "self": self_t}

    def span_total(self, *names, outermost_of=None) -> float:
        """Summed duration of the named spans; with ``outermost_of``, spans
        nested inside one of those names are skipped."""
        total = 0.0
        for name, parent, start, end in self.spans:
            if name not in names:
                continue
            if outermost_of and parent >= 0 and self.spans[parent][0] in outermost_of:
                continue
            total += end - start
        return total

    def edge_times_ms(self) -> np.ndarray:
        """Wall time per association edge: every top-level rpca span from one
        collect_srs call up to the next."""
        per_edge = np.zeros(self._edge + 1)
        for index, edge in self.edge_of_span.items():
            _, _, start, end = self.spans[index]
            per_edge[edge] += end - start
        return per_edge * 1e3

    def dump(self, path, extra=None) -> None:
        """Write the spans as JSON: one [name, parent, start, end] per span."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start_s", "end_s"],
                       "spans": self.spans, **(extra or {})}, fh)
