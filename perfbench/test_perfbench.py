"""Checks of the benchmark's own machinery on a seconds-long tiny config.

Run with ``python3 -m pytest perfbench``.
"""

import csv
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cfsubspace as cf  # noqa: E402
import cfsubspace.experiment as experiment_mod  # noqa: E402
import cfsubspace.rpca as rpca_mod  # noqa: E402
from outputs import check_outputs, differing_layouts, output_digest  # noqa: E402
from tracing import Tracer, full_collision_pairs  # noqa: E402

TINY = dict(L=6, M=4, K=12, tau_p=3, N=5, n_layouts=2, n_fading=2, seed=7,
            kinds=["ideal", "sp", "pp", "pm"])


def _run(out_dir, tracer=None):
    config = cf.ExperimentConfig(**TINY)
    start = time.perf_counter()
    if tracer is None:
        result = cf.run_experiment(config)
        cf.write_results(result, out_dir, config)
    else:
        with tracer.installed():
            with tracer.span("experiment.run_experiment"):
                result = cf.run_experiment(config)
            with tracer.span("experiment.write_results"):
                cf.write_results(result, out_dir, config)
    return result, time.perf_counter() - start


def test_counters_repeat_exactly_and_self_times_fit_the_wall(tmp_path):
    _run(tmp_path / "plain")
    tracers, walls = [Tracer(), Tracer()], []
    for tag, tracer in zip("ab", tracers):
        result, wall = _run(tmp_path / tag, tracer)
        walls.append(wall)
    a, b = tracers
    assert a.counts == b.counts
    assert (a.converged, a.ranks) == (b.converged, b.ranks)
    for tracer, wall in zip(tracers, walls):
        assert sum(tracer.self_times()) <= wall + 1e-6
        assert tracer.nesting_errors() == []

    # The counters agree with what the run itself reports.
    served = sum(r.se is not None for r in result.rate_records)
    edges = sum(d["edges"] for d in result.diagnostics["layouts"])
    c = a.counts
    assert c["geometry.edges"] == edges == c["rpca.edges"] == len(result.edge_records)
    assert c["rpca.solves"] >= c["rpca.edges"]
    assert c["rpca.svd_calls"] > c["rpca.admm_iters"] > 0
    assert c["channel.draws"] == TINY["n_layouts"] * TINY["n_fading"]
    assert c["receiver.combiner_calls"] == c["receiver.sinr_calls"] == \
        served * TINY["n_fading"]
    assert c["dmrs.field_calls"] == TINY["L"] * c["channel.draws"]
    assert len(a.edge_times_ms()) == edges

    # Tracing changes no output byte.
    digests = {output_digest(tmp_path / tag) for tag in ("plain", "a", "b")}
    assert len(digests) == 1


def test_nesting_check_flags_a_span_outside_its_parent():
    tracer = Tracer()
    tracer.spans = [["experiment.run_experiment", -1, 1.0, 2.0],
                    ["rpca.collect_srs", 0, 1.5, 1.8],
                    ["rpca.outlier_pursuit", 0, 1.9, 2.1],
                    ["receiver.uplink_sinr", -1, 3.0, 2.9]]
    assert tracer.nesting_errors() == [2, 3]


def test_wrappers_are_removed_after_the_block():
    before = (experiment_mod.collect_srs, rpca_mod.outlier_pursuit, np.linalg.svd,
              cf.NetworkChannelSampler.sample)
    with Tracer().installed():
        assert experiment_mod.collect_srs is not before[0]
        assert np.linalg.svd is not before[2]
    assert (experiment_mod.collect_srs, rpca_mod.outlier_pursuit, np.linalg.svd,
            cf.NetworkChannelSampler.sample) == before


def _rewrite(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_output_check_flags_each_broken_invariant(tmp_path):
    good, bad = tmp_path / "good", tmp_path / "bad"
    _run(good)
    config = cf.ExperimentConfig(**TINY)
    assert check_outputs(good, config) == {}
    _run(bad)

    def negative_se(rows):
        row = next(r for r in rows[1:] if r[0] == "1" and r[4])
        row[4] = "-0.5"

    def pe_above_one(rows):
        rows[1][4] = "1.5"

    _rewrite(bad / "rates.csv", negative_se)
    _rewrite(bad / "subspace.csv", pe_above_one)
    problems = check_outputs(bad, config)
    assert sorted(problems) == sorted({1, int(_first_layout(bad / "subspace.csv"))})
    assert differing_layouts(good, bad) == sorted(problems)
    assert output_digest(good) != output_digest(bad)


def _first_layout(path):
    with open(path, newline="") as fh:
        return next(csv.DictReader(fh))["layout"]


def test_full_collision_pairs_counts_identical_sequences():
    schedule = SimpleNamespace(subcarriers=np.array([[1, 2], [1, 2], [2, 1], [1, 2]]))
    assert full_collision_pairs(schedule) == 3
