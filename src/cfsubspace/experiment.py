"""Experiment configuration, the end-to-end pipeline and result output.

A run executes, per layout: geometry and clustering, angular supports, the
Latin-squares SRS schedule, per-edge outlier-pursuit subspace estimation, and
Monte-Carlo ergodic rates for the configured estimator kinds. Everything is
deterministic given the master seed: every stage draws from its own labeled
stream, so enabling extra estimator kinds never perturbs earlier stages.
"""

import contextlib
import csv
import dataclasses
import json
import numbers
import os
import types
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import SupportTable, network_supports
from .geometry import assign_dmrs, calibrate_snr, form_clusters, generate_layout
from .hopping import _is_prime, allocate_squares, build_schedule
# mols_family is not called here; perfbench/tracing.py patches this name
from .hopping import mols_family
from .receiver import ESTIMATOR_KINDS, ergodic_rates
from .rpca import _WORK_COUNTERS, _tuned_stack, collect_srs, power_efficiency, \
    subspace_estimates
# outlier_pursuit is not called here, and outlier_pursuit_tuned only to name a
# failing edge; perfbench/tracing.py patches both names
from .rpca import outlier_pursuit, outlier_pursuit_tuned

# the most edges one stacked outlier-pursuit solve takes, so that a layout's
# rpca memory is bounded by it and not by its edge count
_RPCA_CHUNK = 256

# every file write_results can write; a run removes those it did not write
# this time, so that no file of an earlier run is left beside the new ones
_OUTPUT_FILES = frozenset({"rates.csv", "subspace.csv", "summary.json", "config.json",
                          "cdf_pe_raw.csv", "cdf_pe_pp.csv",
                          *(f"cdf_se_{kind}.csv" for kind in ESTIMATOR_KINDS)})

# a config field's annotation -> (accepted class, wording for the error message)
_ACCEPTED = {
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a number"),
    str: (str, "a string"),
    tuple: (tuple, "a list"),
}


@dataclass
class ExperimentConfig:
    # network size and physics
    L: int = 40
    M: int = 16
    K: int = 100
    tau_p: int = 15
    area_side: float = 2000.0
    delta: float = np.pi / 8
    Q: int = 10
    eta: float = 1.0
    T: int = 200
    # SRS hopping and subspace estimation
    N: int = 19
    S: int | None = None        # SRS sequence length; defaults to N
    lam: float = 0.25
    # experiment control
    n_layouts: int = 100
    n_fading: int = 100
    seed: int = 0
    kinds: tuple = ESTIMATOR_KINDS
    workers: int = 1
    output_dir: str = "results"

    def __post_init__(self):
        if isinstance(self.kinds, list):
            self.kinds = tuple(self.kinds)
        _check_field_types(self)
        for name in ("L", "M", "K", "tau_p", "N", "Q", "T", "n_layouts",
                     "n_fading", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0 < self.delta <= 2 * np.pi:
            raise ValueError("delta must lie in (0, 2*pi]")
        if not 0 < self.lam < np.inf:
            raise ValueError("lam must be positive and finite")
        if not 0 <= self.eta < np.inf:
            raise ValueError("eta must be finite and >= 0")
        if not _is_prime(self.N):
            raise ValueError("N must be prime")
        if self.S is None:
            self.S = self.N
        if self.S < 1:
            raise ValueError("S must be >= 1")
        if self.tau_p >= self.T:
            raise ValueError("tau_p must be smaller than the block size T")
        # the geometry is computable there: a finite calibrated SNR up to 1e50 m
        # and a positive hex-cell radius down to 1e-100 m for any K below 1e100
        if not 1e-100 <= self.area_side <= 1e50:
            raise ValueError("area_side must be positive and finite, within "
                             "[1e-100, 1e50] m")
        bad = [k for k in self.kinds if k not in ESTIMATOR_KINDS]
        if bad:
            raise ValueError(f"unknown estimator kinds {bad}; "
                             f"choose from {list(ESTIMATOR_KINDS)}")
        if not self.kinds:
            raise ValueError("kinds must name at least one estimator kind")
        if len(set(self.kinds)) < len(self.kinds):
            raise ValueError(f"kinds must not repeat a kind: {list(self.kinds)}")


def _check_field_types(config: ExperimentConfig) -> None:
    """Raise ValueError naming the first field of ``config`` whose value has
    the wrong type for its annotation.

    An ``int`` field takes any integer, a ``float`` field any real number, and
    ``X | None`` also takes None. True and False are never numbers. A numpy
    scalar that passes is replaced by the equal Python number, so that the
    config computes and echoes to JSON as that number does.
    """
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        allowed = f.type.__args__ if isinstance(f.type, types.UnionType) else (f.type,)
        if value is None and type(None) in allowed:
            continue
        cls, wording = _ACCEPTED[allowed[0]]
        if isinstance(value, bool) or not isinstance(value, cls):
            raise ValueError(f"{f.name} must be {wording}, "
                             f"not {type(value).__name__} {value!r}")
        if isinstance(value, np.generic):
            setattr(config, f.name, value.item())


@dataclass
class RateRecord:
    layout: int
    ue: int
    kind: str
    rate: float | None
    se: float | None


@dataclass
class EdgeRecord:
    layout: int
    ru: int
    ue: int
    pe_raw: float
    pe_pp: float
    rank: int
    converged: bool
    iterations: int


@dataclass
class ExperimentResult:
    rate_records: list
    edge_records: list
    diagnostics: dict


def stage_seed_sequence(seed: int, label: str, *indices: int) -> np.random.SeedSequence:
    """Stable labeled child of the master seed (crc32 of the label as key)."""
    return np.random.SeedSequence(seed, spawn_key=(zlib.crc32(label.encode()),
                                                   *indices))


def stage_rng(seed: int, label: str, *indices: int) -> np.random.Generator:
    return np.random.default_rng(stage_seed_sequence(seed, label, *indices))


def config_from_dict(data: dict) -> ExperimentConfig:
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**data)


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Config from an optional JSON file with per-key overrides on top."""
    data = {}
    if path is not None:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            kind = {list: "an array", str: "a string", bool: "a boolean",
                    type(None): "null"}.get(type(data), "a number")
            raise ValueError(f"config file {path} must hold a JSON object, not {kind}")
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_dict(data)


def _layout_seed(config: ExperimentConfig, label: str, layout_id: int) -> int:
    return int(stage_seed_sequence(config.seed, label, layout_id).generate_state(1)[0])


def _run_layout(config: ExperimentConfig, layout_id: int):
    """One layout's records and diagnostics.

    Any exception is re-raised as a RuntimeError that names the layout, the
    master seed and, in the rpca stage, the edge (l, k). The message carries
    the original error too, since a pool worker passes only the message and
    a traceback text back to the parent.
    """
    where = {}
    try:
        return _layout_outputs(config, layout_id, where)
    except Exception as exc:
        edge = ", rpca edge ({}, {})".format(*where["edge"]) if where else ""
        raise RuntimeError(f"layout {layout_id} (master seed {config.seed}"
                           f"{edge}) failed: {type(exc).__name__}: {exc}") from exc


def _layout_outputs(config: ExperimentConfig, layout_id: int, where: dict):
    """The stages of one layout; ``where["edge"]`` tracks the rpca edge."""
    layout = generate_layout(config.L, config.K, config.area_side,
                             seed=_layout_seed(config, "layout", layout_id))
    snr = calibrate_snr(config.L, config.M, config.area_side)
    graph = form_clusters(layout.lsfc, snr, config.M, config.Q, config.eta)
    graph.dmrs_pilot = assign_dmrs(graph, layout.lsfc, config.tau_p)
    supports = network_supports(layout, config.delta, config.M)

    edge_records = []
    estimated = None
    not_converged = 0
    work = dict.fromkeys(_WORK_COUNTERS, 0)
    if "pp" in config.kinds:
        assignment = allocate_squares(layout, config.N)
        schedule = build_schedule(assignment, config.N, config.S)
        # the estimated supports, pair by pair in (l, k) row-major order as
        # sorted(graph.edges) visits them; pairs that are not edges get none
        sizes = np.zeros((config.L, config.K), dtype=int)
        indices = []
        edges = sorted(graph.edges)
        for first in range(0, len(edges), _RPCA_CHUNK):
            chunk = edges[first:first + _RPCA_CHUNK]
            observed = []
            for l, k in chunk:
                where["edge"] = (l, k)
                rng = stage_rng(config.seed, "srs", layout_id, l, k)
                observed.append(collect_srs(schedule, layout, supports, (l, k), snr,
                                            rng))
            where.clear()
            observed = np.stack(observed)
            results, counts = _solve_chunk(chunk, observed, config.lam, where)
            for key in _WORK_COUNTERS:
                work[key] += counts[key]
            for (l, k), res in zip(chunk, results):
                where["edge"] = (l, k)
                not_converged += not res.converged
                pca, idx = subspace_estimates(res.left_vectors, res.singular_values)
                edge_records.append(EdgeRecord(
                    layout=layout_id, ru=l, ue=k,
                    pe_raw=power_efficiency(supports[l, k], pca),
                    # exact for two DFT index sets: the share of S_hat inside S
                    pe_pp=np.intersect1d(supports[l, k], idx).size / pca.rank,
                    rank=pca.rank, converged=res.converged,
                    iterations=res.iterations))
                sizes[l, k] = pca.rank
                indices.extend(idx.tolist())
        where.clear()
        estimated = SupportTable(indices=np.array(indices, dtype=int), sizes=sizes,
                                 num_antennas=config.M)

    reports = ergodic_rates(layout, graph, supports, snr, list(config.kinds),
                            config.n_fading, config.tau_p, config.T,
                            stage_rng(config.seed, "fading", layout_id),
                            subspaces=estimated)
    excluded = set(graph.orphan_ues.tolist())
    rate_records = []
    for kind in config.kinds:
        rep = reports[kind]
        for k, (rate, se) in enumerate(zip(rep.rate.tolist(), rep.se.tolist())):
            if k in excluded:
                rate, se = None, None
            rate_records.append(RateRecord(layout_id, k, kind, rate, se))
    diag = {"layout": layout_id, "excluded_ues": sorted(excluded),
            "edges": len(graph.edges), "rpca_not_converged": not_converged,
            **{f"rpca_{key}": value for key, value in work.items()}}
    return rate_records, edge_records, diag


def _solve_chunk(edges: list, observed: np.ndarray, lam: float, where: dict):
    """The tuned outlier-pursuit results and work counts of a chunk of edges,
    from one stacked solve of their (E, M, S) observations.

    Should it raise, the chunk is solved again edge by edge with
    ``where["edge"]`` set, so that the error names the first edge whose own
    solve fails; if none does, the stacked solve's error is raised, naming
    no edge.
    """
    try:
        return _tuned_stack(observed, lam)
    except Exception:
        for edge, Y in zip(edges, observed):
            where["edge"] = edge
            outlier_pursuit_tuned(Y, lam)
        where.clear()
        raise


def _progress_line(layout_id: int, n_layouts: int, diag: dict) -> str:
    note = ""
    if diag["rpca_not_converged"]:
        note = f", {diag['rpca_not_converged']} solves not converged"
    return f"layout {layout_id + 1}/{n_layouts} done ({diag['edges']} edges{note})"


def run_experiment(config: ExperimentConfig, progress: bool = False) -> ExperimentResult:
    """Execute all layouts (optionally in parallel) and gather the records.

    With ``progress`` a line is printed as each layout finishes; on several
    workers that is completion order, while the records are always merged
    in layout order. A pool never gets more workers than there are layouts
    or CPUs, since it may start all of them at once.
    """
    ids = list(range(config.n_layouts))
    outputs = [None] * len(ids)
    workers = min(config.workers, len(ids), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool machinery is a noticeable share of the
        # package's import time and one-worker runs never use it
        from concurrent.futures import ProcessPoolExecutor, as_completed
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_run_layout, config, i): i for i in ids}
            try:
                for future in as_completed(futures):
                    i = futures[future]
                    outputs[i] = future.result()
                    if progress:
                        print(_progress_line(i, len(ids), outputs[i][2]), flush=True)
            except BaseException:
                # report a failure now, not after every queued layout has run
                pool.shutdown(cancel_futures=True)
                raise
    else:
        for i in ids:
            outputs[i] = _run_layout(config, i)
            if progress:
                print(_progress_line(i, len(ids), outputs[i][2]), flush=True)
    rate_records, edge_records, diags = [], [], []
    for rates, edges, diag in outputs:
        rate_records.extend(rates)
        edge_records.extend(edges)
        diags.append(diag)
    return ExperimentResult(rate_records=rate_records, edge_records=edge_records,
                            diagnostics={"layouts": diags})


def _fmt(value) -> str:
    if value is None:
        return ""
    return str(float(value))


def _write_cdf(fh, values) -> None:
    values = np.sort(np.asarray(values, dtype=float)).tolist()
    writer = csv.writer(fh)
    writer.writerow(["value", "cdf"])
    n = len(values)
    writer.writerows([str(v), str(i / n)] for i, v in enumerate(values, 1))


@contextlib.contextmanager
def _replaced_together(out: Path):
    """Yield ``open_(name, **kwargs)``, which opens ``out/name`` for writing
    under a temporary name in ``out``.

    When the block completes, every file is moved onto its real name with
    ``os.replace``, then each file of ``_OUTPUT_FILES`` it did not open is
    deleted; when it raises, the temporary files are removed and the previous
    files stay as they were. So a crash while writing never leaves a
    truncated file, nor new files next to old ones.
    """
    staged = []

    def open_(name: str, **kwargs):
        tmp = out / f".{name}.{os.getpid()}.tmp"
        staged.append((tmp, out / name))
        return open(tmp, "w", **kwargs)

    try:
        yield open_
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise
    for tmp, final in staged:
        os.replace(tmp, final)
    for name in _OUTPUT_FILES - {final.name for _, final in staged}:
        (out / name).unlink(missing_ok=True)


def write_results(result: ExperimentResult, output_dir,
                  config: ExperimentConfig) -> dict:
    """Write rates.csv, subspace.csv, summary.json, config.json and CDF files.

    Returns the summary dictionary: one entry and one CDF per kind of
    ``config.kinds``, null entries and header-only CSVs for empty record sets;
    excluded UEs have empty rate/se cells in rates.csv. Every file is written
    under a temporary name first and all are renamed once all are written, so
    a failure part-way leaves the files of the previous run in place; a
    completed run deletes the output files of an earlier run it did not write.
    """
    out = Path(output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc
    with _replaced_together(out) as open_:
        with open_("rates.csv", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["layout", "ue", "kind", "rate", "se"])
            writer.writerows([r.layout, r.ue, r.kind, _fmt(r.rate), _fmt(r.se)]
                             for r in result.rate_records)

        with open_("subspace.csv", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["layout", "ru", "ue", "pe_raw", "pe_pp", "rank",
                             "converged", "iterations"])
            writer.writerows([e.layout, e.ru, e.ue, _fmt(e.pe_raw), _fmt(e.pe_pp),
                              e.rank, int(e.converged), e.iterations]
                             for e in result.edge_records)

        summary = {"kinds": {}, "subspace": None, "excluded_ue_records": 0}
        for kind in config.kinds:
            ses = [r.se for r in result.rate_records
                   if r.kind == kind and r.se is not None]
            summary["kinds"][kind] = {
                "mean_se": float(np.mean(ses)) if ses else None,
                "median_se": float(np.median(ses)) if ses else None,
                "sum_se": float(np.sum(ses)) if ses else None,
                "n_ues": len(ses),
            }
            with open_(f"cdf_se_{kind}.csv", newline="") as fh:
                _write_cdf(fh, ses)
        summary["excluded_ue_records"] = sum(1 for r in result.rate_records
                                             if r.se is None)
        if result.edge_records:
            pe_raw = [e.pe_raw for e in result.edge_records]
            pe_pp = [e.pe_pp for e in result.edge_records]
            summary["subspace"] = {
                "mean_pe_raw": float(np.mean(pe_raw)),
                "mean_pe_pp": float(np.mean(pe_pp)),
                "frac_converged": float(np.mean([e.converged
                                                 for e in result.edge_records])),
                "n_edges": len(result.edge_records),
            }
            with open_("cdf_pe_raw.csv", newline="") as fh:
                _write_cdf(fh, pe_raw)
            with open_("cdf_pe_pp.csv", newline="") as fh:
                _write_cdf(fh, pe_pp)
        summary["diagnostics"] = result.diagnostics

        with open_("summary.json") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open_("config.json") as fh:
            json.dump(dataclasses.asdict(config), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return summary
