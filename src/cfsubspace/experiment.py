"""Experiment configuration, the end-to-end pipeline and result output.

A run executes, per layout: geometry and clustering, angular supports, the
Latin-squares SRS schedule, per-edge outlier-pursuit subspace estimation, and
Monte-Carlo ergodic rates for the configured estimator kinds. Everything is
deterministic given the master seed: every stage draws from its own labeled
stream, so enabling extra estimator kinds never perturbs earlier stages.
"""

import csv
import dataclasses
import json
import zlib
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import network_supports
from .geometry import PathlossParams, assign_dmrs, calibrate_snr, form_clusters, \
    generate_layout
from .hopping import allocate_squares, build_schedule, mols_family, _is_prime
from .receiver import ESTIMATOR_KINDS, ergodic_rates
from .rpca import RpcaParams, collect_srs, outlier_pursuit, outlier_pursuit_tuned, \
    power_efficiency, subspace_estimates

DEFAULT_KINDS = ("ideal", "sp", "pp", "pm")


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
    cell_radius: float | None = None
    # per-edge empirical lambda adjustment; without it, observations whose
    # columns are all noise-dominated collapse to an empty low-rank part
    tune_lambda: bool = True
    # experiment control
    n_layouts: int = 100
    n_fading: int = 100
    seed: int = 0
    kinds: tuple = DEFAULT_KINDS
    natural_log: bool = False
    workers: int = 1
    output_dir: str = "results"
    pathloss: PathlossParams = field(default_factory=PathlossParams)
    solver: RpcaParams = field(default_factory=RpcaParams)

    def __post_init__(self):
        self.kinds = tuple(self.kinds)
        for name in ("L", "M", "K", "tau_p", "N", "Q", "T", "n_layouts",
                     "n_fading", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 < self.delta <= 2 * np.pi:
            raise ValueError("delta must lie in (0, 2*pi]")
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if not _is_prime(self.N):
            raise ValueError("N must be prime")
        if self.S is None:
            self.S = self.N
        if self.S < 1:
            raise ValueError("S must be >= 1")
        if self.tau_p >= self.T:
            raise ValueError("tau_p must be smaller than the block size T")
        if self.area_side <= 0:
            raise ValueError("area_side must be positive")
        bad = [k for k in self.kinds if k not in ESTIMATOR_KINDS]
        if bad:
            raise ValueError(f"unknown estimator kinds {bad}; "
                             f"choose from {list(ESTIMATOR_KINDS)}")


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


def config_to_dict(config: ExperimentConfig) -> dict:
    return dataclasses.asdict(config)


def _section(name: str, value, cls):
    """A nested config section (``pathloss``, ``solver``) from its dict form."""
    if isinstance(value, cls):
        return value
    if not isinstance(value, dict):
        raise ValueError(f"config section {name!r} must be an object, "
                         f"not {type(value).__name__}")
    unknown = set(value) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown config keys in {name!r}: {sorted(unknown)}")
    return cls(**value)


def config_from_dict(data: dict) -> ExperimentConfig:
    data = dict(data)
    for name, cls in (("pathloss", PathlossParams), ("solver", RpcaParams)):
        if name in data:
            data[name] = _section(name, data[name], cls)
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
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_dict(data)


def _layout_seed(config: ExperimentConfig, label: str, layout_id: int) -> int:
    return int(stage_seed_sequence(config.seed, label, layout_id).generate_state(1)[0])


def _run_layout(config: ExperimentConfig, layout_id: int):
    layout = generate_layout(config.L, config.K, config.area_side,
                             seed=_layout_seed(config, "layout", layout_id),
                             params=config.pathloss)
    snr = calibrate_snr(config.L, config.M, config.area_side, config.pathloss)
    graph = form_clusters(layout.lsfc, snr, config.M, config.Q, config.eta)
    graph.dmrs_pilot = assign_dmrs(graph, layout.lsfc, config.tau_p)
    supports = network_supports(layout, config.delta, config.M)

    edge_records = []
    subspaces = None
    not_converged = 0
    if "pp" in config.kinds:
        family = mols_family(config.N)
        assignment = allocate_squares(layout, family, config.cell_radius)
        schedule = build_schedule(assignment, family, config.S)
        subspaces = {}
        for l, k in sorted(graph.edges):
            rng = stage_rng(config.seed, "srs", layout_id, l, k)
            Y = collect_srs(schedule, layout, supports, (l, k), snr, rng)
            if config.tune_lambda:
                res = outlier_pursuit_tuned(Y, config.lam, config.solver)
            else:
                res = outlier_pursuit(Y, config.lam, config.solver)
            not_converged += not res.converged
            pca, pp = subspace_estimates(res.low_rank)
            beta = layout.lsfc[l, k]
            edge_records.append(EdgeRecord(
                layout=layout_id, ru=l, ue=k,
                pe_raw=power_efficiency(supports[l][k], beta, pca),
                pe_pp=power_efficiency(supports[l][k], beta, pp),
                rank=pca.rank, converged=res.converged,
                iterations=res.iterations))
            subspaces[(l, k)] = pp

    reports = ergodic_rates(layout, graph, supports, snr, list(config.kinds),
                            config.n_fading, config.tau_p, config.T,
                            stage_rng(config.seed, "fading", layout_id),
                            subspaces=subspaces, natural_log=config.natural_log)
    excluded = set(int(k) for k in graph.orphan_ues)
    rate_records = []
    for kind in config.kinds:
        rep = reports[kind]
        for k in range(config.K):
            if k in excluded:
                rate_records.append(RateRecord(layout_id, k, kind, None, None))
            else:
                rate_records.append(RateRecord(layout_id, k, kind,
                                               float(rep.rate[k]), float(rep.se[k])))
    diag = {"layout": layout_id, "excluded_ues": sorted(excluded),
            "edges": len(graph.edges), "rpca_not_converged": not_converged}
    return rate_records, edge_records, diag


def _progress_line(layout_id: int, n_layouts: int, diag: dict) -> str:
    note = ""
    if diag["rpca_not_converged"]:
        note = f", {diag['rpca_not_converged']} solves not converged"
    return f"layout {layout_id + 1}/{n_layouts} done ({diag['edges']} edges{note})"


def run_experiment(config: ExperimentConfig, progress: bool = False) -> ExperimentResult:
    """Execute all layouts (optionally in parallel) and gather the records.

    With ``progress`` a line is printed as each layout finishes; on several
    workers that is completion order, while the records are always merged
    in layout order.
    """
    ids = list(range(config.n_layouts))
    outputs = [None] * len(ids)
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            futures = {pool.submit(_run_layout, config, i): i for i in ids}
            for future in as_completed(futures):
                i = futures[future]
                outputs[i] = future.result()
                if progress:
                    print(_progress_line(i, len(ids), outputs[i][2]), flush=True)
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


def _write_cdf(path: Path, values) -> None:
    values = np.sort(np.asarray(values, dtype=float))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "cdf"])
        n = len(values)
        for i, v in enumerate(values):
            writer.writerow([_fmt(v), _fmt((i + 1) / n)])


def write_results(result: ExperimentResult, output_dir,
                  config: ExperimentConfig | None = None) -> dict:
    """Write rates.csv, subspace.csv, summary.json and empirical CDF files.

    Returns the summary dictionary. Excluded UEs appear in rates.csv with
    empty rate/se cells; empty record sets produce header-only CSVs and null
    summary entries.
    """
    out = Path(output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc

    with open(out / "rates.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layout", "ue", "kind", "rate", "se"])
        for r in result.rate_records:
            writer.writerow([r.layout, r.ue, r.kind, _fmt(r.rate), _fmt(r.se)])

    with open(out / "subspace.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layout", "ru", "ue", "pe_raw", "pe_pp", "rank",
                         "converged", "iterations"])
        for e in result.edge_records:
            writer.writerow([e.layout, e.ru, e.ue, _fmt(e.pe_raw), _fmt(e.pe_pp),
                             e.rank, int(e.converged), e.iterations])

    kinds = []
    for r in result.rate_records:
        if r.kind not in kinds:
            kinds.append(r.kind)
    summary = {"kinds": {}, "subspace": None, "excluded_ue_records": 0}
    for kind in kinds:
        ses = [r.se for r in result.rate_records if r.kind == kind and r.se is not None]
        summary["kinds"][kind] = {
            "mean_se": float(np.mean(ses)) if ses else None,
            "median_se": float(np.median(ses)) if ses else None,
            "sum_se": float(np.sum(ses)) if ses else None,
            "n_ues": len(ses),
        }
        _write_cdf(out / f"cdf_se_{kind}.csv", ses)
    summary["excluded_ue_records"] = sum(1 for r in result.rate_records
                                         if r.se is None)
    if result.edge_records:
        pe_raw = [e.pe_raw for e in result.edge_records]
        pe_pp = [e.pe_pp for e in result.edge_records]
        summary["subspace"] = {
            "mean_pe_raw": float(np.mean(pe_raw)),
            "mean_pe_pp": float(np.mean(pe_pp)),
            "frac_converged": float(np.mean([e.converged for e in result.edge_records])),
            "n_edges": len(result.edge_records),
        }
        _write_cdf(out / "cdf_pe_raw.csv", pe_raw)
        _write_cdf(out / "cdf_pe_pp.csv", pe_pp)
    summary["diagnostics"] = result.diagnostics

    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if config is not None:
        with open(out / "config.json", "w") as fh:
            json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return summary
