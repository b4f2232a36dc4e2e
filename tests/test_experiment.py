import concurrent.futures
import csv
import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cfsubspace.experiment as experiment_mod
import cfsubspace.rpca as rpca_mod
from cfsubspace.channel import dft_columns
from cfsubspace.cli import main as cli_main
from cfsubspace.experiment import (ExperimentConfig, config_from_dict,
                                   load_config, run_experiment, stage_rng,
                                   write_results)
from cfsubspace.rpca import SubspaceEstimate, outlier_pursuit_tuned, power_efficiency
import oracles
from oracles import check_collision_law, reference_outlier_pursuit, solver_constants, \
    write_csv_rows_one_by_one


# the pathloss section of every config.json echoed before the model was fixed
ECHOED_PATHLOSS = {"carrier_freq_ghz": 3.7, "ru_height_m": 10.0, "ue_height_m": 1.5,
                   "los_offset": 32.4, "los_dist_coef": 21.0, "los_freq_coef": 20.0,
                   "nlos_offset": 22.4, "nlos_dist_coef": 35.3, "nlos_freq_coef": 21.3,
                   "los_prob_d0": 18.0, "los_prob_decay": 36.0, "shadowing_std_db": 0.0}
NO_PATHLOSS = r"unknown config keys: \['pathloss'\]"
# the solver section of every config.json echoed before the solver knobs
# left the config
ECHOED_SOLVER = {"max_iter": 500, "tol": 0.0001, "rho": 1.0}
NO_SOLVER = r"unknown config keys: \['solver'\]"
# the area sides just outside the range at which the geometry is computable
AREA_ABOVE = math.nextafter(1e50, math.inf)
AREA_BELOW = math.nextafter(1e-100, 0.0)
AREA_RANGE = r"area_side must be positive and finite, within \[1e-100, 1e50\] m"


def tiny_config(**overrides):
    base = dict(L=3, M=4, K=5, tau_p=3, N=5, area_side=600.0, Q=2,
                n_layouts=2, n_fading=2, seed=9, kinds=("ideal", "sp", "pp", "pm"),
                output_dir="unused")
    base.update(overrides)
    return ExperimentConfig(**base)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestConfig:
    def test_built_in_defaults(self):
        cfg = ExperimentConfig()
        assert (cfg.L, cfg.M, cfg.K, cfg.tau_p) == (40, 16, 100, 15)
        assert cfg.N == 19 and cfg.lam == 0.25 and cfg.Q == 10
        assert cfg.eta == 1.0 and cfg.T == 200 and cfg.area_side == 2000.0
        assert cfg.delta == pytest.approx(np.pi / 8)
        assert cfg.S == cfg.N  # sequence length defaults to one period

    def test_composite_n_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            ExperimentConfig(N=20)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ExperimentConfig(kinds=("ideal", "zf"))

    def test_tau_p_must_fit_block(self):
        with pytest.raises(ValueError):
            ExperimentConfig(tau_p=200, T=200)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict({"LL": 4})

    @pytest.mark.parametrize("entry,message", [
        ({"L": "5"}, "L must be an integer"),
        ({"L": 5.5}, "L must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"lam": "0.25"}, "lam must be a number"),
        ({"delta": None}, "delta must be a number"),
        ({"S": 2.0}, "S must be an integer"),
        ({"cell_radius": 300.0}, r"unknown config keys: \['cell_radius'\]"),
        ({"lam": True}, "lam must be a number"),
        ({"kinds": "pp"}, "kinds must be a list"),
        ({"output_dir": 3}, "output_dir must be a string"),
        # the solver's tolerances are module constants of rpca.py, not
        # config entries, so a solver section is an unknown key, the one an
        # echoed config.json of an earlier run holds included
        ({"solver": ECHOED_SOLVER}, NO_SOLVER),
        ({"solver": {}}, NO_SOLVER),
        # area sides outside [1e-100, 1e50] m, where runs used to crash
        ({"area_side": AREA_ABOVE}, AREA_RANGE),
        ({"area_side": AREA_BELOW}, AREA_RANGE),
        # the pathloss model is fixed: any pathloss section is an unknown key,
        # the one an echoed config.json of an earlier run holds included
        ({"pathloss": ECHOED_PATHLOSS}, NO_PATHLOSS),
        ({"pathloss": {}}, NO_PATHLOSS),
        ({"kinds": ["ideal", "ideal"]}, "kinds must not repeat a kind"),
        ({"kinds": []}, "kinds must name at least one"),
        ({"eta": float("nan")}, "eta must be finite and >= 0"),
        ({"eta": -1.0}, "eta must be finite and >= 0"),
        ({"pathloss": None}, NO_PATHLOSS),
        ({"pathloss": {"shadowing_std_db": 4.0}}, NO_PATHLOSS),
        ({"pathloss": {"los_offset": float("inf")}}, NO_PATHLOSS),
        ({"area_side": float("inf")}, "area_side must be positive and finite"),
        ({"lam": float("inf")}, "lam must be positive and finite"),
        # the value an echoed config.json of a run before the key was removed holds
        ({"cell_radius": None}, r"unknown config keys: \['cell_radius'\]"),
        ({"area_side": 10 ** 400}, AREA_RANGE),
        ({"area_side": 1e-300}, AREA_RANGE),
    ])
    def test_wrong_type_or_range_rejected(self, entry, message):
        with pytest.raises(ValueError, match=message):
            config_from_dict(entry)

    def test_many_ues_on_few_subcarriers_build_with_pp(self):
        # 10000 UEs on N=2 make 5000 hex cells; hopping bins each UE among 6
        # of them, so no UE-cell count is refused
        cfg = ExperimentConfig(K=10000, N=2, kinds=["pp"])
        assert (cfg.K, cfg.N, cfg.kinds) == (10000, 2, ("pp",))

    def test_numbers_of_any_kind_accepted(self):
        cfg = config_from_dict({"eta": 1, "area_side": 600, "seed": np.int64(3),
                                "lam": np.float64(0.3), "kinds": ["ideal"]})
        assert (cfg.eta, cfg.area_side, cfg.seed, cfg.kinds) == \
            (1, 600, 3, ("ideal",))
        assert type(cfg.seed) is int and type(cfg.lam) is float

    def test_load_config_precedence(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"N": 19, "K": 30}))
        cfg = load_config(path, {"N": 61, "seed": None})
        assert cfg.N == 61      # flag wins
        assert cfg.K == 30      # file value kept
        assert cfg.seed == 0    # None override ignored, default used

    @pytest.mark.parametrize("text,kind", [("[1, 2]", "an array"), ("5", "a number"),
                                           ('"x"', "a string"), ("null", "null"),
                                           ("true", "a boolean")])
    def test_config_file_must_hold_an_object(self, tmp_path, text, kind):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"must hold a JSON object, not {kind}$"):
            load_config(path, {"N": 5})

    def test_empty_config_uses_defaults(self):
        cfg = load_config(None, {})
        assert (cfg.L, cfg.M, cfg.K, cfg.N) == (40, 16, 100, 19)

    def test_echoed_config_round_trips(self, tmp_path):
        # numpy scalars are taken as the Python numbers they equal, so the
        # echo of such a config is plain JSON and every file is written
        cfg = tiny_config(kinds=("ideal",), seed=np.int64(9), K=np.int64(5),
                          lam=np.float32(0.3), area_side=np.float32(600.0))
        write_results(run_experiment(cfg), tmp_path, cfg)
        assert {"rates.csv", "subspace.csv", "summary.json", "config.json",
                "cdf_se_ideal.csv"} <= {p.name for p in tmp_path.iterdir()}
        reloaded = load_config(tmp_path / "config.json")
        assert reloaded == cfg


class TestStageRng:
    def test_reproducible_and_label_separated(self):
        a = stage_rng(7, "layout", 3).standard_normal(4)
        b = stage_rng(7, "layout", 3).standard_normal(4)
        c = stage_rng(7, "fading", 3).standard_normal(4)
        d = stage_rng(8, "layout", 3).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


class TestRunExperiment:
    def test_record_bookkeeping(self):
        cfg = tiny_config()
        result = run_experiment(cfg)
        assert len(result.rate_records) == cfg.n_layouts * cfg.K * len(cfg.kinds)
        edges = sum(d["edges"] for d in result.diagnostics["layouts"])
        assert len(result.edge_records) == edges
        for rec in result.edge_records:
            assert 0.0 <= rec.pe_raw <= 1.0
            assert 0.0 <= rec.pe_pp <= 1.0
            assert rec.rank >= 1

    def test_ideal_only_skips_srs(self):
        cfg = tiny_config(kinds=("ideal",))
        result = run_experiment(cfg)
        assert result.edge_records == []
        assert len(result.rate_records) == cfg.n_layouts * cfg.K

    def test_deterministic_across_runs(self):
        r1 = run_experiment(tiny_config())
        r2 = run_experiment(tiny_config())
        assert r1.rate_records == r2.rate_records
        assert r1.edge_records == r2.edge_records

    def test_parallel_matches_serial(self):
        serial = run_experiment(tiny_config(kinds=("ideal", "pm")))
        parallel = run_experiment(tiny_config(kinds=("ideal", "pm"), workers=2))
        assert serial.rate_records == parallel.rate_records

    @pytest.mark.parametrize("n_layouts,workers,pool", [(1, 64, None), (2, 64, 2),
                                                        (3, 2, 2), (5, 5000, 3)])
    def test_pool_never_outnumbers_the_layouts(self, monkeypatch, n_layouts,
                                               workers, pool):
        # nor the CPUs, which os.cpu_count is made to report as 3
        sizes = []

        class RecordingPool:
            """Runs each layout in this process and records the pool size."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        settings = dict(kinds=("ideal",), n_layouts=n_layouts)
        result = run_experiment(tiny_config(workers=workers, **settings))
        assert sizes == ([] if pool is None else [pool])
        assert result.rate_records == run_experiment(tiny_config(**settings)).rate_records

    @pytest.mark.parametrize("eta", [1.0, 1e9])
    def test_estimated_supports_hold_each_edge_rank(self, monkeypatch, eta):
        # eta = 1e9 orphans every UE: no edge, and an empty estimated table
        tables = []
        rates = experiment_mod.ergodic_rates

        def recording(*args, subspaces=None, **kwargs):
            tables.append(subspaces)
            return rates(*args, subspaces=subspaces, **kwargs)

        monkeypatch.setattr(experiment_mod, "ergodic_rates", recording)
        cfg = tiny_config(eta=eta)
        result = run_experiment(cfg)
        assert len(tables) == cfg.n_layouts
        for layout, table in enumerate(tables):
            want = np.zeros((cfg.L, cfg.K), dtype=int)
            for e in result.edge_records:
                if e.layout == layout:
                    want[e.ru, e.ue] = e.rank
            assert np.array_equal(table.sizes, want)
            assert table.indices.size == want.sum()
            assert table.num_antennas == cfg.M
        if eta > 1.0:
            assert result.edge_records == []
            assert all(r.se is None for r in result.rate_records)
        else:
            assert result.edge_records

    def test_pp_efficiency_is_the_overlap_share(self, monkeypatch):
        # real K = 40, N = 7 drops with SRS colliders: pe_pp is exactly
        # |S & S_hat| / r for the estimated DFT index set S_hat, and the
        # projector form tr(Sigma Sigma_hat) / tr(Sigma Sigma) agrees with it
        true_tables, pairs = [], []
        supports_of, rates = experiment_mod.network_supports, experiment_mod.ergodic_rates

        def recording_supports(*args):
            true_tables.append(supports_of(*args))
            return true_tables[-1]

        def recording_rates(*args, subspaces=None, **kwargs):
            pairs.append((true_tables[-1], subspaces))
            return rates(*args, subspaces=subspaces, **kwargs)

        monkeypatch.setattr(experiment_mod, "network_supports", recording_supports)
        monkeypatch.setattr(experiment_mod, "ergodic_rates", recording_rates)
        cfg = ExperimentConfig(L=10, M=8, K=40, tau_p=5, N=7, n_layouts=2,
                               n_fading=1, seed=3, kinds=("pp",))
        result = run_experiment(cfg)
        shares = set()
        for e in result.edge_records:
            true, estimated = pairs[e.layout]
            S, S_hat = true[e.ru, e.ue], estimated[e.ru, e.ue]
            assert len(S_hat) == e.rank
            assert e.pe_pp == len(set(S.tolist()) & set(S_hat.tolist())) / e.rank
            projector = power_efficiency(
                S, SubspaceEstimate(basis=dft_columns(cfg.M, S_hat), rank=e.rank))
            assert abs(e.pe_pp - projector) <= 1e-15
            shares.add(0.0 < e.pe_pp < 1.0)
        assert shares == {True, False}

    def test_parallel_progress_lines(self, capsys):
        settings = dict(kinds=("ideal",), n_layouts=3)
        run_experiment(tiny_config(**settings), progress=True)
        serial = capsys.readouterr().out.splitlines()
        run_experiment(tiny_config(workers=2, **settings), progress=True)
        parallel = capsys.readouterr().out.splitlines()
        assert [line.split(" done")[0] for line in serial] == \
            ["layout 1/3", "layout 2/3", "layout 3/3"]
        assert sorted(parallel) == serial

    def test_svds_per_edge_are_the_screen_and_the_steps(self, monkeypatch):
        # per edge, the rank-zero screen factors one matrix and every ADMM
        # step one; the ranks and the subspace estimates reuse the last
        # step's. The edges of a layout share the calls: one stacked screen
        # per chunk of edges and one stacked SVD per lockstep step, which
        # runs while any edge of its stack does
        matrices, calls, observed, steps, lockstep = [0], [0], [], [], []
        svd, admm, collect = np.linalg.svd, rpca_mod._admm, experiment_mod.collect_srs

        def counted_svd(a, *args, **kwargs):
            calls[0] += 1
            matrices[0] += math.prod(a.shape[:-2])
            return svd(a, *args, **kwargs)

        def kept_collect(*args, **kwargs):
            observed.append(collect(*args, **kwargs))
            return observed[-1]

        def counted_admm(*args, **kwargs):
            result = admm(*args, **kwargs)
            steps.extend(result[4].tolist())
            lockstep.append(int(result[4].max()))
            return result

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(experiment_mod, "collect_srs", kept_collect)
        monkeypatch.setattr(rpca_mod, "_admm", counted_admm)
        # reduced networks: K = 40 UEs on N = 7 squares collide, and the
        # noise-only K = 25, N = 29 edges retune lambda
        solves = edges = 0
        for K, N in [(40, 7), (25, 29)]:
            for log in (observed, steps, lockstep):
                log.clear()
            matrices[0] = calls[0] = 0
            cfg = ExperimentConfig(L=10, M=8, K=K, tau_p=5, N=N, n_layouts=1,
                                   n_fading=1, seed=3, kinds=("pp",))
            result = run_experiment(cfg)
            assert len(observed) == len(result.edge_records) > 0
            assert matrices[0] == len(observed) + sum(steps)
            chunks = -(-len(observed) // experiment_mod._RPCA_CHUNK)
            assert calls[0] == chunks + sum(lockstep)
            # the steps are those of solving edge by edge
            reference = reference_work(observed, cfg.lam)
            assert (len(steps), sum(steps)) == \
                (reference["solves"], reference["admm_steps"])
            solves += len(steps)
            edges += len(observed)
        # so some edges' steps span several solves
        assert solves > edges

    @pytest.mark.parametrize("K,N", [(25, 29), (40, 7)])
    def test_default_tol_takes_fewer_steps(self, monkeypatch, K, N):
        # on the pipeline's own SRS observations, the last solve of an edge
        # takes at most 0.7 times the ADMM steps it took at the former default
        # tolerance 1e-6, and still converges
        observed = []
        collect = experiment_mod.collect_srs

        def capture(*args, **kwargs):
            observed.append(collect(*args, **kwargs))
            return observed[-1]

        monkeypatch.setattr(experiment_mod, "collect_srs", capture)
        cfg = ExperimentConfig(L=10, M=8, K=K, tau_p=5, N=N, n_layouts=1,
                               n_fading=1, seed=3, kinds=("pp",))
        run_experiment(cfg)
        assert observed
        steps = []
        for tol in (None, 1e-6):
            with solver_constants(tol=tol):
                results = [outlier_pursuit_tuned(Y, cfg.lam) for Y in observed]
            assert all(r.converged for r in results)
            steps.append(np.mean([r.iterations for r in results]))
        assert steps[0] <= 0.7 * steps[1]

    def test_import_leaves_the_process_pool_unloaded(self):
        # one-worker runs never start a pool, so they need not import it
        src = Path(experiment_mod.__file__).resolve().parents[1]
        code = ("import sys, cfsubspace; "
                "print('concurrent.futures.process' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, check=True,
                              env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.stdout.strip() == "False"


# values at the edge of what the config accepts, on L=6, M=4, K=12,
# tau_p=3, N=5 in TestValidExtremes and on drawn configs in TestConfigSweep
VALID_EXTREMES = [
    dict(seed=10 ** 400),
    dict(lam=1e300),
    dict(lam=5e-324),
    dict(eta=1e308),
    dict(eta=0.0, Q=1),
    dict(delta=1e-300),
    dict(M=64, delta=2 * np.pi),
    dict(T=10 ** 18),
    dict(tau_p=50, T=51),
    dict(K=1, N=2),
    dict(L=1, M=1),
    dict(S=1, N=2),
    dict(N=2, S=40),
    dict(Q=10 ** 18),
    dict(area_side=1e50, eta=0.0),
    dict(area_side=1e-100),
    dict(N=3, K=60),
    dict(M=1, kinds=("pp",)),
]


def write_run(config, out):
    """Run ``config``, write its results to ``out`` and return each file's bytes."""
    write_results(run_experiment(config), out, config)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def check_sane_outputs(config, tmp_path):
    """Run ``config`` twice and check what every accepted config must give:
    PEs in [0, 1], one rates.csv row per layout, UE and kind, served SEs
    finite and >= 0, empty cells for excluded UEs, and the same bytes on the
    rerun. Returns the files of the first run."""
    files = write_run(config, tmp_path / "a")
    for row in read_csv(tmp_path / "a" / "subspace.csv")[1:]:
        assert 0.0 <= float(row[3]) <= 1.0 and 0.0 <= float(row[4]) <= 1.0
    excluded = {layout["layout"]: set(layout["excluded_ues"]) for layout in
                json.loads(files["summary.json"])["diagnostics"]["layouts"]}
    rows = read_csv(tmp_path / "a" / "rates.csv")[1:]
    assert sorted(tuple(r[:3]) for r in rows) == sorted(
        (str(i), str(k), kind) for i in range(config.n_layouts)
        for k in range(config.K) for kind in config.kinds)
    for layout, ue, _, rate, se in rows:
        if int(ue) in excluded[int(layout)]:
            assert rate == se == ""
        else:
            assert 0.0 <= float(se) < np.inf
    assert write_run(config, tmp_path / "b") == files
    return files


class TestValidExtremes:
    """Values at the edge of what the config accepts run to the end."""

    @pytest.mark.parametrize("overrides", VALID_EXTREMES)
    def test_run_completes_with_sane_outputs(self, tmp_path, overrides):
        cfg = ExperimentConfig(**{**dict(L=6, M=4, K=12, tau_p=3, N=5,
                                         n_layouts=1, n_fading=2, seed=7),
                                  **overrides})
        check_sane_outputs(cfg, tmp_path)


def random_config(rng, **overrides) -> ExperimentConfig:
    """A small valid config with every field drawn from ``rng``: one layout of
    two fading draws and all four kinds, on one worker unless ``overrides``
    say otherwise. About one config in five also takes one of
    ``VALID_EXTREMES``."""
    N = int(rng.choice([2, 3, 5, 7, 11, 13]))
    L = int(rng.integers(1, 8))
    tau_p = int(rng.integers(1, 13))
    fields = dict(
        L=L, M=int(rng.choice([1, 2, 3, 4, 8])), K=int(rng.integers(1, 40)),
        tau_p=tau_p, T=tau_p + int(rng.integers(1, 200)), N=N,
        S=int(rng.integers(1, 3 * N + 1)), Q=int(rng.integers(1, L + 2)),
        eta=float(rng.choice([0.0, 0.5, 1.0, 5.0, 30.0])),
        delta=float(rng.choice([1e-3, np.pi / 8, 1.0, 2 * np.pi])),
        lam=float(rng.choice([1e-3, 0.1, 0.25, 0.9, 3.0])),
        area_side=float(rng.choice([1.0, 50.0, 600.0, 2000.0, 1e5])),
        seed=int(rng.integers(1 << 62)), n_layouts=1, n_fading=2,
        kinds=("ideal", "sp", "pp", "pm"), workers=1, output_dir="unused")
    if rng.random() < 0.2:
        fields.update(VALID_EXTREMES[rng.integers(len(VALID_EXTREMES))])
    return ExperimentConfig(**{**fields, **overrides})


def config_json(config) -> str:
    return json.dumps(dataclasses.asdict(config), sort_keys=True)


class TestConfigSweep:
    """Drawn configs keep the model's invariants end to end. Config i comes
    from ``random_config`` seeded by (SEED, i); a failure names it as JSON."""

    SEED = 2607

    @pytest.mark.parametrize("index", range(60))
    def test_invariants_hold(self, monkeypatch, tmp_path, index):
        config = random_config(np.random.default_rng([self.SEED, index]))
        self.check_invariants(config, monkeypatch, tmp_path)

    # networks of the paper's size (L=40, M=16, Q=10) and beyond it in K:
    # step-1 certificate exits at lambda 3 on 683 edges, full solves at
    # S=14 and S=35, and rank-zero endings at lambda 1e-3 on 600 edges
    @pytest.mark.parametrize("index, overrides", [
        (2013, dict(L=40, K=300, M=16, Q=10)),
        (2004, dict(L=40, K=100, M=16, Q=2)),
        (2009, dict(L=40, K=100, M=8, Q=3)),
        (2012, dict(L=30, K=300, M=8, Q=2)),
    ])
    def test_invariants_hold_on_large_networks(self, monkeypatch, tmp_path, index,
                                               overrides):
        config = random_config(np.random.default_rng([self.SEED, index]), **overrides)
        self.check_invariants(config, monkeypatch, tmp_path)

    @staticmethod
    def check_invariants(config, monkeypatch, tmp_path):
        """The invariants of ``check_sane_outputs``, and the collision law
        on each schedule the pipeline builds; a failure names the config."""
        build, built = experiment_mod.build_schedule, []

        def recording(assignment, N, S):
            built.append((assignment, N, S, build(assignment, N, S)))
            return built[-1][3]

        monkeypatch.setattr(experiment_mod, "build_schedule", recording)
        try:
            check_sane_outputs(config, tmp_path)
            # the pipeline's own schedule, once per run of the layout
            assert len(built) == 2 * ("pp" in config.kinds)
            for assignment, N, S, schedule in built:
                assert (N, S) == (config.N, config.S)
                check_collision_law(assignment, N, schedule.subcarriers,
                                    "pipeline schedule")
        except Exception as exc:
            raise AssertionError(f"config {config_json(config)}: "
                                 f"{type(exc).__name__}: {exc}") from exc

    @pytest.mark.parametrize("index, overrides", [
        (1000, dict(delta=1.0, M=8)),        # mixed support sizes
        (1001, dict()),
    ])
    def test_workers_give_equal_bytes(self, tmp_path, index, overrides):
        config = random_config(np.random.default_rng([self.SEED, index]),
                               n_layouts=2, **overrides)
        runs = [write_run(dataclasses.replace(config, workers=workers),
                          tmp_path / str(workers)) for workers in (1, 2)]
        for files in runs:
            del files["config.json"]              # echoes the worker count
        assert runs[0] == runs[1], config_json(config)


def reference_work(observed, lam):
    """The rpca work counters of a layout, from solving its observations
    edge by edge with the reference ladder (``oracles.reference_tuned``). A
    reference solve that converges after its first step is a certificate
    exit: the tolerance stop cannot fire there at the default ``rho``."""
    solves = []

    def recording(Y, lam):
        solves.append(reference_outlier_pursuit(Y, lam))
        return solves[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracles, "reference_outlier_pursuit", recording)
        results = [oracles.reference_tuned(Y, lam) for Y in observed]
    return {"solves": len(solves),
            "admm_steps": sum(r.iterations for r in solves),
            "certificate_exits": sum(r.iterations == 1 and r.converged for r in solves),
            "rank_zero_endings": sum(r.rank == 0 for r in results)}


class TestRpcaWork:
    """Each layout's diagnostics count its rpca work: solves, ADMM steps over
    every solve, step-1 certificate exits and rank-zero endings."""

    # per config, the counter it drives above zero, beside solves and steps
    CONFIGS = {
        "K=40/N=7 colliders": (dict(L=10, M=8, K=40, tau_p=5, N=7, seed=3), None),
        "perfbench TINY": (dict(L=6, M=4, K=12, tau_p=3, N=5, seed=7), None),
        "TINY at lambda 1": (dict(L=6, M=4, K=12, tau_p=3, N=5, seed=7, lam=1.0),
                             "certificate_exits"),
        "K=25/N=29 retunes": (dict(L=10, M=8, K=25, tau_p=5, N=29, seed=3),
                              "rank_zero_endings"),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_counts_equal_edge_by_edge_reference(self, monkeypatch, name):
        observed, collect = [], experiment_mod.collect_srs

        def kept(*args, **kwargs):
            observed.append(collect(*args, **kwargs))
            return observed[-1]

        network, driven = self.CONFIGS[name]
        settings = dict(network, n_layouts=2, n_fading=1, kinds=("pp",))
        with monkeypatch.context() as patch:
            patch.setattr(experiment_mod, "collect_srs", kept)
            diags = run_experiment(ExperimentConfig(**settings)).diagnostics["layouts"]
        first = 0
        for diag in diags:
            edges = observed[first:first + diag["edges"]]
            first += diag["edges"]
            reference = reference_work(edges, settings.get("lam", 0.25))
            assert {key: diag[f"rpca_{key}"] for key in reference} == reference
            assert diag["rpca_solves"] >= diag["edges"] > 0
            assert diag["rpca_admm_steps"] > 0
        assert first == len(observed)
        if driven:
            assert sum(diag[f"rpca_{driven}"] for diag in diags) > 0
        pool = run_experiment(ExperimentConfig(**settings, workers=2))
        assert pool.diagnostics["layouts"] == diags

    def test_no_rpca_work_without_pp(self):
        diag = run_experiment(tiny_config(kinds=("ideal",))).diagnostics["layouts"][0]
        assert [diag[f"rpca_{key}"] for key in rpca_mod._WORK_COUNTERS] == [0] * 4


class TestFailureContext:
    """A failing layout is re-raised naming the layout, seed and rpca edge."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_solver_failure_names_layout_seed_and_edge(self, monkeypatch, workers):
        if workers > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched solver reaches pool workers only by fork")
        # the observations of layout 0, edge by edge, from an unpatched run
        observed = []
        collect = experiment_mod.collect_srs

        def recording(*args):
            observed.append(collect(*args))
            return observed[-1]

        with monkeypatch.context() as patch:
            patch.setattr(experiment_mod, "collect_srs", recording)
            edges = run_experiment(tiny_config(kinds=("pp",), n_layouts=1)).edge_records
        solve = experiment_mod.outlier_pursuit_tuned

        def failing(Y, lam):
            # the third edge of layout 0 fails; layout 1, which a second pool
            # worker runs at the same time, does not
            if np.array_equal(Y, observed[2]):
                raise FloatingPointError("boom")
            return solve(Y, lam)

        stack = experiment_mod._tuned_stack

        def failing_stack(Y, lam):
            # the stacked solve of the chunk holding that edge fails too
            if any(np.array_equal(y, observed[2]) for y in Y):
                raise FloatingPointError("boom")
            return stack(Y, lam)

        monkeypatch.setattr(experiment_mod, "_tuned_stack", failing_stack)
        monkeypatch.setattr(experiment_mod, "outlier_pursuit_tuned", failing)
        with pytest.raises(RuntimeError) as info:
            run_experiment(tiny_config(kinds=("pp",), n_layouts=2, workers=workers))
        edge = (edges[2].ru, edges[2].ue)
        assert str(info.value) == (f"layout 0 (master seed 9, rpca edge {edge}) "
                                   f"failed: FloatingPointError: boom")
        assert info.value.__cause__ is not None

    def test_stack_failure_no_edge_repeats_names_no_edge(self, monkeypatch):
        # the edge-by-edge solves of the failed chunk all succeed, so the
        # stacked solve's own error is raised, naming no edge
        def failing_stack(Y, lam):
            raise MemoryError("stack")

        monkeypatch.setattr(experiment_mod, "_tuned_stack", failing_stack)
        with pytest.raises(RuntimeError, match=r"^layout 0 \(master seed 9\) "
                                               r"failed: MemoryError: stack$"):
            run_experiment(tiny_config(kinds=("pp",), n_layouts=1))

    def test_pool_failure_cancels_layouts_not_started(self, monkeypatch, tmp_path):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched layout reaches pool workers only by fork")

        def layout_outputs(config, layout_id, where):
            (tmp_path / str(layout_id)).touch()
            if layout_id == 0:
                raise ValueError("first layout")
            time.sleep(0.5)
            raise AssertionError("only layout 0 fails first")

        monkeypatch.setattr(experiment_mod, "_layout_outputs", layout_outputs)
        with pytest.raises(RuntimeError, match="layout 0 .*first layout"):
            run_experiment(tiny_config(workers=2, n_layouts=12))
        # the running and already queued layouts finish; the rest never start
        assert len(list(tmp_path.iterdir())) < 12

    def test_failure_outside_rpca_names_layout_and_seed(self, monkeypatch):
        def failing(*args, **kwargs):
            raise ValueError("no rates")

        monkeypatch.setattr(experiment_mod, "ergodic_rates", failing)
        with pytest.raises(RuntimeError, match=r"^layout 0 \(master seed 9\) "
                                               r"failed: ValueError: no rates$"):
            run_experiment(tiny_config())


class TestWriteResults:
    def test_files_and_consistency(self, tmp_path):
        cfg = tiny_config()
        result = run_experiment(cfg)
        summary = write_results(result, tmp_path, cfg)
        rates = read_csv(tmp_path / "rates.csv")
        assert rates[0] == ["layout", "ue", "kind", "rate", "se"]
        assert len(rates) == 1 + len(result.rate_records)
        # summary sum-SE equals the column sum recomputed from the file
        for kind in cfg.kinds:
            file_sum = sum(float(r[4]) for r in rates[1:]
                           if r[2] == kind and r[4] != "")
            assert file_sum == pytest.approx(summary["kinds"][kind]["sum_se"],
                                             abs=1e-9)
        sub = read_csv(tmp_path / "subspace.csv")
        assert sub[0][:7] == ["layout", "ru", "ue", "pe_raw", "pe_pp", "rank",
                              "converged"]
        assert len(sub) == 1 + len(result.edge_records)
        assert (tmp_path / "config.json").exists()
        echoed = json.loads((tmp_path / "config.json").read_text())
        assert echoed["K"] == cfg.K and echoed["seed"] == cfg.seed

    def test_cdf_files_are_valid_cdfs(self, tmp_path):
        cfg = tiny_config(kinds=("ideal",))
        result = run_experiment(cfg)
        write_results(result, tmp_path, cfg)
        rows = read_csv(tmp_path / "cdf_se_ideal.csv")[1:]
        values = [float(r[0]) for r in rows]
        fractions = [float(r[1]) for r in rows]
        assert values == sorted(values)
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)

    def test_empty_records(self, tmp_path):
        from cfsubspace.experiment import ExperimentResult
        cfg = tiny_config(kinds=("pp", "ideal"))
        summary = write_results(ExperimentResult([], [], {}), tmp_path, cfg)
        assert read_csv(tmp_path / "rates.csv") == [["layout", "ue", "kind",
                                                     "rate", "se"]]
        null = {"mean_se": None, "median_se": None, "sum_se": None, "n_ues": 0}
        assert summary["kinds"] == {"pp": null, "ideal": null}
        assert summary["subspace"] is None
        for kind in cfg.kinds:
            assert read_csv(tmp_path / f"cdf_se_{kind}.csv") == [["value", "cdf"]]
        assert json.loads((tmp_path / "config.json").read_text())["kinds"] == \
            ["pp", "ideal"]

    @staticmethod
    def _snapshot(path):
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())}

    @pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()])
    def test_failed_write_keeps_previous_files(self, tmp_path, monkeypatch, error):
        cfg = tiny_config()
        write_results(run_experiment(cfg), tmp_path, cfg)
        before = self._snapshot(tmp_path)
        assert {"rates.csv", "subspace.csv", "summary.json"} <= set(before)
        new_cfg = tiny_config(seed=10)
        result = run_experiment(new_cfg)
        fmt, calls = experiment_mod._fmt, []

        def failing_fmt(value):     # rates.csv is the first file written
            calls.append(value)
            if len(calls) == 7:
                raise error
            return fmt(value)

        monkeypatch.setattr(experiment_mod, "_fmt", failing_fmt)
        with pytest.raises(type(error)):
            write_results(result, tmp_path, new_cfg)
        assert len(calls) == 7
        assert self._snapshot(tmp_path) == before   # no temporary file left either

        monkeypatch.setattr(experiment_mod, "_fmt", fmt)
        write_results(result, tmp_path, new_cfg)
        after = self._snapshot(tmp_path)
        assert set(after) == set(before) and after != before
        fresh = tmp_path / "fresh"
        write_results(result, fresh, new_cfg)
        assert self._snapshot(fresh) == after

    def test_second_run_leaves_only_its_own_files(self, tmp_path):
        out, fresh = tmp_path / "run", tmp_path / "fresh"
        first = tiny_config(kinds=("pp", "sp"))
        write_results(run_experiment(first), out, first)
        assert len(self._snapshot(out)) == 8     # CDFs of pp, sp and PE; config
        # files the package never writes are left alone, whatever their name
        others = {name: b"kept" for name in ("notes.txt", "cdf_se_x.csv", "rates.csv~")}
        for name, data in others.items():
            (out / name).write_bytes(data)
        second = tiny_config(kinds=("ideal",))
        result = run_experiment(second)
        write_results(result, out, second)
        write_results(result, fresh, second)
        expected = self._snapshot(fresh)
        assert set(expected) == {"rates.csv", "subspace.csv", "summary.json",
                                 "cdf_se_ideal.csv", "config.json"}
        assert self._snapshot(out) == {**expected, **others}

    @pytest.mark.parametrize("eta", [0.1, 30.0, 1e9])
    def test_csv_bytes_match_former_rows(self, tmp_path, eta):
        # all four kinds; eta=30 orphans some UEs (empty cells), eta=1e9
        # every UE, which leaves no edge
        cfg = tiny_config(K=8, eta=eta)
        result = run_experiment(cfg)
        orphans = sum(r.se is None for r in result.rate_records)
        assert (orphans > 0) == (eta > 1.0)
        assert (len(result.edge_records) == 0) == (eta > 100.0)
        write_results(result, tmp_path / "now", cfg)
        write_csv_rows_one_by_one(result, tmp_path / "former")
        former = self._snapshot(tmp_path / "former")
        assert len(former) == (8 if result.edge_records else 6)
        now = self._snapshot(tmp_path / "now")
        assert {name: now[name] for name in former} == former

    def test_excluded_ues_have_empty_cells(self, tmp_path):
        cfg = tiny_config(eta=1e6, kinds=("ideal",))  # impossible threshold
        result = run_experiment(cfg)
        write_results(result, tmp_path, cfg)
        rows = read_csv(tmp_path / "rates.csv")[1:]
        assert all(r[3] == "" and r[4] == "" for r in rows)


class TestCli:
    def test_run_and_outputs(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = cli_main(["--L", "3", "--M", "4", "--K", "5", "--N", "5",
                         "--tau-p", "3", "--area", "600", "--Q", "2",
                         "--layouts", "1", "--fading", "1", "--seed", "1",
                         "--kinds", "ideal,pm", "--out", str(out)])
        assert code == 0
        assert (out / "rates.csv").exists()
        assert "median SE" in capsys.readouterr().out

    def test_composite_n_fails_with_message(self, tmp_path, capsys):
        code = cli_main(["--N", "20", "--out", str(tmp_path)])
        assert code == 2
        assert "prime" in capsys.readouterr().err

    def test_unwritable_out_exits_before_the_run(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("a regular file")
        code = cli_main(["--L", "3", "--M", "4", "--K", "5", "--N", "5",
                         "--tau-p", "3", "--area", "600", "--layouts", "2",
                         "--fading", "1", "--out", str(afile / "sub")])
        assert code == 2
        captured = capsys.readouterr()
        assert "layout 1/" not in captured.out
        assert "cannot create output directory" in captured.err
        assert captured.err.count("\n") == 1

    def test_flag_overrides_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"N": 19}))
        code = cli_main(["--config", str(cfg_path), "--N", "20",
                         "--out", str(tmp_path / "x")])
        assert code == 2  # the override (invalid) took precedence

    @pytest.mark.parametrize("entry,key", [
        # the solver knobs are no config keys, in a solver section or not
        ({"bogus": 1}, "bogus"),
        ({"pathloss": {}}, "pathloss"),
        ({"solver": [1]}, "solver"),
        ({"pathloss": None}, "pathloss"),
        ({"strong_threshold": 1.0}, "strong_threshold"),
        ({"max_iter": 50, "adaptive_rho": True}, "adaptive_rho"),
        ({"T": "200"}, "T must be an integer"),
        ({"seed": True}, "seed"),
        ({"max_iter": "abc"}, "max_iter"),
        ({"natural_log": True}, "natural_log"),
        ({"kinds": ["ideal", "ideal"]}, "kinds"),
        ({"kinds": []}, "kinds"),
        ({"eta": float("nan")}, "eta"),
        ({"pathloss": ECHOED_PATHLOSS}, "pathloss"),
        ({"pathloss": {"ru_height_m": float("nan")}}, "pathloss"),
        ({"area_side": float("inf")}, "area_side"),
        ({"lam": float("inf")}, "lam"),
        ({"cell_radius": float("inf")}, "cell_radius"),
        ({"tol": float("inf")}, "tol"),
        ({"rho": float("inf")}, "rho"),
        ({"cell_radius": 0.001}, "cell_radius"),
        ({"cell_radius": 0.001, "area_side": 400.0}, "cell_radius"),
        ({"max_iter": 0}, "max_iter"),
        ({"tune_lambda": False}, "tune_lambda"),
        ({"cell_radius": None}, "cell_radius"),
        ({"solver": ECHOED_SOLVER}, "solver"),
        ({"area_side": 1e300}, "area_side"),
        ({"area_side": 1e-300}, "area_side"),
        ({"area_side": AREA_ABOVE}, "area_side"),
        ({"area_side": AREA_BELOW}, "area_side"),
    ])
    def test_bad_config_entry_exits_2(self, tmp_path, capsys, entry, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(entry))
        # reduced flags keep a run short should a bad entry ever get through;
        # --kinds and --area would override the entry's own kinds and area
        kinds = [] if "kinds" in entry else ["--kinds", "pp"]
        area = [] if "area_side" in entry else ["--area", "600"]
        code = cli_main(["--config", str(cfg_path), "--L", "3", "--M", "4",
                         "--K", "5", "--N", "5", "--tau-p", "3", *area,
                         "--layouts", "1", "--fading", "1", *kinds,
                         "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert key in err and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("area_side", [1e-100, 1e50])
    def test_area_side_bounds_run(self, tmp_path, area_side):
        # the run completes at both ends of the accepted range: at 1e-100 m
        # UEs are served, at 1e50 m none passes the association threshold
        out = tmp_path / "res"
        code = cli_main(["--L", "6", "--M", "4", "--K", "12", "--N", "5",
                         "--tau-p", "3", "--area", repr(area_side), "--layouts", "1",
                         "--fading", "2", "--seed", "7", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        edges = summary["diagnostics"]["layouts"][0]["edges"]
        assert (edges > 0) == (area_side < 1.0)
        for row in read_csv(out / "rates.csv")[1:]:
            assert row[4] == "" or 0.0 <= float(row[4]) < np.inf

    @pytest.mark.parametrize("flag", ["--tune-lambda", "--no-tune-lambda",
                                      "--cell-radius=300"])
    def test_removed_flag_exits_2(self, tmp_path, flag):
        with pytest.raises(SystemExit) as info:
            cli_main([flag, "--out", str(tmp_path / "x")])
        assert info.value.code == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text", ["[1, 2]", "5", '"x"', "null"])
    def test_non_object_config_exits_2(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        code = cli_main(["--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "must hold a JSON object" in err and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli_main(["--config", str(tmp_path / "absent.json")])
        assert code == 2
        assert "invalid configuration" in capsys.readouterr().err
