import concurrent.futures
import csv
import json
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
from cfsubspace.geometry import PathlossParams
from cfsubspace.rpca import RpcaParams, SubspaceEstimate, power_efficiency


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

    def test_nested_sections_from_dicts(self):
        cfg = config_from_dict({"solver": {"max_iter": 50},
                                "pathloss": {"shadowing_std_db": 4.0}})
        assert cfg.solver == RpcaParams(max_iter=50)
        assert cfg.pathloss == PathlossParams(shadowing_std_db=4.0)

    @pytest.mark.parametrize("entry,message", [
        ({"L": "5"}, "L must be an integer"),
        ({"L": 5.5}, "L must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"lam": "0.25"}, "lam must be a number"),
        ({"delta": None}, "delta must be a number"),
        ({"S": 2.0}, "S must be an integer"),
        ({"cell_radius": 0}, "cell_radius must be positive"),
        ({"lam": True}, "lam must be a number"),
        ({"kinds": "pp"}, "kinds must be a list"),
        ({"output_dir": 3}, "output_dir must be a string"),
        ({"solver": {"max_iter": "abc"}}, "'solver': max_iter must be an integer"),
        ({"solver": {"max_iter": 0}}, "config section 'solver': max_iter must be >= 1"),
        ({"solver": {"tol": 0.0}}, "'solver': tol must be positive"),
        ({"solver": {"rho": -1}}, "'solver': rho must be positive"),
        ({"pathloss": {"los_offset": "32"}}, "'pathloss': los_offset must be a number"),
        ({"pathloss": {"shadowing_std_db": -2.0}}, "shadowing_std_db must be >= 0"),
        ({"kinds": ["ideal", "ideal"]}, "kinds must not repeat a kind"),
        ({"kinds": []}, "kinds must name at least one"),
        ({"eta": float("nan")}, "eta must be finite and >= 0"),
        ({"eta": -1.0}, "eta must be finite and >= 0"),
        ({"pathloss": {"carrier_freq_ghz": float("nan")}}, "carrier_freq_ghz must be finite"),
        ({"pathloss": {"ru_height_m": float("nan")}}, "ru_height_m must be finite"),
        ({"pathloss": {"los_offset": float("inf")}}, "los_offset must be finite"),
        ({"area_side": float("inf")}, "area_side must be positive and finite"),
        ({"lam": float("inf")}, "lam must be positive and finite"),
        ({"cell_radius": float("inf")}, "cell_radius must be positive and finite"),
        ({"solver": {"tol": float("inf")}}, "'solver': tol must be positive and finite"),
        ({"solver": {"rho": float("inf")}}, "'solver': rho must be positive and finite"),
        ({"cell_radius": 0.001, "area_side": 400.0}, "hex cells on a 400 m side"),
        ({"cell_radius": 1e-310}, "gives inf hex cells"),
        ({"K": 10000, "N": 2}, "K x cells = 5.02e[+]07 must not exceed 1e[+]07"),
    ])
    def test_wrong_type_or_range_rejected(self, entry, message):
        with pytest.raises(ValueError, match=message):
            config_from_dict(entry)

    def test_cell_count_checked_only_when_pp_runs(self):
        # without pp no hopping schedule, and so no hex grid, is built
        cfg = config_from_dict({"cell_radius": 0.001, "kinds": ["ideal", "sp"]})
        assert cfg.cell_radius == 0.001

    def test_numbers_of_any_kind_accepted(self):
        cfg = config_from_dict({"eta": 1, "area_side": 600, "seed": np.int64(3),
                                "lam": np.float64(0.3), "kinds": ["ideal"],
                                "solver": {"tol": 1e-5, "rho": 2}})
        assert (cfg.eta, cfg.area_side, cfg.seed, cfg.kinds) == \
            (1, 600, 3, ("ideal",))
        assert cfg.solver == RpcaParams(tol=1e-5, rho=2)

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
        cfg = tiny_config(kinds=("ideal",))
        write_results(run_experiment(cfg), tmp_path, cfg)
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
                                                        (3, 2, 2)])
    def test_pool_never_outnumbers_the_layouts(self, monkeypatch, n_layouts,
                                               workers, pool):
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
        # per edge, the rank-zero screen takes one SVD and every ADMM step
        # one; the ranks and the subspace estimates reuse the last step's
        edges = []          # per edge: [SVDs, ADMM steps, solves, open]
        svd, solve = np.linalg.svd, rpca_mod.outlier_pursuit
        collect, estimates = experiment_mod.collect_srs, experiment_mod.subspace_estimates

        def counted_svd(*args, **kwargs):
            if edges and edges[-1][3]:
                edges[-1][0] += 1
            return svd(*args, **kwargs)

        def opening_collect(*args, **kwargs):
            edges.append([0, 0, 0, True])
            return collect(*args, **kwargs)

        def counted_solve(*args, **kwargs):
            result = solve(*args, **kwargs)
            edges[-1][1] += result.iterations
            edges[-1][2] += 1
            return result

        def closing_estimates(*args, **kwargs):
            result = estimates(*args, **kwargs)
            edges[-1][3] = False
            return result

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(experiment_mod, "collect_srs", opening_collect)
        monkeypatch.setattr(rpca_mod, "outlier_pursuit", counted_solve)
        monkeypatch.setattr(experiment_mod, "subspace_estimates", closing_estimates)
        # reduced networks: K = 40 UEs on N = 7 squares collide, and the
        # noise-only K = 25, N = 29 edges retune lambda
        for K, N in [(40, 7), (25, 29)]:
            edges.clear()
            cfg = ExperimentConfig(L=10, M=8, K=K, tau_p=5, N=N, n_layouts=1,
                                   n_fading=1, seed=3, kinds=("pp",))
            result = run_experiment(cfg)
            assert len(edges) == len(result.edge_records) > 0
            assert [svds for svds, *_ in edges] == \
                [1 + steps for _, steps, *_ in edges]
        # so some edges' steps span several solves
        assert sum(solves for _, _, solves, _ in edges) > len(edges)

    @pytest.mark.parametrize("K,N", [(25, 29), (40, 7)])
    def test_default_tol_takes_fewer_steps(self, K, N):
        # the last solve of an edge takes at most 0.7 times the ADMM steps it
        # took at the former default tolerance 1e-6, and still converges
        steps = []
        for solver in (RpcaParams(), RpcaParams(tol=1e-6)):
            cfg = ExperimentConfig(L=10, M=8, K=K, tau_p=5, N=N, n_layouts=1,
                                   n_fading=1, seed=3, kinds=("pp",),
                                   solver=solver)
            edges = run_experiment(cfg).edge_records
            assert edges and all(e.converged for e in edges)
            steps.append(np.mean([e.iterations for e in edges]))
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

        def failing(Y, lam, params=None):
            # the third edge of layout 0 fails; layout 1, which a second pool
            # worker runs at the same time, does not
            if np.array_equal(Y, observed[2]):
                raise FloatingPointError("boom")
            return solve(Y, lam, params)

        monkeypatch.setattr(experiment_mod, "outlier_pursuit_tuned", failing)
        with pytest.raises(RuntimeError) as info:
            run_experiment(tiny_config(kinds=("pp",), n_layouts=2, workers=workers))
        edge = (edges[2].ru, edges[2].ue)
        assert str(info.value) == (f"layout 0 (master seed 9, rpca edge {edge}) "
                                   f"failed: FloatingPointError: boom")
        assert info.value.__cause__ is not None

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
        summary = write_results(ExperimentResult([], [], {}), tmp_path)
        assert read_csv(tmp_path / "rates.csv") == [["layout", "ue", "kind",
                                                     "rate", "se"]]
        assert summary["kinds"] == {} and summary["subspace"] is None

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
        result = run_experiment(tiny_config(kinds=("ideal",)))
        write_results(result, out)
        write_results(result, fresh)
        expected = self._snapshot(fresh)
        assert set(expected) == {"rates.csv", "subspace.csv", "summary.json",
                                 "cdf_se_ideal.csv"}
        assert self._snapshot(out) == {**expected, **others}

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

    def test_flag_overrides_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"N": 19}))
        code = cli_main(["--config", str(cfg_path), "--N", "20",
                         "--out", str(tmp_path / "x")])
        assert code == 2  # the override (invalid) took precedence

    @pytest.mark.parametrize("entry,key", [
        ({"solver": {"bogus": 1}}, "bogus"),
        ({"pathloss": {"bogus": 1}}, "bogus"),
        ({"solver": [1]}, "solver"),
        ({"pathloss": None}, "pathloss"),
        ({"strong_threshold": 1.0}, "strong_threshold"),
        ({"solver": {"max_iter": 50, "adaptive_rho": True}}, "adaptive_rho"),
        ({"T": "200"}, "T must be an integer"),
        ({"seed": True}, "seed"),
        ({"solver": {"max_iter": "abc"}}, "max_iter"),
        ({"natural_log": True}, "natural_log"),
        ({"kinds": ["ideal", "ideal"]}, "kinds"),
        ({"kinds": []}, "kinds"),
        ({"eta": float("nan")}, "eta"),
        ({"pathloss": {"carrier_freq_ghz": float("nan")}}, "carrier_freq_ghz"),
        ({"pathloss": {"ru_height_m": float("nan")}}, "ru_height_m"),
        ({"area_side": float("inf")}, "area_side"),
        ({"lam": float("inf")}, "lam"),
        ({"cell_radius": float("inf")}, "cell_radius"),
        ({"solver": {"tol": float("inf")}}, "tol"),
        ({"solver": {"rho": float("inf")}}, "rho"),
        ({"cell_radius": 0.001}, "cell_radius"),
        ({"cell_radius": 0.001, "area_side": 400.0}, "cell_radius"),
        ({"solver": {"max_iter": 0}}, "max_iter"),
        ({"tune_lambda": False}, "tune_lambda"),
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

    @pytest.mark.parametrize("flag", ["--tune-lambda", "--no-tune-lambda"])
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
