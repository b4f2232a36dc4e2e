import csv
import json

import numpy as np
import pytest

from cfsubspace.cli import main as cli_main
from cfsubspace.experiment import (ExperimentConfig, config_from_dict,
                                   load_config, run_experiment, stage_rng,
                                   write_results)
from cfsubspace.geometry import PathlossParams
from cfsubspace.rpca import RpcaParams


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

    def test_load_config_precedence(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"N": 19, "K": 30}))
        cfg = load_config(path, {"N": 61, "seed": None})
        assert cfg.N == 61      # flag wins
        assert cfg.K == 30      # file value kept
        assert cfg.seed == 0    # None override ignored, default used

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

    def test_parallel_progress_lines(self, capsys):
        settings = dict(kinds=("ideal",), n_layouts=3)
        run_experiment(tiny_config(**settings), progress=True)
        serial = capsys.readouterr().out.splitlines()
        run_experiment(tiny_config(workers=2, **settings), progress=True)
        parallel = capsys.readouterr().out.splitlines()
        assert [line.split(" done")[0] for line in serial] == \
            ["layout 1/3", "layout 2/3", "layout 3/3"]
        assert sorted(parallel) == serial


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
    ])
    def test_bad_config_entry_exits_2(self, tmp_path, capsys, entry, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(entry))
        # reduced flags keep a run short should a bad entry ever get through
        code = cli_main(["--config", str(cfg_path), "--L", "3", "--M", "4",
                         "--K", "5", "--N", "5", "--tau-p", "3", "--area", "600",
                         "--layouts", "1", "--fading", "1", "--kinds", "pp",
                         "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert key in err and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli_main(["--config", str(tmp_path / "absent.json")])
        assert code == 2
        assert "invalid configuration" in capsys.readouterr().err
