import types

import cfsubspace


def test_public_names():
    names = {name for name, value in vars(cfsubspace).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == {
        # channel
        "NetworkChannelSampler", "SupportTable", "dft_columns", "dft_matrix",
        "network_supports",
        # dmrs
        "dmrs_field", "pilot_book", "pm_estimate", "sp_estimate",
        # experiment
        "ExperimentConfig", "ExperimentResult", "load_config", "run_experiment",
        "stage_rng", "write_results",
        # geometry
        "AssociationGraph", "Layout", "assign_dmrs", "calibrate_snr",
        "form_clusters", "generate_layout", "lsfc_matrix", "torus_distance",
        # hopping
        "SrsSchedule", "allocate_squares", "build_schedule", "default_cell_radius",
        "mols_family",
        # receiver
        "RateReport", "cluster_combiner", "ergodic_rates", "uplink_sinr",
        # rpca
        "RpcaParams", "RpcaResult", "SubspaceEstimate", "collect_srs",
        "dft_project", "outlier_pursuit", "outlier_pursuit_tuned",
        "power_efficiency", "select_rank", "subspace_estimates",
    }
    assert len(names) == 42
