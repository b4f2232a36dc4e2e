"""Cell-free massive MIMO uplink simulator with Latin-square SRS hopping and
robust-PCA channel subspace estimation."""

from .channel import (NetworkChannelSampler, SupportTable, dft_columns, dft_matrix,
                      network_supports)
from .dmrs import dmrs_field, pilot_book, pm_estimate, sp_estimate
from .experiment import (ExperimentConfig, ExperimentResult, load_config,
                         run_experiment, stage_rng, write_results)
from .geometry import (AssociationGraph, Layout, assign_dmrs, calibrate_snr,
                       form_clusters, generate_layout, lsfc_matrix,
                       torus_distance)
from .hopping import (SrsSchedule, allocate_squares, build_schedule,
                      default_cell_radius, mols_family)
from .receiver import RateReport, cluster_combiner, ergodic_rates, uplink_sinr
from .rpca import (RpcaResult, SubspaceEstimate, collect_srs, dft_project,
                   outlier_pursuit, outlier_pursuit_tuned, power_efficiency,
                   select_rank, subspace_estimates)

__version__ = "0.1.0"
