"""Cell-free massive MIMO uplink simulator with Latin-square SRS hopping and
robust-PCA channel subspace estimation."""

from .channel import (AngularSupport, NetworkChannelSampler, angular_support,
                      dft_columns, dft_matrix, network_supports, sample_channel,
                      true_covariance)
from .dmrs import (contamination_covariance, dmrs_field, pilot_book, pm_estimate,
                   sp_estimate)
from .experiment import (EdgeRecord, ExperimentConfig, ExperimentResult,
                         RateRecord, load_config, run_experiment, stage_rng,
                         write_results)
from .geometry import (AssociationGraph, Layout, PathlossParams, assign_dmrs,
                       calibrate_snr, form_clusters, generate_layout,
                       lsfc_matrix, torus_distance)
from .hopping import (LatinSquare, SquareAssignment, SrsSchedule,
                      allocate_squares, are_orthogonal, build_schedule,
                      default_cell_radius, is_latin, mols_family,
                      schedule_to_csv)
from .receiver import (Combiner, RateReport, cluster_combiner, ergodic_rates,
                       local_lmmse, uplink_sinr)
from .rpca import (RpcaParams, RpcaResult, SubspaceEstimate, collect_srs,
                   dft_project, estimated_covariance, outlier_pursuit,
                   outlier_pursuit_tuned, power_efficiency, select_rank,
                   subspace_estimates)

__version__ = "0.1.0"
