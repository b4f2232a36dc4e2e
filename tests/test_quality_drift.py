"""Quality drift gate on the two SRS-collider sets.

Each set is 8 one-layout inputs (master seeds 3000-3007) of a reduced
network, L=10, M=8, tau_p=5, 20 fading draws, all four estimator kinds. Its
mean pe_raw and pe_pp over every edge, and its median SE per kind over every
served UE, must stay within 0.005 and 0.5 % of the committed reference: the
gate every behaviour change of the solver has been judged by. A change that
means to move these numbers updates the reference and states the numbers
before and after in CHANGES.md.
"""

import numpy as np
import pytest

from cfsubspace.experiment import ExperimentConfig, run_experiment

PE_SLACK = 0.005
SE_SLACK = 0.005        # relative

# mean pe_raw, mean pe_pp, median SE (bit/s/Hz) per kind
REFERENCE = {
    (40, 7): dict(pe_raw=0.61838, pe_pp=0.72708,
                  se=dict(ideal=2.51701, sp=2.46245, pp=2.23226, pm=1.34528)),
    (50, 11): dict(pe_raw=0.70905, pe_pp=0.85149,
                   se=dict(ideal=2.20425, sp=2.16892, pp=2.05586, pm=1.10777)),
}


def gate_set(K, N):
    """Edge records, served SEs per kind, and the count of solves left
    unconverged over the 8 inputs of one collider set."""
    edges, ses, not_converged = [], {}, 0
    for seed in range(3000, 3008):
        result = run_experiment(ExperimentConfig(L=10, M=8, K=K, tau_p=5, N=N,
                                                 n_layouts=1, n_fading=20, seed=seed))
        edges += result.edge_records
        not_converged += sum(d["rpca_not_converged"]
                             for d in result.diagnostics["layouts"])
        for rec in result.rate_records:
            if rec.se is not None:
                ses.setdefault(rec.kind, []).append(rec.se)
    return edges, ses, not_converged


@pytest.mark.parametrize("K,N", sorted(REFERENCE))
def test_collider_set_within_gate(K, N):
    edges, ses, not_converged = gate_set(K, N)
    reference = REFERENCE[K, N]
    measured = dict(pe_raw=np.mean([e.pe_raw for e in edges]),
                    pe_pp=np.mean([e.pe_pp for e in edges]),
                    se={kind: np.median(v) for kind, v in ses.items()})
    report = f"K={K}/N={N}: measured {measured}, reference {reference}"
    assert not_converged == 0, report
    for name in ("pe_raw", "pe_pp"):
        assert abs(measured[name] - reference[name]) <= PE_SLACK, report
    assert measured["se"].keys() == reference["se"].keys(), report
    for kind, se in reference["se"].items():
        assert abs(measured["se"][kind] - se) <= SE_SLACK * se, report
