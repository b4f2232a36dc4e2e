"""cfsubspace benchmark: end-to-end timings, output checks and a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload reduced-pp --seed 1 --seconds 45 --trace 0

Each workload is a closed loop: one process makes one ``run_experiment`` +
``write_results`` call at a time and checks the files it wrote. The seed
fixes a cycle of distinct inputs (master seeds ``seed * 1000 + i``); the loop
goes round the cycle, at least once, until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs a fixed set
of inputs once untraced and twice traced (see ``tracing.py``) and reports the
per-layer metrics; the two traced passes must give identical counters and
identical outputs to the untraced pass, and an input of two layouts must
give identical outputs on one and on two pool workers. The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` (layouts) and
``metrics``. Files go to ``.perfbench_out/`` under the repository root.
"""

import os

# Pinned before numpy loads, so two pool workers cannot oversubscribe two cores.
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED_THREADS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from outputs import check_outputs, differing_layouts, output_bytes, \
    output_digest  # noqa: E402
from speed import probe, rescale  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

REDUCED = dict(L=10, M=8, K=25, tau_p=5, N=29, lam=0.25, Q=10, eta=1.0, T=200,
               n_fading=1, kinds=["pp"])


@dataclasses.dataclass(frozen=True)
class Workload:
    config: dict      # ExperimentConfig fields shared by every input
    cycle: int        # distinct inputs per seed in a timed run
    traced: int       # inputs of a traced run, whatever --seconds is


# Why each workload exists, and the layers it isolates: perfbench/README.md.
WORKLOADS = {
    "reduced-pp": Workload(dict(REDUCED, n_layouts=1, workers=1), cycle=48,
                           traced=15),
    "paper-rates": Workload(dict(n_layouts=1, n_fading=4, workers=1,
                                 kinds=["ideal", "sp", "pm"]), cycle=4,
                            traced=9),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed by name on every run but left out of the JSON metrics: the times as
# measured move with the host's load, failed_frac is 0 on a correct run (the
# JSON carries it as failed/attempted), and each quality number exists only
# on workloads that run its estimator kind.
REPORTED = {"wall_raw_s": "s", "setup_raw_s": "s", "failed_frac": "ratio",
            "pe_raw_mean": "ratio", "pe_pp_mean": "ratio",
            "se_median_ideal": "bit/s/Hz", "se_median_sp": "bit/s/Hz",
            "se_median_pp": "bit/s/Hz", "se_median_pm": "bit/s/Hz"}
PER_LAYER = {
    "rpca.solve_busy_s": "s", "rpca.srs_busy_s": "s", "rpca.project_busy_s": "s",
    "rpca.edge_ms_p50": "ms", "rpca.edge_ms_p90": "ms",
    "rpca.solves_per_edge": "count", "rpca.admm_iters_per_edge": "count",
    "rpca.svd_calls_per_edge": "count", "rpca.converged_frac": "ratio",
    "rpca.rank_mean": "count",
    "channel.sample_busy_s": "s", "channel.sample_ms_per_draw": "ms",
    "channel.draws": "count", "channel.supports_busy_s": "s",
    "receiver.busy_s": "s", "receiver.self_s": "s", "receiver.ms_per_kind_draw": "ms",
    "receiver.combiner_calls": "count", "receiver.sinr_calls": "count",
    "dmrs.busy_s": "s", "dmrs.field_calls": "count",
    "hopping.busy_s": "s", "hopping.full_collision_pairs": "count",
    "hopping.squares_used": "count",
    "geometry.busy_s": "s", "geometry.edges": "count", "geometry.orphan_ues": "count",
    "experiment.self_s": "s", "experiment.write_s": "s",
    "experiment.output_bytes": "B", "trace.overhead_s": "s",
}

SETUP_CODE = """\
import json, sys, time
import cfsubspace
cfsubspace.load_config(None, json.loads(sys.argv[1]))
print(time.perf_counter(), cfsubspace.__file__)
"""


def input_configs(workload: Workload, seed: int, count: int) -> list:
    return [dict(workload.config, seed=seed * 1000 + i) for i in range(count)]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cfsubspace").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "git_commit": git_commit(),
            "source_sha256": source_digest(), "seed": seed,
            **{var: os.environ[var] for var in PINNED_THREADS}}


def measure_setup(kwargs: dict, repeats: int = 21) -> tuple:
    """Median time from spawning a fresh interpreter to a validated config,
    rescaled to reference speed and as measured (see ``speed.py``).

    One extra spawn first fills the bytecode cache and is not counted.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled, raw = [], []
    for i in range(repeats + 1):
        before = probe()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, json.dumps(kwargs)],
                              env=env, capture_output=True, text=True, timeout=60,
                              check=True)
        ready, module_file = proc.stdout.split(maxsplit=1)
        after = probe()
        if not Path(module_file.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported cfsubspace from {module_file.strip()}")
        if i:
            raw.append(float(ready) - start)
            scaled.append(rescale(raw[-1], before, after))
    return statistics.median(scaled), statistics.median(raw)


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


class DigestRecord:
    """Output digest per (program source, input), kept in the checkout so that
    every run of an input is compared with its first run. The worker count
    is left out of the key: outputs must not depend on it."""

    def __init__(self):
        self.path = OUT / "digests.json"
        self.source = source_digest()
        self.data = json.loads(self.path.read_text()) if self.path.is_file() else {}

    def check(self, kwargs: dict, digest: str) -> bool:
        key = dict(kwargs, workers=None, source=self.source)
        key = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()
        return self.data.setdefault(key, digest) == digest

    def save(self) -> None:
        self.path.write_text(json.dumps(self.data, indent=1, sort_keys=True))


@dataclasses.dataclass
class Outcome:
    wall: float = 0.0
    digest: str = ""
    result: object = None
    out_dir: Path = None


class Runner:
    """Runs inputs, checks their outputs and keeps the failure tally."""

    def __init__(self):
        from cfsubspace import ExperimentConfig, run_experiment, write_results
        self._make_config = ExperimentConfig
        self._run, self._write = run_experiment, write_results
        self.record = DigestRecord()
        self.attempted = 0
        self.failed = 0

    def run(self, index: int, kwargs: dict, out_dir: Path, tracer=None) -> Outcome:
        config = self._make_config(**kwargs)
        span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        outcome = Outcome(out_dir=out_dir)
        self.attempted += config.n_layouts
        try:
            start = time.perf_counter()
            with span("experiment.run_experiment"):
                result = self._run(config)
            with span("experiment.write_results"):
                self._write(result, out_dir, config)
            outcome.wall = time.perf_counter() - start
            outcome.result = result
        except Exception:  # a failing input is counted and the loop goes on
            print(f"input {index} (seed {config.seed}) raised:\n"
                  f"{traceback.format_exc()}", file=sys.stderr)
            self.failed += config.n_layouts
            return outcome
        problems = check_outputs(out_dir, config)
        for layout, texts in sorted(problems.items()):
            print(f"input {index} layout {layout}: {'; '.join(texts[:3])}",
                  file=sys.stderr)
        failed = len(problems)
        outcome.digest = output_digest(out_dir)
        if not self.record.check(kwargs, outcome.digest):
            print(f"input {index} (seed {config.seed}): output digest differs from "
                  f"an earlier run of the same input", file=sys.stderr)
            failed = config.n_layouts
        self.failed += failed
        return outcome


def quality(results: list) -> dict:
    """Mean PE over every edge and median SE per kind over every served UE."""
    edges = [e for r in results for e in r.edge_records]
    values = {}
    if edges:
        values["pe_raw_mean"] = float(np.mean([e.pe_raw for e in edges]))
        values["pe_pp_mean"] = float(np.mean([e.pe_pp for e in edges]))
    ses = {}
    for r in results:
        for rec in r.rate_records:
            if rec.se is not None:
                ses.setdefault(rec.kind, []).append(rec.se)
    for kind, vals in ses.items():
        values[f"se_median_{kind}"] = float(np.median(vals))
    return values


def timed_run(name: str, seed: int, seconds: int) -> tuple:
    """Round-robin over the seed's inputs until ``seconds`` have passed.

    wall_s is one pass over the inputs with each input at its median call,
    every call rescaled to reference speed by the probes run just before and
    after it (``speed.py``); wall_raw_s is the same pass as measured.
    """
    workload = WORKLOADS[name]
    inputs = input_configs(workload, seed, workload.cycle)
    setup_s, setup_raw_s = measure_setup(inputs[0])
    runner = Runner()
    out_dir = OUT / name / "timed"
    walls = [[] for _ in inputs]
    raw_walls = [[] for _ in inputs]
    first_cycle = []
    start = time.perf_counter()
    i = 0
    before = probe()
    while i < len(inputs) or time.perf_counter() - start < seconds:
        k = i % len(inputs)
        outcome = runner.run(k, inputs[k], out_dir)
        after = probe()
        if outcome.result is not None:
            walls[k].append(rescale(outcome.wall, before, after))
            raw_walls[k].append(outcome.wall)
            if i < len(inputs):
                first_cycle.append(outcome.result)
        before = after
        i += 1
    runner.record.save()

    def one_pass(per_input):
        return sum(statistics.median(w) for w in per_input if w)

    metrics = {"wall_s": one_pass(walls), "setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
    extra = {"wall_raw_s": one_pass(raw_walls), "setup_raw_s": setup_raw_s,
             "failed_frac": runner.failed / runner.attempted, **quality(first_cycle)}
    every = [w for ws in raw_walls for w in ws]
    print(f"{name}: {i} calls over {len(inputs)} inputs, median call "
          f"{statistics.median(every) if every else 0.0:.4f} s as measured, "
          f"{runner.attempted} layouts attempted, {runner.failed} failed")
    return runner, metrics, extra, {"calls": i, "walls": walls, "raw_walls": raw_walls}, True


def _pass(runner, inputs, tag, name, tracer=None) -> list:
    outcomes = []
    for i, kwargs in enumerate(inputs):
        out_dir = OUT / name / f"{tag}-{i}"
        outcomes.append(runner.run(i, kwargs, out_dir, tracer))
    return outcomes


def layer_metrics(tracer, outcomes) -> dict:
    from tracing import SOLVER_SPANS
    c = tracer.counts
    times = tracer.layer_times()
    busy, own = times["busy"], times["self"]

    def per(value, base):
        return value / base if base else 0.0

    edge_ms = tracer.edge_times_ms()
    sample_s = tracer.span_total("channel.sample")
    return {
        "rpca.solve_busy_s": tracer.span_total(*SOLVER_SPANS, outermost_of=SOLVER_SPANS),
        "rpca.srs_busy_s": tracer.span_total("rpca.collect_srs"),
        "rpca.project_busy_s": tracer.span_total("rpca.subspace_estimates",
                                                 "rpca.power_efficiency"),
        "rpca.edge_ms_p50": float(np.percentile(edge_ms, 50)) if edge_ms.size else 0.0,
        "rpca.edge_ms_p90": float(np.percentile(edge_ms, 90)) if edge_ms.size else 0.0,
        "rpca.solves_per_edge": per(c["rpca.solves"], c["rpca.edges"]),
        "rpca.admm_iters_per_edge": per(c["rpca.admm_iters"], c["rpca.edges"]),
        "rpca.svd_calls_per_edge": per(c["rpca.svd_calls"], c["rpca.edges"]),
        "rpca.converged_frac": per(sum(tracer.converged), len(tracer.converged)),
        "rpca.rank_mean": per(sum(tracer.ranks), len(tracer.ranks)),
        "channel.sample_busy_s": sample_s,
        "channel.sample_ms_per_draw": per(sample_s * 1e3, c["channel.draws"]),
        "channel.draws": c["channel.draws"],
        "channel.supports_busy_s": tracer.span_total("channel.network_supports"),
        "receiver.busy_s": busy.get("receiver", 0.0),
        "receiver.self_s": own.get("receiver", 0.0),
        "receiver.ms_per_kind_draw": per(own.get("receiver", 0.0) * 1e3,
                                         c["receiver.kind_draws"]),
        "receiver.combiner_calls": c["receiver.combiner_calls"],
        "receiver.sinr_calls": c["receiver.sinr_calls"],
        "dmrs.busy_s": busy.get("dmrs", 0.0),
        "dmrs.field_calls": c["dmrs.field_calls"],
        "hopping.busy_s": busy.get("hopping", 0.0),
        "hopping.full_collision_pairs": c["hopping.full_collision_pairs"],
        "hopping.squares_used": per(c["hopping.squares_used_total"],
                                    c["hopping.layouts"]),
        "geometry.busy_s": busy.get("geometry", 0.0),
        "geometry.edges": c["geometry.edges"],
        "geometry.orphan_ues": c["geometry.orphan_ues"],
        "experiment.self_s": own.get("experiment", 0.0),
        "experiment.write_s": tracer.span_total("experiment.write_results"),
        "experiment.output_bytes": sum(output_bytes(o.out_dir) for o in outcomes),
    }


def _report_mismatch(ref, other) -> None:
    bad = differing_layouts(ref.out_dir, other.out_dir)
    print(f"{other.out_dir.name} output differs from {ref.out_dir.name} in "
          f"layouts {bad or 'none (summary.json only)'}", file=sys.stderr)


def traced_run(name: str, seed: int, seconds: int) -> tuple:
    """Per-layer metrics of a fixed number of inputs; ``seconds`` is unused,
    so that the counters do not depend on the time budget."""
    from tracing import Tracer
    workload = WORKLOADS[name]
    inputs = [dict(kwargs, workers=1) for kwargs in
              input_configs(workload, seed, workload.traced)]
    runner = Runner()
    passes, tracers = [], []

    def traced_pass(tag):
        tracer = Tracer()
        with tracer.installed():
            passes.append(_pass(runner, inputs, tag, name, tracer))
        tracers.append(tracer)

    # Spans made in pool workers would be lost, so every pass runs on one
    # worker. The untraced pass sits between the traced ones, so that warm-up and
    # drift in machine speed do not all land on one side of trace.overhead_s.
    traced_pass("traced-a")
    plain = _pass(runner, inputs, "untraced", name)
    traced_pass("traced-b")
    for tag, tracer in zip("ab", tracers):
        tracer.dump(OUT / f"spans-{name}-seed{seed}-{tag}.json",
                    {"workload": name, "seed": seed})

    # Outputs must not depend on the worker count: the first input, with at
    # least two layouts, runs on two pool workers and on one.
    pair = dict(inputs[0], n_layouts=max(2, inputs[0]["n_layouts"]))
    on_two = runner.run(0, dict(pair, workers=2), OUT / name / "workers-2")
    on_one = runner.run(0, dict(pair, workers=1), OUT / name / "workers-1")
    runner.record.save()

    correct = True
    for ref, *others in [(on_two, on_one), *zip(plain, *passes)]:
        for other in others:
            if ref.digest and other.digest and ref.digest != other.digest:
                _report_mismatch(ref, other)
                correct = False
    a, b = tracers
    if (a.counts, a.converged, a.ranks) != (b.counts, b.converged, b.ranks):
        diff = {k: (a.counts[k], b.counts[k]) for k in a.counts
                if a.counts[k] != b.counts[k]}
        print(f"counters differ between traced passes: {diff}", file=sys.stderr)
        correct = False
    traced_walls = []
    for tracer, outcomes in zip(tracers, passes):
        wall = sum(o.wall for o in outcomes)
        traced_walls.append(wall)
        # The sum of self times equals the root spans' time, so this holds by
        # construction; the nesting check below is the one that can fail.
        if sum(tracer.self_times()) > wall + 1e-6:
            print(f"self times sum to {sum(tracer.self_times()):.6f} s, more than "
                  f"the traced wall time {wall:.6f} s", file=sys.stderr)
            correct = False
        bad = tracer.nesting_errors()
        if bad:
            print(f"{len(bad)} spans lie outside their parent, first "
                  f"{tracer.spans[bad[0]]}", file=sys.stderr)
            correct = False

    first, second = layer_metrics(a, passes[0]), layer_metrics(b, passes[1])
    metrics = {key: (value + second[key]) / 2.0 if PER_LAYER[key] in ("s", "ms")
               else value for key, value in first.items()}
    metrics["trace.overhead_s"] = statistics.mean(traced_walls) - \
        sum(o.wall for o in plain)
    wall = traced_walls[0]
    shares = {layer: t / wall for layer, t in sorted(a.layer_times()["busy"].items())
              if layer != "experiment"}
    for key in ("experiment.self_s", "rpca.solve_busy_s", "rpca.srs_busy_s",
                "receiver.self_s"):
        shares[key[:-2]] = first[key] / wall
    info = {"inputs": len(inputs), "traced_wall_s": traced_walls, "busy_share": shares,
            "counters": a.counts}
    print(f"{name}: traced {len(inputs)} input(s), wall {wall:.3f} s; busy share "
          + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    return runner, metrics, {}, info, correct


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "cfsubspace" / "__init__.py").is_file():
        print(f"perfbench: no cfsubspace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    OUT.mkdir(exist_ok=True)

    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    measure = traced_run if args.trace else timed_run
    runner, metrics, extra, info, correct = measure(args.workload, args.seed,
                                                    args.seconds)
    units = PER_LAYER if args.trace else END_TO_END
    correct = correct and runner.failed == 0
    for key, value in list(metrics.items()) + list(extra.items()):
        print(f"metric {key} = {value:.6g} {units.get(key) or REPORTED[key]}")
    for key in REPORTED:
        if not args.trace and key not in extra:
            print(f"metric {key} = n/a (workload does not run this kind)")
    line = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "info": info, "reported": extra,
                                  **line}, indent=1, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
