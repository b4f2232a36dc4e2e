"""Checks on the files ``write_results`` produces, and their digest.

A layout fails when any of its rows breaks an invariant:

* a served UE has a finite, non-negative rate and SE in every kind;
* a UE without a serving cluster has empty rate and SE cells;
* every ``pe_raw``/``pe_pp`` lies in [0, 1];
* each (layout, UE, kind) row appears exactly once.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

DIGEST_FILES = ("rates.csv", "subspace.csv", "summary.json")


def output_digest(out_dir) -> str:
    """sha256 over rates.csv, subspace.csv and summary.json, in that order."""
    h = hashlib.sha256()
    for name in DIGEST_FILES:
        h.update(name.encode() + b"\0")
        h.update((Path(out_dir) / name).read_bytes())
    return h.hexdigest()


def output_bytes(out_dir) -> int:
    return sum(p.stat().st_size for p in Path(out_dir).iterdir() if p.is_file())


def _finite_nonneg(text) -> bool:
    try:
        value = float(text)
    except ValueError:
        return False
    return math.isfinite(value) and value >= 0.0


def check_outputs(out_dir, config) -> dict:
    """Problems found in one run's outputs, keyed by layout id."""
    out = Path(out_dir)
    problems = {}

    def flag(layout, text):
        problems.setdefault(layout, []).append(text)

    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    layouts = {d["layout"]: d for d in summary["diagnostics"]["layouts"]}
    for layout in range(config.n_layouts):
        if layout not in layouts:
            flag(layout, "missing from summary diagnostics")
    excluded = {i: set(d["excluded_ues"]) for i, d in layouts.items()}

    seen = {}
    with open(out / "rates.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            layout, ue = int(row["layout"]), int(row["ue"])
            key = (layout, ue, row["kind"])
            seen[key] = seen.get(key, 0) + 1
            if ue in excluded.get(layout, ()):
                if row["rate"] or row["se"]:
                    flag(layout, f"excluded UE {ue} has a {row['kind']} rate")
            elif not (_finite_nonneg(row["rate"]) and _finite_nonneg(row["se"])):
                flag(layout, f"UE {ue} {row['kind']}: rate {row['rate']!r} "
                             f"se {row['se']!r}")
    for layout in range(config.n_layouts):
        for ue in range(config.K):
            for kind in config.kinds:
                if seen.get((layout, ue, kind), 0) != 1:
                    flag(layout, f"UE {ue} {kind}: {seen.get((layout, ue, kind), 0)} rows")

    edges = {}
    with open(out / "subspace.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            layout = int(row["layout"])
            edges[layout] = edges.get(layout, 0) + 1
            for name in ("pe_raw", "pe_pp"):
                try:
                    pe = float(row[name])
                except ValueError:
                    pe = math.nan
                if not 0.0 <= pe <= 1.0:
                    flag(layout, f"edge ({row['ru']}, {row['ue']}) {name} = {row[name]!r}")
    if "pp" in config.kinds:
        for layout, diag in layouts.items():
            if edges.get(layout, 0) != diag["edges"]:
                flag(layout, f"{edges.get(layout, 0)} subspace rows for "
                             f"{diag['edges']} edges")
    return problems


def _rows_by_layout(path) -> dict:
    rows = {}
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if row and row[0] != "layout":
                rows.setdefault(row[0], []).append(row)
    return rows


def differing_layouts(dir_a, dir_b) -> list:
    """Layout ids whose rows differ between two output directories."""
    diff = set()
    for name in ("rates.csv", "subspace.csv"):
        a = _rows_by_layout(Path(dir_a) / name)
        b = _rows_by_layout(Path(dir_b) / name)
        diff |= {int(k) for k in set(a) | set(b) if a.get(k) != b.get(k)}
    return sorted(diff)
