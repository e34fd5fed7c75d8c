"""What the benchmark measures: workloads, metrics, bounds and the layer table.

This module is the single source of `BENCHMARK.json`; regenerate that file
after editing anything here with

    python3 perfbench/spec.py

`LAYER_TABLE` states, before any optimisation is written, which per-layer
metric should move which end-to-end metric on which workload, and on which
workload it should not move.  Later changes cite the names below verbatim.

Load model: a closed loop with one client in one single-threaded process.
Each point starts when the previous one has finished.

Not gated, but printed on every run: `points_per_s` (raw wall throughput
drifts 20-40% between runs minutes apart on a shared 2-CPU host, beyond the
largest bound a gated metric may have; `points_per_ref` is its drift-corrected
form) and `fail_ratio` (zero on a healthy run, and a gated metric may never
be 0; the result line's `attempted`/`failed` carry it).
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 20

WORKLOADS = [
    {
        "name": "sweep",
        "why": "CLI gbound and qfi on qubit-direction and nv-spin1 plus jc (d = 18), "
               "all writing CSV: many cheap points bound by call overhead; jc keeps "
               "18x18 matrices at about a quarter of the time",
    },
    {
        "name": "readout",
        "why": "g_bound, tune_tau and ideal plus realistic fisher_phase_readout at n = 6 "
               "and 10, m = 3: phasesim dominates, with thousands of decompositions "
               "at repeated stencil nodes",
    },
    {
        "name": "optimize",
        "why": "optimize_cem at budget (8, 400) on three probe models: about 51k "
               "expm_unitary calls per point on fixed tiny matrices; bypasses "
               "Richardson numdiff and phasesim",
    },
]

END_TO_END = [
    {"name": "points_per_ref", "unit": "points/ref", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
]

# Functions whose five per-layer metrics the traced run prints.  The traced run
# measures every public qmet function and writes the full table next to the
# spans; this list keeps the ones an optimisation is most likely to move.
LAYER_FUNCTIONS = [
    "cli.main",
    "cli.map_grid",
    "cli.write_records",
    "cem.g_bound",
    "cem.generator_pair",
    "cem.local_generator",
    "cem.diagonalizer",
    "cem.optimize_cem",
    "numdiff.derivative",
    "fisher.classical_fisher",
    "fisher.qfi",
    "fisher.sld",
    "linalg.eig_hermitian",
    "linalg.expm_unitary",
    "linalg.spectral_gap",
    "linalg.require_hermitian",
    "models.h_of",
    "models.u_of",
    "phasesim.tune_tau",
    "phasesim.fisher_phase_readout",
    "phasesim.realistic_distribution",
    "phasesim.ideal_distribution",
    "phasesim.energy_probs",
]

# Per-function metrics, all better lower.  Counts and self time are per
# point; latencies are the inclusive duration of one call.
FUNCTION_METRICS = [
    ("calls", "calls/point"),
    ("self_s", "s/point"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("failed", "calls/point"),
]

EXTRA_LAYER_METRICS = [
    {"name": "points", "unit": "count", "better": "higher"},
    {"name": "points_per_s", "unit": "points/s", "better": "higher"},
    {"name": "numpy.eigh.calls", "unit": "calls/point", "better": "lower"},
    {"name": "numpy.eigh.matrices", "unit": "matrices/point", "better": "lower"},
    {"name": "numpy.eigh.matrices_per_call", "unit": "matrices/call", "better": "higher"},
    {"name": "numpy.eigh.self_s", "unit": "s/point", "better": "lower"},
    {"name": "numpy.eigvalsh.calls", "unit": "calls/point", "better": "lower"},
    {"name": "numpy.eigvalsh.matrices", "unit": "matrices/point", "better": "lower"},
    {"name": "trace.overhead_ratio", "unit": "ratio", "better": "lower"},
    {"name": "host.ref_s", "unit": "s", "better": "lower"},
    {"name": "src_lines", "unit": "count", "better": "lower"},
]



def per_layer() -> list[dict]:
    rows = [{"name": f"{fn}.{suffix}", "unit": unit, "better": "lower"}
            for fn in LAYER_FUNCTIONS for suffix, unit in FUNCTION_METRICS]
    return rows + EXTRA_LAYER_METRICS


# Which layer metric should move which end-to-end metric, on which workload,
# and where the prediction is no change.  With nothing contending, a faster
# layer saves at most its share of self time on the blocking path: g_bound is
# under 0.1% of an optimize point, so analytic derivatives cannot move it.
LAYER_TABLE = [
    {"layer_metrics": ["numpy.eigh.matrices", "numdiff.derivative.calls",
                       "cem.generator_pair.calls"],
     "moves": ["points_per_ref"], "on": ["sweep"], "no_change_on": ["optimize"]},
    {"layer_metrics": ["phasesim.tune_tau.self_s", "phasesim.realistic_distribution.calls",
                       "models.h_of.calls"],
     "moves": ["points_per_ref"], "on": ["readout"], "no_change_on": ["sweep"]},
    {"layer_metrics": ["linalg.expm_unitary.calls", "cem.optimize_cem.self_s"],
     "moves": ["points_per_ref"], "on": ["optimize"], "no_change_on": ["sweep", "readout"]},
    {"layer_metrics": ["cli.map_grid.self_s", "cli.write_records.self_s",
                       "numpy.eigh.matrices_per_call"],
     "moves": ["points_per_ref", "peak_rss_mb"], "on": ["sweep"], "no_change_on": ["readout"]},
    {"layer_metrics": ["fisher.classical_fisher.*", "fisher.qfi.*", "linalg.eig_hermitian.*"],
     "moves": ["points_per_ref"], "on": ["sweep"], "no_change_on": ["optimize"]},
    {"layer_metrics": ["trace.overhead_ratio"],
     "moves": [], "on": ["sweep", "readout", "optimize"], "no_change_on": []},
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": per_layer(),
    }


if __name__ == "__main__":
    target = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
    target.write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {target.name}: {len(per_layer())} per-layer metrics")
