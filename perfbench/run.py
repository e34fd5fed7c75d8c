"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds `src/qmet`.  The load is a closed
loop with one client in this one single-threaded process: each point starts
when the previous one has finished.  The run draws its inputs from `--seed`,
times whole cycles of the workload's mix until `--seconds` would be exceeded
(at least one cycle), then checks every output outside the timed region.

Between timed blocks it runs a fixed NumPy reference loop (2x2 eigh plus the
matrix exponential built from it, no qmet code).  Its duration, `host.ref_s`,
tracks host speed; `points_per_ref` divides each block's time by the
reference duration measured around it, which cancels most host drift.

`setup_s` is the median of five fresh interpreters that each import qmet
and complete the workload's first point, each scaled by the start time of
bare interpreters measured around it (see `setup_seconds`).

`--trace 0` prints the end-to-end metrics of `spec.END_TO_END`.  `--trace 1`
first times untraced cycles for half the time, then installs the tracer and
times traced cycles for the other half; it prints the metrics of
`spec.per_layer()` and writes the spans and the full per-function table to
`perfbench/out/`.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# Pin the load before NumPy loads its BLAS: one thread, no qmet worker pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QMET_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spec  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 5
SETUP_BASE_S = 0.1  # bare-start time of the nominal host that setup_s is scaled to
BARE_START = "import time, numpy; print(repr(time.time()))"
REF_ITERS = 700  # one pass of the reference loop: about 10 ms
REF_EVERY_S = 0.1  # block time between two reference samples
REF_SHARE = 0.1  # a reference sample lasts this share of the block time it brackets
# Calls whose eigendecomposition count per call the traced run reports.
EIG_ROOTS = ("cli.cmd_gbound", "cli.cmd_qfi", "cem.g_bound", "phasesim.tune_tau",
             "cem.optimize_cem")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def make_reference():
    """The host reference loop.

    Returns sample(covering): the durations of at least three passes and
    of at least REF_SHARE * covering seconds of passes.
    """
    import numpy as np

    eigh = np.linalg.eigh  # bound before any tracer replaces it
    rng = np.random.default_rng(0)
    z = rng.normal(size=(8, 2, 2)) + 1j * rng.normal(size=(8, 2, 2))
    mats = [(m + m.conj().T) / 2.0 for m in z]

    def once() -> float:
        t0 = time.perf_counter()
        for i in range(REF_ITERS):
            ev, v = eigh(mats[i % 8])
            (v * np.exp(-1j * ev)) @ v.conj().T
        return time.perf_counter() - t0

    def sample(covering: float = 0.0) -> list[float]:
        passes = [once() for _ in range(3)]
        while sum(passes) < REF_SHARE * covering:
            passes.append(once())
        return passes

    return sample


def fresh_interpreter(args: list[str]) -> float:
    """Seconds from starting a fresh interpreter until it prints `time.time()`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.time()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"fresh interpreter {args} failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time: a fresh interpreter imports qmet and completes a first point.

    Each probe runs between two bare interpreters that only import NumPy.
    Returns (setup_s, raw): the median probe time scaled to a host on which
    the bare start takes SETUP_BASE_S, and the median raw probe time.  The
    scaling cancels host speed drift, which moves raw start-up times by a
    third between runs minutes apart.
    """
    bare = fresh_interpreter(["-c", BARE_START])
    scaled, raw = [], []
    for rep in range(SETUP_REPS):
        probe = fresh_interpreter([str(HERE / "first_point.py"), workload, str(seed + rep),
                                   str(OUT)])
        after = fresh_interpreter(["-c", BARE_START])
        raw.append(probe)
        scaled.append(probe * SETUP_BASE_S / ((bare + after) / 2.0))
        bare = after
    return statistics.median(scaled), statistics.median(raw)


def measure(workload, seconds: float, ref, next_point: int, tracer=None):
    """Time whole cycles until the next one would end after `seconds`.

    Each block's `ref_s` is the mean reference pass of the two samples
    taken around it.  Returns (cycles, every reference pass).
    """
    refs = [ref()]
    cycles = []
    since_ref = 0.0
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        blocks = workload.cycle()
        for block in blocks:
            block.ref_index = len(refs) - 1
            block.point_id = next_point
            next_point += 1
            if tracer is not None:
                tracer.point = block.point_id
            t0 = time.perf_counter()
            try:
                block.result = block.call()
            except Exception as exc:  # a failed point is counted; the run goes on
                block.error = f"{type(exc).__name__}: {exc}"
            block.seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.point = -1
            if block.error is None:
                workload.collect(block)
            since_ref += block.seconds
            if since_ref >= REF_EVERY_S:
                refs.append(ref(since_ref))
                since_ref = 0.0
        cycles.append(blocks)
        now = time.perf_counter()
        if (now - start) + (now - cycle_start) > seconds:
            break
    if since_ref > 0.0:
        refs.append(ref(since_ref))
    for blocks in cycles:
        for block in blocks:
            block.ref_s = statistics.fmean(refs[block.ref_index] + refs[block.ref_index + 1])
    return cycles, [p for sample in refs for p in sample]


def rates(cycles) -> tuple[float, float]:
    """Completed points per second and per reference time, over all timed blocks.

    A ratio of sums over whole cycles: with each block already divided by
    its own reference, this spread less from run to run than a median of
    per-cycle rates did.
    """
    blocks = [b for c in cycles for b in c]
    points = sum(b.points for b in blocks if b.error is None)
    return (points / sum(b.seconds for b in blocks),
            points / sum(b.seconds / b.ref_s for b in blocks))


def run_checks(workload, blocks) -> tuple[int, int]:
    """Correctness checks outside the timed region; returns (attempted, failed)."""
    workload.final_checks(blocks)
    for block in blocks:
        if block.error is not None:
            block.failed = block.points
        elif not block.failed:
            try:
                block.failed = workload.check(block)
            except Exception as exc:  # a check that cannot run fails its points
                block.error = f"check {type(exc).__name__}: {exc}"
                block.failed = block.points
    return sum(b.points for b in blocks), sum(b.failed for b in blocks)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "qmet").glob("*.py")))


def with_units(values: dict, declared: list[dict]) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def layer_values(tracer, points: int) -> tuple[dict, dict]:
    """The declared per-layer values from the spans, and the full per-function table."""
    table = tracer.summary(points)
    values = {f"{fn}.{suffix}": table.get(fn, {}).get(suffix, 0.0)
              for fn in spec.LAYER_FUNCTIONS for suffix, _ in spec.FUNCTION_METRICS}
    eigh, eigvalsh = table["numpy.eigh"], table["numpy.eigvalsh"]
    values.update({
        "numpy.eigh.calls": eigh["calls"],
        "numpy.eigh.matrices": eigh["matrices"],
        "numpy.eigh.matrices_per_call": eigh["matrices"] / eigh["calls"] if eigh["calls"] else 0.0,
        "numpy.eigh.self_s": eigh["self_s"],
        "numpy.eigvalsh.calls": eigvalsh["calls"],
        "numpy.eigvalsh.matrices": eigvalsh["matrices"],
    })
    return values, table


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qmet" / "__init__.py").is_file():
        print(f"perfbench: no qmet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    lines = src_lines()
    ref = make_reference()
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "src_lines": lines}

    setup = None if args.trace else setup_seconds(args.workload, args.seed)
    workload.first_point().call()  # warm-up, untimed

    if not args.trace:
        cycles, refs = measure(workload, args.seconds, ref, next_point=0)
        per_s, per_ref = rates(cycles)
        values = {"points_per_ref": per_ref, "setup_s": setup[0],
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics = with_units(values, spec.END_TO_END)
    else:
        from tracer import Tracer

        plain, plain_refs = measure(workload, args.seconds / 2.0, ref, next_point=0)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_refs = measure(workload, args.seconds / 2.0, ref,
                                          next_point=sum(len(c) for c in plain), tracer=tracer)
        finally:
            tracer.uninstall()
        cycles, refs = plain + traced, plain_refs + traced_refs
        per_s, plain_per_ref = rates(plain)
        points = sum(b.points for c in traced for b in c if b.error is None)
        values, report["functions"] = layer_values(tracer, points)
        values.update({"points": points, "points_per_s": per_s,
                       "trace.overhead_ratio": plain_per_ref / rates(traced)[1],
                       "host.ref_s": statistics.median(plain_refs + traced_refs),
                       "src_lines": lines})
        metrics = with_units(values, spec.per_layer())
        report["eig_per_point"] = {}
        for b in traced[0]:
            report["eig_per_point"].setdefault(b.kind, []).append(
                tracer.eig_in_point(b.point_id) / b.points)
        report["eig_per_call"] = {name: tracer.eig_per_call(name) for name in EIG_ROOTS
                                  if report["functions"].get(name, {}).get("calls")}
        tracer.save(OUT / f"spans-{args.workload}-{args.seed}.npz")

    blocks = [b for c in cycles for b in c]
    attempted, failed = run_checks(workload, blocks)
    # Printed on every run beside the metrics; not gated.
    reported = {"fail_ratio": (failed / attempted, "failed/attempted"),
                "points_per_s": (per_s, "points/s"),
                "host.ref_s": (statistics.median(refs), "s"),
                "src_lines": (lines, "count")}
    if setup is not None:
        reported["setup_raw_s"] = (setup[1], "s")
    report.update({
        "cycles": len(cycles), "attempted": attempted, "failed": failed,
        **{name: value for name, (value, _) in reported.items()},
        "refs": refs, "metrics": metrics,
        "blocks": [{"kind": b.kind, "points": b.points, "seconds": b.seconds,
                    "ref_s": b.ref_s, "failed": b.failed, "error": b.error}
                   for b in blocks],
    })
    (OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {len(cycles)} cycles, "
          f"{attempted} points, {failed} failed")
    for block in blocks:
        if block.error is not None or block.failed:
            print(f"FAILED {block.kind}: {block.failed}/{block.points} points, "
                  f"{block.error or 'missed its check'}")
    for name, (value, unit) in reported.items():
        if name not in metrics:
            print(f"{name} {value:.6g} {unit}")
    for kind, counts in report.get("eig_per_point", {}).items():
        print(f"eigendecompositions per point, {kind}: {' '.join(f'{c:g}' for c in counts)}")
    for name, count in report.get("eig_per_call", {}).items():
        print(f"eigendecompositions per call, {name}: {count:g}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
