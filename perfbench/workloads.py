"""The benchmark's workloads: inputs drawn from the seed, points, and checks.

A workload hands out cycles.  A cycle is a fixed mix of blocks (one CLI
invocation or one library point each), so every cycle does the same kinds
of work and whole cycles give per-point ratios that repeat exactly wherever
qmet's call counts do not depend on the inputs.  Only
`Block.call` is timed; `Block.collect` and `Workload.check` run outside the
timed region.  qmet receives only the generated inputs, and every qmet name
is looked up at call time so that a tracer installed later sees the call.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import qmet

NV_PARAMS = (1.0, 1.44 * math.pi, 5e-5 * math.pi)  # mu, D, E: the CLI's nv-spin1 defaults

# (theta range, t range) per model: the ranges the acceptance tests validate.
RANGES = {
    "qubit-direction": ((0.2, math.pi - 0.2), (0.1, 2.0 * math.pi)),
    "qubit-xcomponent": ((0.3, 2.5), (0.3, 3.0)),
    "nv-spin1": ((0.05, 2.0), (0.3, 3.0)),
    "jaynes-cummings": ((0.2, 2.0), (0.5, 8.0)),
}

# Acceptance tolerances, relative to max(|reference|, 1).
G_TOL = {"qubit-direction": 1e-6, "nv-spin1": 1e-5}
QFI_TOL = 1e-5
JC_TOL = 1e-6  # on |fc_sim - fc_ref| / (1 + |fc_ref|)
READOUT_MIN_RATIO = 0.8  # realistic / G on qubit-direction
ORACLE_TV = 1e-8
OPT_REL_GAP = 1e-2


def make_model(name: str) -> qmet.HamiltonianModel:
    if name == "qubit-direction":
        return qmet.make_qubit_direction(1.0)
    if name == "qubit-xcomponent":
        return qmet.make_qubit_xcomponent(1.0)
    if name == "nv-spin1":
        return qmet.make_nv_spin1(*NV_PARAMS)
    raise ValueError(f"no benchmark model {name!r}")


@dataclass
class Block:
    """One timed unit of work: `points` grid points behind one call."""

    kind: str
    points: int
    call: Callable[[], object]
    result: object = None
    error: str | None = None
    seconds: float = 0.0
    ref_index: int = 0
    ref_s: float = 0.0
    point_id: int = -1
    failed: int = 0
    inputs: tuple = ()  # what the check needs besides the result


class Workload:
    name = ""

    def __init__(self, seed: int, outdir: Path):
        self.rng = np.random.default_rng(seed)
        self.outdir = outdir

    def _draw(self, model: str) -> tuple[float, float]:
        (q_lo, q_hi), (t_lo, t_hi) = RANGES[model]
        return float(self.rng.uniform(q_lo, q_hi)), float(self.rng.uniform(t_lo, t_hi))

    def cycle(self) -> list[Block]:
        raise NotImplementedError

    def first_point(self) -> Block:
        """The smallest block exercising the workload's code paths (set-up, warm-up)."""
        raise NotImplementedError

    def collect(self, block: Block) -> None:
        """Untimed step right after the call."""

    def check(self, block: Block) -> int:
        """Number of failed points in a block whose call returned."""
        raise NotImplementedError

    def final_checks(self, blocks: list[Block]) -> None:
        """Checks spanning several blocks; they mark block.failed."""


# --- sweep -----------------------------------------------------------------------


class Sweep(Workload):
    """In-process `qmet.cli.main` runs writing CSV."""

    name = "sweep"
    # (command, model, grid side); jc's larger grid keeps it near a quarter of the time.
    MIX = [("gbound", "qubit-direction", 3), ("gbound", "nv-spin1", 3),
           ("qfi", "qubit-direction", 3), ("qfi", "nv-spin1", 3),
           ("jc", "jaynes-cummings", 4)]

    def __init__(self, seed: int, outdir: Path):
        super().__init__(seed, outdir)
        importlib.import_module("qmet.cli")  # only this workload pays for the CLI import
        self.seed = seed
        self.serial = 0

    def _grid(self, lo: float, hi: float, side: int) -> str:
        a, b = sorted(float(x) for x in self.rng.uniform(lo, hi, 2))
        return f"{a!r}:{b!r}:{side}"

    def _block(self, command: str, model: str, side: int) -> Block:
        (q_lo, q_hi), (t_lo, t_hi) = RANGES[model]
        self.serial += 1
        out = self.outdir / f"sweep-{self.serial % 8}.csv"
        argv = [command, "--model", model,
                "--theta", self._grid(q_lo, q_hi, side), "--t", self._grid(t_lo, t_hi, side),
                "--seed", str(self.seed), "--format", "csv", "--out", str(out)]
        return Block(kind=f"{command}/{model}", points=side * side,
                     call=lambda: qmet.cli.main(argv), inputs=(argv, out))

    def cycle(self) -> list[Block]:
        return [self._block(*mix) for mix in self.MIX]

    def first_point(self) -> Block:
        return self._block("gbound", "qubit-direction", 1)

    def collect(self, block: Block) -> None:
        """Replaces the exit code by (exit code, CSV text)."""
        code, out = block.result, block.inputs[1]
        block.result = (code, out.read_text(encoding="utf-8") if code == qmet.cli.EXIT_OK else "")

    def check(self, block: Block) -> int:
        (argv, _), (code, text) = block.inputs, block.result
        if code != qmet.cli.EXIT_OK:
            return block.points
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        if len(rows) != block.points:
            return block.points
        command, model = argv[0], argv[2]
        return sum(not self._record_ok(command, model, row) for row in rows)

    @staticmethod
    def _within(err: str, ref: str, tol: float) -> bool:
        return float(err) <= tol * max(abs(float(ref)), 1.0)

    def _record_ok(self, command: str, model: str, row: dict) -> bool:
        if command == "gbound":
            return self._within(row["abs_err"], row["g_ref"], G_TOL[model])
        if command == "qfi":
            ok = self._within(row["max_abs_err"], row["max_qfi_ref"], QFI_TOL)
            if model == "qubit-direction":
                ok = ok and self._within(row["abs_err"], row["qfi_ref"], QFI_TOL)
            return ok
        fc_sim, fc_ref = float(row["fc_sim"]), float(row["fc_ref"])
        return abs(fc_sim - fc_ref) <= JC_TOL * (1.0 + abs(fc_ref))

    def final_checks(self, blocks: list[Block]) -> None:
        """A second pass of the first cycle must write byte-identical CSV."""
        for block in blocks[:len(self.MIX)]:
            if block.error is not None:
                continue
            (argv, _), (_, text) = block.inputs, block.result
            out = self.outdir / "sweep-repeat.csv"
            code = qmet.cli.main(argv[:-1] + [str(out)])
            if code != qmet.cli.EXIT_OK or out.read_text(encoding="utf-8") != text:
                block.failed = block.points


# --- readout ---------------------------------------------------------------------


@dataclass
class ReadoutResult:
    model: str
    theta: float
    g: float
    tuned: object
    fi_ideal: float
    fi_realistic: float


class Readout(Workload):
    """g_bound, then tune_tau, then ideal and realistic read-out Fisher information."""

    name = "readout"
    MIX = [("qubit-direction", 6), ("nv-spin1", 6), ("qubit-direction", 10), ("nv-spin1", 10)]
    M = 3

    def _block(self, model_name: str, n: int) -> Block:
        theta, t = self._draw(model_name)

        def point() -> ReadoutResult:
            model = make_model(model_name)
            sol = qmet.g_bound(model, theta, t)
            cfg = qmet.PhaseSimConfig(n=n, m=self.M, t=t, V=sol.V_opt,
                                      rho0=np.outer(sol.psi_opt, sol.psi_opt.conj()))
            tuned = cfg.with_tau(qmet.tune_tau(cfg, model, theta, mode="realistic"))
            ideal = qmet.fisher_phase_readout(tuned, model, theta, mode="ideal").value
            real = qmet.fisher_phase_readout(tuned, model, theta, mode="realistic").value
            return ReadoutResult(model_name, theta, sol.G_value, tuned, ideal, real)

        return Block(kind=f"n{n}/{model_name}", points=1, call=point)

    def cycle(self) -> list[Block]:
        return [self._block(*mix) for mix in self.MIX]

    def first_point(self) -> Block:
        return self._block("qubit-direction", 6)

    def check(self, block: Block) -> int:
        r: ReadoutResult = block.result
        values = (r.g, r.fi_ideal, r.fi_realistic)
        if not all(math.isfinite(v) and v >= 0.0 for v in values):
            return 1
        if r.model == "qubit-direction":
            # On nv-spin1 the energies depend on theta, so the read-out may exceed G.
            if r.fi_realistic / r.g < READOUT_MIN_RATIO:
                return 1
            if r.tuned.n <= 6:
                model = make_model(r.model)
                oracle = qmet.circuit_oracle(r.tuned, model, r.theta)
                formula = qmet.ideal_distribution(r.tuned, model, r.theta)
                if oracle.total_variation(formula) > ORACLE_TV:
                    return 1
        return 0


# --- optimize --------------------------------------------------------------------


class Optimize(Workload):
    """optimize_cem at the acceptance budget, checked against g_bound."""

    name = "optimize"
    # Two points per model: a run holds one cycle, and six points of about
    # 4 s each average out more host noise than three.
    MIX = ["qubit-direction", "qubit-xcomponent", "nv-spin1"] * 2
    BUDGET = (8, 400)

    def _block(self, model_name: str, budget: tuple[int, int]) -> Block:
        theta, t = self._draw(model_name)
        opt_seed = int(self.rng.integers(2**31))

        def point():
            model = make_model(model_name)
            best, _, _ = qmet.optimize_cem(model, theta, t, budget=budget, seed=opt_seed)
            return best

        return Block(kind=model_name, points=1, call=point, inputs=(model_name, theta, t))

    def cycle(self) -> list[Block]:
        return [self._block(m, self.BUDGET) for m in self.MIX]

    def first_point(self) -> Block:
        # One restart and one pass over the d^2 + 2d - 2 = 6 coordinates of a
        # qubit: every code path of a point at under 1% of its cost.
        return self._block("qubit-direction", (1, 6))

    def check(self, block: Block) -> int:
        model_name, theta, t = block.inputs
        g = qmet.g_bound(make_model(model_name), theta, t).G_value
        best = float(block.result)
        return int(not (math.isfinite(best) and abs(best - g) / g <= OPT_REL_GAP))


WORKLOADS = {w.name: w for w in (Sweep, Readout, Optimize)}
