"""The CLI is total: every run exits 0, 2 or 3, lets no warning escape, and writes a
non-finite value only in a column its sweep declares as possibly non-finite.

Each example calls cli.main in process on a tiny grid.  Model parameters, grid ends
and the read-out base time are drawn log-uniformly over 1e-300..1e308 with both
signs; every model parameter may also keep its default, and a draw may add a [diff]
section.  The optimizer budget and the read-out's n are small.
"""

import math
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qmet import cli  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def wide_floats():
    """sign * 10^e with e uniform in [-300, 308]: every decade of the float range alike."""
    return st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from((1.0, -1.0)),
                     st.floats(-300.0, 308.0))


@st.composite
def runs(draw):
    """(command, INI text, flags) of one CLI run."""
    command = draw(st.sampled_from(sorted(cli._SWEEPS)))
    model = draw(st.sampled_from(cli._SWEEPS[command].models))
    lines = ["[model]", f"name = {model}"]
    for key in cli._MODELS[model].params:
        if draw(st.booleans()):
            lines.append(f"{key} = {draw(wide_floats())!r}")
    lines += ["[optimizer]", "restarts = 1", "iterations = 3"]
    if draw(st.booleans()):
        lines.append("[diff]")
    flags = ["--n", "2", "--m", "1"]
    if draw(st.booleans()):
        flags += ["--tau", repr(abs(draw(wide_floats())))]
    for flag in ("--theta", "--t"):
        start, stop = draw(wide_floats()), draw(wide_floats())
        flags.append(f"{flag}={start!r}:{stop!r}:{draw(st.integers(1, 2))}")
    return command, "\n".join(lines) + "\n", flags


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("totality")


@SETTINGS
@given(runs())
def test_every_run_exits_cleanly_with_finite_declared_columns(workdir, case):
    command, ini_text, flags = case
    ini, out = workdir / "run.ini", workdir / "out.csv"
    ini.write_text(ini_text)
    out.unlink(missing_ok=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([command, "--config", str(ini), *flags, "--out", str(out)])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL)
    assert [str(w.message) for w in caught] == []
    assert out.exists() == (code == cli.EXIT_OK)
    if code == cli.EXIT_OK:
        lines = out.read_text().splitlines()
        columns, nonfinite = lines[1].split(","), cli._SWEEPS[command].nonfinite.split()
        for line in lines[2:]:
            for name, text in zip(columns, line.split(",")):
                assert math.isfinite(float(text)) or name in nonfinite, (name, text)
