"""Package-wide contracts: one decomposition site for H(theta) and one eigensolver for
every Hermitian matrix, one domain rule, one count rule, one time rule, one dimension rule
for the operands that meet a model, imports from the standard library and numpy only, and
one declaration per CLI setting."""

import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import qmet
from qmet import cem, cli, phasesim
from qmet.cem import (
    cem_outcome_model,
    diagonalizer,
    encoded_qfi,
    fisher_cem,
    g_bound,
    generator_pair,
    optimize_cem,
)
from qmet.errors import DimensionMismatch, DomainBoundary, InvalidParameter
from qmet.fisher import monotone_metric, qfi, sld_povm
from qmet.linalg import expm_unitary
from qmet.models import (
    jc_readout_model,
    make_nv_spin1,
    make_qubit_direction,
    make_qubit_xcomponent,
)
from qmet.numdiff import DiffSpec
from qmet.phasesim import (
    PhaseSimConfig,
    aligned_tau,
    circuit_oracle,
    default_tau,
    fisher_phase_readout,
    ideal_distribution,
    realistic_distribution,
    tune_tau,
)

NV_PARAMS = (1.0, 1.44 * math.pi, 5e-5 * math.pi)


def scopes(match):
    """{(module file, enclosing qualname)} of every node of src/qmet that match(node) accepts."""
    found = set()

    class Visitor(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.scope = module, []

        def visit_scope(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_ClassDef = visit_FunctionDef = visit_scope

        def generic_visit(self, node):
            if match(node):
                found.add((self.module, ".".join(self.scope)))
            super().generic_visit(node)

    for path in sorted(Path(qmet.__file__).parent.glob("*.py")):
        Visitor(path.name).visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


def named(node) -> str | None:
    """The name a call or attribute node reaches: `x.name` or `name`."""
    return getattr(node, "attr", getattr(node, "id", None))


def callers(name):
    """{(module file, enclosing qualname)} of every `.name(...)` or `name(...)` call in
    src/qmet."""
    return scopes(lambda node: isinstance(node, ast.Call) and named(node.func) == name)


def test_only_the_working_point_reads_the_rounding_unit():
    """cem._Point and its _Jet hold the one rounding model: in cem and phasesim no other
    code reads the rounding unit, as np.finfo(...).eps or as an _EPS constant, so no
    estimate assembles a rounding term of its own."""
    def reads_eps(node):
        return (isinstance(node, ast.Attribute) and node.attr == "eps"
                and isinstance(node.value, ast.Call) and named(node.value.func) == "finfo"
                or named(node) == "_EPS" and isinstance(node.ctx, ast.Load))

    found = {(module, scope.split(".")[0]) for module, scope in scopes(reads_eps)
             if module in ("cem.py", "phasesim.py")}
    assert found and found <= {("cem.py", "_Point"), ("cem.py", "_Jet")}, found


def test_each_level_of_the_level_product_is_at_most_five_numpy_calls():
    """phasesim._level_products reads each level's views from its kept plan: in every
    per-level loop a call, an augmented assignment and a binary operation count one NumPy
    call each, a derivative-kind level makes at most five, and no level reshapes or slices.
    So the read-out kernel's per-level cost cannot grow back unnoticed."""
    tree = ast.parse(Path(phasesim.__file__).read_text(encoding="utf-8"))
    (kernel,) = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "_level_products"]
    loops = [node for node in ast.walk(kernel) if isinstance(node, ast.For)]
    assert loops
    for loop in loops:
        body = [node for stmt in loop.body for node in ast.walk(stmt)]
        assert not any(named(node) == "reshape" or isinstance(node, ast.Slice) for node in body)
        assert sum(isinstance(node, (ast.Call, ast.AugAssign, ast.BinOp)) for node in body) <= 5


def test_one_count_rule():
    """numdiff.require_count is the one integer check: only numdiff imports numbers, and
    every entry point that takes a count calls it, phasesim's n and m through _check_bounds."""
    def imports_numbers(node):
        return (isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "numbers")

    assert {module for module, _ in scopes(imports_numbers)} == {"numdiff.py"}
    assert callers("require_count") == {
        ("numdiff.py", "DiffSpec.__post_init__"), ("phasesim.py", "_check_bounds"),
        ("phasesim.py", "controllization_factors"), ("phasesim.py", "controllization_oracle"),
        ("models.py", "_check_jc"), ("models.py", "jc_field_state"), ("cem.py", "_optimize"),
        ("cem.py", "max_gap_lemma_check")}
    assert callers("_check_bounds") == {
        ("phasesim.py", "PhaseSimConfig.__post_init__"), ("phasesim.py", "PhaseSimConfig.with_tau"),
        ("phasesim.py", "aligned_tau"), ("cli.py", "_phase_sim_row")}


def test_h_of_is_called_only_by_the_spectrum_and_the_expm_oracle():
    """Every decomposition of a model Hamiltonian goes through cem._spectrum, which also
    checks the domain, except HamiltonianModel.u_of's expm route, which only encoded_qfi's
    finite-difference oracle takes: its state family stays smooth through a level crossing
    inside the stencil, which _spectrum rejects.  The generator oracle reads _spectrum."""
    assert callers("h_of") == {("cem.py", "_spectrum"), ("models.py", "HamiltonianModel.u_of")}
    assert callers("u_of") == {("cem.py", "encoded_qfi.rho_of")}


def test_one_routine_decomposes_every_hermitian_matrix():
    """linalg._eigh, which checks Hermiticity first, is the one caller of numpy's eigh, and
    nothing calls the eigenvalue-only driver, which rounds a spectrum differently."""
    assert callers("eigh") == {("linalg.py", "_eigh")}
    assert callers("eigvalsh") == set()


@pytest.mark.parametrize("factory", [
    lambda: make_qubit_direction(1.0),
    lambda: make_qubit_xcomponent(1.0),
    lambda: make_nv_spin1(*NV_PARAMS),
], ids=["qubit-direction", "qubit-xcomponent", "nv-spin1"])
def test_each_generator_has_one_gap(factory):
    """generator_pair, encoded_qfi's sigma(g_dyn) and g_bound give each generator the same
    gap bit for bit on a 20 x 20 grid; an eigenvalue-only solver rounds some of nv-spin1's
    gaps differently."""
    model = factory()
    rho0 = ground_projector(model.dim)
    for theta in np.linspace(0.3, 2.8, 20):
        for t in np.linspace(0.3, 3.0, 20):
            gaps = g_bound(model, theta, t).gaps
            assert generator_pair(model, theta, t).gaps == gaps
            assert encoded_qfi(model, theta, t, rho0)[1] == gaps[0]


def test_cem_decomposes_each_generator_at_one_site():
    """In cem, spectral_gap and eig_hermitian serve only max_gap_lemma_check and g_diag's
    _diag_system: g_dyn's gap and g_bound's R2 read the jet's one decomposition of g_dyn."""
    def in_cem(name):
        return {scope for module, scope in callers(name) if module == "cem.py"}

    assert in_cem("spectral_gap") == {"max_gap_lemma_check"}
    assert in_cem("eig_hermitian") == {"_diag_system", "max_gap_lemma_check"}


@pytest.mark.parametrize("factory", [
    lambda: make_qubit_direction(1.0),
    lambda: make_nv_spin1(*NV_PARAMS),
], ids=["qubit-direction", "nv-spin1"])
@pytest.mark.parametrize("call, count", [
    (lambda model: generator_pair(model, 0.8, 1.7), 0),
    (lambda model: encoded_qfi(model, 0.8, 1.7, ground_projector(model.dim)), 1),  # rho
], ids=["generator_pair", "encoded_qfi"])
def test_calls_after_g_bound_reuse_its_generator_decompositions(factory, call, count,
                                                                decompositions):
    """At one (model, theta, t) after g_bound, generator_pair's gaps and encoded_qfi's
    sigma(g_dyn) read the kept decompositions of g_dyn and g_diag: generator_pair makes
    none, and encoded_qfi makes only rho's."""
    model = factory()
    g_bound(model, 0.8, 1.7)
    decompositions[0] = 0
    call(model)
    assert decompositions[0] == count


@pytest.mark.parametrize("factory", [
    lambda: make_qubit_direction(1.0),
    lambda: make_nv_spin1(*NV_PARAMS),
], ids=["qubit-direction", "nv-spin1"])
@pytest.mark.parametrize("call", [g_bound, generator_pair])
def test_the_generator_oracle_decomposes_each_node_once(factory, call, decompositions):
    """Under DiffSpec() one _spectrum per node gives both U_t and the transported
    diagonalizer: H at theta and at the 6 Richardson nodes, then g_dyn and g_diag, 9 where
    an expm route beside the spectrum took 17.  Its U_t at theta is the analytic jet's."""
    model = factory()
    call(model, 0.8, 1.7, DiffSpec())
    assert decompositions[0] == 9
    _, u_t, *_ = cem._generators(model, 0.8, 1.7, DiffSpec())
    assert np.array_equal(u_t, cem._point(model, 0.8).jet(1.7).U)


def cli_handlers_naming(error):
    """{top-level function of cli.py} with an `except` clause that names error."""
    found = set()
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    for func in tree.body:
        for node in ast.walk(func):
            if isinstance(node, ast.ExceptHandler) and node.type is not None and any(
                    isinstance(name, ast.Name) and name.id == error
                    for name in ast.walk(node.type)):
                found.add(func.name)
    return found


def test_the_cli_has_one_sweep_loop():
    """Only the sweep driver turns a point's failure into exit 3 and a builder's rejected
    parameter into a config error; main catches what escapes a command.  A command that
    grew its own loop or failure path would need a handler of its own."""
    assert cli_handlers_naming("QmetError") == {"_sweep", "main"}
    assert cli_handlers_naming("InvalidParameter") == {"_sweep"}


@pytest.fixture
def spectrum_calls(tmp_path, monkeypatch):
    """One-element list counting cem._spectrum calls, run from a directory that holds the
    INI files optimizer.ini (a small optimizer budget) and diff.ini (a [diff] section)."""
    (tmp_path / "optimizer.ini").write_text("[optimizer]\nrestarts = 2\niterations = 20\n")
    (tmp_path / "diff.ini").write_text("[diff]\n")
    monkeypatch.chdir(tmp_path)
    calls = [0]
    spectrum = cem._spectrum

    def counted(*args, **kwargs):
        calls[0] += 1
        return spectrum(*args, **kwargs)

    monkeypatch.setattr(cem, "_spectrum", counted)
    monkeypatch.setattr(phasesim, "_spectrum", counted)
    return calls


@pytest.mark.parametrize("argv, per_point", [
    (("gbound",), 1),
    (("qfi",), 1),
    (("optimize", "--config", "optimizer.ini"), 1),
    (("phase-sim",), 1),
    (("phase-sim", "--config", "diff.ini"), 8),  # the jet and the read-out's 7 Richardson nodes
], ids=["gbound", "qfi", "optimize", "phase-sim", "phase-sim-diff"])
def test_cli_points_take_one_spectrum_each(argv, per_point, spectrum_calls):
    """Every CLI probe command decomposes H(theta) once per point, and never per run: one
    jet feeds every column, both read-out modes and the tau."""
    counts = []
    for points in (1, 2):
        spectrum_calls[0] = 0
        assert cli.main([*argv, "--model", "nv-spin1", "--theta", f"0.8:1.2:{points}",
                         "--t", "1.7:1.7:1", "--n", "6", "--out", "out.csv"]) == cli.EXIT_OK
        counts.append(spectrum_calls[0])
    assert counts == [per_point, 2 * per_point]


@pytest.mark.parametrize("argv, per_grid", [
    (("gbound",), 15),  # per theta H(theta) and g_diag, per point g_dyn: 3 * 2 + 9
    (("qfi",), 21),  # per theta H(theta), per point rho's eigenbasis and g_dyn's gap: 3 + 18
    (("optimize", "--config", "optimizer.ini"), 15),  # as gbound
    (("phase-sim",), 24),  # as gbound, and rho0's factor per point: 3 * 2 + 18
    # per theta H(theta); per point the expm oracle's 7 stencil nodes, the rank at its 2 outer
    # ones, rho's eigenbasis and g_dyn's gap: 3 + 9 * 11
    (("qfi", "--config", "diff.ini"), 102),
], ids=["gbound", "qfi", "optimize", "phase-sim", "qfi-diff"])
def test_cli_theta_rows_take_one_spectrum_each(argv, per_grid, spectrum_calls, decompositions):
    """The grid is theta-major, and cem's kept point holds the theta half of each point's jet
    (H(theta)'s decomposition, and g_diag's eigensystem where G is needed) across the theta
    row, also for qfi's g_dyn under [diff]: n_theta _spectrum calls for n_theta x 3 points,
    and per_grid decompositions on 3 x 3, where one per point would take 27 (36 for
    phase-sim, 108 for qfi under [diff])."""
    counts = []
    for n_theta in (1, 2, 3):
        spectrum_calls[0] = decompositions[0] = 0
        assert cli.main([*argv, "--model", "nv-spin1", "--theta", f"0.8:1.2:{n_theta}",
                         "--t", "1.1:1.7:3", "--n", "6", "--out", "out.csv"]) == cli.EXIT_OK
        counts.append(spectrum_calls[0])
    assert (counts, decompositions[0]) == ([1, 2, 3], per_grid)


def test_cli_qfi_diff_stencil_error_names_its_point(spectrum_calls, capsys):
    """Under [diff] qfi's stencil runs before its kept jet, so a stencil that leaves the
    domain mid-grid is the error named, at its point, after two theta rows' spectra."""
    assert cli.main(["qfi", "--config", "diff.ini", "--model", "qubit-direction", "--theta",
                     "3.14:3.1415:3", "--t", "1:2:3", "--out", "out.csv"]) == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical failure at grid point (3.1415, 1.0): DomainBoundary: stencil "
        f"[3.14108585, 3.1419141500000003] leaves the open domain (0.0, {math.pi})\n")
    assert spectrum_calls[0] == 2


@pytest.mark.parametrize("factory", [
    lambda: make_qubit_direction(1.0),
    lambda: make_nv_spin1(*NV_PARAMS),
], ids=["qubit-direction", "nv-spin1"])
def test_one_readout_working_point_decomposes_h_once(factory, spectrum_calls, decompositions,
                                                     monkeypatch):
    """g_bound, tune_tau and both fisher_phase_readout modes at one (model, theta, t), as
    perfbench's readout point runs them, share one _spectrum: 4 eighs (H(theta), g_diag,
    g_dyn and rho0's check) where each call decomposing H(theta) would take 7, one U_t
    (cem.spectral_unitary) where each call building its own jet would take 4, and one
    level jet (cem._level_weights) where each read-out call building its own would take 3."""
    unitaries, weights = [0], [0]

    def counted(fn, count):
        def wrapper(*args):
            count[0] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cem, "spectral_unitary", counted(cem.spectral_unitary, unitaries))
    monkeypatch.setattr(cem, "_level_weights", counted(cem._level_weights, weights))
    model = factory()
    sol = g_bound(model, 0.8, 1.7)
    cfg = PhaseSimConfig(n=6, m=3, t=1.7, V=sol.V_opt,
                         rho0=np.outer(sol.psi_opt, sol.psi_opt.conj()))
    tuned = cfg.with_tau(tune_tau(cfg, model, 0.8, mode="realistic"))
    for mode in ("ideal", "realistic"):
        fisher_phase_readout(tuned, model, 0.8, mode=mode)
    assert (spectrum_calls[0], decompositions[0], unitaries[0], weights[0]) == (1, 4, 1, 1)


def test_the_sweep_loop_names_no_model():
    """Each command's point axes are declared in its _SWEEPS row, so cli._sweep holds no
    model name: a new t-only command would not edit the loop."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    (sweep,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_sweep"]
    strings = {node.value for node in ast.walk(sweep)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert not strings & set(cli._MODELS)


def test_the_cli_keeps_no_cache_of_its_own():
    """The kept working point lives in cem, where library callers share it: cli.py neither
    imports functools nor names one of its caches."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    named = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "functools" not in imported
    assert not named & {"lru_cache", "cache", "cached_property"}


def test_qmet_imports_only_the_standard_library_and_numpy():
    """Every absolute import in src/qmet names a standard-library module or numpy;
    relative imports stay inside the package."""
    found = set()
    for path in sorted(Path(qmet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    assert "numpy" in found
    assert found - set(sys.stdlib_module_names) == {"numpy"}


def test_every_setting_flag_comes_from_the_settings_table():
    """The parser's options are --config, --model and one flag per _SETTINGS row with help,
    so a flag cannot be declared outside the table."""
    options = {option for action in cli._PARSER._actions for option in action.option_strings}
    flags = {f"--{key}" for _, key, *_, help_text in cli._SETTINGS if help_text is not None}
    assert options - {"-h", "--help"} == {"--config", "--model"} | flags
    assert len(flags) == 8


def test_a_run_config_holds_each_setting_at_its_row_default():
    """RunConfig's own fields are command, model, model_params and method, which only a
    [diff] section sets; every other attribute is a _SETTINGS row's key, at its row's parsed
    default."""
    cfg = cli.RunConfig("qfi")
    own = {"command", "model", "model_params", "method"}
    assert cfg.method is None
    assert set(vars(cfg)) == own | {key for _, key, *_ in cli._SETTINGS}
    for _, key, default, parse, _ in cli._SETTINGS:
        value, expected = getattr(cfg, key), None if default is None else parse(default)
        assert np.array_equal(value, expected) if parse is cli._parse_grid else value == expected
    assert np.array_equal(cfg.theta, np.linspace(0.3, 2.8, 10))
    assert np.array_equal(cfg.t, np.linspace(0.3, 3.0, 10))


def away_from_default(key, default, parse, folder):
    """Text the row's parser takes that differs from its default and passes every check."""
    if parse is cli._parse_grid:
        return "0.5:1:2"
    texts = {"format": "json", "out": str(folder / "x.csv")}
    return texts.get(key) or str(parse(default or "0") + 1)


def hashed_lines(argv):
    cfg = cli.resolve_config(cli._PARSER.parse_args(["gbound", *argv]))
    return cfg.config_hash(), set(cfg.canonical().splitlines())


@pytest.mark.parametrize("row", cli._SETTINGS, ids=[row[1] for row in cli._SETTINGS])
def test_each_setting_has_its_own_hash_entry(row, tmp_path):
    """Set away from its default, by INI key or by flag, a setting changes config_hash
    through its own canonical line: [diff] step and levels through the diff line only,
    and out not at all.  So a new row enters the hash with no other edit."""
    section, key, default, parse, help_text = row
    text = away_from_default(key, default, parse, tmp_path)
    base, ini = tmp_path / "base.ini", tmp_path / "run.ini"
    base.write_text(f"[{section}]\n")  # an empty [diff] selects the oracle by itself
    ini.write_text(f"[{section}]\n{key} = {text}\n")
    base_digest, base_lines = hashed_lines(["--config", str(base)])
    flag = [["--config", str(base), f"--{key}", text]] if help_text else []
    for argv in [["--config", str(ini)], *flag]:
        digest, lines = hashed_lines(argv)
        assert {line.split("=")[0] for line in lines ^ base_lines} == \
            {"diff" if section == "diff" else key} - {"out"}, argv
        assert (digest != base_digest) == (key != "out"), argv


def test_a_new_setting_is_one_row(monkeypatch, tmp_path):
    """A row appended to _SETTINGS is a RunConfig attribute at its default, an INI key of
    its section, and a config-hash entry."""
    monkeypatch.setattr(cli, "_SETTINGS", (*cli._SETTINGS, ("run", "extra", "1", int, None)))
    assert cli.RunConfig("gbound").extra == 1
    assert "extra=1" in cli.RunConfig("gbound").canonical().splitlines()
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nextra = 2\n")
    cfg = cli.resolve_config(cli._PARSER.parse_args(["gbound", "--config", str(ini)]))
    assert cfg.extra == 2 and cfg.config_hash() != cli.RunConfig("gbound").config_hash()


@pytest.mark.parametrize("call, warm", [
    (lambda model: g_bound(model, 0.8, 1.7), 0),
    (lambda model: encoded_qfi(model, 0.8, 1.7, ground_projector(3)), 1),  # rho
    (lambda model: optimize_cem(model, 0.8, 1.7, (2, 20)), 0),
], ids=["g_bound", "encoded_qfi", "optimize_cem"])
def test_one_point_library_calls_take_three_decompositions(call, warm, decompositions):
    """A one-point call builds its theta half and its t half once each: H(theta), then
    g_diag and g_dyn (or rho and g_dyn for encoded_qfi).  Called again at the same
    (model, theta, t), it finds H(theta), g_diag and g_dyn in cem's kept point and jet and
    decomposes only what no point keeps: encoded_qfi's rho."""
    model = make_nv_spin1(*NV_PARAMS)
    call(model)
    assert decompositions[0] == 3
    decompositions[0] = 0
    call(model)
    assert decompositions[0] == warm


@pytest.mark.parametrize("name, count", [
    ("qfi", 10),  # 7 stencil nodes, the rank at the 2 outer ones, 1 eigenbasis of rho
    ("monotone_metric", 10),
    ("sld_povm", 13),  # and the SLD's eigenbasis and the POVM's 2 positivity checks
    ("encoded_qfi-diff", 12),  # qfi's 10, the jet and the gap of g_dyn
    ("encoded_qfi", 3),  # the jet, rho's eigenbasis and the gap
])
def test_the_quantum_fisher_family_decomposes_rho_once(name, count, decompositions):
    """One decomposition of rho(theta) feeds the value, its error estimate, the SLD and the
    rank at theta, and every state node is evaluated once, the rank check's too.  The
    family is a full-rank rho0 under exp(-i 1.3 H(theta)) of qubit-direction, and each
    rho_of call decomposes H(theta) once."""
    model, rho0 = make_qubit_direction(1.0), np.diag([0.8, 0.2]).astype(complex)

    def rho_of(x):
        u = expm_unitary(model.h_of(x), 1.3)
        return u @ rho0 @ u.conj().T

    call = {
        "qfi": lambda: qfi(rho_of, 1.1),
        "monotone_metric": lambda: monotone_metric("log", rho_of, 1.1),
        "sld_povm": lambda: sld_povm(rho_of, 1.1),
        "encoded_qfi-diff": lambda: encoded_qfi(model, 1.1, 1.3, rho0, DiffSpec()),
        "encoded_qfi": lambda: encoded_qfi(model, 1.1, 1.3, rho0),
    }[name]
    decompositions[0] = 0
    call()
    assert decompositions[0] == count


@pytest.mark.parametrize("mode", ["ideal", "realistic"])
@pytest.mark.parametrize("n", [6, 10])
def test_analytic_tune_tau_scores_each_candidate_once_values_only(mode, n, monkeypatch):
    """The coarse scan's 32 taus and the fine scan's 14 interior ones, each scored once:
    the fine scan's ends are coarse candidates.  Where every bin exceeds
    SUPPORT_THRESHOLD, no scan reaches _fisher_sum or builds an error bound."""
    scored, sums = [], [0]
    chunks, fisher_sum = phasesim._readout_chunks, phasesim._fisher_sum

    def recorded_chunks(cfg, ev, p, taus, *args):
        scored.extend(taus.tolist())
        return chunks(cfg, ev, p, taus, *args)

    def counted_sum(*args):
        sums[0] += 1
        return fisher_sum(*args)

    monkeypatch.setattr(phasesim, "_readout_chunks", recorded_chunks)
    monkeypatch.setattr(phasesim, "_fisher_sum", counted_sum)
    model = make_nv_spin1(*NV_PARAMS)
    sol = g_bound(model, 0.7, 1.3)
    cfg = PhaseSimConfig(n=n, m=3, t=1.3, V=sol.V_opt,
                         rho0=np.outer(sol.psi_opt, sol.psi_opt.conj()))
    tune_tau(cfg, model, 0.7, mode)
    assert len(scored) == phasesim.TAU_COARSE + phasesim.TAU_REFINE - 2 == 46
    assert len(set(scored)) == len(scored)
    assert sums[0] == 0


def ground_projector(d):
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def entry_points(model, theta):
    """{name: call} of every public entry point that takes (model, theta)."""
    d, t = model.dim, 1.1
    rho0, V = ground_projector(d), np.eye(d)
    cfg = PhaseSimConfig(n=4, m=2, t=t, rho0=rho0)
    return {
        "g_bound": lambda: g_bound(model, theta, t),
        "generator_pair": lambda: generator_pair(model, theta, t),
        "encoded_qfi": lambda: encoded_qfi(model, theta, t, rho0),
        "fisher_cem": lambda: fisher_cem(model, theta, t, V, rho0),
        "optimize_cem": lambda: optimize_cem(model, theta, t, budget=(1, 1)),
        "diagonalizer": lambda: diagonalizer(model, theta),
        "default_tau": lambda: default_tau(model, theta),
        "aligned_tau": lambda: aligned_tau(model, theta, 4),
        "tune_tau": lambda: tune_tau(cfg, model, theta),
        "fisher_phase_readout": lambda: fisher_phase_readout(cfg, model, theta),
        "ideal_distribution": lambda: ideal_distribution(cfg, model, theta),
        "realistic_distribution": lambda: realistic_distribution(cfg, model, theta),
        "circuit_oracle": lambda: circuit_oracle(cfg, model, theta),
    }


ENTRY_POINTS = list(entry_points(make_qubit_direction(1.0), 0.8))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("factory,theta", [
    (lambda: make_qubit_direction(1.0), 0.0),
    (lambda: make_qubit_direction(1.0), math.pi),
    (lambda: make_nv_spin1(*NV_PARAMS), 0.0),
], ids=["qubit-direction-0", "qubit-direction-pi", "nv-spin1-0"])
def test_every_entry_point_rejects_the_domain_edge(factory, theta, entry):
    model = factory()
    with pytest.raises(DomainBoundary):
        entry_points(model, theta)[entry]()
    entry_points(model, 0.8)[entry]()  # the same call runs just inside the domain


def time_entry_points(t, diff, model=None):
    """{name: call} of every public entry point that takes the evolution time t, on
    qubit-direction unless another model is given."""
    model = model or make_qubit_direction(1.0)
    rho0, V = ground_projector(model.dim), np.eye(model.dim)
    return {
        "g_bound": lambda: g_bound(model, 0.8, t, diff),
        "generator_pair": lambda: generator_pair(model, 0.8, t, diff),
        "encoded_qfi": lambda: encoded_qfi(model, 0.8, t, rho0, diff),
        "fisher_cem": lambda: fisher_cem(model, 0.8, t, V, rho0, diff),
        "optimize_cem": lambda: optimize_cem(model, 0.8, t, budget=(1, 1)),
        "jc_readout_model": lambda: qmet.classical_fisher(
            jc_readout_model(0.5, t, 0.6, 0.8), 1.0, diff),
    }


@pytest.mark.parametrize("diff", [None, DiffSpec()], ids=["analytic", "diff"])
@pytest.mark.parametrize("entry", list(time_entry_points(1.1, None)))
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_every_entry_point_rejects_a_non_finite_time(t, entry, diff):
    """t is checked where it enters, before any arithmetic on it: InvalidParameter naming
    t, with no warning, on the analytic and the finite-difference paths alike."""
    with pytest.raises(InvalidParameter, match="t must be finite"):
        time_entry_points(t, diff)[entry]()
    time_entry_points(1.1, diff)[entry]()  # the same call runs at a finite t


@pytest.mark.parametrize("factory", [
    lambda: make_qubit_direction(1.0),
    lambda: make_nv_spin1(*NV_PARAMS),
], ids=["qubit-direction", "nv-spin1"])
@pytest.mark.parametrize("entry", [*(name for name in time_entry_points(1.1, None)
                                     if name != "jc_readout_model"), "fisher_phase_readout"])
def test_a_phase_beyond_the_float_range_names_t(factory, entry):
    """At t = 1e308 on qubit-direction t E is finite but g_dyn's t (E_max - E_min) is not,
    and on nv-spin1 t E is not: spectral_unitary's bound on both, t (|E_min| + |E_max|),
    raises InvalidParameter naming t before any arithmetic on a phase, with no warning."""
    model = factory()
    cfg = PhaseSimConfig(n=4, m=2, t=1e308, rho0=ground_projector(model.dim))
    calls = {**time_entry_points(1e308, None, model),
             "fisher_phase_readout": lambda: fisher_phase_readout(cfg, model, 0.8)}
    with pytest.raises(InvalidParameter, match=r"phase t \(\|E_min\| \+ \|E_max\|\) = 1e\+308 x "):
        calls[entry]()


def test_an_overflowing_fisher_information_raises():
    """t = 1e200 keeps every phase finite, but g_dyn, of order t, makes dp^2 overflow: the
    report raises where it would hold inf.  On qubit-xcomponent at theta = 1e200 the
    rounding bound leaves the float range instead, and the value stays finite."""
    rho0 = ground_projector(2)
    with pytest.raises(InvalidParameter, match="Fisher information overflows"):
        fisher_cem(make_qubit_direction(1.0), 0.8, 1e200, np.eye(2), rho0)
    report = fisher_cem(make_qubit_xcomponent(1.0), 1e200, 1.1, np.eye(2), rho0)
    assert math.isfinite(report.value) and report.error_estimate == math.inf


class TestDimensionMismatch:
    """A control or preparation of the wrong dimension is a typed error where it meets the
    model, before any matrix product can fail."""

    theta, t = 0.8, 1.1

    def calls(self, V, rho0):
        model, theta, t = make_nv_spin1(*NV_PARAMS), self.theta, self.t
        cfg = PhaseSimConfig(n=4, m=2, t=t, rho0=rho0, V=V)
        calls = [
            lambda: cem_outcome_model(model, t, V, rho0),
            lambda: fisher_cem(model, theta, t, V, rho0),
            lambda: fisher_cem(model, theta, t, V, rho0, DiffSpec()),
            lambda: ideal_distribution(cfg, model, theta),
            lambda: realistic_distribution(cfg, model, theta),
            lambda: circuit_oracle(cfg, model, theta),
            lambda: cfg.control(model.dim),
        ]
        for diff in (None, DiffSpec()):
            for mode in ("ideal", "realistic"):
                calls.append(lambda d=diff, m=mode: fisher_phase_readout(cfg, model, theta, d, m))
                calls.append(lambda d=diff, m=mode: tune_tau(cfg, model, theta, m, d))
        return calls

    @pytest.mark.parametrize("case", ["rho0", "V", "both"])
    def test_control_or_preparation(self, case):
        small, full = ground_projector(2), ground_projector(3)
        V = np.eye(2) if case != "rho0" else np.eye(3)
        rho0 = small if case != "V" else full
        for call in self.calls(V, rho0):
            with pytest.raises(DimensionMismatch, match="dimension is 3"):
                call()

    def test_identity_control_takes_the_model_dimension(self):
        cfg = PhaseSimConfig(n=4, m=2, t=1.0, rho0=ground_projector(2))
        with pytest.raises(DimensionMismatch):
            ideal_distribution(cfg, make_nv_spin1(*NV_PARAMS), self.theta)
        assert np.array_equal(cfg.control(2), np.eye(2))

    @pytest.mark.parametrize("diff", [None, DiffSpec()])
    def test_encoded_qfi(self, diff):
        model = make_nv_spin1(*NV_PARAMS)
        for rho0 in (ground_projector(2), np.ones(3) / 3.0, np.zeros((3, 4))):
            with pytest.raises(DimensionMismatch):
                encoded_qfi(model, self.theta, self.t, rho0, diff)
        report, _ = encoded_qfi(model, self.theta, self.t, ground_projector(3), diff)
        assert report.value >= 0.0

    @pytest.mark.parametrize("diff", [None, DiffSpec()])
    def test_encoded_qfi_needs_a_density_matrix(self, diff):
        """require_density's messages, from the decomposition of rho that the SLD makes."""
        model, P = make_qubit_direction(1.0), ground_projector(2)
        with pytest.raises(DimensionMismatch, match="density matrix trace 2.0 != 1"):
            encoded_qfi(model, self.theta, self.t, 2.0 * P, diff)
        with pytest.raises(DimensionMismatch, match="negative eigenvalue -5.000e-01"):
            encoded_qfi(model, self.theta, self.t, np.diag([1.5, -0.5]).astype(complex), diff)
