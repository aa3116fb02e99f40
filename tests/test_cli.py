import io
import json
import subprocess
import sys

import numpy as np
import pytest

from metzstab import cli, core, formats, gen, infnorm, maxnorm, sign
from metzstab.family import selective_greedy
from metzstab.lss import SwitchingSystem
from metzstab.sign import SignMatrix

import goldens
import helpers
from helpers import LARGE_BLOCK_70
import oracles


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


def matrix_file(tmp_path, a, name="m.txt"):
    path = tmp_path / name
    path.write_text(formats.write_matrix(np.asarray(a, dtype=float)))
    return str(path)


def test_eig_json_matches_library(tmp_path, capsys):
    path = matrix_file(tmp_path, goldens.STABLE_5)
    payload = run_json(capsys, "eig", path)
    pair = core.selected_leading_eigenpair(goldens.STABLE_5)
    assert payload["command"] == "eig"
    assert payload["value"] == pytest.approx(pair.value, abs=1e-12)
    np.testing.assert_allclose(payload["vector"], pair.vector, atol=1e-12)
    assert payload["iterations"] == pair.iterations


def test_eig_text_output(tmp_path, capsys):
    path = matrix_file(tmp_path, goldens.STABLE_5)
    code, out, _ = run_cli(capsys, "eig", path)
    assert code == 0
    first = float(out.splitlines()[0])
    assert first == pytest.approx(-1.0, abs=1e-9)


def rejected_by_parser(capsys, *argv):
    # argparse rejects the flag: exit 2, nothing on stdout, stderr says why.
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    return captured.err


def test_eig_rejects_norm_flag(tmp_path, capsys):
    path = matrix_file(tmp_path, goldens.STABLE_5)
    assert "--norm" in rejected_by_parser(capsys, "eig", path, "--norm", "inf")


def test_eig_iteration_budget_exit_code(tmp_path, capsys, monkeypatch):
    # A block that spends its power budget takes the certified step and
    # exits 0, above core.DENSE_FALLBACK_DIM nodes as below.
    monkeypatch.setattr(core, "DEFAULT_MAX_ITER", 3)
    monkeypatch.setattr(core, "_POWER_BUDGET", 3)
    path = matrix_file(tmp_path, LARGE_BLOCK_70)
    payload = run_json(capsys, "eig", path)
    a = formats.read_matrix((tmp_path / "m.txt").read_text())
    assert payload["iterations"] == 3
    assert payload["value"] == pytest.approx(oracles.abscissa(a), rel=1e-12)
    path = matrix_file(tmp_path, goldens.OSCILLATING_3)
    code, out, _ = run_cli(capsys, "eig", path)
    assert code == 0
    assert float(out.split()[0]) == pytest.approx(goldens.OSCILLATING_3_ABSCISSA,
                                                  abs=1e-11)


def test_stdin_input(capsys, monkeypatch):
    text = formats.write_matrix(goldens.STABLE_5)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    payload = run_json(capsys, "eig", "-")
    assert payload["value"] == pytest.approx(-1.0, abs=1e-9)


def test_missing_file_is_a_clean_error(capsys):
    code, _, err = run_cli(capsys, "eig", "/nonexistent/matrix.txt")
    assert code == 2
    assert "error" in err


def test_destab_inf_golden(tmp_path, capsys):
    path = matrix_file(tmp_path, goldens.STABLE_5)
    payload = run_json(capsys, "destab-inf", path)
    assert payload["tau_star"] == pytest.approx(goldens.STABLE_5_TAU, abs=1e-12)
    assert payload["index"] == goldens.STABLE_5_COLUMN
    assert payload["axis"] == "column"
    assert payload["residual"] <= 1e-8
    want = goldens.STABLE_5.copy()
    want[:, goldens.STABLE_5_COLUMN] += goldens.STABLE_5_TAU
    np.testing.assert_allclose(payload["matrix"], want, atol=1e-12)


def test_destab_one_norm_transposes(tmp_path, capsys):
    a = goldens.STABLE_5
    path = matrix_file(tmp_path, a)
    payload = run_json(capsys, "destab-inf", path, "--norm", "one")
    direct = infnorm.closest_unstable_inf_hurwitz(a.T)
    assert payload["axis"] == "row"
    assert payload["tau_star"] == pytest.approx(direct.tau_star, abs=1e-12)
    np.testing.assert_allclose(payload["matrix"], direct.matrix.T, atol=1e-12)


def test_stab_inf_golden(tmp_path, capsys):
    path = matrix_file(tmp_path, goldens.UNSTABLE_5)
    payload = run_json(capsys, "stab-inf", path)
    assert payload["tau_star"] == pytest.approx(goldens.UNSTABLE_5_TAU, abs=1e-6)
    np.testing.assert_allclose(payload["matrix"], goldens.UNSTABLE_5_STABILIZED,
                               atol=1e-6)
    assert abs(payload["abscissa"]) <= 1e-8
    assert payload["trace"]


def test_stab_inf_rejects_stable_matrix(tmp_path, capsys):
    path = matrix_file(tmp_path, goldens.STABLE_5)
    code, _, err = run_cli(capsys, "stab-inf", path)
    assert code == 2
    assert "already stable" in err


def test_stab_schur_golden_both_variants(tmp_path, capsys):
    path = matrix_file(tmp_path, goldens.SPIN_2)
    plain = run_json(capsys, "stab-schur", path)
    assert plain["tau_star"] == pytest.approx(goldens.SPIN_2_SCHUR_TAU, abs=1e-6)
    relaxed = run_json(capsys, "stab-schur", path, "--allow-metzler")
    assert relaxed["tau_star"] == pytest.approx(goldens.SPIN_2_METZLER_TAU, abs=1e-6)
    np.testing.assert_allclose(relaxed["matrix"], goldens.SPIN_2_METZLER_X,
                               atol=1e-5)


def test_destab_schur_level(tmp_path, capsys):
    path = matrix_file(tmp_path, [[0.0, 0.0], [0.0, 0.0]])
    payload = run_json(capsys, "destab-schur", path)
    assert payload["tau_star"] == pytest.approx(1.0, abs=1e-12)
    payload = run_json(capsys, "destab-schur", path, "--level", "2.0")
    assert payload["tau_star"] == pytest.approx(2.0, abs=1e-12)


def test_destab_max_and_stab_max(tmp_path, capsys):
    path = matrix_file(tmp_path, -np.eye(2))
    payload = run_json(capsys, "destab-max", path)
    assert payload["tau_star"] == pytest.approx(0.5, abs=1e-12)
    path = matrix_file(tmp_path, goldens.SWAP_2)
    payload = run_json(capsys, "stab-max", path)
    assert payload["tau_star"] == pytest.approx(goldens.SWAP_2_TAU, abs=1e-9)
    np.testing.assert_allclose(payload["matrix"], goldens.SWAP_2_STABILIZED,
                               atol=1e-9)


def test_stab_max_rejects_other_norms(tmp_path, capsys):
    path = matrix_file(tmp_path, goldens.SWAP_2)
    assert "--norm" in rejected_by_parser(capsys, "stab-max", path, "--norm", "inf")


def test_gen_is_seed_deterministic(capsys):
    code, first, _ = run_cli(capsys, "gen", "--dim", "4", "--count", "3",
                             "--seed", "5")
    assert code == 0
    code, second, _ = run_cli(capsys, "gen", "--dim", "4", "--count", "3",
                              "--seed", "5")
    assert code == 0
    assert first == second
    fam = formats.read_family(first)
    assert fam.dim == 4
    assert fam.sizes == (3, 3, 3, 3)


def test_gen_writes_the_family_to_a_file(tmp_path, capsys):
    argv = ("gen", "--dim", "4", "--count", "3", "--seed", "5")
    code, text, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "family.txt"
    code, out, err = run_cli(capsys, *argv, "-o", str(path))
    assert code == 0
    assert out == ""
    assert err == f"wrote family to {path}\n"
    assert path.read_text() == text


def test_a_request_larger_than_memory_is_an_input_error(monkeypatch, capsys):
    # Whether a real 74.5 GiB request fails at once depends on the machine's
    # overcommit policy, so the generator raises as numpy would.
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(gen, "generate_family", too_large)
    code, out, err = run_cli(capsys, "gen", "--dim", "100000", "--count", "100000")
    assert code == 2
    assert out == ""
    assert err == "error: Unable to allocate 74.5 GiB for an array\n"


def test_gen_density_bounds_are_percentages(capsys):
    code, _, err = run_cli(capsys, "gen", "--dim", "5", "--count", "2",
                           "--kind", "sparse", "--density", "0.5", "15")
    assert code == 2
    assert "percent" in err
    code, _, _ = run_cli(capsys, "gen", "--dim", "5", "--count", "2",
                         "--kind", "sparse", "--density", "9", "15")
    assert code == 0


def test_opt_family_is_a_thin_adapter(tmp_path, capsys):
    code, text, _ = run_cli(capsys, "gen", "--dim", "5", "--count", "4",
                            "--seed", "11")
    assert code == 0
    path = tmp_path / "fam.txt"
    path.write_text(text)
    payload = run_json(capsys, "opt-family", str(path), "--direction", "min")
    fam = formats.read_family(text)
    direct = selective_greedy(fam, "min")
    assert payload["abscissa"] == pytest.approx(direct.abscissa, abs=1e-12)
    assert tuple(payload["row_choices"]) == direct.row_choices
    np.testing.assert_allclose(payload["matrix"],
                               fam.matrix(payload["row_choices"]), atol=1e-12)


def test_opt_family_no_patch_reports_the_plain_greedy(tmp_path, capsys):
    fam = helpers.block_diagonal_family()
    path = tmp_path / "fam.txt"
    path.write_text(formats.write_family(fam))
    plain = run_json(capsys, "opt-family", str(path), "--no-patch")
    assert plain["reducible"] is True
    assert tuple(plain["row_choices"]) == selective_greedy(fam, "max").row_choices
    assert tuple(plain["row_choices"]) == (0, 0, 0, 1)
    patched = run_json(capsys, "opt-family", str(path))
    want, _ = oracles.family_vertex_optimum([s.rows for s in fam.sets], "max")
    assert tuple(patched["row_choices"]) == (0, 0, 1, 1)
    assert patched["abscissa"] == pytest.approx(want, abs=1e-8)


def test_sign_stab_command(tmp_path, capsys):
    path = tmp_path / "sign.txt"
    path.write_text(formats.write_sign_matrix(SignMatrix(goldens.SIGN_LATTICE)))
    payload = run_json(capsys, "sign-stab", str(path))
    assert payload["k_star"] == goldens.SIGN_LATTICE_K
    assert payload["abscissa"] == pytest.approx(goldens.SIGN_LATTICE_ETA, abs=1e-9)
    rows = ["".join(r) for r in payload["sign_matrix"]]
    want = ["".join("-0+"[v + 1] for v in row) for row in goldens.SIGN_LATTICE_STABLE]
    assert rows == want


def test_lss_check_higher_dimension_has_no_verdict(tmp_path, capsys):
    from metzstab.lss import SwitchingSystem

    path = tmp_path / "lss.txt"
    path.write_text(formats.write_switching_system(
        SwitchingSystem(goldens.SWITCH_MODES)))
    payload = run_json(capsys, "lss-check", str(path))
    assert payload["stable"] is None
    assert len(payload["mode_abscissas"]) == 3
    assert max(payload["mode_abscissas"]) < 0.0


def test_lss_check_planar_verdict(tmp_path, capsys):
    from metzstab.lss import SwitchingSystem

    a = np.array([[-2.0, 0.5], [0.5, -2.0]])
    b = np.array([[-1.0, 0.0], [0.0, -1.0]])
    path = tmp_path / "lss2.txt"
    path.write_text(formats.write_switching_system(SwitchingSystem((a, b))))
    code, out, _ = run_cli(capsys, "lss-check", str(path), "--resolution", "16")
    assert code == 0
    assert "verdict: stable under arbitrary switching" in out


def test_lss_stab_2d_command(tmp_path, capsys):
    from metzstab.lss import SwitchingSystem

    a = np.array([[1.0, 2.0], [3.0, -1.0]])
    b = np.array([[-3.0, 4.0], [1.0, -2.0]])
    path = tmp_path / "lss3.txt"
    path.write_text(formats.write_switching_system(SwitchingSystem((a, b))))
    payload = run_json(capsys, "lss-stab-2d", str(path))
    assert payload["hull_abscissa"] < 0.0
    assert len(payload["modes"]) == 2
    assert all(t >= 0.0 for t in payload["mode_taus"])


def test_lss_stab_sign_command(tmp_path, capsys):
    from metzstab.lss import SwitchingSystem

    path = tmp_path / "lss4.txt"
    path.write_text(formats.write_switching_system(
        SwitchingSystem(goldens.SWITCH_MODES)))
    payload = run_json(capsys, "lss-stab-sign", str(path))
    assert payload["k_star"] == goldens.SWITCH_K
    assert payload["mode_budgets"] == list(goldens.SWITCH_BUDGETS)
    assert payload["acyclic"] is False
    for got, want in zip(payload["modes"], goldens.SWITCH_CUT_MODES):
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_bench_csv_has_one_row_per_cell(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    code, out, _ = run_cli(capsys, "bench", "--op", "family-max", "--op",
                           "family-min", "--dim", "4", "--dim", "6",
                           "--count", "3", "--trials", "2", "--seed", "1",
                           "--csv", str(csv_path))
    assert code == 0
    assert "iterations_mean" in out
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 2


def test_entry_point_runs_as_module(tmp_path):
    path = matrix_file(tmp_path, goldens.STABLE_5)
    proc = subprocess.run([sys.executable, "-m", "metzstab.cli", "eig", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert float(proc.stdout.splitlines()[0]) == pytest.approx(-1.0, abs=1e-9)


def _matrix_text(a):
    return formats.write_matrix(np.asarray(a, dtype=float))


_SWITCH_TEXT = formats.write_switching_system(SwitchingSystem(goldens.SWITCH_MODES))
_PLANAR_TEXT = formats.write_switching_system(SwitchingSystem(
    (np.array([[1.0, 2.0], [3.0, -1.0]]), np.array([[-3.0, 4.0], [1.0, -2.0]]))))
_SIGN_TEXT = formats.write_sign_matrix(SignMatrix(goldens.SIGN_LATTICE))
_STAB_KEYS = ["norm", "tau_star", "matrix", "iterations", "residual", "abscissa", "trace"]
_DESTAB_KEYS = _STAB_KEYS[:5]

JSON_KEYS = [
    ("eig", _matrix_text(goldens.STABLE_5), ["value", "vector", "iterations", "residual"]),
    ("stab-max", _matrix_text(goldens.SWAP_2), _STAB_KEYS),
    ("stab-inf", _matrix_text(goldens.UNSTABLE_5), _STAB_KEYS),
    ("stab-schur", _matrix_text(goldens.SPIN_2), _STAB_KEYS),
    ("destab-max", _matrix_text(-np.eye(2)), _DESTAB_KEYS),
    ("destab-inf", _matrix_text(goldens.STABLE_5), _DESTAB_KEYS + ["index", "axis"]),
    ("destab-schur", _matrix_text(np.zeros((2, 2))), _DESTAB_KEYS + ["index", "axis"]),
    ("opt-family", formats.write_family(gen.generate_family(5, 4, seed=11)),
     ["direction", "abscissa", "matrix", "row_choices", "iterations", "reducible",
      "eigenvector"]),
    ("sign-stab", _SIGN_TEXT, ["k_star", "abscissa", "sign_matrix", "evaluated"]),
    ("lss-check", _SWITCH_TEXT,
     ["mode_abscissas", "hull_abscissa", "hull_weights", "stable"]),
    ("lss-stab-2d", _PLANAR_TEXT,
     ["modes", "mode_taus", "iterations", "hull_abscissa", "hull_weights"]),
    ("lss-stab-sign", _SWITCH_TEXT,
     ["modes", "k_star", "mode_budgets", "abscissa", "acyclic", "stable_sign"]),
]


@pytest.mark.parametrize("command, text, keys", JSON_KEYS, ids=[row[0] for row in JSON_KEYS])
def test_json_document_keys_in_order(tmp_path, capsys, command, text, keys):
    path = tmp_path / "input.txt"
    path.write_text(text)
    payload = run_json(capsys, command, str(path))
    assert list(payload) == ["schema", "command", *keys]
    assert payload["schema"] == cli.SCHEMA
    assert payload["command"] == command


@pytest.mark.parametrize("argv, a, solve", [
    (("stab-max",), goldens.SPIN_2, maxnorm.closest_stable_max),
    (("stab-inf",), goldens.UNSTABLE_5, infnorm.closest_stable_inf_hurwitz),
    (("stab-schur", "--allow-metzler"), goldens.SPIN_2,
     lambda a: infnorm.closest_stable_inf_schur(a, allow_metzler=True)),
], ids=["stab-max", "stab-inf", "stab-schur-metzler"])
def test_json_trace_is_the_library_trace(tmp_path, capsys, argv, a, solve):
    payload = run_json(capsys, *argv, matrix_file(tmp_path, a))
    trace = solve(a).trace
    assert len(trace) > 1
    assert payload["trace"] == [list(probe) for probe in trace]


def test_json_evaluated_is_the_library_trace_sorted_by_radius(tmp_path, capsys):
    path = tmp_path / "sign.txt"
    path.write_text(_SIGN_TEXT)
    payload = run_json(capsys, "sign-stab", str(path))
    trace = sign.closest_stable_sign(SignMatrix(goldens.SIGN_LATTICE)).trace
    assert len(trace) > 1
    assert payload["evaluated"] == [list(probe) for probe in sorted(trace)]


def test_gen_prints_its_family_text_under_json(capsys):
    argv = ("gen", "--dim", "4", "--count", "3", "--seed", "5")
    code, text, _ = run_cli(capsys, *argv)
    assert code == 0
    code, json_text, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert json_text == text


def test_stab_one_norm_transposes(tmp_path, capsys):
    a = goldens.UNSTABLE_5
    payload = run_json(capsys, "stab-inf", matrix_file(tmp_path, a), "--norm", "one")
    direct = infnorm.closest_stable_inf_hurwitz(a.T)
    assert payload["norm"] == "one"
    assert payload["tau_star"] == pytest.approx(direct.tau_star, abs=1e-12)
    np.testing.assert_allclose(payload["matrix"], direct.matrix.T, atol=1e-12)


def test_stab_one_norm_reaches_the_golden_ratio(tmp_path, capsys):
    # No ball of this search revisits an iterate any more; the two _descend
    # tests in test_infnorm.py cover the revisit rule.
    path = matrix_file(tmp_path, goldens.SIGN_LATTICE)
    code, _, err = run_cli(capsys, "stab-inf", "--norm", "one", path)
    assert code == 0, err
    assert "tau_star = 1.61803398875 " in err
    payload = run_json(capsys, "stab-inf", "--norm", "one", path)
    assert payload["tau_star"] == pytest.approx((1.0 + np.sqrt(5.0)) / 2.0, abs=1e-9)


@pytest.mark.parametrize("command, text, norm", [
    ("sign-stab", _SIGN_TEXT, "inf"),
    ("lss-check", _SWITCH_TEXT, "one"),
], ids=["sign-stab", "lss-check"])
def test_norm_is_rejected_where_it_does_not_apply(tmp_path, capsys, command, text, norm):
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert "--norm" in rejected_by_parser(capsys, command, str(path), "--norm", norm)


_FLAGS = {"tol": ("--tol", "1e-3"), "max-iter": ("--max-iter", "2"), "seed": ("--seed", "9")}
# Each command with the flags it does not read. No command reads --tol or
# --max-iter: the eigen tolerance is core.DEFAULT_TOL and the iteration
# budgets are module constants.
_UNREAD = [
    ("sign-stab", _SIGN_TEXT, ("tol", "max-iter", "seed")),
    ("destab-inf", formats.write_matrix(goldens.STABLE_5), ("tol", "max-iter", "seed")),
    ("lss-check", _SWITCH_TEXT, ("tol", "max-iter", "seed")),
    ("eig", formats.write_matrix(goldens.STABLE_5), ("tol", "max-iter")),
    ("stab-max", formats.write_matrix(goldens.UNSTABLE_5), ("tol", "max-iter")),
    ("stab-inf", formats.write_matrix(goldens.UNSTABLE_5), ("tol", "max-iter")),
    ("stab-schur", formats.write_matrix(goldens.SPIN_2), ("tol", "max-iter")),
    ("opt-family", formats.write_family(gen.generate_family(5, 4, seed=11)),
     ("tol", "max-iter")),
]


@pytest.mark.parametrize("command, text, flag", [
    pytest.param(command, text, _FLAGS[name], id=f"{name}-{command}")
    for command, text, names in _UNREAD for name in names])
def test_flags_a_command_does_not_read_are_rejected(tmp_path, command, text, flag):
    path = tmp_path / "input.txt"
    path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, str(path), *flag])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (["eig", "--max-iter", "3", "-"], "--max-iter"),
    (["stab-inf", "--tol", "1e-3", "-"], "--tol"),
    (["opt-family", "--max-iter", "3", "-"], "--max-iter"),
], ids=["eig-max-iter", "stab-inf-tol", "opt-family-max-iter"])
def test_an_unread_flag_is_named_before_any_input_is_read(capsys, monkeypatch, argv, flag):
    # argparse would take the flag's value as the path and name "-" instead.
    monkeypatch.setattr(sys, "stdin", io.StringIO("not a matrix"))
    err = rejected_by_parser(capsys, *argv)
    assert err.endswith(f"error: {argv[0]} does not take {flag}\n")


def test_eig_rejects_seed(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eig", matrix_file(tmp_path, goldens.STABLE_5), "--seed", "9"])
    assert exc.value.code == 2


_WITHOUT_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
from metzstab import cli
results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        results.append([argv, cli.main(argv), err.getvalue()])
print(json.dumps(results))
"""


def test_every_command_runs_without_scipy(tmp_path):
    # The package needs numpy only: in a fresh interpreter with scipy
    # blocked, every command runs to exit 0, a reducible split included.
    def path(name, text):
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)

    triangular = np.triu(np.random.default_rng(3).random((300, 300)), 1) / 300 - np.eye(300)
    family = path("family.txt", formats.write_family(helpers.block_diagonal_family()))
    argvs = [
        ["eig", path("stable.txt", _matrix_text(goldens.STABLE_5))],
        ["eig", path("chain.txt", _matrix_text([[-1, 1, 0], [0, -2, 1], [0, 0, -3]]))],
        ["eig", path("triangular.txt", _matrix_text(triangular))],
        ["destab-max", path("minus_eye.txt", _matrix_text(-np.eye(2)))],
        ["stab-max", path("swap.txt", _matrix_text(goldens.SWAP_2))],
        ["destab-inf", str(tmp_path / "stable.txt")],
        ["stab-inf", path("unstable.txt", _matrix_text(goldens.UNSTABLE_5))],
        ["stab-inf", str(tmp_path / "unstable.txt"), "--norm", "one"],
        ["destab-schur", path("zeros.txt", _matrix_text(np.zeros((2, 2))))],
        ["stab-schur", path("spin.txt", _matrix_text(goldens.SPIN_2))],
        ["stab-schur", str(tmp_path / "spin.txt"), "--allow-metzler"],
        ["sign-stab", path("sign.txt", _SIGN_TEXT)],
        ["lss-check", path("switch.txt", _SWITCH_TEXT)],
        ["lss-stab-2d", path("planar.txt", _PLANAR_TEXT)],
        ["lss-stab-sign", str(tmp_path / "switch.txt")],
        ["opt-family", family, "--direction", "max"],
        ["opt-family", family, "--direction", "min"],
        ["gen", "--dim", "4", "--count", "3", "--seed", "5"],
        ["bench", "--op", "family-max", "--dim", "4", "--count", "2", "--trials", "1",
         "--seed", "1"],
    ]
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(argvs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert [(argv, code, err) for argv, code, err in results if code != 0] == []
    assert len(results) == len(argvs)
