"""The iteration budgets, all module constants, which the tests lower to one.

They are the l-inf stabilizers' outer step budget ``infnorm._MAX_OUTER``,
the greedy sweep budget ``family._GREEDY_SWEEPS``, the ball descent's sweep
budget ``infnorm._MAX_SWEEPS`` and the eigen power budgets
``core._POWER_BUDGET`` and ``core.DEFAULT_MAX_ITER``. Every input here needs
more than one step of its budget, so a budget of one runs out: the library
raises with the best iterate it holds, and the CLI exits 3 with the message
on stderr. A block that spends its power budget takes the certified step,
so ``stab-max`` answers as it does at the default.
"""

import numpy as np
import pytest

from metzstab import cli, core, family, formats, gen, infnorm
from metzstab.errors import IterationLimitError
from metzstab.family import optimize_with_irreducibility_patch, selective_greedy
from metzstab.infnorm import closest_stable_inf_hurwitz, closest_stable_inf_schur
from metzstab.maxnorm import closest_stable_max
from metzstab.sign import SignMatrix, closest_stable_sign

import goldens
from helpers import LARGE_BLOCK_70

# rho = 15.9 > 1; the first ball (tau = ||A||_inf / 2) is already stable.
SCHUR_INPUT = np.abs(goldens.UNSTABLE_5)
FAMILY = gen.generate_family(5, 4, seed=13)


def _schur_metzler(a):
    return closest_stable_inf_schur(a, allow_metzler=True)


@pytest.mark.parametrize("solve,a,level", [
    (closest_stable_inf_hurwitz, goldens.UNSTABLE_5, 0.0),
    (closest_stable_inf_schur, SCHUR_INPUT, 1.0),
    (_schur_metzler, SCHUR_INPUT, 1.0),
], ids=["hurwitz", "schur", "schur-metzler"])
def test_outer_budget_raises_with_the_best_stable_iterate(monkeypatch, solve, a, level):
    assert solve(a).iterations > 1
    monkeypatch.setattr(infnorm, "_MAX_OUTER", 1)
    with pytest.raises(IterationLimitError) as err:
        solve(a)
    best = err.value.best
    assert isinstance(best, core.StabilizationResult)
    assert best.iterations == 1
    assert best.abscissa <= level


def test_max_norm_power_budget_of_one_gives_the_default_answer(monkeypatch):
    # Every eigen call's 70-node block spends its one power iteration and
    # takes the certified step.
    assert core.selected_leading_eigenpair(LARGE_BLOCK_70).iterations > 1
    ref = closest_stable_max(LARGE_BLOCK_70)
    monkeypatch.setattr(core, "DEFAULT_MAX_ITER", 1)
    out = closest_stable_max(LARGE_BLOCK_70)
    assert out.tau_star == ref.tau_star
    assert out.iterations == ref.iterations
    assert np.array_equal(out.matrix, ref.matrix)


@pytest.mark.parametrize("solve", [
    lambda: selective_greedy(FAMILY, "max"),
    lambda: selective_greedy(FAMILY, "min"),
    lambda: optimize_with_irreducibility_patch(FAMILY, "max"),
], ids=["max", "min", "patch"])
def test_sweep_budget_raises_with_the_last_member(monkeypatch, solve):
    assert solve().iterations > 1
    monkeypatch.setattr(family, "_GREEDY_SWEEPS", 1)
    with pytest.raises(IterationLimitError) as err:
        solve()
    best = err.value.best
    assert best.iterations == 1
    # The last member evaluated: its matrix, choices and abscissa agree.
    assert best.abscissa == core.spectral_abscissa(best.matrix)
    assert best.trace[-1] == (best.row_choices, best.abscissa)


@pytest.mark.parametrize("solve,a", [
    (closest_stable_inf_hurwitz, goldens.UNSTABLE_5),
    (lambda m: closest_stable_sign(SignMatrix(m)), goldens.SIGN_WEB),
], ids=["l-inf", "sign"])
def test_ball_descent_budget_raises_with_the_least_value_iterate(monkeypatch, solve, a):
    # Both balls' descents need more than one sweep here.
    monkeypatch.setattr(infnorm, "_MAX_SWEEPS", 1)
    with pytest.raises(IterationLimitError, match="did not settle in 1 sweeps") as err:
        solve(a)
    best = err.value.best
    assert type(best) is np.ndarray
    assert best.shape == (5, 5)
    assert core.is_metzler(best)


@pytest.mark.parametrize("command,text", [
    ("stab-inf", formats.write_matrix(goldens.UNSTABLE_5)),
    ("sign-stab", formats.write_sign_matrix(SignMatrix(goldens.SIGN_WEB))),
], ids=["stab-inf", "sign-stab"])
def test_cli_ball_descent_budget_exits_3(monkeypatch, tmp_path, capsys, command, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    monkeypatch.setattr(infnorm, "_MAX_SWEEPS", 1)
    assert cli.main([command, str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: greedy descent did not settle in 1 sweeps\n"


@pytest.mark.parametrize("command,text,extra", [
    ("stab-inf", formats.write_matrix(goldens.UNSTABLE_5), ()),
    ("stab-schur", formats.write_matrix(SCHUR_INPUT), ()),
    ("stab-schur", formats.write_matrix(SCHUR_INPUT), ("--allow-metzler",)),
    ("opt-family", formats.write_family(FAMILY), ()),
    ("opt-family", formats.write_family(FAMILY), ("--direction", "min")),
], ids=["stab-inf", "stab-schur", "stab-schur-metzler",
        "opt-family-max", "opt-family-min"])
@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_cli_budget_of_one_exits_3(monkeypatch, tmp_path, capsys, command, text, extra,
                                   json_flag):
    path = tmp_path / "input.txt"
    path.write_text(text)
    argv = [command, str(path), *extra, *json_flag]
    assert cli.main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(infnorm, "_MAX_OUTER", 1)
    monkeypatch.setattr(family, "_GREEDY_SWEEPS", 1)
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")

