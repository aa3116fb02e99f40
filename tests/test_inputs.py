"""Public solvers read their matrix inputs and never hand them back, and
entry points reject inputs outside their domain.

Validation returns a float64 input as itself, not a copy, so a solver that
wrote into its input or returned it would show here: every input is a
read-only float64 array, must come out unchanged, and no array in a result
may share memory with it.
"""

import dataclasses
import subprocess
import sys
import warnings

import numpy as np
import pytest

import metzstab as ms
from metzstab import cli, core, formats
from metzstab.errors import PreconditionError

import goldens
import helpers


def _arrays(x):
    if isinstance(x, np.ndarray):
        yield x
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            yield from _arrays(getattr(x, f.name))
    elif isinstance(x, (tuple, list)):
        for item in x:
            yield from _arrays(item)


def _read_only(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _rng():
    return np.random.default_rng(12)


MATRIX_CASES = {
    "stab-inf": (ms.closest_stable_inf_hurwitz,
                 lambda: helpers.random_unstable_metzler(_rng(), 6)),
    "stab-schur": (ms.closest_stable_inf_schur,
                   lambda: helpers.random_unstable_nonneg(_rng(), 6)),
    "stab-schur-metzler": (lambda a: ms.closest_stable_inf_schur(a, allow_metzler=True),
                           lambda: helpers.random_unstable_nonneg(_rng(), 6)),
    "stab-max": (ms.closest_stable_max,
                 lambda: helpers.random_unstable_metzler(_rng(), 6)),
    "destab-inf": (ms.closest_unstable_inf_hurwitz,
                   lambda: helpers.hurwitz_certificate_input("stable", 6, seed=3)),
    "destab-schur": (ms.closest_unstable_inf_schur,
                     lambda: helpers.schur_certificate_input("stable", 6, seed=3)),
    "destab-max": (ms.closest_unstable_max,
                   lambda: helpers.hurwitz_certificate_input("stable", 6, seed=3)),
    "clamp-shift": (lambda a: ms.clamp_shift(a, 0.25),
                    lambda: helpers.random_metzler(_rng(), 6)),
    "metzlerize": (ms.metzlerize, lambda: _rng().uniform(-1.0, 1.0, (6, 6))),
    "eig-irreducible": (ms.selected_leading_eigenpair,
                        lambda: helpers.random_metzler(_rng(), 6)),
    "eig-reducible": (core.selected_leading_eigenpair,
                      lambda: goldens.zeroed(helpers.random_metzler(_rng(), 6),
                                             [(i, j) for i in range(3, 6)
                                              for j in range(3)])),
    "power": (ms.power_iteration, lambda: helpers.random_metzler(_rng(), 6)),
    "sign-pattern": (ms.sign_pattern, lambda: _rng().uniform(-1.0, 1.0, (6, 6))),
}


@pytest.mark.parametrize("name", sorted(MATRIX_CASES))
def test_a_solver_leaves_its_input_alone(name):
    solve, make = MATRIX_CASES[name]
    a = _read_only(make())
    before = a.copy()
    result = solve(a)
    assert np.array_equal(a, before)
    assert not any(np.shares_memory(x, a) for x in _arrays(result))


def test_a_switching_system_keeps_its_own_modes():
    modes = tuple(_read_only(m) for m in goldens.SWITCH_MODES)
    system = ms.SwitchingSystem(modes)
    assert not any(np.shares_memory(m, own) for m in modes for own in system.modes)
    results = (ms.hull_max_abscissa(system, resolution=4),
               ms.stabilize_lss_by_signs(system))
    assert not any(np.shares_memory(x, m) for m in modes for x in _arrays(results))
    planar = (_read_only([[0.5, 1.0], [1.0, -2.0]]), _read_only([[-3.0, 0.5], [2.0, -1.0]]))
    result = ms.stabilize_2d_lss(ms.SwitchingSystem(planar))
    assert not any(np.shares_memory(x, m) for m in planar for x in _arrays(result))


def test_a_family_keeps_its_own_rows():
    rows = [_read_only(r) for r in ([[-1.0, 2.0], [-3.0, 1.0]],
                                    [[1.0, -2.0], [0.5, 0.0]])]
    fam = ms.ProductFamily(tuple(ms.UncertaintySet(i, r) for i, r in enumerate(rows)))
    results = (ms.selective_greedy(fam, "min"),
               ms.optimize_with_irreducibility_patch(fam, "max"))
    assert not any(np.shares_memory(x, r) for r in rows
                   for x in _arrays((fam, results)))


def test_row_optimize_rejects_an_incumbent_outside_the_menu():
    rows, v = np.array([[1.0, 2.0], [3.0, 0.0]]), np.ones(2)
    assert ms.row_optimize(rows, v, incumbent=1) == 1  # a tie keeps it
    for incumbent in (-1, 2, 5):
        with pytest.raises(ValueError, match="incumbent"):
            ms.row_optimize(rows, v, incumbent=incumbent)


def test_selective_greedy_rejects_a_start_choice_that_is_no_integer():
    fam = ms.ProductFamily((ms.UncertaintySet(0, [[-1.0, 2.0], [-3.0, 1.0]]),
                            ms.UncertaintySet(1, [[1.0, -2.0], [0.5, 0.0]])))
    with pytest.raises(ValueError, match="integers"):
        ms.selective_greedy(fam, start_choices=[0.5, 0])


def test_power_iteration_needs_at_least_one_iteration():
    for max_iter in (0, -3):
        with pytest.raises(ValueError, match="max_iter"):
            core.power_iteration(goldens.OSCILLATING_3, max_iter=max_iter)


def test_a_sign_ball_radius_is_a_whole_number():
    m = ms.SignMatrix(goldens.SIGN_WEB)
    for k in (1.5, 2.5):
        with pytest.raises(PreconditionError, match="k must be a whole number"):
            ms.sign_ball_minimize(m, k)
    assert ms.sign_ball_minimize(m, 2.0).abscissa == ms.sign_ball_minimize(m, 2).abscissa


def _nonneg():
    return helpers.random_unstable_nonneg(_rng(), 6)


def _metzler():
    return helpers.random_unstable_metzler(_rng(), 6)


def _family():
    return ms.ProductFamily((ms.UncertaintySet(0, [[-1.0, 2.0], [-3.0, 1.0]]),
                             ms.UncertaintySet(1, [[1.0, -2.0], [0.5, 0.0]])))


# Each public entry point with the budget keywords it reads, bound to a
# valid input. A tol that is not positive once sent the certified step's
# doubling search down, or by NaN, forever.
BUDGET_CASES = {
    "eig": lambda **kw: core.selected_leading_eigenpair(_metzler(), **kw),
    "abscissa": lambda **kw: core.spectral_abscissa(_metzler(), **kw),
    "radius": lambda **kw: core.spectral_radius(_nonneg(), **kw),
    "stab-inf": lambda **kw: ms.closest_stable_inf_hurwitz(_metzler(), **kw),
    "stab-schur": lambda **kw: ms.closest_stable_inf_schur(_nonneg(), **kw),
    "stab-max": lambda **kw: ms.closest_stable_max(_metzler(), **kw),
    "greedy": lambda **kw: ms.selective_greedy(_family(), **kw),
}
BAD_BUDGETS = {
    "eig": {"tol": (-1.0, 0.0, float("nan")), "max_iter": (0, -5)},
    "abscissa": {"tol": (-1.0, float("nan")), "max_iter": (0,)},
    "radius": {"tol": (-1.0, float("nan")), "max_iter": (0,)},
    "stab-inf": {"tol": (-1.0, float("nan")), "max_outer": (0, -5)},
    "stab-schur": {"tol": (-1.0, float("nan")), "max_outer": (0,)},
    "stab-max": {"tol": (-1.0, float("nan")), "eig_max_iter": (0,)},
    "greedy": {"eig_tol": (-1.0, float("nan")), "max_iter": (0,)},
}


@pytest.mark.parametrize("name", sorted(BUDGET_CASES))
def test_an_entry_point_rejects_a_tol_or_budget_out_of_range(name):
    call = BUDGET_CASES[name]
    for key, values in BAD_BUDGETS[name].items():
        for value in values:
            what = "tol must be positive" if key.endswith("tol") else "must be at least 1"
            with pytest.raises(ValueError, match=what):
                call(**{key: value})


def test_a_leading_value_that_overflows_is_a_precondition_error(tmp_path, capsys):
    # Finite entries whose leading value, 2e308, is not: the row-sum bound of
    # the certified step's search is inf, which once doubled forever.
    a = np.full((2, 2), 1e308)
    with pytest.raises(PreconditionError, match="overflows"):
        core.selected_leading_eigenpair(a)
    path = tmp_path / "big.txt"
    path.write_text(formats.write_matrix(a))
    for command in ("eig", "stab-inf", "stab-max"):
        assert cli.main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the leading eigenvalue of a 2-node block overflows\n"


@pytest.mark.parametrize("entry", [1e308, 1.7e308], ids=["sum", "shift"])
def test_an_overflowing_block_raises_without_a_warning(entry):
    # At 1e308 the power loop's sum and the row-sum bound overflow; at
    # 1.7e308 the diagonal shift does first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="overflows"):
            core.selected_leading_eigenpair(np.full((2, 2), entry))


def test_an_overflowing_block_prints_only_the_error_line(tmp_path):
    # In a fresh interpreter, since pytest captures warnings in-process.
    path = tmp_path / "big.txt"
    path.write_text(formats.write_matrix(np.full((2, 2), 1e308)))
    proc = subprocess.run([sys.executable, "-m", "metzstab.cli", "eig", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == "error: the leading eigenvalue of a 2-node block overflows\n"


def test_a_sign_ball_radius_may_be_any_integer():
    m = ms.SignMatrix(goldens.SIGN_WEB)
    huge, whole = ms.sign_ball_minimize(m, 10**30), ms.sign_ball_minimize(m, float("inf"))
    np.testing.assert_array_equal(huge.sign_matrix.entries, whole.sign_matrix.entries)
    assert huge.abscissa == whole.abscissa
