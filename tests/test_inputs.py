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
from metzstab import bench, cli, core, formats, gen
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
               ms.optimize_with_irreducibility_patch(fam))
    assert not any(np.shares_memory(x, r) for r in rows
                   for x in _arrays((fam, results)))


def test_row_optimize_rejects_an_incumbent_outside_the_menu():
    rows, v = np.array([[1.0, 2.0], [3.0, 0.0]]), np.ones(2)
    assert ms.row_optimize(rows, v, incumbent=1) == 1  # a tie keeps it
    for incumbent in (-1, 2, 5, 1.5):
        with pytest.raises(ValueError, match="incumbent"):
            ms.row_optimize(rows, v, incumbent=incumbent)
    for bad_rows, bad_v in ((np.array([[1.0, np.nan], [3.0, 0.0]]), v),
                            (rows, np.array([np.nan, 1.0]))):
        with pytest.raises(ValueError, match="rows and v must be finite"):
            ms.row_optimize(bad_rows, bad_v)
    for bad_rows, bad_v in ((np.array([1.0, 2.0]), v), (np.ones((2, 3)), v),
                            (np.zeros((0, 2)), v), (rows, np.float64(1.0))):
        with pytest.raises(ValueError, match="rows must be a nonempty 2-D array as wide as v"):
            ms.row_optimize(bad_rows, bad_v)


def test_selective_greedy_rejects_a_start_choice_that_is_no_integer():
    fam = ms.ProductFamily((ms.UncertaintySet(0, [[-1.0, 2.0], [-3.0, 1.0]]),
                            ms.UncertaintySet(1, [[1.0, -2.0], [0.5, 0.0]])))
    with pytest.raises(ValueError, match="integers"):
        ms.selective_greedy(fam, start_choices=[0.5, 0])


def test_a_member_takes_one_row_of_each_menu():
    fam = _family()
    np.testing.assert_array_equal(fam.matrix([1, 0]), [[-3.0, 1.0], [1.0, -2.0]])
    for choices in ([-1, 0], [0, 2], [0, -3]):
        with pytest.raises(ValueError, match="out of range"):
            fam.matrix(choices)
    for choices in ([0.0, 1], [1.5, 0]):
        with pytest.raises(ValueError, match="integers"):
            fam.matrix(choices)
    with pytest.raises(ValueError, match="need 2 choices, got 3"):
        fam.matrix([0, 0, 0])
    for choices in (1, [[0, 0], [0, 0]]):
        with pytest.raises(ValueError, match="choices must be a 1-D sequence"):
            fam.matrix(choices)
    with pytest.raises(ValueError, match="start choice -1 out of range for row set 0"):
        ms.selective_greedy(fam, start_choices=[-1, 0])
    for start in (1, [[0, 0], [0, 0]]):
        with pytest.raises(ValueError, match="start choices must be a 1-D sequence"):
            ms.selective_greedy(fam, "max", start_choices=start)


def test_a_row_index_is_an_integer():
    with pytest.raises(ValueError, match="row index 1.5 must be an integer"):
        ms.UncertaintySet(1.5, [[1.0, -2.0], [0.5, 0.0]])


def test_power_iteration_needs_at_least_one_iteration():
    for max_iter in (0, -3, 2.5, float("nan")):
        with pytest.raises(ValueError, match="max_iter must be at least 1 and a whole number"):
            core.power_iteration(goldens.OSCILLATING_3, max_iter=max_iter)


# A dimension, menu size or trial count that is not a whole number of at
# least 1, named before any row is drawn.
SIZE_CASES = {
    "family-dim-0": ("dim must be at least 1 and a whole number, got 0",
                     lambda: gen.generate_family(0, 3)),
    "family-dim-2.5": ("dim must be at least 1 and a whole number, got 2.5",
                       lambda: gen.generate_family(2.5, 3)),
    "family-count-2.5": ("count must be at least 1 and a whole number, got 2.5",
                         lambda: gen.generate_family(3, 2.5)),
    "metzler-dim-0": ("dim must be at least 1 and a whole number, got 0",
                      lambda: gen.generate_metzler(0)),
    "metzler-dim-nan": ("dim must be at least 1 and a whole number, got nan",
                        lambda: gen.generate_metzler(float("nan"))),
    "bench-trials-2.5": ("trials must be at least 1 and a whole number, got 2.5",
                         lambda: bench.run_bench(trials=2.5)),
}


@pytest.mark.parametrize("name", sorted(SIZE_CASES))
def test_a_size_is_a_whole_number_of_at_least_one(name):
    message, call = SIZE_CASES[name]
    with pytest.raises(ValueError, match=message):
        call()


def test_clamp_shift_needs_a_finite_tau():
    for tau in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="tau must be finite"):
            ms.clamp_shift(goldens.STABLE_5, tau)


def test_a_sign_ball_radius_is_a_whole_number():
    m = ms.SignMatrix(goldens.SIGN_WEB)
    for k in (1.5, 2.5):
        with pytest.raises(PreconditionError, match="k must be a whole number"):
            ms.sign_ball_minimize(m, k)
    assert ms.sign_ball_minimize(m, 2.0).abscissa == ms.sign_ball_minimize(m, 2).abscissa


def test_a_sign_ball_radius_is_a_number():
    with pytest.raises(PreconditionError, match="nonnegative, got nan"):
        ms.sign_ball_minimize(ms.SignMatrix(goldens.SIGN_WEB), float("nan"))


def _family():
    return ms.ProductFamily((ms.UncertaintySet(0, [[-1.0, 2.0], [-3.0, 1.0]]),
                             ms.UncertaintySet(1, [[1.0, -2.0], [0.5, 0.0]])))


# Each public entry point with the grid keyword it reads, bound to a valid
# input: the hull scan's simplex grid needs a whole resolution of at least 1.
BUDGET_CASES = {
    "hull": lambda **kw: ms.hull_max_abscissa(ms.SwitchingSystem(goldens.SWITCH_MODES), **kw),
    "lss-stab-2d": lambda **kw: ms.stabilize_2d_lss(
        ms.SwitchingSystem(([[0.5, 1.0], [1.0, -2.0]], [[-3.0, 0.5], [2.0, -1.0]])), **kw),
}
BAD_BUDGETS = {
    "hull": {"resolution": (0, 2.5, float("nan"))},
    "lss-stab-2d": {"resolution": (2.5,)},
}


@pytest.mark.parametrize("name", sorted(BUDGET_CASES))
def test_an_entry_point_rejects_a_tol_or_budget_out_of_range(name):
    call = BUDGET_CASES[name]
    for key, values in BAD_BUDGETS[name].items():
        for value in values:
            with pytest.raises(ValueError, match="must be at least 1"):
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


def test_an_overflowing_large_block_is_the_same_precondition_error(tmp_path):
    # A block above core.DENSE_FALLBACK_DIM overflows as a 2-node one does:
    # its power loop ends at the inf sum and the certified step says why.
    a = np.full((70, 70), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="70-node block overflows"):
            core.selected_leading_eigenpair(a)
    path = tmp_path / "big.txt"
    path.write_text(formats.write_matrix(a))
    proc = subprocess.run([sys.executable, "-m", "metzstab.cli", "eig", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: the leading eigenvalue of a 70-node block overflows\n"


def test_a_sign_ball_radius_may_be_any_integer():
    m = ms.SignMatrix(goldens.SIGN_WEB)
    huge, whole = ms.sign_ball_minimize(m, 10**30), ms.sign_ball_minimize(m, float("inf"))
    np.testing.assert_array_equal(huge.sign_matrix.entries, whole.sign_matrix.entries)
    assert huge.abscissa == whole.abscissa
