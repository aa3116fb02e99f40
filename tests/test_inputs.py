"""Public solvers read their matrix inputs and never hand them back, and
entry points reject inputs outside their domain.

Validation returns a float64 input as itself, not a copy, so a solver that
wrote into its input or returned it would show here: every input is a
read-only float64 array, must come out unchanged, and no array in a result
may share memory with it.
"""

import dataclasses

import numpy as np
import pytest

import metzstab as ms
from metzstab import core
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
