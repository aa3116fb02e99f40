"""Machine-independent cost guards: how many factorizations and graph searches
a call makes. Counts repeat exactly, so they hold on any machine."""

import collections
import functools

import numpy as np
import pytest

from metzstab import core, gen
from metzstab.infnorm import (
    closest_stable_inf_hurwitz, closest_stable_inf_schur,
    closest_unstable_inf_hurwitz, closest_unstable_inf_schur)
from metzstab.lss import SwitchingSystem, stabilize_lss_by_signs
from metzstab.maxnorm import clamp_shift, closest_stable_max, closest_unstable_max
from metzstab.sign import SignMatrix, closest_stable_sign

import helpers
import oracles


@pytest.fixture
def linalg_calls(monkeypatch):
    calls = collections.Counter()
    for name in ("solve", "inv", "eig", "eigvals"):
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def eigen_inputs(monkeypatch):
    # Every matrix handed to the eigen entry point, in call order.
    seen = []

    def recorded(a, **kwargs):
        seen.append(np.array(a, dtype=float))
        return original(a, **kwargs)

    original = core.selected_leading_eigenpair
    monkeypatch.setattr(core, "selected_leading_eigenpair", recorded)
    return seen


@pytest.mark.parametrize("destabilize,a", [
    (closest_unstable_inf_hurwitz, helpers.hurwitz_certificate_input("stable", 50, seed=7)),
    (closest_unstable_max, helpers.hurwitz_certificate_input("stable", 50, seed=7)),
    (closest_unstable_inf_schur, helpers.schur_certificate_input("stable", 50, seed=7)),
], ids=["inf-hurwitz", "max", "inf-schur"])
def test_each_destabilizer_makes_one_solve(destabilize, a, linalg_calls):
    # The solution of the one solve is the stability certificate too: no
    # inverse, no second factorization, no eigen call.
    destabilize(a)
    assert dict(linalg_calls) == {"solve": 1}


def test_a_strongly_connected_pattern_needs_no_graph(monkeypatch):
    searches = collections.Counter()

    def counted(*args, **kwargs):
        searches["closure"] += 1
        return original(*args, **kwargs)

    original = core._closure_split
    monkeypatch.setattr(core, "_closure_split", counted)
    rng = np.random.default_rng(8)
    a = rng.random((300, 300)) * (rng.random((300, 300)) < 0.5)
    assert np.count_nonzero(a) < 300 * 299  # not the full pattern
    assert len(core.strong_components(a)) == 1
    assert searches["closure"] == 0
    a[:, 3] = 0.0  # peeled off: the rest is proved one component by its searches
    assert len(core.strong_components(a)) == 2
    assert searches["closure"] == 0


def _fed_critical_cycle(m, size):
    # A critical 3-cycle (value 1) fed by m non-critical blocks of value
    # 1/2, single nodes or 2-cycles: each points into the 3-cycle, so all
    # share pole order 1. Every power loop settles at once on the uniform
    # vector.
    d = 3 + size * m
    a = np.zeros((d, d))
    a[[0, 1, 2], [1, 2, 0]] = 1.0
    for b, i in enumerate(range(3, d, size)):
        if size == 1:
            a[i, i] = 0.5
        else:
            a[i, i + 1] = a[i + 1, i] = 0.5
        a[i, b % 3] = 1.0
    return a


@pytest.mark.parametrize("size", [1, 2], ids=["single-nodes", "two-cycles"])
def test_the_back_substitution_makes_one_solve_per_pole_order(size, linalg_calls):
    # One solve for the left Perron vector of the critical block and one
    # for the pole order, however many blocks share it.
    counts = []
    for m in (2, 20):
        linalg_calls.clear()
        pair = core.selected_leading_eigenpair(_fed_critical_cycle(m, size))
        assert pair.value == pytest.approx(1.0, abs=1e-12)
        assert pair.method == "power"
        counts.append(dict(linalg_calls))
    assert counts[0] == counts[1] == {"solve": 2}


@pytest.mark.parametrize("value_of", [
    lambda a: core.selected_leading_eigenpair(a).value,
    core.spectral_abscissa,
], ids=["selected_leading_eigenpair", "spectral_abscissa"])
def test_a_stalled_small_block_makes_one_eigvals_and_two_solves(value_of, linalg_calls):
    # A 20-cycle with unequal weights: the shifted power loop converges at a
    # ratio near 0.998 and exhausts its budget. The dense value is then
    # proved by two solves, one on each side of it, whichever entry point
    # asks.
    a = np.diag(1.0 + np.arange(19) / 19, 1)
    a[19, 0] = 1.0
    value = value_of(a)
    assert dict(linalg_calls) == {"eigvals": 1, "solve": 2}
    pair = core.selected_leading_eigenpair(a)
    assert pair.value == value
    assert pair.method == "certified"
    assert pair.iterations <= 30
    lo, hi = pair.bracket
    assert lo < pair.value < hi


@pytest.mark.parametrize("stabilize,make", [
    (closest_stable_inf_hurwitz, helpers.random_unstable_metzler),
    (closest_stable_inf_schur, helpers.random_unstable_nonneg),
    (functools.partial(closest_stable_inf_schur, allow_metzler=True),
     helpers.random_unstable_nonneg),
], ids=["hurwitz", "schur", "schur-metzler"])
def test_the_linf_stabilizers_never_repeat_an_eigen_call(stabilize, make, monkeypatch):
    # One eigen call per ball-greedy sweep, and the input's pair serves the
    # precondition and starts every ball's descent (whose first sweep follows
    # the last probe's vector): no two consecutive calls see the same matrix.
    seen = []

    def recorded(a, **kwargs):
        seen.append(np.array(a, dtype=float))
        return original(a, **kwargs)

    original = core.selected_leading_eigenpair
    monkeypatch.setattr(core, "selected_leading_eigenpair", recorded)
    for seed in range(3):
        seen.clear()
        result = stabilize(make(np.random.default_rng(seed), 25))
        assert result.iterations > 1
        assert len(seen) > result.iterations
        assert not any(np.array_equal(p, q) for p, q in zip(seen, seen[1:]))


@pytest.mark.parametrize("stabilize,make", [
    (closest_stable_inf_hurwitz, helpers.random_unstable_metzler),
    (closest_stable_inf_schur, helpers.random_unstable_nonneg),
], ids=["hurwitz", "schur"])
def test_the_linf_stabilizers_make_no_eig_call(stabilize, make, linalg_calls):
    # The jump candidate needs only the largest real eigenvalue of its small
    # compression, which ``eigvals`` gives without eigenvectors.
    for seed in range(3):
        stabilize(make(np.random.default_rng(seed), 25))
    assert linalg_calls["eigvals"] > 0
    assert linalg_calls["eig"] == 0


def _scaled_unstable_metzler(rng, d, scale):
    return helpers.random_unstable_metzler(rng, d) * scale


def _nonneg_past_level(rng, d, excess):
    # The Schur level fixes the units, so the excess rho - 1 stands in for
    # the scale.
    a = rng.uniform(0.1, 1.0, size=(d, d))
    return a * ((1.0 + excess) / oracles.radius(a))


@pytest.mark.parametrize("stabilize,make", [
    (closest_stable_inf_hurwitz, _scaled_unstable_metzler),
    (closest_stable_inf_schur, _nonneg_past_level),
    (functools.partial(closest_stable_inf_schur, allow_metzler=True), _nonneg_past_level),
], ids=["hurwitz", "schur", "schur-metzler"])
def test_the_linf_tau_search_takes_few_outer_steps(stabilize, make):
    # The search starts at a closed-form stable radius and steps by jumps
    # and secants; a start at ||A||_inf / 2 with a midpoint after every
    # undershooting jump took up to 29 outer steps on these inputs.
    steps = {}
    for d in (10, 25, 50):
        for e in range(-3, 4):
            out = stabilize(make(np.random.default_rng([d, e + 3]), d, 10.0 ** e))
            steps[d, e] = out.iterations
    assert max(steps.values()) <= 12, steps


def _unstable_sign(rng):
    return SignMatrix(helpers.random_unstable_sign(rng, 5))


def _unstable_overlay_system(rng):
    # Three modes with negative diagonals whose sign overlay is unstable.
    while True:
        modes = rng.random((3, 4, 4)) * (rng.random((3, 4, 4)) < 0.4)
        for m in modes:
            np.fill_diagonal(m, -rng.uniform(0.5, 1.5, 4))
        if oracles.abscissa(np.sign(np.sign(modes).sum(axis=0))) > 0.05:
            return SwitchingSystem(tuple(modes))


@pytest.mark.parametrize("stabilize,make", [
    (closest_stable_sign, _unstable_sign),
    (stabilize_lss_by_signs, _unstable_overlay_system),
], ids=["sign", "lss-sign"])
def test_the_sign_routes_never_repeat_an_eigen_call(stabilize, make, eigen_inputs):
    # The input's pair serves the precondition and starts the descent of
    # every radius: no matrix is solved twice within one solve.
    for seed in range(5):
        eigen_inputs.clear()
        result = stabilize(make(np.random.default_rng(seed)))
        assert result.k_star >= 1
        solved = [m.tobytes() for m in eigen_inputs]
        assert len(solved) > 1
        assert len(set(solved)) == len(solved)


def _is_diagonal(m):
    return np.count_nonzero(m - np.diag(np.diag(m))) == 0


@pytest.mark.parametrize("make", [
    lambda: gen.generate_metzler(300, unstable=True, seed=300_001),
    lambda: np.array([[2.0, 1.0, 0.5], [1.5, -1.0, 0.0], [0.0, 1.0, 0.5]]),
], ids=["grid-d300", "diagonal-largest"])
def test_closest_stable_max_makes_no_eigen_call_on_a_diagonal_clamp(make, eigen_inputs):
    # Where A(tau) is diagonal, at the top breakpoint or at diag_max when
    # that is the largest entry, its abscissa is its largest entry: the
    # trace holds what the eigen call gives there, and no call is made.
    a = make()
    out = closest_stable_max(a)
    assert eigen_inputs and not any(_is_diagonal(m) for m in eigen_inputs)
    tau = float(a.max())
    assert out.trace[1] == (tau, core.spectral_abscissa(clamp_shift(a, tau)))


def test_the_max_norm_search_takes_few_evaluations():
    # False position on the breakpoint grid; index bisection took 13-19
    # evaluations on these inputs (the top breakpoint and the crossing
    # count too).
    counts = {}
    for d in (50, 120, 300):
        for s in range(3):
            a = gen.generate_metzler(d, unstable=True, seed=7000 * d + s)
            counts[d, s] = closest_stable_max(a).iterations
    assert max(counts.values()) <= 9, counts


def test_the_metzler_schur_stabilizer_does_not_solve_the_input_shifted(eigen_inputs):
    # allow_metzler runs the Hurwitz search at level 1 on A itself, from the
    # input's pair: no call sees a matrix equal to an earlier one minus I.
    for seed in range(3):
        eigen_inputs.clear()
        a = helpers.random_unstable_nonneg(np.random.default_rng(seed), 25)
        closest_stable_inf_schur(a, allow_metzler=True)
        eye = np.eye(25)
        shifted = set()
        for m in eigen_inputs:
            assert m.tobytes() not in shifted
            shifted.add((m - eye).tobytes())


def test_a_sweep_that_moves_only_by_rounding_ends_the_ball(eigen_inputs):
    # A sweep sums each row in the order of the eigenvector's ranking, so
    # from a ball minimum it can return the same matrix up to rounding. Such
    # a sweep ends the ball: no eigen call goes to a rounded copy.
    for seed in (1, 4, 5):
        eigen_inputs.clear()
        closest_stable_inf_schur(_nonneg_past_level(np.random.default_rng([10, 4, seed]),
                                                    10, 10.0))
        for p, q in zip(eigen_inputs, eigen_inputs[1:]):
            assert float(np.abs(p - q).max()) > 1e-12 * max(1.0, float(np.abs(p).max()))
