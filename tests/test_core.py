import collections
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from metzstab import core
from metzstab.errors import IterationLimitError, PreconditionError

import exact
import goldens
from helpers import LARGE_BLOCK_70
import oracles

ENTRIES = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def metzler_arrays(dim: int):
    return arrays(np.float64, (dim, dim), elements=st.floats(0.0, 5.0)).map(
        lambda a: a - 6.0 * np.eye(dim))


def test_metzlerize_zeroes_negative_offdiagonal():
    out = core.metzlerize([[-1.0, -2.0], [3.0, -4.0]])
    np.testing.assert_array_equal(out, [[-1.0, 0.0], [3.0, -4.0]])


def test_metzlerize_keeps_metzler_input():
    a = np.array([[-5.0, 1.0], [0.5, 2.0]])
    np.testing.assert_array_equal(core.metzlerize(a), a)


@given(arrays(np.float64, (4, 4), elements=ENTRIES))
def test_metzlerize_idempotent_and_metzler(a):
    m = core.metzlerize(a)
    assert core.is_metzler(m)
    np.testing.assert_array_equal(core.metzlerize(m), m)
    np.testing.assert_array_equal(np.diag(m), np.diag(a))


def test_matrix_norms_worked_example():
    a = [[1.0, -2.0], [3.0, 4.0]]
    assert core.matrix_norm(a, "inf") == 7.0
    assert core.matrix_norm(a, "max") == 4.0
    assert core.matrix_norm(a, "one") == 6.0


def test_matrix_norm_rejects_unknown_kind():
    with pytest.raises(ValueError):
        core.matrix_norm(np.eye(2), "frobenius")


def test_translation_shift_examples():
    assert core.translation_shift(goldens.OSCILLATING_3) == goldens.OSCILLATING_3_SHIFT
    assert core.translation_shift([[-3.0]]) == 3.0
    assert core.translation_shift([[0.0, 1.0], [2.0, 5.0]]) == 0.0


@given(metzler_arrays(3), st.floats(0.0, 100.0))
@settings(max_examples=60, deadline=None)
def test_translation_identity(a, h):
    # rho(A + h I) = eta(A) + h once the shift makes the matrix nonnegative.
    # Hypothesis likes degenerate zero patterns with defective leading pairs,
    # which the certified step serves.
    h = h + core.translation_shift(a)
    eta = core.selected_leading_eigenpair(a).value
    rho = core.selected_leading_eigenpair(a + h * np.eye(3)).value
    assert rho == pytest.approx(eta + h, abs=1e-8)


def test_validate_metzler_rejects_negative_offdiagonal():
    with pytest.raises(PreconditionError):
        core.validate_metzler([[0.0, -0.1], [1.0, 0.0]])


def test_square_validation():
    with pytest.raises(ValueError):
        core.spectral_abscissa(np.ones((2, 3)))
    with pytest.raises(ValueError):
        core.spectral_abscissa(np.array([[np.inf]]))


def test_eigenpair_diagonal_matrix():
    pair = core.selected_leading_eigenpair(np.diag([-1.0, -4.0]))
    assert pair.value == pytest.approx(-1.0, abs=1e-10)
    np.testing.assert_allclose(pair.vector, [1.0, 0.0], atol=1e-8)


def test_eigenpair_symmetric_exchange():
    pair = core.selected_leading_eigenpair([[0.0, 1.0], [1.0, 0.0]])
    assert pair.value == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(pair.vector, [0.5, 0.5], atol=1e-10)


def test_eigenpair_contract():
    """Vector is l1-normalized, nonnegative, and the residual is honest."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = rng.uniform(0.0, 1.0, (5, 5)) - np.diag(rng.uniform(0.0, 3.0, 5))
        pair = core.selected_leading_eigenpair(a)
        v = pair.vector
        assert v.min() >= 0.0
        assert v.sum() == pytest.approx(1.0, abs=1e-12)
        resid = float(np.abs(a @ v - pair.value * v).max())
        assert resid <= 1e-10
        assert pair.value == pytest.approx(oracles.abscissa(a), abs=1e-8)


def test_abscissa_matches_dense_solver_on_random_metzler():
    rng = np.random.default_rng(21)
    for d in (2, 3, 5, 8):
        for _ in range(10):
            a = rng.uniform(0.0, 2.0, (d, d))
            np.fill_diagonal(a, rng.uniform(-4.0, 1.0, d))
            assert core.spectral_abscissa(a) == pytest.approx(
                oracles.abscissa(a), abs=1e-8)


def test_abscissa_golden_values():
    assert core.spectral_abscissa(goldens.STABLE_5) == pytest.approx(
        goldens.STABLE_5_ABSCISSA, abs=1e-9)
    assert core.spectral_abscissa(goldens.OSCILLATING_3) == pytest.approx(
        goldens.OSCILLATING_3_ABSCISSA, abs=1e-9)


def test_spectral_radius_requires_nonnegative():
    with pytest.raises(PreconditionError):
        core.spectral_radius([[-1.0, 0.0], [0.0, -1.0]])


def test_plain_power_iteration_oscillates_without_shift():
    out = core.power_iteration(goldens.OSCILLATING_3, max_iter=50)
    assert not out.converged
    assert out.sign_changes > 0


def test_plain_power_iteration_stops_on_a_settled_iterate():
    # The uniform start is already the eigenvector of 3: the second iterate
    # repeats the first one's sign pattern and passes both tests.
    out = core.power_iteration([[2.0, 1.0], [1.0, 2.0]])
    assert out.converged
    assert out.value == pytest.approx(3.0, abs=1e-12)
    assert (out.iterations, out.sign_changes) == (2, 0)


def test_plain_power_iteration_stops_on_a_collapsed_iterate():
    # The nilpotent block maps its second iterate, (1, 0), to zero.
    out = core.power_iteration([[0.0, 1.0], [0.0, 0.0]])
    assert not out.converged
    assert (out.value, out.iterations) == (0.0, 2)


def test_shifted_iteration_converges_where_plain_stalls():
    pair = core.selected_leading_eigenpair(goldens.OSCILLATING_3)
    assert pair.residual <= 1e-12
    assert pair.value == pytest.approx(goldens.OSCILLATING_3_ABSCISSA, abs=1e-9)


DENSE_5 = np.array([
    [-2.0, 0.3, 0.8, 0.1, 0.6],
    [0.9, -1.0, 0.2, 0.7, 0.4],
    [0.5, 0.6, -3.0, 0.3, 0.9],
    [0.2, 0.8, 0.4, 0.5, 0.1],
    [0.7, 0.1, 0.6, 0.9, -0.5],
])


@pytest.mark.parametrize("a", [goldens.OSCILLATING_3, DENSE_5, LARGE_BLOCK_70],
                         ids=["oscillating_3", "dense_5", "large_70"])
@pytest.mark.parametrize("s", [1e-6, 1e-3, 1.0, 1e3, 1e6, 1e8])
def test_power_shift_follows_the_scale(a, s):
    # The shift is relative to the block's entries, so the iteration count
    # does not grow as the matrix shrinks. The two small inputs take the
    # certified step after 30 iterations; the 70-node block, above
    # DENSE_FALLBACK_DIM, runs the power loop until it converges. The
    # stopping test is absolute (tol on the residual), which bounds the
    # value's error by tol rather than by tol relative at the smallest
    # scale; at the largest scales the residual stops at its rounding floor,
    # 16 eps times the value.
    want = s * float(np.linalg.eigvals(a).real.max())
    pair = core.selected_leading_eigenpair(s * a)
    assert pair.iterations <= 100
    assert pair.value == pytest.approx(want, rel=1e-9, abs=core.DEFAULT_TOL)


def test_power_iteration_budget_error():
    # max_iter caps the power iterations of a block: one above
    # DENSE_FALLBACK_DIM nodes raises when they run out, a smaller one takes
    # the certified step.
    with pytest.raises(IterationLimitError) as err:
        core.selected_leading_eigenpair(LARGE_BLOCK_70, max_iter=3)
    assert err.value.best is not None
    assert err.value.best.iterations == 3
    pair = core.selected_leading_eigenpair(goldens.OSCILLATING_3, max_iter=3)
    assert pair.method == "certified"
    assert pair.value == pytest.approx(goldens.OSCILLATING_3_ABSCISSA, abs=1e-12)


def test_fallback_handles_defective_leading_pair():
    # Shifted power method on [[0,1],[0,0]] converges like 1/k and times out;
    # the dense fallback still reports eta = 0.
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    pair = core.selected_leading_eigenpair(a, max_iter=500)
    assert pair.value == pytest.approx(0.0, abs=1e-9)


def _with_a_node(block: np.ndarray) -> np.ndarray:
    # ``block`` and one more node at -5 that points into it: reducible.
    d = block.shape[0]
    a = np.zeros((d + 1, d + 1))
    a[:d, :d] = block
    a[d, d] = -5.0
    a[d, 0] = 1.0
    return a


def test_fallback_respects_dense_dim_cap():
    # A stalled irreducible block above DENSE_FALLBACK_DIM still raises.
    assert LARGE_BLOCK_70.shape[0] > core.DENSE_FALLBACK_DIM
    with pytest.raises(IterationLimitError):
        core.selected_leading_eigenpair(LARGE_BLOCK_70, max_iter=3)
    # An acyclic pattern splits into single nodes and needs no iteration.
    a = np.zeros((3, 3))
    a[0, 1] = 1.0
    pair = core.selected_leading_eigenpair(a, max_iter=200)
    assert pair.value == 0.0
    assert pair.iterations == 0


def test_fallback_escapes_per_irreducible_block():
    # OSCILLATING_3 stalls at max_iter=3; inside a reducible matrix it is one
    # block, solved by the certified step while the single node is read off
    # its diagonal. A stalled block above DENSE_FALLBACK_DIM still raises
    # inside a reducible matrix.
    pair = core.selected_leading_eigenpair(_with_a_node(goldens.OSCILLATING_3),
                                           max_iter=3)
    assert pair.method == "certified"
    assert pair.value == pytest.approx(goldens.OSCILLATING_3_ABSCISSA, abs=1e-12)
    assert pair.iterations >= 3
    assert pair.residual <= 1e-12
    with pytest.raises(IterationLimitError):
        core.selected_leading_eigenpair(_with_a_node(LARGE_BLOCK_70), max_iter=3)


def _subnormal_cycle(d):
    # An irreducible d-cycle of weight 5e-324 on the diagonal -6: the power
    # shift and every product underflow, so the first Rayleigh value is 0.
    a = np.roll(np.eye(d), 1, axis=1) * 5e-324
    return a - 6.0 * np.eye(d)


def test_power_loop_stops_at_an_underflowed_rayleigh_value():
    # It used to divide by that 0 and spend its whole budget on NaN.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = core.selected_leading_eigenpair(_subnormal_cycle(3))
        assert pair.value == pytest.approx(-6.0, abs=1e-12)
        assert pair.method == "certified"
        assert pair.iterations <= 1
        with pytest.raises(IterationLimitError) as info:
            core.selected_leading_eigenpair(_subnormal_cycle(core.DENSE_FALLBACK_DIM + 6))
    assert info.value.best.iterations <= 1


def test_method_and_bracket_compose_over_blocks():
    # All single nodes: the value is read off the diagonal, exactly.
    pair = core.selected_leading_eigenpair(goldens.STABLE_5)
    assert pair.method == "diagonal"
    assert pair.bracket == (pair.value, pair.value)
    # One irreducible block and one node: the block's method and bracket.
    # SWAP_2 settles in 2 power iterations; OSCILLATING_3 needs more than 30.
    for block, value, method in ((goldens.SWAP_2, 2.0, "power"),
                                 (goldens.OSCILLATING_3,
                                  goldens.OSCILLATING_3_ABSCISSA, "certified")):
        pair = core.selected_leading_eigenpair(_with_a_node(block))
        assert pair.method == method
        lo, hi = pair.bracket
        assert lo <= value <= hi
        assert lo <= pair.value <= hi


def test_a_stalling_small_block_leaves_the_power_loop_by_its_rate(monkeypatch):
    # OSCILLATING_3's residual cannot reach tol within the budget of 30, so
    # the rate test hands it to the certified step early. That step solves
    # the block afresh: only ``iterations`` depends on when the loop ends.
    block = goldens.OSCILLATING_3
    pair = core.selected_leading_eigenpair(block)
    assert pair.method == "certified"
    assert pair.iterations < core._POWER_BUDGET
    ref = core._certified_pair(block, core.DEFAULT_TOL, pair.iterations)
    assert pair.value == ref.value
    assert np.array_equal(pair.vector, ref.vector)
    assert pair.bracket == ref.bracket
    # Without the rate test it spends the whole budget on the same answer.
    monkeypatch.setattr(core, "_RATE_START", core._POWER_BUDGET + 1)
    full = core.selected_leading_eigenpair(block)
    assert (full.method, full.iterations) == ("certified", core._POWER_BUDGET)
    assert full.value == pair.value and full.bracket == pair.bracket


def _steady_blocks():
    # 2-node blocks, whose residual falls at one fixed ratio, that settle in
    # 27 and 29 iterations, and dense positive blocks with a wide gap.
    yield np.array([[0.0, 1.0], [0.5, -0.5]])
    yield np.array([[0.0, 1.0], [3.0, -1.0]])
    rng = np.random.default_rng(0)
    for d in (3, 5, 8, 12, 20, 40):
        yield 1.0 + 0.5 * rng.random((d, d)) - np.diag(rng.random(d))


@pytest.mark.parametrize("block", list(_steady_blocks()),
                         ids=lambda b: f"d{b.shape[0]}")
def test_a_converging_small_block_keeps_its_power_pair(monkeypatch, block):
    pair = core.selected_leading_eigenpair(block)
    monkeypatch.setattr(core, "_RATE_START", core._POWER_BUDGET + 1)
    ref = core.selected_leading_eigenpair(block)
    assert pair.method == ref.method == "power"
    assert pair.iterations == ref.iterations
    assert pair.value == ref.value
    assert np.array_equal(pair.vector, ref.vector)
    assert pair.bracket == ref.bracket


def _reach(a: np.ndarray) -> np.ndarray:
    # reach[i, j]: j is reachable from i along nonzero off-diagonal entries.
    d = a.shape[0]
    reach = (a != 0) | np.eye(d, dtype=bool)
    for _ in range(d):
        reach = (reach.astype(int) @ reach.astype(int)) > 0
    return reach


def test_strong_components_order_and_membership():
    rng = np.random.default_rng(11)
    for _ in range(200):
        d = int(rng.integers(1, 9))
        a = rng.random((d, d)) * (rng.random((d, d)) < float(rng.uniform(0.1, 0.6)))
        comps = core.strong_components(a)
        assert sorted(int(i) for c in comps for i in c) == list(range(d))
        reach = _reach(a)
        mutual = reach & reach.T
        position = np.empty(d, dtype=int)
        for k, c in enumerate(comps):
            position[c] = k
            assert mutual[np.ix_(c, c)].all()
        assert np.array_equal(mutual, position[:, None] == position[None, :])
        rows, cols = np.nonzero(a)
        assert (position[cols] <= position[rows]).all()
    # every off-diagonal entry nonzero: one component, whatever the diagonal
    assert [c.tolist() for c in core.strong_components(np.ones((4, 4)) - np.eye(4))] == [
        [0, 1, 2, 3]]


def _graph_components(a):
    # Reference: strong components of the whole pattern from csgraph, each
    # placed after every component it points to, ties by label.
    pattern = np.asarray(a) != 0
    n, labels = connected_components(sp.csr_matrix(pattern.astype(float)),
                                     directed=True, connection="strong")
    rows, cols = np.nonzero(pattern)
    points = np.zeros((n, n), dtype=bool)
    points[labels[rows], labels[cols]] = True
    np.fill_diagonal(points, False)
    order = []
    while len(order) < n:
        order += [c for c in range(n) if c not in order
                  and all(t in order for t in np.flatnonzero(points[c]))]
    return tuple(np.flatnonzero(labels == c) for c in order)


def _assert_same_components(a):
    got, want = core.strong_components(a), _graph_components(a)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    return got


def _out_star(d):
    a = np.zeros((d, d))
    a[0, 1:] = 1.0
    return a


def _out_star_with_cycles():
    # Every row and column has an off-diagonal entry, and node 0 reaches
    # every node, but nodes 3 and 4 do not reach node 0: components {0, 1, 2}
    # and {3, 4}.
    a = _out_star(5)
    a[1, 0] = a[1, 2] = a[2, 1] = a[3, 4] = a[4, 3] = 1.0
    return a


def _dense_missing_column(d):
    a = np.ones((d, d))
    a[:, 2] = 0.0
    a[2, 2] = 1.0
    return a


def test_strong_components_matches_the_graph_search():
    rng = np.random.default_rng(505)
    singles = 0
    for _ in range(600):
        d = int(rng.integers(1, 61))
        density = float(rng.uniform(0.02, 0.9))
        a = rng.random((d, d)) * (rng.random((d, d)) < density)
        singles += len(_assert_same_components(a)) == 1
    assert min(singles, 600 - singles) >= 50  # both sides of the shortcut


@pytest.mark.parametrize("a,count", [
    (_out_star(6), 6),
    (_out_star(6).T, 6),
    (_out_star_with_cycles(), 2),
    (_out_star_with_cycles().T, 2),
    (_dense_missing_column(7), 2),
    (np.array([[-1.0]]), 1),
    (np.array([[0.0, 2.0], [3.0, 0.0]]), 1),
], ids=["out-star", "in-star", "out-star-with-cycles", "in-star-with-cycles",
        "dense-missing-column", "d1", "two-cycle"])
def test_strong_components_pinned_patterns(a, count):
    assert len(_assert_same_components(a)) == count


def _assert_placed_after_targets(a, comps):
    position = np.full(len(a), -1)
    for k, c in enumerate(comps):
        position[c] = k
    assert (position >= 0).all()
    rows, cols = np.nonzero(a)
    assert (position[cols] <= position[rows]).all()


def _seeded_patterns(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(1, 61))
        yield rng.random((d, d)) * (rng.random((d, d)) < float(rng.uniform(0.02, 0.9)))


def test_eigen_path_components_match_strong_components():
    # The eigen path takes csgraph's label order: the same components as
    # strong_components, each still after every component it points to.
    split = 0
    for a in _seeded_patterns(600, 606):
        comps = core._components(a)
        want = core.strong_components(a)
        assert {tuple(c) for c in comps} == {tuple(c) for c in want}
        assert len(comps) == len(want)
        _assert_placed_after_targets(a, comps)
        split += len(comps) > 1
    assert min(split, 600 - split) >= 50


# Two Jordan chains of length 2 on the eigenvalue 1 (defective).
EQUAL_DIAGONAL_CHAIN = np.array([
    [1.0, 1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 2.0],
    [0.0, 0.0, 0.0, 1.0],
])
# Blocks {0,1} and {2,3} both have Perron root 1; node 4 (value 0) points
# to both and shares their pole order.
TWO_CRITICAL_BLOCKS = np.array([
    [0.0, 1.0, 0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 2.0, 0.0],
    [0.0, 0.0, 0.5, 0.0, 0.0],
    [1.0, 0.0, 1.0, 0.0, 0.0],
])
TWO_CRITICAL_VECTOR = np.array([1.0, 1.0, 1.5, 0.75, 2.5]) / 6.75
# Critical block {0,1} (Perron root 2), fed by node 4, feeds the
# non-critical block {2,3} (Perron root 1).
CRITICAL_FEEDS_NONCRITICAL = np.array([
    [1.0, 2.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 1.0, 0.0],
    [0.0, 2.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, -1.0],
])


@pytest.mark.parametrize("a", [EQUAL_DIAGONAL_CHAIN, TWO_CRITICAL_BLOCKS,
                               CRITICAL_FEEDS_NONCRITICAL],
                         ids=["equal-diagonal-chain", "two-critical-blocks",
                              "critical-feeds-noncritical"])
def test_selected_vector_matches_exact_limit(a):
    value, vector = exact.selected_pair(a)
    pair = core.selected_leading_eigenpair(a)
    assert pair.value == pytest.approx(value, abs=1e-12)
    np.testing.assert_allclose(pair.vector, vector, rtol=0.0, atol=1e-12)
    assert pair.residual <= 1e-12


def test_selected_vector_worked_examples():
    np.testing.assert_allclose(exact.selected_pair(EQUAL_DIAGONAL_CHAIN)[1],
                               [1 / 3, 0.0, 2 / 3, 0.0], atol=1e-15)
    np.testing.assert_allclose(exact.selected_pair(TWO_CRITICAL_BLOCKS)[1],
                               TWO_CRITICAL_VECTOR, atol=1e-15)


def test_selected_vector_on_long_chain_with_large_entries():
    # A 200-node chain with equal diagonals: node 0 carries a pole of order
    # 200 with coefficient 1e8**199, far beyond the float range.
    d = 200
    a = np.diag(np.full(d - 1, 1e8), 1) - 0.5 * np.eye(d)
    pair = core.selected_leading_eigenpair(a)
    assert pair.value == -0.5
    np.testing.assert_array_equal(pair.vector, np.eye(d)[0])
    assert pair.iterations == 0


@pytest.mark.parametrize("weight", [1e8, 1e-8], ids=["large", "small"])
def test_selected_vector_keeps_the_float_range_on_a_noncritical_chain(weight):
    # 199 non-critical nodes (diagonal -1) chained to one critical node
    # (diagonal 0) all share pole order 1, and node i carries
    # weight**(199 - i) times the last node's coefficient: 1e+-1592 at the
    # far end, past the float range either way. The vector keeps the nodes
    # within range of its peak, each to rounding; the rest underflow to 0.
    d = 200
    a = np.diag(np.full(d - 1, weight), 1) - np.eye(d)
    a[-1, -1] = 0.0
    pair = core.selected_leading_eigenpair(a)
    steps = np.arange(d) if weight > 1.0 else np.arange(d)[::-1]
    expected = min(weight, 1.0 / weight) ** steps
    expected /= expected.sum()
    assert pair.value == 0.0
    assert np.isfinite(pair.vector).all()
    # Relative 1e-12 wherever the entry is a normal float.
    np.testing.assert_allclose(pair.vector, expected, rtol=1e-12,
                               atol=np.finfo(float).tiny)
    assert pair.residual <= 1e-12


def _layered_reducible(rng):
    # 1 to 3 critical blocks of value 1 (a single node with diagonal 1, or a
    # k-cycle with diagonal c and weights 1 - c), non-critical single nodes
    # and blocks of value at most 1/2, most single nodes chained to the block
    # before them, random edges to earlier blocks, the nodes shuffled. Dyadic
    # entries keep the critical values exact.
    d = int(rng.integers(2, 61))
    sizes = []
    while sum(sizes) < d:
        size = 1 if rng.random() < 0.6 else int(rng.integers(2, 7))
        sizes.append(min(size, d - sum(sizes)))
    n = len(sizes)
    critical = set(rng.choice(n, size=min(n, int(rng.integers(1, 4))), replace=False).tolist())
    a = np.zeros((d, d))
    start = 0
    for k, size in enumerate(sizes):
        nodes = np.arange(start, start + size)
        if k in critical and size == 1:
            a[start, start] = 1.0
        elif k in critical:
            c = int(rng.integers(0, 4)) / 4
            a[nodes, nodes] = c
            a[nodes, np.roll(nodes, -1)] = 1.0 - c
        elif size == 1:
            a[start, start] = int(rng.integers(-128, 33)) / 64
        else:  # row sums below 1/2 bound the value
            block = rng.integers(0, 33, (size, size)) / (64 * size)
            block[nodes - start, np.roll(nodes, -1) - start] = 1.0 / (2 * size)
            np.fill_diagonal(block, -rng.integers(0, 128, size) / 64)
            a[np.ix_(nodes, nodes)] = block
        if start:
            edges = rng.random((size, start)) < rng.uniform(0.02, 0.3)
            a[start:start + size, :start] = edges * rng.integers(1, 65, (size, start)) / 64
            if size == 1 and rng.random() < 0.7:
                a[start, start - 1] = int(rng.integers(1, 65)) / 64
        start += size
    perm = rng.permutation(d)
    return a[np.ix_(perm, perm)], len(critical)


def test_selected_vector_matches_the_per_component_substitution():
    rng = np.random.default_rng(2306)
    criticals = collections.Counter()
    for _ in range(300):
        a, count = _layered_reducible(rng)
        criticals[count] += 1
        pair = core.selected_leading_eigenpair(a)
        want = oracles.selected_vector_by_components(a)
        assert pair.value == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(pair.vector, want, rtol=0.0,
                                   atol=1e-13 * want.max(), err_msg=str(a))
    assert min(criticals.values()) >= 50


def test_selected_vector_matches_the_substitution_on_triangular_orders():
    # 60 single nodes with distinct diagonals in (-1, 0) under a dense
    # triangle: the order systems have small pivots next to entries near 1.
    # Substituting from the nodes pointed to adds nonnegative terms only;
    # an LU that swapped rows here lost up to the whole vector.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = np.triu(rng.random((60, 60)), 1) - np.diag(rng.random(60))
        if seed % 2:
            a = a[::-1, ::-1].copy()
        want = oracles.selected_vector_by_components(a)
        np.testing.assert_allclose(core.selected_leading_eigenpair(a).vector, want,
                                   rtol=0.0, atol=1e-13 * want.max())


def test_selected_vector_matches_exact_limit_on_random_reducible():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 40:
        d = int(rng.integers(3, 6))
        a = rng.integers(0, 3, (d, d)) * (rng.random((d, d)) < 0.45)
        np.fill_diagonal(a, rng.integers(-2, 2, d))
        a = a.astype(float)
        if _reach(a).all():
            continue  # irreducible
        value, vector = exact.selected_pair(a)
        pair = core.selected_leading_eigenpair(a)
        assert pair.value == pytest.approx(value, abs=1e-12), a
        np.testing.assert_allclose(pair.vector, vector, rtol=0.0, atol=1e-12,
                                   err_msg=str(a))
        checked += 1


def test_hurwitz_certificate():
    assert core.is_hurwitz_stable(goldens.STABLE_5)
    assert not core.is_hurwitz_stable(goldens.UNSTABLE_5)
    # weakly stable boundary case: invertibility fails but eta <= 0
    assert not core.is_hurwitz_stable(np.zeros((2, 2)))


def test_schur_certificate():
    assert core.is_schur_stable([[0.5]])
    assert not core.is_schur_stable(goldens.SPIN_2)
    assert not core.is_schur_stable(np.eye(2))
    assert core.is_schur_stable(np.eye(2) * 1.5, level=2.0)


def test_level_resolvent_is_none_on_a_singular_matrix():
    # level I - A = [[1, 1], [1, 1]] at level 2.
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert core._level_resolvent(a, 2.0, np.ones(2)) is None


def test_level_resolvent_rejects_an_entry_past_its_relative_guard():
    # At level 0, -A = diag(1, -1e3) gives y = (1, -1e-3): the negative
    # entry is 1e-3 of the largest at every scale.
    for s in (2.0**-27, 1.0, 2.0**27, 2.0**50):
        a = s * np.diag([-1.0, 1e3])
        assert core._level_resolvent(a, 0.0, np.ones(2)) is None


def test_level_resolvent_keeps_rounding_noise_unchanged():
    # -A = diag(1, -1e16) gives y = (1, -1e-16): far inside the guard, and
    # returned as the solve gives it.
    for s in (2.0**-27, 1.0, 2.0**27, 2.0**50):
        a = s * np.diag([-1.0, 1e16])
        y = core._level_resolvent(a, 0.0, np.ones(2))
        np.testing.assert_array_equal(y, np.linalg.solve(-a, np.ones(2)))
        assert y[1] < 0.0


def test_monotonicity_in_the_metzler_order():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.uniform(0.0, 1.0, (4, 4)) - np.diag(rng.uniform(0.0, 3.0, 4))
        p = rng.uniform(0.0, 0.5, (4, 4)) * (rng.random((4, 4)) < 0.5)
        assert core.spectral_abscissa(a + p) >= core.spectral_abscissa(a) - 1e-9


def test_near_nilpotent_block_has_the_exact_value():
    # -6I plus a nearly nilpotent part with subnormal weights t: the leading
    # eigenvalue is -6 + O(t^(1/3)), which rounds to -6. The power loop
    # converges like 1/k here, and a dense eig is off by about eps^(1/3).
    t = 2.2e-308
    a = np.array([[t, t, t], [1.0, t, 1.0], [1.0, t, t]]) - 6.0 * np.eye(3)
    pair = core.selected_leading_eigenpair(a)
    assert pair.value == pytest.approx(-6.0, abs=1e-12)
    assert pair.bracket[0] <= -6.0 <= pair.bracket[1]
    assert pair.method == "bisect"
    assert pair.iterations <= 30


def _irreducible_block(rng, d, nearly_nilpotent):
    # Dyadic entries keep the exact characteristic polynomial cheap.
    if nearly_nilpotent:
        # 0.1I plus a strictly upper triangular part closed into one cycle
        # by a tiny corner entry: eigenvalues 0.1 + O(corner^(1/d)).
        a = np.triu(np.round(rng.random((d, d)) * 64) / 64, 1)
        a[np.arange(d - 1), np.arange(1, d)] += 0.5
        a[d - 1, 0] = 2.0 ** -int(rng.integers(20, 60))
        return a + 0.1 * np.eye(d)
    while True:
        density = rng.uniform(0.3, 1.0)
        a = np.round(rng.random((d, d)) * 64) / 64 * (rng.random((d, d)) < density)
        np.fill_diagonal(a, -np.round(rng.random(d) * 192) / 64)
        if len(core.strong_components(a)) == 1:
            return a


def test_bracket_holds_the_exact_value_on_random_irreducible_blocks():
    rng = np.random.default_rng(606)
    methods = collections.Counter()
    for n in range(80):
        d = int(rng.integers(2, 13))
        a = _irreducible_block(rng, d, nearly_nilpotent=n % 4 == 0)
        value, vector = exact.perron_pair(a)
        pair = core.selected_leading_eigenpair(a)
        methods[pair.method] += 1
        lo, hi = pair.bracket
        assert lo <= value <= hi, (a, pair.method)
        assert lo <= pair.value <= hi
        if pair.method != "power":  # a power bracket is not held to tol
            assert hi - lo <= 2.5 * core.DEFAULT_TOL * max(1.0, abs(value))
        eigs = np.linalg.eigvals(a)
        gap = np.sort(np.abs(eigs - value))[1] / max(1.0, abs(value))
        if gap >= 1e-3:
            np.testing.assert_allclose(pair.vector, vector, rtol=0.0, atol=1e-9,
                                       err_msg=f"{pair.method}\n{a}")
    assert min(methods[m] for m in ("power", "certified", "bisect")) >= 5


def test_eigen_path_components_fall_back_to_the_level_order(monkeypatch):
    # Labels that break the order csgraph gives (reversed: targets after
    # their sources) send _components to the level order.
    cases = (EQUAL_DIAGONAL_CHAIN, TWO_CRITICAL_BLOCKS, CRITICAL_FEEDS_NONCRITICAL)
    wants = [core.selected_leading_eigenpair(a) for a in cases]
    fallbacks = collections.Counter()

    def reversed_labels(*args, **kwargs):
        n, labels = original(*args, **kwargs)
        return n, n - 1 - labels

    def counted(*args):
        fallbacks["level"] += 1
        return level_order(*args)

    original, level_order = core.connected_components, core._level_order
    monkeypatch.setattr(core, "connected_components", reversed_labels)
    monkeypatch.setattr(core, "_level_order", counted)
    for a in _seeded_patterns(200, 707):
        _assert_placed_after_targets(a, core._components(a))
    assert fallbacks["level"] >= 30
    for a, want in zip(cases, wants):
        before = fallbacks["level"]
        pair = core.selected_leading_eigenpair(a)
        assert fallbacks["level"] == before + 1
        assert pair.value == pytest.approx(want.value, abs=1e-15)
        np.testing.assert_allclose(pair.vector, want.vector, rtol=0.0, atol=1e-15)


def test_a_left_solve_singular_at_large_scale_keeps_the_selected_vector(monkeypatch):
    # Two copies of the block [[0, 1], [1, 0]], the first pointing to the
    # second: both are critical. The left solve's rank-one term u u^T is not
    # in the block's units, so from a scale of about 1e16 on the resolvent
    # finds (value I - B^T + u u^T) singular and w = u serves.
    chain = np.array([[0, 1, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)
    resolvent, solves = core._level_resolvent, []

    def spy(a, level, rhs):
        solves.append(resolvent(a, level, rhs))
        return solves[-1]

    monkeypatch.setattr(core, "_level_resolvent", spy)
    for s, falls_back in ((1.0, False), (1e15, False), (1e100, True)):
        solves.clear()
        pair = core.selected_leading_eigenpair(s * chain)
        assert pair.value == s
        np.testing.assert_array_equal(pair.vector, [0.5, 0.5, 0.0, 0.0])
        assert [y is None for y in solves] == [falls_back] * 2
