import dataclasses

import numpy as np
import pytest

from metzstab import core, family, gen
from metzstab.errors import PreconditionError
from metzstab.family import (
    FrobeniusSplit,
    GreedyOutcome,
    ProductFamily,
    UncertaintySet,
    frobenius_blocks,
    optimize_with_irreducibility_patch,
    row_optimize,
    selective_greedy,
)

import helpers
import oracles


def two_row_family():
    return ProductFamily((
        UncertaintySet(0, [[-1.0, 2.0], [-3.0, 1.0]]),
        UncertaintySet(1, [[1.0, -2.0], [0.5, 0.0]]),
    ))


def test_uncertainty_set_rejects_negative_offdiagonal():
    with pytest.raises(PreconditionError):
        UncertaintySet(0, [[0.0, -1.0]])
    # the diagonal position may be negative
    UncertaintySet(1, [[2.0, -7.0]])


def test_family_shape_validation():
    with pytest.raises(ValueError):
        ProductFamily((UncertaintySet(0, [[0.0, 1.0]]),))
    with pytest.raises(ValueError):
        ProductFamily((
            UncertaintySet(1, [[1.0, 0.0]]),
            UncertaintySet(0, [[0.0, 1.0]]),
        ))


def test_row_optimize_worked_example():
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    v = np.array([2.0, 1.0])
    assert row_optimize(rows, v, "max") == 0
    assert row_optimize(rows, v, "min") == 1


def test_row_optimize_keeps_incumbent_on_tie():
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    v = np.array([1.0, 1.0])
    assert row_optimize(rows, v, "max", incumbent=1) == 1
    assert row_optimize(rows, v, "max", incumbent=0) == 0
    # without an incumbent ties resolve to the first index
    assert row_optimize(rows, v, "max") == 0


def test_row_optimize_matches_linear_scan():
    rng = np.random.default_rng(5)
    for _ in range(100):
        rows = rng.uniform(-1.0, 1.0, (6, 4))
        v = rng.uniform(0.0, 1.0, 4)
        scores = rows @ v
        assert row_optimize(rows, v, "max") == int(np.argmax(scores))
        assert row_optimize(rows, v, "min") == int(np.argmin(scores))


def test_singleton_family_fixes_in_one_sweep():
    fam = ProductFamily((
        UncertaintySet(0, [[-2.0, 1.0]]),
        UncertaintySet(1, [[1.0, -2.0]]),
    ))
    out = selective_greedy(fam, "max")
    assert out.iterations == 1
    assert out.row_choices == (0, 0)
    assert out.abscissa == pytest.approx(-1.0, abs=1e-9)


def test_greedy_matches_exhaustive_scan_both_directions():
    rng = np.random.default_rng(17)
    for _ in range(15):
        fam = gen.generate_family(4, 3, kind="full", rng=rng)
        menus = [s.rows for s in fam.sets]
        got_max = optimize_with_irreducibility_patch(fam)
        want_max, _ = oracles.family_vertex_optimum(menus, "max")
        assert got_max.abscissa == pytest.approx(want_max, abs=1e-8)
        got_min = selective_greedy(fam, "min")
        want_min, _ = oracles.family_vertex_optimum(menus, "min")
        assert got_min.abscissa == pytest.approx(want_min, abs=1e-8)


def test_greedy_trace_is_monotone_and_acyclic():
    rng = np.random.default_rng(29)
    for _ in range(10):
        fam = gen.generate_family(6, 4, kind="full", rng=rng)
        out = selective_greedy(fam, "max")
        choices, trace = zip(*out.trace)
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
        assert len(set(choices)) == len(choices)
        out = selective_greedy(fam, "min")
        _, trace = zip(*out.trace)
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def test_fixed_point_rows_are_scorewise_optimal():
    """At the greedy's fixed point with a positive eigenvector, every chosen
    row maximizes the inner product with that eigenvector over its menu."""
    rng = np.random.default_rng(43)
    fam = gen.generate_family(5, 4, kind="full", rng=rng)
    out = optimize_with_irreducibility_patch(fam)
    assert out.eigenvector.min() > 0.0
    for i, s in enumerate(fam.sets):
        chosen = float(s.rows[out.row_choices[i]] @ out.eigenvector)
        best = float((s.rows @ out.eigenvector).max())
        assert chosen >= best - 1e-9 * max(1.0, abs(best))


def test_frobenius_blocks_single_component():
    fam = gen.generate_family(4, 2, kind="full", rng=np.random.default_rng(3))
    split = frobenius_blocks(fam)
    assert isinstance(split, FrobeniusSplit)
    assert split.blocks == ((0, 1, 2, 3),)


def test_frobenius_blocks_diagonal_family():
    fam = ProductFamily((
        UncertaintySet(0, [[-1.0, 0.0], [-2.0, 0.0]]),
        UncertaintySet(1, [[0.0, -3.0]]),
    ))
    split = frobenius_blocks(fam)
    assert len(split.blocks) == 2
    assert {b for block in split.blocks for b in block} == {0, 1}


def test_the_union_pattern_matches_a_per_set_reference():
    # The split reads the union pattern of the family's one array of rows;
    # a per-menu `any` gives the same blocks and the same subfamily rows.
    rng = np.random.default_rng(2031)
    for _ in range(30):
        d, count = int(rng.integers(2, 12)), int(rng.integers(1, 4))
        fam = gen.generate_family(d, count, kind="sparse", density=(0.05, 0.4), rng=rng)
        union = np.array([(s.rows != 0.0).any(axis=0) for s in fam.sets])
        blocks = tuple(tuple(int(k) for k in cols)
                       for cols in core.strong_components(union)[::-1])
        split = frobenius_blocks(fam)
        assert split.blocks == blocks
        for nodes, sub in zip(blocks, split.subfamilies):
            for s, node in zip(sub.sets, nodes):
                np.testing.assert_array_equal(s.rows, fam.sets[node].rows[:, list(nodes)])


def test_patch_resolves_block_diagonal_maximum():
    # Every member is reducible, so the plain greedy cannot certify and the
    # patch must still land on the true max.
    fam = helpers.block_diagonal_family()
    want, _ = oracles.family_vertex_optimum([s.rows for s in fam.sets], "max")
    out = optimize_with_irreducibility_patch(fam)
    assert out.abscissa == pytest.approx(want, abs=1e-8)
    assert core.spectral_abscissa(out.matrix) == pytest.approx(want, abs=1e-8)


def test_the_split_gives_each_block_its_own_start_choices():
    # The split hands each block the start choices of its own nodes, so a
    # start for the whole family reaches the blockwise optimum.
    fam = helpers.block_diagonal_family()
    want, _ = oracles.family_vertex_optimum([s.rows for s in fam.sets], "max")
    default = optimize_with_irreducibility_patch(fam)
    for start in ((0, 0, 0, 0), (1, 0, 1, 1)):
        out = optimize_with_irreducibility_patch(fam, start_choices=start)
        assert out.abscissa == pytest.approx(default.abscissa, abs=1e-8)
        assert out.abscissa == pytest.approx(want, abs=1e-8)


def test_a_flagged_maximization_runs_one_greedy_per_frobenius_block(monkeypatch):
    # The block-diagonal family: the plain greedy is flagged, and the split
    # runs one greedy on each of its two blocks and nothing more.
    runs = []

    def recorded(fam, *args, **kwargs):
        runs.append(fam.dim)
        return original(fam, *args, **kwargs)

    original = family.selective_greedy
    monkeypatch.setattr(family, "selective_greedy", recorded)
    test_patch_resolves_block_diagonal_maximum()
    blocks = frobenius_blocks(helpers.block_diagonal_family()).blocks
    assert len(runs) == 1 + len(blocks) == 3
    assert runs == [4, 2, 2]


def test_flagged_sparse_maximizations_reach_the_vertex_optimum():
    # Sparse families whose plain greedy is flagged (142 of the 200 draws)
    # take the Frobenius split, which must land on the exhaustive optimum.
    rng = np.random.default_rng(2027)
    flagged = 0
    for _ in range(200):
        d, count = int(rng.integers(3, 7)), int(rng.integers(2, 4))
        fam = gen.generate_family(d, count, kind="sparse", density=(0.1, 0.5), rng=rng)
        if not selective_greedy(fam, "max").reducibility_flag:
            continue
        flagged += 1
        want, _ = oracles.family_vertex_optimum([s.rows for s in fam.sets], "max")
        out = optimize_with_irreducibility_patch(fam)
        assert out.abscissa == pytest.approx(want, abs=1e-8)
    assert flagged == 142


def test_patch_leaves_irreducible_outcome_alone():
    rng = np.random.default_rng(59)
    fam = gen.generate_family(4, 3, kind="full", rng=rng)
    plain = selective_greedy(fam, "max")
    patched = optimize_with_irreducibility_patch(fam)
    assert not plain.reducibility_flag
    assert patched.row_choices == plain.row_choices


def test_the_split_maximizes_a_flagged_two_by_two_blockwise():
    # From (0, 0), plain greedy stops there, eta = 1, on the vector (1, 0).
    # The union graph has blocks {1} and {0}: menu 1 picks its row 1 (2.0)
    # and menu 0 keeps its row 0 (1.0), so the member (0, 1) reaches 2.0.
    # The default start, each menu's largest row sum, is (0, 1) itself.
    fam = ProductFamily((
        UncertaintySet(0, [[1.0, 1.0], [-2.0, 0.0]]),
        UncertaintySet(1, [[0.0, -2.0], [0.0, 2.0]]),
    ))
    default = selective_greedy(fam, "max")
    assert (default.row_choices, default.iterations) == ((0, 1), 1)
    assert default.abscissa == pytest.approx(2.0, abs=1e-12)
    assert not default.reducibility_flag
    plain = selective_greedy(fam, "max", start_choices=(0, 0))
    assert plain.reducibility_flag
    assert (plain.row_choices, plain.abscissa) == ((0, 0), 1.0)
    out = optimize_with_irreducibility_patch(fam, start_choices=(0, 0))
    assert out.reducibility_flag
    assert out.row_choices == (0, 1)
    assert out.abscissa == pytest.approx(2.0, abs=1e-12)
    assert out.trace == (((0, 1), out.abscissa),)
    assert np.array_equal(out.matrix, fam.matrix((0, 1)))


def _random_menus(rng, d):
    # Menus of unequal sizes with exact duplicate rows and entries on a
    # coarse grid, so scores tie exactly as well as within the tie band.
    sizes = rng.integers(1, 6, size=d)
    menus = []
    for i, m in enumerate(sizes):
        rows = rng.integers(0, 5, size=(m, d)) / 4.0
        rows[:, i] -= rng.integers(0, 9, size=m) / 4.0
        if m > 1 and rng.random() < 0.5:
            rows[rng.integers(1, m)] = rows[0]
        menus.append(rows)
    return menus


def _row_optimize_on(scores, offsets, sizes, choices, direction):
    # row_optimize menu by menu on scores computed once: a one-column row
    # times 1.0 gives the score back exactly.
    return [row_optimize(scores[o:o + m, None], np.ones(1), direction,
                         incumbent=c)
            for o, m, c in zip(offsets, sizes, choices)]


@pytest.mark.parametrize("direction", ["max", "min"])
def test_greedy_equals_a_row_by_row_reference(direction):
    # The whole greedy against a loop that calls row_optimize per menu on
    # the same score vector, from random incumbents.
    rng = np.random.default_rng(82)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        fam = ProductFamily(tuple(UncertaintySet(i, rows) for i, rows
                                  in enumerate(_random_menus(rng, d))))
        allrows = np.concatenate([s.rows for s in fam.sets])
        offsets = np.cumsum([0, *fam.sizes[:-1]])
        choices = rng.integers(0, fam.sizes).tolist()
        out = selective_greedy(fam, direction, start_choices=choices)
        trace = [tuple(choices)]
        for it in range(1, 201):
            pair = core.selected_leading_eigenpair(fam.matrix(choices))
            new = _row_optimize_on(allrows @ pair.vector, offsets, fam.sizes,
                                   choices, direction)
            if new == choices:
                break
            choices = new
            trace.append(tuple(choices))
        assert out.row_choices == tuple(choices)
        assert tuple(c for c, _ in out.trace) == tuple(trace)
        assert out.iterations == it
        assert out.abscissa == pair.value
        assert np.array_equal(out.matrix, fam.matrix(choices))


@pytest.mark.parametrize("direction", ["max", "min"])
def test_the_default_start_is_each_menus_first_best_row_sum(direction):
    # The rows one sweep against the uniform vector chooses, ties (exact on
    # these menus) to the first: the same outcome as that explicit start.
    pick = np.argmax if direction == "max" else np.argmin
    rng = np.random.default_rng(83)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        fam = ProductFamily(tuple(UncertaintySet(i, rows) for i, rows
                                  in enumerate(_random_menus(rng, d))))
        start = [int(pick(s.rows.sum(axis=1))) for s in fam.sets]
        out = selective_greedy(fam, direction)
        ref = selective_greedy(fam, direction, start_choices=start)
        assert out.trace[0][0] == tuple(start)
        for field in dataclasses.fields(GreedyOutcome):
            got, want = getattr(out, field.name), getattr(ref, field.name)
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want), field.name
            else:
                assert got == want, field.name


@pytest.mark.parametrize("count", [1, 4])
def test_greedy_rejects_start_choices_of_the_wrong_length(count):
    fam = ProductFamily(tuple(UncertaintySet(i, np.eye(3)[[i, i]])
                              for i in range(3)))
    with pytest.raises(ValueError, match=f"need 3 choices, got {count}"):
        selective_greedy(fam, start_choices=[0] * count)


def test_the_greedy_keeps_an_incumbent_that_ties_up_to_rounding():
    # The start member [[0.7, 0.1], [0.1, 0.7]] has the power vector
    # (1/2, 1/2) exactly. Under it the other row of menu 0 scores 0.4 and
    # the incumbent 0.39999999999999997: a tie within TIE_TOL, and both
    # members have abscissa 0.8. The start is a fixed point.
    fam = ProductFamily((
        UncertaintySet(0, [[0.7, 0.1], [0.6, 0.2]]),
        UncertaintySet(1, [[0.1, 0.7]]),
    ))
    out = selective_greedy(fam, "max", start_choices=[0, 0])
    np.testing.assert_array_equal(out.eigenvector, [0.5, 0.5])
    assert out.row_choices == (0, 0)
    assert out.iterations == 1
    assert out.abscissa == pytest.approx(0.8, abs=1e-15)
