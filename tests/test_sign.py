import numpy as np
import pytest

from metzstab import core, infnorm, sign
from metzstab.errors import PreconditionError
from metzstab.sign import (
    SignMatrix,
    closest_stable_sign,
    is_sign_stable,
    sign_ball_minimize,
    sign_pattern,
)

import goldens
import helpers
import oracles


def test_sign_matrix_validation():
    with pytest.raises(ValueError):
        SignMatrix(np.array([[0, 2], [0, 0]]))
    with pytest.raises(ValueError):
        SignMatrix(np.array([[0, 1, 0]]))
    m = SignMatrix(goldens.SIGN_WEB)
    assert m.dim == 5
    assert m.entries.dtype == np.int8


def test_sign_pattern_thresholds():
    a = np.array([[-2.0, 1e-12], [0.5, 3.0]])
    np.testing.assert_array_equal(sign_pattern(a).entries,
                                  [[-1, 1], [1, 1]])


def test_realize_round_trip():
    m = SignMatrix(goldens.SIGN_LATTICE)
    np.testing.assert_array_equal(sign_pattern(m.realize()).entries, m.entries)
    z = SignMatrix(np.zeros((3, 3), dtype=int))
    np.testing.assert_array_equal(z.realize(), np.zeros((3, 3)))


def test_sign_stability_needs_metzler_pattern():
    with pytest.raises(PreconditionError):
        is_sign_stable(SignMatrix(np.array([[-1, -1], [0, -1]])))


def test_strict_sign_stability_examples():
    # negative diagonal and acyclic positive graph
    assert is_sign_stable(SignMatrix(goldens.signs("-+0", "0-+", "00-")))
    assert is_sign_stable(SignMatrix(goldens.SIGN_LATTICE_STABLE))
    assert is_sign_stable(SignMatrix(-np.eye(2, dtype=int)))
    # a zero diagonal entry breaks strictness even at eta = 0
    web = SignMatrix(goldens.SIGN_WEB_STABLE)
    assert not is_sign_stable(web)
    # a 2-cycle forces eta >= 0
    assert not is_sign_stable(SignMatrix(goldens.signs("-+", "+-")))


def test_graph_and_spectral_routes_agree():
    rng = np.random.default_rng(83)
    for _ in range(60):
        d = int(rng.integers(2, 6))
        e = helpers.random_sign_entries(rng, d)
        m = SignMatrix(e)
        got = is_sign_stable(m)
        want = oracles.abscissa(e.astype(float)) < -1e-9
        assert got == want


def test_strict_stability_is_scale_invariant():
    """Every positive rescaling of a strictly sign-stable pattern is Hurwitz."""
    pattern = goldens.SIGN_LATTICE_STABLE.astype(float)
    rng = np.random.default_rng(89)
    for _ in range(30):
        mags = 10.0 ** rng.uniform(-9.0, 9.0, pattern.shape)
        assert oracles.abscissa(pattern * mags) < 0.0


def test_ball_minimize_zero_radius():
    m = SignMatrix(goldens.SIGN_WEB)
    out = sign_ball_minimize(m, 0)
    np.testing.assert_array_equal(out.sign_matrix.entries, m.entries)
    assert out.iterations == 1


def test_ball_minimize_rejects_negative_radius():
    with pytest.raises(PreconditionError):
        sign_ball_minimize(SignMatrix(goldens.SIGN_WEB), -1)


def test_ball_minimize_printed_distance_one_optimum():
    out = sign_ball_minimize(SignMatrix(goldens.SIGN_LATTICE), 1)
    np.testing.assert_array_equal(out.sign_matrix.entries,
                                  goldens.SIGN_LATTICE_BALL1)
    assert out.abscissa == pytest.approx(goldens.SIGN_LATTICE_BALL1_ETA, abs=1e-9)


def _row_step(orig: np.ndarray, k: int, v: np.ndarray) -> np.ndarray:
    # One sweep's candidate rows: the l-inf ball's row minimizer on
    # sgn(M) + I with budget k, in the ranked order of v's support.
    eye = np.eye(orig.shape[0])
    cols = sign._ranked_support(v)
    rows, _, _ = infnorm._minimize_rows(orig + eye, cols, float(k), cols.size - 1,
                                        clamp=True)
    return rows - eye


@pytest.mark.parametrize("ulps", [-3, -1, 1, 3])
def test_best_row_ignores_last_ulp_noise(ulps):
    # Exact ties go to the higher column. A vector a few ulps away from those
    # ties, as an eigensolver returns it, must choose the same rows.
    orig = np.ones((4, 4), dtype=np.int8)
    tied = np.array([0.3, 0.3, 0.1, 0.3])
    noisy = tied.copy()
    noisy[1] += ulps * np.spacing(0.3)
    for k in range(1, 6):
        np.testing.assert_array_equal(_row_step(orig, k, noisy),
                                      _row_step(orig, k, tied))


def test_row_step_reaches_each_rows_minimum():
    # From the center, every row of a sweep minimizes <row, v> over the
    # admissible rows within l1 distance k, exhaustively enumerated.
    rng = np.random.default_rng(113)
    for _ in range(40):
        d = int(rng.integers(2, 5))
        orig = helpers.random_sign_entries(rng, d)
        v = rng.random(d) * (rng.random(d) < 0.8)
        v = v / v.sum() if v.sum() > 0.0 else np.full(d, 1.0 / d)
        for k in range(2 * d + 2):
            rows = _row_step(orig, k, v)
            for i in range(d):
                options = oracles._sign_row_options(orig[i], i, k)
                assert tuple(rows[i].astype(int)) in options
                scores = np.array(options, dtype=float) @ v
                assert rows[i] @ v <= float(scores.min()) + 1e-12


def test_ball_minimize_matches_exhaustive_scan():
    rng = np.random.default_rng(97)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        e = helpers.random_sign_entries(rng, d)
        for k in (1, 2):
            got = sign_ball_minimize(SignMatrix(e), k)
            want = oracles.sign_ball_minimum(e, k)
            assert got.abscissa == pytest.approx(want, abs=1e-7)


def test_ball_minimum_is_monotone_in_radius():
    rng = np.random.default_rng(101)
    for _ in range(15):
        e = helpers.random_sign_entries(rng, 4)
        etas = [sign_ball_minimize(SignMatrix(e), k).abscissa for k in range(4)]
        assert all(b <= a + 1e-9 for a, b in zip(etas, etas[1:]))


def test_closest_stable_sign_first_example():
    out = closest_stable_sign(SignMatrix(goldens.SIGN_WEB))
    assert out.k_star == goldens.SIGN_WEB_K
    assert out.abscissa == pytest.approx(goldens.SIGN_WEB_ETA, abs=1e-9)
    np.testing.assert_array_equal(out.sign_matrix.entries, goldens.SIGN_WEB_STABLE)


def test_closest_stable_sign_second_example():
    out = closest_stable_sign(SignMatrix(goldens.SIGN_LATTICE))
    assert out.k_star == goldens.SIGN_LATTICE_K
    assert out.abscissa == pytest.approx(goldens.SIGN_LATTICE_ETA, abs=1e-9)
    np.testing.assert_array_equal(out.sign_matrix.entries,
                                  goldens.SIGN_LATTICE_STABLE)


def test_closest_stable_sign_already_stable():
    m = SignMatrix(goldens.SIGN_LATTICE_STABLE)
    out = closest_stable_sign(m)
    assert out.k_star == 0
    np.testing.assert_array_equal(out.sign_matrix.entries, m.entries)


def test_bisection_agrees_with_linear_scan():
    rng = np.random.default_rng(103)
    for _ in range(15):
        e = helpers.random_unstable_sign(rng, 4)
        out = closest_stable_sign(SignMatrix(e))
        k = 0
        while oracles.sign_ball_minimum(e, k) > core.STABILITY_TOL:
            k += 1
        assert out.k_star == k
        assert out.abscissa <= core.STABILITY_TOL


def test_a_ball_sweep_takes_no_row_that_gains_only_rounding():
    # At the second iterate (eta = (sqrt(5) - 1)/2) the selected vector's
    # first two entries are equal, computed some 8e-14 apart. Row 0's
    # candidate trades the one for the other, a gain of rounding only; taken,
    # it would detour through a pattern with eta = 0.
    m = SignMatrix(np.array([[1, 1, 1], [0, 0, 1], [0, 1, -1]]))
    out = sign_ball_minimize(m, 2)
    values = [value for _, value in out.trace]
    assert values == pytest.approx([1.0, (np.sqrt(5.0) - 1.0) / 2.0, -1.0], abs=1e-12)
    assert out.iterations == 3
    np.testing.assert_array_equal(out.sign_matrix.entries,
                                  [[-1, 1, 1], [0, -1, 0], [0, 0, -1]])
