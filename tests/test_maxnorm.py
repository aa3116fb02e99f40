import numpy as np
import pytest

from metzstab import cli, core, formats, gen
from metzstab.errors import PreconditionError
from metzstab.maxnorm import clamp_shift, closest_stable_max, closest_unstable_max

import goldens
import helpers
import oracles


def test_destabilize_negative_identity():
    out = closest_unstable_max(-np.eye(2))
    assert out.tau_star == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(out.matrix, [[-0.5, 0.5], [0.5, -0.5]], atol=1e-12)
    assert oracles.abscissa(out.matrix) == pytest.approx(0.0, abs=1e-10)


def test_destabilize_scalar():
    out = closest_unstable_max([[-7.0]])
    assert out.tau_star == pytest.approx(7.0, abs=1e-12)
    assert out.matrix[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_destabilize_requires_stable_input():
    with pytest.raises(PreconditionError):
        closest_unstable_max(goldens.UNSTABLE_5)


def test_destabilized_matrix_sits_on_the_boundary():
    rng = np.random.default_rng(31)
    for _ in range(20):
        a = helpers.random_stable_metzler(rng, 4)
        out = closest_unstable_max(a)
        assert oracles.abscissa(out.matrix) == pytest.approx(0.0, abs=1e-8)
        assert core.matrix_norm(out.matrix - a, "max") == pytest.approx(
            out.tau_star, abs=1e-10)
        # strictly inside the ball everything stays stable
        shrunk = a + 0.99 * (out.matrix - a)
        assert oracles.abscissa(shrunk) < 0.0


def test_clamp_shift_worked_example():
    out = clamp_shift([[1.0, 2.0], [3.0, -1.0]], 2.0)
    np.testing.assert_array_equal(out, [[-1.0, 0.0], [1.0, -3.0]])
    np.testing.assert_array_equal(clamp_shift(goldens.SWAP_2, 0.0), goldens.SWAP_2)


def test_clamp_shift_monotone_in_tau():
    rng = np.random.default_rng(8)
    a = helpers.random_unstable_metzler(rng, 4)
    taus = np.linspace(0.0, float(a.max()) + 1.0, 12)
    etas = [oracles.abscissa(clamp_shift(a, t)) for t in taus]
    assert all(b <= a_ + 1e-10 for a_, b in zip(etas, etas[1:]))


def test_stabilize_diagonal_shortcut():
    # the largest entry lies on the diagonal, so tau equals it outright
    out = closest_stable_max(np.diag([2.0, -1.0]))
    assert out.tau_star == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(out.matrix, np.diag([0.0, -3.0]), atol=1e-12)
    # the top breakpoint is the first and only evaluation, with no eigen call
    assert out.iterations == 1
    assert out.trace == ((0.0, 2.0), (2.0, 0.0))


def test_stabilize_symmetric_example():
    out = closest_stable_max(goldens.SWAP_2)
    assert out.tau_star == pytest.approx(goldens.SWAP_2_TAU, abs=1e-9)
    np.testing.assert_allclose(out.matrix, goldens.SWAP_2_STABILIZED, atol=1e-9)
    assert out.abscissa == pytest.approx(0.0, abs=1e-8)


def test_stabilize_requires_unstable_input():
    with pytest.raises(PreconditionError):
        closest_stable_max(goldens.STABLE_5)


def test_stabilize_handles_singular_breakpoint():
    # A(tau) is singular at the breakpoint tau = 2, where eta is exactly 0:
    # the search returns at that breakpoint's evaluation, before the
    # crossing's solve.
    out = closest_stable_max(goldens.SINGULAR_BREAKPOINT_2)
    assert out.tau_star == pytest.approx(goldens.SINGULAR_BREAKPOINT_2_TAU, abs=1e-9)
    assert oracles.abscissa(out.matrix) == pytest.approx(0.0, abs=1e-8)


def test_a_singular_crossing_solve_returns_the_upper_breakpoint(monkeypatch):
    # When A(tau2) is singular to working precision, the crossing's solve
    # finds no resolvent and the upper end of the bracket is the answer.
    a = helpers.random_unstable_metzler(np.random.default_rng(37), 5)
    ref = closest_stable_max(a)
    # The last probe is the crossing; the least stable tau before it is tau2.
    tau2 = min(tau for tau, value in ref.trace[:-1] if value < 0.0)
    resolvent = core._level_resolvent

    def singular_crossing(m, level, rhs):
        return None if rhs.ndim == 2 else resolvent(m, level, rhs)

    monkeypatch.setattr(core, "_level_resolvent", singular_crossing)
    out = closest_stable_max(a)
    a2 = clamp_shift(a, tau2)
    assert out.tau_star == tau2
    assert np.array_equal(out.matrix, a2)
    assert out.abscissa == core.spectral_abscissa(a2)
    # The trace stops at the bracket: the crossing's eigen call is no
    # evaluation.
    assert out.trace == ref.trace[:-1]
    assert out.iterations == ref.iterations - 1 == len(out.trace) - 1


def test_stabilize_matches_bisection_oracle():
    rng = np.random.default_rng(37)
    for _ in range(25):
        a = helpers.random_unstable_metzler(rng, 5)
        out = closest_stable_max(a)
        want = oracles.clamp_tau_root(a)
        assert out.tau_star == pytest.approx(want, abs=1e-8)
        assert core.matrix_norm(out.matrix - a, "max") == pytest.approx(
            out.tau_star, abs=1e-10)


def _skewed(rng, p):
    # Off-diagonal mass piled near zero: the clamp's eta falls steeply at
    # small tau and with slope near -1 at the crossing.
    a = rng.uniform(0.0, 1.0, (60, 60)) ** p
    np.fill_diagonal(a, rng.uniform(-1.0, 1.0, 60))
    return a


def _sparse(rng):
    a = rng.uniform(0.0, 1.0, (80, 80)) * (rng.uniform(size=(80, 80)) < 0.05)
    np.fill_diagonal(a, rng.uniform(-1.0, 1.0, 80))
    return a


def _integer(rng):
    # Integer entries put the crossing on a breakpoint (an exact hit) often.
    while True:
        a = rng.integers(0, 5, (6, 6)).astype(float)
        np.fill_diagonal(a, rng.integers(-4, 4, 6))
        if oracles.abscissa(a) > 0.5:
            return a


def _parity_inputs():
    for d in (3, 5, 10, 50, 120):
        for s in range(3):
            yield f"gen-{d}-{s}", gen.generate_metzler(d, unstable=True, seed=[d, s])
    for p in (2, 8, 20):
        for s in range(3):
            yield f"skewed-{p}-{s}", _skewed(np.random.default_rng([p, s]), p)
    for s in range(3):
        yield f"sparse-{s}", _sparse(np.random.default_rng([80, s]))
    for s in range(8):
        yield f"integer-{s}", _integer(np.random.default_rng([6, s]))


def test_stabilize_matches_grid_bisection_bitwise():
    # The search rule may change how many breakpoints are probed, never the
    # bracket: eta(A(tau)) falls strictly, so the sign change between
    # adjacent breakpoints is unique, and so are tau* and the matrix.
    extra = {}
    for name, a in _parity_inputs():
        for scale in (1e-6, 1.0, 1e6):
            b = a * scale
            out = closest_stable_max(b)
            tau, x, evaluations = oracles.clamp_grid_bisection(
                b, core.spectral_abscissa, core.spectral_radius)
            assert out.tau_star == tau, (name, scale)
            assert np.array_equal(out.matrix, x), (name, scale)
            extra[name, scale] = out.iterations - evaluations
    assert max(extra.values()) <= 2, extra


@pytest.mark.parametrize("d,s", [(200, 2), (200, 4), (300, 0), (300, 1), (300, 2), (300, 5)])
def test_stabilize_large_instances_with_diagonal_top_breakpoint(d, s):
    # The clamp iterate at the top breakpoint is diagonal, and after the
    # power method's shift its two largest entries have ratio 0.9998: the
    # power method stalled there.
    a = gen.generate_metzler(d, unstable=True, seed=1000 * d + s)
    out = closest_stable_max(a)
    # Entries are below 1, so 40 halvings leave a bracket under 1e-12.
    assert a.max() < 1.0
    assert out.tau_star == pytest.approx(oracles.clamp_tau_root(a, iters=40), abs=1e-8)


def test_stabilization_is_sharp():
    """Any smaller shift leaves the matrix unstable."""
    rng = np.random.default_rng(41)
    for _ in range(15):
        a = helpers.random_unstable_metzler(rng, 4)
        out = closest_stable_max(a)
        delta = 1e-4 * out.tau_star
        assert oracles.abscissa(clamp_shift(a, out.tau_star - delta)) > 0.0
        assert oracles.abscissa(out.matrix) <= 1e-8


@pytest.mark.parametrize("d", [5, 50, 600])
@pytest.mark.parametrize("kind", helpers.CERTIFICATE_KINDS)
def test_destabilize_accepts_exactly_the_hurwitz_inputs(kind, d):
    # tau* = 1 / sum(y) with y from one solve of A y = -1, which also
    # certifies the precondition: the same inputs as the inverse-based test,
    # the same tau* as the sum of -A^{-1}.
    a = helpers.hurwitz_certificate_input(kind, d, seed=511)
    stable = core.is_hurwitz_stable(a)
    assert stable == (kind in ("stable", "reducible"))
    if not stable:
        with pytest.raises(PreconditionError, match="Hurwitz"):
            closest_unstable_max(a)
        return
    out = closest_unstable_max(a)
    assert out.tau_star == pytest.approx(1.0 / float(-np.linalg.inv(a).sum()), rel=1e-12)
    np.testing.assert_array_equal(out.matrix, a + out.tau_star)


@pytest.mark.parametrize("a", [
    np.zeros((2, 2)), helpers.hurwitz_certificate_input("singular", 50, seed=512),
], ids=["zero", "boundary"])
def test_destabilize_rejects_a_singular_input(a, tmp_path, capsys):
    with pytest.raises(PreconditionError):  # not LinAlgError
        closest_unstable_max(a)
    path = tmp_path / "m.txt"
    path.write_text(formats.write_matrix(a))
    assert cli.main(["destab-max", str(path)]) == 2
    assert "Hurwitz" in capsys.readouterr().err


def test_stabilize_when_the_jump_has_a_large_perron_root():
    # The crossing sits 1e-6 below its bracket's upper breakpoint, so the
    # jump's rho(-A(tau2)^{-1} H) is about 1e6. The power method settles in a
    # few iterations there, but rounding keeps the residual near 2e-12: an
    # absolute 1e-12 test, without the rounding floor, exhausts the budget.
    a = gen.generate_metzler(200, unstable=True, seed=145)
    out = closest_stable_max(a)
    assert a.max() < 1.0
    assert out.tau_star == pytest.approx(oracles.clamp_tau_root(a, iters=40), abs=1e-8)
