"""Spectral-abscissa optimization over product families of Metzler matrices.

A product family fixes, for each row index, a finite menu of admissible rows;
members are assembled by picking one row from each menu independently. The
selective greedy method alternates leading-eigenvector computations with
row-wise inner-product optimization. Its fixed points are certified global
optima: for maximization when the eigenvector is strictly positive, for
minimization unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .errors import IterationLimitError, PreconditionError

TIE_TOL = 1e-12


@dataclass(frozen=True)
class UncertaintySet:
    """Menu of admissible rows for one row index of the family."""

    row_index: int
    rows: np.ndarray

    def __post_init__(self):
        rows = np.array(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ValueError(f"row set {self.row_index} must be a nonempty 2-D array")
        if not np.isfinite(rows).all():
            raise ValueError(f"row set {self.row_index} must have finite entries")
        if self.row_index < 0 or self.row_index >= rows.shape[1]:
            raise ValueError(f"row index {self.row_index} outside dimension {rows.shape[1]}")
        off = np.delete(rows, self.row_index, axis=1)
        if off.size and float(off.min()) < 0.0:
            raise PreconditionError(
                f"row set {self.row_index} has a negative off-diagonal entry")
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True)
class ProductFamily:
    sets: tuple[UncertaintySet, ...]

    def __post_init__(self):
        sets = tuple(self.sets)
        if not sets:
            raise ValueError("family needs at least one row set")
        d = sets[0].rows.shape[1]
        if len(sets) != d:
            raise ValueError(f"family has {len(sets)} row sets for dimension {d}")
        for pos, s in enumerate(sets):
            if s.row_index != pos:
                raise ValueError(f"row set at position {pos} claims index {s.row_index}")
            if s.rows.shape[1] != d:
                raise ValueError(f"row set {pos} has width {s.rows.shape[1]}, expected {d}")
        object.__setattr__(self, "sets", sets)

    @property
    def dim(self) -> int:
        return len(self.sets)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(s.size for s in self.sets)

    def matrix(self, choices) -> np.ndarray:
        if len(choices) != self.dim:
            raise ValueError(f"need {self.dim} choices, got {len(choices)}")
        return np.vstack([s.rows[c] for s, c in zip(self.sets, choices)])


@dataclass(frozen=True)
class GreedyOutcome:
    """``trace`` holds one (row_choices, abscissa) pair per sweep, the last the
    outcome's own; ``iterations`` counts sweeps, summed over blocks if blockwise."""

    matrix: np.ndarray
    abscissa: float
    row_choices: tuple[int, ...]
    iterations: int
    eigenvector: np.ndarray
    reducibility_flag: bool
    trace: tuple[tuple[tuple[int, ...], float], ...] = ()


@dataclass(frozen=True)
class FrobeniusSplit:
    """Strongly connected blocks of the union sparsity graph, topologically ordered."""

    blocks: tuple[tuple[int, ...], ...]
    subfamilies: tuple[ProductFamily, ...]


def row_optimize(rows: np.ndarray, v: np.ndarray, direction: str = "max",
                 incumbent: int | None = None) -> int:
    """Index of the row optimizing <row, v>, keeping the incumbent on ties.

    The incumbent, a row index of the menu, ties within ``TIE_TOL`` of the
    optimum. Without an incumbent, ties resolve to the lowest index (numpy
    argmax / argmin first-occurrence behaviour).
    """
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    if incumbent is not None and not 0 <= incumbent < len(rows):
        raise ValueError(f"incumbent {incumbent} is not a row of the {len(rows)}-row menu")
    keep = None if incumbent is None else np.array([incumbent])
    return int(_choose_rows(rows @ v, np.array([0]), keep, direction)[0])


def _choose_rows(scores: np.ndarray, offsets: np.ndarray, choices,
                 direction: str) -> np.ndarray:
    # row_optimize for every menu at once: menu i holds scores[offsets[i]:
    # offsets[i + 1]] and its incumbent is choices[i] (None: no incumbents).
    if direction == "max":
        best = np.maximum.reduceat(scores, offsets)
    else:
        best = np.minimum.reduceat(scores, offsets)
    # The first row reaching its menu's optimum, as argmax / argmin pick it.
    hits = np.flatnonzero(scores == np.repeat(best, np.diff(offsets, append=scores.size)))
    first = hits[np.searchsorted(hits, offsets)] - offsets
    if choices is None:
        return first
    gap = np.abs(scores[offsets + choices] - best)
    return np.where(gap <= TIE_TOL * np.maximum(1.0, np.abs(best)), choices, first)


def selective_greedy(family: ProductFamily, direction: str = "max", *,
                     start_choices=None, max_iter: int = 200,
                     eig_tol: float = core.DEFAULT_TOL) -> GreedyOutcome:
    """Selective greedy optimization of the spectral abscissa over a family.

    Each iteration computes the selected leading eigenpair of the current
    member, then re-optimizes every row against the eigenvector; rows only
    change on strict improvement (beyond ``TIE_TOL``), so a full sweep
    without changes is a fixed point and the loop stops. The final iteration
    (the no-change sweep) is included in ``iterations``. The default start
    takes from each menu its first row of largest (``max``) or smallest
    (``min``) row sum: one sweep against the power method's uniform start.

    For ``direction="max"`` the outcome's ``reducibility_flag`` is set when
    the final eigenvector has a zero entry, in which case the maximality
    certificate does not apply and the caller should use
    :func:`optimize_with_irreducibility_patch`. Minimization fixed points
    are certified global minima regardless of zeros.

    Raises
    ------
    IterationLimitError
        If ``max_iter`` sweeps pass without reaching a fixed point. Its
        ``best`` is the outcome of the last member evaluated, flagged, whose
        ``trace`` lists every member visited.
    """
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    d = family.dim
    # Every menu's rows in one array, menu i starting at offsets[i]: one
    # product scores all rows of a sweep.
    allrows = np.concatenate([s.rows for s in family.sets])
    offsets = np.cumsum([0, *family.sizes[:-1]])
    if start_choices is None:  # one sweep against the power loop's uniform start
        start_choices = _choose_rows(allrows.sum(axis=1), offsets, None, direction)
    choices = np.array(start_choices)
    if len(choices) != d:
        raise ValueError(f"need {d} choices, got {len(choices)}")
    if choices.dtype.kind not in "iu":
        raise ValueError(f"start choices must be integers, got {start_choices!r}")
    for pos, (c, s) in enumerate(zip(choices, family.sets)):
        if not 0 <= c < s.size:
            raise ValueError(f"start choice {c} out of range for row set {pos}")

    x = allrows[offsets + choices]
    trace: list[tuple[tuple[int, ...], float]] = []
    for it in range(1, max_iter + 1):
        pair = core.selected_leading_eigenpair(x, tol=eig_tol)
        trace.append((tuple(choices.tolist()), pair.value))
        new = _choose_rows(allrows @ pair.vector, offsets, choices, direction)
        settled = np.array_equal(new, choices)
        if settled or it == max_iter:
            break
        choices = new
        x = allrows[offsets + choices]

    flag = not settled or (direction == "max" and not (pair.vector > 0.0).all())
    out = GreedyOutcome(matrix=x, abscissa=pair.value, row_choices=trace[-1][0],
                        iterations=it, eigenvector=pair.vector, reducibility_flag=flag,
                        trace=tuple(trace))
    if not settled:
        raise IterationLimitError(
            f"greedy row selection did not settle in {max_iter} sweeps", best=out)
    return out


def frobenius_blocks(family: ProductFamily) -> FrobeniusSplit:
    """Split a family along the SCCs of its union sparsity graph.

    Every member of the family is block-triangular with respect to the
    returned node order, so each member's spectrum is the union of the
    spectra of its diagonal blocks and the family optimum is assembled
    blockwise.
    """
    # strong_components places each block after the blocks it points to;
    # reversed, every member is block upper triangular in the node order.
    union = np.array([(s.rows != 0.0).any(axis=0) for s in family.sets])
    components = core.strong_components(union)[::-1]

    blocks = []
    subfamilies = []
    for cols in components:
        nodes = tuple(int(k) for k in cols)
        sets = tuple(
            UncertaintySet(local, family.sets[node].rows[:, cols])
            for local, node in enumerate(nodes))
        blocks.append(nodes)
        subfamilies.append(ProductFamily(sets))
    return FrobeniusSplit(tuple(blocks), tuple(subfamilies))


def _augmented(family: ProductFamily) -> ProductFamily:
    # Append the rows of P/4 (P the cyclic permutation), whose directed cycle
    # makes the union graph irreducible.
    d = family.dim
    sets = []
    for i, s in enumerate(family.sets):
        h = np.zeros(d)
        h[(i + 1) % d] = 0.25
        sets.append(UncertaintySet(i, np.vstack([s.rows, h])))
    return ProductFamily(tuple(sets))


def optimize_with_irreducibility_patch(family: ProductFamily, direction: str = "max",
                                       **greedy_kwargs) -> GreedyOutcome:
    """Maximize the abscissa with a certificate even on reducible families.

    When the plain greedy is flagged, runs it once more on the family
    augmented with the rows of P/4, P the cyclic permutation. If that optimum
    uses no augmented row and its eigenvector is strictly positive, it is a
    certified maximum of the original family. Otherwise the family is split
    into its Frobenius blocks and optimized blockwise (the block assembly is
    exact: the assembled member is block-triangular, so its abscissa is the
    maximum of the block optima).
    """
    if direction != "max":
        raise PreconditionError(
            "the irreducibility patch applies to maximization only; "
            "minimization fixed points are certified without it")
    plain = selective_greedy(family, "max", **greedy_kwargs)
    if not plain.reducibility_flag:
        return plain

    out = selective_greedy(_augmented(family), "max", **greedy_kwargs)
    used_patch = any(c >= m for c, m in zip(out.row_choices, family.sizes))
    if not used_patch and not out.reducibility_flag:
        return out

    split = frobenius_blocks(family)
    if len(split.blocks) == 1:
        # Genuinely irreducible union graph; return the flagged greedy result.
        return plain

    d = family.dim
    choices = [0] * d
    iterations = 0
    block_abscissas = []
    for nodes, sub in zip(split.blocks, split.subfamilies):
        out = optimize_with_irreducibility_patch(sub, "max", **greedy_kwargs)
        iterations += out.iterations
        block_abscissas.append(out.abscissa)
        for local, node in enumerate(nodes):
            choices[node] = out.row_choices[local]
    x = family.matrix(choices)
    pair = core.selected_leading_eigenpair(
        x, tol=greedy_kwargs.get("eig_tol", core.DEFAULT_TOL))
    return GreedyOutcome(
        matrix=x, abscissa=max(block_abscissas), row_choices=tuple(choices),
        iterations=iterations, eigenvector=pair.vector, reducibility_flag=True,
        trace=((tuple(choices), max(block_abscissas)),))
