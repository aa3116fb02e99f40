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
# Sweep budget of one selective greedy run, each sweep one eigen call.
_GREEDY_SWEEPS = 200


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
        if not isinstance(self.row_index, (int, np.integer)):
            raise ValueError(f"row index {self.row_index!r} must be an integer")
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
        choices = _checked_choices(self, choices)
        return np.vstack([s.rows[c] for s, c in zip(self.sets, choices)])


def _checked_choices(family: ProductFamily, choices, label: str = "choice") -> np.ndarray:
    # The choices as an integer array holding one row index of each menu.
    arr = np.array(choices)
    if arr.ndim != 1:
        raise ValueError(f"{label}s must be a 1-D sequence, got {choices!r}")
    if len(arr) != family.dim:
        raise ValueError(f"need {family.dim} choices, got {len(arr)}")
    if arr.dtype.kind not in "iu":
        raise ValueError(f"{label}s must be integers, got {choices!r}")
    bad = np.flatnonzero((arr < 0) | (arr >= family.sizes))
    if bad.size:
        raise ValueError(f"{label} {arr[bad[0]]} out of range for row set {bad[0]}")
    return arr


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
    if not (np.isfinite(rows).all() and np.isfinite(v).all()):
        raise ValueError("rows and v must be finite")
    if incumbent is not None and not isinstance(incumbent, (int, np.integer)):
        raise ValueError(f"incumbent {incumbent!r} must be an integer")
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
                     start_choices=None) -> GreedyOutcome:
    """Selective greedy optimization of the spectral abscissa over a family.

    Each iteration computes the selected leading eigenpair of the current
    member at ``core.DEFAULT_TOL``, then re-optimizes every row against the
    eigenvector; rows only change on strict improvement (beyond
    ``TIE_TOL``), so a full sweep without changes is a fixed point and the
    loop stops. The final iteration
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
        If ``_GREEDY_SWEEPS`` (200) sweeps pass without a fixed point. Its
        ``best`` is the outcome of the last member evaluated, flagged, whose
        ``trace`` lists every member visited.
    """
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    # Every menu's rows in one array, menu i starting at offsets[i]: one
    # product scores all rows of a sweep.
    allrows = np.concatenate([s.rows for s in family.sets])
    offsets = np.cumsum([0, *family.sizes[:-1]])
    if start_choices is None:  # one sweep against the power loop's uniform start
        start_choices = _choose_rows(allrows.sum(axis=1), offsets, None, direction)
    choices = _checked_choices(family, start_choices, "start choice")

    x = allrows[offsets + choices]
    trace: list[tuple[tuple[int, ...], float]] = []
    for it in range(1, _GREEDY_SWEEPS + 1):
        pair = core.selected_leading_eigenpair(x)
        trace.append((tuple(choices.tolist()), pair.value))
        new = _choose_rows(allrows @ pair.vector, offsets, choices, direction)
        settled = np.array_equal(new, choices)
        if settled or it == _GREEDY_SWEEPS:
            break
        choices = new
        x = allrows[offsets + choices]

    flag = not settled or (direction == "max" and not (pair.vector > 0.0).all())
    out = GreedyOutcome(matrix=x, abscissa=pair.value, row_choices=trace[-1][0],
                        iterations=it, eigenvector=pair.vector, reducibility_flag=flag,
                        trace=tuple(trace))
    if not settled:
        raise IterationLimitError(
            f"greedy row selection did not settle in {_GREEDY_SWEEPS} sweeps", best=out)
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


def optimize_with_irreducibility_patch(family: ProductFamily, direction: str = "max", *,
                                       start_choices=None) -> GreedyOutcome:
    """Maximize the abscissa with a certificate even on reducible families.

    When the plain greedy is flagged, each Frobenius block of the family is
    maximized once, from its own nodes' start choices. The split is exact:
    every member is block-triangular, so its abscissa is its largest block's,
    and the blocks' menus are independent. Every block's union graph is
    strongly connected, so no block needs a further split.
    """
    if direction != "max":
        raise PreconditionError(
            "the irreducibility patch applies to maximization only; "
            "minimization fixed points are certified without it")
    plain = selective_greedy(family, "max", start_choices=start_choices)
    if not plain.reducibility_flag:
        return plain

    split = frobenius_blocks(family)
    choices = [0] * family.dim
    outs = []
    for nodes, sub in zip(split.blocks, split.subfamilies):
        # Each block starts from its own nodes' choices.
        start = None if start_choices is None else [start_choices[n] for n in nodes]
        outs.append(selective_greedy(sub, "max", start_choices=start))
        for node, c in zip(nodes, outs[-1].row_choices):
            choices[node] = c
    x = family.matrix(choices)
    pair = core.selected_leading_eigenpair(x)
    best = max(out.abscissa for out in outs)
    return GreedyOutcome(
        matrix=x, abscissa=best, row_choices=tuple(choices),
        iterations=sum(out.iterations for out in outs), eigenvector=pair.vector,
        reducibility_flag=True, trace=((tuple(choices), best),))
