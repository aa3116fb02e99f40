"""Plain-text readers and writers for matrices, families, sign matrices, systems.

All formats are whitespace-tolerant token streams; ``#`` starts a comment that
runs to the end of the line. Writers emit one row per line with 12 significant
digits. Row indices in the family format are 0-based.

Matrix:            d, then d*d entries.
Family:            d, then for each row index: "i m" followed by m rows of d.
Sign matrix:       d, then d*d symbols from {-, 0, +}.
Switching system:  N d, then N matrices of d*d entries.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

DIGITS = 12

_SIGN_TO_INT = {"-": -1, "0": 0, "+": 1}
_INT_TO_SIGN = {-1: "-", 0: "0", 1: "+"}


def _tokens(text: str) -> Iterator[str]:
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        yield from body.split()


class _Reader:
    def __init__(self, text: str, what: str):
        self._it = _tokens(text)
        self._what = what

    def token(self) -> str:
        try:
            return next(self._it)
        except StopIteration:
            raise ValueError(f"unexpected end of {self._what} input") from None

    def integer(self, name: str) -> int:
        tok = self.token()
        try:
            return int(tok)
        except ValueError:
            raise ValueError(f"expected integer {name} in {self._what}, got {tok!r}") from None

    def number(self) -> float:
        tok = self.token()
        try:
            return float(tok)
        except ValueError:
            raise ValueError(f"bad numeric token {tok!r} in {self._what}") from None

    def floats(self, n: int) -> np.ndarray:
        # Without a count, fromiter grows with the tokens read, never with
        # the count a header claims.
        return np.fromiter((self.number() for _ in range(n)), dtype=float)

    def expect_end(self) -> None:
        try:
            tok = next(self._it)
        except StopIteration:
            return
        raise ValueError(f"trailing token {tok!r} in {self._what}")


def _fmt(x: float) -> str:
    return f"{x:.{DIGITS}g}"


def _matrix_lines(a: np.ndarray) -> list[str]:
    return [" ".join(_fmt(x) for x in row) for row in a]


def read_matrix(text: str) -> np.ndarray:
    r = _Reader(text, "matrix")
    d = r.integer("dimension")
    if d <= 0:
        raise ValueError(f"matrix dimension must be positive, got {d}")
    a = r.floats(d * d).reshape(d, d)
    r.expect_end()
    return a


def write_matrix(a: np.ndarray) -> str:
    a = np.asarray(a, dtype=float)
    return "\n".join([str(a.shape[0])] + _matrix_lines(a)) + "\n"


def read_family(text: str):
    from .family import ProductFamily, UncertaintySet

    r = _Reader(text, "family")
    d = r.integer("dimension")
    if d <= 0:
        raise ValueError(f"family dimension must be positive, got {d}")
    sets = []
    for expected in range(d):
        i = r.integer("row index")
        if i != expected:
            raise ValueError(f"family row index {i} out of order (expected {expected})")
        m = r.integer("row count")
        if m <= 0:
            raise ValueError(f"row set {i} must contain at least one row")
        rows = r.floats(m * d).reshape(m, d)
        sets.append(UncertaintySet(i, rows))
    r.expect_end()
    return ProductFamily(tuple(sets))


def write_family(family) -> str:
    lines = [str(family.dim)]
    for s in family.sets:
        lines.append(f"{s.row_index} {s.rows.shape[0]}")
        lines.extend(_matrix_lines(s.rows))
    return "\n".join(lines) + "\n"


def read_sign_matrix(text: str):
    from .sign import SignMatrix

    r = _Reader(text, "sign matrix")
    d = r.integer("dimension")
    if d <= 0:
        raise ValueError(f"sign matrix dimension must be positive, got {d}")
    entries = []
    for _ in range(d * d):
        tok = r.token()
        if tok not in _SIGN_TO_INT:
            raise ValueError(f"bad sign token {tok!r} (expected -, 0 or +)")
        entries.append(_SIGN_TO_INT[tok])
    r.expect_end()
    return SignMatrix(np.array(entries, dtype=np.int8).reshape(d, d))


def write_sign_matrix(m) -> str:
    lines = [str(m.dim)]
    for row in m.entries:
        lines.append(" ".join(_INT_TO_SIGN[int(x)] for x in row))
    return "\n".join(lines) + "\n"


def read_switching_system(text: str):
    from .lss import SwitchingSystem

    r = _Reader(text, "switching system")
    n = r.integer("mode count")
    d = r.integer("dimension")
    if n <= 0 or d <= 0:
        raise ValueError(f"system needs positive mode count and dimension, got {n} {d}")
    modes = tuple(r.floats(d * d).reshape(d, d) for _ in range(n))
    r.expect_end()
    return SwitchingSystem(modes)


def write_switching_system(system) -> str:
    lines = [f"{len(system.modes)} {system.dim}"]
    for mode in system.modes:
        lines.extend(_matrix_lines(mode))
    return "\n".join(lines) + "\n"
