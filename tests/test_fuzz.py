"""Fuzzed input files: the readers raise only ValueError, the CLI exits 0, 2 or 3.

The streams follow each file format with dimensions and mode counts up to 3,
and some are mutated: a token dropped or added, or the header replaced by one
that announces far more entries than any file holds. Entries come from a small
vocabulary of moderate values and malformed tokens, so every solver runs in
milliseconds.
"""

import contextlib
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from metzstab import bench, cli, formats

VALUES = ("0", "1", "-1", "2", "-2", "0.5", "-0.5", "3", "1e-3",
          "x", "nan", "inf", "1e400", "+", "-", "#")
SIGNS = ("-", "0", "+", "-", "0", "+", "1", "x")
HUGE = ("1000000", str(10**12))
EXAMPLES = settings(max_examples=25, deadline=None)


@st.composite
def streams(draw, kind: str) -> str:
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cell = st.sampled_from(SIGNS if kind == "sign" else VALUES)

    def cells(count):
        return draw(st.lists(cell, min_size=count, max_size=count))

    if kind == "matrix" or kind == "sign":
        tokens = [str(d), *cells(d * d)]
    elif kind == "family":
        tokens = [str(d)]
        for i in range(d):
            m = draw(st.integers(1, 3))
            tokens += [str(i), str(m), *cells(m * d)]
    else:
        tokens = [str(n), str(d), *cells(n * d * d)]
    mutation = draw(st.sampled_from(("none", "none", "none", "drop", "extra", "huge")))
    if mutation == "drop":
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    elif mutation == "extra":
        tokens.insert(draw(st.integers(0, len(tokens))), draw(cell))
    elif mutation == "huge":
        # The dimension, or the mode count or a row count.
        at = {"system": (0, 1), "family": (0, 2)}.get(kind, (0,))
        tokens[draw(st.sampled_from(at))] = draw(st.sampled_from(HUGE))
    return " ".join(tokens)


READERS = {
    "matrix": formats.read_matrix,
    "family": formats.read_family,
    "sign": formats.read_sign_matrix,
    "system": formats.read_switching_system,
}


@pytest.mark.parametrize("kind", sorted(READERS))
@given(text=st.one_of(*map(streams, READERS), st.text(max_size=40),
                      st.lists(st.sampled_from(VALUES + HUGE)).map(" ".join)))
@example(text="1000000 1000000 1 2")
@EXAMPLES
def test_a_reader_parses_or_raises_value_error(kind, text):
    try:
        READERS[kind](text)
    except ValueError:
        pass


COMMANDS = [
    *((name, "matrix") for name in ("eig", "stab-max", "destab-max", "stab-inf",
                                    "destab-inf", "stab-schur", "destab-schur")),
    ("opt-family", "family"),
    ("sign-stab", "sign"),
    ("lss-check", "system"),
    ("lss-stab-2d", "system"),
    ("lss-stab-sign", "system"),
]


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command,kind", COMMANDS, ids=[c for c, _ in COMMANDS])
@given(data=st.data())
@EXAMPLES
def test_the_cli_exits_cleanly_on_a_fuzzed_file(command, kind, workdir, data):
    path = workdir / f"{command}.txt"
    path.write_text(data.draw(streams(kind)))
    argv = [command, str(path)]
    if command in ("lss-check", "lss-stab-2d"):
        argv += ["--resolution", "6"]
    assert _exit_code(argv) in (0, 2, 3)


@given(op=st.sampled_from(bench.OPS), trials=st.integers(-3, 2))
@example(op="stab-inf", trials=-1)
@example(op="stab-inf", trials=0)
@settings(max_examples=12, deadline=None)
def test_bench_exits_cleanly_on_any_small_trial_count(op, trials):
    argv = ["bench", "--op", op, "--dim", "2", "--count", "2", "--trials", str(trials)]
    assert _exit_code(argv) == (0 if trials >= 1 else 2)
