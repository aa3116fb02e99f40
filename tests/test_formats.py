import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from metzstab import cli, formats
from metzstab.family import ProductFamily, UncertaintySet
from metzstab.lss import SwitchingSystem
from metzstab.sign import SignMatrix

import goldens

FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(arrays(np.float64, (3, 3), elements=FINITE))
@settings(max_examples=80)
def test_matrix_round_trip(a):
    back = formats.read_matrix(formats.write_matrix(a))
    np.testing.assert_allclose(back, a, rtol=1e-11, atol=1e-11)


def test_matrix_reader_accepts_comments_and_loose_whitespace():
    text = "# leading note\n2\n  1.0 2.0 # trailing\n\n3.0\t4.0\n"
    np.testing.assert_array_equal(formats.read_matrix(text),
                                  [[1.0, 2.0], [3.0, 4.0]])


def test_matrix_reader_errors():
    with pytest.raises(ValueError, match="unexpected end"):
        formats.read_matrix("3\n1 2 3\n")
    with pytest.raises(ValueError, match="trailing token"):
        formats.read_matrix("1\n5.0\nextra")
    with pytest.raises(ValueError):
        formats.read_matrix("0\n")
    with pytest.raises(ValueError):
        formats.read_matrix("2\n1 2 x 4\n")


def test_family_round_trip():
    rng = np.random.default_rng(11)
    sets = tuple(
        UncertaintySet(i, np.abs(rng.normal(size=(3, 4))))
        for i in range(4))
    fam = ProductFamily(sets)
    back = formats.read_family(formats.write_family(fam))
    assert back.sizes == fam.sizes
    for s_in, s_out in zip(fam.sets, back.sets):
        np.testing.assert_allclose(s_out.rows, s_in.rows, rtol=1e-11)


def test_family_reader_rejects_out_of_order_row_sets():
    fam = ProductFamily((
        UncertaintySet(0, [[0.0, 1.0]]),
        UncertaintySet(1, [[1.0, 0.0]]),
    ))
    text = formats.write_family(fam)
    lines = text.splitlines()
    # swap the two row-set blocks; indices then arrive as 1, 0
    swapped = "\n".join([lines[0]] + lines[3:5] + lines[1:3])
    with pytest.raises(ValueError, match="out of order"):
        formats.read_family(swapped)


def test_sign_matrix_round_trip():
    m = SignMatrix(goldens.SIGN_WEB)
    back = formats.read_sign_matrix(formats.write_sign_matrix(m))
    np.testing.assert_array_equal(back.entries, m.entries)


def test_sign_matrix_reader_rejects_bad_symbol():
    with pytest.raises(ValueError):
        formats.read_sign_matrix("2\n+ -\n0 *\n")


def test_switching_system_round_trip():
    sys_in = SwitchingSystem(goldens.SWITCH_MODES)
    back = formats.read_switching_system(formats.write_switching_system(sys_in))
    assert len(back.modes) == 3
    for m_in, m_out in zip(sys_in.modes, back.modes):
        np.testing.assert_allclose(m_out, m_in, rtol=1e-11)


def test_twelve_significant_digits_survive():
    a = np.array([[1.0 / 3.0, np.pi], [-np.e, 1e-7 / 3.0]])
    back = formats.read_matrix(formats.write_matrix(a))
    np.testing.assert_allclose(back, a, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("reader,command,text", [
    (formats.read_matrix, "eig", "1000000\n1 2\n"),
    (formats.read_family, "opt-family", "1\n0 1000000000000\n1\n"),
    (formats.read_sign_matrix, "sign-stab", "1000000\n+ -\n"),
    (formats.read_switching_system, "lss-check", "1000000 1000000\n1\n"),
], ids=["matrix", "family", "sign", "system"])
def test_a_header_past_memory_reads_as_a_short_file(reader, command, text, tmp_path, capsys):
    # Each header announces at least 1e12 entries; nothing is allocated for
    # entries that never arrive.
    with pytest.raises(ValueError, match="unexpected end"):
        reader(text)
    path = tmp_path / "in.txt"
    path.write_text(text)
    assert cli.main([command, str(path)]) == 2
    assert "unexpected end" in capsys.readouterr().err
