"""Tests for the vectorized number text of camt fit's output table."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import camt.numtext
from camt.numtext import float_cells, int_cells


def _texts(cells):
    # the last byte of every cell is left free for a delimiter
    assert not cells[:, -1].any()
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in cells]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_float_cells_equal_repr(values):
    # st.floats() draws NaN, +-inf, +-0.0 and subnormals too
    assert _texts(float_cells(np.array(values))) == [repr(v) for v in values]


def test_float_cells_equal_repr_on_bit_patterns_and_boundaries():
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False).view(np.float64)
    powers = np.concatenate(
        [[float(f"1e{k}") for k in range(-323, 309)], np.ldexp(1.0, np.arange(-1074, 1024))]
    )
    neighbours = np.concatenate(
        [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
    )
    # between 1e13 and 1e20 the binary fraction is short, so decimal
    # roundings often tie exactly
    mantissas = rng.integers(2**52, 2**53, 20_000).astype(np.float64)
    ties = np.ldexp(mantissas, rng.integers(-9, 14, 20_000))
    values = np.concatenate([bits, neighbours, -neighbours, ties])
    assert _texts(float_cells(values)) == [repr(v) for v in values.tolist()]


def test_float_cells_write_common_values_without_repr(monkeypatch):
    # the vectorized digits, not the fallback, write ordinary values
    calls = []

    def counting_repr(v):
        calls.append(v)
        return repr(v)

    monkeypatch.setattr(camt.numtext, "repr", counting_repr, raising=False)
    rng = np.random.default_rng(7)
    values = np.concatenate(
        [rng.random(20_000), rng.standard_normal(20_000), 10.0 ** rng.uniform(-30, 10, 20_000)]
    )
    cells = float_cells(values)
    assert calls == []
    monkeypatch.undo()
    assert _texts(cells) == [repr(v) for v in values.tolist()]


def test_int_cells_equal_str():
    rng = np.random.default_rng(11)
    values = np.concatenate(
        [np.arange(20_000), rng.integers(0, 2**63 - 1, 5000), 10 ** np.arange(19), [2**63 - 1]]
    )
    assert _texts(int_cells(values)) == [str(v) for v in values.tolist()]
