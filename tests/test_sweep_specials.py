"""The panel sweeps on special values, against the row-by-row loops.

Right-hand sides, bases and x hold +-inf, NaN, +-0.0 and subnormals, as
vectors and as (n, k) blocks, and every column of a block must be bitwise
the loop's result on that column (NaNs alike).  The IC/MIC pivots see such
values only when a matrix of extreme but finite magnitudes produces them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krylov.precond import IcBreakdownError, ic0_pentadiagonal, mic_pentadiagonal
from krylov.storage import Triplets, _Panels, _Sweep
from test_sweeps import bits, ref_accumulate, ref_ic_pivots, ref_triangular, triangles

SPECIALS = [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.5, -3.0]
specials = st.sampled_from(SPECIALS) | st.floats(-4.0, 4.0)


@st.composite
def special_operands(draw, n):
    """An (n,) vector or an (n, k) block, k from 1 to 3, of special values."""
    k = draw(st.sampled_from([None, 1, 2, 3]))
    shape = (n,) if k is None else (n, k)
    return np.array(draw(st.lists(specials, min_size=n * (k or 1), max_size=n * (k or 1)))
                    ).reshape(shape)


def columns(x):
    return [x] if x.ndim == 1 else [x[:, j] for j in range(x.shape[1])]


@settings(max_examples=60, deadline=None)
@given(triangles(), st.data())
def test_solve_and_accumulate_keep_special_values_column_by_column(case, data):
    n, rows, cols, vals, diag, _, forward = case
    rhs, base, x = (data.draw(special_operands(n)) for _ in range(3))
    base = np.resize(base, x.shape)
    sweep = _Sweep(n, rows, cols, vals, lower=forward)
    one_group = _Panels(n, rows, cols, vals, np.zeros(n, dtype=np.int64))
    with np.errstate(all="ignore"):
        got = sweep.solve(diag, rhs)
        want = [ref_triangular(n, rows, cols, vals, diag, r) for r in columns(rhs)]
        assert got.shape == rhs.shape
        assert all(np.array_equal(bits(g), bits(w)) for g, w in zip(columns(got), want))
        want = [ref_accumulate(n, rows, cols, vals, b, v) for b, v in zip(columns(base), columns(x))]
        for panels in (sweep, one_group):
            got = panels.accumulate(base, x)
            assert got.shape == x.shape
            assert all(np.array_equal(bits(g), bits(w)) for g, w in zip(columns(got), want))


extreme_links = st.sampled_from([0.0, -0.0, -5e-324, -1e-300, -1.0, -1e150, -1e200, -1e308])


@st.composite
def extreme_band_matrices(draw):
    """A pentadiagonal matrix with a positive diagonal and nonpositive bands
    of extreme magnitudes, whose pivots can underflow, overflow to inf or
    turn NaN, as (triplets, band)."""
    band = draw(st.integers(1, 6))
    n = band * draw(st.integers(1, 5)) + draw(st.integers(0, band - 1))
    b = draw(st.lists(extreme_links, min_size=n, max_size=n))
    c = draw(st.lists(extreme_links, min_size=n, max_size=n))
    diag = draw(st.lists(st.sampled_from([5e-324, 1e-300, 1.0, 4.0, 1e300, 1.7e308]),
                         min_size=n, max_size=n))
    links = [(i, i - 1, b[i]) for i in range(1, n)]
    links += [(i, i - band, c[i]) for i in range(band, n)] if band > 1 else []
    lo, hi, v = (list(x) for x in zip(*links)) if links else ([], [], [])
    return Triplets(n, [*range(n), *lo, *hi], [*range(n), *hi, *lo], diag + v + v), band


@pytest.mark.parametrize("modified", [False, True], ids=["ic", "mic"])
@settings(max_examples=60, deadline=None)
@given(extreme_band_matrices())
def test_ic_pivots_of_extreme_magnitudes_match_row_loop(modified, case):
    a, band = case
    factor = mic_pentadiagonal if modified else ic0_pentadiagonal
    with np.errstate(all="ignore"):
        try:
            want = ref_ic_pivots(a, band, modified)
        except IcBreakdownError as exc:
            with pytest.raises(IcBreakdownError) as got:
                factor(a, band)
            assert str(got.value) == str(exc)
        else:
            assert np.array_equal(bits(factor(a, band).dt), bits(want))
