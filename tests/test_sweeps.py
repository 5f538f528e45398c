"""Level-scheduled sweeps against the row-by-row loops they replace.

The reference loops below are the sequential algorithms: every vectorized
kernel must reproduce them bit for bit (zero signs included where the
kernel keeps every entry the loop reads).
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krylov import cavity_laplace, hilbert, poisson_test, random_sparse, stationary
from krylov.precond import (IcBreakdownError, apply_ic_solve, ic0_pentadiagonal,
                            ic_matrix_apply, mic_pentadiagonal)
from krylov.stationary import iteration_matrix_applier, split
from krylov.storage import Triplets, _Panels, _Sweep, build, to_dense, to_triplets

SETTINGS = settings(max_examples=60, deadline=None)


def bits(x):
    """Bit patterns, all NaNs alike: equal bits mean bitwise-equal results."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), np.nan, x).view(np.int64)


def ref_triangular(n, rows, cols, vals, diag, rhs):
    """Row-by-row solve of (D + T) u = rhs, each row's entries in order."""
    entries = [[] for _ in range(n)]
    for i, j, v in zip(rows, cols, vals):
        entries[i].append((j, v))
    forward = all(j < i for i, j in zip(rows, cols))
    u = np.empty(n)
    for i in range(n) if forward else range(n - 1, -1, -1):
        s = rhs[i]
        for j, v in entries[i]:
            s -= v * u[j]
        u[i] = s / diag[i]
    return u


def ref_accumulate(n, rows, cols, vals, base, x):
    y = np.array(base, dtype=float)
    entries = [[] for _ in range(n)]
    for i, j, v in zip(rows, cols, vals):
        entries[i].append((j, v))
    for i in range(n):
        for j, v in entries[i]:
            y[i] += v * x[j]
    return y


def ref_levels(n, rows, cols, lower):
    """Each row's level in the strict lower (or upper) triangle of the
    entries, one entry at a time in sweep order: one more than the highest
    level of the rows it reads, 0 for a row that reads none."""
    keep = cols < rows if lower else cols > rows
    rows, cols = rows[keep], cols[keep]
    seq = np.argsort(rows if lower else -rows, kind="stable")
    level = [0] * n
    for i, j in zip(rows[seq].tolist(), cols[seq].tolist()):
        level[i] = max(level[i], level[j] + 1)
    return level


def ref_ic_pivots(a, band, modified):
    """The IC/MIC pivot loop, reading every band entry including zeros."""
    t = to_triplets(a).coalesced()
    n = t.n
    diag, b, c = np.zeros(n), np.zeros(n), np.zeros(n)
    for i, j, v in zip(t.rows, t.cols, t.vals):
        if j == i:
            diag[i] = v
        elif j == i - 1:
            b[i] = v
        elif j == i - band:
            c[i] = v
    b_comp, c_comp = np.zeros(n), np.zeros(n)
    if modified and n > band:
        b_comp[1:n - band + 1] = c[band:]
        c_comp[band:] = b[1:n - band + 1]
    dt = np.empty(n)
    for i in range(n):
        v = diag[i]
        if i >= 1:
            v -= b[i] * (b[i] + b_comp[i]) / dt[i - 1]
        if i >= band:
            v -= c[i] * (c[i] + c_comp[i]) / dt[i - band]
        if v <= 0.0:
            raise IcBreakdownError(f"ic-pivot: nonpositive pivot {v:g} at row {i}")
        dt[i] = v
    return dt


def ref_ic_apply(f, r):
    n, N = f.n, f.band
    b, c, dt = f.b, f.c, f.dt
    y = np.empty(n)
    for i in range(n):
        s = r[i]
        if i >= 1:
            s -= b[i] * y[i - 1]
        if i >= N:
            s -= c[i] * y[i - N]
        y[i] = s / dt[i]
    y *= dt
    out = np.empty(n)
    for i in range(n - 1, -1, -1):
        s = y[i]
        if i + 1 < n:
            s -= b[i + 1] * out[i + 1]
        if i + N < n:
            s -= c[i + N] * out[i + N]
        out[i] = s / dt[i]
    return out


values = st.one_of(st.just(0.0), st.just(-0.0),
                   st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False))


@st.composite
def triangles(draw):
    """Random strict triangle: empty rows, explicit zeros, repeated columns."""
    n = draw(st.integers(1, 14))
    forward = draw(st.booleans())
    pairs = [(i, j) for i in range(n) for j in range(n) if (j < i if forward else j > i)]
    picked = draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []
    rows = np.array([i for i, _ in picked], dtype=np.int64)
    cols = np.array([j for _, j in picked], dtype=np.int64)
    vals = np.array(draw(st.lists(values, min_size=len(picked), max_size=len(picked))))
    diag = draw(st.lists(st.floats(0.25, 4.0) | st.floats(-4.0, -0.25),
                         min_size=n, max_size=n))
    rhs = draw(st.lists(values, min_size=n, max_size=n))
    return n, rows, cols, vals, np.array(diag), np.array(rhs), forward


@SETTINGS
@given(triangles())
def test_sweep_solve_matches_row_loop(case):
    n, rows, cols, vals, diag, rhs, forward = case
    sweep = _Sweep(n, rows, cols, vals, lower=forward)
    assert np.array_equal(bits(sweep.solve(diag, rhs)),
                          bits(ref_triangular(n, rows, cols, vals, diag, rhs)))


@SETTINGS
@given(triangles(), st.integers(0, 2**32 - 1))
def test_accumulate_matches_row_loop(case, seed):
    n, rows, cols, vals, diag, rhs, forward = case
    x = np.random.default_rng(seed).standard_normal(n)
    x[::3] = -0.0
    want = bits(ref_accumulate(n, rows, cols, vals, diag * rhs, x))
    sweep = _Sweep(n, rows, cols, vals, lower=forward)
    assert np.array_equal(bits(sweep.accumulate(diag * rhs, x)), want)
    one_group = _Panels(n, rows, cols, vals, np.zeros(n, dtype=np.int64))
    assert np.array_equal(bits(one_group.accumulate(diag * rhs, x)), want)


def test_sweep_levels_of_the_five_point_stencil():
    N = 7
    f = ic0_pentadiagonal(poisson_test(N).a, N)
    assert len(f.lower.groups) == 2 * N - 1
    assert len(f.upper.groups) == 2 * N - 1


def test_sweep_keeps_one_triangle_of_the_entries():
    rows, cols, vals = np.array([1, 0, 2]), np.array([0, 2, 1]), np.array([2.0, 3.0, 5.0])
    diag, rhs = np.array([1.0, 2.0, 4.0]), np.array([1.0, 1.0, 1.0])
    for lower in (True, False):
        keep = cols < rows if lower else cols > rows
        want = ref_triangular(3, rows[keep], cols[keep], vals[keep], diag, rhs)
        assert np.array_equal(bits(_Sweep(3, rows, cols, vals, lower).solve(diag, rhs)), bits(want))


IC_CASES = [("poisson", N) for N in (1, 2, 5, 12)] + [("cavity", N) for N in (4, 9)]


def _ic_problem(kind, N):
    return poisson_test(N).a if kind == "poisson" else cavity_laplace(N, 0.3).a


@pytest.mark.parametrize("modified", [False, True], ids=["ic", "mic"])
@pytest.mark.parametrize("kind,N", IC_CASES)
def test_ic_pivots_match_row_loop(kind, N, modified):
    a = _ic_problem(kind, N)
    f = (mic_pentadiagonal if modified else ic0_pentadiagonal)(a, N)
    assert np.array_equal(bits(f.dt), bits(ref_ic_pivots(a, N, modified)))


@SETTINGS
@given(st.sampled_from(IC_CASES), st.booleans(), st.integers(0, 2**32 - 1))
def test_apply_ic_solve_matches_row_loop(case, modified, seed):
    kind, N = case
    a = _ic_problem(kind, N)
    f = (mic_pentadiagonal if modified else ic0_pentadiagonal)(a, N)
    r = np.random.default_rng(seed).uniform(-1e3, 1e3, f.n)
    # Zero band entries are left out of the sweeps, so only zero signs may differ.
    assert np.array_equal(apply_ic_solve(f, r), ref_ic_apply(f, r))


def _cut_poisson(N):
    """Poisson N with every third east-west coupling dropped: its backward
    sweep's own levels differ from its forward levels reversed."""
    t = to_triplets(poisson_test(N).a)
    cut = (abs(t.rows - t.cols) == 1) & (np.minimum(t.rows, t.cols) % 3 == 0)
    return Triplets(t.n, t.rows, t.cols, np.where(cut, 0.0, t.vals))


def _recording_sweeps(make, *args, **kwargs):
    """make(*args, **kwargs), and the (args, kwargs) of each _Sweep it built."""
    built = []

    def recording(*a, **kw):
        built.append((a, kw))
        return _Sweep(*a, **kw)
    with mock.patch(f"{make.__module__}._Sweep", recording):
        return make(*args, **kwargs), built


def _factor_recording_sweeps(a, band, modified):
    """The IC/MIC factors of a, and the (args, kwargs) of each _Sweep built."""
    return _recording_sweeps(mic_pentadiagonal if modified else ic0_pentadiagonal, a, band)


@pytest.mark.parametrize("modified", [False, True], ids=["ic", "mic"])
@pytest.mark.parametrize("kind,N", IC_CASES + [("poisson", 17), ("cut", 6), ("cut", 11)])
def test_ic_backward_sweep_on_reversed_levels_is_its_own_levels_bit_for_bit(kind, N, modified):
    a = _cut_poisson(N) if kind == "cut" else _ic_problem(kind, N)
    f, built = _factor_recording_sweeps(a, N, modified)
    (args, _), = [call for call in built if call[1]["lower"] is False]
    own = _Sweep(*args, lower=False)  # the backward sweep on levels of its own
    assert f.upper.level.tolist() == (f.lower.level.max() - f.lower.level).tolist()
    assert (f.upper.level.tolist() != own.level.tolist()) == (kind == "cut")
    rng = np.random.default_rng(N)
    r, block = rng.uniform(-1e3, 1e3, f.n), rng.uniform(-1e3, 1e3, (f.n, 3))
    r[::4], block[::5] = -0.0, np.nan
    for rhs in (r, block):
        assert np.array_equal(bits(f.upper.solve(f.dt, rhs)), bits(own.solve(f.dt, rhs)))
        assert np.array_equal(bits(f.upper.accumulate(rhs, rhs)), bits(own.accumulate(rhs, rhs)))


@pytest.mark.parametrize("modified", [False, True], ids=["ic", "mic"])
@pytest.mark.parametrize("kind,N", IC_CASES + [("cut", 6)])
def test_ic_sweeps_are_given_their_levels(kind, N, modified):
    """Structural: the forward IC/MIC sweep finds its own levels, and only
    the backward sweep is given a schedule, the forward's reversed."""
    a = _cut_poisson(N) if kind == "cut" else _ic_problem(kind, N)
    f, built = _factor_recording_sweeps(a, N, modified)
    given = {kwargs["lower"]: kwargs.get("level") for _, kwargs in built}
    assert len(built) == 2 and given[True] is None
    assert given[False].tolist() == (f.lower.level.max() - f.lower.level).tolist()


link = st.one_of(st.just(0.0), st.floats(-1.0, -1.0 / 64))


@st.composite
def band_matrices(draw):
    """A diagonally dominant pentadiagonal Stieltjes matrix at band 1-12 with
    zero patterns in b and c drawn at random, b at line starts included
    (links that wrap from one grid line to the next), as (triplets, band)."""
    band = draw(st.integers(1, 12))
    n = band * draw(st.integers(1, 8)) + draw(st.integers(0, band - 1))
    b = draw(st.lists(link, min_size=n, max_size=n))
    c = draw(st.lists(link, min_size=n, max_size=n))
    diag = draw(st.lists(st.floats(4.5, 8.0), min_size=n, max_size=n))
    links = [(i, i - 1, b[i]) for i in range(1, n)]
    links += [(i, i - band, c[i]) for i in range(band, n)] if band > 1 else []
    lo, hi, v = (list(x) for x in zip(*links)) if links else ([], [], [])
    return Triplets(n, [*range(n), *lo, *hi], [*range(n), *hi, *lo], diag + v + v), band


@SETTINGS
@given(band_matrices(), st.booleans(), st.integers(0, 2**32 - 1))
def test_band_scan_levels_pivots_and_solve_match_the_loops(case, modified, seed):
    a, band = case
    f, built = _factor_recording_sweeps(a, band, modified)
    (args, _), = [call for call in built if call[1]["lower"] is True]
    assert f.lower.level.tolist() == ref_levels(*args[:3], lower=True)
    assert np.array_equal(bits(f.dt), bits(ref_ic_pivots(a, band, modified)))
    r = np.random.default_rng(seed).uniform(-1e3, 1e3, f.n)
    assert np.array_equal(bits(apply_ic_solve(f, r)), bits(ref_ic_apply(f, r)))


def _factor_or_message(modified, a, band):
    try:
        return (mic_pentadiagonal if modified else ic0_pentadiagonal)(a, band)
    except IcBreakdownError as exc:
        return str(exc)


def _outcomes(factors, r, block):
    """Per step, each factor in turn: its pivots, then its solve and M x of
    r and of block, as bytes of their bits; a breakdown gives its message."""
    steps = [lambda f: f.dt] + [lambda f, apply=apply, x=x: apply(f, x)
                                for apply in (apply_ic_solve, ic_matrix_apply) for x in (r, block)]
    return [f if isinstance(f, str) else bits(step(f)).tobytes() for step in steps for f in factors]


@SETTINGS
@given(band_matrices(), st.sampled_from([1.0, 0.3, 0.1]), st.booleans(),
       st.sampled_from(["triplets", "row", "col", "diag", "dense"]), st.integers(0, 2**32 - 1))
def test_ic_and_mic_on_one_matrix_are_those_built_alone(case, shrink, mic_first, kind, seed):
    """IC and MIC share the pattern of one operand, in either build order:
    pivots, breakdown messages and applies to a vector or a block are bitwise
    those of factors built on separate copies, with IC and MIC applies
    interleaved; the backward sweep's parts of D are the forward's reversed."""
    t, band = case  # a smaller diagonal (shrink < 1) may break down
    t = Triplets(t.n, t.rows, t.cols, np.where(t.rows == t.cols, shrink * t.vals, t.vals))
    copy = {"triplets": lambda: Triplets(t.n, t.rows.copy(), t.cols.copy(), t.vals.copy()),
            "dense": t.to_dense}.get(kind, lambda: build(t, kind))
    rng = np.random.default_rng(seed)
    r, block = rng.uniform(-1e3, 1e3, t.n), rng.uniform(-1e3, 1e3, (t.n, 3))
    order = [True, False] if mic_first else [False, True]
    a = copy()
    with np.errstate(all="ignore"):
        shared = [_factor_or_message(m, a, band) for m in order]
        alone = [_outcomes([_factor_or_message(m, copy(), band)], r, block) for m in order]
        assert _outcomes(shared, r, block) == [x for pair in zip(*alone) for x in pair]
    for f in shared:
        if not isinstance(f, str):
            want = [p.tolist() for p in f.lower.parts(f.dt)[::-1]]
            assert [p.tolist() for p in f.upper.parts(f.dt)] == want


@SETTINGS
@given(st.integers(2, 9), st.data(), st.booleans())
def test_ic_breakdown_row_and_message_match_row_loop(N, data, modified):
    t = to_triplets(poisson_test(N).a)
    row = data.draw(st.integers(1, N * N - 1))
    vals = t.vals.copy()
    vals[(t.rows == row) & (t.cols == row)] = data.draw(st.floats(0.01, 2.0))
    a = Triplets(N * N, t.rows, t.cols, vals)
    try:
        want = ref_ic_pivots(a, N, modified)
    except IcBreakdownError as exc:
        with pytest.raises(IcBreakdownError) as got:
            (mic_pentadiagonal if modified else ic0_pentadiagonal)(a, N)
        assert str(got.value) == str(exc)
    else:
        f = (mic_pentadiagonal if modified else ic0_pentadiagonal)(a, N)
        assert np.array_equal(bits(f.dt), bits(want))


@st.composite
def point_matrices(draw):
    """Random sparse matrix with a nonzero diagonal, as coalesced triplets."""
    n = draw(st.integers(1, 12))
    cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n, unique=True))
    cells = [(i, j) for i, j in cells if i != j]
    off = draw(st.lists(st.floats(-2.0, 2.0, allow_subnormal=False),
                        min_size=len(cells), max_size=len(cells)))
    diag = draw(st.lists(st.floats(0.5, 4.0), min_size=n, max_size=n))
    rows = [i for i, _ in cells] + list(range(n))
    cols = [j for _, j in cells] + list(range(n))
    return Triplets(n, rows, cols, off + diag).coalesced()


def _triangle_of(t, lower):
    keep = (t.cols < t.rows) if lower else (t.cols > t.rows)
    return t.rows[keep], t.cols[keep], t.vals[keep]


def _diag_of(t):
    d = np.zeros(t.n)
    on = t.rows == t.cols
    d[t.rows[on]] = t.vals[on]
    return d


@SETTINGS
@given(point_matrices(), st.sampled_from([1.0, 0.6, 1.7]), st.integers(0, 2**32 - 1))
def test_gauss_seidel_and_sor_sweeps_match_row_loop(t, omega, seed):
    r = np.random.default_rng(seed).standard_normal(t.n)
    method = "gauss_seidel" if omega == 1.0 else "sor"
    d = _diag_of(t) if method == "gauss_seidel" else _diag_of(t) / omega
    sp = split(build(t, "row"), method, omega=None if method == "gauss_seidel" else omega)
    rows, cols, vals = _triangle_of(t, lower=True)
    assert np.array_equal(bits(sp.m_solve(r)),
                          bits(ref_triangular(t.n, rows, cols, vals, d, r)))
    m_x = ref_accumulate(t.n, rows, cols, vals, d * r, r)
    assert np.array_equal(bits(sp.n_apply(r)), bits(m_x - sp.a_apply(r)))


@SETTINGS
@given(point_matrices(), st.sampled_from([0.5, 1.0, 1.5]), st.integers(0, 2**32 - 1))
def test_ssor_sweeps_match_row_loop(t, omega, seed):
    v = np.random.default_rng(seed).standard_normal(t.n)
    d = _diag_of(t)
    d_omega = d / omega
    lower, upper = _triangle_of(t, lower=True), _triangle_of(t, lower=False)
    a_apply = build(t, "row").matvec  # the splitting's A; its kernel has tests of its own

    def ref_m_solve(r):
        u = ref_triangular(t.n, *lower, d_omega, r)
        return u + ref_triangular(t.n, *upper, d_omega, r - a_apply(u))

    def ref_g(v):
        return v - ref_m_solve(a_apply(v))

    y = ref_accumulate(t.n, *upper, d_omega * v, v) / d
    m_v = omega / (2.0 - omega) * ref_accumulate(t.n, *lower, d_omega * y, y)
    sp = split(build(t, "row"), "ssor", omega=omega)
    assert np.array_equal(bits(sp.m_solve(v)), bits(ref_m_solve(v)))
    assert np.array_equal(bits(sp.n_apply(v)), bits(m_v - a_apply(v)))
    with mock.patch.object(stationary, "_DENSE_G_BYTES", 0):  # the sweeps on v
        got = iteration_matrix_applier(t, "ssor", omega=omega)(v)
    assert np.array_equal(bits(got), bits(ref_g(v)))
    dense = iteration_matrix_applier(t, "ssor", omega=omega)  # one block sweep on I
    dense(v)
    for j, e in enumerate(np.eye(t.n)):
        assert np.array_equal(bits(dense.matrix[:, j]), bits(ref_g(e)))


@settings(max_examples=200, deadline=None)
@given(triangles(), point_matrices())
def test_sweep_levels_are_the_loops(case, t):
    """The level scan gives the entry loop's levels: on a strict triangle
    with repeats, explicit zeros and empty rows, and on both triangles of a
    matrix."""
    n, rows, cols, vals, _, _, forward = case
    assert _Sweep(n, rows, cols, vals, forward).level.tolist() == ref_levels(n, rows, cols, forward)
    for lower in (True, False):
        got = _Sweep(t.n, t.rows, t.cols, t.vals, lower).level.tolist()
        assert got == ref_levels(t.n, t.rows, t.cols, lower)


@pytest.mark.parametrize("make", [lambda: poisson_test(23).a, lambda: cavity_laplace(17, 0.3).a,
                                  lambda: random_sparse(300, 0.02, 1).a, lambda: hilbert(8).a],
                         ids=["poisson23", "cavity17", "random300", "hilbert8"])
def test_sweep_levels_of_model_problems_are_the_loops(make):
    t = to_triplets(make()).coalesced()
    for lower in (True, False):
        got = _Sweep(t.n, t.rows, t.cols, t.vals, lower).level.tolist()
        assert got == ref_levels(t.n, t.rows, t.cols, lower)


POINT_SPLITS = [("gauss_seidel", None), ("sor", 1.3), ("ssor", 1.3),
                ("gauss_seidel", None), ("sor", 0.7), ("ssor", 1.6)]


def _splitting_bits(sp, v, block):
    return [bits(f(x)).tobytes() for f in (sp.m_solve, sp.n_apply) for x in (v, block)]


@SETTINGS
@given(point_matrices(), st.sampled_from(["triplets", "row", "col", "diag"]),
       st.integers(0, 2**32 - 1))
def test_point_splittings_of_one_matrix_keep_its_sweeps(t, kind, seed):
    """GS, SOR and SSOR of one operand build each triangle's sweep once, on
    first use; every later split, any omega, builds none, and its m_solve and
    n_apply of a vector and a block are bitwise those of a fresh copy's."""
    copy = (lambda: Triplets(t.n, t.rows.copy(), t.cols.copy(), t.vals.copy())) \
        if kind == "triplets" else (lambda: build(t, kind))
    rng = np.random.default_rng(seed)
    v, block = rng.standard_normal(t.n), rng.standard_normal((t.n, 3))
    a = copy()
    built = []
    for method, omega in POINT_SPLITS:
        sp, new = _recording_sweeps(split, a, method, omega=omega)
        built.append(len(new))
        fresh = split(copy(), method, omega=omega)
        assert _splitting_bits(sp, v, block) == _splitting_bits(fresh, v, block)
    assert built == [1, 0, 1, 0, 0, 0]


def test_a_reassigned_field_rebuilds_the_kept_sweeps():
    a = build(to_triplets(cavity_laplace(5, 0.3).a), "row")
    split(a, "ssor", omega=1.2)
    a.vals = np.where(a.cols < np.arange(a.n)[:, None], 0.5 * a.vals, a.vals)  # new lower entries
    sp, built = _recording_sweeps(split, a, "gauss_seidel")
    assert len(built) == 1
    r = np.random.default_rng(5).standard_normal(a.n)
    t = a.to_triplets()
    rows, cols, vals = _triangle_of(t.coalesced(), lower=True)
    assert np.array_equal(bits(sp.m_solve(r)),
                          bits(ref_triangular(a.n, rows, cols, vals, _diag_of(t), r)))
    _, built = _recording_sweeps(split, a, "ssor", omega=1.2)
    assert [args[4] for args, _ in built] == [False]  # the stale upper sweep, and only it


def test_a_dense_operand_jacobi_and_block_splits_keep_no_sweep():
    dense = to_dense(poisson_test(4).a)
    for _ in range(2):
        assert len(_recording_sweeps(split, dense, "ssor", omega=1.2)[1]) == 2
    a = build(to_triplets(poisson_test(4).a), "row")
    held = dict(vars(a))
    for method in ("jacobi", "block_jacobi", "block_gs"):
        split(a, method)
    assert vars(a).keys() == held.keys()


def test_kept_ssor_sweeps_at_poisson_100_take_under_2_5_mb():
    a = poisson_test(100).a
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        split(a, "ssor", omega=1.9)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 2.5e6
