"""Padded sparse storage formats and their matvec kernels.

Three formats are provided, each storing a fixed number ``k`` of slots per
row, column, or diagonal (unused value slots are zero):

* ``RowCompressed``  -- n x k value grid plus an n x k column-index grid;
* ``ColCompressed``  -- k x n value grid plus a k x n row-index grid;
* ``DiagCompressed`` -- n x k value grid plus k signed diagonal offsets
  (offset = column - row, 0 for the main diagonal).  The grid is kept
  column-major, so each stored diagonal is one contiguous run of memory.

These are dense k-wide panels with a uniform k, not general CSR/CSC with
pointer arrays; matrices with one unusually full row pay for it in padding.
Index grids are padded by repeating the last used index of the row/column
(or the row/column's own index when it is empty) so that padded slots read
adjacent memory.  All indices are 0-based in memory; MatrixMarket files are
1-based on disk.

Three actions run scipy's compiled loops through the public ``scipy.sparse``
arrays, bitwise equal to the numpy loops they replaced (same terms, added in
the same order from zero): ``DiagCompressed.rmatvec`` (DIA, with A''s data
``vals.T``, a view), ``DiagCompressed.matvec`` (DIA, on one (k, n) copy) and
``RowCompressed.rmatvec`` (CSC).  Each is built on first use and again when
a field it reads is reassigned: assign new arrays, never mutate them in
place.  The other actions stay numpy, as CSR/CSC would change their sums:
``ColCompressed.matvec`` adds slot-major, ``RowCompressed.matvec`` sums rows
pairwise, and ``ColCompressed.rmatvec`` keeps -0.0 that 0.0 + -0.0 would not.
"""

import bisect
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse import csr_array, dia_array


@dataclass
class Triplets:
    """Coordinate-form matrix: entry lists (rows, cols, vals) on an n x n grid.

    Duplicate coordinates are allowed; they are summed when a storage format
    is built (see :func:`build`).
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64).ravel()
        self.cols = np.asarray(self.cols, dtype=np.int64).ravel()
        self.vals = np.asarray(self.vals, dtype=float).ravel()
        if not (self.rows.size == self.cols.size == self.vals.size):
            raise ValueError("rows, cols, vals must have equal length")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.rows.size and (
            self.rows.min() < 0 or self.rows.max() >= self.n
            or self.cols.min() < 0 or self.cols.max() >= self.n
        ):
            raise ValueError("triplet index out of range")
        if self.vals.size and not np.all(np.isfinite(self.vals)):
            raise ValueError("non-finite triplet value")

    def coalesced(self):
        """Duplicate-summed copy, sorted by (row, col)."""
        key = self.rows * self.n + self.cols
        if np.all(key[1:] > key[:-1]):  # sorted and unique: the sum of one term, 0.0 + v
            return Triplets(self.n, self.rows.copy(), self.cols.copy(), self.vals + 0.0)
        uniq, inverse = np.unique(key, return_inverse=True)
        vals = np.bincount(inverse, weights=self.vals, minlength=uniq.size)
        return Triplets(self.n, uniq // self.n, uniq % self.n, vals)

    def to_dense(self):
        a = np.zeros((self.n, self.n))
        np.add.at(a, (self.rows, self.cols), self.vals)
        return a

    @property
    def nnz(self):
        return int(np.count_nonzero(self.coalesced().vals))


@dataclass
class RowCompressed:
    """Row-compressed padded storage (k = max nonzeros per row).

    ``rmatvec`` runs scipy's CSC loop on the panels as a CSR array, padding
    kept: it adds the products in the panels' C order, as a bincount does.
    """

    n: int
    k: int
    vals: np.ndarray  # (n, k) floats, unused slots 0
    cols: np.ndarray  # (n, k) column indices, padded by repetition

    def matvec(self, x):
        x = _check_dim(x, self.n, block=True)
        # each row's products, per column of a block, summed as one contiguous run
        return (self.vals * x.T.take(self.cols, axis=-1)).sum(axis=-1).T

    def rmatvec(self, x):
        x = _check_dim(x, self.n)
        return _kernel(self, "_at", (self.vals, self.cols), lambda: csr_array(
            (self.vals.ravel(), self.cols.ravel(), np.arange(0, self.n * self.k + 1, self.k)),
            shape=(self.n, self.n)).T) @ x

    def to_triplets(self):
        mask = self.vals != 0.0
        r = np.broadcast_to(np.arange(self.n)[:, None], self.vals.shape)
        return Triplets(self.n, r[mask], self.cols[mask], self.vals[mask])


@dataclass
class ColCompressed:
    """Column-compressed padded storage (k = max nonzeros per column)."""

    n: int
    k: int
    vals: np.ndarray  # (k, n) floats, unused slots 0
    rows: np.ndarray  # (k, n) row indices, padded by repetition

    def matvec(self, x):
        x = _check_dim(x, self.n, block=True)
        products = (_column(self.vals, x) * x).reshape((-1,) + x.shape[1:])
        if x.ndim == 1:  # bincount adds the entries in turn from 0, as np.add.at does
            return np.bincount(self.rows.ravel(), weights=products, minlength=self.n)
        y = np.zeros(x.shape)
        np.add.at(y, self.rows.ravel(), products)
        return y

    def rmatvec(self, x):
        x = _check_dim(x, self.n)
        return (self.vals * x[self.rows]).sum(axis=0)

    def to_triplets(self):
        mask = self.vals != 0.0
        c = np.broadcast_to(np.arange(self.n)[None, :], self.vals.shape)
        return Triplets(self.n, self.rows[mask], c[mask], self.vals[mask])


@dataclass
class DiagCompressed:
    """Diagonal-compressed padded storage (k = number of stored diagonals).

    ``offsets[r]`` holds the signed index (column - row) of the diagonal
    stored in ``vals[:, r]``; ``vals[i, r]`` is the entry on row ``i`` of
    that diagonal.  A slot where ``i + offsets[r]`` leaves the grid is never
    read (:func:`build` leaves it 0).  Offsets are kept sorted ascending.

    ``vals`` is stored column-major (Fortran order; an array given in any
    other layout is copied into it), so each diagonal ``vals[:, r]`` is
    contiguous, as in the DIA/CDS layouts of Saad (*Iterative Methods for
    Sparse Linear Systems*, 2nd ed., §3.4) and Barrett et al.
    (*Templates*, §4.3.2).  Read as (k, n), that grid is scipy's
    column-indexed DIA data of A' (offsets ``-offsets``): ``rmatvec`` runs
    on it as it is, ``matvec`` on scipy's transpose of it, a (k, n) copy.
    Both add one diagonal at a time, in ascending offset order, from zero.
    """

    n: int
    k: int
    vals: np.ndarray     # (n, k), column-major
    offsets: np.ndarray  # (k,) signed, pairwise distinct

    def __post_init__(self):
        self.vals = np.asfortranarray(self.vals, dtype=float)

    def matvec(self, x):
        x = _check_dim(x, self.n, block=True)
        return _kernel(self, "_a", (self.vals, self.offsets), lambda: self._transpose().T) @ x

    def rmatvec(self, x):
        x = _check_dim(x, self.n)
        return self._transpose() @ x

    def _transpose(self):
        """A' as a scipy DIA array whose data is ``vals.T``, a view."""
        return _kernel(self, "_at", (self.vals, self.offsets), lambda: dia_array(
            (self.vals.T, -self.offsets), shape=(self.n, self.n)))

    def to_triplets(self):
        vals = np.ascontiguousarray(self.vals)  # entries come out row by row: gather row-major
        r = np.broadcast_to(np.arange(self.n)[:, None], vals.shape)
        c = r + self.offsets
        mask = (vals != 0.0) & (c >= 0) & (c < self.n)  # slots off the grid are unused
        return Triplets(self.n, r[mask], c[mask], vals[mask])


def _kernel(a, name, fields, make):
    """The scipy array ``make()`` kept on storage ``a`` as ``name``, built
    again once any of the ``fields`` arrays it was made from is replaced."""
    held = a.__dict__.get(name)
    if held is None or any(f is not g for f, g in zip(fields, held[0])):
        held = a.__dict__[name] = fields, make()
    return held[1]


def _check_dim(x, n, block=False):
    """x as floats; ValueError naming its shape unless that is (n,), or (n, k)
    when ``block`` (k columns, each acted on as the vector it holds)."""
    x = np.asarray(x, dtype=float)
    if x.shape[:1] != (n,) or x.ndim > 1 + block:
        raise ValueError(f"vector has shape {x.shape}, expected ({n},)"
                         + (f" or ({n}, k)" if block else ""))
    return x


def _column(a, x):
    """``a`` with a trailing unit axis when x is an (n, k) block, so that its
    entries, one per row, broadcast along each row of x."""
    return a if x.ndim == 1 else a[..., None]


def _with_sink(x, fill):
    """x with one more row, at position n, holding ``fill``: the sink that
    padded panel slots read."""
    return np.concatenate((x, np.full((1,) + x.shape[1:], fill)))


def _point_parts(a):
    """Diagonal of a matrix and its off-diagonal entries (rows, cols, vals), by row."""
    t = to_triplets(a).coalesced()
    on = t.rows == t.cols
    diag = np.zeros(t.n)
    diag[t.rows[on]] = t.vals[on]
    return diag, t.rows[~on], t.cols[~on], t.vals[~on]


class _Panels:
    """Entries (rows, cols, vals) of an n x n matrix, rows grouped and padded:
    rows renumbered group by group (row ``perm[p]`` at position p, row i at
    ``pos[i]``), each group a slice of positions with (width, size) panels of
    entry positions and values, slot k of a row holding its k-th entry;
    slots past a row's end hold 0.0 and read a sink at position n.  Every
    triangular solve is :meth:`sweep`: its groups are levels of rows that do
    not couple (:class:`_Sweep`) or diagonal blocks (:class:`_Blocks`)."""

    def __init__(self, n, rows, cols, vals, group):
        self.n, self.perm = n, np.argsort(group, kind="stable")
        self.pos = np.argsort(self.perm)
        order = np.argsort(self.pos[rows], kind="stable")
        key = self.pos[rows][order]
        size = np.bincount(group, minlength=1)
        width = np.zeros(size.size, dtype=np.int64)
        np.maximum.at(width, group, np.bincount(rows, minlength=n))
        start, flat = (np.concatenate(([0], np.cumsum(v))) for v in (size, size * width))
        g, slot = group[self.perm[key]], np.arange(key.size) - np.searchsorted(key, key)
        self._slots = np.empty(key.size, dtype=np.int64)  # flat panel index of each entry
        self._slots[order] = flat[g] + slot * size[g] + key - start[g]
        self._shapes = list(zip(flat.tolist(), width.tolist(), size.tolist()))
        self.groups = list(zip(map(slice, start.tolist(), start[1:].tolist()),
                               self.panels(self.pos[cols], fill=n), self.panels(vals)))

    def panels(self, entry_vals, fill=0.0):
        """Per-group panels of per-entry values, padded with ``fill``."""
        f, w, m = self._shapes[-1]
        flat = np.full(f + w * m, fill, dtype=np.asarray(entry_vals).dtype)
        flat[self._slots] = entry_vals
        return [flat[f:f + w * m].reshape(w, m) for f, w, m in self._shapes]

    def _levels(self, x):
        """The groups, with values shaped to broadcast along the rows of x."""
        if x.ndim == 1:
            return self.groups
        return [(rows, cols, vals[..., None]) for rows, cols, vals in self.groups]

    def accumulate(self, base, x):
        """base + (the entries) @ x, each row adding its terms in slot order;
        x (and base) an (n,) vector or an (n, k) block."""
        xs = _with_sink(_check_dim(x, self.n, block=True)[self.perm], -0.0)  # y + 0.0 * -0.0 == y
        y = np.asarray(base, dtype=float)[self.perm]
        for rows, cols, vals in self._levels(xs):
            for term in xs.take(cols, axis=0) * vals:
                y[rows] += term
        return y[self.pos]

    def sweep(self, rhs, finish):
        """u from rhs, group by group in order: s = rhs[rows] minus each
        slot's term in turn (padding subtracts 0.0 * 1.0, the sink holding
        1.0), then ``finish(k, rows, s, out)`` writes group k's part of u into
        ``out``.  Entries read earlier groups only.  rhs is an (n,) vector or
        an (n, k) block, whose columns run alike."""
        r = _check_dim(rhs, self.n, block=True)[self.perm]
        u = _with_sink(np.empty(r.shape), 1.0)
        for k, (rows, cols, vals) in enumerate(self._levels(r)):
            s = r[rows]
            for term in u.take(cols, axis=0) * vals:
                s = s - term
            finish(k, rows, s, u[rows])
        return u[self.pos]


class _Sweep(_Panels):
    """Level-scheduled triangular sweeps (Anderson & Saad 1989; Saad,
    *Iterative Methods for Sparse Linear Systems*, 2nd ed., §11.6).

    T is the strict lower (or upper) triangle of the entries given as int64
    (rows, cols) and values, each row's entries in the order a row-by-row
    loop subtracts them.  The groups are levels: a row's level is one more
    than the highest level of the rows it reads.  :meth:`solve` is the
    panel sweep with a division by D as its finish: a level takes a few
    numpy calls in the loop's operation order, so results are bitwise the
    loop's.  An (n, k) block runs the same calls on its k columns at once,
    each bitwise its vector sweep."""

    def __init__(self, n, rows, cols, vals, lower):
        keep = cols < rows if lower else cols > rows
        rows, cols, vals = rows[keep], cols[keep], np.asarray(vals, dtype=float)[keep]
        seq = np.argsort(rows if lower else -rows, kind="stable")
        level = [0] * n
        for i, j in zip(rows[seq].tolist(), cols[seq].tolist()):
            level[i] = max(level[i], level[j] + 1)
        super().__init__(n, rows, cols, vals, np.array(level, dtype=np.int64))

    def solve(self, diag, rhs):
        """u with (D + T) u = rhs, D = diag(diag), for an (n,) vector or an
        (n, k) block rhs."""
        d = _column(np.asarray(diag, dtype=float)[self.perm], np.asarray(rhs))
        return self.sweep(rhs, lambda k, rows, s, out: np.divide(s, d[rows], out=out))

    def pivots(self, diag, nums):
        """u with u_i = diag_i - sum_k nums_k / u_(col k) over row i's entries
        in order: the incomplete-Cholesky pivot recurrence."""
        u = np.append(np.empty(self.n), 1.0)
        d = np.asarray(diag, dtype=float)[self.perm]
        for (rows, cols, _), nums_k in zip(self.groups, self.panels(nums)):
            s = d[rows]
            for term in nums_k / u.take(cols):
                s = s - term
            u[rows] = s
        return u[self.pos]


class _Blocks:
    """Partition of an n x n matrix into square blocks of size ``bs`` (None:
    round(sqrt(n))), without an n x n array.

    ``diag`` holds the dense diagonal blocks A_ii as an (nb, bs, bs) array
    and ``coupling`` the strictly block-lower entries (rows, cols, vals), by
    row.  The block sweeps run them as :class:`_Panels` with the blocks as
    groups, built on first use: ``_lower`` in block order, ``_upper`` the
    transposed entries with the last block first.  :meth:`solve` leaves the
    coupling out: one LU solve per diagonal block.  With ``band`` given, an
    entry more than ``band`` blocks off the diagonal is rejected by name.
    """

    def __init__(self, a, bs=None, band=None):
        t = to_triplets(a).coalesced()
        n = t.n
        bs = int(round(math.sqrt(n))) if bs is None else bs
        if bs < 1 or n % bs != 0:
            raise ValueError(f"block size {bs} does not divide n={n}")
        self.n, self.bs, self.nb = n, bs, n // bs
        bi, bj = t.rows // bs, t.cols // bs
        far = np.flatnonzero(np.abs(bi - bj) > (self.nb if band is None else band))
        if far.size:
            r, c = t.rows[far[0]], t.cols[far[0]]
            raise ValueError(f"entry ({r}, {c}) more than {band} block(s) off the diagonal")
        on, low = bi == bj, bj < bi
        self.diag = np.zeros((self.nb, bs, bs))
        self.diag[bi[on], t.rows[on] % bs, t.cols[on] % bs] = t.vals[on]
        self.coupling = t.rows[low], t.cols[low], t.vals[low]

    @functools.cached_property
    def _lower(self):
        return _Panels(self.n, *self.coupling, np.arange(self.n) // self.bs)

    @functools.cached_property
    def _upper(self):
        rows, cols, vals = self.coupling
        return _Panels(self.n, cols, rows, vals, self.nb - 1 - np.arange(self.n) // self.bs)

    @staticmethod
    def factor(block, i):
        """LU factors of diagonal block ``i``; ValueError on a zero or
        non-finite pivot (LAPACK's singularity warning is not passed on)."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu = scipy.linalg.lu_factor(block, check_finite=False)
        if not np.all(np.isfinite(lu[0])) or np.any(np.diagonal(lu[0]) == 0.0):
            raise ValueError(f"singular diagonal block {i}")
        return lu

    @staticmethod
    def _lu(factors):
        """The finish of a block sweep: group k's sum solved with ``factors[k]``."""
        return lambda k, rows, s, out: np.copyto(
            out, scipy.linalg.lu_solve(factors[k], s, check_finite=False))

    def multiply(self, x, lower):
        """M x for M the block diagonal of A, plus its block-lower part if
        ``lower``; x an (n,) vector or an (n, k) block, as for :meth:`forward`."""
        y = (self.diag @ x.reshape(self.nb, self.bs, -1)).reshape(x.shape)
        return self._lower.accumulate(y, x) if lower else y

    def solve(self, factors, rhs):
        """u_i = D_i^-1 rhs_i for each block i: :meth:`forward` without the sum."""
        parts = np.split(_check_dim(rhs, self.n, block=True), self.nb)
        return np.concatenate([scipy.linalg.lu_solve(lu, r_i, check_finite=False)
                               for lu, r_i in zip(factors, parts)])

    def forward(self, factors, rhs):
        """u_i = D_i^-1 (rhs_i - sum_{j<i} A_ij u_j) for i = 0, 1, ..., D_i
        given by its LU ``factors``.  rhs is an (n,) vector or an (n, k)
        block: each row subtracts its terms in turn, column by column, and
        each D_i^-1 is one multi-column LAPACK solve."""
        return self._lower.sweep(rhs, self._lu(factors))

    def backward(self, factors, rhs):
        """u_i = D_i^-1 (rhs_i - sum_{j>i} A_ji' u_j) for i = nb-1, ..., 0;
        rhs as for :meth:`forward`."""
        return self._upper.sweep(rhs, self._lu(factors[::-1]))


def build(triplets: Triplets, target: str):
    """Assemble a storage format from triplets (duplicates summed).

    ``target`` is one of "row", "col", "diag"; :func:`to_dense` gives the
    dense matrix.
    """
    t = triplets.coalesced()
    n = t.n
    if target == "row":  # coalesced order is by (row, col)
        count = np.bincount(t.rows, minlength=n)
        k = max(1, int(count.max()))
        slot = np.arange(t.rows.size) - np.repeat(np.cumsum(count) - count, count)
        vals = np.zeros((n, k))
        vals[t.rows, slot] = t.vals
        cols = np.tile(np.arange(n)[:, None], (1, k))  # empty row: repeat own index
        cols[t.rows, slot] = t.cols
        last = np.minimum(np.arange(k), np.maximum(count, 1)[:, None] - 1)
        return RowCompressed(n, k, vals, np.take_along_axis(cols, last, axis=1))
    if target == "col":  # the column panels of A are the row panels of A'
        at = build(Triplets(n, t.cols, t.rows, t.vals), "row")
        return ColCompressed(n, at.k, at.vals.T.copy(), at.cols.T.copy())
    if target == "diag":
        if t.rows.size == 0:
            return DiagCompressed(n, 1, np.zeros((n, 1), order="F"), np.array([0]))
        offs = np.unique(t.cols - t.rows)
        k = offs.size
        vals = np.zeros((n, k), order="F")
        vals[t.rows, np.searchsorted(offs, t.cols - t.rows)] = t.vals
        return DiagCompressed(n, k, vals, offs)
    raise ValueError(f"unknown storage target {target!r}")


def to_triplets(a):
    """Triplets view of any supported matrix representation."""
    if isinstance(a, Triplets):
        return a
    if isinstance(a, (RowCompressed, ColCompressed, DiagCompressed)):
        return a.to_triplets()
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    r, c = np.nonzero(a)
    return Triplets(a.shape[0], r, c, a[r, c])


def to_dense(a):
    if isinstance(a, np.ndarray):
        return a
    return to_triplets(a).to_dense()


def _built(a):
    """Triplets as their row-compressed build, any other operand as it is."""
    return build(a, "row") if isinstance(a, Triplets) else a


def operator(a):
    """``(matvec, rmatvec, n)`` of an operand: x -> A x, x -> A' x, dimension.

    Triplets act through their row-compressed build; an object with a
    ``matvec`` or a bare callable gives its own actions (``rmatvec`` and ``n``
    None when absent); anything else is read as a dense matrix.
    """
    a = _built(a)
    if hasattr(a, "matvec") or callable(a):
        return getattr(a, "matvec", a), getattr(a, "rmatvec", None), getattr(a, "n", None)
    arr = np.asarray(a, dtype=float)
    n = arr.shape[0]
    matvec = lambda x: arr @ _check_dim(x, n, block=True)
    return matvec, (lambda x: arr.T @ _check_dim(x, n)), n


_MM_GENERAL = "%%MatrixMarket matrix coordinate real general"
_MM_SYMMETRIC = "%%MatrixMarket matrix coordinate real symmetric"
_FIELDS = [("i", np.int64), ("j", np.int64), ("v", float)]


def _entries(lines):
    """Entry lines as an (i, j, v) structured array, or the error loadtxt
    raises on a line it cannot read as two int64 and a float."""
    with warnings.catch_warnings():  # numpy < 2 only warns on an index written "1.0"
        warnings.simplefilter("error", DeprecationWarning)
        try:  # no comments left to strip
            return np.loadtxt(lines, _FIELDS, comments=None, ndmin=1)
        except (ValueError, DeprecationWarning) as exc:
            return exc


def _parse_coordinate(text: str):
    """Validated content of MatrixMarket coordinate real text.

    Returns ``(symmetric, nrows, ncols, rows, cols, vals)``: the entries as
    0-based int64 ``rows``, ``cols`` and float ``vals`` arrays, in file order.
    Rejects an unknown header, a malformed size line, an entry count other
    than the announced one, then the first malformed entry line (with
    numpy's reason), then the first entry line with an index outside the
    announced size or a non-finite value; each entry line is named by its
    line number in the file and its text.
    """
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty MatrixMarket input")
    header = lines[0].rstrip()
    if header not in (_MM_GENERAL, _MM_SYMMETRIC):
        raise ValueError(f"unsupported MatrixMarket header: {header!r}")
    # 0-based indices of the size and entry lines; the header starts with "%"
    keep = [i for i, ln in enumerate(lines) if ln.strip() and not ln.lstrip().startswith("%")]
    body = [lines[i] for i in keep]
    if not body:
        raise ValueError("missing size line")
    try:  # also a count of tokens other than three
        nrows, ncols, nnz = map(int, body[0].split())
    except ValueError as exc:
        raise ValueError(f"malformed size line: {body[0]!r}") from exc
    if len(body) - 1 != nnz:
        raise ValueError(f"expected {nnz} entries, found {len(body) - 1}")
    entries = body[1:]
    e = _entries(entries) if nnz else np.empty(0, _FIELDS)  # loadtxt warns on no lines
    if isinstance(e, Exception):  # numpy counts entry lines: bisect for the first bad one
        p = bisect.bisect(range(nnz), False,
                          key=lambda m: isinstance(_entries(entries[:m + 1]), Exception))
        exc = _entries(entries[p:p + 1])
        raise ValueError(f"malformed entry line: line {keep[1 + p] + 1}: {entries[p]!r}: "
                         f"{exc}") from exc
    rows, cols, vals = e["i"] - 1, e["j"] - 1, e["v"]
    out = (rows < 0) | (rows >= nrows) | (cols < 0) | (cols >= ncols)
    bad = np.flatnonzero(out | ~np.isfinite(vals))
    if bad.size:
        kind = "index out of range" if out[bad[0]] else "non-finite value"
        raise ValueError(f"{kind}: line {keep[1 + bad[0]] + 1}: {entries[bad[0]]!r}")
    return header == _MM_SYMMETRIC, nrows, ncols, rows, cols, vals


def read_matrix_market(text: str) -> Triplets:
    """Parse MatrixMarket coordinate real (general or symmetric) text.

    Symmetric files store the lower triangle; each off-diagonal entry is
    followed by its mirror.  Indices are 1-based on disk, 0-based in the result.
    """
    symmetric, nrows, ncols, rows, cols, vals = _parse_coordinate(text)
    if nrows != ncols:
        raise ValueError("only square matrices are supported")
    if symmetric:
        take = np.repeat(np.arange(rows.size), 1 + (rows != cols))
        mirror = np.flatnonzero(take[1:] == take[:-1]) + 1  # the second of each pair
        rows, cols, vals = rows[take], cols[take], vals[take]
        rows[mirror], cols[mirror] = cols[mirror], rows[mirror]
    return Triplets(nrows, rows, cols, vals)


def _coordinate(header, nrows, ncols, rows, cols, vals):
    """MatrixMarket coordinate text of 0-based entries, written 1-based."""
    lines = map("{} {} {:.17g}".format, (rows + 1).tolist(), (cols + 1).tolist(), vals.tolist())
    return "\n".join([header, f"{nrows} {ncols} {len(vals)}", *lines]) + "\n"


def write_matrix_market(triplets: Triplets, symmetric=False) -> str:
    """Serialize triplets as MatrixMarket coordinate real text.

    Entries are coalesced, sorted by (row, column), written 1-based with 17
    significant digits.  The general kind lists every entry; with
    ``symmetric=True`` (for a symmetric matrix) the symmetric kind lists
    the lower triangle only.
    """
    t = triplets.coalesced()
    keep = t.rows >= t.cols if symmetric else slice(None)
    return _coordinate(_MM_SYMMETRIC if symmetric else _MM_GENERAL, t.n, t.n,
                       t.rows[keep], t.cols[keep], t.vals[keep])


def read_vector_market(text: str, n: int) -> np.ndarray:
    """Parse an n x 1 MatrixMarket coordinate real general file as a vector.

    Validation is that of :func:`read_matrix_market`; entries absent from
    the file are zero and duplicates are summed in file order.
    """
    symmetric, nrows, ncols, rows, _, vals = _parse_coordinate(text)
    if symmetric or nrows != n or ncols != 1:
        raise ValueError(f"expected a general {n} x 1 vector")
    return np.bincount(rows, weights=vals, minlength=n).astype(float, copy=False)  # int if empty


def write_vector_market(b) -> str:
    """Serialize a vector as an n x 1 MatrixMarket coordinate real general
    file listing every entry, 1-based, with 17 significant digits."""
    b = np.asarray(b, dtype=float)
    return _coordinate(_MM_GENERAL, b.size, 1, np.arange(b.size), np.zeros(b.size, int), b)
