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

Each action adds the same terms in the same order from zero as the numpy
loop it replaced (``tests/test_storage.py`` keeps those loops), so its bits
are that loop's.  All but the row format's A x from 8 slots on and the col
format's A' x for n = 1 run scipy's compiled loops on ``scipy.sparse``
arrays.  What a kernel keeps (a CSR or DIA copy, the IC/MIC pattern, the
GS/SOR/SSOR sweeps, a Triplets operand's row-compressed build) is built on
first use and again once a field it reads is reassigned: assign new
arrays, never mutate them in place.  Set-up reads
the diagonals it needs (Jacobi's and the splittings' D, the IC/MIC bands)
from a diag-format matrix's own columns (:func:`_diagonals`), no triplets.
"""

import bisect
import functools
import math
import warnings
from dataclasses import dataclass, is_dataclass

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs
from scipy.sparse import csr_array, dia_array


class _Fields:
    """The storage dataclasses' base: a pickle or copy holds the fields
    alone, not the kernels kept on the operand (:func:`_kernel`), which are
    built again on first use."""

    def __getstate__(self):
        return {f: self.__dict__[f] for f in self.__dataclass_fields__}


@dataclass
class Triplets(_Fields):
    """Coordinate-form matrix: entry lists (rows, cols, vals) on an n x n grid.

    Duplicate coordinates are allowed; they are summed when a storage format
    is built (see :func:`build`).  Indices of any dtype are taken when every
    one is an integer (2.0 is 2); a fractional or NaN one raises a
    ``ValueError`` naming ``rows`` or ``cols``.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        self.rows, self.cols = (_indices(getattr(self, f), f, self.n) for f in ("rows", "cols"))
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
class RowCompressed(_Fields):
    """Row-compressed padded storage (k = max nonzeros per row).

    The panels, padding kept, are read as one scipy CSR array on views of
    them.  ``rmatvec`` runs scipy's CSC loop on its transpose, adding the
    products in the panels' C order, as a bincount does.  For k < 8
    ``matvec`` runs the CSR loop, adding each row's products in turn from
    0.0, as numpy's reduce over fewer than 8 terms does.  From 8 slots on,
    where that reduce sums pairwise with 8 accumulators, ``matvec`` replays
    the reduce's order on slot-major copies ``(vals.T, cols.T)`` of the
    panels, one (k, n) pair built on first use: the products are one gather
    and one multiply, and :func:`_pairwise_rows` adds their slot rows.
    """

    n: int
    k: int
    vals: np.ndarray  # (n, k) floats, unused slots 0
    cols: np.ndarray  # (n, k) column indices, padded by repetition

    def __post_init__(self):
        _check_panels(self, "cols", "(n, k)", (self.n, self.k))

    def matvec(self, x):
        x = _check_dim(x, self.n, block=True)
        if self.k < 8:
            return self._csr() @ x
        vt, ct = _kernel(self, "_t", (self.vals, self.cols), lambda: (
            np.ascontiguousarray(self.vals.T), np.ascontiguousarray(self.cols.T)))
        terms = x.T.take(ct, axis=-1)  # (k, n) products; (m, k, n) for an (n, m) block
        terms *= vt
        y = _pairwise_rows(terms.swapaxes(0, -2))  # slots first
        y += 0.0  # the reduce adds the sum to its identity: a -0.0 row reads 0.0
        return y.T

    def rmatvec(self, x):
        x = _check_dim(x, self.n)
        return _kernel(self, "_at", (self.vals, self.cols), lambda: self._csr().T) @ x

    def _csr(self):
        """A as a scipy CSR array on views of the panels."""
        return _kernel(self, "_a", (self.vals, self.cols), lambda: csr_array(
            (self.vals.ravel(), self.cols.ravel(), np.arange(0, self.n * self.k + 1, self.k)),
            shape=(self.n, self.n)))

    def to_triplets(self):
        mask = self.vals != 0.0
        r = np.broadcast_to(np.arange(self.n)[:, None], self.vals.shape)
        return Triplets(self.n, r[mask], self.cols[mask], self.vals[mask])


@dataclass
class ColCompressed(_Fields):
    """Column-compressed padded storage (k = max nonzeros per column).

    Both actions run scipy's CSR loop, each sum adding its products in turn
    from 0.0, slot by slot.  ``matvec`` reads the panels' entries, padding
    kept, sorted by row and within a row in C order, as a bincount adds
    them; ``rmatvec`` reads copies ``(vals.T, rows.T)``, as numpy's reduce
    over axis 0 adds them, but for n = 1 runs that reduce, which sums the
    one contiguous column pairwise.
    """

    n: int
    k: int
    vals: np.ndarray  # (k, n) floats, unused slots 0
    rows: np.ndarray  # (k, n) row indices, padded by repetition

    def __post_init__(self):
        _check_panels(self, "rows", "(k, n)", (self.k, self.n))

    def matvec(self, x):
        x = _check_dim(x, self.n, block=True)
        return _kernel(self, "_a", (self.vals, self.rows), self._by_rows) @ x

    def _by_rows(self):
        """A as a scipy CSR array: the entries by row, then in flat (C) order."""
        r = self.rows.ravel().astype(np.int64, copy=False)
        at = np.argsort(r * r.size + np.arange(r.size))  # unique keys: any sort gives one order
        return csr_array((self.vals.ravel()[at], at % self.n,
                          np.searchsorted(r[at], np.arange(self.n + 1))), shape=(self.n, self.n))

    def rmatvec(self, x):
        x = _check_dim(x, self.n)
        if self.n == 1:  # the reduce sums one contiguous column pairwise
            return (self.vals * x[self.rows]).sum(axis=0)
        return _kernel(self, "_at", (self.vals, self.rows), lambda: csr_array(
            (self.vals.T.ravel(), self.rows.T.ravel(), np.arange(0, self.n * self.k + 1, self.k)),
            shape=(self.n, self.n))) @ x

    def to_triplets(self):
        mask = self.vals != 0.0
        c = np.broadcast_to(np.arange(self.n)[None, :], self.vals.shape)
        return Triplets(self.n, self.rows[mask], c[mask], self.vals[mask])


@dataclass
class DiagCompressed(_Fields):
    """Diagonal-compressed padded storage (k = number of stored diagonals).

    ``offsets[r]`` holds the signed index (column - row) of the diagonal
    stored in ``vals[:, r]``; ``vals[i, r]`` is the entry on row ``i`` of
    that diagonal.  A slot where ``i + offsets[r]`` leaves the grid is never
    read (:func:`build` leaves it 0).  Offsets are kept strictly ascending.

    ``vals`` is stored column-major (Fortran order; an array given in any
    other layout is copied into it), so each diagonal ``vals[:, r]`` is
    contiguous, as in the DIA/CDS layouts of Saad (*Iterative Methods for
    Sparse Linear Systems*, 2nd ed., §3.4) and Barrett et al.
    (*Templates*, §4.3.2).  Read as (k, n), that grid is scipy's
    column-indexed DIA data of A' (offsets ``-offsets``): ``rmatvec`` runs
    on it as it is, ``matvec`` on scipy's transpose of it, a (k, n) copy.
    Both add one diagonal at a time, in ascending offset order, from zero.

    The constructor raises a ``ValueError`` naming the field unless ``vals``
    is (n, k) and ``offsets`` is 1-D of length k, of a signed integer dtype
    (an unsigned one would wrap when negated), strictly ascending, with
    every offset in [1 - n, n - 1]; it costs O(k).
    """

    n: int
    k: int
    vals: np.ndarray     # (n, k), column-major
    offsets: np.ndarray  # (k,) signed, strictly ascending

    def __post_init__(self):
        self.vals = np.asfortranarray(self.vals, dtype=float)
        self.offsets = offs = np.asarray(self.offsets)
        if self.vals.shape != (self.n, self.k):
            raise ValueError(f"vals must be (n, k) = ({self.n}, {self.k}), not {self.vals.shape}")
        if offs.shape != (self.k,):
            raise ValueError(f"offsets must be 1-D of length k = {self.k}, not {offs.shape}")
        if not np.issubdtype(offs.dtype, np.signedinteger):
            raise ValueError(f"offsets must hold signed integers, not {offs.dtype}")
        if np.any(offs[1:] <= offs[:-1]):
            raise ValueError(f"offsets must be strictly ascending, not {offs.tolist()}")
        if self.k and not (1 - self.n <= offs[0] and offs[-1] <= self.n - 1):
            raise ValueError(f"offsets must lie in [{1 - self.n}, {self.n - 1}], "
                             f"not {offs.tolist()}")

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


def _indices(v, name, n):
    """v as a flat int64 array; a ValueError naming it unless every entry is
    an integer.  Non-integer dtypes are clipped to [-1, n] first, so an index
    off the grid, inf too, stays off it."""
    v = np.asarray(v).ravel()
    if v.dtype.kind in "biu":
        return v.astype(np.int64, copy=False)
    if not np.array_equal(v, np.trunc(v)):  # NaN too
        raise ValueError(f"{name} must hold integers, not {v[v != np.trunc(v)][0]}")
    return np.clip(v, -1, n).astype(np.int64)


def _check_panels(a, index, dims, shape):
    """The row or col format's check: ``a.vals`` as floats, its index grid
    ``index`` as an array, and a ValueError naming the field unless both are
    ``shape`` (``dims``) and every index is an integer in [0, n), as scipy's
    loops read x at an index unchecked.  Costs a min and a max of the grid."""
    a.vals, grid = np.asarray(a.vals, dtype=float), np.asarray(getattr(a, index))
    setattr(a, index, grid)
    for name, got in (("vals", a.vals.shape), (index, grid.shape)):
        if got != shape:
            raise ValueError(f"{name} must be {dims} = {shape}, not {got}")
    if not np.issubdtype(grid.dtype, np.integer):
        raise ValueError(f"{index} must hold integers, not {grid.dtype}")
    if grid.size and not (0 <= grid.min() and grid.max() < a.n):
        raise ValueError(f"{index} must lie in [0, {a.n}), not [{grid.min()}, {grid.max()}]")


def _kernel(a, name, fields, make):
    """The array (or arrays) ``make()`` kept on ``a`` as ``name``, built again
    once any of the ``fields`` arrays it was made from is replaced.  None means
    all of ``a``'s fields: an ``a`` without any (a dense array) keeps nothing."""
    if fields is None:
        if not is_dataclass(a):
            return make()
        fields = tuple(getattr(a, f) for f in a.__dataclass_fields__)
    held = a.__dict__.get(name)
    if held is None or any(f is not g for f, g in zip(fields, held[0])):
        held = a.__dict__[name] = fields, make()
    return held[1]


def _pairwise_rows(t):
    """The sum over axis 0 of t's k >= 8 rows, in the order of numpy's
    ``pairwise_sum`` (which ``add.reduce`` runs over each contiguous run of
    k terms), one elementwise operation at a time; overwrites t."""
    k = len(t)
    if k > 128:  # numpy's block size: split at a multiple of 8 and recurse
        h = k // 2 - k // 2 % 8
        return _pairwise_rows(t[:h]) + _pairwise_rows(t[h:])
    r, tail = t[:8], k - k % 8  # 8 accumulators, seeded with the first 8 rows
    for i in range(8, tail, 8):
        r += t[i:i + 8]
    s = r[0::2] + r[1::2]  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    s = s[0::2] + s[1::2]
    s = s[0] + s[1]
    for term in t[tail:]:  # the last k % 8 rows, in turn
        s += term
    return s


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


def _diagonals(a, offsets):
    """A's diagonals at ``offsets``, one row each (entry i of the one at o is
    A[i, i + o], 0.0 off the grid; a repeated offset's later rows read 0.0),
    and the first (row, col) of an entry on none of them (None if none),
    bitwise as coalesced triplets give them: a -0.0 reads 0.0.  A diag-format
    ``a`` is read in place, its slots on the grid checked finite as
    :class:`Triplets` checks them; other operands go through their triplets."""
    if not isinstance(a, DiagCompressed):
        t = to_triplets(a).coalesced()
        out, off = np.zeros((len(offsets), t.n)), t.cols - t.rows
        for o in set(offsets):
            out[offsets.index(o), t.rows[off == o]] = t.vals[off == o]
        k = np.flatnonzero(~np.isin(off, offsets))[:1]
        return out, next(zip(t.rows[k], t.cols[k]), None)
    out, firsts = np.zeros((len(offsets), a.n)), []
    for o, col in zip(a.offsets.tolist(), a.vals.T):
        lo, seg = max(0, -o), col[max(0, -o):a.n - max(0, o)]  # the rows on the grid
        if not np.isfinite(seg).all():
            raise ValueError("non-finite triplet value")
        if o in offsets:
            np.add(seg, 0.0, out=out[offsets.index(o), lo:lo + seg.size])
        elif seg[i := int(np.argmax(seg != 0.0))] != 0.0:  # its first nonzero entry
            firsts.append((lo + i, lo + i + o))
    return out, min(firsts, default=None)


class _Panels:
    """Entries (rows, cols, vals) of an n x n matrix, rows grouped and padded:
    rows renumbered group by group (row ``perm[p]`` at position p, row i at
    ``pos[i]``), each group a slice of positions with (width, size) panels of
    the positions its slots read and their values.  Slot 0 of position p is
    its start, 1.0 reading position n + 1 + p; slot k > 0 holds the row's
    k-th entry; padding holds 0.0 and reads a sink, 1.0, at position n.
    Every action is :meth:`sweep`, four numpy calls and a view per group; in
    a triangular solve the groups are levels of rows that do not couple
    (:class:`_Sweep`) or diagonal blocks (:class:`_Blocks`)."""

    def __init__(self, n, rows, cols, vals, group):
        self.n, self.perm = n, np.argsort(group, kind="stable")
        self.pos = np.argsort(self.perm)
        order = np.argsort(self.pos[rows], kind="stable")
        key = self.pos[rows][order]
        size = np.bincount(group, minlength=1)
        width = np.zeros(size.size, dtype=np.int64)
        np.maximum.at(width, group, 1 + np.bincount(rows, minlength=n))
        start, flat = (np.concatenate(([0], np.cumsum(v))) for v in (size, size * width))
        at = group[self.perm]  # the group of each position
        self._first = flat[at] + np.arange(n) - start[at]  # flat panel index of each start
        slot = np.arange(1, key.size + 1) - np.searchsorted(key, key)
        self._slots = np.empty(key.size, dtype=np.int64)  # and of each entry
        self._slots[order] = self._first[key] + slot * size[at[key]]
        self._shapes = list(zip(flat.tolist(), width.tolist(), size.tolist()))
        self.groups = list(zip(map(slice, start.tolist(), start[1:].tolist()),
                               self.panels(np.arange(n + 1, 2 * n + 1), self.pos[cols], fill=n)))
        self.vals = self.panels(1.0, np.asarray(vals, dtype=float))
        index = np.min_scalar_type(flat[-1])  # kept for later panels in the smallest type
        self._first, self._slots = self._first.astype(index), self._slots.astype(index)

    def panels(self, starts, entries, fill=0.0):
        """Per-group panels of start (by position) and entry values, padded with ``fill``."""
        f, w, m = self._shapes[-1]
        flat = np.full(f + w * m, fill, dtype=np.asarray(entries).dtype)
        flat[self._first] = starts
        flat[self._slots] = entries
        return [flat[f:f + w * m].reshape(w, m) for f, w, m in self._shapes]

    def sweep(self, rhs, finish=None, vals=None, head=None, op=np.multiply):
        """Per group in order, each row's slot terms op(vals, w[cols]) (vals by
        default the entries') folded by subtraction from slot 0 on, as a
        row-by-row loop subtracts (subtraction has no identity; padding
        subtracts 0.0, keeping any value, -0.0 and NaN too), then, with
        ``finish`` = (f, args), f(o, args[k], out=o) on group k's part o.  Work
        rows w: ``head`` (unset when None), the sink, then the starts, rhs.
        Results land on the head rows, which later groups read, or on the
        starts when a head is given.  rhs is (n,) or (n, k), columns alike."""
        rhs, n = _check_dim(rhs, self.n, block=True), self.n
        work = np.empty((2 * n + 1,) + rhs.shape[1:])
        work[n] = 1.0
        np.take(rhs, self.perm, axis=0, out=work[n + 1:])
        out = work[:n]
        if head is not None:
            np.take(head, self.perm, axis=0, out=out)
            out = work[n + 1:]
        f, args = finish or (None, [None] * len(self.groups))
        vals = self.vals if vals is None else vals
        gather = work.__getitem__  # fancy indexing: the cheaper gather for a vector
        if work.ndim > 1:  # take for a block, whose values broadcast along its rows
            gather, vals = functools.partial(work.take, axis=0), [v[..., None] for v in vals]
        for (rows, cols), v, arg in zip(self.groups, vals, args):
            terms = gather(cols)
            op(v, terms, out=terms)
            o = out[rows]
            np.subtract.reduce(terms, 0, None, o)  # over axis 0, into o
            if f is not None:
                f(o, arg, out=o)
        return out.take(self.pos, axis=0)

    def accumulate(self, base, x):
        """base + (the entries) @ x, each row adding its terms in slot order;
        x (and base) an (n,) vector or an (n, k) block.  The head holds -x:
        subtracting v (-x) adds v x, bit for bit."""
        return self.sweep(base, head=-_check_dim(x, self.n, block=True))


class _Sweep(_Panels):
    """Level-scheduled triangular sweeps (Anderson & Saad 1989; Saad,
    *Iterative Methods for Sparse Linear Systems*, 2nd ed., §11.6).

    T is the strict lower (or upper) triangle of the entries given as int64
    (rows, cols) and values, each row's entries in the order a row-by-row
    loop subtracts them.  The groups are levels: a row's level is one more
    than the highest level of the rows it reads (:meth:`levels`), unless
    ``level`` gives another schedule in which every row comes after the rows
    it reads (the levels of the transposed sweep, last to first, are one).
    :meth:`solve` is the panel sweep with a division by D as its finish: four
    numpy calls and a view a level, whatever its width, in the loop's order,
    so results are bitwise the loop's, on any schedule.  An (n, k) block runs
    the same calls on its k columns at once, each bitwise its vector sweep."""

    def __init__(self, n, rows, cols, vals, lower, level=None):
        keep = cols < rows if lower else cols > rows
        rows, cols, vals = rows[keep], cols[keep], np.asarray(vals, dtype=float)[keep]
        self.level = self.levels(n, rows, cols, lower) if level is None else level
        super().__init__(n, rows, cols, vals, self.level)

    @staticmethod
    def levels(n, rows, cols, lower):
        """Each row's level in a strict triangle, by one scan over blocks of
        rows in sweep order.  A block's rows read no row of it but the one
        just above: it ends at the first row reading farther back into it.
        Inside, level_i - i is a running maximum, along those links, of one
        more than the highest level row i reads in earlier blocks, minus i,
        lifted by n past each row without a link above."""
        order = np.argsort(rows, kind="stable")[::1 if lower else -1]  # sweep order
        rows, cols = rows[order], cols[order]
        if not lower:  # row i as row n - 1 - i: the upper triangle as a lower one
            rows, cols = n - 1 - rows, n - 1 - cols
        count = np.bincount(rows, minlength=n)
        reads = np.full((count.max(initial=0), n), n)  # by slot; padding reads g[n] = 0
        reads[np.arange(rows.size) - (np.cumsum(count) - count)[rows], rows] = cols
        above = np.arange(-1, n - 1)  # the row above each row
        reach = np.maximum.accumulate(np.where(reads < above, reads, -1).max(axis=0, initial=-1))
        lift = n * np.cumsum(~(reads == above).any(axis=0)) - np.arange(n)
        drop = lift - 1  # g = level + 1 = running maximum - lift + 1
        g, s = np.zeros(n + 1, dtype=np.int64), 0  # level + 1 of the rows done, else 0
        while s < n:
            e = reach.searchsorted(s)  # the first row reading farther back into the block
            m = g.take(reads[:, s:e]).max(axis=0, initial=0)
            m += lift[s:e]
            np.subtract(np.maximum.accumulate(m, out=m), drop[s:e], out=g[s:e])
            s = e
        return g[:n][::1 if lower else -1] - 1

    def parts(self, diag):
        """The levels' parts of D = diag(diag), as :meth:`solve` reads them."""
        d = np.asarray(diag, dtype=float)[self.perm]
        return [d[rows] for rows, _ in self.groups]

    def solve(self, diag, rhs):
        """u with (D + T) u = rhs, for an (n,) vector or an (n, k) block rhs,
        D = diag(diag) or, as a caller solving with one D many times keeps
        it, its :meth:`parts`: the sweep keeps nothing of D."""
        d = diag if isinstance(diag, list) else self.parts(diag)
        return self.sweep(rhs, (np.divide, d if np.ndim(rhs) == 1 else [v[:, None] for v in d]))

    def pivots(self, diag, nums):
        """u with u_i = diag_i - sum_k nums_k / u_(col k) over row i's entries
        in order: the incomplete-Cholesky pivot recurrence.  Start slots hold
        diag_i and read starts of 1.0, so each fold begins at diag_i / 1.0."""
        nums = self.panels(np.asarray(diag, dtype=float)[self.perm], nums)
        return self.sweep(np.ones(self.n), vals=nums, op=np.divide)


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
        """LU factors (lu, piv) of diagonal block ``i`` by LAPACK's getrf, as
        ``lu_factor`` gives them; ValueError on a zero or non-finite pivot."""
        lu, piv, _ = dgetrf(block)
        if not np.all(np.isfinite(lu)) or np.any(np.diagonal(lu) == 0.0):
            raise ValueError(f"singular diagonal block {i}")
        return lu, piv

    @staticmethod
    def _lu(factors):
        """The finish of a block sweep: group k's sum solved with ``factors[k]``."""
        return (lambda s, lu, out: np.copyto(out, _lu_solve(lu, s))), factors

    def multiply(self, x, lower):
        """M x for M the block diagonal of A, plus its block-lower part if
        ``lower``; x an (n,) vector or an (n, k) block, as for :meth:`forward`."""
        y = (self.diag @ x.reshape(self.nb, self.bs, -1)).reshape(x.shape)
        return self._lower.accumulate(y, x) if lower else y

    def solve(self, factors, rhs):
        """u_i = D_i^-1 rhs_i for each block i: :meth:`forward` without the sum."""
        parts = np.split(_check_dim(rhs, self.n, block=True), self.nb)
        return np.concatenate([_lu_solve(lu, r_i) for lu, r_i in zip(factors, parts)])

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


def _lu_solve(factors, rhs):
    """inv(A) rhs for A's LU ``factors``, rhs (m,) or (m, k): LAPACK's getrs
    as ``lu_solve`` calls it (same bits), without that wrapper's cost."""
    return dgetrs(*factors, rhs)[0]


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


def operator(a):
    """``(matvec, rmatvec, n)`` of an operand: x -> A x, x -> A' x, dimension.

    Triplets act through their row-compressed build, kept on them by
    :func:`_kernel`: their splittings, preconditioners and solves share one;
    an object with a ``matvec`` or a bare callable gives its own actions
    (``rmatvec`` and ``n`` None when absent); anything else is read as a
    dense matrix.
    """
    if isinstance(a, Triplets):
        a = _kernel(a, "_row", None, lambda: build(a, "row"))
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
    file listing every entry, 1-based, with 17 significant digits; a ``b``
    that is not 1-D raises a ValueError naming its shape."""
    b = _check_dim(b, np.size(b))
    return _coordinate(_MM_GENERAL, b.size, 1, np.arange(b.size), np.zeros(b.size, int), b)
