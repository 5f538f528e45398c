"""Common result object returned by every iterative solver in the package,
and the set-up and stop decision every solver shares."""

import math
from dataclasses import dataclass, field

import numpy as np

from .storage import operator

CONVERGED = "converged"
MAX_ITER = "max_iter"
BREAKDOWN = "breakdown"


@dataclass
class SolveReport:
    """Outcome of an iterative solve.

    Attributes
    ----------
    x : ndarray
        Final approximation.
    iterations : int
        Number of iterations actually performed.
    history : list of float
        Residual-norm history, one entry per recorded step (the entry at
        index 0 is the initial residual).  It holds the norm the solver's
        stop test reads, named in its docstring; no solver spends a matvec
        on a norm it only records.
    status : str
        One of ``"converged"``, ``"max_iter"``, ``"breakdown"``.
        ``"converged"`` implies a finite final residual norm.
    reason : str or None
        Breakdown kind when ``status == "breakdown"``; ``"non-finite"``
        when a residual norm came out inf or NaN, which stops every solver.
    extras : dict
        Solver-specific recorded sequences; ``cg``, ``pcg`` and
        ``solve_poly_pcg`` share ``c_norms``, ``lambda_hat``, ``mu``, ``d_hat``.

    A solver's ``callback`` receives one event per iteration: a dict with
    the iteration number ``i`` and copies of the solver's vectors, so the
    callback cannot change the run.  The events carry ``x`` (GMRES's
    excepted), so a caller computes the true residual norms there::

        true = []
        rep = cg(a, b, callback=lambda e: true.append(np.linalg.norm(b - a @ e["x"])))
        true.insert(0, rep.history[0])
    """

    x: np.ndarray
    iterations: int
    history: list
    status: str
    reason: str | None = None
    extras: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED

    @property
    def final_residual(self) -> float:
        return self.history[-1]


def residual_threshold(tol, tol_kind, b_norm, r0_norm):
    """Absolute residual threshold for a relative/absolute stopping rule.

    ``tol_kind`` is one of ``"abs"``, ``"rel_to_b"`` or ``"rel_to_r0"``; a
    relative kind needs its norm (``b_norm`` or ``r0_norm``) given.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    if tol_kind == "abs":
        return tol
    if tol_kind == "rel_to_b":
        if b_norm is None:
            raise ValueError("rel_to_b stopping needs b_norm")
        return tol * b_norm
    if tol_kind == "rel_to_r0":
        if r0_norm is None:
            raise ValueError("rel_to_r0 stopping needs r0_norm")
        return tol * r0_norm
    raise ValueError(f"unknown tol_kind {tol_kind!r}")


class _Run:
    """Set-up, per-iteration record and every exit of an iterative solver.

    Set-up: the operator ``a_apply`` (left-preconditioned to C A when
    ``c_apply`` is given, with right-hand side ``b`` = C b), its transpose
    ``at_apply`` (None if the operand has none; a ``transpose`` solver then
    raises ValueError), the start ``x`` (a copy of ``x0`` or zero), its
    residual ``r`` and norm ``r_norm``, ``max_iter`` (default ``sweeps`` * n)
    and the absolute stopping ``threshold``.  A negative ``max_iter`` or
    ``tol``, a NaN ``tol``, or a ``b`` or ``x0`` not 1-D with the operator's
    length (else ``b``'s size) raises ValueError.

    Record: ``history`` starts as [r_norm] and grows by :meth:`record`,
    which also sends ``callback`` its events; ``extras`` (default empty)
    holds the solver's recorded sequences.  Every report of a solver comes
    from :meth:`breakdown` or :meth:`finish`, with this history and extras.
    """

    def __init__(self, a, b, x0, tol, tol_kind, max_iter, c_apply=None,
                 transpose=None, sweeps=1, callback=None, extras=None):
        if max_iter is not None and max_iter < 0:
            raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
        residual_threshold(tol, tol_kind, 1.0, 1.0)  # a bad tol or tol_kind, before any work
        a_apply, at_apply, n = operator(a)
        if transpose and at_apply is None:
            raise ValueError(f"{transpose} needs the transpose action of the operator")
        b = np.asarray(b, dtype=float)
        n = b.size if n is None else n
        if b.shape != (n,):
            raise ValueError(f"right-hand side has shape {b.shape}, expected ({n},)")
        if c_apply is not None:
            mv, rmv = a_apply, at_apply
            a_apply = lambda v: c_apply(mv(v))
            at_apply = (lambda v: rmv(c_apply(v))) if rmv is not None else None
            b = np.asarray(c_apply(b), dtype=float)
        self.a_apply, self.at_apply, self.b = a_apply, at_apply, b
        self.x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
        if self.x.shape != (n,):
            raise ValueError(f"initial guess has shape {self.x.shape}, expected ({n},)")
        self.max_iter = max_iter if max_iter is not None else sweeps * b.size
        self.r = b - a_apply(self.x)
        self.r_norm = float(np.linalg.norm(self.r))
        self.threshold = residual_threshold(tol, tol_kind, float(np.linalg.norm(b)),
                                            self.r_norm)
        self.history = [self.r_norm]
        self.extras = {} if extras is None else extras
        self.callback = callback

    def record(self, res, i=None, **event):
        """Append ``res`` to the history.  With a callback and an iteration
        number ``i``, send the callback ``{"i": i, **event}``, each array in
        ``event`` copied."""
        self.history.append(res)
        if self.callback is not None and i is not None:
            self.callback({"i": i, **{k: v.copy() if isinstance(v, np.ndarray) else v
                                      for k, v in event.items()}})

    def stop(self, res, exact=False):
        """True when a run with residual norm ``res`` ends here: ``res`` is
        not finite, meets the threshold, or ``exact`` (a vanished residual
        or an exact iterate) holds."""
        return not math.isfinite(res) or exact or res <= self.threshold

    def breakdown(self, x, iterations, reason):
        """Report of a run stopped by a breakdown of kind ``reason``."""
        return SolveReport(x, iterations, self.history, BREAKDOWN, reason, self.extras)

    def finish(self, x, iterations, res=None, exact=False):
        """Report of a run ending here, judged on ``res`` (default the last
        history entry): a non-finite norm is a ``"non-finite"`` breakdown,
        one that :meth:`stop` accepts is converged, any other ran out of
        iterations."""
        res = self.history[-1] if res is None else res
        if not math.isfinite(res):
            return self.breakdown(x, iterations, "non-finite")
        status = CONVERGED if exact or res <= self.threshold else MAX_ITER
        return SolveReport(x, iterations, self.history, status, extras=self.extras)
