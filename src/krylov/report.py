"""Common result object returned by every iterative solver in the package,
and the set-up and stop decision every solver shares."""

import math
from dataclasses import dataclass, field

import numpy as np

from .storage import as_matvec, as_rmatvec

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
        index 0 is the initial residual).  Which norm is recorded depends
        on the solver and is stated in its docstring; solvers that track a
        cheap recurrence estimate expose the recomputed true norms through
        ``extras``.
    status : str
        One of ``"converged"``, ``"max_iter"``, ``"breakdown"``.
        ``"converged"`` implies a finite final residual norm.
    reason : str or None
        Breakdown kind when ``status == "breakdown"``; ``"non-finite"``
        when a residual norm came out inf or NaN, which stops every solver.
    extras : dict
        Solver-specific recorded sequences (coefficients, alternative
        residual histories, ...).
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

    ``tol_kind`` is one of ``"abs"`` (alias ``"abs_residual"``),
    ``"rel_to_b"`` or ``"rel_to_r0"``.
    """
    if tol_kind in ("abs", "abs_residual"):
        return tol
    if tol_kind == "rel_to_b":
        return tol * b_norm
    if tol_kind == "rel_to_r0":
        return tol * r0_norm
    raise ValueError(f"unknown tol_kind {tol_kind!r}")


class _Run:
    """Set-up and stop decision shared by the iterative solvers.

    Set-up: the operator ``a_apply`` (left-preconditioned to C A when
    ``c_apply`` is given, with right-hand side ``b`` = C b), its transpose
    ``at_apply`` (only when ``transpose`` names the solver that needs it;
    an operator without one raises ValueError), the start ``x`` (a copy of
    ``x0`` or zero), its residual ``r`` and norm ``r_norm``, ``max_iter``
    (default ``sweeps`` * n) and the absolute stopping ``threshold``.
    """

    def __init__(self, a, b, x0, tol, tol_kind, max_iter, c_apply=None,
                 transpose=None, sweeps=1):
        a_apply, at_apply = as_matvec(a), None
        if transpose:
            try:
                at_apply = as_rmatvec(a)
            except ValueError:
                raise ValueError(f"{transpose} needs the transpose action "
                                 "of the operator") from None
        b = np.asarray(b, dtype=float)
        if c_apply is not None:
            mv, rmv = a_apply, at_apply
            a_apply = lambda v: c_apply(mv(v))
            at_apply = (lambda v: rmv(c_apply(v))) if rmv is not None else None
            b = np.asarray(c_apply(b), dtype=float)
        self.a_apply, self.at_apply, self.b = a_apply, at_apply, b
        self.x = np.zeros(b.size) if x0 is None else np.array(x0, dtype=float)
        self.max_iter = max_iter if max_iter is not None else sweeps * b.size
        self.r = b - a_apply(self.x)
        self.r_norm = float(np.linalg.norm(self.r))
        self.threshold = residual_threshold(tol, tol_kind, float(np.linalg.norm(b)),
                                            self.r_norm)

    def stop(self, res, exact=False):
        """True when a run with residual norm ``res`` ends here: ``res`` is
        not finite, meets the threshold, or ``exact`` (a vanished residual
        or an exact iterate) holds."""
        return not math.isfinite(res) or exact or res <= self.threshold

    def finish(self, x, iterations, history, extras=None, res=None, exact=False):
        """Report of a run ending here, judged on ``res`` (default
        ``history[-1]``): a non-finite norm is a ``"non-finite"`` breakdown,
        one that :meth:`stop` accepts is converged, any other ran out of
        iterations."""
        res = history[-1] if res is None else res
        if not math.isfinite(res):
            return SolveReport(x, iterations, history, BREAKDOWN, "non-finite", extras or {})
        status = CONVERGED if exact or res <= self.threshold else MAX_ITER
        return SolveReport(x, iterations, history, status, extras=extras or {})
