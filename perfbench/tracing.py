"""Timing of one benchmark pass, with optional spans at layer boundaries.

A pass times every library call it makes as either set-up or solve.  When
tracing is on, the calls are also recorded as spans (name, parent, start,
end, case), and the operator, preconditioner appliers, splitting callables
and iteration-matrix appliers handed to the solvers are wrapped so that each
matvec, rmatvec and apply becomes a child span.  Spans stay in memory and
are reduced to per-layer numbers after the pass.

A span's self time is its duration minus the durations of its direct
children.  Solver spans therefore carry the "vector updates and
bookkeeping" layer as self time.
"""

import time
from dataclasses import dataclass, field

from krylov.report import CONVERGED, SolveReport

perf = time.perf_counter

CALIBRATION_LOOPS = 40_000  # one calibration sample: about 3 ms of interpreter work
REFERENCE_S = 0.003  # calibration sample time that reference seconds are scaled to
CALIBRATION_INTERVAL_S = 0.1  # a sample older than this is retaken before it is used


def _interpreter_loop():
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return total


class SpeedClock:
    """Host-speed calibration for reference-second timings.

    On a shared host the interpreter's speed drifts by tens of percent over
    seconds to minutes, and interpreter-bound work slows with it.  A fixed
    interpreter-bound loop that does not touch the library is timed next to
    the measured calls (outside their timed region), and a call's reference
    seconds are its wall seconds times ``REFERENCE_S`` over the mean of the
    samples taken just before and just after it.  Code made slower or faster
    moves reference seconds as it moves wall seconds; a host that slows
    down moves the loop too and cancels out.  Only calls of the phases
    ("setup", "solve") the clock covers are calibrated; the others keep
    wall seconds.
    """

    def __init__(self, phases=()):
        self.phases = phases
        self.sample_s = None
        self.taken_at = float("-inf")

    def sample(self, phase):
        """The current calibration time, retaken if it is stale; None for a
        phase the clock does not cover."""
        if phase not in self.phases:
            return None
        if perf() - self.taken_at > CALIBRATION_INTERVAL_S:
            t0 = perf()
            _interpreter_loop()
            self.taken_at = perf()
            self.sample_s = self.taken_at - t0
        return self.sample_s

    def speed(self, phase, before):
        """Reference seconds per wall second for a call that followed ``before``."""
        if before is None:
            return 1.0
        return REFERENCE_S / (0.5 * (before + self.sample(phase)))


class Tracer:
    """In-memory span recorder.  Spans are lists [name, parent, t0, t1, case]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.case = "setup"

    def call(self, name, fn, *args, **kwargs):
        rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, self.case]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec[2] = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = perf()
            self._stack.pop()

    def wrap(self, name, fn):
        return lambda *args: self.call(name, fn, *args)


class TracedOperator:
    """Operator exposing ``n``, ``matvec`` and ``rmatvec`` with a span per call.

    ``krylov.storage.as_matvec``, ``as_rmatvec`` and ``operator_size`` accept
    it like any storage object.
    """

    def __init__(self, a, tracer):
        self.n = a.n
        self.matvec = tracer.wrap("storage.matvec", a.matvec)
        self.rmatvec = tracer.wrap("storage.rmatvec", a.rmatvec)


class _Counter:
    """Call counter for an applier (power-iteration steps when untraced)."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, v):
        self.calls += 1
        return self.fn(v)


@dataclass
class Op:
    """One measured operation: a solve, a spectral estimate or a CLI call."""

    case: str
    result: object = None
    error: str | None = None
    check: object = None  # callable(result) -> error string or None


@dataclass
class Pass:
    """Set-up and solve timings, iteration counts and operations of one pass.

    Oracle checks are deferred: each operation stores a checker that runs
    after the pass, outside the timed region.  A ``setup_only`` pass runs
    the set-up calls and skips every solve and estimate.
    """

    tracer: Tracer | None = None
    setup_only: bool = False
    clock: SpeedClock = field(default_factory=SpeedClock)
    setup_s: float = 0.0  # wall seconds
    solve_s: float = 0.0
    setup_ref_s: float = 0.0  # reference seconds (see SpeedClock)
    solve_ref_s: float = 0.0
    speed: float = 1.0  # reference seconds per wall second of the last timed call
    iterations: int = 0
    ops: list = field(default_factory=list)
    cases: dict = field(default_factory=dict)  # case -> [solve_s, iterations, span name]
    extra: dict = field(default_factory=dict)  # layer numbers reported by a workload

    def op(self, a):
        """The operator handed to solvers: traced when tracing, else ``a``."""
        return a if self.tracer is None else TracedOperator(a, self.tracer)

    def wrap(self, name, fn):
        return fn if self.tracer is None else self.tracer.wrap(name, fn)

    def timed(self, case, name, fn, *args, **kwargs):
        """Call ``fn`` (under a span attributed to ``case`` when tracing).

        Returns ``(result, seconds)``; nothing is accumulated.  Sets
        ``speed`` for the call, from calibration samples taken outside it.
        """
        phase = "setup" if case == "setup" else "solve"
        before = self.clock.sample(phase)
        t0 = perf()
        try:
            if self.tracer is None:
                return fn(*args, **kwargs), perf() - t0
            self.tracer.case = case
            return self.tracer.call(name, fn, *args, **kwargs), perf() - t0
        except BaseException as exc:
            exc.seconds = perf() - t0
            raise
        finally:
            self.speed = self.clock.speed(phase, before)

    def setup(self, name, fn, *args, **kwargs):
        """Time a set-up call; a set-up failure ends the pass."""
        result, seconds = self.timed("setup", name, fn, *args, **kwargs)
        self.setup_s += seconds
        self.setup_ref_s += seconds * self.speed
        return result

    def _record(self, case, name, seconds, iterations):
        self.solve_s += seconds
        self.solve_ref_s += seconds * self.speed
        self.iterations += iterations
        entry = self.cases.setdefault(case, [0.0, 0, name])
        entry[0] += seconds
        entry[1] += iterations

    def solve(self, case, name, fn, *args, check=None, **kwargs):
        """Time a solver call that returns a SolveReport."""
        if self.setup_only:
            return None
        op = Op(case, check=check)
        self.ops.append(op)
        try:
            rep, seconds = self.timed(case, name, fn, *args, **kwargs)
        except Exception as exc:  # a failed solve is counted, the pass goes on
            self._record(case, name, exc.seconds, 0)
            op.error = f"{type(exc).__name__}: {exc}"
            return None
        self._record(case, name, seconds, rep.iterations)
        op.result = rep
        if not isinstance(rep, SolveReport) or rep.status != CONVERGED:
            op.error = f"status {getattr(rep, 'status', rep)!r} ({getattr(rep, 'reason', None)})"
        return rep

    def radius(self, case, estimate, g_apply, n, check=None, **kwargs):
        """Time a spectral-radius estimate; its iterations are power steps."""
        if self.setup_only:
            return None
        op = Op(case, check=check)
        self.ops.append(op)
        g = _Counter(self.wrap("core.g_apply", g_apply))
        name = "core.spectral_radius"
        try:
            op.result, seconds = self.timed(case, name, estimate, g, n, **kwargs)
        except Exception as exc:
            op.error = f"{type(exc).__name__}: {exc}"
            seconds = exc.seconds
        self._record(case, name, seconds, g.calls)
        return op.result

    def external(self, case, name, wall_s, solve_s, iterations, result, error=None, check=None):
        """Record a call timed by ``timed`` whose program printed its own solve
        time (a CLI invocation): the wall time less that solve time is set-up.
        """
        self.ops.append(Op(case, result=result, error=error, check=check))
        self.setup_s += wall_s - solve_s
        self.setup_ref_s += (wall_s - solve_s) * self.speed
        self._record(case, name, solve_s, iterations)

    def finish(self):
        """Run the deferred oracle checks; return the failed operations."""
        for op in self.ops:
            if op.error is None and op.check is not None:
                try:
                    op.error = op.check(op.result)
                except Exception as exc:  # an oracle crash is a failed check
                    op.error = f"oracle {type(exc).__name__}: {exc}"
            # neither the iterate nor the oracle's matrix outlives the check,
            # so peak RSS does not grow with the passes a run keeps
            op.result = op.check = None
        return [op for op in self.ops if op.error is not None]


LEAVES = ("storage.matvec", "storage.rmatvec", "core.g_apply", "stationary.sweep")


def reduce_spans(spans):
    """Per-name totals of a span list: calls, total seconds, self seconds,
    plus per-case child counts and the solve-phase accounting.

    Returns ``(by_name, by_case, accounting)`` where ``by_name[name] =
    [calls, total_s, self_s]``, ``by_case[case][child] = calls`` for
    matvec/rmatvec/apply/power-step spans, and ``accounting = (solve_span_s,
    self_sum_s)`` over the spans recorded under solve cases.
    """
    child_s = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    by_name = {}
    by_case = {}
    top_s = 0.0
    self_sum = 0.0
    for idx, (name, parent, t0, t1, case) in enumerate(spans):
        dur = t1 - t0
        own = dur - child_s[idx]
        entry = by_name.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += dur
        entry[2] += own
        if name in LEAVES or name.startswith("precond.apply."):
            counts = by_case.setdefault(case, {})
            counts[name] = counts.get(name, 0) + 1
        if case != "setup":
            self_sum += own
            if parent < 0:
                top_s += dur
    return by_name, by_case, (top_s, self_sum)
