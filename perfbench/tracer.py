"""Per-layer spans around discdet's public functions, installed from outside.

Each wrapped function is replaced at the module attribute through which its
callers look it up, so a call from verify3 into ``enumerate_C`` goes through
the ``discdet.verify3.enumerate_C`` wrapper.  Spans nest on one stack; a
layer's self time is its spans' time minus the time of spans they contain.
Only per-layer totals are kept, because the hot layers make millions of calls.
"""

import functools
import gc
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns


def _result_len(args, kwargs, result):
    return len(result)


def _one(args, kwargs, result):
    return 1


# (module, attribute path, layer, counter).  A counter maps a call to the amount of
# work it did; it is given only at the boundary where that work should count
# once (the recursive enumerate_C calls inside sets are not counted).
WRAPPED = [
    ("discdet.ff", "PrimeCtx", "ff.ctx_build", None),
    ("discdet.verify3", "enumerate_C", "sets.enumerate", _result_len),
    ("discdet.sets", "enumerate_C", "sets.enumerate", None),
    ("discdet.verify3", "verify_prime", "verify3.filter", None),
    ("discdet.verify3", "baseline_eps0", "verify3.t1", _one),
    ("discdet.verify3", "g_exponent", "verify3.t1", None),
    ("discdet.verify3", "special_discriminant", "verify3.t1", None),
    ("discdet.verify3", "test_candidate", "verify3.direct", None),
    ("discdet.verify3", "_stage_families", "verify3.direct", None),
    ("discdet.verify3", "m_matrix", "fpmat.m_matrix", None),
    ("discdet.theorem5", "m_matrix", "fpmat.m_matrix", None),
    ("discdet.verify3", "det", "fpmat.det", None),
    ("discdet.theorem5", "det", "fpmat.det", None),
    ("discdet.theorem5", "inverse", "fpmat.inverse", None),
    ("discdet.fpmat", "FpMatrix.__matmul__", "fpmat.matmul", None),
    ("discdet.fpmat", "coeff_window", "poly.coeff_window", _result_len),
    ("discdet.poly", "poly_pow", "poly.power", None),
    ("discdet.theorem5", "poly_pow", "poly.power", None),
    ("discdet.theorem5", "check_theorem5", "theorem5.check", None),
    ("discdet.theorem5", "check_aux_lemmas", "theorem5.aux", None),
    ("discdet.theorem5", "beta_coeffs", "theorem5.beta", None),
    ("discdet.symbolic", "theorem1_check", "symbolic.identity", None),
    ("discdet.symbolic", "det_bareiss", "symbolic.det_bareiss", None),
    ("discdet.symbolic", "exact_div", "symbolic.exact_div", None),
]


class Tracer:
    def __init__(self):
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.work = defaultdict(int)
        self._child_ns = []  # one accumulator per open span

    def wrap(self, layer, fn, counter=None):
        self_ns, calls, work, stack = self.self_ns, self.calls, self.work, self._child_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = perf_counter_ns() - start
                self_ns[layer] += spent - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += spent
            if counter is not None:
                work[layer] += counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every WRAPPED attribute for its traced version; restore after."""
        saved = []
        try:
            for module, path, layer, counter in WRAPPED:
                owner = sys.modules[module]
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(layer, original, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def seconds(self, layer):
        return self.self_ns[layer] / 1e9


def span_cost_ns(calls=200_000):
    """What one traced call adds, in ns: a wrapped two-argument no-op
    against a plain one."""
    def noop(a, b):
        return None

    traced = Tracer().wrap("calibration", noop)
    start = perf_counter_ns()
    for i in range(calls):
        noop(i, calls)
    plain = perf_counter_ns() - start
    start = perf_counter_ns()
    for i in range(calls):
        traced(i, calls)
    return max(0, perf_counter_ns() - start - plain) / calls


def live_ctx_bytes():
    """Computed bytes of the factorial tables of every live PrimeCtx.

    Counts both list objects and every int they hold outside CPython's
    shared small-int range.  Call it with the tracer uninstalled, since
    installing replaces ``discdet.ff.PrimeCtx``.
    """
    from discdet.ff import PrimeCtx

    total = 0
    for obj in gc.get_objects():
        if type(obj) is PrimeCtx:
            for table in (obj.fact, obj.inv_fact):
                total += sys.getsizeof(table)
                total += sum(sys.getsizeof(v) for v in table if not -5 <= v <= 256)
    return total
