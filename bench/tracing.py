"""Spans and counters recorded from outside the library.

``Tracer.install`` replaces public functions of the ``kreinccr`` modules by
wrappers, by module attribute: every module attribute (and class attribute)
bound to the original function is rebound, so calls between modules also
reach the wrapper.  No file of the library is edited.  Spans are kept in
memory as ``[name, start, end, parent, job]`` and written out at the end.

``ExactScalar`` arithmetic is only counted, not spanned, and only in the
traced run: wrapping its dunders is costly.

The representations the ``reps`` and ``multimode`` builders return are
measured as they pass the wrapper, whichever job (a library call or a CLI
call) made them: the sizes of the largest one, and the executions in which
a builder returned a non-finite Gram, ``verify_rep`` a non-finite report,
or a function of either module raised.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  The three builders share "reps.build".
SPANNED = (
    ("algebra", "normal_order", "algebra.normal_order"),
    ("algebra", "commutator", "algebra.commutator"),
    ("algebra", "substitute", "algebra.substitute"),
    ("algebra", "format_element", "algebra.format_element"),
    ("algebra", "apply_isomorphism", "algebra.apply_isomorphism"),
    ("algebra", "apply_automorphism", "algebra.apply_automorphism"),
    ("algebra", "Involution.apply", "algebra.Involution.apply"),
    ("multimode", "rho_iso", "multimode.rho_iso"),
    ("multimode", "build_multimode_rep", "multimode.build_multimode_rep"),
    ("multimode", "spectral_condition_check", "multimode.spectral_condition_check"),
    ("multimode", "vacuum_descent", "multimode.vacuum_descent"),
    ("sl2", "classify_orbit", "sl2.classify_orbit"),
    ("truncfn", "gamma_S", "truncfn.gamma_S"),
    ("truncfn", "gamma_S_inverse", "truncfn.gamma_S_inverse"),
    ("truncfn", "verify_implementation", "truncfn.verify_implementation"),
    ("truncfn", "fourier_project", "truncfn.fourier_project"),
    ("pcf", "weber_D", "pcf.weber_D"),
    ("pcf", "ladder_check", "pcf.ladder_check"),
    ("reps", "build_fock_bargmann", "reps.build"),
    ("reps", "build_antifock", "reps.build"),
    ("reps", "build_schroedinger_theta", "reps.build"),
    ("reps", "verify_rep", "reps.verify_rep"),
    ("reps", "gauge_unitary", "reps.gauge_unitary"),
    ("reps", "krein_adjoint", "reps.krein_adjoint"),
    ("reps", "reduce_to_canonical", "reps.reduce_to_canonical"),
    ("dsl", "parse_expr", "dsl.parse_expr"),
    ("dsl", "to_element", "dsl.to_element"),
    ("cli", "main", "cli.main"),
    ("cli", "emit_json", "cli.emit_json"),
)

# (module, attribute, counter name): counted only.
COUNTED = (
    ("truncfn", "rotation_family", "truncfn.fourier_project.family_calls"),
)

EXACT_DUNDERS = (("__mul__", "exact.mul_calls"), ("__rmul__", "exact.mul_calls"),
                 ("__add__", "exact.add_calls"), ("__radd__", "exact.add_calls"))


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.sizes = {}          # "<layer>.{dim,dense_bytes,nnz}" of the largest rep
        self.raised = set()      # executions in which a reps/multimode call raised
        self.nonfinite = set()   # ... or returned a NaN/Inf Gram or report
        self.job = None
        self._undo = []

    def _span(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if self.job is None:   # oracle and bookkeeping calls are not traced
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else None, self.job]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                if name.startswith(("reps.", "multimode.")):
                    self.raised.add(self.job)
                raise
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if on_result is not None:
                on_result(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            if self.job is not None:
                counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _rebind(self, km, original, wrapper):
        """Point every module or class attribute bound to ``original`` at
        ``wrapper``."""
        owners = [km.package] + [getattr(km, m) for m in km.MODULES]
        owners += [v for o in owners for v in vars(o).values() if isinstance(v, type)]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._undo.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def _rep_built(self, layer, rep):
        import numpy as np

        if not np.all(np.isfinite(rep.gram_diag)):
            self.nonfinite.add(self.job)
        if rep.size > self.sizes.get(f"{layer}.dim", 0):
            if layer == "reps":
                mats = (rep.a_mat, rep.adag_mat)
            else:
                mats = (*rep.a_mats, *rep.adag_mats)
            self.sizes[f"{layer}.dim"] = rep.size
            self.sizes[f"{layer}.dense_bytes"] = sum(m.nbytes for m in mats)
            self.sizes[f"{layer}.nnz"] = sum(int(np.count_nonzero(m)) for m in mats)

    def install(self, km):
        def out_terms(result):
            self.counts["algebra.normal_order.out_terms"] += len(result.terms)

        def report(result):
            if not all(math.isfinite(v) for v in result.values()
                       if isinstance(v, (int, float))):
                self.nonfinite.add(self.job)

        hooks = {"algebra.normal_order": out_terms,
                 "reps.build": lambda rep: self._rep_built("reps", rep),
                 "multimode.build_multimode_rep": lambda rep: self._rep_built("multimode", rep),
                 "reps.verify_rep": report}
        for mod, attr, name in SPANNED:
            owner = getattr(km, mod)
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, attr.split(".")[-1])
            self._rebind(km, original, self._span(name, original, hooks.get(name)))
        for mod, attr, name in COUNTED:
            original = getattr(getattr(km, mod), attr)
            self._rebind(km, original, self._count(name, original))
        scalar = km.exact.ExactScalar
        for dunder, name in EXACT_DUNDERS:
            original = vars(scalar)[dunder]
            self._undo.append((scalar, dunder, original))
            setattr(scalar, dunder, self._count(name, original))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def layer_stats(self):
        """{name: (calls, busy_s, self_s)}.  busy_s counts only spans not
        nested in a span of the same name; self_s subtracts child spans."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, (name, start, end, parent, _) in enumerate(self.spans):
            s = stats[name]
            s[0] += 1
            s[2] += (end - start) - child[sid]
            p = parent
            while p is not None and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p is None:
                s[1] += end - start
        return {k: tuple(v) for k, v in stats.items()}
