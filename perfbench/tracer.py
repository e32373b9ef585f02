"""Per-layer tracing by rebinding the kernel's module attributes.

Tracer.install() replaces each traced function, in its defining module and
in every ikc module that imported it by name, with a wrapper that counts
calls and measures self time (duration minus the time of nested traced
calls).  Recursive calls made through the public name (check_derivation,
subtype, print_type, print_term, print_derivation) therefore count as
calls of their own.  No source file is edited; uninstall() restores the
original bindings.

Functions called many times per query are only aggregated.  The others
also store one span (id, parent id, name, start ns, end ns) per call, and
each query stores a span of its own, so every stored span names the span
that caused it.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, function, keeps spans).  The last field is False for functions
# called tens to hundreds of thousands of times per run.
TARGETS = (
    ("sexpr", "tokenize", False),
    ("sexpr", "read_one", True),
    ("syntax", "alpha_canon", False),
    ("syntax", "substitute", False),
    ("syntax", "parse_term", True),
    ("syntax", "print_term", False),
    ("reduction", "step_positions", False),
    ("reduction", "step", False),
    ("reduction", "check_local_confluence", True),
    ("types", "subtype", False),
    ("types", "print_type", False),
    ("types", "parse_type", True),
    ("envs", "mk_env", False),
    ("envs", "env_restrict", False),
    ("envs", "env_lower", False),
    ("derivations", "check_derivation", False),
    ("derivations", "sub_to", False),
    ("derivations", "parse_derivation", True),
    ("derivations", "print_derivation", True),
    ("transform", "subject_reduce", True),
    ("transform", "subject_expand_beta", True),
    ("transform", "lower_derivation", False),
    ("search", "bounded_typecheck", True),
    ("semantics", "oracle_membership", True),
    ("semantics", "leftmost_beta_nf", True),
    ("gen", "enumerate_terms", True),
    ("gen", "enumerate_closed", True),
)


def _observe_subtype(tracer, out):
    tracer.counts["types.subtype.true"] += bool(out)


def _observe_confluence(tracer, out):
    tracer.counts["reduction.check_local_confluence.peaks"] += out.peaks_checked
    tracer.counts["reduction.check_local_confluence.with_peak"] += out.peaks_checked > 0


OBSERVERS = {
    "types.subtype": _observe_subtype,
    "reduction.check_local_confluence": _observe_confluence,
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.reentries = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._active = defaultdict(int)
        self._child_ns = [0]
        self._span_ids = [0]
        self._next_id = 1
        self._rebound: list[tuple[object, str, object]] = []

    def reset(self):
        self.calls.clear()
        self.self_ns.clear()
        self.reentries.clear()
        self.counts.clear()
        self.spans.clear()

    def _wrap(self, name, fn, keep_span, observe):
        clock = time.perf_counter_ns
        child_ns, span_ids, active = self._child_ns, self._span_ids, self._active
        calls, self_ns, reentries = self.calls, self.self_ns, self.reentries

        def traced(*args, **kwargs):
            if active[name]:
                reentries[name] += 1
            active[name] += 1
            if keep_span:
                sid = self._next_id
                self._next_id += 1
                parent = span_ids[-1]
                span_ids.append(sid)
            child_ns.append(0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                inner = child_ns.pop()
                child_ns[-1] += dur
                calls[name] += 1
                self_ns[name] += dur - inner
                active[name] -= 1
                if keep_span:
                    span_ids.pop()
                    self.spans.append((sid, parent, name, t0, t1))
            if observe is not None:
                observe(self, out)
            return out

        return traced

    def query(self, fn, *args):
        """Run one query under a span of its own."""
        return self._wrap("query", fn, True, None)(*args)

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "ikc" or n.startswith("ikc.")]
        for mod_name, fn_name, keep_span in TARGETS:
            home = sys.modules[f"ikc.{mod_name}"]
            orig = getattr(home, fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapper = self._wrap(name, orig, keep_span, OBSERVERS.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._rebound.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._rebound):
            setattr(mod, attr, orig)
        self._rebound.clear()

    def write_spans(self, path):
        fields = ["id", "parent", "name", "start_ns", "end_ns"]
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}))
