"""Spans around the library's layer entry points, recorded from outside it.

``Tracer.install()`` wraps each function in TRACED at every module
attribute that binds it: ``ore``, ``polygon``, ``monogenity``, ``cli``
and the package itself import these names with ``from .x import y``,
so patching only the defining module would miss their calls.  A span
is ``[name, start_ns, end_ns, parent_index, case_id]``; spans stay in
memory and are written when the run ends.  Self time is a span's
duration minus the durations of its children (calls are synchronous
and single-threaded, so children never overlap).

``summarize`` turns the records of one or more traced processes into
the per-layer metrics.
"""

from __future__ import annotations

import importlib
import sys
import time

TRACED = (
    ("ffield", "factor_ext"),
    ("ffield", "factor_mod_p"),
    ("intpoly", "phi_expand"),
    ("polygon", "build_polygon"),
    ("polygon", "residual_polynomial"),
    ("polygon", "phi_index"),
    ("ore", "dedekind_test"),
    ("ore", "ore_factor"),
    ("monogenity", "classify_engine"),
    ("monogenity", "prime_factors_squarefree"),
    ("cli", "main"),
)

# Functions whose inputs can repeat: their distinct-input count over calls
# is the useful-work ratio.  Arguments are hashable library values; only
# their hashes are kept, because keeping the arguments alive would change
# the garbage collector's schedule and so the timings being traced.
DISTINCT = ("ffield.factor_ext", "ffield.factor_mod_p", "intpoly.phi_expand")

REFUSED = "ore.ore_factor"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.case = -1
        self.refused = 0
        self.inputs = {name: set() for name in DISTINCT}
        self._restore = []

    def _wrap(self, name, fn, refusals):
        spans, stack = self.spans, self.stack
        inputs = self.inputs.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if inputs is not None:
                inputs.add(hash(args))
            index = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, self.case]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except refusals:
                self.refused += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        errors = importlib.import_module("orefactor.errors")
        for module, func in TRACED:
            importlib.import_module(f"orefactor.{module}")
        modules = [m for n, m in sys.modules.items() if n == "orefactor" or n.startswith("orefactor.")]
        for module, func in TRACED:
            name = f"{module}.{func}"
            original = getattr(sys.modules[f"orefactor.{module}"], func)
            refusals = (errors.NotRegular, errors.RepeatedFactor) if name == REFUSED else ()
            wrapper = self._wrap(name, original, refusals)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def record(self, import_ms: float) -> dict:
        """Everything summarize needs from this process."""
        ffield = sys.modules["orefactor.ffield"]
        return {
            "spans": self.spans,
            "refused": self.refused,
            "distinct": {name: len(hashes) for name, hashes in self.inputs.items()},
            "factor_cache": len(getattr(ffield, "_FACTOR_CACHE", ())),
            "field_cache": len(getattr(getattr(ffield, "ResidueField", None), "_cache", ())),
            "import_ms": import_ms,
        }


def summarize(records) -> dict:
    """Per-layer metrics over the records of one or more traced processes.

    Counts and times add up across processes; ``setup.import_ms`` is the
    median import time.
    """
    names = [f"{m}.{f}" for m, f in TRACED]
    calls = dict.fromkeys(names, 0)
    self_ns = dict.fromkeys(names, 0)
    out = {"ffield.factor_mod_p.from_cli.calls": 0}
    refused = factor_cache = field_cache = 0
    distinct = dict.fromkeys(DISTINCT, 0)
    imports = []
    for rec in records:
        spans = rec["spans"]
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name, start, end, parent, _), covered in zip(spans, child_ns):
            calls[name] += 1
            self_ns[name] += end - start - covered
            if name == "ffield.factor_mod_p" and parent >= 0 and spans[parent][0] == "cli.main":
                out["ffield.factor_mod_p.from_cli.calls"] += 1
        refused += rec["refused"]
        factor_cache += rec["factor_cache"]
        field_cache += rec["field_cache"]
        for name, n in rec["distinct"].items():
            distinct[name] += n
        imports.append(rec["import_ms"])
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_ms"] = self_ns[name] / 1e6
    for name, n in distinct.items():
        out[f"{name}.distinct"] = n
    out["ore.ore_factor.refused"] = refused
    out["ffield.factor_cache.entries"] = factor_cache
    out["ffield.field_cache.entries"] = field_cache
    imports.sort()
    out["setup.import_ms"] = imports[len(imports) // 2]
    return out
