"""Spans around calls into the program's public functions, from outside.

The modules bind functions with ``from .x import y``, so a function can be
reachable under several module globals (``pipeline.apply_evidence`` and
``extensions.apply_evidence`` are one object).  :meth:`Tracer.install`
replaces the function at every place it is bound and :meth:`Tracer.remove`
puts the originals back.  No program source is edited.

A span records its layer name, start, end, parent span and operation id.
Spans stay in memory until :meth:`Tracer.write`.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import gzip
import sys
from time import perf_counter

# (module, attribute): "Class.method" for methods; layer = "<module>.<name>"
TARGETS = (
    ("cohomotopy.database", "Database.lookup", "database.lookup"),
    ("cohomotopy.database", "Database.evidence_for", "database.evidence_for"),
    ("cohomotopy.database", "loads_db", "database.loads_db"),
    ("cohomotopy.database", "validate_db", "database.validate_db"),
    ("cohomotopy.symbols", "families_of", "symbols.families_of"),
    ("cohomotopy.pipeline", "verify_all", "pipeline.verify_all"),
    ("cohomotopy.pipeline", "compute_group", "pipeline.compute_group"),
    ("cohomotopy.extensions", "enumerate_middle_groups", "extensions.enumerate_middle_groups"),
    ("cohomotopy.extensions", "lr_positive", "extensions.lr_positive"),
    ("cohomotopy.extensions", "apply_evidence", "extensions.apply_evidence"),
    ("cohomotopy.gottlieb", "whitehead_hom", "gottlieb.whitehead_hom"),
    ("cohomotopy.gottlieb", "gottlieb_group", "gottlieb.gottlieb_group"),
    ("cohomotopy.gottlieb", "classify_components", "gottlieb.classify_components"),
    ("cohomotopy.abelian", "smith_normal_form", "abelian.smith_normal_form"),
    ("cohomotopy.abelian", "group_from_presentation", "abelian.group_from_presentation"),
    ("cohomotopy.abelian", "Presentation.element_order", "abelian.element_order"),
    ("cohomotopy.abelian", "FinAbGroup.from_factors", "abelian.from_factors"),
    ("oracles", "subgroup_quotient_types", "oracle.subgroup_quotient_types"),
    ("oracles", "realizable", "oracle.realizable"),
    ("oracles", "oracle_middle_groups", "oracle.oracle_middle_groups"),
    ("cohomotopy.cli", "main", "cli.main"),
)

SNF_LAYER = "abelian.smith_normal_form"


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.spans: list = []  # (layer id, start, end, parent index, op id)
        self.snf_inputs: set = set()
        self.op_id = 0
        self.off = False
        self._stack: list[int] = []
        self._undo: list = []

    # -- patching ---------------------------------------------------------
    def _wrap(self, layer: str, fn):
        lid = len(self.layers)
        self.layers.append(layer)
        spans, stack = self.spans, self._stack
        snf_inputs = self.snf_inputs if layer == SNF_LAYER else None

        def traced(*args, **kwargs):
            if self.off:
                return fn(*args, **kwargs)
            if snf_inputs is not None:
                snf_inputs.add(args[0])
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (lid, start, end, parent, self.op_id)

        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        """Wrap every target at every module global and class attribute
        that binds it."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name.startswith("cohomotopy") or name == "oracles")
        ]
        for mod_name, attr, layer in TARGETS:
            mod = sys.modules.get(mod_name)
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(layer, raw.__func__))
                else:
                    new = self._wrap(layer, raw)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(layer, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, original))

    @contextlib.contextmanager
    def paused(self):
        self.off = True
        try:
            yield
        finally:
            self.off = False

    def remove(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------
    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: number of calls and summed self time in seconds."""
        child = [0.0] * len(self.spans)
        for lid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in self.layers}
        for i, (lid, start, end, _, _) in enumerate(self.spans):
            row = out[self.layers[lid]]
            row["calls"] += 1
            row["self_s"] += (end - start) - child[i]
        return out

    def write(self, path):
        """Write every span as one tab-separated line (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            f.write("layer\tstart\tend\tparent\top\n")
            for lid, start, end, parent, op in self.spans:
                f.write(f"{self.layers[lid]}\t{start!r}\t{end!r}\t{parent}\t{op}\n")
