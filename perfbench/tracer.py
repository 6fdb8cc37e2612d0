"""Outside-in tracing of foldfinder's layers.

Every public function of the traced modules is replaced, wherever a module
of the package binds it, by a wrapper that records one span (name, start,
end, parent span, operation id).  scipy's ``splu`` is wrapped in every
module that binds it, and the factor it returns is proxied so that
triangular solves and fill-in are counted as well.  Spans stay in memory
until the run writes them out; per-layer metrics are derived from them.

Nothing here edits the library: the wrappers are installed by rebinding
module attributes and removed again by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "fold", "cw", "nehari", "spectrum", "linalg", "energy",
          "model", "mesh")
SPLU = "linalg.splu"


def _count_from_result(name, result):
    """Iteration counts and useful-outcome flags read from return values."""
    if name == "nehari.newton_solve":
        return {"iterations": result[2], "ok": int(bool(result[1]))}
    if name == "cw.cw_ascend":
        return {"iterations": result.iterations,
                "stable": int(bool(result.diagnostics.get("stable_found")))}
    if name == "fold.moore_spence_solve":
        return {"iterations": result.newton_iterations}
    if name == "fold.continue_branch":
        return {"records": len(result.records)}
    return None


class _FactorProxy:
    """Stands in for a SuperLU factor and counts its triangular solves."""

    __slots__ = ("_lu", "_tracer")

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer.lu_solves += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start, end, parent index, operation id, raised)
        self.spans: list[tuple | None] = []
        self.counts: dict[str, dict[str, int]] = {}
        self.lu_solves = 0
        self.fill_nnz = 0
        self.op_id = -1
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _call(self, name_id, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        raised = True
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            raised = False
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name_id, t0, t1, parent, self.op_id, raised)
        extra = _count_from_result(name, result)
        if extra:
            bucket = self.counts.setdefault(name, {})
            for key, value in extra.items():
                bucket[key] = bucket.get(key, 0) + int(value)
        if name == SPLU:
            self.fill_nnz += int(result.nnz)
            return _FactorProxy(result, self)
        return result

    def _wrap(self, name, fn):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name_id, name, fn, args, kwargs)

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function in every module that binds it."""
        import scipy.sparse.linalg as spla

        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"foldfinder.{layer}")
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if not attr.startswith("_") and fn.__module__ == mod.__name__:
                    originals[id(fn)] = (fn, f"{layer}.{attr}")
        originals[id(spla.splu)] = (spla.splu, SPLU)
        wrappers = {key: self._wrap(name, fn)
                    for key, (fn, name) in originals.items()}
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "foldfinder"
                    or mod_name.startswith(("foldfinder.",
                                            "scipy.sparse.linalg"))):
                continue
            # vars() rather than getattr: deprecated scipy namespaces warn
            # on attribute access through their module __getattr__
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._rebound.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._rebound):
            setattr(mod, attr, value)
        self._rebound.clear()

    # -- results ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, inclusive s, self s, raised, and counts."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: dict[str, dict[str, float]] = {}
        for i, (nid, t0, t1, parent, _, raised) in enumerate(self.spans):
            row = out.setdefault(self.names[nid], {
                "calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0})
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - child[i]
            row["failed"] += int(raised)
            # inclusive time counts only the outermost of nested calls
            if not self._has_ancestor(parent, nid):
                row["s"] += t1 - t0
        for name, extra in self.counts.items():
            out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                  "failed": 0}).update(extra)
        return out

    def _has_ancestor(self, idx: int, nid: int) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == nid:
                return True
            idx = self.spans[idx][3]
        return False

    def children_of(self, parent_name: str, child_name: str,
                    completed_parents: bool = False) -> int:
        """Number of spans of ``child_name`` directly under ``parent_name``.

        With ``completed_parents``, only under parent spans that returned.
        """
        pid = self._name_ids.get(parent_name)
        cid = self._name_ids.get(child_name)
        if pid is None or cid is None:
            return 0
        return sum(1 for s in self.spans
                   if s[0] == cid and s[3] >= 0 and self.spans[s[3]][0] == pid
                   and not (completed_parents and self.spans[s[3]][5]))

    def write_spans(self, path) -> None:
        """JSON lines: the name table first, then one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
