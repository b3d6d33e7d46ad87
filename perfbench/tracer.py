"""Span tracing of the blockfusion layers, installed from outside the
package.

`Tracer` wraps every public function of each layer module, and every
public method, property getter and ``__init__`` of the classes the module
defines, so that time is charged to the layer whose code runs.  A
function's wrapper is rebound in every `blockfusion` module that holds the
original object (``from .algebra import find_unit_in_space`` copies the
name into `fusion`, `clifford`, and so on).  Each call records one span:
name, parent span, start and end.  Spans stay in flat in-memory arrays
until the caller takes them with `spans`.  Generator functions are left
alone: their body runs in the consumer's frames, so a span around the
call would time only the generator's creation.
"""

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("gfp", "polys", "permgroups", "algebra", "blocks", "graded",
          "fusion", "clifford", "workbench")


def _cells(args, kwargs, result) -> int:
    shape = np.shape(args[0])
    return int(shape[0] * shape[1]) if len(shape) == 2 else 0


def _truthy(args, kwargs, result) -> int:
    return int(bool(result))


# span name -> what its per-span `aux` value records
AUX = {
    "gfp.rref": _cells,  # rows x cols of the input matrix
    "algebra.Algebra.is_unit_element": _truthy,  # 1 when a unit was found
}


def _function_of(obj):
    """The function behind a class attribute: a property's getter, or
    the attribute itself."""
    return obj.fget if isinstance(obj, property) else obj


def _wrappable(fn) -> bool:
    return inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "blockfusion"
                                  or name.startswith("blockfusion."))]


class Tracer:
    """Collects spans for the calls into the blockfusion layers while
    installed; use as a context manager around the traced region."""

    def __init__(self):
        self.names = []  # span name of each name id
        self.span_name = array("i")
        self.parent = array("i")  # index of the parent span, -1 for a root
        self.start = array("d")
        self.end = array("d")
        self.aux = array("q")
        self._stack = [-1]
        self._undo = []  # (owner, attribute, original value)

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, original) for every wrap site:
        module-level functions, then the methods of the layer's classes."""
        mods = {m.__name__: m for m in _package_modules()}
        for layer in LAYERS:
            mod = mods["blockfusion." + layer]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__",
                                                   None) != mod.__name__:
                    continue
                if _wrappable(obj):
                    yield mod, attr, f"{layer}.{attr}", obj
                elif inspect.isclass(obj):
                    for m_attr, m_obj in sorted(vars(obj).items()):
                        public = not m_attr.startswith("_")
                        if ((public or m_attr == "__init__")
                                and _wrappable(_function_of(m_obj))):
                            yield (obj, m_attr, f"{layer}.{attr}.{m_attr}",
                                   m_obj)

    def install(self):
        modules = _package_modules()
        for owner, attr, name, orig in list(self._targets()):
            wrapped = self._wrap(_function_of(orig), name)
            if isinstance(orig, property):
                wrapped = property(wrapped)
            if inspect.isclass(owner):
                self._rebind(owner, attr, orig, wrapped)
                continue
            for mod in modules:
                for a, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, a, orig, wrapped)
        return self

    def _rebind(self, owner, attr, orig, wrapped):
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, name):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        span_name, parent, start, end, aux = (
            self.span_name, self.parent, self.start, self.end, self.aux)
        stack = self._stack
        clock = time.perf_counter
        aux_fn = AUX.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            aux.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if aux_fn is not None:
                    aux[i] = aux_fn(args, kwargs, result)
                return result
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    # -- results -----------------------------------------------------------

    def spans(self) -> dict:
        """The recorded spans as numpy arrays, and the span-name table."""
        return {"names": np.array(self.names),
                "span_name": np.array(self.span_name, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64),
                "aux": np.array(self.aux, dtype=np.int64)}

    def clear(self):
        for a in (self.span_name, self.parent, self.start, self.end,
                  self.aux):
            del a[:]


def _has_ancestor(span_name, parent, target_ids) -> np.ndarray:
    """Per span: does a proper ancestor carry the span name given, per
    span, by `target_ids`?"""
    found = np.zeros(len(parent), dtype=bool)
    anc = parent.copy()
    while (anc >= 0).any():
        live = anc >= 0
        found[live] |= span_name[anc[live]] == target_ids[live]
        anc[live] = parent[anc[live]]
    return found


def summarize(sp: dict) -> dict:
    """Per span name: calls, inclusive seconds (outermost activations
    only, so recursion is not counted twice), self seconds and summed
    aux; plus the per-layer self seconds and the seconds under root
    spans."""
    names, name_of, parent = sp["names"], sp["span_name"], sp["parent"]
    dur = sp["end"] - sp["start"]
    n, k = len(dur), len(names)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=n)
    own = dur - child
    outermost = ~_has_ancestor(name_of, parent, name_of)
    calls = np.bincount(name_of, minlength=k)
    incl = np.bincount(name_of[outermost], weights=dur[outermost],
                       minlength=k)
    self_s = np.bincount(name_of, weights=own, minlength=k)
    aux = np.bincount(name_of, weights=sp["aux"], minlength=k)
    per_name = {str(names[i]): {"calls": int(calls[i]), "s": float(incl[i]),
                                "self_s": float(self_s[i]),
                                "aux": int(aux[i])}
                for i in range(k)}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, row in per_name.items():
        layer_self[name.split(".")[0]] += row["self_s"]
    return {"per_name": per_name, "layer_self_s": layer_self,
            "root_s": float(dur[~has_parent].sum())}


def count_under(sp: dict, name: str, ancestor: str) -> int:
    """Spans called `name` that run inside a span called `ancestor`."""
    names = list(sp["names"])
    if name not in names or ancestor not in names:
        return 0
    name_of, parent = sp["span_name"], sp["parent"]
    mine = name_of == names.index(name)
    inside = _has_ancestor(name_of, parent,
                           np.full(len(parent), names.index(ancestor)))
    return int((mine & inside).sum())
