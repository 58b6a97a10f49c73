"""Per-layer tracing that wraps sphgeo's public functions from outside.

Each traced function is replaced, at every module attribute bound to it, by
a wrapper that records one span: layer id, parent span id, op id, start and
end.  Spans stay in compact in-memory arrays while the op loop runs; the
per-layer totals (calls, inclusive time, self time) are derived from them
afterwards, and the spans can be written out at the end.

Self time is a span's duration minus the durations of its direct child
spans; code in a traced function that is not itself traced (for example the
depth-first search and the Wolfe feasibility test inside
``finder.enumerate_classes``) therefore counts as that function's self time.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute) of every traced function; `unfold.from_edges` is the
# CrossingSequence.from_edges staticmethod.
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("sphtrig", "arcs_intersect"),
    ("sphtrig", "pole_edge_crossing"),
    ("sphtrig", "axis_angle"),
    ("solids", "build_solid"),
    ("solids", "symmetry_group"),
    ("unfold", "develop"),
    ("unfold", "from_edges"),
    ("finder", "enumerate_classes"),
    ("finder", "solve_sequence"),
    ("finder", "canonical_word"),
    ("finder", "orbit_size"),
    ("finder", "class_tag"),
    ("finder", "solve_tetra_type"),
    ("finder", "tetra_type_sequence"),
    ("counts", "count_tetra"),
    ("cli", "main"),
    ("cli", "render_svg"),
    ("cli", "dump_json"),
)


def _seq_len(args: tuple, kwargs: dict, out: object) -> int:
    seq = kwargs["seq"] if "seq" in kwargs else args[1]
    return len(seq)


# Exact work counts beyond calls: metric suffix and how to read it from one
# call's arguments and result.
EXTRAS: Dict[str, Tuple[str, Callable[[tuple, dict, object], int]]] = {
    "finder.solve_sequence": ("solved", lambda a, k, out: int(out is not None)),
    "unfold.develop": ("crossings", _seq_len),
    "counts.count_tetra": ("candidates", lambda a, k, out: len(out.verdicts)),
}

# Self time of these layers goes by the name the layer-to-metric table uses.
SELF_NAMES = {
    "finder.enumerate_classes": "finder.search.self_s",
    "counts.count_tetra": "counts.self_s",
}

OP = "op"  # root span of one benchmark op


class Tracer:
    """Span recorder for one traced pass; `install` patches, `remove` restores."""

    def __init__(self) -> None:
        self.names: List[str] = [OP] + [f"{m}.{a}" for m, a in LAYERS]
        self.layer = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extra = [0] * len(self.names)
        self._cur = -1
        self._op = -1
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, layer: int) -> int:
        sid = len(self.layer)
        self.layer.append(layer)
        self.parent.append(self._cur)
        self.op.append(self._op)
        self.start.append(0.0)
        self.end.append(0.0)
        self._cur = sid
        return sid

    def span(self, layer: int, fn: Callable, args: tuple, kwargs: dict,
             extra: Optional[Callable] = None):
        sid = self._open(layer)
        parent = self.parent[sid]
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._cur = parent
            self.start[sid] = t0
            self.end[sid] = t1
        if extra is not None:
            self.extra[layer] += extra(args, kwargs, out)
        return out

    def run_op(self, op_id: int, fn: Callable[[], object]) -> object:
        self._op = op_id
        try:
            return self.span(0, fn, (), {})
        finally:
            self._op = -1

    # -- patching ------------------------------------------------------

    def _wrapper(self, layer: int, fn: Callable) -> Callable:
        extra = EXTRAS.get(self.names[layer], (None, None))[1]
        span = self.span

        def traced(*args, **kwargs):
            return span(layer, fn, args, kwargs, extra)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function at each sphgeo module attribute bound
        to it (e.g. both ``unfold.develop`` and ``finder.develop``)."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "sphgeo" or n.startswith("sphgeo.")) and m is not None]
        unfold = sys.modules["sphgeo.unfold"]
        for layer, (mod, attr) in enumerate(LAYERS, start=1):
            if (mod, attr) == ("unfold", "from_edges"):
                cls = unfold.CrossingSequence
                fn = cls.__dict__["from_edges"].__func__
                self._patch(cls, "from_edges", staticmethod(self._wrapper(layer, fn)))
                continue
            fn = getattr(sys.modules[f"sphgeo.{mod}"], attr)
            wrapped = self._wrapper(layer, fn)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, name, wrapped)

    def _patch(self, owner: object, name: str, value: object) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def remove(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- results -------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: exact `calls` (and extra count), inclusive `s`, `self_s`."""
        n = len(self.layer)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for sid in range(n):
            row = out[self.names[self.layer[sid]]]
            dur = self.end[sid] - self.start[sid]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child[sid]
        for name, (suffix, _) in EXTRAS.items():
            out[name][suffix] = self.extra[self.names.index(name)]
        return out

    def write(self, path: str) -> None:
        """All spans as gzipped TSV: id, parent, op, layer, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\top\tlayer\tstart_s\tend_s\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for sid in range(len(self.layer)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{self.op[sid]}\t"
                         f"{self.names[self.layer[sid]]}\t"
                         f"{self.start[sid] - t0:.9f}\t{self.end[sid] - t0:.9f}\n")
