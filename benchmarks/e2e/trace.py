"""Layer attribution from the outside: spans around public entry points.

The traced pass wraps a fixed list of the program's public entry points
(``ENTRY_POINTS``) — from here, with no edit under ``src/`` — and records
one in-memory span per call: layer, start, end, the span that caused it,
and the id of the operation it belongs to.  A layer's *self* time is its
spans' duration minus the part their child spans cover; what no span
covers inside an operation is the ``driver``'s.

Layer names are module names.  An entry point that no longer resolves
(a later refactor renamed it) is listed as unresolved and its layer
reports ``None``; it never fails a run.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

#: ``(layer, "module:attr.path")``.  Module-level functions are patched
#: in the namespace their caller looks them up in.
ENTRY_POINTS = (
    ("gom", "repro.gom.database:ObjectBase.new"),
    ("gom", "repro.gom.database:ObjectBase.new_collection"),
    ("gom", "repro.gom.database:ObjectBase.delete"),
    ("gom", "repro.gom.database:ObjectBase.set_attr"),
    ("gom", "repro.gom.database:ObjectBase.read_attr"),
    ("gom", "repro.gom.database:ObjectBase.handle_member"),
    ("gom", "repro.gom.database:ObjectBase.invoke"),
    ("gom", "repro.gom.database:ObjectBase.extension"),
    ("gom", "repro.gom.database:ObjectBase.collection_insert"),
    ("gom", "repro.gom.database:ObjectBase.collection_remove"),
    ("gomql.parse", "repro.gomql.executor:parse_statement"),
    ("gomql.plan", "repro.gomql.executor:find_backward_plan"),
    ("gomql.plan", "repro.gomql.executor:find_index_plan"),
    ("gomql.execute", "repro.gomql.executor:execute"),
    ("core.manager.invalidate", "repro.core.manager:GMRManager.invalidate"),
    ("core.manager.invalidate", "repro.core.manager:GMRManager.new_object"),
    ("core.manager.invalidate", "repro.core.manager:GMRManager.forget_object"),
    ("core.manager.invalidate", "repro.core.manager:GMRManager.flush_batch"),
    ("core.manager.forward", "repro.core.manager:GMRManager.retrieve_forward"),
    ("core.manager.backward", "repro.core.manager:GMRManager.backward_query"),
    ("core.rrr", "repro.core.rrr:ReverseReferenceRelation.insert"),
    ("core.rrr", "repro.core.rrr:ReverseReferenceRelation.remove"),
    ("core.rrr", "repro.core.rrr:ReverseReferenceRelation.pop_args"),
    ("core.rrr", "repro.core.rrr:ReverseReferenceRelation.pop_args_grouped"),
    ("core.rrr", "repro.core.rrr:ReverseReferenceRelation.pop_object"),
    ("core.scheduler", "repro.core.scheduler:RevalidationScheduler.schedule"),
    ("core.scheduler", "repro.core.scheduler:RevalidationScheduler.revalidate"),
    # The LAZY sweep a backward query forces runs here, not in the
    # scheduler's queue (which only DEFERRED feeds).
    ("core.scheduler", "repro.core.manager:GMRManager.revalidate"),
    ("core.delta", "repro.core.delta:DeltaEngine.apply"),
    ("core.delta", "repro.core.manager:GMRManager.register_delta"),
    ("storage.gmr_store", "repro.core.gmr:GMR.probe"),
    ("storage.gmr_store", "repro.core.gmr:GMR.entry_cell"),
    ("storage.gmr_store", "repro.core.gmr:GMR.set_result"),
    ("storage.gmr_store", "repro.core.gmr:GMR.mark_invalid"),
    ("storage.gmr_store", "repro.core.gmr:GMR.mark_invalid_many"),
    ("storage.gmr_store", "repro.core.gmr:GMR.lookup_many"),
    ("storage.gmr_store", "repro.core.gmr:GMR.ensure_row"),
    ("storage.gmr_store", "repro.core.gmr:GMR.remove_row"),
    ("storage.pages", "repro.storage.pages:BufferManager.touch"),
    ("storage.btree", "repro.storage.btree:BPlusTree.search"),
    ("storage.btree", "repro.storage.btree:BPlusTree.insert"),
    ("storage.btree", "repro.storage.btree:BPlusTree.remove"),
    ("storage.wal", "repro.storage.wal:WriteAheadLog.append"),
    ("persistence", "repro.persistence:checkpoint"),
    ("persistence", "repro.persistence:recover"),
    ("observe", "repro.observe.metrics:Counter.inc"),
    ("observe", "repro.observe.metrics:Gauge.set"),
    ("observe", "repro.observe.metrics:Histogram.observe"),
)

DRIVER = "driver"
#: Every layer a result reports, in table order.
LAYERS = tuple(dict.fromkeys(layer for layer, _ in ENTRY_POINTS)) + (DRIVER,)

_CALIBRATION_CALLS = 20000


def _resolve(target: str):
    """``(owner, attribute name, function)`` of ``"module:a.b"``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    function = getattr(owner, name)
    if not callable(function) or inspect.isgeneratorfunction(function):
        # A generator returns before it has done its work; a span
        # around the call would time nothing.
        raise AttributeError(f"{target} cannot carry a span")
    return owner, name, function


class SpanRecorder:
    """Wraps entry points and records their spans while switched on."""

    def __init__(self, entry_points=ENTRY_POINTS) -> None:
        self.entry_points = tuple(entry_points)
        self.layer_names = list(
            dict.fromkeys(layer for layer, _ in self.entry_points)
        )
        self.on = False
        self.op_id = -1
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self._patched: list[tuple] = []
        self.unresolved: list[str] = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, layer_id: int, function):
        recorder = self
        layers, starts, ends = self.layer, self.start, self.end
        parents, ops, stack = self.parent, self.op, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not recorder.on:
                return function(*args, **kwargs)
            index = len(starts)
            layers.append(layer_id)
            parents.append(stack[-1])
            ops.append(recorder.op_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = function
        return traced

    def install(self) -> None:
        """Patch every resolvable entry point; note the others."""
        for layer, target in self.entry_points:
            try:
                owner, name, function = _resolve(target)
            except (ImportError, AttributeError):
                self.unresolved.append(target)
                continue
            setattr(owner, name, self.wrap(self.layer_names.index(layer), function))
            self._patched.append((owner, name, function))

    def uninstall(self) -> None:
        while self._patched:
            owner, name, function = self._patched.pop()
            setattr(owner, name, function)

    # -- analysis -----------------------------------------------------------

    def calibrate(self) -> tuple[float, float]:
        """Per-span overhead on an empty wrapped call.

        Returns ``(inside, outside)``: the part of the wrapper's cost a
        span's own duration contains, and the part its parent sees
        around it.  Run on a scratch recorder so no span is kept.
        """
        scratch = SpanRecorder(entry_points=())
        empty = scratch.wrap(0, lambda: None)
        scratch.on = True
        clock = time.perf_counter
        begin = clock()
        for _ in range(_CALIBRATION_CALLS):
            empty()
        per_call = (clock() - begin) / _CALIBRATION_CALLS
        inside = sum(
            end - start for start, end in zip(scratch.start, scratch.end)
        ) / _CALIBRATION_CALLS
        return inside, max(0.0, per_call - inside)

    def attribute(self, op_walls: list[float]) -> dict:
        """Per-layer calls / self time / share, overhead subtracted.

        ``op_walls[i]`` is the wall time the driver measured around the
        op with id ``i``.  Shares are of the corrected total, so they sum
        to 1; ``closure`` is (self times + driver + subtracted overhead)
        over the traced wall — 1.0 when every span is accounted for.
        """
        inside, outside = self.calibrate()
        count = len(self.layer_names)
        calls = [0] * count
        raw_self = [0.0] * count
        children = [0] * count
        covered = 0.0  # top-level span time, i.e. not the driver's
        top_level = 0
        starts, ends, parents, layers = self.start, self.end, self.parent, self.layer
        child_time = [0.0] * len(starts)
        for index in range(len(starts) - 1, -1, -1):
            # Children are recorded after their parent: walking
            # backwards, a span's child_time is final when reached.
            duration = ends[index] - starts[index]
            layer = layers[index]
            calls[layer] += 1
            raw_self[layer] += duration - child_time[index]
            parent = parents[index]
            if parent >= 0:
                child_time[parent] += duration
                children[layers[parent]] += 1
            else:
                covered += duration
                top_level += 1
        wall = sum(op_walls)
        self_s = {
            name: max(0.0, raw_self[i] - calls[i] * inside - children[i] * outside)
            for i, name in enumerate(self.layer_names)
        }
        self_s[DRIVER] = max(0.0, wall - covered - top_level * outside)
        calls_of = dict(zip(self.layer_names, calls))
        calls_of[DRIVER] = len(op_walls)
        total = sum(self_s.values())
        overhead = len(starts) * (inside + outside)
        unresolved_layers = {
            layer
            for layer, target in self.entry_points
            if target in self.unresolved
        }
        table = {
            name: {"calls": None, "self_s": None, "self_share": None}
            if name in unresolved_layers
            else {
                "calls": calls_of[name],
                "self_s": self_s[name],
                "self_share": self_s[name] / total if total else 0.0,
            }
            for name in self_s
        }
        return {
            "layers": table,
            "spans": len(starts),
            "traced_wall_s": wall,
            "corrected_wall_s": total,
            "closure": (total + overhead) / wall if wall else 0.0,
            "span_overhead_s": {"inside": inside, "outside": outside},
            "unresolved_entry_points": list(self.unresolved),
        }

    def dump(self, path: str) -> None:
        """Write the spans out, one ``layer start end parent op`` row each."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("# layer start_s end_s parent op\n")
            for index in range(len(self.start)):
                out.write(
                    f"{self.layer_names[self.layer[index]]} "
                    f"{self.start[index]!r} {self.end[index]!r} "
                    f"{self.parent[index]} {self.op[index]}\n"
                )
