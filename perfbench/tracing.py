"""Span recorder for the traced run, attached to qubus from outside.

Each traced layer function is replaced, in the module that defines it and in
every qubus module that imported it, by a wrapper that records a span: name,
start, end, parent span and the timed call it belongs to.  Spans stay in
memory until the run ends.  ``Permutation`` constructions and the bytes of
amplitude arrays the ``states`` layer returns are counted at the same
boundaries.  Outside a timed call the wrappers only forward.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

# module -> functions whose calls cross a layer boundary.
TRACED = {
    "perms": ("validate_interaction_sets", "combined_operators"),
    "mappings": (
        "premeasurement_matrix",
        "outcome_permutation",
        "classify_mapping",
        "search_sets",
        "factor_composite",
        "strip_local_factor",
    ),
    "states": (
        "measure",
        "tensor",
        "apply_conditional",
        "apply_label_permutation",
        "apply_local",
        "fidelity",
    ),
    "protocol": ("derive_feedforward", "target_gate_label"),
    "catalog": ("named_operator", "cyclic_set"),
    "cvbus": ("sweep", "max_dimension"),
    "cli": ("main",),
}
CALL_SPAN = "bench.call"


class SpanRecorder:
    """Spans as ``[name, start_ns, end_ns, parent, call]`` lists; ``parent``
    is an index into :attr:`spans` or -1."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.call = -1
        self.constructions = 0
        self.amplitude_bytes = 0

    @property
    def active(self) -> bool:
        return bool(self.stack)

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.call])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def timed_call(self, call: int):
        """Root span of one timed call; layer spans record only inside it."""
        self.call = call
        index = self.open(CALL_SPAN)
        try:
            yield
        finally:
            self.close(index)

    def export(self) -> dict:
        """Spans with names replaced by indices into ``names``."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        return {
            "names": names,
            "fields": ["name", "start_ns", "end_ns", "parent", "call"],
            "spans": [[index[span[0]]] + span[1:] for span in self.spans],
        }

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of spans and summed self time in ns (duration
        minus the time covered by direct children)."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for (name, start, end, _, _), children in zip(self.spans, child_ns):
            entry = totals.setdefault(name, {"calls": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["self_ns"] += end - start - children
        return totals


def _amplitude_bytes(result) -> int:
    state = result[0] if isinstance(result, tuple) else result
    amplitudes = getattr(state, "amplitudes", None)
    return 0 if amplitudes is None else amplitudes.nbytes


def _wrap(recorder: SpanRecorder, name: str, fn, count_bytes: bool):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if count_bytes:
            recorder.amplitude_bytes += _amplitude_bytes(result)
        return result

    return traced


@contextlib.contextmanager
def attached(recorder: SpanRecorder):
    """Patch every traced function wherever qubus refers to it, and count
    ``Permutation`` constructions; restore everything on exit."""
    modules = [module for key, module in sys.modules.items() if key.split(".")[0] == "qubus"]
    restore: list[tuple[object, str, object]] = []
    for module_name, functions in TRACED.items():
        home = importlib.import_module(f"qubus.{module_name}")
        for fn_name in functions:
            original = getattr(home, fn_name)
            wrapper = _wrap(recorder, f"{module_name}.{fn_name}", original, module_name == "states")
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
    permutation = importlib.import_module("qubus.perms").Permutation
    post_init = permutation.__post_init__

    def counted_post_init(self) -> None:
        if recorder.active:
            recorder.constructions += 1
        post_init(self)

    restore.append((permutation, "__post_init__", post_init))
    permutation.__post_init__ = counted_post_init
    try:
        yield recorder
    finally:
        for target, attr, original in reversed(restore):
            setattr(target, attr, original)
