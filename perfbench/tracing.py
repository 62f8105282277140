"""Span recording around scenq's public layer functions, from the outside.

``install`` wraps each function named in ``spans.TIMED`` and rebinds every
module-level name in the ``scenq`` package that refers to it, so callers
that imported the function by name see the wrapper too. Registered metrics
are rewrapped through ``registry.register(..., replace=True)``. Spans stay
in memory until ``Recorder.dump``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

from spans import REGISTRY, ROOT, TIMED


def _rows(trace) -> int:
    return sum(len(t) for t in trace.tracks.values())


def _file_bytes(*paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def _series(args, kwargs, result) -> dict:
    return {"samples": len(result), "defined": int(result.defined.sum())}


def _simulate(args, kwargs, result) -> dict:
    return {"steps": len(result.trace.track("ego"))}


def _saved(args, kwargs, result) -> dict:
    sidecar = result.with_suffix(result.suffix + ".meta.json")
    return {"rows": _rows(args[0]), "bytes": _file_bytes(result, sidecar)}


def _loaded(args, kwargs, result) -> dict:
    return {"rows": _rows(result)}


def _series_file(args, kwargs, result) -> dict:
    path = Path(args[1] if len(args) > 1 else kwargs["path"])
    return {"bytes": _file_bytes(path, str(path) + ".meta.json")}


def _dtw(args, kwargs, result) -> dict:
    return {"cells": len(args[0]) * len(args[1])}


def _registry_key(name):
    def attrs(args, kwargs, result) -> dict:
        subject = args[0]
        ids = ([t.scenario_id for t in subject] if isinstance(subject, (list, tuple))
               else subject.scenario_id)
        return {"key": json.dumps([name, ids, args[1]], sort_keys=True, default=str)}
    return attrs


ATTRS = {
    "simulator.simulate": _simulate,
    "trace.save": _saved,
    "trace.load": _loaded,
    "nano.wttc": _series,
    "nano.ttc": _series,
    "nano.gap_time": _series,
    "results.write_series": _series_file,
    "macro.dtw": _dtw,
}
#: Generator functions: the wrapper drains them so the span covers the work.
MATERIALIZE = {"scenarios.concretize"}
#: Spans whose peak traced allocation is recorded (tracemalloc runs inside).
MEMORY = {"macro.dtw"}


class Recorder:
    """Keeps the spans of one pass in memory."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        materialize = name in MATERIALIZE
        memory = name in MEMORY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, 0.0, 0.0, parent, self.pass_id, {}]
            self.spans.append(span)
            self._stack.append(index)
            if memory:
                tracemalloc.start()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            except BaseException:
                span[5]["error"] = 1
                raise
            finally:
                end = perf_counter()
                if memory:
                    span[5]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
                span[1], span[2] = start, end
            if attrs is not None:
                span[5].update(attrs(args, kwargs, result))
            return iter(result) if materialize else result

        return traced

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans), encoding="utf-8")


def _rebind(original, wrapped) -> None:
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "scenq" and not mod_name.startswith("scenq."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def install(recorder: Recorder, cli_main):
    """Wrap every layer function; returns the traced ``cli.main``."""
    for name, (mod_name, attr) in TIMED.items():
        original = getattr(importlib.import_module(mod_name), attr)
        _rebind(original, recorder.wrap(name, original, ATTRS.get(name)))
    registry = importlib.import_module("scenq.registry")
    for spec in registry.all_specs():
        compute = recorder.wrap(REGISTRY, spec.compute, _registry_key(spec.name))
        registry.register(dataclasses.replace(spec, compute=compute), replace=True)
    return recorder.wrap(ROOT, cli_main, lambda a, k, rc: {"error": 1} if rc == 2 else {})
