"""Span recorder wrapped around the public functions of weylkit's modules.

Nothing in ``src/`` is edited.  ``install`` replaces each public function of
the eight layer modules with a recording wrapper, in its defining module and
in every ``weylkit`` namespace that imported it (``cli`` and ``verify`` hold
``normal_form`` under their own names, for instance); ``uninstall`` restores
the originals.

A span is (id, parent id, name, start ns, end ns, request id).  A span's
self time is its duration minus the time its child spans cover; the
wrapper's own bookkeeping, counter hooks included, is charged to no span.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

_RAISED = object()

LAYERS = ("cli", "expressions", "pbw", "linalg", "quadratic", "shriek", "localization", "verify")


def _rref_cells(args, kwargs, result) -> dict[str, int]:
    rows = args[0]
    ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return {"linalg.rref.cells": len(rows) * ncols}


def _pbw_multiply(args, kwargs, result) -> dict[str, int]:
    return {"pbw.multiply.term_pairs": len(args[0].coeffs) * len(args[1].coeffs)}


def _shriek_multiply(args, kwargs, result) -> dict[str, int]:
    return {"shriek.multiply.term_pairs": len(args[0].coeffs) * len(args[1].coeffs)}


def _parse(args, kwargs, result) -> dict[str, int]:
    return {"expressions.parse.free_terms": len(result.terms)}


def _normal_form(args, kwargs, result) -> dict[str, int]:
    return {
        "pbw.normal_form.in_words": len(args[0].terms),
        "pbw.normal_form.out_terms": len(result.coeffs),
    }


# Counters read from each call's arguments and result, never from the
# program's private state.
_HOOKS = {
    "linalg.rref": _rref_cells,
    "pbw.multiply": _pbw_multiply,
    "shriek.multiply": _shriek_multiply,
    "expressions.parse": _parse,
    "pbw.normal_form": _normal_form,
}


class Tracer:
    """Records spans, per-name self time and call counts, and counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.word_pairs: set = set()
        self.word_pairs_total = 0
        self.request_id = -1
        self._stack: list[list[int]] = []  # [span id, start, child ns]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        pairs = name == "shriek.multiply"
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack = self._stack
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, clock(), 0]
            stack.append(frame)
            result = _RAISED
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                start = frame[1]
                self.self_ns[name] += end - start - frame[2]
                self.calls[name] += 1
                self.spans.append((sid, parent, name, start, end, self.request_id))
                if result is not _RAISED:
                    if hook is not None:
                        self.counters.update(hook(args, kwargs, result))
                    if pairs:
                        a, b = args[0], args[1]
                        self.word_pairs_total += len(a.coeffs) * len(b.coeffs)
                        self.word_pairs.update((a.kind, a.n, u, v) for u in a.coeffs for v in b.coeffs)
                if stack:
                    stack[-1][2] += clock() - start
            return result

        return wrapper

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"weylkit.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    originals[obj] = self._wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "weylkit" and not modname.startswith("weylkit."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, originals[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def summary(self) -> dict[str, float]:
        """Self time (ms), calls and counters, flat by metric name."""
        out: dict[str, float] = {}
        for name, ns in self.self_ns.items():
            out[f"{name}.self_ms"] = ns / 1e6
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
        out.update(self.counters)
        total, distinct = self.word_pairs_total, len(self.word_pairs)
        out["shriek.word_pairs.total"] = total
        out["shriek.word_pairs.distinct"] = distinct
        out["shriek.word_pairs.repeat_ratio"] = 1 - distinct / total if total else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(["id", "parent", "name", "start_ns", "end_ns", "request"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
