"""Span tracing around the public functions of every qilab module.

The tracer wraps each public function and public method of the layer
modules, then rebinds the wrapper wherever the original is reachable: in
the defining module, in every ``qilab`` module that imported it by name,
and in module-level dicts such as ``suites.SUITES``. Methods are replaced
on their class. Nothing under ``src/`` is edited; :meth:`Tracer.uninstall`
restores every original.

Spans live in memory as four flat arrays (function index, parent span,
start, end) and are aggregated once the traced pass is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "rng",
    "linalg",
    "states",
    "metrics",
    "info",
    "encoding",
    "transition",
    "protocol",
    "rac",
    "reduction",
    "suites",
    "cli",
)

# Scalar helpers called hundreds of thousands of times per pass; wrapping
# them would make tracing cost dominate the layers they belong to. Draws
# are counted at Stream.gauss_array instead.
UNWRAPPED = frozenset(
    {
        "rng.mix64",
        "rng.Stream.next_u64",
        "rng.Stream.uniform",
        "rng.Stream.uniform_open",
        "rng.Stream.gauss",
        "rac.bit_of",
    }
)

SUITE_FUNCTIONS = {
    "metrics": "metrics_suite",
    "info": "info_suite",
    "encoding": "encoding_suite",
    "transition": "transition_suite",
    "rac": "rac_suite",
    "reduction": "reduction_suite",
}


def _digest(rho) -> int:
    return hash(rho.mat.tobytes())


class Tracer:
    """Wraps qilab's public callables and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.exceptions = 0
        self.gauss_draws = 0
        self.streams = 0
        self.distance_pairs: set = set()
        self.distance_repeats = 0
        self.ensembles: set = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, name: str, before=None):
        """Return a span-recording wrapper of ``fn`` registered as ``name``."""
        idx = len(self.names)
        self.names.append(name)
        fns, parents, starts, ends = self.fn, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            sid = len(fns)
            fns.append(idx)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.exceptions += 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def _count_draws(self, args) -> None:
        self.gauss_draws += int(args[1])

    def _note_distance_pair(self, args) -> None:
        key = tuple(sorted((_digest(args[0]), _digest(args[1]))))
        if key in self.distance_pairs:
            self.distance_repeats += 1
        else:
            self.distance_pairs.add(key)

    def _note_ensemble(self, args) -> None:
        e = args[0]
        self.ensembles.add((e.priors.tobytes(), tuple(_digest(s) for s in e.states)))

    def _hooks(self) -> dict:
        return {
            "rng.Stream.gauss_array": self._count_draws,
            "metrics.trace_distance": self._note_distance_pair,
            "encoding.pairwise_distance_matrix": self._note_ensemble,
        }

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        hooks = self._hooks()
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qilab.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj) and name not in UNWRAPPED:
                    wrappers[id(obj)] = self.wrap(obj, name, hooks.get(name))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_methods(obj, name, hooks)
        stream_cls = importlib.import_module("qilab.rng").Stream
        self._set(stream_cls, "__init__", self._counting_init(stream_cls.__init__))
        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "qilab"]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._set(module, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            self._undo.append((obj, key, value))
                            obj[key] = wrappers[id(value)]

    def _wrap_methods(self, cls, qualname: str, hooks: dict) -> None:
        for attr, obj in list(vars(cls).items()):
            name = f"{qualname}.{attr}"
            if attr.startswith("_") or not inspect.isfunction(obj) or name in UNWRAPPED:
                continue
            self._set(cls, attr, self.wrap(obj, name, hooks.get(name)))

    def _counting_init(self, init):
        @functools.wraps(init)
        def counted(stream, *args, **kwargs):
            self.streams += 1
            init(stream, *args, **kwargs)

        return counted

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    # -- aggregation ------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "fn": np.frombuffer(self.fn, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "names": np.array(self.names),
        }

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, self times and ratios of the recorded spans."""
        spans = self.arrays()
        fn, parent = spans["fn"], spans["parent"]
        dur = spans["end"] - spans["start"]
        own = self_times(parent, dur)
        names = self.names
        index = {name: i for i, name in enumerate(names)}
        calls = np.bincount(fn, minlength=len(names))

        def count(name: str) -> int:
            return int(calls[index[name]])

        def total(name: str) -> float:
            return outermost_total(fn, parent, dur, index[name])

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in names], dtype=np.int64)
        layer_self = np.bincount(layer_of[fn], weights=own, minlength=len(LAYERS))
        out: dict[str, float] = {
            f"{layer}.self_s": float(layer_self[i]) for i, layer in enumerate(LAYERS)
        }
        run_ms = dur[fn == index["protocol.run_protocol"]] * 1e3
        out.update(
            {
                "rng.gauss_draws": self.gauss_draws,
                "rng.streams": self.streams,
                "linalg.as_matrix.calls": count("linalg.as_matrix"),
                "linalg.hermitian_eig.calls": count("linalg.hermitian_eig"),
                "linalg.svd.calls": count("linalg.svd") + count("linalg.singular_values"),
                "linalg.eig_per_density": ratio(
                    count("linalg.hermitian_eig"), count("states.make_density")
                ),
                "states.make_density.calls": count("states.make_density"),
                "states.random_density.calls": count("states.random_density"),
                "metrics.trace_distance.calls": count("metrics.trace_distance"),
                "metrics.fidelity.calls": count("metrics.fidelity"),
                "metrics.repeat_share": ratio(
                    self.distance_repeats, count("metrics.trace_distance")
                ),
                "info.von_neumann_entropy.calls": count("info.von_neumann_entropy"),
                "info.holevo_information.calls": count("info.holevo_information"),
                "encoding.pairwise_distance_matrix.calls": count(
                    "encoding.pairwise_distance_matrix"
                ),
                "encoding.ensembles": len(self.ensembles),
                "encoding.distance_matrices_per_ensemble": ratio(
                    count("encoding.pairwise_distance_matrix"), len(self.ensembles)
                ),
                "transition.uhlmann_align.calls": count("transition.uhlmann_align"),
                "protocol.apply_unitary.calls": count("protocol.apply_unitary"),
                "protocol.run_protocol.calls": count("protocol.run_protocol"),
                "protocol.run_protocol.p50_ms": float(np.median(run_ms)) if run_ms.size else 0.0,
                "rac.bloch_success.calls": count("rac.bloch_success"),
                "rac.optimize_rac.total_s": total("rac.optimize_rac"),
                "reduction.modify_first_message.total_s": total("reduction.modify_first_message"),
                "reduction.drop_first_message.total_s": total("reduction.drop_first_message"),
                "reduction.message_info_budget.total_s": total("reduction.message_info_budget"),
                "cli.canonical_json.total_s": total("cli.canonical_json"),
                "trace.spans": int(fn.size),
                "trace.exceptions": self.exceptions,
            }
        )
        for suite, func in SUITE_FUNCTIONS.items():
            out[f"suites.{suite}.total_s"] = total(f"suites.{func}")
        return out


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so a span's children never overlap and
    their summed durations are exactly the part of it they cover.
    """
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    return dur - covered


def outermost_total(fn: np.ndarray, parent: np.ndarray, dur: np.ndarray, idx: int) -> float:
    """Summed duration of calls to ``idx`` not made directly by ``idx`` itself.

    Direct recursion (``canonical_json`` calls itself) is counted once,
    through its outermost span.
    """
    mine = fn == idx
    caller = np.where(parent >= 0, fn[np.maximum(parent, 0)], -1)
    return float(dur[mine & (caller != idx)].sum())
