"""In-memory span tracing of eqforge's public functions, installed from outside.

The tracer swaps module attributes for timing wrappers and puts the originals
back on exit; nothing under `src/` changes. A function imported by name into
several eqforge modules (for example `design_filter` into `conditions`) is
replaced wherever the same object appears, so every call site is seen.

Spans are kept in memory: name, start, end and the index of the span that
was open when it began. A layer's self time is its span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import hashlib
import sys
import time
from dataclasses import dataclass, field

# (module, function) pairs wrapped in a traced run, one span name each.
TRACED = (
    ("eqforge.cli", "main"),
    ("eqforge.experiment", "run_experiment"),
    ("eqforge.conditions", "run_condition"),
    ("eqforge.conditions", "design_for_condition"),
    ("eqforge.conditions", "individual_rtfs"),
    ("eqforge.conditions", "average_rtfs"),
    ("eqforge.conditions", "aided_response"),
    ("eqforge.rtf", "estimate_individual"),
    ("eqforge.rtf", "estimate_average"),
    ("eqforge.design", "design_filter"),
    ("eqforge.design", "design_filter_pooled"),
    ("eqforge.design", "build_target"),
    ("eqforge.solvers", "solve_normal_equations"),
    ("eqforge.signals", "convolution_matrix"),
    ("eqforge.signals", "magnitude_response"),
    ("eqforge.signals", "read_impulse_csv"),
    ("eqforge.metrics", "band_error_profile"),
    ("eqforge.metrics", "log_spectral_distance"),
    ("eqforge.cohort", "load_manifest"),
    ("eqforge.cohort", "synth_cohort"),
    ("eqforge.cohort", "synth_dummy_ear"),
)

# Time the tracer spends hashing Gram matrices is recorded under this name so
# that it lands in the overhead, not in the solver's self time.
HASH_SPAN = "perfbench.hash_gram"
WRAPPED_MARK = "__perfbench_wrapped__"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    phase: str = ""
    # (rows, cols) of a convolution matrix; the Gram digest of a solve.
    info: object = None


@dataclass
class Tracer:
    """Collects spans while installed; use as a context manager."""

    spans: list[Span] = field(default_factory=list)
    phase: str = ""
    _stack: list[int] = field(default_factory=list)
    _swapped: list[tuple[object, str, object]] = field(default_factory=list)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._swapped:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "eqforge" or n.startswith("eqforge."))]
        for module_name, attr in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(f"{module_name.removeprefix('eqforge.')}.{attr}", original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._swapped.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        while self._swapped:
            module, name, original = self._swapped.pop()
            setattr(module, name, original)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, phase=self.phase))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                if name == "solvers.solve_normal_equations":
                    tracer.spans[index].info = tracer._hash_gram(args[0] if args else kwargs["gram"])
                result = fn(*args, **kwargs)
                if name == "signals.convolution_matrix":
                    tracer.spans[index].info = (result.rows, result.cols)
                return result
            finally:
                tracer._close(index)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        setattr(traced, WRAPPED_MARK, True)
        return traced

    def _hash_gram(self, gram) -> bytes:
        index = self._open(HASH_SPAN)
        try:
            header = f"{gram.dtype.str}{gram.shape}".encode()
            return hashlib.blake2b(header + gram.tobytes(), digest_size=16).digest()
        finally:
            self._close(index)


def installed_wrappers() -> list[str]:
    """Names of eqforge module attributes that are still tracing wrappers."""
    found = []
    for module_name, module in sorted(sys.modules.items()):
        if module is None or not (module_name == "eqforge" or module_name.startswith("eqforge.")):
            continue
        for name, value in vars(module).items():
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{module_name}.{name}")
    return found


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own
