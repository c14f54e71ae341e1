"""Outside-in tracing of the package's layers.

``Tracer.install`` replaces public functions of ``xubirkhoff`` modules by
timing wrappers wherever a module holds them by name (``birkhoff`` and
``cli`` import most of them from their home modules), plus the
``pruned``/``reconstruct`` methods of both permutation-sum types.
``uninstall`` puts the originals back. Nothing inside the package
changes.

Spans live in memory as ``[name, start, end, parent, op]`` rows. A
layer's self time is its span minus the spans directly inside it. Work
the tracer does for a span's extra figures (such as the weight mass a
prune dropped) is recorded as a ``trace.bookkeeping`` span, so it never
counts as a layer's time. ``permutations.compose`` and
``numerics.is_unitary`` are counted, not timed: compose runs hundreds of
thousands of times per recursive XU(8) op.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Span name -> (home module, attribute). The CLI layer is ``main``
# (argument parsing and dispatch) and the three subcommand handlers, which
# ``build_parser`` looks up at each call.
SPANNED = {
    "scaling.zxz_scale": ("xubirkhoff.scaling", "zxz_scale"),
    "birkhoff.product": ("xubirkhoff.birkhoff", "product"),
    "birkhoff.decompose_prime_parts": ("xubirkhoff.birkhoff", "decompose_prime_parts"),
    "birkhoff.decompose_xu4": ("xubirkhoff.birkhoff", "decompose_xu4"),
    "birkhoff.decompose_recursive": ("xubirkhoff.birkhoff", "decompose_recursive"),
    "birkhoff.decompose_unitary": ("xubirkhoff.birkhoff", "decompose_unitary"),
    "birkhoff.verify": ("xubirkhoff.birkhoff", "verify"),
    "permsum.perm_sum_to_json": ("xubirkhoff.permsum", "perm_sum_to_json"),
    "permsum.perm_sum_from_json": ("xubirkhoff.permsum", "perm_sum_from_json"),
    "xu_group.require_xu": ("xubirkhoff.xu_group", "require_xu"),
    "xu_group.extract_core": ("xubirkhoff.xu_group", "extract_core"),
    "xu_group.embed_core": ("xubirkhoff.xu_group", "embed_core"),
    "xu_group.circulant_xu_decompose": ("xubirkhoff.xu_group", "circulant_xu_decompose"),
    "numerics.dumps_json": ("xubirkhoff.numerics", "dumps_json"),
    "numerics.matrix_from_json": ("xubirkhoff.numerics", "matrix_from_json"),
    "sampling.sample": ("xubirkhoff.sampling", "sample"),
    "cli.main": ("xubirkhoff.cli", "main"),
    "cli.sample": ("xubirkhoff.cli", "_cmd_sample"),
    "cli.decompose": ("xubirkhoff.cli", "_cmd_decompose"),
    "cli.verify": ("xubirkhoff.cli", "_cmd_verify"),
}
METHODS = {
    "permsum.pruned": "pruned",
    "permsum.reconstruct": "reconstruct",
}
SUM_TYPES = ("WeightedPermSum", "ComplexPermSum")
COUNTED = {
    "permutations.compose": ("xubirkhoff.permutations", "compose"),
    "numerics.is_unitary": ("xubirkhoff.numerics", "is_unitary"),
}

# Per-layer metrics reported per op: (name, unit). ``.calls`` and
# ``.self_ms`` come from spans and counts, the rest from span results.
LAYER_METRICS = (
    ("scaling.zxz_scale.calls", "count"),
    ("scaling.zxz_scale.self_ms", "ms"),
    ("scaling.zxz_scale.iterations", "count"),
    ("scaling.zxz_scale.restarts", "count"),
    ("scaling.zxz_scale.errors", "count"),
    ("birkhoff.product.calls", "count"),
    ("birkhoff.product.self_ms", "ms"),
    ("birkhoff.product.terms_out", "count"),
    ("birkhoff.decompose_prime_parts.self_ms", "ms"),
    ("birkhoff.decompose_xu4.self_ms", "ms"),
    ("birkhoff.decompose_recursive.self_ms", "ms"),
    ("birkhoff.decompose_unitary.self_ms", "ms"),
    ("birkhoff.verify.calls", "count"),
    ("birkhoff.verify.self_ms", "ms"),
    ("birkhoff.verify.max_recon_err", "abs"),
    ("permutations.compose.calls", "count"),
    ("permsum.pruned.calls", "count"),
    ("permsum.pruned.self_ms", "ms"),
    ("permsum.pruned.dropped_mass", "abs"),
    ("permsum.reconstruct.self_ms", "ms"),
    ("permsum.perm_sum_to_json.self_ms", "ms"),
    ("permsum.perm_sum_from_json.self_ms", "ms"),
    ("xu_group.require_xu.calls", "count"),
    ("xu_group.require_xu.self_ms", "ms"),
    ("xu_group.extract_core.self_ms", "ms"),
    ("xu_group.embed_core.self_ms", "ms"),
    ("xu_group.circulant_xu_decompose.self_ms", "ms"),
    ("numerics.is_unitary.calls", "count"),
    ("numerics.dumps_json.self_ms", "ms"),
    ("numerics.dumps_json.bytes", "B"),
    ("numerics.matrix_from_json.self_ms", "ms"),
    ("sampling.sample.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("cli.sample.self_ms", "ms"),
    ("cli.decompose.self_ms", "ms"),
    ("cli.verify.self_ms", "ms"),
    ("op.self_ms", "ms"),
)
# Figures that are a maximum over the run instead of a per-op mean.
MAXIMA = ("birkhoff.verify.max_recon_err",)

NAME, START, END, PARENT, OP = range(5)


def _weights(s) -> list:
    """Term weights of either permutation-sum type."""
    if hasattr(s, "items"):
        return [w for _, w in s.items()]
    return [t.weight for t in s.terms]


def _zxz_extras(tr: "Tracer", args, kwargs, out) -> None:
    tr.values["scaling.zxz_scale.iterations"] += out.iterations
    tr.values["scaling.zxz_scale.restarts"] += out.restarts
    tr.iterations.setdefault(len(out.z1), []).append(out.iterations)


def _product_extras(tr: "Tracer", args, kwargs, out) -> None:
    tr.values["birkhoff.product.terms_out"] += len(out)


def _verify_extras(tr: "Tracer", args, kwargs, out) -> None:
    key = "birkhoff.verify.max_recon_err"
    tr.values[key] = max(tr.values[key], out.reconstruction_error)


def _pruned_extras(tr: "Tracer", args, kwargs, out) -> None:
    s = args[0]
    eps = args[1] if len(args) > 1 else kwargs["eps"]
    tr.values["permsum.pruned.dropped_mass"] += math.fsum(
        abs(w) for w in _weights(s) if abs(w) <= eps
    )


def _dumps_extras(tr: "Tracer", args, kwargs, out) -> None:
    tr.values["numerics.dumps_json.bytes"] += len(out.encode())


EXTRAS = {
    "scaling.zxz_scale": _zxz_extras,
    "birkhoff.product": _product_extras,
    "birkhoff.verify": _verify_extras,
    "permsum.pruned": _pruned_extras,
    "numerics.dumps_json": _dumps_extras,
}


class Tracer:
    """Spans and counts of the traced layers, for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.values: dict[str, float] = defaultdict(float)
        self.iterations: dict[int, list[int]] = {}  # by matrix size
        self._stack: list[int] = []
        self._op = -1
        self._active = False
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _span_wrapper(self, name, f):
        extras = EXTRAS.get(name)

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            stack = self._stack
            # Inactive, or a recursive call (dumps_json recurses through its
            # module global): run untraced inside the outer span.
            if not self._active or (stack and self.spans[stack[-1]][NAME] == name):
                return f(*args, **kwargs)
            idx = len(self.spans)
            parent = stack[-1] if stack else -1
            row = [name, 0.0, 0.0, parent, self._op]
            self.spans.append(row)
            self.counts[name + ".calls"] += 1
            stack.append(idx)
            row[START] = perf_counter()
            try:
                out = f(*args, **kwargs)
            except Exception:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                row[END] = perf_counter()
                stack.pop()
            if extras is not None:
                book = [
                    "trace.bookkeeping", perf_counter(), 0.0, parent, self._op
                ]
                extras(self, args, kwargs, out)
                book[END] = perf_counter()
                self.spans.append(book)
            return out

        return wrapper

    def _count_wrapper(self, name, f):
        key = name + ".calls"

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if self._active:
                self.counts[key] += 1
            return f(*args, **kwargs)

        return wrapper

    def _replace_everywhere(self, home: str, attr: str, make) -> None:
        if home not in sys.modules:
            return  # e.g. the CLI, which the API workloads never import
        original = getattr(sys.modules[home], attr)
        wrapper = make(original)
        for modname, mod in list(sys.modules.items()):
            if modname != "xubirkhoff" and not modname.startswith("xubirkhoff."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        """Wrap every traced function and method."""
        for name, (home, attr) in SPANNED.items():
            self._replace_everywhere(
                home, attr, lambda f, name=name: self._span_wrapper(name, f)
            )
        for name, (home, attr) in COUNTED.items():
            self._replace_everywhere(
                home, attr, lambda f, name=name: self._count_wrapper(name, f)
            )
        permsum = sys.modules["xubirkhoff.permsum"]
        for type_name in SUM_TYPES:
            cls = getattr(permsum, type_name)
            for name, attr in METHODS.items():
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._span_wrapper(name, original))

    def uninstall(self) -> None:
        """Put every original back, in reverse order of wrapping."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- recording --------------------------------------------------------

    @contextmanager
    def op(self, op_id: int):
        """Trace one operation under a root span named ``op``."""
        self._op = op_id
        idx = len(self.spans)
        row = ["op", 0.0, 0.0, -1, op_id]
        self.spans.append(row)
        self._stack.append(idx)
        self._active = True
        row[START] = perf_counter()
        try:
            yield
        finally:
            row[END] = perf_counter()
            self._active = False
            self._stack.pop()

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, in seconds, indexed like ``spans``."""
        child = [0.0] * len(self.spans)
        for row in self.spans:
            if row[PARENT] >= 0:
                child[row[PARENT]] += row[END] - row[START]
        return [row[END] - row[START] - c for row, c in zip(self.spans, child)]

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Every LAYER_METRICS figure as a mean per op (maxima as is)."""
        totals: dict[str, float] = defaultdict(float)
        for row, self_s in zip(self.spans, self.self_times()):
            totals[row[NAME] + ".self_ms"] += self_s * 1e3
        totals.update(self.counts)
        out = {}
        for name, _unit in LAYER_METRICS:
            if name in MAXIMA:
                out[name] = float(self.values[name])
            else:
                total = self.values[name] if name in self.values else totals[name]
                out[name] = float(total) / ops
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")
