"""Timing wrappers for the traced run.

:class:`LayerTracer` replaces entry points of the program's modules
with wrappers that time each call from the benchmark's own code; the
program itself is not edited. A wrapper times only the outermost call
of its layer on a thread (a kernel class calling its parent's
``__call__`` counts once), and also books its time against every layer
already open on the thread, so a layer's time can be split into its
own part and the parts of the layers it calls.

Wrappers act in this process only: a fleet's workers run unwrapped, so
``fleet-mix`` reads its worker-side layers from the workers' metric
registries instead.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict


class LayerTracer:
    """Per-layer call counts, inclusive times and useful-op counts."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.ops: dict[str, float] = defaultdict(float)
        #: (outer layer, inner layer) -> inner time spent inside outer
        self.within: dict[tuple[str, str], float] = defaultdict(float)
        self.values: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn, ops=None):
        """``fn`` timed under ``layer``; ``ops(*args, **kwargs)`` counts
        the useful operations of a call."""
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = tracer._stack()
            if layer in stack:
                return fn(*args, **kwargs)
            stack.append(layer)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                with tracer._lock:
                    tracer.seconds[layer] += dt
                    tracer.calls[layer] += 1
                    for outer in set(stack):
                        tracer.within[(outer, layer)] += dt
                if ops is not None:
                    count = ops(*args, **kwargs)
                    with tracer._lock:
                        tracer.ops[layer] += count

        timed.__wrapped_layer__ = layer
        return timed

    def add(self, name: str, value: float) -> None:
        """Accumulate a value measured outside a wrapper."""
        with self._lock:
            self.values[name] += value

    def patch_method(self, cls, attr: str, layer: str, ops=None) -> None:
        """Wrap ``cls.attr`` (a method defined on ``cls`` itself)."""
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(layer, original, ops))

    def patch_function(self, fn, layer: str) -> None:
        """Wrap every module-level reference to ``fn`` in ``repro``
        modules: callers that imported it by name see the wrapper."""
        wrapped = self.wrap(layer, fn)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def restore(self) -> None:
        """Put every wrapped entry point back."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _spmm_ops(_kernel, lhs, rhs, *args, **kwargs) -> float:
    return 2.0 * lhs.nnz * rhs.shape[1]


def _sddmm_ops(_kernel, a, b, mask, *args, **kwargs) -> float:
    return 2.0 * a.shape[1] * mask.nnz


def install(tracer: LayerTracer) -> None:
    """Wrap the entry points the per-layer metrics are made of."""
    import repro.api.resolution as resolution
    import repro.fastpath.softmax as fast_softmax
    import repro.formats.convert as convert
    import repro.gpu.sharedmem as sharedmem
    import repro.kernels.softmax as softmax
    from repro.fastpath.sddmm import FastpathSDDMM
    from repro.fastpath.spmm import FastpathSpMM
    from repro.fleet.gateway import Gateway
    from repro.gpu.timing import CostModel
    from repro.kernels.sddmm import MagicubeSDDMM
    from repro.kernels.spmm import MagicubeSpMM
    from repro.transformer.attention import MultiHeadAttention
    from repro.transformer.layers import Linear
    from repro.transformer.model import SparseTransformerClassifier

    tracer.patch_function(resolution.normalize, "api.resolve")
    tracer.patch_function(resolution.resolve, "api.resolve")
    tracer.patch_function(resolution.execute, "serve.execute")
    for cls in (MagicubeSpMM, FastpathSpMM):
        tracer.patch_method(cls, "__call__", "kernel.spmm", ops=_spmm_ops)
    for cls in (MagicubeSDDMM, FastpathSDDMM):
        tracer.patch_method(cls, "__call__", "kernel.sddmm", ops=_sddmm_ops)
    tracer.patch_function(softmax.sparse_softmax_quantized, "kernel.softmax")
    tracer.patch_function(
        fast_softmax.sparse_softmax_quantized_fast, "kernel.softmax"
    )
    for fn in (sharedmem.conflict_degree, sharedmem.spmm_rhs_load_pattern,
               sharedmem.access_cycles):
        tracer.patch_function(fn, "gpu.cost_model")
    for attr in ("breakdown", "time", "tops"):
        tracer.patch_method(CostModel, attr, "gpu.cost_model")
    tracer.patch_function(convert.bcrs_to_srbcrs, "formats.convert")
    tracer.patch_method(SparseTransformerClassifier, "forward", "transformer.forward")
    tracer.patch_method(MultiHeadAttention, "forward_quantized", "transformer.attention")
    tracer.patch_method(Linear, "forward", "transformer.dense")
    _patch_gateway_send(tracer, Gateway)


def _patch_gateway_send(tracer: LayerTracer, gateway_cls) -> None:
    """Count the pickled bytes of every request message the gateway
    sends, pickled the way its pipe pickles them."""
    from multiprocessing.reduction import ForkingPickler

    original = gateway_cls.__dict__["_send"]

    @functools.wraps(original)
    def send(self, worker, message):
        if message.get("op") == "run":
            tracer.add("fleet.bytes", len(ForkingPickler.dumps(message)))
            tracer.add("fleet.messages", 1)
        return original(self, worker, message)

    tracer._undo.append((gateway_cls, "_send", original))
    gateway_cls._send = send
