"""The benchmark's four workloads.

Each workload serves one fixed model — the SpMM weights and SDDMM
topology from :mod:`repro.dlmc.generator`, the seeded classifier — and
draws the requests it sends from the run's seed with NumPy, so runs
differ in their traffic, not in the work the model does per request. It
computes a reference for every input with
its own NumPy code (never the program's kernels), opens the program
through a public surface (:func:`repro.open_engine` or
:func:`repro.fleet.open_fleet`), and runs one closed-loop operation per
:meth:`Workload.step`. A step returns one :class:`Outcome` per request
it sent: a request that raised, or whose output differs from its
reference, is failed.

``repro`` is imported inside methods only: set-up time is timed from
the first ``import repro`` of a process, and input generation is not
part of it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

#: the served model (weights, sparse structures, classifier) is the same
#: in every run: with the structures drawn per seed, their nonzero count
#: varies by 7% (CV) and moves kernel-bound throughput as much
MODEL_SEED = 0
#: distinct payloads per request class; requests cycle through them
POOL = 8
#: the serve-mix draw: (class, share)
MIX = (("spmm", 0.60), ("sddmm", 0.25), ("attention", 0.15))
#: length of the class sequence serve-mix and fleet-mix cycle: a seeded
#: shuffle of exactly MIX's shares
MIX_SEQUENCE = 400
#: requests in one serve-burst burst
BURST = 16
#: lra-classify: largest mean error of the served logits against the
#: float forward, as a share of the logits' magnitude (see
#: float_forward; measured up to 0.15% over 35 classifier seeds)
LOGIT_REL_TOL = 0.01
#: lra-classify: argmax must agree on every row whose reference top-two
#: margin exceeds this multiple of LOGIT_REL_TOL x the mean magnitude;
#: closer rows are ties at the quantized pipeline's precision
ARGMAX_MARGIN = 2.0
#: transformer-fwd: model and request shape
XF_SEQ, XF_BATCH, XF_VARIANTS = 256, 4, ("strided", "local")
XF_SHAPE = dict(seq_len=XF_SEQ, d_model=64, num_heads=2, num_layers=2,
                d_ff=128, vocab=16, num_classes=2)
XF_BACKEND = "fastpath-vectorized"


@dataclass
class Outcome:
    """One request's fate: its latency, its response, and a status of
    ``ok``, ``wrong`` (output differs from the reference) or ``error``
    (the request raised)."""

    latency_s: float
    response: object
    status: str


def vector_keep(dense: np.ndarray, v: int = 8) -> np.ndarray:
    """Element mask of a V x 1 vector-sparse matrix: a kept vector keeps
    all V elements, zeros inside it too."""
    m, k = dense.shape
    strips = (dense.reshape(m // v, v, k) != 0).any(axis=1)
    return np.repeat(strips, v, axis=0)


def bcrs_keep(mask) -> np.ndarray:
    """Element mask of a BCRS topology, read from its index arrays."""
    m, k = mask.shape
    v = mask.vector_length
    strips = np.zeros((m // v, k), dtype=bool)
    rows = np.repeat(np.arange(m // v), np.diff(mask.row_ptrs))
    strips[rows, mask.col_indices] = True
    return np.repeat(strips, v, axis=0)


def _layer_norm(x: np.ndarray, ln) -> np.ndarray:
    mu = x.mean(-1, keepdims=True)
    var = x.var(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + ln.eps) * ln.gamma.value + ln.beta.value


def _linear(x: np.ndarray, lin) -> np.ndarray:
    return x @ lin.w.value + lin.b.value


def float_forward(model, ids: np.ndarray, keep: np.ndarray):
    """The classifier's float64 forward with the mask applied as an
    additive mask, written from the model's weights alone.

    Returns ``(logits, magnitude)``: ``magnitude`` is ``|pooled| @ |W|``
    plus ``|b|`` of the head, the size each logit would have if none of
    its terms cancelled. Errors are measured against it, because a logit
    that happens to sit near zero says nothing of the forward's
    accuracy.
    """
    additive = np.where(keep, 0.0, -np.inf)
    x = model.embed.table.value[ids].astype(np.float64) + model.pos.value
    for layer in model.layers:
        h = _layer_norm(x, layer.ln1)
        attn = layer.attn
        b, seq, d_model = h.shape
        heads = attn.num_heads
        d_head = d_model // heads

        def split(lin, h=h, b=b, seq=seq, heads=heads, d_head=d_head):
            return _linear(h, lin).reshape(b, seq, heads, d_head).transpose(
                0, 2, 1, 3
            )

        q, k, v = split(attn.wq), split(attn.wk), split(attn.wv)
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(d_head) + additive
        scores -= scores.max(-1, keepdims=True)
        probs = np.exp(scores)
        probs /= probs.sum(-1, keepdims=True)
        ctx = probs @ v
        x = x + _linear(ctx.transpose(0, 2, 1, 3).reshape(b, seq, d_model), attn.wo)
        h2 = _layer_norm(x, layer.ln2)
        x = x + _linear(np.maximum(_linear(h2, layer.ff1), 0.0), layer.ff2)
    pooled = x.mean(axis=1)
    head = model.head
    magnitude = np.abs(pooled) @ np.abs(head.w.value) + np.abs(head.b.value)
    return _linear(pooled, head), magnitude


def logits_match(out, reference) -> bool:
    """Mean error within :data:`LOGIT_REL_TOL` of the logits' magnitude,
    and argmax equal wherever the reference is not a near tie."""
    ref, magnitude = reference
    out = np.asarray(out, dtype=np.float64)
    if out.shape != ref.shape or not np.isfinite(out).all():
        return False
    scale = magnitude.mean()
    if np.abs(out - ref).mean() > LOGIT_REL_TOL * scale:
        return False
    top2 = np.sort(ref, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > ARGMAX_MARGIN * LOGIT_REL_TOL * scale
    return bool((out.argmax(1) == ref.argmax(1))[clear].all())


class Workload:
    """Inputs, references and closed-loop steps of one workload."""

    name = ""
    why = ""
    #: request classes, each served once during set-up
    classes: tuple[str, ...] = ()

    def __init__(self) -> None:
        self._refs: dict = {}

    # -- program surface ---------------------------------------------------
    def open(self):
        """Open the program; returns the object requests are sent to."""
        import repro

        return repro.open_engine()

    def worker_pids(self, target) -> list[int]:
        """Processes the workload runs besides this one."""
        return []

    # -- requests ------------------------------------------------------------
    def request(self, kind: str, i: int):
        """The ``i``-th request of class ``kind``."""
        raise NotImplementedError

    def reference(self, kind: str, i: int):
        key = (kind, i % POOL)
        if key not in self._refs:
            self._refs[key] = self._compute_reference(kind, i % POOL)
        return self._refs[key]

    def _compute_reference(self, kind: str, j: int):
        raise NotImplementedError

    def check(self, kind: str, i: int, response) -> bool:
        raise NotImplementedError

    def prepare_references(self, count: int | None = None) -> None:
        """Compute the first ``count`` references of every class (all
        when ``None``) now, before anything is timed."""
        for kind in self.classes:
            for j in range(POOL if count is None else count):
                self.reference(kind, j)

    def _send(self, target, kind: str, i: int) -> Outcome:
        request = self.request(kind, i)
        t0 = time.perf_counter()
        try:
            response = target.run(request)
        except Exception as exc:  # any raise is a failed operation
            return Outcome(time.perf_counter() - t0, exc, "error")
        latency = time.perf_counter() - t0
        ok = self._safe_check(kind, i, response)
        return Outcome(latency, response, "ok" if ok else "wrong")

    def _safe_check(self, kind: str, i: int, response) -> bool:
        try:
            return self.check(kind, i, response)
        except (AttributeError, TypeError, ValueError, IndexError):
            return False  # a malformed response is a wrong one

    def first_contact(self, target) -> list[tuple[str, Outcome]]:
        """Serve the first request of every class, in order."""
        return [(kind, self._send(target, kind, 0)) for kind in self.classes]

    def step(self, target, i: int) -> list[Outcome]:
        """The ``i``-th closed-loop operation."""
        raise NotImplementedError


class _MixInputs(Workload):
    """SpMM / SDDMM / modelled-attention requests of the served mix."""

    classes = ("spmm", "sddmm", "attention")

    def __init__(self, seed: int) -> None:
        super().__init__()
        from repro.dlmc.generator import MatrixSpec, generate_matrix

        rng = np.random.default_rng(seed)
        # SpMM: 256x256 weights, 90% sparse in 8x1 vectors, N=64
        self.spmm_lhs = generate_matrix(
            MatrixSpec("transformer", 256, 256, sparsity=0.9, seed=MODEL_SEED),
            vector_length=8, bits=8,
        )
        self.spmm_rhs = [
            rng.integers(-128, 128, size=(256, 64), dtype=np.int8)
            for _ in range(POOL)
        ]
        # SDDMM: 256x256 topology, 95% sparse in 8x1 vectors, K=32
        self.sddmm_mask = generate_matrix(
            MatrixSpec("transformer", 256, 256, sparsity=0.95,
                       seed=MODEL_SEED + 1),
            vector_length=8, bits=8,
        )
        self.sddmm_keep = vector_keep(self.sddmm_mask)
        self.sddmm_ab = [
            (rng.integers(-128, 128, size=(256, 32), dtype=np.int8),
             rng.integers(-128, 128, size=(32, 256), dtype=np.int8))
            for _ in range(POOL)
        ]
        exact = [kind for kind, share in MIX
                 for _ in range(round(share * MIX_SEQUENCE))]
        self.sequence = [exact[k] for k in rng.permutation(len(exact))]
        #: the modelled attention time every response must repeat
        self.attention_time_s: float | None = None

    def useful_ops(self, kind: str) -> float:
        """Integer multiply-adds x 2 one request of ``kind`` asks for."""
        if kind == "spmm":
            return 2.0 * vector_keep(self.spmm_lhs).sum() * 64
        if kind == "sddmm":
            return 2.0 * 32 * self.sddmm_keep.sum()
        return 0.0

    def request(self, kind: str, i: int):
        from repro import api

        j = i % POOL
        if kind == "spmm":
            return api.SpmmRequest(
                lhs=self.spmm_lhs, rhs=self.spmm_rhs[j], session="bench-spmm"
            )
        if kind == "sddmm":
            a, b = self.sddmm_ab[j]
            return api.SddmmRequest(
                mask=self.sddmm_mask, a=a, b=b, session="bench-sddmm"
            )
        return api.AttentionRequest(seq_len=128, session="bench-attention")

    def _compute_reference(self, kind: str, j: int):
        if kind == "spmm":
            return self.spmm_lhs.astype(np.int64) @ self.spmm_rhs[j].astype(np.int64)
        if kind == "sddmm":
            a, b = self.sddmm_ab[j]
            product = a.astype(np.int64) @ b.astype(np.int64)
            return np.where(self.sddmm_keep, product, 0)
        return None

    def check(self, kind: str, i: int, response) -> bool:
        if kind == "attention":
            t = response.time_s
            if not (isinstance(t, float) and math.isfinite(t) and t > 0):
                return False
            if self.attention_time_s is None:
                self.attention_time_s = t
            return t == self.attention_time_s
        ref = self.reference(kind, i)
        out = response.output
        if kind == "spmm":
            return out.shape == ref.shape and bool((out == ref).all())
        # the sampled output must hold exactly the mask's vector pattern
        if not np.array_equal(bcrs_keep(out), self.sddmm_keep):
            return False
        return bool((out.to_dense() == ref).all())


class ServeMix(_MixInputs):
    name = "serve-mix"
    why = ("one client, seeded 60/25/15 SpMM/SDDMM/attention draw: lone "
           "requests, so api/serve overhead dominates kernel time")

    def step(self, target, i: int) -> list[Outcome]:
        kind = self.sequence[i % MIX_SEQUENCE]
        return [self._send(target, kind, i)]


class FleetMix(ServeMix):
    name = "fleet-mix"
    why = ("the serve-mix stream through a two-worker fleet gateway: adds "
           "only the RPC (pickling, pipe, placement) to serve-mix")

    def open(self):
        from repro.fleet import open_fleet

        return open_fleet(workers=2)

    def worker_pids(self, target) -> list[int]:
        import multiprocessing

        return [p.pid for p in multiprocessing.active_children()]


class ServeBurst(_MixInputs):
    name = "serve-burst"
    why = ("bursts of 16 same-class requests, SpMM and SDDMM in turn: the "
           "batcher coalesces full batches, unlike serve-mix")
    classes = ("spmm", "sddmm")

    def step(self, target, i: int) -> list[Outcome]:
        kind = self.classes[i % 2]
        base = (i // 2) * BURST
        done = [0.0] * BURST

        def stamp(k: int):
            return lambda _fut: done.__setitem__(k, time.perf_counter())

        t0 = time.perf_counter()
        futures = []
        for k in range(BURST):
            try:
                fut = target.submit(self.request(kind, base + k))
            except Exception as exc:  # a refused submit fails that request
                futures.append(exc)
                continue
            fut.add_done_callback(stamp(k))
            futures.append(fut)
        outcomes = []
        for k, fut in enumerate(futures):
            if isinstance(fut, Exception):
                outcomes.append(Outcome(0.0, fut, "error"))
                continue
            try:
                response = fut.result(timeout=120)
            except Exception as exc:
                outcomes.append(Outcome(0.0, exc, "error"))
                continue
            ok = self._safe_check(kind, base + k, response)
            outcomes.append(Outcome(done[k] - t0, response, "ok" if ok else "wrong"))
        return outcomes


class TransformerFwd(Workload):
    name = "transformer-fwd"
    why = ("lra-classify forwards on fastpath (4 x seq 256, 2 layers), "
           "strided and local masks in turn: kernel-bound, little serving")
    classes = XF_VARIANTS

    def __init__(self, seed: int) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.ids = [
            rng.integers(0, XF_SHAPE["vocab"], size=(XF_BATCH, XF_SEQ),
                         dtype=np.int64)
            for _ in range(POOL)
        ]
        self._models: dict = {}

    def request(self, kind: str, i: int):
        from repro import api

        return api.TransformerRequest(
            ids=self.ids[i % POOL], mask_variant=kind, backend=XF_BACKEND,
            seed=MODEL_SEED, session=f"bench-{kind}", **XF_SHAPE,
        )

    def _model(self, variant: str):
        """The seeded classifier and mask the served request names."""
        if variant not in self._models:
            from repro.transformer.model import (
                SparseTransformerClassifier,
                TransformerConfig,
            )

            cfg = TransformerConfig(mask_variant=variant, **XF_SHAPE)
            model = SparseTransformerClassifier(cfg, seed=MODEL_SEED)
            mask = cfg.attention_mask(sparsity=0.9, vector_length=8,
                                      seed=MODEL_SEED)
            self._models[variant] = (model, bcrs_keep(mask))
        return self._models[variant]

    def _compute_reference(self, kind: str, j: int):
        model, keep = self._model(kind)
        return float_forward(model, self.ids[j], keep)

    def check(self, kind: str, i: int, response) -> bool:
        return logits_match(response.output, self.reference(kind, i))

    def step(self, target, i: int) -> list[Outcome]:
        return [self._send(target, XF_VARIANTS[i % 2], i // 2)]


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (ServeMix, ServeBurst, TransformerFwd, FleetMix)
}
