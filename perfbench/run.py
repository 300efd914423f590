"""Run the benchmark.

    python3 perfbench/run.py                      # all four workloads
    python3 perfbench/run.py --workload serve-mix --seed 3 --seconds 20
    python3 perfbench/run.py --workload serve-mix --trace 1   # per-layer

One run is one fresh process per workload. It times set-up, warms up,
then measures a closed loop for ``--seconds`` seconds in rounds, keeps
the rounds with the least host CPU steal, and prints the end-to-end
metrics (``--trace 0``) or the per-layer metrics of a traced run
(``--trace 1``). The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it carry the host fingerprint and the steal the run saw, and the
whole record is also written under ``perfbench/results/``.

The program under test is imported from ``src/`` of the checkout this
file sits in; without it the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
# Single-threaded OpenBLAS, for this process, its set-up probes and the
# fleet's workers (set before NumPy loads; inherited by children). The
# forwards' small matrices gain no wall time from a second thread, and
# its spin-waiting makes wall time swing by several times whenever the
# other vCPU is busy or stolen. The fingerprint records the count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

#: extra fresh-process set-ups per untraced run; set-up time is the
#: median of these and the run's own
PROBES = 2
#: operations before measuring, so lazy planning and caches settle
WARMUP_S = 2.0
#: a set-up probe that takes longer than this has hung
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "cpu_ms_per_req": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "api.resolve_ms": "ms/req",
    "serve.queue_wait_ms": "ms/req",
    "serve.batch_size": "req/launch",
    "serve.unattributed_ms": "ms/req",
    "serve.first_contact_ms": "ms",
    "serve.plan_misses": "count/run",
    "kernel.spmm_ms": "ms/call",
    "kernel.sddmm_ms": "ms/call",
    "kernel.softmax_ms": "ms/call",
    "kernel.gops": "Gop/s",
    "gpu.cost_model_ms": "ms/req",
    "formats.convert_ms": "ms/req",
    "transformer.attention_ms": "ms/fwd",
    "transformer.dense_ms": "ms/fwd",
    "fleet.rpc_ms": "ms/req",
    "fleet.bytes_per_req": "bytes",
    "obs.trace_overhead_ms": "ms/req",
    "setup.open_s": "s",
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="time one set-up, print it, and exit")
    p.add_argument("--references", action="store_true",
                   help="compute every reference for --seed, print digests")
    return p.parse_args(argv)


# -- set-up ---------------------------------------------------------------


def set_up(name: str, seed: int, references: int | None):
    """Fresh-process set-up: from the first ``import repro`` until every
    request class has served its first request. Input generation and
    the first ``references`` references per class are computed on the
    way but left out of the time."""
    from workloads import WORKLOADS

    t0 = time.perf_counter()
    import repro  # noqa: F401  (the first import of the program)

    t1 = time.perf_counter()
    workload = WORKLOADS[name](seed)
    workload.prepare_references(references)
    t2 = time.perf_counter()
    target = workload.open()
    t3 = time.perf_counter()
    contacts = workload.first_contact(target)
    t4 = time.perf_counter()
    info = {
        "setup_s": (t1 - t0) + (t4 - t2),
        "open_s": t3 - t2,
        "first_contact_s": [o.latency_s for _, o in contacts],
    }
    return workload, target, info, [o for _, o in contacts]


def probe_setup(args: argparse.Namespace) -> float:
    """One set-up in a fresh process; its ``setup_s``."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--probe-setup"]
    out = subprocess.run(cmd, capture_output=True, text=True,
                         timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


# -- the measured loop ---------------------------------------------------


class Tally:
    """Operations attempted, failed, and failed with a wrong output."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.wrong = 0

    def count(self, outcomes) -> list:
        """Count outcomes; return the successful ones."""
        ok = []
        for o in outcomes:
            self.attempted += 1
            if o.status == "ok":
                ok.append(o)
            else:
                self.failed += 1
                self.wrong += o.status == "wrong"
        return ok


def run_loop(workload, target, seconds: float, procs, tally: Tally,
             start: int = 0, on_ok=None):
    """Closed loop for ``seconds``; returns (rounds, next step index)."""
    from host import RoundClock

    clock = RoundClock(procs, seconds)
    i = start
    while True:
        for o in tally.count(workload.step(target, i)):
            clock.record(o.latency_s)
            if on_ok is not None:
                on_ok(o)
        i += 1
        if not clock.tick():
            return clock.rounds, i


def warm_up(workload, target, tally: Tally) -> int:
    i = 0
    deadline = time.perf_counter() + WARMUP_S
    while time.perf_counter() < deadline:
        tally.count(workload.step(target, i))
        i += 1
    return i


# -- one workload ----------------------------------------------------------


def end_to_end(args, workload, target, info, procs, tally):
    """The untraced run's metrics and steal record."""
    from host import least_stolen, steal_report, summarize

    start = warm_up(workload, target, tally)
    rounds, _ = run_loop(workload, target, args.seconds, procs, tally, start)
    peak_rss_mb = procs.peak_rss_mb()
    kept = least_stolen(rounds)
    stats = summarize(kept)
    metrics = {
        "setup_s": statistics.median(info["setup_samples_s"]),
        "throughput_rps": stats["throughput_rps"],
        "latency_p50_ms": stats["latency_p50_ms"],
        "latency_p95_ms": stats["latency_p95_ms"],
        "cpu_ms_per_req": stats["cpu_ms_per_req"],
        "peak_rss_mb": peak_rss_mb,
    }
    record = {"steal": steal_report(rounds, kept),
              "kept_requests": stats["requests"],
              "all_rounds": summarize(rounds),
              "rounds": [r.row() for r in rounds]}
    return metrics, record


def per_layer(args, workload, target, info, procs, tally):
    """The traced run: half the interval untraced, half traced."""
    from host import least_stolen, steal_report, summarize
    from layertrace import LayerTracer, install

    fleet = workload.name == "fleet-mix"
    start = warm_up(workload, target, tally)
    plain, i = run_loop(workload, target, args.seconds / 2, procs, tally, start)

    tracer = LayerTracer()
    seen = {"n": 0, "wall": 0.0, "queue": 0.0, "launches": 0.0}

    def observe(o):
        seen["n"] += 1
        seen["wall"] += o.latency_s
        seen["queue"] += o.response.queue_wait_s
        seen["launches"] += 1.0 / max(o.response.batch_size, 1)

    before = target.metrics_snapshot() if fleet else None
    install(tracer)
    try:
        traced, _ = run_loop(workload, target, args.seconds / 2, procs, tally,
                             i, on_ok=observe)
    finally:
        tracer.restore()
    registry = target.metrics_snapshot() if fleet else target.metrics
    plain_p50 = summarize(least_stolen(plain))["latency_p50_ms"]
    traced_p50 = summarize(least_stolen(traced))["latency_p50_ms"]

    n = seen["n"]
    s, c = tracer.seconds, tracer.calls
    forwards = c["transformer.forward"]
    metrics = {
        "api.resolve_ms": s["api.resolve"] / n * 1e3,
        "serve.queue_wait_ms": seen["queue"] / n * 1e3,
        "serve.batch_size": n / seen["launches"],
        "serve.unattributed_ms": (seen["wall"] - s["api.resolve"]
                                  - seen["queue"] - s["serve.execute"]) / n * 1e3,
        "serve.first_contact_ms": statistics.mean(info["first_contact_s"]) * 1e3,
        "serve.plan_misses": _counter(registry, "repro_plan_cache_misses_total"),
        "kernel.softmax_ms": _per_call(s, c, "kernel.softmax"),
        "gpu.cost_model_ms": s["gpu.cost_model"] / n * 1e3,
        "formats.convert_ms": s["formats.convert"] / n * 1e3,
        "transformer.attention_ms": (
            s["transformer.attention"]
            - tracer.within[("transformer.attention", "transformer.dense")]
        ) / forwards * 1e3 if forwards else 0.0,
        "transformer.dense_ms": (
            s["transformer.dense"] / forwards * 1e3 if forwards else 0.0
        ),
        "fleet.rpc_ms": 0.0,
        "fleet.bytes_per_req": 0.0,
        "obs.trace_overhead_ms": traced_p50 - plain_p50,
        "setup.open_s": info["open_s"],
    }
    if fleet:
        # the kernels and the engine run in the workers: read their
        # registries, as deltas over the traced half
        kernel_s, kernel_n = {}, {}
        for op in ("spmm", "sddmm"):
            kernel_s[op], kernel_n[op] = _histogram_delta(
                before, registry, "repro_kernel_wall_seconds", {"op": op}
            )
            metrics[f"kernel.{op}_ms"] = (
                kernel_s[op] / kernel_n[op] * 1e3 if kernel_n[op] else 0.0
            )
        # one request per launch: a lone client never coalesces
        ops = sum(workload.useful_ops(op) * kernel_n[op] for op in kernel_n)
        metrics["kernel.gops"] = ops / sum(kernel_s.values()) / 1e9
        worker_wall, _ = _histogram_delta(
            before, registry, "repro_request_wall_seconds", {}
        )
        metrics["fleet.rpc_ms"] = (seen["wall"] - worker_wall) / n * 1e3
        # the workers' request wall covers queue wait and execution; what
        # the round trip adds beyond it (transport, worker intake and
        # resolve) is all that stays unattributed
        metrics["serve.unattributed_ms"] = metrics["fleet.rpc_ms"]
        metrics["fleet.bytes_per_req"] = (
            tracer.values["fleet.bytes"] / tracer.values["fleet.messages"]
        )
    else:
        for op in ("spmm", "sddmm"):
            metrics[f"kernel.{op}_ms"] = _per_call(s, c, f"kernel.{op}")
        kernel_s = s["kernel.spmm"] + s["kernel.sddmm"]
        ops = tracer.ops["kernel.spmm"] + tracer.ops["kernel.sddmm"]
        metrics["kernel.gops"] = ops / kernel_s / 1e9 if kernel_s else 0.0
    record = {
        "steal": steal_report(plain + traced, least_stolen(plain + traced)),
        "traced_requests": n,
        "calls": dict(c),
        "layer_seconds": dict(s),
        "within": {f"{a}>{b}": v for (a, b), v in tracer.within.items()},
    }
    return metrics, record


def _per_call(seconds, calls, layer: str) -> float:
    return seconds[layer] / calls[layer] * 1e3 if calls[layer] else 0.0


def _counter(registry, name: str) -> float:
    if name not in registry.names():
        return 0.0
    return float(sum(child.value for _, child in registry.samples(name)))


def _histogram_delta(before, after, name: str, match: dict) -> tuple[float, int]:
    """(sum, count) a histogram family gained between two registries,
    over the label sets that contain ``match``."""

    def total(registry):
        if name not in registry.names():
            return 0.0, 0
        s = n = 0
        for labels, h in registry.samples(name):
            if all(labels.get(k) == v for k, v in match.items()):
                s, n = s + h.sum, n + h.count
        return s, n

    (s0, n0), (s1, n1) = total(before), total(after)
    return s1 - s0, n1 - n0


def run_one(args: argparse.Namespace) -> int:
    from host import Processes, fingerprint, reap_children

    # a terminated run still closes its target and reaps its children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.probe_setup:
        try:
            workload, target, info, _ = set_up(args.workload, args.seed, 1)
            target.close()
        finally:
            reap_children()
        print(json.dumps({"setup_s": info["setup_s"]}))
        return 0

    samples = [] if args.trace else [probe_setup(args) for _ in range(PROBES)]
    tally = Tally()
    target = None
    try:
        workload, target, info, contacts = set_up(args.workload, args.seed, None)
        info["setup_samples_s"] = samples + [info["setup_s"]]
        tally.count(contacts)
        procs = Processes()
        procs.workers = workload.worker_pids(target)
        measure = per_layer if args.trace else end_to_end
        metrics, record = measure(args, workload, target, info, procs, tally)
    finally:
        try:
            if target is not None:
                target.close()
        finally:
            reap_children()

    units = PER_LAYER if args.trace else END_TO_END
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, host=fingerprint(ROOT, args.seed),
        setup_samples_s=info["setup_samples_s"], open_s=info["open_s"],
        attempted=tally.attempted, failed=tally.failed, wrong=tally.wrong,
        metrics=metrics,
    )
    _save(record)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# host " + json.dumps(record["host"]))
    print("# steal " + json.dumps(record["steal"]))
    for name, unit in units.items():
        print(f"# {name:26s} {metrics[name]:14.4f} {unit}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def _save(record: dict) -> None:
    out = os.path.join(HERE, "results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(
        out, f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    )
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)


def print_references(args: argparse.Namespace) -> int:
    """Regenerate every reference for the seed; print one SHA-256 per
    workload and class (floats rounded to 6 decimals, so BLAS summation
    order does not change the digest)."""
    import hashlib

    import numpy as np
    from workloads import POOL, WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        workload = WORKLOADS[name](args.seed)
        workload.prepare_references()
        for kind in workload.classes:
            if workload.reference(kind, 0) is None:
                print(f"{name:16s} {kind:10s} seed={args.seed} "
                      "(no reference: every time must equal the first)")
                continue
            digest = hashlib.sha256()
            for j in range(POOL):
                ref = workload.reference(kind, j)
                for array in ref if isinstance(ref, tuple) else (ref,):
                    if array.dtype.kind == "f":
                        array = np.round(array, 6)
                    digest.update(np.ascontiguousarray(array).tobytes())
            print(f"{name:16s} {kind:10s} seed={args.seed} {digest.hexdigest()}")
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in its own process."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
        print(f"# {name}: attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}")
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.references:
        return print_references(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
