"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

Every workload runs briefly, untraced and traced, and passes its
output checks; a corrupted output and a raising request each count as
a failed operation; the round rule keeps the least-stolen rounds; and
``BENCHMARK.json`` names exactly the workloads and metrics the runner
prints. The file is not named ``test_*.py``, so the repository's own
test run does not collect it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import Future

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import host  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, logits_match  # noqa: E402


def _run(*args: str) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_and_passes_its_checks(name: str, trace: int) -> None:
    result = _run("--workload", name, "--seed", "5", "--seconds", "2",
                  "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _corrupt(response):
    """The response with its output (or modelled time) made wrong."""
    out = response.output
    if out is None:  # modelled attention: a time that cannot be right
        response.time_s = -response.time_s
    elif hasattr(out, "values"):  # a sampled (BCRS) output
        out.values = out.values.copy()
        out.values[0, 0] += 1
    elif out.dtype.kind == "f":  # logits: swap the classes
        response.output = out[:, ::-1].copy()
    else:
        response.output = out.copy()
        response.output[0, 0] += 1
    return response


class _Corrupting:
    """Forwards requests to a real target; corrupts every response."""

    def __init__(self, target) -> None:
        self.target = target

    def run(self, request):
        return _corrupt(self.target.run(request))

    def submit(self, request) -> Future:
        inner, outer = self.target.submit(request), Future()
        inner.add_done_callback(
            lambda f: outer.set_result(_corrupt(f.result()))
        )
        return outer


class _Raising:
    def run(self, request):
        raise RuntimeError("refused")

    def submit(self, request):
        raise RuntimeError("refused")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_corrupted_output_counts_as_failed(name: str) -> None:
    workload = WORKLOADS[name](seed=2)
    target = workload.open()
    try:
        clean = run.Tally()
        clean.count(o for i in range(4) for o in workload.step(target, i))
        assert clean.attempted > 0 and clean.failed == 0

        bad = run.Tally()
        bad.count(o for i in range(4, 8)
                  for o in workload.step(_Corrupting(target), i))
        assert bad.attempted > 0
        assert bad.failed == bad.wrong == bad.attempted
    finally:
        target.close()


def test_raising_request_counts_as_failed_not_wrong() -> None:
    workload = WORKLOADS["serve-burst"](seed=2)
    tally = run.Tally()
    tally.count(workload.step(_Raising(), 0))
    assert tally.failed == tally.attempted > 0 and tally.wrong == 0


def test_argmax_is_checked_on_clear_rows_only() -> None:
    ref = np.array([[1.0, 1.001]] + [[0.0, 1.0]] * 9)
    magnitude = np.ones_like(ref)
    near_tie_flipped = ref.copy()
    near_tie_flipped[0] = [1.001, 1.0]
    assert logits_match(near_tie_flipped, (ref, magnitude))
    ref[0] = [1.0, 1.05]
    clear_flipped = ref.copy()
    clear_flipped[0] = [1.05, 1.0]
    assert not logits_match(clear_flipped, (ref, magnitude))


def test_least_stolen_keeps_the_quietest_rounds() -> None:
    rounds = [host.Round(seconds=1.0, steal=s, latencies_s=[0.01])
              for s in (0.3, 0.0, 0.2, 0.0, 0.1, 0.05)]
    kept = host.least_stolen(rounds)
    assert [r.steal for r in kept] == [0.0, 0.0, 0.1, 0.05]
    report = host.steal_report(rounds, kept)
    assert report["kept"] == 4 and report["rounds"] == 6
    assert report["steal_kept"] < report["steal_all"]


def test_outcome_of_a_wrong_sddmm_structure_is_wrong() -> None:
    workload = WORKLOADS["serve-mix"](seed=3)
    target = workload.open()
    try:
        response = target.run(workload.request("sddmm", 0))
        assert workload.check("sddmm", 0, response)
        response.output.col_indices = np.roll(response.output.col_indices, 1)
        assert not workload._safe_check("sddmm", 0, response)
    finally:
        target.close()


def test_benchmark_json_matches_the_runner() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


def _session_members(sid: int) -> list[int]:
    """Processes, zombies included, whose session id is ``sid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            found.append(int(entry))
    return found


@pytest.mark.parametrize("terminate", [False, True])
def test_fleet_run_leaves_no_process_behind(terminate: bool) -> None:
    # the fleet's workers and multiprocessing's resource tracker are
    # the processes a run starts; on exit, normal or by SIGTERM, none
    # may remain, not even as a zombie awaiting init
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "fleet-mix", "--seed", "1", "--seconds", "30" if terminate else "1",
         "--trace", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
        start_new_session=True,
    )
    if terminate:
        import time

        time.sleep(8)  # past set-up, inside the measured loop
        proc.terminate()
    out, err = proc.communicate(timeout=170)
    assert proc.returncode == (143 if terminate else 0), err[-3000:]
    assert _session_members(proc.pid) == []
