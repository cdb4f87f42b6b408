"""Tests of the benchmark's own tracing.  Run from the repository root:

    python3 -m pytest -q perfbench

They check that the wrappers are bound where callers look names up,
that handler time goes to the module defining each handler, that a
traced round's layer self times plus its unattributed time sum to the
round's timed window, and that tracing leaves every logical figure of
the round unchanged.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layer_trace  # noqa: E402


def _round(tmp_path: Path, trace: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, str(HERE / "round.py"),
               "--workload", "readheavy-cached", "--seed", "5",
               "--trace", "1" if trace else "0"]
    if trace:
        command += ["--spans", str(tmp_path / "spans.jsonl")]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_process():
    """Install the wrappers into this process once (they are global)."""
    log = layer_trace.SpanLog("test")
    rebound = layer_trace.install(log)
    return log, rebound


def test_wrappers_bind_where_callers_look(traced_process):
    # ``repro.avid.disperse`` names a function as a package attribute,
    # so look the modules up by name.
    _log, rebound = traced_process
    for name in ("repro.common.serialization", "repro.net.message",
                 "repro.core.atomic", "repro.core.atomic_md",
                 "repro.avid.disperse"):
        assert getattr(sys.modules[name].encoded_size,
                       "__wrapped_by_perfbench__", False), name
    for name in ("repro.net.message", "repro.net.process"):
        assert getattr(sys.modules[name].content_wire_size,
                       "__wrapped_by_perfbench__", False), name
    assert rebound["encoded_size"] >= 5
    assert rebound["content_wire_size"] >= 2


def test_handler_time_goes_to_the_defining_module(traced_process):
    from repro.config import SystemConfig
    from repro.kv.cluster import build_kv_cluster, drive
    from repro.kv.directory import KvDirectory
    from repro.net.schedulers import RandomScheduler
    from repro.workloads.kv import kv_workload

    log, _rebound = traced_process
    directory = KvDirectory(SystemConfig(n=4, t=1, seed=2), 2)
    cluster = build_kv_cluster(directory, protocol="atomic",
                               num_sessions=2,
                               scheduler=RandomScheduler(2))
    operations = kv_workload(num_sessions=2, num_keys=4, ops=8, seed=2)
    log.start()
    drive(cluster, operations, seed=2)
    window = log.stop()
    names = {span[layer_trace.NAME] for span in log.spans}
    for expected in ("core.handler", "avid.handler", "broadcast.handler",
                     "kv.mux.handler", "core.thread", "net.step",
                     "kv.mux.receive", "serialization.encoded_size",
                     "erasure.encode", "crypto.commit"):
        assert expected in names, expected
    times = layer_trace.layer_times(log.spans, window)
    assert times["self_by_layer"]["unattributed"] >= 0.0


def test_layer_self_times_sum_to_window(tmp_path):
    traced = _round(tmp_path, trace=True)
    window = traced["window_s"]
    self_by_layer = traced["layers"]["times"]["self_by_layer"]
    assert set(self_by_layer) >= {"net", "kv.mux", "kv.session", "core",
                                  "serialization", "unattributed"}
    assert all(value >= -1e-9 for value in self_by_layer.values())
    # the round derives deliveries from the clock and the event log
    assert traced["layers"]["counts"]["net.deliveries"] \
        == traced["logical"]["deliveries"]
    assert sum(self_by_layer.values()) == pytest.approx(window, rel=1e-9)

    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    start, end = header["window"]
    spans = [json.loads(line) for line in lines[1:]]
    assert len(spans) == header["spans"] == traced["layers"]["spans"]
    for index, _name, _layer, begin, finish, parent in spans:
        assert begin <= finish
        if parent < 0:
            assert start <= begin and finish <= end
        else:
            assert parent < index
            assert spans[parent][3] <= begin and finish <= spans[parent][4]


def test_tracing_leaves_logical_figures_unchanged(tmp_path):
    plain = _round(tmp_path, trace=False)
    traced = _round(tmp_path, trace=True)
    assert plain["logical"] == traced["logical"]
    assert plain["problems"] == traced["problems"] == []
