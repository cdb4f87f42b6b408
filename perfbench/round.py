"""One benchmark round in a fresh interpreter (spawned by ``run.py``).

Usage: ``python3 perfbench/round.py --workload NAME --seed N --trace 0|1
[--spans PATH]``, run from the repository root.  Builds the workload's
deployment, offers its operations through :func:`repro.kv.cluster.drive`,
times the drive loop (plus the obs report on observed workloads), then
checks the outcome outside the timed window.  Prints one JSON object.
With ``--trace 1`` the layers' entry points are wrapped first (see
``layer_trace.py``) and the round also reports per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and make sure the
    program imported is the one in this checkout."""
    sys.path.insert(0, str(SRC))
    import repro
    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"repro imported from {origin}, not from {SRC}")


def _install_submit_probe(submitted: Dict[int, int],
                          last_submit: Dict[str, int]) -> None:
    """Record the logical tick at which each handle was submitted, and
    the fault injector's decision clock at the latest submission.

    A lease-served read reports its cache anchor's interval, so the
    handle alone does not say when the caller asked; latency is measured
    from this tick.  Installed in traced and untraced rounds alike.
    """
    from repro.kv.session import KvSession

    for attr in ("put", "get"):
        original = getattr(KvSession, attr)

        def probe(self, *args, _original=original, **kwargs):
            handle = _original(self, *args, **kwargs)
            simulator = self.host.simulator
            submitted[id(handle)] = simulator.time
            if simulator.chaos is not None:
                last_submit["decisions"] = simulator.chaos.decisions
            return handle

        setattr(KvSession, attr, probe)


def _churn_plan(workload, seed: int):
    from repro.repair.bench import churn_storm_plan
    from workloads import CHURN_DECISIONS_PER_OP

    events = workload.t + 1
    stagger = workload.ops * CHURN_DECISIONS_PER_OP // events
    return churn_storm_plan(workload.n, workload.t, seed=seed,
                            first_crash=stagger // 2, stagger=stagger)


def _operations(workload, seed: int):
    """The round's operations: keys, sessions and values from
    :func:`repro.workloads.kv.kv_workload`, with exactly
    ``round(ops * write_ratio)`` writes at seeded positions (the first
    op is a write, as in ``kv_workload``).

    An exact mix keeps the rounds of a workload comparable: with 10%
    writes drawn independently, a 256-op round holds 26 +- 5 writes, and
    on ``atomic_md`` a write costs several reads.
    """
    import random

    from repro.analysis.linearizability import KIND_READ
    from repro.workloads.kv import KvOp, kv_workload

    drafts = kv_workload(
        num_sessions=workload.sessions, num_keys=workload.keys,
        ops=workload.ops, write_ratio=1.0,
        distribution=workload.distribution,
        zipf_exponent=workload.zipf_exponent, seed=seed,
        value_size=workload.value_size)
    writes = max(1, round(workload.ops * workload.write_ratio))
    chosen = {0, *random.Random(seed).sample(range(1, workload.ops),
                                             writes - 1)}
    return [op if index in chosen else
            KvOp(session_index=op.session_index, kind=KIND_READ, key=op.key)
            for index, op in enumerate(drafts)]


def _histories_failed(sessions) -> Dict[str, Any]:
    """Run the product's checker; on a violation, count the ops of
    every key whose history admits no atomic order."""
    from repro.analysis.linearizability import check_atomicity
    from repro.common.errors import AtomicityViolation
    from repro.kv.bench import check_kv_histories, session_history

    try:
        keys = check_kv_histories(sessions)
        return {"keys": keys, "failed_ops": 0, "bad_keys": []}
    except AtomicityViolation:
        pass
    histories = session_history(sessions)
    bad = []
    failed = 0
    for key in sorted(histories):
        try:
            check_atomicity(histories[key], initial_value=b"")
        except AtomicityViolation:
            bad.append(key)
            failed += len(histories[key])
    return {"keys": len(histories), "failed_ops": failed, "bad_keys": bad}


def run_round(workload, seed: int, trace: bool,
              spans_path: str = "") -> Dict[str, Any]:
    from layer_trace import SpanLog, install, layer_times

    log = None
    if trace:
        log = SpanLog(run_id=f"{workload.name}:{seed}")
        install(log)
    submitted: Dict[int, int] = {}
    last_submit = {"decisions": 0}
    _install_submit_probe(submitted, last_submit)

    from repro.chaos.injector import FaultInjector
    from repro.cluster import PROTOCOLS
    from repro.config import SystemConfig
    from repro.kv.bench import _chaos_overrides
    from repro.kv.cluster import build_kv_cluster, drive
    from repro.kv.directory import KvDirectory
    from repro.net.message import EVENT_CHAOS, EVENT_DELIVER
    from repro.net.schedulers import RandomScheduler
    from repro.obs import (
        TraceRecorder,
        build_spans,
        operation_plane_traffic,
        plane_traffic,
    )
    from repro.repair.coordinator import attach_repair

    fleet = SystemConfig(n=workload.n, t=workload.t, seed=seed)
    directory = KvDirectory(fleet, workload.shards,
                            shard_k=workload.shard_k)
    plan = _churn_plan(workload, seed) if workload.churn else None
    overrides = None
    if plan is not None:
        plan.validate(workload.n, workload.t)
        overrides = _chaos_overrides(plan, PROTOCOLS[workload.protocol][0])
    cluster = build_kv_cluster(
        directory, protocol=workload.protocol,
        num_sessions=workload.sessions, scheduler=RandomScheduler(seed),
        server_overrides=overrides, max_attempts=workload.max_attempts,
        cache_size=workload.cache_size, lease_ticks=workload.lease_ticks)
    recorder = None
    if workload.observed:
        recorder = TraceRecorder().attach(cluster.simulator)
    coordinator = None
    if plan is not None:
        cluster.simulator.attach_injector(FaultInjector(plan))
        # at most two re-dispersals in flight, as on the churn bench
        coordinator = attach_repair(cluster, plan=plan, batch_size=2)
    operations = _operations(workload, seed)

    # -- timed window: drive loop (+ the obs report when observed) --------
    first_op_at = time.monotonic()
    if log is not None:
        log.start()
    window_start = time.perf_counter()
    stats = drive(cluster, operations, seed=seed,
                  invoke_probability=workload.invoke_probability)
    report = None
    if recorder is not None:
        spans = build_spans(recorder)
        phase_ticks: Dict[str, int] = {}
        for span in spans:
            for child in span.children:
                phase_ticks[child.name] = phase_ticks.get(child.name, 0) \
                    + child.duration
        planes = plane_traffic(recorder)
        read_planes = operation_plane_traffic(recorder)["read"]
        report = {"spans": len(spans), "phase_ticks": phase_ticks,
                  "metadata_bytes": planes.metadata_bytes,
                  "data_bytes": planes.data_bytes,
                  "read_metadata_bytes": read_planes.metadata_bytes,
                  "read_data_bytes": read_planes.data_bytes}
    window_s = time.perf_counter() - window_start
    if log is not None:
        log.stop()

    # -- correctness, outside the window ----------------------------------
    check_start = time.perf_counter()
    histories = _histories_failed(cluster.sessions)
    check_s = time.perf_counter() - check_start

    simulator = cluster.simulator
    handles = [handle for session in cluster.sessions
               for handle in session.handles]
    done = [handle for handle in handles if handle.done]
    latencies: Dict[str, List[int]] = {"read": [], "write": []}
    for handle in done:
        waited = handle.complete_time - submitted[id(handle)]
        latencies[handle.kind].append(max(waited, 0))
    cache = {name: sum(session.cache.stats[name]
                       for session in cluster.sessions)
             for name in ("lease_hits", "revalidations", "revalidate_hits",
                          "revalidate_fallbacks", "shared_reads")}
    reads_done = len(latencies["read"])
    logical: Dict[str, Any] = {
        "offered": len(operations),
        "submitted": stats["submitted"],
        "completed": stats["completed"],
        "ticks": simulator.time,
        # the clock also advances on inputs, outputs and chaos events,
        # which are the event log's entries (deliveries are not logged)
        "deliveries": simulator.time - sum(
            1 for event in simulator.event_log
            if event.kind != EVENT_DELIVER),
        "steps": stats["steps"],
        "messages": simulator.metrics.total_messages,
        "wire_bytes": simulator.metrics.total_bytes,
        "storage_bytes": simulator.storage_bytes(),
        "keys_written": len({handle.key for handle in done
                             if handle.kind == "write"}),
        "value_size": workload.value_size,
        "backpressure_hits": stats["backpressure_hits"],
        "retries": stats["retries"],
        "coalesced": sum(1 for handle in handles if handle.coalesced),
        # reads answered without a protocol read of their own: lease,
        # metadata revalidation, or joined to a queued read (sharing)
        "cache_served": sum(1 for handle in done if handle.kind == "read"
                            and (handle.served in ("lease", "revalidate")
                                 or handle.coalesced)),
        "reads_done": reads_done,
        "chaos_events": sum(1 for event in simulator.event_log
                            if event.kind == EVENT_CHAOS),
        # planned crashes whose point the injector's decision clock passed
        "crashes": 0 if plan is None else sum(
            1 for crash in plan.crashes
            if crash.after <= simulator.chaos.decisions),
        "decisions": 0 if plan is None else simulator.chaos.decisions,
        "last_submit_decisions": last_submit["decisions"],
        "read_latencies": latencies["read"],
        "write_latencies": latencies["write"],
        "history_keys": histories["keys"],
        **{f"cache_{name}": value for name, value in cache.items()},
    }
    if report is not None:
        logical["report"] = report
    problems: List[str] = []
    not_done = len(operations) - len(done)
    if not_done or stats["submitted"] != len(operations):
        problems.append(f"{not_done} of {len(operations)} ops not completed")
    if histories["bad_keys"]:
        problems.append(f"atomicity violated on keys {histories['bad_keys']}")
    if coordinator is not None:
        logical["repair"] = {
            "replacements": coordinator.stats.replacements,
            "redispersals": coordinator.stats.completed,
            "failed": coordinator.stats.failed,
            "lag_final": coordinator.lag,
        }
        planned = len(plan.crashes)
        if logical["crashes"] != planned:
            problems.append(f"{logical['crashes']} of {planned} planned "
                            f"crashes reached")
        # Every crash and its replacement must land while ops are still
        # being offered; otherwise the coordinator force-fires the swap
        # on a quiet network and the storm never meets live traffic.
        last_swap = max(crash.after + crash.replace_after
                        for crash in plan.crashes)
        if last_swap >= last_submit["decisions"]:
            problems.append(
                f"last replacement point {last_swap} not before the last "
                f"op offered (decision {last_submit['decisions']})")
        if coordinator.lag or not coordinator.idle:
            problems.append(f"repair lag {coordinator.lag} at the end")
        if coordinator.stats.replacements != planned:
            problems.append(f"{coordinator.stats.replacements} of "
                            f"{planned} planned replacements done")
    if report is not None and (
            report["spans"] < 1
            or report["read_data_bytes"] > report["data_bytes"]
            or report["read_metadata_bytes"] > report["metadata_bytes"]):
        problems.append(f"inconsistent obs report {report}")

    result: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "first_op_at": first_op_at,
        "window_s": window_s,
        "check_s": check_s,
        "check_ops": len(done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "failed": not_done + histories["failed_ops"],
        "problems": problems,
        "logical": logical,
    }
    if log is not None:
        times = layer_times(log.spans, window_s)
        result["layers"] = {
            "times": times,
            "counts": log.counts,
            "obs_records": 0 if recorder is None else
            len(recorder.messages) + len(recorder.events),
            "spans": len(log.spans),
        }
        if spans_path:
            log.write(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default="",
                        help="write the traced round's spans here")
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    result = run_round(WORKLOADS[args.workload], args.seed,
                       bool(args.trace), args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    # Skip interpreter teardown: the round is over and its figures out.
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
