"""The repository benchmark: kv workloads, end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload mixed-atomic --seed 1 \\
        --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Every round runs cold in a fresh interpreter (``round.py``) with its
own seed derived from ``--seed``; nothing is warmed up.  ``--trace 0``
runs untraced rounds for ``--seconds`` (at least the workload's
``min_rounds``), repeats round 0 to prove the logical metrics repeat
exactly, and reports the end-to-end metrics.  ``--trace 1`` runs each
round twice, untraced and traced, checks that both give identical
logical metrics, and reports the per-layer metrics.  Any correctness
failure (an op not completed, a history that is not atomic, repair not
finished, a logical metric that does not repeat) makes the exit code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from layer_trace import PROTOCOL_LAYERS  # noqa: E402
from workloads import WORKLOADS, Workload, round_seed  # noqa: E402

#: Stop starting extra rounds after this long, whatever ``--seconds`` says.
RUN_CAP_S = 150
#: A round still running this long after its workload started is killed
#: and the run fails, so every run ends within its time limit.
RUN_DEADLINE_S = 170


class RoundFailed(RuntimeError):
    """A round exited abnormally or printed no result."""


def run_round(workload: Workload, seed: int, trace: bool, deadline: float,
              spans_path: str = "") -> Dict[str, Any]:
    """Run one round in a fresh interpreter and return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(HERE / "round.py"),
               "--workload", workload.name, "--seed", str(seed),
               "--trace", "1" if trace else "0"]
    if spans_path:
        command += ["--spans", spans_path]
    spawned_at = time.monotonic()
    try:
        completed = subprocess.run(command, cwd=ROOT, env=env,
                                   capture_output=True, text=True,
                                   timeout=max(1.0, deadline - spawned_at),
                                   check=False)
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"round seed={seed} timed out") from exc
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RoundFailed(
            f"round seed={seed} exited {completed.returncode}: "
            f"{completed.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["first_op_at"] - spawned_at
    return result


# -- statistics ------------------------------------------------------------


def tail_percentile(samples: List[int]) -> Tuple[Optional[str], float]:
    """The highest of p99 and p90 with at least ten samples beyond it,
    as ``(label, value)``; ``(None, max)`` when neither has."""
    for label, percent in (("p99", 99), ("p90", 90)):
        if len(samples) * (100 - percent) >= 10 * 100:
            cuts = statistics.quantiles(samples, n=100, method="inclusive")
            return label, float(cuts[percent - 1])
    return None, float(max(samples, default=0))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(rounds: List[Dict[str, Any]], repeats: List[Dict[str, Any]],
               workload: Workload
               ) -> Tuple[Dict[str, float], Dict[str, str]]:
    """End-to-end metrics: logical ones over the first ``min_rounds``
    rounds (a fixed function of the seed), wall-clock ones over every
    cold round run, repeats included."""
    logical = [r["logical"] for r in rounds[:workload.min_rounds]]
    timed = rounds + repeats
    completed = sum(item["completed"] for item in logical)
    reads = [x for item in logical for x in item["read_latencies"]]
    writes = [x for item in logical for x in item["write_latencies"]]
    notes: Dict[str, str] = {}
    metrics: Dict[str, float] = {
        "setup_s": statistics.median(r["setup_s"] for r in timed),
        "ops_per_s": statistics.median(
            _ratio(r["logical"]["completed"], r["window_s"]) for r in timed),
        "ops_per_tick": _ratio(completed,
                               sum(item["deliveries"] for item in logical)),
    }
    for kind, samples in (("read", reads), ("write", writes)):
        metrics[f"{kind}_p50_ticks"] = float(
            statistics.median(samples)) if samples else 0.0
        label, value = tail_percentile(samples)
        metrics[f"{kind}_tail_ticks"] = value
        notes[f"{kind}_tail_ticks"] = (
            f"{label or 'max'} of {len(samples)} samples")
    metrics["wire_bytes_per_op"] = _ratio(
        sum(item["wire_bytes"] for item in logical), completed)
    metrics["storage_per_user_byte"] = _ratio(
        sum(item["storage_bytes"] for item in logical),
        sum(item["keys_written"] * item["value_size"] for item in logical))
    metrics["peak_rss_mb"] = statistics.median(
        r["peak_rss_mb"] for r in timed)
    notes["ops_per_s"] = (f"median of {len(timed)} rounds, "
                          f"{sum(r['window_s'] for r in timed):.2f} s "
                          "in the timed window")
    notes["setup_s"] = f"median of {len(timed)} cold starts"
    notes["ops_per_tick"] = (f"{completed} ops over "
                             f"{sum(item['deliveries'] for item in logical)} "
                             f"deliveries of the first {len(logical)} rounds")
    return metrics, notes


def per_layer(pairs: List[Tuple[Dict[str, Any], Dict[str, Any]]]
              ) -> Dict[str, float]:
    """Per-layer metrics: the median over traced rounds of each round's
    figure (times are seconds per round of the workload's ``ops``)."""
    rows = [_layer_row(traced) for _plain, traced in pairs]
    metrics = {name: float(statistics.median(row[name] for row in rows))
               for name in rows[0]}
    metrics["trace.overhead_ratio"] = _ratio(
        sum(traced["window_s"] for _plain, traced in pairs),
        sum(plain["window_s"] for plain, _traced in pairs))
    return metrics


def _layer_row(traced: Dict[str, Any]) -> Dict[str, float]:
    layers = traced["layers"]
    times = layers["times"]
    counts = layers["counts"]
    self_by_layer = times["self_by_layer"]
    self_by_name = times["self_by_name"]
    inclusive = times["inclusive_by_name"]
    calls = times["calls_by_name"]
    logical = traced["logical"]
    completed = logical["completed"]
    repair = logical.get("repair", {})
    window = traced["window_s"]
    protocol_calls = sum(
        calls.get(f"{layer}.{kind}", 0)
        for layer in PROTOCOL_LAYERS for kind in ("handler", "thread"))
    return {
        "net.deliveries": logical["deliveries"],
        "net.step_self_s": self_by_name.get("net.step", 0.0),
        "net.self_s": self_by_layer.get("net", 0.0),
        "serialization.size_calls": times["size_calls"],
        "serialization.size_s": times["size_s"],
        "serialization.size_cache_hit_ratio": _ratio(
            times["wire_size_hits"], times["wire_size_calls"]),
        "kv.mux.self_s": self_by_layer.get("kv.mux", 0.0),
        "kv.envelopes_per_op": _ratio(logical["messages"], completed),
        "kv.inner_per_envelope": _ratio(
            counts.get("core.inner_messages", 0), logical["messages"]),
        "kv.session.pump_s": self_by_layer.get("kv.session", 0.0),
        "kv.backpressure_per_op": _ratio(logical["backpressure_hits"],
                                         logical["offered"]),
        "kv.retries": logical["retries"],
        "kv.coalesced": logical["coalesced"],
        "kv.cache.lease_hits": logical["cache_lease_hits"],
        "kv.cache.revalidations": logical["cache_revalidations"],
        "kv.cache.revalidate_hits": logical["cache_revalidate_hits"],
        "kv.cache.fallbacks": logical["cache_revalidate_fallbacks"],
        "kv.cache.shared_reads": logical["cache_shared_reads"],
        "kv.cache.served_share": _ratio(logical["cache_served"],
                                        logical["reads_done"]),
        "core.handler_s": self_by_layer.get("core", 0.0),
        "avid.handler_s": self_by_layer.get("avid", 0.0),
        "broadcast.handler_s": self_by_layer.get("broadcast", 0.0),
        "protocol.handler_calls": protocol_calls,
        "core.inner_messages_per_op": _ratio(
            counts.get("core.inner_messages", 0), completed),
        "core.block_fetches_per_read": _ratio(
            counts.get("core.block_fetches", 0),
            calls.get("core.invoke_read", 0)),
        "core.verify_failures": counts.get("core.verify_failures", 0),
        "erasure.encode_calls": calls.get("erasure.encode", 0),
        "erasure.encode_s": inclusive.get("erasure.encode", 0.0),
        "erasure.decode_calls": calls.get("erasure.decode", 0),
        "erasure.decode_s": inclusive.get("erasure.decode", 0.0),
        "crypto.commit_calls": calls.get("crypto.commit", 0),
        "crypto.commit_s": inclusive.get("crypto.commit", 0.0),
        "crypto.verify_calls": calls.get("crypto.verify", 0),
        "crypto.verify_s": inclusive.get("crypto.verify", 0.0),
        "kernels.window_share": _ratio(
            self_by_layer.get("erasure", 0.0)
            + self_by_layer.get("crypto", 0.0), window),
        "obs.record_s": self_by_name.get("obs.record", 0.0),
        "obs.records": layers["obs_records"],
        "obs.spans_s": inclusive.get("obs.spans", 0.0),
        "obs.planes_s": inclusive.get("obs.planes", 0.0),
        "check.s": traced["check_s"],
        "check.ops": traced["check_ops"],
        "repair.pump_s": self_by_layer.get("repair", 0.0),
        "repair.redispersals": repair.get("redispersals", 0),
        "repair.block_fetches": counts.get("repair.block_fetches", 0),
        "repair.replacements": repair.get("replacements", 0),
        "repair.failed": repair.get("failed", 0),
        "repair.lag_final": repair.get("lag_final", 0),
        "chaos.injector_s": self_by_layer.get("chaos", 0.0),
        "chaos.events": logical["chaos_events"] + logical["crashes"],
        "trace.unattributed_s": self_by_layer.get("unattributed", 0.0),
        "trace.window_s": window,
    }


# -- the run -----------------------------------------------------------------


def provenance(seed: int) -> Dict[str, Any]:
    """Where and on what the figures were taken."""
    describe = None
    if (ROOT / ".git").exists():
        try:
            probe = subprocess.run(
                ["git", "describe", "--always", "--dirty"], cwd=ROOT,
                capture_output=True, text=True, timeout=10, check=False)
            if probe.returncode == 0:
                describe = probe.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "seed": seed, "git_describe": describe}


def _logical_mismatch(first: Dict[str, Any], second: Dict[str, Any]
                      ) -> List[str]:
    return sorted(key for key in set(first) | set(second)
                  if first.get(key) != second.get(key))


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool) -> Optional[Dict[str, Any]]:
    """Run one workload, print its metrics, and return the result line
    (``None`` when no round completed)."""
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    problems: List[str] = []
    rounds: List[Dict[str, Any]] = []
    repeats: List[Dict[str, Any]] = []
    pairs: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []

    def more(done: int, minimum: int) -> bool:
        elapsed = time.monotonic() - started
        return done < minimum or (elapsed < seconds and elapsed < RUN_CAP_S)

    try:
        if not trace:
            while more(len(rounds), workload.min_rounds):
                round_at = round_seed(seed, len(rounds))
                rounds.append(run_round(workload, round_at, False, deadline))
                if len(rounds) == 1:
                    repeats.append(run_round(workload, round_at, False,
                                             deadline))
                    mismatch = _logical_mismatch(rounds[0]["logical"],
                                                 repeats[0]["logical"])
                    if mismatch:
                        problems.append(
                            f"logical metrics differ between two runs at "
                            f"seed {round_at}: {mismatch}")
        else:
            spans_path = str(OUT / f"spans-{workload.name}.jsonl")
            while more(len(pairs), 1):
                round_at = round_seed(seed, len(pairs))
                plain = run_round(workload, round_at, False, deadline)
                traced = run_round(workload, round_at, True, deadline,
                                   spans_path=spans_path)
                pairs.append((plain, traced))
                mismatch = _logical_mismatch(plain["logical"],
                                             traced["logical"])
                if mismatch:
                    problems.append(
                        f"logical metrics differ between the traced and "
                        f"the untraced run at seed {round_at}: {mismatch}")
            rounds = [run for pair in pairs for run in pair]
    except RoundFailed as exc:
        print(f"benchmark round failed: {exc}", file=sys.stderr)
        problems.append(str(exc))

    every = rounds + repeats
    attempted = sum(r["logical"]["offered"] for r in every)
    failed = sum(r["failed"] for r in every)
    for r in every:
        problems.extend(f"seed {r['seed']}: {p}" for p in r["problems"])
    info = provenance(seed)
    spec = _spec()
    why = {item["name"]: item["why"] for item in spec["workloads"]}
    print(f"# workload {workload.name}: {why[workload.name]}")
    print(f"# provenance {json.dumps(info, sort_keys=True)}")
    if not rounds or (trace and not pairs):
        print("no round completed", file=sys.stderr)
        return None

    units = {metric["name"]: metric["unit"]
             for group in ("end_to_end", "per_layer")
             for metric in spec[group]}
    if trace:
        metrics = per_layer(pairs)
        notes: Dict[str, str] = {}
    else:
        metrics, notes = end_to_end(rounds, repeats, workload)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:38s} {value:16.6f} {units[name]}{note}")
    print(f"# failed_op_share {_ratio(failed, attempted):.6f} "
          f"({failed} of {attempted} ops offered)")
    for problem in problems:
        print(f"CORRECTNESS: {problem}")
    with open(OUT / f"result-{workload.name}-trace{int(trace)}.json", "w",
              encoding="utf-8") as out:
        json.dump({"provenance": info, "metrics": metrics, "notes": notes,
                   "problems": problems, "rounds": every}, out)
    return {"correct": not problems and failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run benchmark workloads and print their metrics.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or 'all' for every workload "
                             "untraced and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload != "all":
        result = run_workload(WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace))
        if result is None:
            return 1
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    combined: Dict[str, Any] = {"correct": True, "attempted": 0,
                                "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  trace)
            if result is None:
                return 1
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}:{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def _spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the workloads' reasons and the metrics' units."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as spec:
        return json.load(spec)


if __name__ == "__main__":
    sys.exit(main())
