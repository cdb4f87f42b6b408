"""The benchmark's workloads: one kv deployment and one offered load each.

A workload is run as a sequence of *rounds*.  Each round is one fresh
interpreter, started cold with no warm-up, that builds the deployment,
generates ``ops`` operations from the round's seed, drives them through
:func:`repro.kv.cluster.drive` and checks the outcome.  ``min_rounds``
rounds always run, so every logical metric (ticks, bytes, storage) is a
fixed function of the seed; more rounds run while the run's time budget
lasts and feed only the wall-clock metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (deployment, operation mix and load).

    Why each workload exists is its ``why`` in ``BENCHMARK.json``.
    """

    name: str
    protocol: str
    n: int
    t: int
    shards: int
    sessions: int
    keys: int
    write_ratio: float
    distribution: str
    zipf_exponent: float
    value_size: int
    #: drive-loop offer probability per delivery (open loop, logical time)
    invoke_probability: float
    #: operations offered per round
    ops: int
    #: rounds whose results define the logical metrics
    min_rounds: int
    cache_size: int = 0
    lease_ticks: int = 0
    #: attach ``repro.obs.TraceRecorder`` and build its report in the window
    observed: bool = False
    #: run a ``churn_storm_plan`` with ``attach_repair`` behind a FaultInjector
    churn: bool = False
    max_attempts: int = 4

    @property
    def shard_k(self) -> Optional[int]:
        """``k = t + 1`` for ``atomic_md`` (it needs ``k <= n - 2t``);
        the protocol default otherwise."""
        return self.t + 1 if self.protocol == "atomic_md" else None


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="mixed-atomic",
        protocol="atomic", n=4, t=1, shards=4, sessions=4, keys=16,
        write_ratio=0.5, distribution="zipf", zipf_exponent=1.1,
        value_size=4096, invoke_probability=0.25, ops=384, min_rounds=6),
    Workload(
        name="readheavy-cached",
        protocol="atomic_md", n=4, t=1, shards=4, sessions=4, keys=8,
        write_ratio=0.1, distribution="zipf", zipf_exponent=1.5,
        value_size=64, invoke_probability=1.0, ops=4096, min_rounds=4,
        cache_size=32, lease_ticks=128),
    Workload(
        name="observed-md7",
        protocol="atomic_md", n=7, t=2, shards=4, sessions=4, keys=32,
        write_ratio=0.1, distribution="zipf-shift", zipf_exponent=1.1,
        value_size=64, invoke_probability=0.25, ops=128, min_rounds=12,
        observed=True),
    Workload(
        name="churn-repair",
        protocol="atomic_md", n=7, t=2, shards=2, sessions=4, keys=8,
        write_ratio=0.5, distribution="zipf", zipf_exponent=1.1,
        value_size=64, invoke_probability=0.25, ops=256, min_rounds=12,
        churn=True, max_attempts=6),
)}

#: Injector decisions per offered op that ``churn-repair`` is sure to
#: pass before its last op is offered.  Over 240 rounds with this
#: schedule (the first 12 rounds of runs at seeds 101-110 and the first
#: 5 of runs at seeds 0-20, 42, 1000 and 12345) the last op was offered
#: after 13.5-40.2 decisions per op (median 19.8), and the round ended
#: after 40-51.  The crash schedule is sized from this figure: the last
#: replacement point falls at about 10.2 decisions per op, so every
#: crash and replacement lands while ops are still being offered.
#: ``round.py`` checks that it did.
CHURN_DECISIONS_PER_OP = 12


def round_seed(seed: int, index: int) -> int:
    """The seed of round ``index`` of a run started with ``seed``.

    Every round of a run gets its own seed, so rounds are independent
    samples of the workload and the same ``seed`` always yields the
    same rounds.
    """
    return (seed * 1_000_003 + index * 7_919) % (2 ** 31)
