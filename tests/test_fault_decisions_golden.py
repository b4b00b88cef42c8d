"""Golden decision sequences: the fault injectors' exact RNG draw order.

Every virtual-clock number in the tree (chaos matrix, A8 / A11 / A12 /
A14 / A16, ``BENCH_macro.json``) is downstream of the order in which
``FaultyRepository`` and ``FaultyChannel`` consume their seeded
streams.  ``golden_fault_decisions.json`` holds, for fixed seeds, the
first few hundred outcomes of each injector — fail / latency /
slow-tail / corrupt-or-truncate position for the repository proxy;
drop, partition direction, duplicate index and shuffle order for the
channel — **recorded at the commit before both were rebuilt on one
``FaultSchedule``**.  The adapters must reproduce them exactly.

Regenerate (only when a change of draw order is intended and every
virtual-clock artefact is regenerated with it)::

    PYTHONPATH=src python tests/test_fault_decisions_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.errors import ChannelError, SourceError
from repro.federation import FaultyChannel
from repro.sources import FaultyRepository, VirtualClock

GOLDEN = Path(__file__).with_name("golden_fault_decisions.json")
SEEDS = (0, 7, 71)
CALLS = 300
PAYLOAD = "".join(f"LINE {index:03d} ACGTACGTAC\n" for index in range(12))


class _Archive:
    """The least a guarded proxy needs from the repository it wraps."""

    name = "Archive"

    def snapshot(self):
        return PAYLOAD

    def query(self, accession):
        return PAYLOAD[:40]

    def query_accessions(self):
        return ("A1", "A2")

    def read_log(self, since_sequence_number=0):
        return []


def _damage(text, original):
    """How *text* differs from *original*: where it was cut or garbled."""
    if text == original:
        return None
    if len(text) < len(original):
        return ["truncated", len(text)]
    changed = [index for index, (was, now) in enumerate(zip(original, text))
               if was != now]
    return ["garbled", changed[0], len(changed)]


def repository_decisions(seed):
    """Outcome of each of ``CALLS`` guarded calls: virtual latency
    charged, the failure reason (or none), and payload damage."""
    timeline = VirtualClock()
    proxy = FaultyRepository(_Archive(), timeline, seed=seed)
    proxy.fail_with_rate(0.2)
    proxy.add_latency(0.5, slow_rate=0.1, slow_factor=8.0)
    proxy.corrupt_with_rate(0.3)
    proxy.schedule_outage(40.0, 46.0)
    operations = ("snapshot", "query", "query_accessions", "read_log")
    decisions = []
    for call in range(CALLS):
        operation = operations[call % len(operations)]
        if call == 150:
            proxy.fail_next(2, "query")
        before = timeline.now()
        reason = damage = None
        try:
            answer = getattr(proxy, operation)(
                *(("A1",) if operation == "query" else ()))
        except SourceError as error:
            reason = str(error).split(": ", 1)[1]
        else:
            if operation == "snapshot":
                damage = _damage(answer, PAYLOAD)
            elif operation == "query":
                damage = _damage(answer, PAYLOAD[:40])
        decisions.append([round(timeline.now() - before, 9), reason, damage])
    return decisions


class _Primary:
    def ship(self, request=None):
        return [0, 1, 2, 3, 4]


def channel_decisions(seed):
    """Outcome of each of ``CALLS`` shipping rounds: the delivered
    order (duplicates and shuffles included) or the loss's kind and
    direction."""
    timeline = VirtualClock()
    channel = FaultyChannel(timeline, name="golden-net", seed=seed,
                            drop_rate=0.15, delay=0.05, dup_rate=0.3,
                            reorder_rate=0.3)
    channel.partition(3.0, 4.0, "request")
    channel.partition(7.0, 8.5, "response")
    channel.partition(12.0, 12.5)
    primary = _Primary()
    decisions = []
    for __ in range(CALLS):
        try:
            decisions.append(channel.ship(primary))
        except ChannelError as error:
            decisions.append([error.kind, error.direction])
    return decisions


def record():
    return {
        "repository": {str(seed): repository_decisions(seed)
                       for seed in SEEDS},
        "channel": {str(seed): channel_decisions(seed) for seed in SEEDS},
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_repository_proxy_replays_its_golden_decisions(seed):
    golden = json.loads(GOLDEN.read_text())["repository"][str(seed)]
    assert repository_decisions(seed) == golden


@pytest.mark.parametrize("seed", SEEDS)
def test_channel_replays_its_golden_decisions(seed):
    golden = json.loads(GOLDEN.read_text())["channel"][str(seed)]
    assert channel_decisions(seed) == golden


def test_the_golden_run_meets_every_kind_of_decision():
    """Guard against a vacuous pin: every branch is in the recording."""
    golden = json.loads(GOLDEN.read_text())
    reasons, damages, latencies = set(), set(), set()
    for decisions in golden["repository"].values():
        for latency, reason, damage in decisions:
            latencies.add(latency)
            reasons.add(reason)
            damages.add(damage[0] if damage else None)
    assert reasons == {None, "intermittent failure", "injected failure",
                       "source unavailable (outage window)"}
    assert damages == {None, "truncated", "garbled"}
    assert latencies == {0.5, 4.0}
    rounds = [tuple(entry) for decisions in golden["channel"].values()
              for entry in decisions]
    assert {("dropped", "request"), ("partitioned", "request"),
            ("partitioned", "response")} <= set(rounds)
    delivered = [entry for entry in rounds if isinstance(entry[0], int)]
    assert any(len(entry) == 6 for entry in delivered)            # duplicate
    assert any(list(entry) != sorted(entry) for entry in delivered)  # shuffle


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), separators=(",", ":")) + "\n")
    print(f"wrote {GOLDEN}")
