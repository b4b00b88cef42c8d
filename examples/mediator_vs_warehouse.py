#!/usr/bin/env python3
"""Query-driven mediation (Figure 1) vs. the Unifying Database (Figure 3).

The paper's architectural argument, run live: the same biological
question answered by (a) a mediator that extracts from every source at
query time and (b) the warehouse that integrated the sources up front.
The mediator is always fresh but pays per query; the warehouse answers
instantly (and reconciled) but lags until refreshed.  Between them
holds one law, asserted here for every accession: reconciling the
mediator's per-source records of an accession gives the warehouse's
row, except where a source changed since the last refresh.

Run:  python examples/mediator_vs_warehouse.py
"""

import time

from repro import Mediator, UnifyingDatabase
from repro.sim.sources import unreconciled
from repro.sources import (
    AceRepository,
    EmblRepository,
    GenBankRepository,
    Universe,
)

MOTIF = "ATGGC"


def timed(label, fn):
    start = time.perf_counter()
    result = fn()
    elapsed = (time.perf_counter() - start) * 1000
    print(f"  {label:<42} {elapsed:8.2f} ms")
    return result, elapsed


def main() -> None:
    universe = Universe(seed=77, size=150)
    sources = [
        GenBankRepository(universe),
        EmblRepository(universe),
        AceRepository(universe),
    ]

    print("Setting up both architectures over the same three sources...")
    mediator = Mediator(sources)
    warehouse = UnifyingDatabase(sources)
    warehouse.initial_load()
    sql = ("SELECT accession FROM public_genes "
           f"WHERE contains(sequence, '{MOTIF}')")

    print()
    print(f"Question: which genes contain the motif {MOTIF!r}?")
    print()
    print("one-off query:")
    mediated, t_mediator = timed(
        "mediator (extract+ship+filter per query)",
        lambda: mediator.find_genes(contains_motif=MOTIF),
    )
    integrated, t_warehouse = timed(
        "warehouse (pre-integrated, k-mer index)",
        lambda: warehouse.query(sql),
    )
    print(f"  mediator rows: {len(mediated)} (per-source views, "
          f"duplicates included)")
    print(f"  warehouse rows: {len(integrated)} (reconciled, one per gene)")
    print(f"  bytes shipped by the mediator: "
          f"{mediator.cost.bytes_shipped:,}")
    assert unreconciled(mediator, warehouse) == []
    print("  law: reconciling the mediator's records gives the warehouse "
          "row, for every accession")

    print()
    print("ten repeated queries (the workload a project database sees):")
    mediator.cost.reset()
    __, t_mediator10 = timed(
        "mediator x10",
        lambda: [mediator.find_genes(contains_motif=MOTIF)
                 for _ in range(10)],
    )
    __, t_warehouse10 = timed(
        "warehouse x10",
        lambda: [warehouse.query(sql) for _ in range(10)],
    )
    print(f"  mediator re-shipped {mediator.cost.bytes_shipped:,} bytes "
          f"for identical answers")
    if t_warehouse10 > 0:
        print(f"  warehouse speedup: ~{t_mediator10 / t_warehouse10:.0f}x")

    print()
    print("freshness — the mediator's one advantage:")
    changed = {entry.accession for source in sources
               for entry in source.advance(10)}
    fresh = mediator.find_genes(contains_motif=MOTIF)
    lagging = warehouse.query(sql)
    print(f"  after 30 source updates: mediator sees {len(fresh)} rows, "
          f"warehouse still {len(lagging)} (stale)")
    stale = {line.split(":")[0]
             for line in unreconciled(mediator, warehouse)}
    assert stale <= changed
    print(f"  law: {len(stale)} accessions differ, each one an update "
          f"touched")
    report = warehouse.refresh()
    refreshed = warehouse.query(sql)
    print(f"  one incremental refresh ({report.deltas_processed} deltas) "
          f"-> warehouse sees {len(refreshed)} rows")
    assert unreconciled(mediator, warehouse) == []
    print("  law: after the refresh it holds for every accession again")

    print()
    print("what only the warehouse can do:")
    accession = next(
        (row.accession for row in fresh), None
    )
    if accession is not None:
        disagreements = mediator.disagreements(accession)
        conflicts = warehouse.conflict_report(accession)
        print(f"  {accession}: mediator returns "
              f"{len(mediator.gene(accession))} conflicting views "
              f"({', '.join(disagreements) or 'no visible conflict'}) "
              f"and leaves the choice to you;")
        print(f"  the warehouse reconciled them and recorded "
              f"{len(conflicts)} conflict set(s) with confidences (C8/C9).")


if __name__ == "__main__":
    main()
