"""Bitemporal auditing: rollback vs. reality on the accounting ledger.

The strongly bounded ledger of Section 3.1 ("the current month's
transactions ... corrections ... as compensating transactions") is the
classic audit scenario: *what did the books say on date X about date
Y?* vs *what do we now believe was true on date Y?*.  This example
exercises bitemporal slices, the backlog/operation-log view, and
snapshot-cached rollback on a relation with live corrections.

Run:  python examples/bitemporal_audit.py
"""

from repro import Planner, Scan, Timestamp
from repro.query import BitemporalSlice, Rollback, ValidTimeslice
from repro.storage.snapshot import SnapshotCache
from repro.workloads import generate_ledger

DAY = 86_400


def main() -> None:
    workload = generate_ledger(entries=400, correction_rate=0.25, seed=7)
    relation = workload.relation
    print(f"ledger: {workload.description}; {len(relation)} entries\n")

    elements = relation.all_elements()
    probe = elements[len(elements) // 2]
    vt, tt = probe.vt, probe.tt_start
    planner = Planner(relation)

    # What do we NOW believe was effective on that date?
    now_view = planner.plan(ValidTimeslice(Scan(relation), vt)).execute()
    # What did the books say AT THE TIME about that date?
    then_view = planner.plan(BitemporalSlice(Scan(relation), vt=vt, tt=tt)).execute()
    print(f"effective date vt={vt.ticks}s:")
    print(f"  believed now:              {len(now_view)} entry/ies")
    print(f"  believed at tt={tt.ticks}s: {len(then_view)} entry/ies")

    # The full historical state at closing time of an early "day".
    closing = Timestamp(5 * DAY)
    state = planner.plan(Rollback(Scan(relation), closing)).execute()
    total = sum(e.attributes["amount"] for e in state)
    print(f"\nrollback to tt={closing.ticks}s: {len(state)} entries, balance {total}")

    # The backlog is the audit log, derived from the stored history;
    # snapshots accelerate replay.
    backlog = relation.backlog()
    cache = SnapshotCache(backlog, interval=64)
    cache.refresh()
    replayed = backlog.state_at(closing)
    cached = cache.state_at(closing)
    assert replayed == cached
    print(
        f"backlog: {len(backlog)} operations, {cache.snapshot_count} cached "
        f"snapshots; replay and snapshot rollback agree on {len(cached)} entries"
    )

    compensating = [
        e for e in relation.current() if e.attributes["kind"] == "compensating"
    ]
    print(f"\ncompensating corrections recorded: {len(compensating)}")


if __name__ == "__main__":
    main()
