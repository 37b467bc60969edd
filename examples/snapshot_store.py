"""Build once, query many: snapshot-backed `Database` sessions.

The seed workflow re-generated (or re-parsed) the dataset and rebuilt
every in-memory structure in each process.  A snapshot-backed session
splits that into a one-time build and arbitrarily many cheap opens:

1. ``Database.from_workload("lubm", cache_dir=...)`` generates the
   LUBM workload and serializes it — *once per configuration*;
2. every later call memory-maps the snapshot: every label stays on
   disk until a query touches it, and then its CSR arrays are adopted
   as zero-copy views into the mapping;
3. queries promote exactly the labels they need, and
   ``Database.stats().residency`` shows how much of the database ever
   became resident — the paper's Sect. 3.3 memory argument,
   observable.

Run: ``PYTHONPATH=src python examples/snapshot_store.py``
"""

import tempfile
import time

from repro import Database
from repro.workloads import LUBM_QUERIES

CONFIG = dict(scale=1, seed=7, spiral_length=8)


def main():
    with tempfile.TemporaryDirectory() as cache_dir:
        # -- build once ---------------------------------------------------
        start = time.perf_counter()
        db = Database.from_workload("lubm", cache_dir=cache_dir, **CONFIG)
        t_build = time.perf_counter() - start
        path = db.stats().path
        print(f"built {path.name}: {path.stat().st_size} bytes "
              f"in {t_build:.3f}s")
        db.close()

        # -- open many ----------------------------------------------------
        for attempt in (1, 2, 3):
            start = time.perf_counter()
            db = Database.from_workload(
                "lubm", cache_dir=cache_dir, **CONFIG
            )
            t_open = time.perf_counter() - start
            print(f"open #{attempt}: {t_open * 1000:.1f} ms "
                  "(no regeneration, no N-Triples parsing)")
            db.close()

        # -- query: labels promote on first touch -------------------------
        db = Database.from_workload("lubm", cache_dir=cache_dir, **CONFIG)
        before = db.stats().residency
        print(f"\nafter open: {before.cold_labels} cold labels, "
              f"{before.resident_bytes} B resident")

        # simulate() runs the solver side only: it promotes exactly
        # the labels L0 mentions and never builds the join indexes.
        for branch in db.simulate(LUBM_QUERIES["L0"]).branches:
            print(f"L0 fixpoint: {branch.report.rounds} rounds, "
                  f"{branch.report.elapsed:.4f}s")

        after = db.stats().residency
        print(f"after L0:   {after.promotions} labels promoted "
              f"({', '.join(after.promoted_labels)}), "
              f"{after.resident_bytes} B resident "
              f"vs {after.on_disk_bytes} B on disk")
        print(f"{after.cold_labels} labels never left the disk — "
              "attribute predicates the query did not mention cost "
              "no memory.")
        db.close()


if __name__ == "__main__":
    main()
