"""On-disk snapshot store (binary format + tiered residency).

The persistence layer of the reproduction: build a snapshot once
(``repro db build``), then open it in any number of processes without
re-parsing N-Triples text.  The file stores each label's sorted CSR
arrays; a label is adopted as zero-copy views on first touch (see
:mod:`repro.storage.tiered`).

Public surface:

* :func:`write_snapshot` / :class:`SnapshotWriter` — serialize a
  graph database;
* :class:`SnapshotReader` — mmap a snapshot, decode dictionaries and
  the array table, serve checked CSR views;
* :class:`TieredGraphView` — the solver-facing adjacency view with
  lazy label promotion and residency counters;
* :class:`SnapshotInfo` / :class:`WriteReport` /
  :class:`ResidencyReport` — reporting structures.
"""

from repro.storage.checksum import crc32c
from repro.storage.format import MAGIC, VERSION
from repro.storage.reader import (
    LabelBlockInfo,
    SectionCheck,
    SnapshotInfo,
    SnapshotReader,
    VerificationReport,
)
from repro.storage.tiered import (
    ResidencyReport,
    RetryPolicy,
    TieredGraphView,
    TieredMatrices,
)
from repro.storage.writer import (
    SnapshotWriter,
    WriteReport,
    write_snapshot,
)

__all__ = [
    "MAGIC",
    "VERSION",
    "crc32c",
    "SectionCheck",
    "VerificationReport",
    "SnapshotWriter",
    "SnapshotReader",
    "SnapshotInfo",
    "LabelBlockInfo",
    "WriteReport",
    "write_snapshot",
    "TieredGraphView",
    "TieredMatrices",
    "ResidencyReport",
    "RetryPolicy",
]
