"""Storage substrate: simulated pages and buffer, plus index structures.

This package stands in for the EXODUS storage manager the paper's GOM
prototype was built on.  Objects, GMR rows and index nodes are placed on
simulated slotted pages; every access goes through an LRU buffer manager
that counts logical reads, hits and misses, so benchmarks can report
simulated I/O alongside wall-clock time.

Index structures implemented (Sec. 3.3 of the paper):

* :class:`~repro.storage.btree.BPlusTree` — conventional one-dimensional
  index with range scans (used per GMR column for higher arities),
* :class:`~repro.storage.hashindex.HashIndex` — exact-match index over
  argument combinations,
* :class:`~repro.storage.gridfile.GridFile` — the multi-dimensional
  storage structure (MDS) used when the GMR has few dimensions.
"""

from repro.storage.faultfs import (
    FaultInjectingFileSystem,
    FaultPlan,
    FaultyFile,
    FileSystem,
    InjectedIOError,
    REAL_FS,
    wal_file_factory,
)
from repro.storage.pages import BufferManager, CostModel, PageStore
from repro.storage.btree import BPlusTree
from repro.storage.hashindex import HashIndex
from repro.storage.gridfile import GridFile
from repro.storage.gmr_store import GMRStore

__all__ = [
    "BufferManager",
    "CostModel",
    "FaultInjectingFileSystem",
    "FaultPlan",
    "FaultyFile",
    "FileSystem",
    "InjectedIOError",
    "PageStore",
    "REAL_FS",
    "wal_file_factory",
    "BPlusTree",
    "HashIndex",
    "GridFile",
    "GMRStore",
]
