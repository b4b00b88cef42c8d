"""LRU page cache with an explicit memory budget and disk spill.

The cache is the single arbiter of "what is resident": every sealed
column page is admitted here, and once the configured ``memory_budget``
(bytes of encoded page payloads) is exceeded, the least-recently-used
pages are written to a spill file on disk and dropped from memory.  A
later access faults the page back in (re-admitting it may evict other
pages in turn).  With ``budget_bytes=None`` nothing ever spills — the
cache degrades to a plain dict, which is the row-layout-compatible
default.

Spill files are plain per-page temporary files that outlive eviction:
once a page has been written, re-evicting it after a fault is free
(the bytes on disk are immutable — page updates allocate a fresh page
id).  Beside a resident page's bytes the cache keeps its decoded
**forms** (:meth:`PageCache.get`), which die with its residency; the
budget counts encoded bytes only.  Observable via the metrics registry:

- ``columnar_pages_evicted`` / ``columnar_page_faults`` /
  ``columnar_spill_bytes`` counters,
- ``columnar_resident_bytes`` / ``columnar_resident_peak`` gauges.
"""

from __future__ import annotations

import os
import tempfile
import threading
from collections import OrderedDict

from repro.errors import StorageError
from repro.obs.metrics import count, gauge


class PageCache:
    """Byte-budgeted LRU over encoded column pages."""

    def __init__(self, budget_bytes: "int | None" = None) -> None:
        self.budget_bytes = budget_bytes
        self._resident: "OrderedDict[int, bytes]" = OrderedDict()
        self._spilled: dict[int, str] = {}
        self._forms: dict[int, dict] = {}  # resident page id -> its forms
        self._resident_bytes = 0
        self._peak_bytes = 0
        self._spill_dir: "tempfile.TemporaryDirectory | None" = None
        self._next_id = 0
        self._lock = threading.RLock()
        # lifetime totals, mirrored into the metrics registry
        self.pages_evicted = 0
        self.page_faults = 0
        self.spilled_bytes = 0

    # -- bookkeeping --------------------------------------------------------

    def _publish(self) -> None:
        if self._resident_bytes > self._peak_bytes:
            self._peak_bytes = self._resident_bytes
        gauge("columnar", "resident_bytes", self._resident_bytes)
        gauge("columnar", "resident_peak", self._peak_bytes)

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    @property
    def peak_resident_bytes(self) -> int:
        return self._peak_bytes

    def _spill_path(self, page_id: int) -> str:
        if self._spill_dir is None:
            self._spill_dir = tempfile.TemporaryDirectory(
                prefix="repro-pages-")
        return os.path.join(self._spill_dir.name, f"{page_id}.page")

    def _evict_to_budget(self) -> None:
        if self.budget_bytes is None:
            return
        while (self._resident_bytes > self.budget_bytes
               and len(self._resident) > 1):
            page_id, data = self._resident.popitem(last=False)
            self._resident_bytes -= len(data)
            self._forms.pop(page_id, None)
            if page_id not in self._spilled:
                path = self._spill_path(page_id)
                with open(path, "wb") as handle:
                    handle.write(data)
                self._spilled[page_id] = path
                self.spilled_bytes += len(data)
                count("columnar", "spill_bytes", len(data))
            self.pages_evicted += 1
            count("columnar", "pages_evicted")

    # -- public API ---------------------------------------------------------

    def put(self, data: bytes) -> int:
        """Admit a freshly sealed page; returns its page id."""
        with self._lock:
            page_id = self._next_id
            self._next_id += 1
            self._resident[page_id] = data
            self._resident_bytes += len(data)
            self._evict_to_budget()
            self._publish()
            return page_id

    def get(self, page_id: int) -> "tuple[bytes, dict]":
        """The encoded bytes of *page_id*, faulting from disk if cold, and
        the forms kept beside them, for the caller to read and fill."""
        with self._lock:
            data = self._resident.get(page_id)
            if data is not None:
                self._resident.move_to_end(page_id)
                return data, self._forms.setdefault(page_id, {})
            path = self._spilled.get(page_id)
            if path is None:
                raise StorageError(
                    f"column page {page_id} is unknown to the cache",
                    kind="malformed",
                )
            with open(path, "rb") as handle:
                data = handle.read()
            self.page_faults += 1
            count("columnar", "page_faults")
            self._resident[page_id] = data
            self._resident_bytes += len(data)
            self._evict_to_budget()  # never the page just faulted in
            self._publish()
            return data, self._forms.setdefault(page_id, {})

    def drop(self, page_id: int) -> None:
        """Forget a page (its slot was rewritten under a new id)."""
        with self._lock:
            self._forms.pop(page_id, None)
            data = self._resident.pop(page_id, None)
            if data is not None:
                self._resident_bytes -= len(data)
            path = self._spilled.pop(page_id, None)
            if path is not None:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            self._publish()

    def close(self) -> None:
        with self._lock:
            self._resident.clear()
            self._forms.clear()
            self._spilled.clear()
            self._resident_bytes = 0
            if self._spill_dir is not None:
                self._spill_dir.cleanup()
                self._spill_dir = None
