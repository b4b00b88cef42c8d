"""Page cache: the one reader of ``memory_budget``, with disk spill.

Every sealed page is admitted here, a kernel's *cell page*
(``ColumnStore.cells``) like a column's.  The budget bounds resident
pages plus what the streaming operators hold, which they
:meth:`~PageCache.charge` (refused if it leaves no room for the largest
page: the two stay within the budget unless one page alone exceeds it)
and :meth:`~PageCache.release`.  Room is made at the cold end: a page
is written to a spill file and dropped until an access faults it back
in — cold for a scan, so a table larger than the budget cannot flush
the rest; hot otherwise (LRU).  With ``budget_bytes=None`` nothing ever
spills — the cache is a plain dict, the row-layout-compatible default —
and it keeps a resident page's decoded **forms** beside its bytes
(:meth:`PageCache.get`); under a budget it holds pages, nothing else.

Pages spill into one anonymous file, each written once (``os.pwrite``)
and faulted with one ``os.pread``: re-evicting it is free (page updates
allocate a fresh page id), and a dropped page's extent is reused by a
later page that fits.  Observable via the metrics registry:

- ``columnar_pages_evicted`` / ``columnar_page_faults`` /
  ``columnar_spill_bytes`` counters,
- ``columnar_resident_bytes`` / ``columnar_resident_peak`` gauges.
"""

from __future__ import annotations

import math
import os
import tempfile
import threading
from collections import OrderedDict
from operator import itemgetter

from repro.errors import StorageError
from repro.obs.metrics import count, gauge


class PageCache:
    """Byte-budgeted, scan-resistant LRU over encoded column pages."""

    def __init__(self, budget_bytes: "int | None" = None) -> None:
        self.budget_bytes = budget_bytes
        self._resident: "OrderedDict[int, bytes]" = OrderedDict()
        self._spilled: dict[int, tuple[int, int]] = {}  # (offset, length)
        self._free: list = [(0, math.inf)]  # dropped extents; the end
        self._forms: dict[int, dict] = {}  # unbudgeted: page id -> forms
        self.resident_bytes = self.peak_resident_bytes = 0  # with charges
        self._charged = self._largest = 0  # operators' bytes; largest page
        self._spill_file = None  # opened at the first eviction
        self._next_id = 0
        self.lock = threading.RLock()
        # lifetime totals, mirrored into the metrics registry
        self.pages_evicted = 0
        self.page_faults = 0

    # -- bookkeeping --------------------------------------------------------

    def _publish(self) -> None:
        self.peak_resident_bytes = max(self.peak_resident_bytes,
                                       self.resident_bytes)
        gauge("columnar", "resident_bytes", self.resident_bytes)
        gauge("columnar", "resident_peak", self.peak_resident_bytes)

    def _make_room(self, size: int) -> None:
        while (self.budget_bytes is not None and self._resident
               and self.resident_bytes + size > self.budget_bytes):
            page_id, data = self._resident.popitem(last=False)
            self.resident_bytes -= len(data)
            if page_id not in self._spilled:
                self._spilled[page_id] = self._write(data)
                count("columnar", "spill_bytes", len(data))
            self.pages_evicted += 1
            count("columnar", "pages_evicted")

    def _write(self, data: bytes) -> tuple[int, int]:
        """Write *data* into the smallest free extent it fits, the rest of
        which stays free (the last extent is the file's unbounded end)."""
        if self._spill_file is None:
            self._spill_file = tempfile.TemporaryFile(prefix="repro-pages-")
        size = len(data)
        offset, length = min((extent for extent in self._free
                              if extent[1] >= size), key=itemgetter(1))
        self._free.remove((offset, length))
        if length > size:
            self._free.append((offset + size, length - size))
        os.pwrite(self._spill_file.fileno(), data, offset)
        return offset, size

    def _admit(self, page_id: int, data: bytes, cold: bool = False) -> None:
        self._make_room(len(data))
        self._resident[page_id] = data
        self._resident.move_to_end(page_id, last=not cold)
        self.resident_bytes += len(data)
        self._publish()

    # -- public API ---------------------------------------------------------

    def put(self, data: bytes) -> int:
        """Admit a freshly sealed page; returns its page id."""
        with self.lock:
            page_id = self._next_id
            self._next_id += 1
            self._largest = max(self._largest, len(data))
            self._admit(page_id, data)
            return page_id

    def get(self, page_id: int, scan=False) -> "tuple[bytes, dict]":
        """The encoded bytes of *page_id*, faulting from disk if cold (cold
        for a *scan*), and its forms, for the caller to read and fill."""
        with self.lock:
            data = self._resident.get(page_id)
            if data is not None:
                self._resident.move_to_end(page_id)
            elif page_id in self._spilled:
                offset, length = self._spilled[page_id]
                data = os.pread(self._spill_file.fileno(), length, offset)
                self.page_faults += 1
                count("columnar", "page_faults")
                self._admit(page_id, data, cold=scan)
            else:
                raise StorageError(f"column page {page_id} is unknown to "
                                   f"the cache", kind="malformed")
            return data, (self._forms.setdefault(page_id, {})
                          if self.budget_bytes is None else {})

    def charge(self, size: int) -> bool:
        """Count *size* bytes an operator holds, evicting pages for them,
        unless that would leave no room for the largest page."""
        with self.lock:
            if self._charged + size + self._largest > self.budget_bytes:
                return False
            self._make_room(size)
            self.release(-size)
            return True

    def release(self, size: int) -> None:
        with self.lock:
            self._charged -= size
            self.resident_bytes -= size
            self._publish()

    def drop(self, *page_ids: int) -> None:
        """Forget pages: a slot rewritten under a new id, its cell pages."""
        with self.lock:
            for page_id in page_ids:
                self._forms.pop(page_id, None)
                data = self._resident.pop(page_id, None)
                if data is not None:
                    self.resident_bytes -= len(data)
                if page_id in self._spilled:
                    self._free.append(self._spilled.pop(page_id))
            self._publish()

    def close(self) -> None:
        with self.lock:
            self._resident.clear()
            self._forms.clear()
            self._spilled.clear()
            self._free = [(0, math.inf)]
            self.resident_bytes = self._charged = 0
            if self._spill_file is not None:
                self._spill_file.close()
                self._spill_file = None
