"""Content-addressed on-disk artifact store.

Objects are opaque byte payloads filed under their dependency key (a
hex digest from :mod:`repro.build.fingerprint`), laid out git-style as
``objects/<first two chars>/<key>`` to keep directories small.  Writes
go to a temporary sibling and ``os.replace`` into place, so concurrent
batch workers sharing one cache directory can never observe a torn
object — the worst race is two workers writing the same key, and since
keys name content, both writes carry identical bytes.

Reads touch the object's mtime, which makes :meth:`ArtifactStore.gc`
an LRU sweep: evict oldest-read objects until the store fits the byte
budget.  Every hit, miss, put and eviction is counted in
:class:`StoreStats` so batch runs can report cache effectiveness.
"""

from __future__ import annotations

import os
import pathlib
import re
import tempfile
from dataclasses import dataclass

_KEY_RE = re.compile(r"^[0-9a-f]{8,64}$")


class StoreError(Exception):
    """Bad key or unusable store directory."""


@dataclass
class StoreStats:
    """Counters of one store's lifetime (or one job's slice of it)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "StoreStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.puts += other.puts
        self.evictions += other.evictions

    def delta(self, since: "StoreStats") -> "StoreStats":
        return StoreStats(
            hits=self.hits - since.hits,
            misses=self.misses - since.misses,
            puts=self.puts - since.puts,
            evictions=self.evictions - since.evictions,
        )

    def snapshot(self) -> "StoreStats":
        return StoreStats(self.hits, self.misses, self.puts, self.evictions)


class ArtifactStore:
    """A directory of content-addressed objects with LRU eviction."""

    def __init__(self, root, max_bytes: int | None = None):
        self.root = pathlib.Path(root)
        self.max_bytes = max_bytes
        self.stats = StoreStats()
        self._objects = self.root / "objects"
        try:
            self._objects.mkdir(parents=True, exist_ok=True)
        except (OSError, NotADirectoryError) as exc:
            raise StoreError(
                f"cache directory {self.root} is not usable: {exc}"
            ) from exc

    # -- addressing ----------------------------------------------------------

    def _path(self, key: str) -> pathlib.Path:
        if not _KEY_RE.match(key):
            raise StoreError(f"malformed object key {key!r}")
        return self._objects / key[:2] / key

    def contains(self, key: str) -> bool:
        """Presence probe that does not move stats or the LRU clock."""
        return self._path(key).exists()

    # -- object access -------------------------------------------------------

    def get(self, key: str, decode=bytes):
        """``decode(payload)`` of the object under *key* (by default the
        bytes as stored), or None; hits refresh LRU recency.

        An object *decode* rejects (a torn or garbled file: bad UTF-8,
        bad JSON, a failed unpickle) is deleted and the lookup counts as
        a miss, so the caller rebuilds it and its :meth:`put` writes the
        object afresh instead of keeping the bad one.
        """
        path = self._path(key)
        try:
            payload = path.read_bytes()
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        try:
            value = decode(payload)
        except Exception:   # pickle.loads may raise almost any type
            try:
                path.unlink()
            except FileNotFoundError:
                pass  # a concurrent worker got there first
            self.stats.misses += 1
            return None
        try:
            os.utime(path)
        except OSError:
            pass  # recency is advisory; the object itself was read fine
        self.stats.hits += 1
        return value

    def put(self, key: str, payload: bytes) -> None:
        """File *payload* under *key* atomically (idempotent per key)."""
        path = self._path(key)
        if path.exists():
            return  # content-addressed: same key, same bytes
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".obj.")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.puts += 1
        if self.max_bytes is not None:
            self.gc(self.max_bytes)

    def put_text(self, key: str, text: str) -> None:
        self.put(key, text.encode("utf-8"))

    # -- housekeeping --------------------------------------------------------

    def _entries(self) -> list[tuple[float, int, pathlib.Path]]:
        entries = []
        for path in self._objects.glob("*/*"):
            if path.name.startswith("."):
                continue  # an in-flight temporary
            try:
                stat = path.stat()
            except FileNotFoundError:
                continue  # evicted by a concurrent worker
            entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def gc(self, max_bytes: int | None = None) -> int:
        """Evict least-recently-used objects until under *max_bytes*.

        Returns the number of objects evicted.  With no budget given
        (and none configured) this is a no-op.
        """
        budget = self.max_bytes if max_bytes is None else max_bytes
        if budget is None:
            return 0
        entries = sorted(self._entries())
        total = sum(size for _, size, _ in entries)
        evicted = 0
        for _, size, path in entries:
            if total <= budget:
                break
            try:
                path.unlink()
            except FileNotFoundError:
                pass  # a concurrent worker got there first
            total -= size
            evicted += 1
        self.stats.evictions += evicted
        return evicted

    def clear(self) -> int:
        """Drop every object (counted as evictions)."""
        return self.gc(0)
