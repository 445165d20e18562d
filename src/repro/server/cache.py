"""Persistent content-addressed cache store for conversion artifacts.

The in-memory caches this repo already leans on — the structure-keyed
Karnaugh cube cache (PR 4: 832 chunks → 19 minimisations *per process*)
and whole-conversion results — die with the process.  At service scale
repeat and similar traffic is the common case, so :class:`CacheStore`
gives those caches a disk tier that survives restarts:

* **content-addressed** — an entry's path is the SHA-256 of its
  canonical key encoding (plus a namespace), so equal keys collide on
  the same file from any process and the layout needs no index;
* **atomic** — entries are written to a unique temp file in the target
  directory and published with ``os.replace``, so concurrent writers
  (many server workers warming the same shape) race benignly: readers
  only ever observe a complete entry, last writer wins;
* **versioned** — every entry embeds :data:`CACHE_VERSION` and its own
  key; a version bump, a key-hash collision, a truncated write or any
  other corruption degrades to a *miss*, never a crash or a wrong hit.

The store holds no open handles and no in-memory state beyond a
temp-file name counter, so one instance is safe to share across forks
(each process re-opens entry files on demand).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from typing import Any, Optional

#: Bump when the entry layout or any cached value's semantics change:
#: old entries then read back as misses and are rewritten.
CACHE_VERSION = 2


def content_key(obj: Any) -> str:
    """SHA-256 hex digest of a canonical encoding of ``obj``.

    Keys are built from ints, strings, bytes and (nested) tuples of
    those — for which ``repr`` is deterministic across processes and
    Python builds (no dict ordering, no object identity).
    """
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()


class CacheStore:
    """A directory of versioned, content-addressed pickle entries.

    ``root`` is created lazily on first write; a missing or unreadable
    root simply yields misses, so a read-only deployment degrades to the
    in-memory caches instead of failing.
    """

    def __init__(self, root: str):
        self.root = os.fspath(root)
        self._seq = 0

    # -- paths ---------------------------------------------------------------

    def _entry_path(self, namespace: str, digest: str) -> str:
        # Two-level fan-out keeps directories small at production entry
        # counts.
        return os.path.join(self.root, namespace, digest[:2], digest + ".entry")

    # -- API -----------------------------------------------------------------

    def get(self, namespace: str, key: Any) -> Optional[Any]:
        """The stored value for ``key``, or ``None`` on any kind of miss.

        Misses include: no entry, an entry written by a different
        :data:`CACHE_VERSION`, a key-hash collision (the embedded key
        disagrees), and a truncated/corrupt entry.  None of them raise.
        """
        path = self._entry_path(namespace, content_key(key))
        try:
            with open(path, "rb") as f:
                entry = pickle.load(f)
        except Exception:
            # Unpickling hostile bytes can raise nearly anything
            # (UnpicklingError, EOFError, ValueError, struct.error,
            # AttributeError, ...) — every shape of corruption is the
            # same miss.
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("version") != CACHE_VERSION
            or entry.get("key") != key
            or "value" not in entry
        ):
            return None
        return entry["value"]

    def put(self, namespace: str, key: Any, value: Any) -> bool:
        """Publish ``value`` under ``key``; False if the write failed.

        The temp-file + ``os.replace`` dance makes publication atomic on
        POSIX: a concurrent reader sees either the old entry or the new
        one, never a partial write.  Write failures (disk full,
        permissions) are swallowed — the cache is an accelerator, not a
        dependency.
        """
        digest = content_key(key)
        path = self._entry_path(namespace, digest)
        payload = pickle.dumps(
            {"version": CACHE_VERSION, "key": key, "value": value},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._seq += 1
        tmp = "{}.tmp.{}.{}.{}".format(
            path, os.getpid(), threading.get_ident(), self._seq
        )
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "wb") as f:
                f.write(payload)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        return True
