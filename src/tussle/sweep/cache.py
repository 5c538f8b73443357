"""On-disk result cache: completed cells survive across sweep runs.

Cache key contract
------------------
A cell's cache entry is keyed by SHA-256 over exactly four components::

    (experiment_id, canonical params JSON, run seed, code fingerprint)

The first three are the cell's identity (see :mod:`tussle.sweep.cells`);
the fourth is a digest of every ``.py`` file in the installed ``tussle``
package, so *any* source change invalidates *every* cached cell.  That
is deliberately coarse: experiments reach deep into the simulation
stack, and a stale hit that silently survives a behaviour change would
be worse than recomputing the matrix.

Only successfully completed cells are stored — failures are always
retried on the next run.  The stored payload is the cell's deterministic
channel only (the result dict, never worker timings), so a merged sweep
built from cache hits is byte-identical to one computed fresh.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..errors import SweepError
from ..experiments.common import canonical_json
from .cells import Cell

__all__ = ["ResultCache", "code_fingerprint"]

#: Bumped when the cached payload layout changes incompatibly.
CACHE_SCHEMA = 1

_FINGERPRINT_CACHE: Dict[str, str] = {}


def code_fingerprint(package_dir: Optional[Union[str, Path]] = None) -> str:
    """SHA-256 digest of the package's source tree.

    Hashes every ``.py`` file under ``package_dir`` (default: the
    installed ``tussle`` package) in sorted relative-path order, so the
    digest is independent of filesystem enumeration order and identical
    across machines holding the same source.  Only the default
    (installed-package) digest is memoized — sources do not change under
    a running process — while explicit directories are re-hashed every
    call so tests can observe content changes.
    """
    memoize = package_dir is None
    if package_dir is None:
        import tussle

        package_dir = Path(tussle.__file__).parent
    package_dir = Path(package_dir)
    cache_key = str(package_dir)
    if memoize:
        cached = _FINGERPRINT_CACHE.get(cache_key)
        if cached is not None:
            return cached
    digest = hashlib.sha256()
    for path in sorted(package_dir.rglob("*.py")):
        digest.update(str(path.relative_to(package_dir)).replace("\\", "/")
                      .encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    fingerprint = digest.hexdigest()
    if memoize:
        _FINGERPRINT_CACHE[cache_key] = fingerprint
    return fingerprint


class ResultCache:
    """Completed-cell store under one root directory.

    Layout: ``<root>/<experiment_id>/<key>.json`` where ``key`` is the
    cell's cache key under the current code fingerprint.  Entries for
    stale fingerprints simply never match again.
    """

    def __init__(self, root: Union[str, Path],
                 fingerprint: Optional[str] = None):
        self.root = Path(root)
        self.fingerprint = fingerprint or code_fingerprint()
        self.hits = 0
        self.misses = 0

    def key(self, cell: Cell) -> str:
        digest = hashlib.sha256()
        for part in (cell.experiment_id, cell.params_json, str(cell.seed),
                     self.fingerprint):
            digest.update(part.encode("utf-8"))
            digest.update(b"\x1f")
        return digest.hexdigest()[:40]

    def path(self, cell: Cell) -> Path:
        return self.root / cell.experiment_id / f"{self.key(cell)}.json"

    def load(self, cell: Cell) -> Optional[Dict[str, Any]]:
        """The cached deterministic payload, or None on miss/corruption."""
        path = self.path(cell)
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.misses += 1
            return None
        payload = entry.get("payload")
        if entry.get("schema") != CACHE_SCHEMA or payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def store(self, cell: Cell, payload: Dict[str, Any]) -> Path:
        """Persist one completed cell's deterministic payload."""
        if payload.get("status") != "ok":
            raise SweepError("only successfully completed cells are cached")
        path = self.path(cell)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": CACHE_SCHEMA,
            "fingerprint": self.fingerprint,
            "payload": payload,
        }
        path.write_text(canonical_json(entry) + "\n", encoding="utf-8")
        return path
