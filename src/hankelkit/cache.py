"""Persistent on-disk cache for reduced Groebner bases.

Entries live at ``<dir>/gb/<sha256>.txt`` in the canonical polynomial text
grammar; the key hashes the engine version, a digest of the engine sources
(``groebner.py`` and ``polyring.py``), field, order, variable count and the
canonical generator list, so any change to the inputs or the engine misses
cleanly.  Writes are atomic (temp file + rename).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from pathlib import Path

from .polyring import field_from_descriptor, order_from_descriptor, parse_polynomial

_FORMAT = "hankelkit-gb-1"
_ENGINE_SOURCES = ("groebner.py", "polyring.py")


@lru_cache(maxsize=None)
def engine_digest() -> str:
    """sha256 of the engine sources: a basis cached by another engine misses."""
    h = hashlib.sha256()
    for name in _ENGINE_SOURCES:
        h.update(Path(__file__).with_name(name).read_bytes())
    return h.hexdigest()


def cache_key(engine_version: str, ideal, order) -> str:
    h = hashlib.sha256()
    h.update(_FORMAT.encode())
    h.update(engine_version.encode())
    h.update(engine_digest().encode())
    h.update(ideal.field.descriptor().encode())
    h.update(str(ideal.nvars).encode())
    h.update(order.descriptor().encode())
    for g in ideal.generators:
        h.update(b"\n")
        h.update(g.to_string().encode())
    return h.hexdigest()


@dataclass
class GroebnerCache:
    directory: Path
    engine_version: str
    hits: int = 0
    misses: int = 0
    evictions: list = dc_field(default_factory=list)

    def __post_init__(self):
        self.directory = Path(self.directory)
        (self.directory / "gb").mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / "gb" / f"{key}.txt"

    def get(self, ideal, order):
        from .groebner import GroebnerBasis

        key = cache_key(self.engine_version, ideal, order)
        path = self._path(key)
        if not path.exists():
            self.misses += 1
            return None
        try:
            polys, meta = self._load(path, ideal.field)
        except Exception:
            self._evict(path, "unreadable entry")
            self.misses += 1
            return None
        if (meta["field"] != ideal.field.descriptor()
                or int(meta["nvars"]) != ideal.nvars
                or meta["order"] != order.descriptor()):
            self._evict(path, "metadata mismatch")
            self.misses += 1
            return None
        self.hits += 1
        return GroebnerBasis(ideal.field, ideal.nvars, order, tuple(polys),
                             {"from_cache": True})

    def put(self, ideal, order, gb) -> None:
        key = cache_key(self.engine_version, ideal, order)
        path = self._path(key)
        lines = [
            f"# format: {_FORMAT}",
            f"# engine: {self.engine_version}",
            f"# field: {ideal.field.descriptor()}",
            f"# nvars: {ideal.nvars}",
            f"# order: {order.descriptor()}",
        ]
        lines.extend(p.to_string() for p in gb.polys)
        data = "\n".join(lines) + "\n"
        fd, tmp = tempfile.mkstemp(dir=self.directory / "gb", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(data)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def _load(self, path: Path, fld):
        meta = {}
        polys = []
        nvars = None
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    k, _, v = line[1:].partition(":")
                    meta[k.strip()] = v.strip()
                    if k.strip() == "nvars":
                        nvars = int(v.strip())
                    continue
                if nvars is None:
                    raise ValueError("polynomial before nvars header")
                polys.append(parse_polynomial(line, fld, nvars))
        return polys, meta

    def _evict(self, path: Path, reason: str) -> None:
        self.evictions.append((path.name, reason))
        try:
            path.unlink()
        except FileNotFoundError:
            pass

    # -- admin ----------------------------------------------------------------

    def entries(self) -> list:
        return sorted((self.directory / "gb").glob("*.txt"))

    def stats(self) -> dict:
        files = self.entries()
        return {
            "directory": str(self.directory),
            "entries": len(files),
            "bytes": sum(f.stat().st_size for f in files),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": [list(e) for e in self.evictions],
        }

    def clear(self) -> int:
        files = self.entries()
        for f in files:
            f.unlink()
        return len(files)

    def verify(self, rng, samples: int = 3) -> dict:
        """Re-check S-polynomial reduction on a few cached bases before
        trusting the cache; corrupted entries are evicted with a warning."""
        from . import groebner
        from .groebner import GroebnerBasis

        files = self.entries()
        chosen = files if len(files) <= samples else rng.sample(files, samples)
        checked, evicted = [], []
        for path in chosen:
            try:
                meta_field = None
                with open(path) as fh:
                    for line in fh:
                        if line.startswith("# field:"):
                            meta_field = line.split(":", 1)[1].strip()
                            break
                fld = field_from_descriptor(meta_field)
                polys, meta = self._load(path, fld)
                order = order_from_descriptor(meta["order"])
                gb = GroebnerBasis(fld, int(meta["nvars"]), order, tuple(polys))
                if not groebner.verify_basis(gb):
                    raise ValueError("S-polynomial check failed")
                checked.append(path.name)
            except Exception as exc:
                self._evict(path, f"verify: {exc}")
                evicted.append(path.name)
        return {"checked": checked, "evicted": evicted}
