"""The ``.rsx`` single-file binary index format (header + mmap sections).

File layout::

    offset 0   fixed 64-byte header
               0:4    magic  b"RSX\\x01"
               4      format version (u8)
               5      index-family tag (u8; see FAMILY_TAGS)
               6:8    flags (u16, reserved, 0)
               8:16   payload length (u64) — everything after the header
               16:24  meta offset (u64) — always 64
               24:32  meta length (u64)
               32:64  SHA-256 of the payload
    offset 64  meta: canonical JSON (sorted keys) — family, params,
               source digest/mtime, and the section directory
    then       zero padding to the next 64-byte boundary
    then       sections: contiguous little-endian arrays, each aligned
               to 64 bytes; the meta directory maps section name →
               {offset (relative to the data area), dtype, shape}

Everything a search needs — the float64 point rows and the fixed-width
node tables — is a section, so :class:`Store` maps the file once and
hands out zero-copy numpy views; deserialization cost is parsing one
JSON directory.

Validation is split in two:

* ``Store(path)`` performs the *structural* checks (header present,
  magic/version/length sane, meta parseable, sections in bounds) —
  cheap enough for every worker open.
* :meth:`Store.verify` additionally hashes the payload against the
  header digest, and optionally checks *staleness* against the source
  dataset (digest + mtime recorded at write time).

Any failure raises :class:`StoreCorrupt` (or :class:`StoreStale`) with
the same machine-checkable reason-tag vocabulary as
:class:`repro.resilience.snapshot.SnapshotCorrupt` — ``no-header``,
``bad-magic``, ``bad-version``, ``bad-length``, ``bad-digest``,
``bad-header-json``, ``bad-payload`` — plus the staleness tags
``stale-digest`` and ``stale-mtime``.  A torn or bit-flipped or
out-of-date store can never be searched silently.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
from pathlib import Path
from typing import Optional, Union

import numpy as np

STORE_MAGIC = b"RSX\x01"
STORE_VERSION = 4

#: Index-family tag byte in the header (and ``family`` string in meta).
FAMILY_TAGS = {"linear": 1, "vpt": 2, "mvpt": 3, "gmvpt": 4, "laesa": 5, "gnat": 6}
TAG_FAMILIES = {tag: name for name, tag in FAMILY_TAGS.items()}

#: magic, version, family tag, flags, payload_len, meta_off, meta_len.
_HEADER = struct.Struct("<4sBBHQQQ")
_DIGEST_BYTES = 32
HEADER_BYTES = _HEADER.size + _DIGEST_BYTES  # 64
_ALIGN = 64


class StoreCorrupt(RuntimeError):
    """A ``.rsx`` file failed validation and must not be searched.

    ``reason`` is a short machine-checkable tag (``no-header``,
    ``bad-magic``, ``bad-version``, ``bad-length``, ``bad-digest``,
    ``bad-header-json``, ``bad-payload``) — the same vocabulary as
    :class:`repro.resilience.snapshot.SnapshotCorrupt`; the message
    carries the details.
    """

    def __init__(self, reason: str, detail: str):
        super().__init__(f"store corrupt ({reason}): {detail}")
        self.reason = reason


class StoreStale(StoreCorrupt):
    """The store is internally sound but out of date for its source.

    ``reason`` is ``stale-digest`` (the source dataset's bytes no longer
    match the digest recorded at write time) or ``stale-mtime`` (the
    source file changed after the store was written).  Subclasses
    :class:`StoreCorrupt` so a single ``except`` refuses both kinds.
    """

    def __init__(self, reason: str, detail: str):
        RuntimeError.__init__(self, f"store stale ({reason}): {detail}")
        self.reason = reason


def _aligned(offset: int) -> int:
    return offset + (-offset) % _ALIGN


def points_digest(points) -> str:
    """Hex SHA-256 of a dataset's canonical float64 row bytes."""
    rows = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
    return hashlib.sha256(rows.tobytes()).hexdigest()


def pack_store(family: str, meta: dict, sections: dict) -> bytes:
    """Serialise one index into the complete ``.rsx`` byte string.

    ``meta`` must not contain the reserved keys (``family``,
    ``format_version``, ``sections``); ``sections`` maps name → array
    and its insertion order fixes the physical layout, making equal
    inputs produce byte-identical files (the compaction determinism
    guarantee).
    """
    tag = FAMILY_TAGS[family]
    blobs: list[bytes] = []
    directory: dict[str, dict] = {}
    offset = 0
    for name, array in sections.items():
        array = np.ascontiguousarray(array)
        pad = (-offset) % _ALIGN
        if pad:
            blobs.append(b"\x00" * pad)
            offset += pad
        directory[name] = {
            "offset": offset,
            "dtype": array.dtype.str,
            "shape": list(array.shape),
        }
        data = array.tobytes()
        blobs.append(data)
        offset += len(data)

    full_meta = dict(meta)
    full_meta["family"] = family
    full_meta["format_version"] = STORE_VERSION
    full_meta["sections"] = directory
    meta_bytes = json.dumps(
        full_meta, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    pad = (-len(meta_bytes)) % _ALIGN
    payload = meta_bytes + b"\x00" * pad + b"".join(blobs)
    header = _HEADER.pack(
        STORE_MAGIC,
        STORE_VERSION,
        tag,
        0,
        len(payload),
        HEADER_BYTES,
        len(meta_bytes),
    )
    return header + hashlib.sha256(payload).digest() + payload


class Store:
    """A structurally-validated, mmap-ed ``.rsx`` file.

    Opening performs the cheap checks only (see the module docstring);
    call :meth:`verify` before trusting the payload bytes — e.g. once
    per process, or whenever recovering from an unclean shutdown.
    Sections come back as zero-copy read-only numpy views over the
    mapping; keep the store open as long as any view is in use.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._file = open(self.path, "rb")
        self._mmap: Optional[mmap.mmap] = None
        try:
            size = os.fstat(self._file.fileno()).st_size
            if size < HEADER_BYTES:
                raise StoreCorrupt(
                    "no-header",
                    f"file holds {size} bytes; the fixed header "
                    f"needs {HEADER_BYTES}",
                )
            self._mmap = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
            self._parse(size)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Structural validation (open time)
    # ------------------------------------------------------------------

    def _parse(self, size: int) -> None:
        view = memoryview(self._mmap)
        (
            magic,
            version,
            family_tag,
            self.flags,
            payload_len,
            meta_off,
            meta_len,
        ) = _HEADER.unpack(view[: _HEADER.size])
        self._digest = bytes(view[_HEADER.size : HEADER_BYTES])
        if magic != STORE_MAGIC:
            raise StoreCorrupt(
                "bad-magic",
                f"expected magic {STORE_MAGIC!r}, got {bytes(magic)!r}",
            )
        if version != STORE_VERSION:
            raise StoreCorrupt(
                "bad-version",
                f"unsupported format version {version} "
                f"(this reader supports {STORE_VERSION})",
            )
        if family_tag not in TAG_FAMILIES:
            raise StoreCorrupt(
                "bad-version", f"unknown index-family tag {family_tag}"
            )
        if payload_len != size - HEADER_BYTES:
            raise StoreCorrupt(
                "bad-length",
                f"header promises {payload_len} payload bytes, file holds "
                f"{size - HEADER_BYTES} (torn write?)",
            )
        if meta_off != HEADER_BYTES or meta_off + meta_len > size:
            raise StoreCorrupt(
                "bad-length",
                f"meta [{meta_off}, {meta_off + meta_len}) out of bounds "
                f"for a {size}-byte file",
            )
        try:
            meta = json.loads(bytes(view[meta_off : meta_off + meta_len]))
        except (ValueError, UnicodeDecodeError) as exc:
            raise StoreCorrupt("bad-header-json", str(exc)) from exc
        if not isinstance(meta, dict) or "sections" not in meta:
            raise StoreCorrupt(
                "bad-header-json", "meta is not an object with sections"
            )
        family = TAG_FAMILIES[family_tag]
        if meta.get("family") != family:
            raise StoreCorrupt(
                "bad-payload",
                f"header family tag says {family!r} but meta says "
                f"{meta.get('family')!r}",
            )
        self.meta = meta
        self.family = family
        self._data_start = HEADER_BYTES + _aligned(meta_len)
        for name, info in meta["sections"].items():
            try:
                dtype = np.dtype(info["dtype"])
                shape = tuple(int(axis) for axis in info["shape"])
                offset = int(info["offset"])
            except (KeyError, TypeError, ValueError) as exc:
                raise StoreCorrupt(
                    "bad-payload", f"section {name!r} directory entry: {exc}"
                ) from exc
            nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
            if offset < 0 or self._data_start + offset + nbytes > size:
                raise StoreCorrupt(
                    "bad-payload",
                    f"section {name!r} [{offset}, {offset + nbytes}) exceeds "
                    f"the file's data area",
                )
        try:
            self.n_objects = int(meta["n_objects"])
            self.dim = int(meta["dim"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreCorrupt(
                "bad-payload", f"meta lacks n_objects/dim: {exc}"
            ) from exc
        self._views: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Deep validation (digest + staleness)
    # ------------------------------------------------------------------

    def verify(
        self,
        *,
        source_points=None,
        source_mtime: Optional[float] = None,
    ) -> "Store":
        """Hash the payload against the header digest; optionally check
        staleness against the source dataset.

        ``source_points`` (if given) must re-digest to the source digest
        recorded at write time, else ``stale-digest``; ``source_mtime``
        (if given) must not postdate the recorded source mtime, else
        ``stale-mtime``.  Returns ``self`` so callers can chain
        ``Store(path).verify()``.
        """
        actual = hashlib.sha256(memoryview(self._mmap)[HEADER_BYTES:])
        if actual.digest() != self._digest:
            raise StoreCorrupt(
                "bad-digest",
                f"payload sha256 {actual.hexdigest()} does not match the "
                f"header digest {self._digest.hex()}",
            )
        source = self.meta.get("source") or {}
        if source_points is not None:
            digest = points_digest(source_points)
            if digest != source.get("digest"):
                raise StoreStale(
                    "stale-digest",
                    f"source dataset digests to {digest}, store was built "
                    f"from {source.get('digest')}",
                )
        if source_mtime is not None:
            recorded = source.get("mtime")
            if recorded is not None and source_mtime > recorded:
                raise StoreStale(
                    "stale-mtime",
                    f"source changed at {source_mtime}, after the store "
                    f"was written from a source at {recorded}",
                )
        return self

    # ------------------------------------------------------------------
    # Sections
    # ------------------------------------------------------------------

    def has_section(self, name: str) -> bool:
        return name in self.meta["sections"]

    def section(self, name: str) -> np.ndarray:
        """Zero-copy read-only view of one section (cached)."""
        view = self._views.get(name)
        if view is not None:
            return view
        try:
            info = self.meta["sections"][name]
        except KeyError:
            raise StoreCorrupt(
                "bad-payload", f"store has no section {name!r}"
            ) from None
        dtype = np.dtype(info["dtype"])
        shape = tuple(int(axis) for axis in info["shape"])
        count = int(np.prod(shape, dtype=np.int64))
        view = np.frombuffer(
            self._mmap,
            dtype=dtype,
            count=count,
            offset=self._data_start + int(info["offset"]),
        ).reshape(shape)
        self._views[name] = view
        return view

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the mapping and file handle (idempotent).

        If numpy views of the mapping are still referenced, the mapping
        itself stays alive until they are garbage collected (closing an
        exported mmap raises ``BufferError``); the file descriptor is
        released either way.
        """
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError:  # views outlive the store object
                pass
            self._mmap = None
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
