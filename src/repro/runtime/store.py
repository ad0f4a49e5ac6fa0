"""Content-addressed on-disk result store for repeated experiments.

The sweeps and figure drivers evaluate deterministic functions of
``(experiment spec, input data)``: the same :class:`repro.api.ExperimentSpec`
on the same pattern always produces the same correlation / event counts.
:class:`ResultStore` memoises those evaluations on disk, keyed by the pair

* ``spec_key`` — the experiment's stable content hash
  (:meth:`repro.api.ExperimentSpec.key`), identical across processes,
  Python versions and spawn-mode workers, and
* ``fingerprint`` — a content hash of the input data (a raw signal's
  bytes, or a dataset spec + pattern id for lazily generated patterns).

Entries are ``.npz`` archives of plain numpy arrays, written atomically
(temp file + ``os.replace``) so a crashed or concurrent run never leaves a
half-written entry behind, and sharded into 256 two-hex-digit
subdirectories so a large cache never piles every entry into one
directory.  Every entry carries a ``__checksum__`` of its payload arrays,
verified on read: a corrupt entry (truncated file, bad zip, flipped
bits) is deleted and treated as a miss — the store self-heals and the
caller simply re-evaluates.  :meth:`ResultStore.fsck` (CLI: ``repro
store fsck``) audits the whole store at once, which is how a shared
multi-worker cache gets checked after a messy crash.

Hit/miss accounting lives on the instance (``hits`` / ``misses`` /
``stores`` / ``corrupt``), so a warm re-run can *assert* that it
re-evaluated nothing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import threading
from collections.abc import Sequence
from pathlib import Path

import numpy as np

__all__ = [
    "CHECKSUM_KEY",
    "ENGINE_REVISION",
    "FsckReport",
    "ResultStore",
    "checksum_arrays",
    "fingerprint_arrays",
    "fingerprint_value",
]

# Revision of the *evaluation engine's numerics*, folded into every entry
# address.  Bump it whenever a change alters what an experiment computes
# for the same spec (decoder arithmetic, scoring formula, RNG layout):
# old caches then miss cleanly instead of silently serving stale numbers.
# Spec *format* changes are versioned separately (repro.api's
# SPEC_FORMAT_VERSION, part of the hashed spec itself).
ENGINE_REVISION = 1


def _hash_update_array(h, arr: np.ndarray) -> None:
    """Fold one array (dtype + shape + bytes) into a running hash."""
    arr = np.ascontiguousarray(arr)
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())


def fingerprint_arrays(*arrays) -> str:
    """Content hash of one or more numpy arrays (dtype + shape + bytes)."""
    h = hashlib.sha256()
    for arr in arrays:
        _hash_update_array(h, np.asarray(arr))
    return h.hexdigest()


# Reserved array name holding an entry's payload checksum.  Written by
# every put(), verified (and stripped) by every get().
CHECKSUM_KEY = "__checksum__"


def checksum_arrays(arrays: "dict[str, np.ndarray]") -> str:
    """Order-independent content hash of a named-array payload."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(b"\x00")
        _hash_update_array(h, np.asarray(arrays[name]))
    return h.hexdigest()


def _entry_damage(arrays: "dict[str, np.ndarray]") -> "str | None":
    """Why a loaded entry fails checksum verification (None = intact).

    Entries with no :data:`CHECKSUM_KEY` predate checksums and verify
    vacuously here; ``fsck`` flags them separately.
    """
    declared = arrays.get(CHECKSUM_KEY)
    if declared is None:
        return None
    payload = {k: v for k, v in arrays.items() if k != CHECKSUM_KEY}
    if not payload:
        return "entry holds no payload arrays"
    try:
        expected = declared.item()
    except (AttributeError, ValueError):
        return f"malformed {CHECKSUM_KEY} array"
    if not isinstance(expected, str) or expected != checksum_arrays(payload):
        return f"payload does not match its {CHECKSUM_KEY}"
    return None


@dataclasses.dataclass(frozen=True)
class FsckReport:
    """What :meth:`ResultStore.fsck` found (and, with repair, removed)."""

    scanned: int
    intact: int
    unverified: int  # pre-checksum entries: readable, but unverifiable
    corrupt: "tuple[tuple[str, str], ...]"  # (entry path, damage reason)
    stray_tmp: int  # leftover .tmp-* files from crashed writers
    repaired: bool  # whether corrupt entries and strays were deleted

    @property
    def damaged(self) -> int:
        """How many entries failed verification."""
        return len(self.corrupt)

    @property
    def clean(self) -> bool:
        """True when every scanned entry verified (strays don't count)."""
        return not self.corrupt

    def summary(self) -> str:
        """One line for logs and the ``repro store fsck`` CLI."""
        state = "clean" if self.clean else f"{self.damaged} corrupt"
        bits = [f"{self.scanned} entries scanned", state]
        if self.unverified:
            bits.append(f"{self.unverified} pre-checksum (unverified)")
        if self.stray_tmp:
            verb = "removed" if self.repaired else "found"
            bits.append(f"{self.stray_tmp} stray tmp files {verb}")
        return "; ".join(bits)


def _jsonable(value):
    """Canonical JSON-compatible form of a fingerprint payload."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            **{
                f.name: _jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return {"__array_sha256__": fingerprint_arrays(value)}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot fingerprint a {type(value).__name__}: {value!r}")


def fingerprint_value(value) -> str:
    """Stable content hash of a JSON-able structure (dataclasses allowed).

    Used for inputs that are cheap to *describe* but expensive to
    *materialise* — e.g. ``(DatasetSpec, pattern_id)`` fingerprints let a
    warm dataset sweep skip pattern synthesis entirely.  Large arrays are
    folded in by content hash, so mixed payloads are fine.
    """
    payload = json.dumps(
        _jsonable(value), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultStore:
    """On-disk content-addressed cache of experiment results.

    Parameters
    ----------
    root:
        Directory holding the cache (created if missing).  A store is
        cheap to construct and safe to share across runs; concurrent
        writers are safe because entries are immutable and written
        atomically.

    Usage::

        store = ResultStore("~/.cache/repro")
        arrays = store.get(spec.key(), fingerprint)
        if arrays is None:
            arrays = expensive_evaluation()
            store.put(spec.key(), fingerprint, arrays)
    """

    def __init__(self, root: "str | os.PathLike") -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        # One store instance may back every thread of a multi-session
        # server: the counters and the read-check-delete cycle of a
        # corrupt entry are guarded so concurrent access never loses an
        # increment or double-deletes.  On-disk entries were already safe
        # (immutable, atomic os.replace).
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    @staticmethod
    def entry_id(spec_key: str, fingerprint: str) -> str:
        """The content address of a ``(spec, data)`` pair.

        Includes :data:`ENGINE_REVISION`, so results computed by an older
        engine revision can never satisfy a newer one's lookup.
        """
        return hashlib.sha256(
            f"engine{ENGINE_REVISION}\x00{spec_key}\x00{fingerprint}".encode()
        ).hexdigest()

    def path_for(self, spec_key: str, fingerprint: str) -> Path:
        """Where the entry for ``(spec_key, fingerprint)`` lives on disk."""
        entry = self.entry_id(spec_key, fingerprint)
        return self.root / entry[:2] / f"{entry}.npz"

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def get(self, spec_key: str, fingerprint: str) -> "dict[str, np.ndarray] | None":
        """Fetch a cached result, or ``None`` on miss.

        A corrupt entry — unreadable archive, or payload not matching the
        ``__checksum__`` it was written with — is deleted, counted in
        ``corrupt``, and reported as a miss: the store self-heals.
        Entries written before checksums existed load unverified.
        """
        path = self.path_for(spec_key, fingerprint)
        if not path.exists():
            with self._lock:
                self.misses += 1
            return None
        try:
            with np.load(path, allow_pickle=False) as archive:
                out = {name: archive[name] for name in archive.files}
        except Exception:
            return self._quarantine_corrupt(path)
        if _entry_damage(out) is not None:
            return self._quarantine_corrupt(path)
        out.pop(CHECKSUM_KEY, None)
        with self._lock:
            self.hits += 1
        return out

    def get_many(
        self, spec_key: str, fingerprints: "Sequence[str]"
    ) -> "list[dict[str, np.ndarray] | None]":
        """:meth:`get` for each fingerprint of one spec, in order.

        The batch read the sweeps use; here it is one ``get`` per entry,
        with the same counters and self-healing.
        """
        return [self.get(spec_key, fingerprint) for fingerprint in fingerprints]

    def _quarantine_corrupt(self, path: Path) -> None:
        """Delete a damaged entry and account for it as a miss."""
        with self._lock:
            self.corrupt += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
        return None

    def put(
        self, spec_key: str, fingerprint: str, arrays: "dict[str, np.ndarray]"
    ) -> Path:
        """Persist one result atomically; returns the entry path.

        The payload's :func:`checksum_arrays` hash rides along in the
        entry under :data:`CHECKSUM_KEY`, so later reads (and ``fsck``)
        can tell silent on-disk corruption from a valid entry.
        """
        if not arrays:
            raise ValueError("refusing to store an empty result")
        if CHECKSUM_KEY in arrays:
            raise ValueError(f"{CHECKSUM_KEY!r} is a reserved array name")
        payload = {k: np.asarray(v) for k, v in arrays.items()}
        payload[CHECKSUM_KEY] = np.array(checksum_arrays(payload))
        path = self.path_for(spec_key, fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".npz"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        with self._lock:
            self.stores += 1
        return path

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _entry_paths(self) -> "list[Path]":
        """Every real entry on disk, in deterministic order.

        ``pathlib`` globs match dotfiles, so a crashed writer's leftover
        ``.tmp-*.npz`` would otherwise masquerade as an entry here.
        """
        return sorted(
            path
            for path in self.root.glob("??/*.npz")
            if not path.name.startswith(".")
        )

    def _stray_tmp_paths(self) -> "list[Path]":
        """Leftover atomic-write temp files (a crash between write and
        rename leaves one behind; harmless, but fsck sweeps them up)."""
        return sorted(self.root.glob("??/.tmp-*"))

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        return len(self._entry_paths())

    def fsck(self, repair: bool = True) -> FsckReport:
        """Audit every on-disk entry against its ``__checksum__``.

        Walks the whole store, re-reading each entry and verifying its
        payload checksum — the batch version of the check ``get`` runs
        per lookup, which is how a *shared* store gets audited after a
        worker crash without enumerating every ``(spec, fingerprint)``
        pair that might live in it.  With ``repair=True`` (default)
        corrupt entries and stray ``.tmp-*`` files are deleted, so the
        next lookup re-evaluates instead of failing; ``repair=False``
        only reports.  Run it on a quiescent store — a live writer's
        in-flight temp file would be swept as a stray.

        Entries written before checksums existed are readable but
        unverifiable; they are counted ``unverified``, never deleted.
        """
        strays = self._stray_tmp_paths()
        intact = unverified = 0
        corrupt: "list[tuple[str, str]]" = []
        entries = self._entry_paths()
        for path in entries:
            try:
                with np.load(path, allow_pickle=False) as archive:
                    arrays = {name: archive[name] for name in archive.files}
            except Exception as exc:
                corrupt.append(
                    (str(path), f"unreadable archive ({type(exc).__name__})")
                )
                continue
            damage = _entry_damage(arrays)
            if damage is not None:
                corrupt.append((str(path), damage))
            elif CHECKSUM_KEY not in arrays:
                unverified += 1
            else:
                intact += 1
        if repair:
            for path_str, _reason in corrupt:
                try:
                    os.unlink(path_str)
                except OSError:
                    pass
            for path in strays:
                try:
                    path.unlink()
                except OSError:
                    pass
            if corrupt:
                with self._lock:
                    self.corrupt += len(corrupt)
        return FsckReport(
            scanned=len(entries),
            intact=intact,
            unverified=unverified,
            corrupt=tuple(corrupt),
            stray_tmp=len(strays),
            repaired=repair,
        )

    def stats(self) -> "dict[str, int]":
        """This instance's access counters (not persisted)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "corrupt": self.corrupt,
            }

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        n = 0
        for path in self._entry_paths():
            try:
                path.unlink()
                n += 1
            except OSError:
                pass
        return n

    def __repr__(self) -> str:
        return (
            f"ResultStore({str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses}, stores={self.stores})"
        )
