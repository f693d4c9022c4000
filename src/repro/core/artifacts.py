"""Buffer-backed prepared-key artifacts: pack once, map anywhere.

The paper's economics rest on building the per-column sorted key
artifact once, off the critical path, and reusing it across queries.
Until this module, that artifact — a
:class:`~repro.core.efficient_search.PreprocessedKey` of three
``(n, d)`` arrays — only ever lived as private heap allocations: the
serving layer shipped it to every spawn shard on each registration
fan-out and threw it away entirely on cache eviction.

:class:`ArtifactBuffer` turns the artifact into **one contiguous
buffer** — a fixed header followed by the ``sorted_values`` /
``row_ids`` / ``key`` planes (and optionally the session's ``value``
matrix) — with three interchangeable storages:

``"heap"``
    A private ``bytearray``: the plain serialization, used as the
    staging format and for cross-host-style transports.
``"shm"``
    A POSIX shared-memory segment
    (:class:`multiprocessing.shared_memory.SharedMemory`): the cluster
    packs a session's prepared key once and every spawn-shard replica
    *adopts* the segment by name — no pickling, no per-replica column
    re-sort, one physical copy of the artifact per host.
``"mmap"``
    A memory-mapped disk file: the key cache's spill tier writes cold
    artifacts here and a later checkout *promotes by mmap* instead of
    re-sorting — the pages fault in lazily, off the critical path.

Every storage round-trips **bit-identically**: :meth:`ArtifactBuffer.view`
reconstructs the ``PreprocessedKey`` as zero-copy ``np.frombuffer``
views over the buffer, so selection over an adopted artifact is exactly
selection over the freshly built one.  Views are read-only; mutations
of an adopted key go through the incremental splices of
:mod:`repro.core.incremental`, which build fresh private arrays
(copy-on-write) and never write through the shared buffer.

Lifecycle ownership is explicit.  The creator of a segment or spill
file is its *owner*: owners are refcounted (:meth:`retain` /
:meth:`release`) and destroy the backing name via :meth:`unlink` when
the last reference goes.  Adopters (:meth:`attach`, :meth:`map_file`)
only ever :meth:`close` their mapping — an adopter must never unlink a
name it does not own.  Owner segments additionally carry a GC
finalizer, so a test that forgets to stop a cluster still leaves no
``/dev/shm`` residue once the owner is collected.
"""

from __future__ import annotations

import mmap
import os
import secrets
import weakref
from multiprocessing import shared_memory

import numpy as np

from repro.core.efficient_search import PreprocessedKey
from repro.errors import ShapeError

__all__ = [
    "ArtifactBuffer",
    "SEGMENT_PREFIX",
    "HEADER_NBYTES",
    "artifact_nbytes",
]

_MAGIC = 0x41335041  # "A3PA" little-endian
_VERSION = 1

#: Shared-memory segments are named with this prefix so leak checks
#: (tests and CI) can assert no ``/dev/shm/repro-art-*`` residue.
SEGMENT_PREFIX = "repro-art-"

_HEADER = np.dtype(
    [
        ("magic", "<i8"),
        ("version", "<i8"),
        ("n", "<i8"),
        ("d", "<i8"),
        ("d_v", "<i8"),
        ("reserved", "<i8"),
    ]
)
HEADER_NBYTES = int(_HEADER.itemsize)

STORAGES = ("heap", "shm", "mmap")


def artifact_nbytes(n: int, d: int, d_v: int = 0) -> int:
    """Exact byte size of a packed artifact: header plus the float64
    ``sorted_values``, int64 ``row_ids``, float64 ``key`` planes, plus
    the optional ``(n, d_v)`` float64 value payload."""
    return HEADER_NBYTES + 3 * n * d * 8 + n * d_v * 8


def _disarm_shm_close(
    shm: shared_memory.SharedMemory,
) -> shared_memory.SharedMemory:
    """Make ``shm.close()`` tolerate live exported array views.

    NumPy views pin the underlying mmap; the stdlib ``close`` then
    raises ``BufferError`` — once from our own close, and again from
    ``SharedMemory.__del__`` at GC/interpreter exit, where it surfaces
    as unraisable-exception noise.  Shadow ``close`` per instance
    (``__del__`` calls ``self.close()``, so the shadow covers it too):
    on BufferError, release the fd and drop the object's handle on the
    mmap — the views keep the mapping alive, and their GC unmaps it.
    """
    stdlib_close = shm.close

    def close() -> None:
        try:
            stdlib_close()
        except BufferError:
            if shm._fd >= 0:
                os.close(shm._fd)
                shm._fd = -1
            shm._mmap = None

    shm.close = close
    return shm


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting unlink responsibility.

    Python < 3.13 registers *attached* segments with the process's
    resource tracker, which would unlink them when the attaching
    process exits — pulling the segment out from under every other
    replica.  3.13+ has ``track=False`` for exactly this; earlier
    interpreters suppress the registration call during attach (an
    after-the-fact ``unregister`` would race other attachers of the
    same segment at the shared tracker process).
    """
    try:
        return _disarm_shm_close(
            shared_memory.SharedMemory(name=name, track=False)
        )
    except TypeError:
        pass  # Python < 3.13: no track parameter
    from multiprocessing import resource_tracker

    real_register = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        shm = shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = real_register
    return _disarm_shm_close(shm)


def _cleanup_owner_shm(shm: shared_memory.SharedMemory) -> None:
    """GC safety net for an owner segment that was never released."""
    try:
        shm.unlink()
    except Exception:  # noqa: BLE001 — already unlinked is fine
        pass
    try:
        shm.close()
    except Exception:  # noqa: BLE001 — live views keep the map alive
        pass


class ArtifactBuffer:
    """One prepared-key artifact in a single contiguous buffer.

    Construct via the classmethods — :meth:`pack` to serialize a
    :class:`PreprocessedKey` into fresh storage (becoming its owner),
    :meth:`attach` to adopt an existing shared-memory segment by name,
    or :meth:`map_file` to adopt a spilled artifact from disk.  Direct
    construction wraps an already-filled buffer and validates its
    header.

    Attributes
    ----------
    kind:
        One of :data:`STORAGES`.
    owner:
        Whether this handle created (and must eventually unlink) the
        backing segment or file.  Adopters are never owners.
    nbytes:
        Exact packed size (the backing may be page-rounded larger).
    """

    def __init__(
        self,
        kind: str,
        mem,
        *,
        shm: shared_memory.SharedMemory | None = None,
        mm: mmap.mmap | None = None,
        path: str | None = None,
        owner: bool = False,
    ):
        if kind not in STORAGES:
            raise ValueError(f"unknown storage {kind!r}; expected {STORAGES}")
        self.kind = kind
        self._mem = mem
        self._shm = shm
        self._mm = mm
        self.path = path
        self.owner = owner
        self._refs = 1
        self._pre: PreprocessedKey | None = None
        self._value: np.ndarray | None = None
        if len(mem) < HEADER_NBYTES:
            raise ValueError(
                f"buffer of {len(mem)} bytes is too small for an artifact "
                "header"
            )
        header = np.frombuffer(mem, dtype=_HEADER, count=1)[0]
        if int(header["magic"]) != _MAGIC:
            raise ValueError("not an artifact buffer (bad magic)")
        if int(header["version"]) != _VERSION:
            raise ValueError(
                f"unsupported artifact version {int(header['version'])}"
            )
        self.n = int(header["n"])
        self.d = int(header["d"])
        self.d_v = int(header["d_v"])
        if self.n < 0 or self.d < 0 or self.d_v < 0:
            raise ValueError("corrupt artifact header (negative dimensions)")
        self.nbytes = artifact_nbytes(self.n, self.d, self.d_v)
        if len(mem) < self.nbytes:
            raise ValueError(
                f"truncated artifact: header promises {self.nbytes} bytes, "
                f"buffer holds {len(mem)}"
            )
        # Owner segments get a GC finalizer so an unreleased segment can
        # never outlive its owning process as /dev/shm residue.
        if owner and shm is not None:
            self._finalizer = weakref.finalize(self, _cleanup_owner_shm, shm)
        else:
            self._finalizer = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def pack(
        cls,
        pre: PreprocessedKey,
        value: np.ndarray | None = None,
        *,
        storage: str = "heap",
        name: str | None = None,
        path: str | None = None,
    ) -> "ArtifactBuffer":
        """Serialize a prepared key (and optionally the session's value
        matrix) into one freshly allocated buffer.

        The copy is bit-exact: each array plane is written with a plain
        element assignment, so NaN payloads and signed zeros survive and
        :meth:`view` round-trips ``np.array_equal`` with matching dtypes.
        The returned handle **owns** the storage it allocated.
        """
        n, d = pre.n, pre.d
        value_arr = None
        d_v = 0
        if value is not None:
            value_arr = np.ascontiguousarray(value, dtype=np.float64)
            if value_arr.ndim != 2 or value_arr.shape[0] != n:
                raise ShapeError(
                    f"value payload must be 2-D with n={n} rows, got "
                    f"{value_arr.shape}"
                )
            d_v = int(value_arr.shape[1])
        total = artifact_nbytes(n, d, d_v)
        shm = mm = None
        if storage == "heap":
            mem = memoryview(bytearray(total))
        elif storage == "shm":
            if name is None:
                name = f"{SEGMENT_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"
            shm = _disarm_shm_close(
                shared_memory.SharedMemory(
                    name=name, create=True, size=total
                )
            )
            mem = shm.buf
        elif storage == "mmap":
            if path is None:
                raise ValueError("storage='mmap' requires a path")
            fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o600)
            try:
                os.ftruncate(fd, total)
                mm = mmap.mmap(fd, total, access=mmap.ACCESS_WRITE)
            finally:
                os.close(fd)
            mem = memoryview(mm)
        else:
            raise ValueError(
                f"unknown storage {storage!r}; expected one of {STORAGES}"
            )
        header = np.frombuffer(mem, dtype=_HEADER, count=1)
        header[0] = (_MAGIC, _VERSION, n, d, d_v, 0)
        offset = HEADER_NBYTES
        planes = [
            (pre.sorted_values, np.float64),
            (pre.row_ids, np.int64),
            (pre.key, np.float64),
        ]
        if value_arr is not None:
            planes.append((value_arr, np.float64))
        for arr, dtype in planes:
            count = int(arr.shape[0]) * int(arr.shape[1])
            dst = np.frombuffer(
                mem, dtype=dtype, count=count, offset=offset
            ).reshape(arr.shape)
            dst[...] = arr
            offset += count * 8
        # No msync: mapped writes are visible to every same-machine
        # reader through the shared page cache, and durability across a
        # crash is worthless here (the records pointing at spill files
        # die with the process).  A synchronous flush costs as much as
        # the column sort it is meant to amortize away.
        return cls(storage, mem, shm=shm, mm=mm, path=path, owner=True)

    @classmethod
    def attach(cls, name: str) -> "ArtifactBuffer":
        """Adopt an existing shared-memory segment by name (never owns
        it — closing this handle leaves the segment for its creator to
        unlink)."""
        shm = _attach_shm(name)
        try:
            return cls("shm", shm.buf, shm=shm, owner=False)
        except ValueError:
            try:
                shm.close()
            except BufferError:
                pass  # stray header view; GC releases the mapping
            raise

    @classmethod
    def map_file(cls, path: str) -> "ArtifactBuffer":
        """Adopt a spilled artifact from disk via a read-only mmap.

        The pages fault in lazily on first touch, so promotion costs
        O(header) up front rather than O(n d log n) re-sorting; the
        mapping stays valid even if the file is unlinked afterwards.
        """
        fd = os.open(path, os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            if size < HEADER_NBYTES:
                raise ValueError(
                    f"{path!r} is too small to be an artifact file"
                )
            mm = mmap.mmap(fd, size, access=mmap.ACCESS_READ)
        finally:
            os.close(fd)
        try:
            return cls("mmap", memoryview(mm), mm=mm, path=path, owner=False)
        except ValueError:
            try:
                mm.close()
            except BufferError:
                pass  # stray header view; GC releases the mapping
            raise

    @property
    def name(self) -> str | None:
        """The shared-memory segment name (``None`` for other storages)."""
        return self._shm.name if self._shm is not None else None

    # ------------------------------------------------------------------
    # zero-copy views
    # ------------------------------------------------------------------
    def _plane(self, index: int, dtype, cols: int) -> np.ndarray:
        offset = HEADER_NBYTES + index * self.n * self.d * 8
        arr = np.frombuffer(
            self._mem, dtype=dtype, count=self.n * cols, offset=offset
        ).reshape(self.n, cols)
        if arr.flags.writeable:
            arr.flags.writeable = False
        return arr

    def view(self) -> PreprocessedKey:
        """The packed artifact as a :class:`PreprocessedKey` of
        read-only zero-copy views over this buffer.

        Bit-identical to the ``PreprocessedKey`` that was packed:
        ``np.array_equal`` holds per plane, dtypes included.  The views
        keep the underlying mapping alive; mutating a view is an error
        (splices build fresh private arrays instead — copy-on-write).
        """
        if self._pre is None:
            if self._mem is None:
                raise ValueError("artifact buffer is closed")
            self._pre = PreprocessedKey(
                sorted_values=self._plane(0, np.float64, self.d),
                row_ids=self._plane(1, np.int64, self.d),
                key=self._plane(2, np.float64, self.d),
            )
        return self._pre

    def value_view(self) -> np.ndarray | None:
        """The packed ``(n, d_v)`` value payload, or ``None`` when the
        artifact was packed without one."""
        if self.d_v == 0:
            return None
        if self._value is None:
            if self._mem is None:
                raise ValueError("artifact buffer is closed")
            offset = HEADER_NBYTES + 3 * self.n * self.d * 8
            arr = np.frombuffer(
                self._mem,
                dtype=np.float64,
                count=self.n * self.d_v,
                offset=offset,
            ).reshape(self.n, self.d_v)
            if arr.flags.writeable:
                arr.flags.writeable = False
            self._value = arr
        return self._value

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def retain(self) -> "ArtifactBuffer":
        """Take one more reference to an owned backing (see
        :meth:`release`)."""
        self._refs += 1
        return self

    def release(self) -> None:
        """Drop one reference; the last release unlinks (owners) and
        closes the backing."""
        self._refs -= 1
        if self._refs <= 0:
            if self.owner:
                self.unlink()
            self.close()

    def close(self) -> None:
        """Detach this handle's mapping.

        Tolerates live exported array views (NumPy pins the buffer): the
        mapping then survives until the views are garbage-collected,
        which is safe — :meth:`unlink` alone removes the name, and an
        anonymous mapping holds no ``/dev/shm`` entry.
        """
        self._pre = None
        self._value = None
        self._mem = None
        try:
            if self._shm is not None:
                self._shm.close()  # disarmed: tolerates live views
            elif self._mm is not None:
                self._mm.close()
        except BufferError:
            pass  # live views pin the mmap; their GC unmaps it

    def unlink(self) -> None:
        """Destroy the backing *name* (shm segment or spill file).

        Only meaningful for owners; existing mappings — this process's
        and other processes' — remain valid until closed, which is what
        makes eager unlinking safe.  Idempotent.
        """
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self.kind == "shm" and self._shm is not None:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass
        elif self.kind == "mmap" and self.path is not None:
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass
