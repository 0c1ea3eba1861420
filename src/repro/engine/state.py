"""Programmed-chip state as a first-class, cacheable artifact.

The paper's premise is that in-ReRAM computing amortises a one-time,
expensive weight-programming phase over many cheap analog inferences.  This
module gives that phase a product: :class:`ProgrammedState` — the per-layer,
per-bit-cell-slice integer cell levels plus the quantisation/tiling metadata
that :class:`repro.engine.packed.PackedMatmul` otherwise rebuilds inside
every ``NetworkExecutor`` construction — so programming runs **once** and its
result is saved, shared across processes, and re-used by any number of
executions (:meth:`repro.engine.executor.NetworkExecutor.from_state`).

Three design points:

* **Noise-independence.**  The state holds the cell levels each weight
  was programmed to — the *base* (noise-free) conductances are ``g_min +
  level * g_step``.  Per-trial programming variation is multiplicative
  and seed-stable (``(seed, salt)`` streams, see
  :mod:`repro.circuits.noise`), so it is applied cheaply on top of the
  decoded base tensors at executor wiring time — one snapshot therefore
  serves every Monte-Carlo trial of a sweep while staying bit-for-bit
  identical to programming from scratch.
* **Content addressing.**  :func:`state_key` derives a stable key from
  ``(model, ArchSpec, mode, seed)`` via the same
  :func:`repro.circuits.noise.stable_seed` hashing the sweep store uses, so
  equal configurations share one cache entry across processes and machines.
* **One checksummed, memory-mappable file.**  :meth:`ProgrammedState.save`
  writes a directory holding a ``meta.json`` manifest and one payload file:
  every tensor at a 64-byte-aligned offset in its own memory order, each
  layer's tensors contiguous under one CRC-32.  :meth:`ProgrammedState.load`
  with ``mmap=True`` maps the file once and views every tensor by offset,
  so an executor can stream a larger-than-RAM programmed network layer by
  layer instead of materialising it; the CRCs are checked where the bytes
  are read anyway (an eager load, a streamed layer, a layer being wired),
  so a flipped byte fails loudly instead of wiring the wrong chip.

:class:`ProgrammedStateCache` layers a small in-memory LRU over an optional
on-disk directory keyed by content: ``get_or_program`` is the one call the
CLI, the sweep pool and (eventually) a persistent simulation server all go
through.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.context import ArchSpec
from repro.engine.errors import EngineError
from repro.engine.packed import level_conductances

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.context import SimContext
    from repro.engine.params import NetworkParams
    from repro.nn.network import Network

#: bumped when the on-disk layout changes; loaders reject unknown versions
#: (2: packed payloads carry a compute dtype — float32 states exist and the
#: manifest + content key record which precision was programmed;
#: 3: one execution engine — the manifest drops ``backend`` and the
#: per-layer ``q`` payload;
#: 4: analog layers store unsigned integer cell levels, not float
#: conductances — the manifest names ``levels`` files;
#: 5: ideal layers store their offset-encoded weights as unsigned integers
#: too, and the manifest and content key drop the compute dtype, which the
#: executor picks at wiring;
#: 6: one payload file instead of one ``.npy`` file per tensor — the
#: manifest records each tensor's offset, dtype, shape and memory order, and
#: each layer's byte range and its CRC-32)
STATE_FORMAT = 6

#: metadata filename inside a saved state directory
_META_NAME = "meta.json"
#: payload filename inside a saved state directory
_PAYLOAD_NAME = "payload.bin"
#: byte alignment of every tensor in the payload file
_ALIGN = 64
#: the scalar :class:`LayerState` fields a manifest ``layers`` entry records
_LAYER_FIELDS = ("name", "index", "kind", "out_channels", "n_groups", "stride", "pad", "kernel")


def state_key(model: str, arch: ArchSpec, mode: str, seed: int) -> str:
    """Stable 16-hex-digit content key of one programmed configuration.

    Derived with the same :func:`repro.circuits.noise.stable_seed` hashing
    the sweep keys use (SHA-256 based, stable across processes and Python
    versions).  Noise is deliberately **not** part of the key: the state
    holds base cell levels and per-trial variation is applied on load, so
    every noise scale / trial of a Monte-Carlo sweep shares one entry.
    The compute dtype is not part of it either: the state holds integers
    only, and each executor picks its layers' precision when it wires them,
    so float32 and float64 runs share one entry.  Nor is the kernel tier
    (``REPRO_KERNEL``): it selects *how* the read-out runs,
    not *what* it computes — float64 results are bit-identical across
    tiers (the cross-implementation equivalence tests pin this), so a
    state programmed under any tier serves every tier.
    """
    from repro.circuits.noise import stable_seed

    value = stable_seed(
        "programmed-state",
        STATE_FORMAT,
        model,
        mode,
        seed,
        arch.rows,
        arch.cols,
        arch.cell_bits,
        arch.weight_bits,
        arch.input_bits,
        repr(arch.r_min_ohm),
        repr(arch.r_max_ohm),
        repr(arch.t_del_s),
        repr(arch.v_dd),
    )
    return f"{value:016x}"


@dataclass
class LayerState:
    """Programmed artifact of one conv/FC layer.

    Exactly one weight payload is populated, matching the mode: ``levels``
    (analog — one unsigned integer cell-level tensor per bit-cell slice,
    noise-free) or ``encoded`` (ideal — the offset-encoded weights, unsigned
    integers too).  Both are ``(groups, rows_needed, group_cols)`` stacks in
    im2col layout.  ``g_min_s``/``g_step_s`` (the cell's level grid,
    siemens) say how the levels decode to :attr:`conductances`.
    """

    name: str
    index: int  # the layer's noise-scope salt (graph node index)
    kind: str  # "conv" | "fc"
    out_channels: int
    n_groups: int
    w_scales: np.ndarray  # (out_channels,) per-channel dequantisation scales
    g_min_s: float
    g_step_s: float
    bias: Optional[np.ndarray] = None
    # conv-only geometry (0 for fc)
    stride: int = 0
    pad: int = 0
    kernel: int = 0
    # weight payloads (see class docstring)
    encoded: Optional[np.ndarray] = None
    levels: List[np.ndarray] = field(default_factory=list)

    @property
    def conductances(self) -> List[np.ndarray]:
        """The base conductances of every slice, decoded from ``levels``.

        Fresh float64 arrays in the levels' memory layout, from the wiring
        arithmetic (:func:`repro.engine.packed.level_conductances`); empty
        for an ideal-mode layer.
        """
        return [
            level_conductances(levels, self.g_min_s, self.g_step_s, "float64")
            for levels in self.levels
        ]

    @property
    def nbytes(self) -> int:
        total = self.w_scales.nbytes
        if self.bias is not None:
            total += self.bias.nbytes
        if self.encoded is not None:
            total += self.encoded.nbytes
        return total + sum(levels.nbytes for levels in self.levels)


def _write_layer(out: BinaryIO, offset: int, layer: LayerState) -> Tuple[Dict[str, Any], int]:
    """Append ``layer``'s tensors to ``out``, which stands at byte ``offset``.

    Returns the layer's manifest entry and the offset after it.  Each tensor
    is written in the memory order ``np.save`` keeps (F for an F- but not
    C-contiguous array, else C) — BLAS picks summation paths by layout, so
    a C-order copy of the F-ordered levels would be bitwise-different
    downstream — and padded to the next 64-byte boundary.  The layer's
    bytes, padding included, are one range under one CRC-32.
    """
    start, crc = offset, 0

    def put(array: Optional[np.ndarray]) -> Optional[Dict[str, Any]]:
        nonlocal offset, crc
        if array is None:
            return None
        order = "F" if array.flags.f_contiguous and not array.flags.c_contiguous else "C"
        data = np.ascontiguousarray(array.T if order == "F" else array)
        record = {
            "offset": offset,
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "order": order,
        }
        pad = bytes(-data.nbytes % _ALIGN)
        out.write(data.data)
        out.write(pad)
        crc = zlib.crc32(pad, zlib.crc32(data.data, crc))
        offset += data.nbytes + len(pad)
        return record

    entry = {key: getattr(layer, key) for key in _LAYER_FIELDS}
    entry["w_scales"] = put(layer.w_scales)
    entry["bias"] = put(layer.bias)
    entry["encoded"] = put(layer.encoded)
    entry["levels"] = [put(levels) for levels in layer.levels]
    entry["range"] = [start, offset]
    entry["crc32"] = crc
    return entry, offset


def _read_payload(path: Path, start: int, end: int, size: int, mmap: bool) -> np.ndarray:
    """Bytes ``[start, end)`` of the payload file of the state at ``path``.

    Memory-mapped read-only (a fresh mapping, no page read yet) or read into
    memory.  A missing payload raises :class:`OSError`; one whose length is
    not the manifest's ``size`` raises :class:`EngineError`.
    """
    payload = path / _PAYLOAD_NAME
    actual = payload.stat().st_size
    if actual != size:
        raise EngineError(
            f"corrupt programmed state at {payload}: the file holds {actual} "
            f"bytes, its manifest records {size}"
        )
    if mmap:
        return np.memmap(payload, dtype=np.uint8, mode="r", offset=start, shape=(end - start,))
    with open(payload, "rb") as f:
        f.seek(start)
        return np.fromfile(f, dtype=np.uint8, count=end - start)


def _corrupt(path: Path, exc: Exception) -> EngineError:
    """The error for a state at ``path`` that failed to load with ``exc``."""
    return EngineError(f"corrupt programmed state at {path}: {type(exc).__name__}: {exc}")


def _check_crc(entry: Dict[str, Any], data: np.ndarray, base: int, path: Path) -> None:
    """Refuse a layer whose bytes do not match its CRC-32.

    ``data`` holds the payload from file offset ``base`` on; one
    ``zlib.crc32`` runs over the layer's byte range.
    """
    start, end = entry["range"]
    if zlib.crc32(data[start - base : end - base].data) != entry["crc32"]:
        raise EngineError(
            f"corrupt programmed state at {path / _PAYLOAD_NAME}: layer "
            f"{entry['name']!r} fails its CRC-32 check"
        )


def _check_levels(entry: Dict[str, Any], slices: int, path: Path) -> None:
    """Reject a layer's level payload that this build cannot have written.

    Reads the manifest only, so memory-mapped payloads stay unread.
    """
    name, records = entry["name"], entry["levels"]
    if len(records) != slices:
        raise EngineError(
            f"corrupt programmed state at {path / _META_NAME}: layer {name!r} "
            f"holds {len(records)} level tensors, the architecture needs {slices}"
        )
    where = f"corrupt programmed state at {path / _PAYLOAD_NAME}: layer {name!r}"
    for record in records:
        dtype = np.dtype(record["dtype"])
        if dtype.kind != "u":
            raise EngineError(f"{where}: levels of dtype {dtype} are not unsigned integers")
        if record["shape"] != records[0]["shape"]:
            raise EngineError(
                f"{where}: levels of shape {tuple(record['shape'])} differ from "
                f"the layer's first slice {tuple(records[0]['shape'])}"
            )


def _layer_from_entry(
    entry: Dict[str, Any],
    data: np.ndarray,
    base: int,
    path: Path,
    arch: ArchSpec,
    mode: str,
) -> LayerState:
    """One manifest ``layers`` entry of the state at ``path`` as a layer.

    Every tensor is a view of ``data``, the payload bytes from file offset
    ``base`` on, so a memory-mapped payload stays unread.
    """

    def view(record: Dict[str, Any]) -> np.ndarray:
        dtype, shape = np.dtype(record["dtype"]), tuple(record["shape"])
        start = record["offset"] - base
        stop = start + math.prod(shape) * dtype.itemsize
        if not 0 <= start <= stop <= data.size:
            raise ValueError(f"a tensor of layer {entry['name']!r} lies outside the payload")
        flat = data[start:stop].view(dtype)
        # the F-order reshape np.load makes, so the strides match too
        return flat.reshape(shape[::-1]).T if record["order"] == "F" else flat.reshape(shape)

    def maybe(record: Optional[Dict[str, Any]]) -> Optional[np.ndarray]:
        return None if record is None else view(record)

    _check_levels(entry, arch.cols_per_weight if mode == "analog" else 0, path)
    cell = arch.cell_spec()
    return LayerState(
        **{key: entry[key] for key in _LAYER_FIELDS},
        w_scales=view(entry["w_scales"]),
        g_min_s=cell.g_min_s,
        g_step_s=cell.g_step_s,
        bias=maybe(entry["bias"]),
        encoded=maybe(entry["encoded"]),
        levels=[view(record) for record in entry["levels"]],
    )


@dataclass
class ProgrammedState:
    """The programmed-chip state of one (model, arch, mode, seed).

    Produced by :func:`repro.engine.executor.program`; consumed by
    :meth:`repro.engine.executor.NetworkExecutor.from_state`.  Holds only
    plain numpy arrays and primitives, so it pickles, saves and memory-maps
    cleanly.  The state is noise-free by construction — per-trial programming
    variation is applied when an executor is wired from it.
    """

    model: str
    mode: str
    seed: int
    arch: ArchSpec
    layers: List[LayerState]
    #: where this state was loaded from or persisted to (``None`` for
    #: in-process states); set by :meth:`load` and
    #: :meth:`ProgrammedStateCache.ensure_on_disk`, and what makes
    #: :meth:`stream_layer` possible
    source_path: Optional[Path] = None
    #: ``source_path``'s manifest, parsed on the first :meth:`stream_layer`
    #: call
    _manifest: Optional[Dict[str, Any]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: a memory-mapped load's payload mapping, and the manifest entries (by
    #: position) of the layers whose CRC-32 :meth:`check_layer` has not
    #: checked yet
    _mapped: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )
    _unchecked: Dict[int, Dict[str, Any]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def key(self) -> str:
        """Content key of this state (see :func:`state_key`)."""
        return state_key(self.model, self.arch, self.mode, self.seed)

    @property
    def nbytes(self) -> int:
        """Total bytes of the stored tensors — cell levels (or ideal-mode
        ``encoded`` matrices), scales and biases: the save/load payload."""
        return sum(layer.nbytes for layer in self.layers)

    # -- persistence ----------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Write this state to directory ``path`` (atomic via rename).

        The directory holds a ``meta.json`` manifest and one payload file
        (see :func:`_write_layer` for the layout), so :meth:`load` can map
        it once and view each tensor by offset.  If ``path`` already exists
        when the rename lands, the existing entry wins — states are
        content-keyed, so a concurrent writer produced identical bytes and
        the tmp copy is simply discarded.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        layers_meta = []
        offset = 0
        with open(tmp / _PAYLOAD_NAME, "wb") as out:
            for layer in self.layers:
                entry, offset = _write_layer(out, offset, layer)
                layers_meta.append(entry)
        meta = {
            "format": STATE_FORMAT,
            "model": self.model,
            "mode": self.mode,
            "seed": self.seed,
            "key": self.key,
            "arch": {
                "rows": self.arch.rows,
                "cols": self.arch.cols,
                "cell_bits": self.arch.cell_bits,
                "weight_bits": self.arch.weight_bits,
                "input_bits": self.arch.input_bits,
                "r_min_ohm": self.arch.r_min_ohm,
                "r_max_ohm": self.arch.r_max_ohm,
                "t_del_s": self.arch.t_del_s,
                "v_dd": self.arch.v_dd,
            },
            "payload_bytes": offset,
            "layers": layers_meta,
        }
        (tmp / _META_NAME).write_text(json.dumps(meta, indent=2, sort_keys=True))
        try:
            os.replace(tmp, path)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)
            if not path.is_dir():  # pragma: no cover - genuine filesystem error
                raise
        return path

    @classmethod
    def load(cls, path: Union[str, Path], mmap: bool = False) -> "ProgrammedState":
        """Read a state saved by :meth:`save`.

        With ``mmap=False`` the payload is read once and every layer's
        CRC-32 checked.  With ``mmap=True`` the payload file is mapped
        read-only once and every tensor is a view by offset — the
        larger-than-RAM execution direction: nothing is read or checked
        yet, and an executor reads (and checks, see :meth:`check_layer`)
        each layer's pages once, when it wires the layer.  A corrupt
        payload — a CRC mismatch, a missing or truncated file, levels this
        build cannot have written (not unsigned integers, slices of one
        layer that differ in shape, a slice count the architecture does not
        use) — is refused with an :class:`EngineError` naming the file and
        the layer.
        """
        path = Path(path)
        meta_file = path / _META_NAME
        if not meta_file.is_file():
            raise EngineError(f"no programmed state at {path} (missing {_META_NAME})")
        try:
            meta = json.loads(meta_file.read_text())
        except (OSError, ValueError) as exc:
            # a torn/truncated manifest (crashed writer, disk-full) must
            # surface as a clear engine error naming the entry, not leak
            # json.JSONDecodeError to the caller
            raise EngineError(
                f"corrupt programmed state at {path}: cannot parse "
                f"{_META_NAME} ({exc})"
            ) from exc
        if not isinstance(meta, dict):
            raise EngineError(
                f"corrupt programmed state at {path}: {_META_NAME} is not a manifest"
            )
        if meta.get("format") != STATE_FORMAT:
            raise EngineError(
                f"programmed state at {path} has format {meta.get('format')!r}; "
                f"this build reads format {STATE_FORMAT}"
            )
        try:
            arch = ArchSpec(**meta["arch"])
            mode = meta["mode"]
            entries = meta["layers"]
            size = meta["payload_bytes"]
            data = _read_payload(path, 0, size, size, mmap)
            if not mmap:
                for entry in entries:
                    _check_crc(entry, data, 0, path)
            state = cls(
                model=meta["model"],
                mode=mode,
                seed=meta["seed"],
                arch=arch,
                layers=[
                    _layer_from_entry(entry, data, 0, path, arch, mode)
                    for entry in entries
                ],
                source_path=path,
            )
        except (KeyError, TypeError, OSError, ValueError) as exc:
            # missing manifest fields, a deleted payload file, or an
            # unbuildable ArchSpec: all the partially-written cases
            raise _corrupt(path, exc) from exc
        if mmap:
            state._mapped = data
            state._unchecked = dict(enumerate(entries))
        return state

    def check_layer(self, position: int) -> None:
        """Check layer ``position``'s CRC-32 in a memory-mapped payload, once.

        A memory-mapped :meth:`load` reads no payload page, so it checks
        nothing; a resident executor calls this as it wires each layer,
        whose cast reads every byte anyway.  A no-op for a layer already
        checked, an eagerly loaded state (checked by :meth:`load`) and an
        in-process one.
        """
        entry = self._unchecked.get(position)
        if entry is None or self._mapped is None or self.source_path is None:
            return
        _check_crc(entry, self._mapped, 0, Path(self.source_path))
        del self._unchecked[position]

    def stream_layer(self, position: int, mmap: bool = True) -> LayerState:
        """Layer ``position`` (index into ``layers``) on a **fresh mapping**.

        The stream-execution unit: for a disk-backed state this maps (by
        default; with ``mmap=False`` it reads) the layer's own byte range of
        the payload anew, independent of the resident ``layers`` list, and
        checks its CRC-32, so the caller can wire the layer, execute it, and
        drop every reference — the kernel then unmaps the pages and peak RSS
        stays bounded by the largest live layer instead of accumulating
        mapped pages across the whole network (which is what happens when
        one long-lived ``load(mmap=True)`` mapping serves every layer).  For
        an in-process state (``source_path is None``) this returns the
        resident layer unchanged — streaming degrades gracefully to the
        resident behaviour, with identical numbers.
        """
        template = self.layers[position]
        if self.source_path is None:
            return template
        path = Path(self.source_path)
        try:
            if self._manifest is None:
                self._manifest = json.loads((path / _META_NAME).read_text())
            entry = self._manifest["layers"][position]
            start, end = entry["range"]
            data = _read_payload(path, start, end, self._manifest["payload_bytes"], mmap)
            _check_crc(entry, data, start, path)
            return _layer_from_entry(entry, data, start, path, self.arch, self.mode)
        except (KeyError, IndexError, TypeError, OSError, ValueError) as exc:
            raise _corrupt(path, exc) from exc


class ProgrammedStateCache:
    """Program-once/run-many cache: in-memory LRU over an on-disk directory.

    ``root`` is the persistent cache directory (one content-keyed
    subdirectory per state; ``None`` keeps the cache memory-only).
    ``memory_entries`` bounds the resident LRU — deep models hold hundreds
    of megabytes of cell levels, so the default keeps only a few hot states
    in RAM and falls back to (optionally memory-mapped) disk loads for the
    rest.
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        memory_entries: int = 4,
        mmap: bool = False,
    ) -> None:
        if memory_entries < 0:
            raise ValueError("memory_entries must be non-negative")
        self.root = Path(root) if root is not None else None
        self.memory_entries = memory_entries
        self.mmap = mmap
        self._memory: "OrderedDict[str, ProgrammedState]" = OrderedDict()
        #: hit/miss counters by source, for reporting and tests
        self.counts = {"memory": 0, "disk": 0, "programmed": 0}
        #: corrupt on-disk entries evicted by :meth:`_lookup` (kept out of
        #: ``counts``, whose keys are the stable source vocabulary callers
        #: assert on; an eviction always shows up as a "programmed" miss)
        self.evicted = 0

    def path_for(self, key: str) -> Optional[Path]:
        """Disk location of ``key`` (``None`` for a memory-only cache)."""
        return self.root / key if self.root is not None else None

    def _remember(self, key: str, state: ProgrammedState) -> None:
        if self.memory_entries == 0:
            return
        self._memory[key] = state
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def get(self, key: str) -> Optional[ProgrammedState]:
        """The cached state for ``key``, or ``None`` (memory, then disk)."""
        state, _ = self._lookup(key)
        return state

    def _lookup(self, key: str) -> Tuple[Optional[ProgrammedState], Optional[str]]:
        if key in self._memory:
            self._memory.move_to_end(key)
            return self._memory[key], "memory"
        path = self.path_for(key)
        if path is not None and (path / _META_NAME).is_file():
            try:
                state = ProgrammedState.load(path, mmap=self.mmap)
            except EngineError:
                # a partially-written/corrupt entry (crashed writer) must
                # not fail the run: evict it and let the caller re-program —
                # the content-keyed save then atomically replaces the entry
                shutil.rmtree(path, ignore_errors=True)
                self.evicted += 1
                return None, None
            self._remember(key, state)
            return state, "disk"
        return None, None

    def put(self, state: ProgrammedState) -> Optional[Path]:
        """Insert ``state`` (memory + disk); returns its disk path, if any."""
        self._remember(state.key, state)
        return self.ensure_on_disk(state)

    def ensure_on_disk(self, state: ProgrammedState) -> Optional[Path]:
        """Persist ``state`` if this cache has a disk root (idempotent).

        A state without backing files records the entry as its
        ``source_path``, so it can stream from disk from then on.
        """
        path = self.path_for(state.key)
        if path is not None:
            if not (path / _META_NAME).is_file():
                state.save(path)
            if state.source_path is None:
                state.source_path = path
        return path

    def get_or_program(
        self,
        network: "Network",
        ctx: Optional["SimContext"] = None,
        mode: str = "analog",
        params: Optional["NetworkParams"] = None,
    ) -> Tuple[ProgrammedState, str]:
        """The state for ``(network, ctx, mode)``, programming on miss.

        Returns ``(state, source)`` with ``source`` one of ``"memory"``,
        ``"disk"`` or ``"programmed"`` — the cache-hit observability the CLI
        and CI smoke assert on.  ``ctx.noise`` never affects the lookup (the
        artifact is noise-free; variation is applied at executor wiring).
        """
        from repro.context import SimContext
        from repro.engine.executor import check_params, program

        ctx = ctx or SimContext()
        if params is not None:
            check_params(params, network, ctx.seed)
        key = state_key(network.name, ctx.arch, mode, ctx.seed)
        state, source = self._lookup(key)
        if state is None:
            state = program(network, ctx, mode, params=params)
            self.put(state)
            source = "programmed"
        self.counts[source] += 1
        return state, source
