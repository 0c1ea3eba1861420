"""The compiled kernel tier: ``readout.c`` built and bound through ctypes.

Build model
-----------
The C source ships inside the package.  ``load()`` finds a binary in this
order:

1. a cached shared object under ``REPRO_KERNEL_CACHE`` (default
   ``$XDG_CACHE_HOME/repro-kernels``), keyed by the SHA-256 of the source
   plus the compile flags, so editing ``readout.c`` can never run a stale
   binary,
2. a fresh compile of ``readout.c`` with the system C compiler
   (``REPRO_KERNEL_CC``, else ``cc``/``gcc``/``clang``) into that cache.

Any failure raises :class:`KernelBuildError`, which the dispatcher treats
as "tier unavailable" — a machine without a compiler silently keeps the
numpy tier.

``-ffp-contract=off`` is mandatory: it forbids fusing multiply+add into
FMA, which would otherwise round differently from numpy and break the
bit-for-bit contract the float64 equivalence tests enforce.

Call model
----------
Every wrapper below guards the compiled fast path: canonical dtypes
(float32/float64), sane shapes, element-addressable strides.  Calls
outside the fast path delegate to :mod:`repro.kernels.numpy_impl`, so this
module accepts exactly the same inputs as the reference and never changes
a result — only its speed.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.kernels import numpy_impl

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernels.dispatch import ReadoutScalars

#: must match repro_kernels_abi_version() in readout.c
ABI_VERSION = 5
#: flags the bit-for-bit contract depends on (see module docstring)
CFLAGS: Tuple[str, ...] = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

_i64 = ctypes.c_int64
_i32 = ctypes.c_int32
_f64 = ctypes.c_double
_void_p = ctypes.c_void_p


class KernelBuildError(RuntimeError):
    """The compiled tier could not be built or loaded."""


_lock = threading.Lock()
_lib: Optional[ctypes.CDLL] = None


def _source_path() -> Path:
    return Path(__file__).with_name("readout.c")


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_KERNEL_CACHE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-kernels"


def _compiler() -> str:
    env = os.environ.get("REPRO_KERNEL_CC")
    candidates = [env] if env else ["cc", "gcc", "clang"]
    for name in candidates:
        if name and shutil.which(name):
            return name
    raise KernelBuildError(
        "no C compiler found (set REPRO_KERNEL_CC or install cc/gcc/clang)"
    )


def build(verbose: bool = False) -> Path:
    """Compile ``readout.c`` into the cache (idempotent); return the path."""
    source = _source_path()
    text = source.read_bytes()
    compiler = _compiler()
    key = hashlib.sha256(
        b"|".join([text, " ".join(CFLAGS).encode(), compiler.encode(), sys.platform.encode()])
    ).hexdigest()[:16]
    cache = _cache_dir()
    target = cache / f"readout-{key}.so"
    if target.exists():
        return target
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(cache))
    os.close(fd)
    cmd = [compiler, *CFLAGS, "-o", tmp, str(source)]
    if verbose:
        print("+", " ".join(cmd))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise KernelBuildError(
                f"C kernel compile failed ({' '.join(cmd)}):\n{proc.stderr.strip()}"
            )
        os.replace(tmp, target)  # atomic: concurrent builders converge
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _bind(path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    lib.repro_kernels_abi_version.restype = _i64
    lib.repro_kernels_abi_version.argtypes = []
    version = lib.repro_kernels_abi_version()
    if version != ABI_VERSION:
        raise KernelBuildError(
            f"{path} exports kernel ABI v{version}, this build needs v{ABI_VERSION}"
        )
    fused = [
        _void_p, _void_p,  # charges, delay_sums
        _i64, _i64, _i64, _i64, _i64,  # T, S, G, P, C
        _i64, _i64, _i64, _i64, _i64,  # charge strides
        _i64, _i64, _i64,  # delay_sum strides
        _f64, _f64, _f64, _f64, _f64, _f64,  # chain scalars
        _f64, _i32,  # saturation, has_saturation
        _void_p, _void_p,  # shifts, rec_out
        _i64, _i64, _i64,  # rec_out strides
    ]
    levels = [
        _void_p,  # products
        _i64, _i64, _i64, _i64, _i64,  # T, S, G, P, C
        _i64, _i64, _i64, _i64, _i64,  # product strides
        _f64, _f64, _f64, _f64, _f64, _f64,  # chain scalars
        _f64, _i32,  # saturation, has_saturation
        _void_p, _void_p,  # shifts, rec_out
        _i64, _i64, _i64,  # rec_out strides
    ]
    im2col = [_void_p] + [_i64] * 13 + [_void_p]
    signatures = [
        ("readout_fused_f64", fused, None),
        ("readout_fused_f32", fused, None),
        ("readout_levels_f64", levels, None),
        ("readout_levels_f32", levels, None),
    ]
    for src in ("f64", "f32"):
        for dst in ("f64", "f32"):
            signatures.append((f"im2col_{src}_{dst}", im2col, _i32))
    quantize = [_void_p, _i64, _i64, _i64, _void_p, _void_p]
    for suffix in _QUANTIZE_SUFFIX.values():
        signatures.append((f"quantize_channels_{suffix}", quantize, _i64))
    for name, argtypes, restype in signatures:
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = argtypes
    return lib


def load() -> ctypes.CDLL:
    """The bound library, building it on first use.  May raise."""
    global _lib
    if _lib is not None:
        return _lib
    with _lock:
        if _lib is not None:
            return _lib
        _lib = _bind(build())
        return _lib


_SUPPORTED = (np.dtype(np.float64), np.dtype(np.float32))
#: dtype -> the suffix of the compiled variant serving it
_SUFFIX = {np.dtype(np.float64): "f64", np.dtype(np.float32): "f32"}
#: quantiser value dtype -> the suffix of the compiled variant serving it
_QUANTIZE_SUFFIX = {np.dtype(np.int8): "i8", np.dtype(np.int16): "i16"}


def _element_strides(a: np.ndarray) -> List[int]:
    return [s // a.itemsize for s in a.strides]


def _addressable(a: np.ndarray) -> bool:
    """Every stride is a whole number of elements."""
    return not any(s % a.itemsize for s in a.strides)


def _fast_path_ok(
    charges: np.ndarray,
    delay_sums: Optional[np.ndarray],
    out: Optional[np.ndarray],
    shifts: Optional[np.ndarray],
    recombine_out: Optional[np.ndarray],
) -> bool:
    """Whether this call fits the compiled packed-stack layout."""
    if not isinstance(charges, np.ndarray) or charges.ndim != 5:
        return False
    if charges.dtype not in _SUPPORTED or not _addressable(charges):
        return False
    tiles, slices, groups, pos, cols = charges.shape
    if delay_sums is not None:
        if not isinstance(delay_sums, np.ndarray) or delay_sums.dtype != charges.dtype:
            return False
        if delay_sums.shape != (tiles, 1, groups, pos, 1):
            return False
        if not _addressable(delay_sums):
            return False
    if out is not None and out is not charges:
        if (
            not isinstance(out, np.ndarray)
            or out.shape != charges.shape
            or out.dtype != charges.dtype
            or not _addressable(out)
        ):
            return False
    if shifts is not None:
        if recombine_out is None or recombine_out.dtype != np.float64:
            return False
        if recombine_out.shape != (groups, pos, cols):
            return False
        if not _addressable(recombine_out):
            return False
        if np.asarray(shifts).shape != (slices,):
            return False
    return True


def readout_fused(
    charges: np.ndarray,
    delay_sums: Optional[np.ndarray],
    scalars: "ReadoutScalars",
    out: Optional[np.ndarray] = None,
    saturation: Optional[float] = None,
    shifts: Optional[np.ndarray] = None,
    recombine_out: Optional[np.ndarray] = None,
) -> np.ndarray:
    if not _fast_path_ok(charges, delay_sums, out, shifts, recombine_out):
        return numpy_impl.readout_fused(
            charges,
            delay_sums,
            scalars,
            out=out,
            saturation=saturation,
            shifts=shifts,
            recombine_out=recombine_out,
        )
    lib = load()
    if out is None:
        work = charges.copy()
    elif out is charges:
        work = charges
    else:
        np.copyto(out, charges)
        work = out
    tiles, slices, groups, pos, cols = work.shape
    ch = _element_strides(work)
    if shifts is not None:
        shift_weights = np.ascontiguousarray(np.asarray(shifts, dtype=np.float64))
        rec = recombine_out
        rec_strides = _element_strides(rec)
        shifts_ptr = shift_weights.ctypes.data
        rec_ptr = rec.ctypes.data
    else:
        shifts_ptr = None
        rec_ptr = None
        rec_strides = [0, 0, 0]
    tail = (
        scalars.capacitance_f,
        scalars.v_threshold,
        scalars.phase2_scale,
        scalars.full_scale_s,
        scalars.lsb_s,
        0.0 if saturation is None else saturation * scalars.dot_max,
        0 if saturation is None else 1,
        shifts_ptr,
        rec_ptr,
        rec_strides[0], rec_strides[1], rec_strides[2],
    )
    suffix = _SUFFIX[work.dtype]
    if delay_sums is None:
        getattr(lib, f"readout_levels_{suffix}")(
            work.ctypes.data,
            tiles, slices, groups, pos, cols,
            ch[0], ch[1], ch[2], ch[3], ch[4],
            scalars.level_coeff,
            *tail,
        )
        return work
    ds = _element_strides(delay_sums)
    getattr(lib, f"readout_fused_{suffix}")(
        work.ctypes.data,
        delay_sums.ctypes.data,
        tiles, slices, groups, pos, cols,
        ch[0], ch[1], ch[2], ch[3], ch[4],
        ds[0], ds[2], ds[3],
        scalars.offset_coeff,
        *tail,
    )
    return work


def im2col_pack(
    x: np.ndarray,
    kernel: int,
    stride: int = 1,
    pad: int = 0,
    dtype: Optional[np.dtype] = None,
) -> Tuple[np.ndarray, int, int]:
    out_dtype = np.dtype(getattr(x, "dtype", None) if dtype is None else dtype)
    if (
        not isinstance(x, np.ndarray)
        or x.ndim != 4
        or x.dtype not in _SUPPORTED
        or out_dtype not in _SUPPORTED
        or not _addressable(x)
        or kernel <= 0
        or stride <= 0
        or pad < 0
    ):
        return numpy_impl.im2col_pack(x, kernel, stride=stride, pad=pad, dtype=dtype)
    n, channels, height, width = x.shape
    out_h = (height + 2 * pad - kernel) // stride + 1
    out_w = (width + 2 * pad - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError("kernel/stride/pad combination produces empty output")
    lib = load()
    cols = np.empty((n * out_h * out_w, channels * kernel * kernel), dtype=out_dtype)
    sn, sc, sh, sw = _element_strides(x)
    fn = getattr(lib, f"im2col_{_SUFFIX[x.dtype]}_{_SUFFIX[out_dtype]}")
    if fn(
        x.ctypes.data, n, channels, height, width, sn, sc, sh, sw,
        kernel, stride, pad, out_h, out_w, cols.ctypes.data,
    ):
        raise MemoryError("im2col offset table allocation failed")
    return cols, out_h, out_w


def quantize_channels(channels: np.ndarray, bits: int) -> Tuple[np.ndarray, np.ndarray]:
    qmax = 2 ** (bits - 1) - 1
    dtype = np.min_scalar_type(-qmax)
    if (
        not isinstance(channels, np.ndarray)
        or channels.ndim != 2
        or channels.dtype != np.float64
        or not channels.flags.c_contiguous
        or dtype not in _QUANTIZE_SUFFIX
    ):
        return numpy_impl.quantize_channels(channels, bits)
    lib = load()
    n, width = channels.shape
    values = np.empty((n, width), dtype=dtype)
    scales = np.empty(n)
    bad = getattr(lib, f"quantize_channels_{_QUANTIZE_SUFFIX[dtype]}")(
        channels.ctypes.data, n, width, qmax, values.ctypes.data, scales.ctypes.data
    )
    if bad:
        raise ValueError(numpy_impl.non_finite_message(bad - 1))
    return values, scales
