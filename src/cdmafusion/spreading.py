"""Random binary signature matrices for the shared-bandwidth uplink.

Entries take the two values +-1/sqrt(N) with equal probability, so every
column (one sensor's signature waveform) has unit norm.  Generation is a
pure function of (N, Ns, seed): a counter-based Philox stream is consumed
one draw per entry, sensor by sensor, so enlarging Ns under a fixed seed
keeps all earlier columns unchanged.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .core import check_count, check_seed
from .errors import DimensionMismatch, InvalidParam, InvalidSpreadingMatrix, ParseError

GENERATOR_ID = "philox4x64-colmajor-v1"

_NORM_TOL = 1e-12
_ENTRY_RTOL = 1e-12
_SIGN_BIT = np.uint64(1 << 63)
_STREAMS = threading.local()  # one Philox bit generator per thread, re-keyed per draw


@dataclass(frozen=True, eq=False)
class SpreadingMatrix:
    """An N x Ns signature matrix with entries +-1/sqrt(N), or a stack of them.

    entries is read-only; seed records the generator seed when the matrix
    was drawn by generate(), and is None for externally supplied matrices.
    N and Ns are the last two axes of entries, so a (k, N, Ns) stack, as
    sweep-grid's blocks build, reports the size of each of its matrices.
    Equality is identity, so == never compares entries.
    """

    entries: np.ndarray = field(repr=False)
    seed: int | None = None

    @property
    def N(self) -> int:
        return self.entries.shape[-2]

    @property
    def Ns(self) -> int:
        return self.entries.shape[-1]


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


def _philox(seed: int) -> np.random.Philox:
    """This thread's Philox bit generator, in the state Philox(key=seed) starts in.

    Setting the state of a kept generator takes a fraction of the time of
    building Philox(key=seed), whose constructor also reads OS entropy that
    a keyed stream never uses.
    """
    bitgen = getattr(_STREAMS, "philox", None)
    if bitgen is None:
        bitgen = _STREAMS.philox = np.random.Philox(key=0)
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64), "key": np.array([seed, 0], np.uint64)},
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bitgen


def generate(N: int, Ns: int, seed: int, *, out: np.ndarray | None = None) -> SpreadingMatrix:
    """Draw an N x Ns signature matrix from the frozen Philox stream.

    One uniform draw per entry, consumed in sensor-major order: the first
    N draws fill column 0, the next N fill column 1, and so on.  Identical
    (N, Ns, seed) triples give bit-identical matrices, and
    generate(N, Ns + k, seed) extends generate(N, Ns, seed) by k columns.

    `out`, when given, is a writable C-contiguous float64 array of shape
    (N, Ns), such as one slice of a (k, N, Ns) stack: the entries are
    written into it, and the returned matrix holds a read-only view of it.
    Nothing outside `out` is written.  Otherwise a new array is allocated.
    """
    N = check_count("N", N, "spreading length")
    Ns = check_count("Ns", Ns, "sensor count")
    seed = check_seed(seed)
    if out is None:
        out = np.empty((N, Ns), np.float64)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64
              and out.flags.c_contiguous and out.flags.writeable):
        raise InvalidParam("out", type(out).__name__, "out must be a writable C-contiguous float64 array")
    elif out.shape != (N, Ns):
        raise DimensionMismatch(f"out has shape {out.shape}, expected ({N}, {Ns})")
    # one 64-bit word per entry keeps the stream position independent of
    # dtype buffering, which is what makes the column-extension property hold
    raw = _philox(seed).random_raw(Ns * N).reshape(Ns, N)
    # the uniform draw is u = (x >> 11) * 2**-53, so u >= 0.5 (the positive
    # entry; u == 0.5 included) exactly when bit 63 of x is set: the entry's
    # sign bit is that bit's complement, and its other bits are 1/sqrt(N)'s,
    # so keeping bit 63 and flipping it with the sign bit of -1/sqrt(N) sets both
    bits = out.view(np.uint64)
    np.bitwise_and(raw.T, _SIGN_BIT, out=bits)
    bits ^= np.float64(-1.0 / math.sqrt(N)).view(np.uint64)
    entries = out.view()
    entries.setflags(write=False)
    return SpreadingMatrix(entries=entries, seed=seed)


def load(matrix, seed: int | None = None) -> SpreadingMatrix:
    """Wrap an externally supplied matrix after checking the alphabet.

    Every entry must equal +1/sqrt(N) or -1/sqrt(N) up to relative
    rounding of 1e-12, and every column norm must be 1 within 1e-12.  A
    seed, when given, must be an integer in [0, 2**64).
    """
    seed = None if seed is None else check_seed(seed)
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise InvalidSpreadingMatrix(f"expected a non-empty 2-D matrix, got shape {arr.shape}")
    N = arr.shape[0]
    scale = 1.0 / math.sqrt(N)
    # comparisons against NaN are False, so non-finite entries need their own check
    bad = ~np.isfinite(arr) | (np.abs(np.abs(arr) - scale) > _ENTRY_RTOL * scale)
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        raise InvalidSpreadingMatrix(
            f"entry ({i}, {j}) = {arr[i, j]!r} is not +-1/sqrt({N})", row=i, col=j
        )
    norms2 = np.sum(arr * arr, axis=0)
    off = np.abs(norms2 - 1.0) > _NORM_TOL
    if off.any():
        j = int(np.argwhere(off)[0][0])
        raise InvalidSpreadingMatrix(
            f"column {j} has squared norm {norms2[j]!r}, expected 1", col=j
        )
    return SpreadingMatrix(entries=_freeze(arr), seed=seed)


def save_csv(sm: SpreadingMatrix, path) -> None:
    """Write a signature matrix as CSV with a metadata comment header.

    Entries are printed with 17 significant digits, so load_csv recovers
    the exact doubles.
    """
    lines = [
        f"# N={sm.N} Ns={sm.Ns} seed={'none' if sm.seed is None else sm.seed} generator={GENERATOR_ID}"
    ]
    for row in sm.entries:
        lines.append(",".join(f"{v:.17g}" for v in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_csv(path) -> SpreadingMatrix:
    """Read a signature matrix written by save_csv (or compatible CSV).

    The metadata header is optional; when present its seed is restored.
    The matrix and the seed pass through the same validation as load().
    """
    seed: int | None = None
    rows: list[list[float]] = []
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not ASCII text: {exc}") from None
    for lineno, raw in enumerate(text.split("\n"), start=1):  # read() turns \r\n and \r into \n
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for tok in line[1:].split():
                if tok.startswith("seed=") and tok != "seed=none":
                    try:
                        seed = int(tok[len("seed="):])
                    except ValueError as exc:
                        raise ParseError(f"{path}: bad seed token {tok!r} on line {lineno}") from exc
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise ParseError(f"{path}: non-numeric entry on line {lineno}") from exc
    if not rows:
        raise ParseError(f"{path}: no matrix rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError(f"{path}: ragged rows, expected {width} columns throughout")
    return load(np.asarray(rows, dtype=np.float64), seed=seed)
