"""CRC32C (Castagnoli) for snapshot integrity sections.

Every section of a snapshot file — the header, the two term
dictionaries, the array table and each CSR array — carries a CRC32C,
and so do continuation tokens (``RPCT``) and solver checkpoints
(``RPCK``).  CRC32C is the checksum iSCSI, ext4 and most storage
formats use for this job: a better error-detection spectrum than
CRC32/zlib for short messages at the same cost.

Two implementations produce the same bytes:

* a scalar slice-by-8 loop (:func:`_crc32c_scalar`): eight 256-entry
  tables, one loop iteration per eight input bytes.  It handles short
  inputs and tails, and is the oracle the tests hold the vector path
  to;
* a NumPy path for inputs of at least :data:`_MIN_VECTOR_LANES`
  64-byte lanes.  It runs the same slice-by-8 step over every lane at
  once (lane 0 starts from the running value, every other lane from
  zero), looking up two bytes at a time in tables that merge two of
  the eight.  It then folds the lane registers pairwise in a log2
  tree.  The fold is zlib's ``crc32_combine``: CRC is linear over
  GF(2), so ``crc(A || B) = advance(crc(A), len(B)) ^ crc0(B)``, where
  ``advance`` feeds ``len(B)`` zero bytes through the register.  Each
  tree level's ``advance`` is a fixed 32x32 GF(2) matrix, applied as
  four byte-indexed 256-entry tables built once per level and cached.

Opening a snapshot label checks its arrays against their CRCs, so
the checksum sets most of the cost of a label's first touch.
"""

from __future__ import annotations

import functools
from typing import List, Tuple

import numpy as np

_POLY = 0x82F63B78  # Castagnoli polynomial, reflected

#: Bytes per lane of the vector path (eight slice-by-8 steps).
_LANE = 64
#: Inputs shorter than this many lanes (1408 bytes) take the scalar
#: loop: below it the vector path's fixed ~0.2 ms of NumPy calls costs
#: more than the bytes (measured crossover, 1.3-1.4 KiB).
_MIN_VECTOR_LANES = 22
#: Lanes per pass of the vector path: 1 MiB of input, so the column
#: copy and every temporary stay cache-sized.
_CHUNK_LANES = 1 << 14


def _build_tables():
    tables = [[0] * 256 for _ in range(8)]
    table0 = tables[0]
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        table0[i] = crc
    for i in range(256):
        crc = table0[i]
        for t in range(1, 8):
            crc = table0[crc & 0xFF] ^ (crc >> 8)
            tables[t][i] = crc
    return tables


_TABLES = _build_tables()
_T0, _T1, _T2, _T3, _T4, _T5, _T6, _T7 = _TABLES
#: The same eight tables as one ``(8, 256)`` uint32 array.
_NP_TABLES = np.array(_TABLES, dtype=np.uint32)


def _crc32c_scalar(data, value: int = 0) -> int:
    """CRC32C of ``data`` continuing from ``value``, one slice-by-8
    step per eight bytes."""
    crc = (value ^ 0xFFFFFFFF) & 0xFFFFFFFF
    data = memoryview(data).cast("B")
    length = len(data)
    head = length & ~7
    i = 0
    while i < head:
        crc ^= (
            data[i]
            | (data[i + 1] << 8)
            | (data[i + 2] << 16)
            | (data[i + 3] << 24)
        )
        crc = (
            _T7[crc & 0xFF]
            ^ _T6[(crc >> 8) & 0xFF]
            ^ _T5[(crc >> 16) & 0xFF]
            ^ _T4[(crc >> 24) & 0xFF]
            ^ _T3[data[i + 4]]
            ^ _T2[data[i + 5]]
            ^ _T1[data[i + 6]]
            ^ _T0[data[i + 7]]
        )
        i += 8
    while i < length:
        crc = _T0[(crc ^ data[i]) & 0xFF] ^ (crc >> 8)
        i += 1
    return crc ^ 0xFFFFFFFF


#: ``_BYTE_BITS[v, k]``: whether bit ``k`` of byte value ``v`` is set.
_BYTE_BITS = (np.arange(256)[:, np.newaxis] >> np.arange(8)) & 1 == 1


def _byte_tables(images: np.ndarray) -> np.ndarray:
    """The tables of the GF(2) operator whose image of bit ``k`` is
    ``images[k]``, as one flat array of four 256-entry tables:
    ``op(x)`` is the XOR of table ``b`` at byte ``b`` of ``x``."""
    selected = np.where(_BYTE_BITS, images.reshape(4, 1, 8), np.uint32(0))
    return np.bitwise_xor.reduce(selected, axis=2).reshape(-1)


#: Where each byte's table starts in the flat tables.
_TABLE_STARTS = np.arange(4, dtype=np.intp) * 256


def _apply(tables: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The operator of flat ``tables`` applied to every uint32 of
    ``x``: one gather of all four bytes, then three XORs."""
    looked_up = tables.take(
        x.astype("<u4").view(np.uint8).reshape(-1, 4) + _TABLE_STARTS
    )
    return (
        looked_up[:, 0] ^ looked_up[:, 1] ^ looked_up[:, 2] ^ looked_up[:, 3]
    )


#: The 32 basis vectors: bit ``k`` set in entry ``k``.
_UNIT = np.left_shift(np.uint32(1), np.arange(32, dtype=np.uint32))


def _first_advance() -> np.ndarray:
    """Tables of ``advance`` by one lane (64 zero bytes)."""
    images = _UNIT
    table0 = _NP_TABLES[0]
    for _ in range(_LANE):
        images = table0[images & 0xFF] ^ (images >> 8)
    return _byte_tables(images)


def _advance_levels(count: int) -> List[np.ndarray]:
    """Tables of ``advance`` by ``64 * 2**j`` zero bytes for each
    ``j < count``; each level squares the one before."""
    levels = [_first_advance()]
    while len(levels) < count:
        images = _apply(levels[-1], _apply(levels[-1], _UNIT))
        levels.append(_byte_tables(images))
    return levels


def _wide(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Two byte tables merged into one table over a 16-bit index:
    ``wide[x] = low[x & 0xFF] ^ high[x >> 8]``."""
    return (low[np.newaxis, :] ^ high[:, np.newaxis]).reshape(-1)


@functools.cache
def _vector_tables() -> Tuple[Tuple[np.ndarray, ...], List[np.ndarray]]:
    """The vector path's tables, built on its first call (1.2 MiB that
    a process which never checksums a large input does not pay for).

    * The slice-by-8 step looks up two bytes at a time: the register
      XOR the step's low word indexes the first two merged tables, the
      high word the last two (half the gathers of eight byte lookups).
    * Fold level ``j`` joins two runs of ``2**j`` lanes; 40 levels
      cover inputs up to 64 TiB.

    Nothing writes them afterwards, and two threads racing on the
    first call build equal tables, so callers need no lock.
    """
    wide = tuple(
        _wide(_NP_TABLES[t], _NP_TABLES[t - 1]) for t in (7, 5, 3, 1)
    )
    return wide, _advance_levels(40)


def _lane_registers(data: np.ndarray, crc: int) -> np.ndarray:
    """The raw register of every 64-byte lane of ``data`` (uint8, a
    whole number of lanes): lane 0 fed from register ``crc``, every
    other lane from zero."""
    words = data.view("<u4").reshape(-1, _LANE // 4)
    n_lanes = words.shape[0]
    registers = np.zeros(n_lanes, dtype=np.uint32)
    registers[0] = crc
    width = min(n_lanes, _CHUNK_LANES)
    columns = np.empty((_LANE // 4, width), dtype=np.uint32)
    scratch = np.empty((3, width), dtype=np.uint32)
    t_lo0, t_lo1, t_hi0, t_hi1 = _vector_tables()[0]
    for start in range(0, n_lanes, _CHUNK_LANES):
        chunk = words[start:start + _CHUNK_LANES]
        k = chunk.shape[0]
        # Column-major, so each step reads one contiguous word per lane.
        cols = columns[:, :k]
        np.copyto(cols, chunk.T)
        register = registers[start:start + k]
        lo, idx, hit = scratch[:, :k]
        for step in range(0, _LANE // 4, 2):
            hi = cols[step + 1]
            np.bitwise_xor(register, cols[step], out=lo)
            np.bitwise_and(lo, 0xFFFF, out=idx)
            np.take(t_lo0, idx, out=register)
            np.right_shift(lo, 16, out=idx)
            np.take(t_lo1, idx, out=hit)
            np.bitwise_xor(register, hit, out=register)
            np.bitwise_and(hi, 0xFFFF, out=idx)
            np.take(t_hi0, idx, out=hit)
            np.bitwise_xor(register, hit, out=register)
            np.right_shift(hi, 16, out=idx)
            np.take(t_hi1, idx, out=hit)
            np.bitwise_xor(register, hit, out=register)
    return registers


def _fold(registers: np.ndarray) -> int:
    """One register from per-lane registers, left to right."""
    # Zero registers in front pad the count to a power of two: a zero
    # register over zero bytes stays zero, so the fold is unchanged.
    width = 1 << (registers.size - 1).bit_length()
    if width != registers.size:
        registers = np.concatenate(
            (np.zeros(width - registers.size, dtype=np.uint32), registers)
        )
    levels = iter(_vector_tables()[1])
    while registers.size > 1:
        registers = _apply(next(levels), registers[0::2]) ^ registers[1::2]
    return int(registers[0])


def crc32c(data, value: int = 0) -> int:
    """CRC32C of ``data`` (any buffer), optionally continuing from
    ``value``."""
    view = memoryview(data).cast("B")
    n_lanes = len(view) // _LANE
    if n_lanes < _MIN_VECTOR_LANES:
        return _crc32c_scalar(view, value)
    head = n_lanes * _LANE
    crc = _fold(_lane_registers(
        np.frombuffer(view, dtype=np.uint8, count=head),
        (value ^ 0xFFFFFFFF) & 0xFFFFFFFF,
    ))
    return _crc32c_scalar(view[head:], crc ^ 0xFFFFFFFF)
