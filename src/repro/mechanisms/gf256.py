"""GF(2^8) arithmetic and a systematic Cauchy-matrix erasure code.

Substrate for the forward-error-correction recovery mechanisms.  The field
is GF(256) with the AES/Rijndael-compatible primitive polynomial 0x11d.
Encoding and decoding are vectorised with numpy via a precomputed 256×256
multiplication table (64 KiB), so per-byte work is table lookups — the
"implement selected functions efficiently" guidance of §3(B)(4) applied to
the simulator itself.

The code is *systematic*: the k data shards are transmitted unmodified and
r parity shards are linear combinations ``parity_i = Σ_j C[i,j]·data_j``
with C a Cauchy matrix, every square submatrix of which is nonsingular —
hence ANY k of the k+r shards reconstruct the data (the property the
property-based tests in ``tests/mechanisms/test_gf256.py`` hammer).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

_PRIM = 0x11D

# --- log/antilog tables ------------------------------------------------
_EXP = np.zeros(512, dtype=np.uint8)
_LOG = np.zeros(256, dtype=np.int32)
_x = 1
for _i in range(255):
    _EXP[_i] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= _PRIM
_EXP[255:510] = _EXP[:255]  # wraparound so exp lookups skip a modulo

# --- full multiplication table (vectorised mul is MUL_TABLE[a][b]) -----
_ia = np.arange(256).reshape(-1, 1)
_ib = np.arange(256).reshape(1, -1)
_logsum = _LOG[_ia] + _LOG[_ib]
MUL_TABLE = _EXP[_logsum % 255].astype(np.uint8)
MUL_TABLE[0, :] = 0
MUL_TABLE[:, 0] = 0


def gf_mul(a: int, b: int) -> int:
    """Scalar product in GF(256)."""
    return int(MUL_TABLE[a, b])


def gf_inv(a: int) -> int:
    """Multiplicative inverse (a != 0)."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return int(_EXP[255 - _LOG[a]])


def gf_matmul(m: np.ndarray, shards: np.ndarray) -> np.ndarray:
    """(rows×k GF matrix) @ (k×L byte matrix) → rows×L byte matrix."""
    rows, k = m.shape
    out = np.zeros((rows, shards.shape[1]), dtype=np.uint8)
    for i in range(rows):
        acc = out[i]
        for j in range(k):
            c = int(m[i, j])
            if c:
                acc ^= MUL_TABLE[c][shards[j]]
    return out


def gf_solve(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``m @ x = rhs`` over GF(256) by Gauss-Jordan elimination.

    ``m`` is k×k, ``rhs`` is k×L; both are consumed (copied internally).
    """
    k = m.shape[0]
    a = m.astype(np.uint8).copy()
    b = rhs.astype(np.uint8).copy()
    for col in range(k):
        # pivot
        pivot = None
        for row in range(col, k):
            if a[row, col]:
                pivot = row
                break
        if pivot is None:
            raise np.linalg.LinAlgError("singular matrix over GF(256)")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        inv = gf_inv(int(a[col, col]))
        a[col] = MUL_TABLE[inv][a[col]]
        b[col] = MUL_TABLE[inv][b[col]]
        for row in range(k):
            if row != col and a[row, col]:
                c = int(a[row, col])
                a[row] ^= MUL_TABLE[c][a[col]]
                b[row] ^= MUL_TABLE[c][b[col]]
    return b


def cauchy_matrix(r: int, k: int) -> np.ndarray:
    """An r×k Cauchy matrix over GF(256): C[i,j] = 1/(x_i ⊕ y_j).

    ``x_i = k + i`` and ``y_j = j`` are disjoint, so every entry is defined
    and every square submatrix is invertible.  Requires ``k + r <= 256``.
    """
    if k + r > 256:
        raise ValueError("GF(256) erasure code supports at most 256 shards")
    c = np.zeros((r, k), dtype=np.uint8)
    for i in range(r):
        for j in range(k):
            c[i, j] = gf_inv((k + i) ^ j)
    return c


# ----------------------------------------------------------------------
# shard-level erasure code API
# ----------------------------------------------------------------------
def _pad_stack(shards: Sequence[bytes], length: int) -> np.ndarray:
    out = np.zeros((len(shards), length), dtype=np.uint8)
    for i, s in enumerate(shards):
        if len(s) > length:
            raise ValueError("shard longer than declared length")
        out[i, : len(s)] = np.frombuffer(s, dtype=np.uint8)
    return out


def rs_encode(data_shards: Sequence[bytes], r: int) -> List[bytes]:
    """Produce ``r`` parity shards for ``k`` data shards.

    Shards may have unequal lengths; they are zero-padded to the longest
    for coding (the decoder is told original lengths out of band — in the
    transport this metadata rides the PARITY PDU header).
    """
    if not data_shards:
        raise ValueError("need at least one data shard")
    if r < 1:
        raise ValueError("need at least one parity shard")
    k = len(data_shards)
    length = max(len(s) for s in data_shards)
    if length == 0:
        return [b"" for _ in range(r)]
    stack = _pad_stack(data_shards, length)
    parity = gf_matmul(cauchy_matrix(r, k), stack)
    return [parity[i].tobytes() for i in range(r)]


def rs_decode(
    k: int,
    r: int,
    shard_length: int,
    data: Dict[int, bytes],
    parity: Dict[int, bytes],
) -> List[bytes]:
    """Reconstruct all k data shards from any ≥k available shards.

    ``data`` maps data-shard index (0..k-1) to its bytes; ``parity`` maps
    parity index (0..r-1).  Raises ``ValueError`` when fewer than k shards
    are available.  Returned shards are padded to ``shard_length``; callers
    trim to original sizes.
    """
    if len(data) + len(parity) < k:
        raise ValueError(
            f"unrecoverable: have {len(data)}+{len(parity)} shards, need {k}"
        )
    if len(data) == k:
        return [
            (data[j] + b"\x00" * (shard_length - len(data[j])))
            for j in range(k)
        ]
    c = cauchy_matrix(r, k)
    rows: List[np.ndarray] = []
    values: List[bytes] = []
    # prefer data shards (identity rows keep the system well-conditioned)
    for j in sorted(data):
        e = np.zeros(k, dtype=np.uint8)
        e[j] = 1
        rows.append(e)
        values.append(data[j])
        if len(rows) == k:
            break
    for i in sorted(parity):
        if len(rows) == k:
            break
        rows.append(c[i])
        values.append(parity[i])
    m = np.stack(rows)
    rhs = _pad_stack(values, shard_length)
    solved = gf_solve(m, rhs)
    return [solved[j].tobytes() for j in range(k)]


def xor_encode(data_shards: Sequence[bytes]) -> bytes:
    """Single XOR parity shard over (padded) data shards."""
    length = max((len(s) for s in data_shards), default=0)
    if length == 0:
        return b""
    stack = _pad_stack(data_shards, length)
    acc = np.zeros(length, dtype=np.uint8)
    for row in stack:
        acc ^= row
    return acc.tobytes()


def xor_recover(present: Sequence[bytes], parity: bytes, length: int) -> bytes:
    """Recover the single missing shard from the others plus XOR parity."""
    acc = np.frombuffer(parity, dtype=np.uint8).copy()
    if len(acc) < length:
        acc = np.concatenate([acc, np.zeros(length - len(acc), dtype=np.uint8)])
    for s in present:
        arr = np.frombuffer(s, dtype=np.uint8)
        acc[: len(arr)] ^= arr
    return acc[:length].tobytes()
