"""Polar encoding and SC/SCL decoding over LLRs.

Everything works in natural bit order (no bit-reversal permutation); the
frozen mask uses the same order. Decoders are batched over frames; a single
frame is a (1, N) batch.
Both decoders keep one LLR and one partial-sum array per tree level, the
channel LLRs being level n, the top of the tree. Levels are stored leaf
first, (2**l, B) in SC and (2**l, B, P) in SCL, so the halves f and g read
are contiguous slabs and partial sums fold along axis 0. Each f/g result and
each folded partial-sum block is bound to its level as a new array. f and g
work on sign bits: f ORs the XOR of the operands' sign bits into
min(|a|, |b|), g flips a's sign bit where u = 1 and adds b, which gives the
bits of copysign(min(|a|, |b|), a * b) and b + (1 - 2u) * a for any finite
input. SCL adds a path axis and, per level, a path-pointer array, so a fork
re-points paths (Tal & Vardy's lazy copy) and a level is gathered only when
read. A fork keeps the P smallest of 2P candidate metrics, ties to the lower
fork index. Metrics are +0.0 or more, so their int64 bits order as their
values: wide forks sort one key per candidate, those bits less the sign bit
and the low bits, which hold the column; rows whose first P + 1 keys tie
above the column or hold a NaN take the stable argsort. SC keeps its own
loop as the reference that SCL with list size 1 is tested against.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument

__all__ = [
    "CodeSpec",
    "FrozenMask",
    "DecoderConfig",
    "encode",
    "polar_transform",
    "sc_decode_batch",
    "scl_decode_batch",
    "genie_leaf_llrs",
]


@dataclass(frozen=True)
class CodeSpec:
    """An (N, K) polar code. N = 1 with K = 1 is the uncoded bypass."""

    n_bits: int
    k_info: int

    def __post_init__(self):
        n, k = self.n_bits, self.k_info
        if n < 1 or (n & (n - 1)) != 0:
            raise InvalidArgument(f"N must be a power of two, got {n}")
        if n == 1:
            if k != 1:
                raise InvalidArgument("N=1 bypass requires K=1")
        elif not 0 < k < n:
            raise InvalidArgument(f"need 0 < K < N, got K={k}, N={n}")

    @property
    def stages(self) -> int:
        return self.n_bits.bit_length() - 1

    @property
    def rate(self) -> float:
        return self.k_info / self.n_bits


@dataclass
class FrozenMask:
    """Frozen-bit flags, one per position; 1 = frozen, 0 = information."""

    bits: np.ndarray

    def __post_init__(self):
        self.bits = np.ascontiguousarray(self.bits, dtype=np.uint8)
        if self.bits.ndim != 1:
            raise InvalidArgument("mask must be one-dimensional")
        if np.any(self.bits > 1):
            raise InvalidArgument("mask entries must be 0 or 1")

    @property
    def frozen_count(self) -> int:
        return int(self.bits.sum())

    def info_positions(self) -> np.ndarray:
        return np.flatnonzero(self.bits == 0)

    def validate_for(self, spec: CodeSpec) -> None:
        if self.bits.size != spec.n_bits:
            raise InvalidArgument(
                f"mask length {self.bits.size} != N {spec.n_bits}")
        if self.frozen_count != spec.n_bits - spec.k_info:
            raise InvalidArgument(
                f"mask has {self.frozen_count} frozen bits, "
                f"expected {spec.n_bits - spec.k_info}")


@dataclass(frozen=True)
class DecoderConfig:
    """Decoder selection: SC, or SCL with a given list size.

    metric_mode 'approximate' adds |llr| on sign contradictions; 'exact'
    adds ln(1 + exp(-(1-2u) llr)). node_mode 'min_sum_f' is the usual
    hardware f; 'exact_f' is the boxplus rule (needed for ML equivalence).
    """

    algorithm: str = "scl"
    list_size: int = 1
    metric_mode: str = "approximate"
    node_mode: str = "min_sum_f"

    def __post_init__(self):
        if self.algorithm not in ("sc", "scl"):
            raise InvalidArgument(f"unknown algorithm {self.algorithm!r}")
        if self.list_size < 1:
            raise InvalidArgument("list_size must be >= 1")
        if self.algorithm == "sc" and self.list_size != 1:
            raise InvalidArgument("algorithm 'sc' needs list_size 1")
        if self.metric_mode not in ("exact", "approximate"):
            raise InvalidArgument(f"unknown metric_mode {self.metric_mode!r}")
        if self.node_mode not in ("exact_f", "min_sum_f"):
            raise InvalidArgument(f"unknown node_mode {self.node_mode!r}")


# ---------------------------------------------------------------------------
# encoding


def polar_transform(u: np.ndarray) -> np.ndarray:
    """Apply F^{(x)n} over GF(2) to the last axis (an involution)."""
    x = np.array(u, dtype=np.uint8, copy=True)
    n = x.shape[-1]
    if n & (n - 1):
        raise InvalidArgument("length must be a power of two")
    h = 1
    while h < n:
        x = x.reshape(x.shape[:-1] + (n // (2 * h), 2, h))
        x[..., 0, :] ^= x[..., 1, :]
        x = x.reshape(x.shape[:-3] + (n,))
        h *= 2
    return x


def encode(spec: CodeSpec, mask: FrozenMask, payload: np.ndarray) -> np.ndarray:
    """Encode K payload bits into an N-bit codeword (frozen bits zero)."""
    mask.validate_for(spec)
    payload = np.asarray(payload, dtype=np.uint8)
    if payload.shape[-1] != spec.k_info:
        raise InvalidArgument(
            f"payload length {payload.shape[-1]} != K {spec.k_info}")
    u = np.zeros(payload.shape[:-1] + (spec.n_bits,), dtype=np.uint8)
    u[..., mask.info_positions()] = payload
    if spec.n_bits == 1:
        return u
    return polar_transform(u)


# ---------------------------------------------------------------------------
# node functions


def _f_min_sum(a, b):
    # copysign(min(|a|, |b|), a * b): a * b has the XOR of the sign bits
    m = np.abs(a)
    np.minimum(m, np.abs(b), out=m)
    sign = a.view(np.int64) ^ b.view(np.int64)
    sign &= -1 << 63  # keep the sign bit
    np.bitwise_or(m.view(np.int64), sign, out=m.view(np.int64))
    return m


def _f_exact(a, b):
    # boxplus: log((1 + e^{a+b}) / (e^a + e^b)), stable via logaddexp
    return np.logaddexp(0.0, a + b) - np.logaddexp(a, b)


def _g(a, b, u):
    # b + (1 - 2u) * a: flip a's sign bit where u = 1 (u has the full shape)
    s = u.astype(np.int64)
    s <<= 63
    s ^= a.view(np.int64)
    return np.add(s.view(np.float64), b, out=s.view(np.float64))


_F_FUNCS = {"min_sum_f": _f_min_sum, "exact_f": _f_exact}


def _checked_llrs(spec: CodeSpec, llrs: np.ndarray) -> np.ndarray:
    """The LLRs as a float64 (B, N) array, checked for shape and finiteness."""
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.ndim != 2 or llrs.shape[1] != spec.n_bits:
        raise InvalidArgument(
            f"LLRs must have shape (B, {spec.n_bits}), got {llrs.shape}")
    if not np.all(np.isfinite(llrs)):
        raise InvalidArgument("LLRs must be finite")
    return llrs


# ---------------------------------------------------------------------------
# SC (batched)


def sc_decode_batch(
    spec: CodeSpec,
    mask: FrozenMask,
    llrs: np.ndarray,
    node_mode: str = "min_sum_f",
    genie_zero: bool = False,
) -> np.ndarray:
    """SC-decode a (B, N) batch of LLR frames; returns (B, K) payload bits.

    With genie_zero=True the transmitted word is assumed all-zero, every
    decision is forced to 0 after recording whether the raw decision would
    have erred, and the returned array is the (B, N) per-position error
    indicator instead of the payload.
    """
    mask.validate_for(spec)
    llrs = _checked_llrs(spec, llrs)
    B, N = llrs.shape
    f_func = _F_FUNCS[node_mode]
    n = spec.stages
    # per-level active blocks, (2**l, B) at level l; level n is the channel
    llr_lvl = [None] * n + [np.ascontiguousarray(llrs.T)]
    sums = [None] * n
    u_hat = np.empty((B, N), dtype=np.uint8)
    errs = np.zeros((B, N), dtype=np.uint8) if genie_zero else None
    frozen = mask.bits

    for i in range(N):
        top = n
        if i:
            top = (i & -i).bit_length() - 1  # trailing zeros
            a, b = _parent_halves(llr_lvl, top)
            llr_lvl[top] = _g(a, b, sums[top])
        for l in range(top - 1, -1, -1):
            a, b = _parent_halves(llr_lvl, l)
            llr_lvl[l] = f_func(a, b)
        leaf = llr_lvl[0][0]
        if genie_zero:
            errs[:, i] = leaf < 0
            u = np.zeros(B, dtype=np.uint8)
        elif frozen[i]:
            u = np.zeros(B, dtype=np.uint8)
        else:
            u = (leaf < 0).astype(np.uint8)
        u_hat[:, i] = u
        _propagate_sums(sums, u[None], i, n)

    if genie_zero:
        return errs
    return u_hat[:, mask.info_positions()]


def _parent_halves(llr_lvl, l):
    """Halves of the level-(l+1) block feeding the level-l computation."""
    h = 1 << l
    blk = llr_lvl[l + 1]
    return blk[:h], blk[h:]


def _propagate_sums(sums, u, i, n):
    """Fold the decided bit into the partial-codeword stacks."""
    c = u
    pos, l = i, 0
    while pos & 1:
        c = np.concatenate([sums[l] ^ c, c])
        pos >>= 1
        l += 1
    if l < n:
        sums[l] = c


def genie_leaf_llrs(spec: CodeSpec, llrs: np.ndarray) -> np.ndarray:
    """All N leaf LLRs assuming every earlier bit is known to be 0.

    One-pass recursion with the exact (boxplus) f, usable for genie-aided
    per-bit error statistics under an all-zero codeword: leaf i erred iff
    result[:, i] < 0.
    """
    llrs = _checked_llrs(spec, llrs)
    out = llrs
    m = spec.n_bits
    while m > 1:
        h = m // 2
        v = out.reshape(out.shape[0], -1, m)
        a, b = v[:, :, :h], v[:, :, h:]
        out = np.concatenate([_f_exact(a, b), a + b],
                             axis=2).reshape(out.shape[0], -1)
        m = h
    return out


# ---------------------------------------------------------------------------
# SCL (batched)


def scl_decode_batch(
    spec: CodeSpec,
    mask: FrozenMask,
    config: DecoderConfig,
    llrs: np.ndarray,
) -> np.ndarray:
    """SCL-decode a (B, N) batch; returns (B, K) payloads of the best paths.

    Path pruning keeps the list_size smallest metrics with stable order
    (metric ascending, then fork index ascending), so results are fully
    deterministic; `_select` finds them by one sort of exact integer keys.
    """
    mask.validate_for(spec)
    llrs = _checked_llrs(spec, llrs)
    B, N = llrs.shape
    P = config.list_size
    f_func = _F_FUNCS[config.node_mode]
    penalty = np.logaddexp if config.metric_mode == "exact" else np.maximum
    n = spec.stages
    frozen = mask.bits

    # per-level path state as in SC plus a path axis: llr_lvl[l] and sums[l]
    # are (2**l, B, P), or (2**l, B, 1) for the channel and the levels
    # computed from it alone, one block that every path holds. A fork copies
    # none of it but re-points it: ptr[l][b*P + p] is the column of the level
    # flattened to (2**l, B*P) holding path p's block (None: b*P + p). A read
    # gathers the level and resets its pointer. No fork re-points a level
    # between its last read and its next write, so a write, which binds a new
    # array holding every path in order, replaces an identity-pointer level
    llr_lvl = [None] * n + [np.ascontiguousarray(llrs.T)[:, :, None]]
    sums = [None] * n
    llr_ptr = [None] * (n + 1)
    sum_ptr = [None] * n
    metrics = np.full((B, P), np.inf)
    metrics[:, 0] = 0.0
    row0 = np.arange(B)[:, None] * P
    # fork history for final backtracking (cheaper than gathering a full
    # per-path decision array at every fork)
    fork_parents: list[np.ndarray] = []
    fork_bits: list[np.ndarray] = []

    def read(bufs, ptr, l):
        # a (., B, 1) level is one block that every path holds: no gather
        if ptr[l] is not None and bufs[l].shape[2] > 1:
            flat = bufs[l].reshape(-1, B * P)
            bufs[l] = np.take(flat, ptr[l], axis=1).reshape(bufs[l].shape)
        ptr[l] = None

    for i in range(N):
        top = n
        if i:
            top = (i & -i).bit_length() - 1
            read(llr_lvl, llr_ptr, top + 1)
            read(sums, sum_ptr, top)
            a, b = _parent_halves(llr_lvl, top)
            llr_lvl[top] = _g(a, b, sums[top])
        for l in range(top - 1, -1, -1):
            read(llr_lvl, llr_ptr, l + 1)
            a, b = _parent_halves(llr_lvl, l)
            llr_lvl[l] = f_func(a, b)
        leaf = llr_lvl[0][0]  # (B, P) or (B, 1)

        pen0 = penalty(0.0, -leaf)
        if frozen[i]:
            metrics = metrics + pen0
            u = np.zeros((B, P), dtype=np.uint8)
        else:
            # candidate index = 2*parent + u so the stable sort breaks
            # metric ties by fork index
            cand = np.empty((B, 2 * P))
            cand[:, 0::2] = metrics + pen0
            cand[:, 1::2] = metrics + penalty(0.0, leaf)
            order = _select(cand, P)
            parent = order >> 1
            u = (order & 1).astype(np.uint8)
            metrics = np.take_along_axis(cand, order, axis=1)
            fork_parents.append(parent)
            fork_bits.append(u)
            rows = (row0 + parent).ravel()
            # re-point only the state a later bit can still read before it
            # is rewritten: LLR level l when this position sits in the f
            # half of its level-(l-1) pair, partial sums at level l once the
            # left sibling codeword is stored (bit l of i set)
            for l in range(1, n):
                if not (i >> (l - 1)) & 1:
                    llr_ptr[l] = _compose(llr_ptr[l], rows)
            for l in range(n):
                if (i >> l) & 1:
                    sum_ptr[l] = _compose(sum_ptr[l], rows)

        ones = (i ^ (i + 1)).bit_length() - 1  # trailing ones of i
        for l in range(ones):
            read(sums, sum_ptr, l)
        _propagate_sums(sums, u[None], i, n)

    # backtrack from the minimum-metric final path (ties: lowest index)
    best = np.argmin(metrics, axis=1)
    info = mask.info_positions()
    payload = np.empty((B, info.size), dtype=np.uint8)
    idx = best[:, None]
    for j in range(len(fork_parents) - 1, -1, -1):
        payload[:, j] = np.take_along_axis(fork_bits[j], idx, axis=1)[:, 0]
        idx = np.take_along_axis(fork_parents[j], idx, axis=1)
    return payload


_KEY_SORT_MIN_WIDTH = 16  # narrower rows keep the argsort, faster there


def _select(cand, P):
    """Columns of the P smallest entries per row in stable-argsort order,
    for entries +0.0 or more, +inf or NaN (see the module docstring)."""
    W = cand.shape[1]
    if W < _KEY_SORT_MIN_WIDTH:
        return np.argsort(cand, axis=1, kind="stable")[:, :P]
    low = (1 << (W - 1).bit_length()) - 1
    key = cand.view(np.int64) & ((1 << 63) - 1 - low)
    key |= np.arange(W)
    key.sort(axis=1)
    gap = np.bitwise_xor(key[:, 1:P + 1], key[:, :P]).min(axis=1)
    redo = (gap <= low) | (key[:, P] > (0x7FF << 52 | low))  # NaN: > +inf
    order = key[:, :P] & low
    if redo.any():
        order[redo] = np.argsort(cand[redo], axis=1, kind="stable")[:, :P]
    return order


def _compose(ptr, rows):
    """Pointer after a fork: each new path reads what its parent row read."""
    return rows if ptr is None else ptr[rows]


def decode_batch(spec: CodeSpec, mask: FrozenMask, config: DecoderConfig,
                 llrs: np.ndarray) -> np.ndarray:
    """Dispatch a batch to SC or SCL according to the decoder config."""
    if config.algorithm == "sc":
        return sc_decode_batch(spec, mask, llrs, config.node_mode)
    return scl_decode_batch(spec, mask, config, llrs)
