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
input. The approximate min-sum decoder (see DecoderConfig) keeps its levels,
leaves, path metrics and fork candidates in float32, which halves the bytes
every pass over a level moves, and rejects LLRs float32 cannot hold.
min(|a|, |b|) and the sign-bit operations are exact at any width; only the
cast of the channel LLRs, g's add and the metric sums round, so a decision
can move only where that rounding flips a leaf's sign or the order of two
fork candidates. SC and SCL share one g/f descent. SCL adds a path axis and
one path-pointer array per level index l < n - 1, which serves LLR level
l + 1 while bit l of the position is clear and the partial sums at level l
while it is set, so a fork re-points paths (Tal & Vardy's lazy copy) and a
level is gathered only when read. A fork keeps the P smallest of 2P
candidate metrics, ties to the lower fork index. Metrics are +0.0 or more,
so the signed integers of their width order as their values: wide forks
sort one key per candidate, those bits less the sign bit and the low bits,
which hold the column (up to 6 of float32's 23 mantissa bits at list size
32); rows whose first P + 1 keys tie above the column or hold a NaN take the
stable argsort. SC keeps its own decision loop as the reference that SCL
with list size 1 is tested against, and its genie_zero mode gives the
genie-aided per-position error statistics.
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

    The width (dtype) follows from the modes. With 'approximate' and
    'min_sum_f', the default and also SC with 'min_sum_f', every LLR, metric
    and fork candidate is float32: min-sum f and the metric's max(0, -llr)
    are exact at any width, so only the channel cast, g's add and the metric
    sums round, and LLRs may be at most float32's largest finite value in
    magnitude. 'exact' metrics and 'exact_f' stay float64: they round in
    every logaddexp, and full-list SCL's ML equivalence and the genie-aided
    statistics are checked with them.
    """

    algorithm: str = "scl"
    list_size: int = 1
    metric_mode: str = "approximate"
    node_mode: str = "min_sum_f"

    @property
    def dtype(self):
        """The width the decoder runs at (see the class docstring)."""
        if self.metric_mode == "approximate" and self.node_mode == "min_sum_f":
            return np.float32
        return np.float64

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
    return polar_transform(u)


# ---------------------------------------------------------------------------
# node functions


# float dtype -> (integer view of its width, index of its sign bit)
_INT_VIEW = {np.dtype(np.float32): (np.int32, 31),
             np.dtype(np.float64): (np.int64, 63)}


def _f_min_sum(a, b):
    # copysign(min(|a|, |b|), a * b): a * b has the XOR of the sign bits
    itype, top = _INT_VIEW[a.dtype]
    m = np.abs(a)
    np.minimum(m, np.abs(b), out=m)
    sign = a.view(itype) ^ b.view(itype)
    sign &= -1 << top  # keep the sign bit
    np.bitwise_or(m.view(itype), sign, out=m.view(itype))
    return m


def _f_exact(a, b):
    # boxplus: log((1 + e^{a+b}) / (e^a + e^b)), stable via logaddexp
    return np.logaddexp(0.0, a + b) - np.logaddexp(a, b)


def _g(a, b, u):
    # b + (1 - 2u) * a: flip a's sign bit where u = 1 (u has the full shape)
    itype, top = _INT_VIEW[a.dtype]
    s = u.astype(itype)
    s <<= top
    s ^= a.view(itype)
    return np.add(s.view(a.dtype), b, out=s.view(a.dtype))


_F_FUNCS = {"min_sum_f": _f_min_sum, "exact_f": _f_exact}


def _checked_llrs(spec: CodeSpec, llrs: np.ndarray, dtype) -> np.ndarray:
    """The LLRs as tree level n, a C-contiguous (N, B) array of dtype, after
    checking in float64 that they have shape (B, N) and that dtype holds
    each one as a finite value."""
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.ndim != 2 or llrs.shape[1] != spec.n_bits:
        raise InvalidArgument(
            f"LLRs must have shape (B, {spec.n_bits}), got {llrs.shape}")
    limit = np.finfo(dtype).max
    if not np.all(np.abs(llrs) <= limit):  # false for inf and NaN too
        raise InvalidArgument(
            f"LLRs must be finite and at most {limit:.8g} in magnitude for "
            f"a {np.dtype(dtype).name} decoder")
    return np.ascontiguousarray(llrs.T, dtype=dtype)


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
    channel = _checked_llrs(spec, llrs,
                            DecoderConfig("sc", node_mode=node_mode).dtype)
    N, B = channel.shape
    f_func = _F_FUNCS[node_mode]
    n = spec.stages
    # per-level active blocks, (2**l, B) at level l; level n is the channel
    llr_lvl = [None] * n + [channel]
    sums = [None] * n
    u_hat = np.empty((B, N), dtype=np.uint8)
    errs = np.zeros((B, N), dtype=np.uint8) if genie_zero else None
    frozen = mask.bits

    for i in range(N):
        leaf = _descend(llr_lvl, sums, i, n, f_func)
        if genie_zero:
            errs[:, i] = leaf < 0
            u = np.zeros(B, dtype=np.uint8)
        elif frozen[i]:
            u = np.zeros(B, dtype=np.uint8)
        else:
            u = (leaf < 0).astype(np.uint8)
        u_hat[:, i] = u
        if i < N - 1:  # the last bit's fold feeds no later position
            _propagate_sums(sums, u[None], i)

    if genie_zero:
        return errs
    return u_hat[:, mask.info_positions()]


def _descend(llr_lvl, sums, i, n, f_func):
    """Position i's g at its trailing-zeros level (none at i = 0), then f
    down to the leaf; returns the leaf row. Level l's new block is computed
    from the two halves of level l + 1's."""
    top = n
    if i:
        top = (i & -i).bit_length() - 1  # trailing zeros
        h = 1 << top
        blk = llr_lvl[top + 1]
        llr_lvl[top] = _g(blk[:h], blk[h:], sums[top])
    for l in range(top - 1, -1, -1):
        h = 1 << l
        blk = llr_lvl[l + 1]
        llr_lvl[l] = f_func(blk[:h], blk[h:])
    return llr_lvl[0][0]


def _propagate_sums(sums, u, i):
    """Fold the decided bit i (not the last) into the partial-sum stacks."""
    c = u
    pos, l = i, 0
    while pos & 1:
        c = np.concatenate([sums[l] ^ c, c])
        pos >>= 1
        l += 1
    sums[l] = c


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
    channel = _checked_llrs(spec, llrs, config.dtype)
    N, B = channel.shape
    P = config.list_size
    f_func = _F_FUNCS[config.node_mode]
    penalty = np.logaddexp if config.metric_mode == "exact" else np.maximum
    n = spec.stages
    frozen = mask.bits

    # per-level path state as in SC plus a path axis: llr_lvl[l] and sums[l]
    # are (2**l, B, P), or (2**l, B, 1) for the channel and the levels
    # computed from it alone, one block that every path holds. A fork copies
    # none of it but re-points it: ptr[l][b*P + p] is the column of a level
    # flattened to (., B*P) holding path p's block (None: b*P + p). ptr[l]
    # serves two levels in turn. While bit l of the position is clear it
    # points into LLR level l + 1, which g reads when the bit sets; while
    # the bit is set it points into the partial sums at level l, which the
    # carry out of bit l folds. Each is read at the end of its span, which
    # gathers it and resets ptr[l], and the other is written, as a new array
    # holding every path in order, under that identity pointer. The f loop
    # reads what the same descent wrote, and g reads partial sums written
    # after the last fork, so neither needs a read. There is no ptr[n - 1]:
    # LLR level n is the channel, and only g at N/2 reads the partial sums
    # at level n - 1, before any later fork
    llr_lvl = [None] * n + [channel[:, :, None]]
    sums = [None] * n
    ptr = [None] * (n - 1)
    metrics = np.full((B, P), np.inf, config.dtype)
    metrics[:, 0] = 0.0
    row0 = np.arange(B)[:, None] * P
    # fork history for final backtracking (cheaper than gathering a full
    # per-path decision array at every fork)
    fork_parents: list[np.ndarray] = []
    fork_bits: list[np.ndarray] = []

    def read(bufs, l, k):
        # gather level l through ptr[k]; a (., B, 1) level is one block that
        # every path holds: no gather
        if ptr[k] is not None and bufs[l].shape[2] > 1:
            flat = bufs[l].reshape(-1, B * P)
            bufs[l] = np.take(flat, ptr[k], axis=1).reshape(bufs[l].shape)
        ptr[k] = None

    for i in range(N):
        leaf = _descend(llr_lvl, sums, i, n, f_func)  # (B, P) or (B, 1)

        pen0 = penalty(0.0, -leaf)
        if frozen[i]:
            metrics = metrics + pen0
            u = np.zeros((B, P), dtype=np.uint8)
        else:
            # candidate index = 2*parent + u so the stable sort breaks
            # metric ties by fork index
            cand = np.empty((B, 2 * P), config.dtype)
            cand[:, 0::2] = metrics + pen0
            cand[:, 1::2] = metrics + penalty(0.0, leaf)
            order = _select(cand, P)
            parent = order >> 1
            u = (order & 1).astype(np.uint8)
            metrics = np.take_along_axis(cand, order, axis=1)
            fork_parents.append(parent)
            fork_bits.append(u)
            # each new path reads what its parent row read
            rows = (row0 + parent).ravel()
            ptr = [rows if p is None else p[rows] for p in ptr]

        ones = (i ^ (i + 1)).bit_length() - 1  # trailing ones of i
        if ones < n:  # the last bit's fold feeds no later position
            for l in range(ones):
                read(sums, l, l)
            _propagate_sums(sums, u[None], i)
            if ones < n - 1:  # the parent of position i+1's g
                read(llr_lvl, ones + 1, ones)

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
    itype, top = _INT_VIEW[cand.dtype]
    low = (1 << (W - 1).bit_length()) - 1
    key = cand.view(itype) & ((1 << top) - 1 - low)
    key |= np.arange(W, dtype=itype)
    key.sort(axis=1)
    gap = np.bitwise_xor(key[:, 1:P + 1], key[:, :P]).min(axis=1)
    inf = int(np.array(np.inf, cand.dtype).view(itype))
    redo = (gap <= low) | (key[:, P] > (inf | low))  # NaN: > +inf
    order = key[:, :P] & low
    if redo.any():
        order[redo] = np.argsort(cand[redo], axis=1, kind="stable")[:, :P]
    return order


def decode_batch(spec: CodeSpec, mask: FrozenMask, config: DecoderConfig,
                 llrs: np.ndarray) -> np.ndarray:
    """Dispatch a batch to SC or SCL according to the decoder config."""
    if config.algorithm == "sc":
        return sc_decode_batch(spec, mask, llrs, config.node_mode)
    return scl_decode_batch(spec, mask, config, llrs)
