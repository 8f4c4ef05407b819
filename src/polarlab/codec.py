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
input. Each is the default min-sum decoder or the exact reference (see
DecoderConfig). The min-sum decoder keeps its levels, leaves, path metrics
and fork candidates in float32, which halves the bytes every pass over a
level moves, and rejects LLRs float32 cannot hold.
min(|a|, |b|) and the sign-bit operations are exact at any width; only the
cast of the channel LLRs, g's add and the metric sums round, so a decision
can move only where that rounding flips a leaf's sign or the order of two
fork candidates. SC and SCL share one g/f descent. SCL walks a schedule
compiled once per mask: aligned nodes (first position, level, frozen), each
one block of the tree. A leaf is the level-0 node, and the leaves-only
schedule is the position-by-position walk that SC and the exact reference
keep. The min-sum SCL decoder decodes each all-frozen block as one Rate-0
node (metric + sum of max(0, -alpha) over the block's LLRs, an all-zero
block folded) and each block frozen but for its last position as one REP
node (one fork between metric + sum of max(0, -alpha) and metric + sum of
max(0, alpha), an all-u block folded), after Sarkis et al. (Fast-SSC) and
Hashemi, Condo & Gross (Fast-SSCL). For min-sum f,
max(0, -f(a, b)) + max(0, -(a + b)) = max(0, -a) + max(0, -b) and
max(0, -f(a, b)) + max(0, a + b) = max(0, a) + max(0, b), so these are the
leaf walk's fork candidates up to the rounding order of the float32 sums.
SCL adds a path axis and one path-pointer array per level index l < n - 1,
which serves LLR level l + 1 while bit l of the position is clear and the
partial sums at level l while it is set, so a fork re-points paths (Tal &
Vardy's lazy copy) and a level is gathered only when read. A fork keeps
the P smallest of 2P candidate metrics, ties to the lower fork index, and
records their indices 2 * parent + bit for the final backtrack. Metrics
are +0.0 or more, so the signed integers of their width order as their
values: wide
forks sort one key per candidate, those bits less the sign bit and the low
bits, which hold the column (up to 6 of float32's 23 mantissa bits at list
size 32); rows whose first P + 1 keys tie above the column or hold a NaN
take the stable argsort. SC keeps its own decision loop as the reference
that SCL with list size 1 is tested against, and its genie_zero mode gives
the genie-aided per-position error statistics.
"""

import functools
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
    """Decoder selection: SC, or SCL with a given list size, as the default
    min-sum decoder or, with exact=True, the exact reference.

    The min-sum decoder uses the hardware f and adds max(0, -(1-2u) llr) to
    a path's metric. Both are exact at any width, so it runs in float32:
    only the channel cast, g's add and the metric sums round, and LLRs may
    be at most float32's largest finite value in magnitude. Its SCL walks
    Rate-0 and REP nodes (see the module docstring), whose metrics equal
    the leaf walk's only for this f and metric. The exact reference uses
    the boxplus f and adds ln(1 + exp(-(1-2u) llr)), in float64 and leaf by
    leaf; full-list SCL's ML equivalence and the genie-aided statistics are
    checked with it.
    """

    algorithm: str = "scl"
    list_size: int = 1
    exact: bool = False

    @property
    def dtype(self):
        """The width the decoder runs at (see the class docstring)."""
        return np.float64 if self.exact else np.float32

    def __post_init__(self):
        if self.algorithm not in ("sc", "scl"):
            raise InvalidArgument(f"unknown algorithm {self.algorithm!r}")
        if self.list_size < 1:
            raise InvalidArgument("list_size must be >= 1")
        if self.algorithm == "sc" and self.list_size != 1:
            raise InvalidArgument("algorithm 'sc' needs list_size 1")
        if not isinstance(self.exact, bool):
            raise InvalidArgument(f"exact must be a bool, got {self.exact!r}")


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
    *,
    exact: bool = False,
    genie_zero: bool = False,
) -> np.ndarray:
    """SC-decode a (B, N) batch of LLR frames; returns (B, K) payload bits.
    exact selects the boxplus f at float64 over min-sum f at float32.

    With genie_zero=True the transmitted word is assumed all-zero, every
    decision is forced to 0 after recording whether the raw decision would
    have erred, and the returned array is the (B, N) per-position error
    indicator instead of the payload.
    """
    mask.validate_for(spec)
    channel = _checked_llrs(spec, llrs,
                            DecoderConfig("sc", exact=exact).dtype)
    N, B = channel.shape
    f_func = _f_exact if exact else _f_min_sum
    n = spec.stages
    # per-level active blocks, (2**l, B) at level l; level n is the channel
    llr_lvl = [None] * n + [channel]
    sums = [None] * n
    u_hat = np.empty((B, N), dtype=np.uint8)
    errs = np.zeros((B, N), dtype=np.uint8) if genie_zero else None
    frozen = mask.bits

    for i in range(N):
        leaf = _descend(llr_lvl, sums, i, n, f_func)[0]
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


def _descend(llr_lvl, sums, i, n, f_func, level=0):
    """The LLR block of the node at position i and level `level` (i a
    multiple of 2**level): g at i's trailing-zeros level (none at i = 0),
    then f down to that level. Level l's new block is computed from the two
    halves of level l + 1's."""
    top = n
    if i:
        top = (i & -i).bit_length() - 1  # trailing zeros
        h = 1 << top
        blk = llr_lvl[top + 1]
        llr_lvl[top] = _g(blk[:h], blk[h:], sums[top])
    for l in range(top - 1, level - 1, -1):
        h = 1 << l
        blk = llr_lvl[l + 1]
        llr_lvl[l] = f_func(blk[:h], blk[h:])
    return llr_lvl[level]


def _propagate_sums(sums, c, i, level=0):
    """Fold the decided block c of the node at position i and level `level`
    (not the last node) into the partial-sum stacks."""
    pos, l = i >> level, level
    while pos & 1:
        c = np.concatenate([sums[l] ^ c, c])
        pos >>= 1
        l += 1
    sums[l] = c


# ---------------------------------------------------------------------------
# SCL (batched)


@functools.lru_cache(maxsize=16)
def _compile(bits: bytes, nodes: bool) -> tuple:
    """The node schedule of a frozen mask (its bytes): aligned nodes
    (first position, level, frozen) in decoding order, tiling [0, N). With
    nodes=False every node is a leaf; otherwise each block of the mask's
    tree that is all frozen (a Rate-0 node, frozen=True) or frozen but its
    last position (a REP node) is one node, as high in the tree as it
    goes."""
    flags = np.frombuffer(bits, np.uint8)
    schedule = []

    def visit(s, l):
        blk = flags[s:s + (1 << l)]
        if blk[:-1].all() and (nodes or l == 0):  # true for a leaf
            schedule.append((s, l, bool(blk[-1])))
        else:
            visit(s, l - 1)
            visit(s + (1 << (l - 1)), l - 1)

    visit(0, flags.size.bit_length() - 1)
    return tuple(schedule)


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
    The min-sum decoder walks the mask's Rate-0 and REP nodes, the exact
    reference its leaves (see DecoderConfig).
    """
    mask.validate_for(spec)
    channel = _checked_llrs(spec, llrs, config.dtype)
    schedule = _compile(mask.bits.tobytes(), not config.exact)
    return _scl_walk(channel, spec.k_info, config, schedule)


def _scl_walk(channel, k_info, config, schedule):
    """SCL over the (N, B) channel level, node by node of the schedule."""
    N, B = channel.shape
    P = config.list_size
    f_func = _f_exact if config.exact else _f_min_sum
    penalty = np.logaddexp if config.exact else np.maximum
    n = N.bit_length() - 1

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
    # after the last fork, so neither needs a read. A node at level l starts
    # with ptr[:l] reset, and its fork leaves them so: its own block is all
    # it folds below level l. There is no ptr[n - 1]: LLR level n is the
    # channel, and only g at N/2 reads the partial sums at level n - 1,
    # before any later fork
    llr_lvl = [None] * n + [channel[:, :, None]]
    sums = [None] * n
    ptr = [None] * (n - 1)
    metrics = np.full((B, P), np.inf, config.dtype)
    metrics[:, 0] = 0.0
    row0 = np.arange(B)[:, None] * P
    # fork history for final backtracking (cheaper than gathering a full
    # per-path decision array at every fork): fork j's survivors as
    # candidate indices 2*parent + u, in the smallest unsigned type that
    # holds 2P - 1
    history = np.empty((k_info, B, P), np.min_scalar_type(2 * P - 1))
    fork = 0

    def read(bufs, l, k):
        # gather level l through ptr[k]; a (., B, 1) level is one block that
        # every path holds: no gather
        if ptr[k] is not None and bufs[l].shape[2] > 1:
            flat = bufs[l].reshape(-1, B * P)
            bufs[l] = np.take(flat, ptr[k], axis=1).reshape(bufs[l].shape)
        ptr[k] = None

    def node_penalty(alpha):  # (B, P) or (B, 1): the sum over the block
        return penalty(0.0, alpha)[0] if len(alpha) == 1 \
            else penalty(0.0, alpha).sum(axis=0)

    for s, l, frozen in schedule:
        alpha = _descend(llr_lvl, sums, s, n, f_func, l)
        pen0 = node_penalty(-alpha)
        if frozen:
            metrics = metrics + pen0
            block = np.zeros((1 << l, B, P), np.uint8)
        else:
            # candidate index = 2*parent + u so the stable sort breaks
            # metric ties by fork index
            cand = np.empty((B, 2 * P), config.dtype)
            cand[:, 0::2] = metrics + pen0
            cand[:, 1::2] = metrics + node_penalty(alpha)
            order = _select(cand, P)
            metrics = cand.take(order + 2 * row0)  # flat indices
            history[fork] = order
            fork += 1
            u = (order & 1).astype(np.uint8)
            block = np.repeat(u[None], 1 << l, axis=0)
            # each new path reads what its parent row read
            rows = (row0 + (order >> 1)).ravel()
            ptr[l:] = [rows if p is None else p[rows] for p in ptr[l:]]

        last = s + (1 << l) - 1
        ones = (last ^ (last + 1)).bit_length() - 1  # trailing ones
        if ones < n:  # the last node's fold feeds no later position
            for k in range(l, ones):
                read(sums, k, k)
            _propagate_sums(sums, block, s, l)
            if ones < n - 1:  # the parent of the next node's g
                read(llr_lvl, ones + 1, ones)

    # backtrack from the minimum-metric final path (ties: lowest index)
    # through flat indices b*P + p into each fork's (B, P) records
    first = row0.ravel()
    at = np.argmin(metrics, axis=1) + first
    payload = np.empty((B, k_info), dtype=np.uint8)
    for j in range(k_info - 1, -1, -1):
        c = history[j].take(at)
        payload[:, j] = c & 1
        at = (c >> 1) + first
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
        return sc_decode_batch(spec, mask, llrs, exact=config.exact)
    return scl_decode_batch(spec, mask, config, llrs)
