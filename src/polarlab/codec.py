"""Polar encoding and SC/SCL decoding over LLRs.

Everything works in natural bit order (no bit-reversal permutation); the
frozen mask uses the same order. Decoders are batched over frames: the
single-frame entry points wrap the batch kernels with a leading axis of 1.
Both decoders keep one LLR and one partial-sum array per tree level; SCL
adds a path axis and, per level, a path-pointer array, so a fork re-points
paths (Tal & Vardy's lazy copy) and a level is gathered only when read.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument

__all__ = [
    "CodeSpec",
    "FrozenMask",
    "DecoderConfig",
    "LlrFrame",
    "encode",
    "polar_transform",
    "sc_decode",
    "scl_decode",
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
        if self.metric_mode not in ("exact", "approximate"):
            raise InvalidArgument(f"unknown metric_mode {self.metric_mode!r}")
        if self.node_mode not in ("exact_f", "min_sum_f"):
            raise InvalidArgument(f"unknown node_mode {self.node_mode!r}")


@dataclass
class LlrFrame:
    """Channel LLRs for one frame; positive means bit 0 is more likely."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(self.values)):
            raise InvalidArgument("LLRs must be finite")


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
    return np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))


def _f_exact(a, b):
    # boxplus: log((1 + e^{a+b}) / (e^a + e^b)), stable via logaddexp
    return np.logaddexp(0.0, a + b) - np.logaddexp(a, b)


def _g(a, b, u):
    return b + (1.0 - 2.0 * u) * a


_F_FUNCS = {"min_sum_f": _f_min_sum, "exact_f": _f_exact}


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
    llrs = np.asarray(llrs, dtype=np.float64)
    B, N = llrs.shape
    if N != spec.n_bits:
        raise InvalidArgument(f"LLR length {N} != N {spec.n_bits}")
    if not np.all(np.isfinite(llrs)):
        raise InvalidArgument("LLRs must be finite")
    if N == 1:
        hard = (llrs[:, 0] < 0).astype(np.uint8)
        return hard[:, None]
    f_func = _F_FUNCS[node_mode]
    n = spec.stages
    # per-level active blocks: llr_lvl[l] is (B, 2**l); level n is the channel
    llr_lvl = [np.empty((B, 1 << l)) for l in range(n)]
    sums = [np.zeros((B, 1 << l), dtype=np.uint8) for l in range(n)]
    u_hat = np.empty((B, N), dtype=np.uint8)
    errs = np.zeros((B, N), dtype=np.uint8) if genie_zero else None
    frozen = mask.bits

    for i in range(N):
        if i == 0:
            top = n
        else:
            t = (i & -i).bit_length() - 1  # trailing zeros
            a, b = _parent_halves(llrs, llr_lvl, t, i, n)
            llr_lvl[t][:] = _g(a, b, sums[t])
            top = t
        for l in range(top - 1, -1, -1):
            a, b = _parent_halves(llrs, llr_lvl, l, i, n)
            llr_lvl[l][:] = f_func(a, b)
        leaf = llr_lvl[0][:, 0]
        if genie_zero:
            errs[:, i] = leaf < 0
            u = np.zeros(B, dtype=np.uint8)
        elif frozen[i]:
            u = np.zeros(B, dtype=np.uint8)
        else:
            u = (leaf < 0).astype(np.uint8)
        u_hat[:, i] = u
        _propagate_sums(sums, u[:, None], i, n)

    if genie_zero:
        return errs
    return u_hat[:, mask.info_positions()]


def _parent_halves(chan, llr_lvl, l, i, n):
    """Halves of the level-(l+1) block feeding the level-l computation."""
    h = 1 << l
    if l + 1 == n:
        base = (i >> (l + 1)) << (l + 1)
        blk = chan[..., base:base + 2 * h]
    else:
        blk = llr_lvl[l + 1]
    return blk[..., :h], blk[..., h:]


def _propagate_sums(sums, u, i, n):
    """Fold the decided bit into the partial-codeword stacks."""
    c = u
    pos, l = i, 0
    while pos & 1:
        c = np.concatenate([sums[l] ^ c, c], axis=-1)
        pos >>= 1
        l += 1
    if l < n:
        sums[l][:] = c


def genie_leaf_llrs(spec: CodeSpec, llrs: np.ndarray,
                    node_mode: str = "exact_f") -> np.ndarray:
    """All N leaf LLRs assuming every earlier bit is known to be 0.

    One-pass recursion usable for genie-aided per-bit error statistics
    under an all-zero codeword: leaf i erred iff result[:, i] < 0.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    f_func = _F_FUNCS[node_mode]
    out = llrs
    m = spec.n_bits
    while m > 1:
        h = m // 2
        v = out.reshape(out.shape[0], -1, m)
        a, b = v[:, :, :h], v[:, :, h:]
        out = np.concatenate([f_func(a, b), a + b],
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
    deterministic.
    """
    mask.validate_for(spec)
    llrs = np.asarray(llrs, dtype=np.float64)
    B, N = llrs.shape
    if N != spec.n_bits:
        raise InvalidArgument(f"LLR length {N} != N {spec.n_bits}")
    if not np.all(np.isfinite(llrs)):
        raise InvalidArgument("LLRs must be finite")
    if N == 1:
        return (llrs < 0).astype(np.uint8)
    P = config.list_size
    f_func = _F_FUNCS[config.node_mode]
    exact_metric = config.metric_mode == "exact"
    n = spec.stages
    frozen = mask.bits

    # per-level path state as in SC plus a path axis: llr_lvl[l] and sums[l]
    # are (B, P, 2**l). A fork copies none of it but re-points it:
    # ptr[l][b*P + p] is the flat row holding path p's block (None: b*P + p).
    # A read gathers the level and resets its pointer; no fork re-points a
    # level between its last read and its next write, so writes, which cover
    # every path, always land on identity pointers
    llr_lvl = [np.zeros((B, P, 1 << l)) for l in range(n)]
    sums = [np.zeros((B, P, 1 << l), dtype=np.uint8) for l in range(n)]
    llr_ptr = [None] * (n + 1)  # level n is the channel, shared by all paths
    sum_ptr = [None] * n
    metrics = np.full((B, P), np.inf)
    metrics[:, 0] = 0.0
    row0 = np.arange(B)[:, None] * P
    # fork history for final backtracking (cheaper than gathering a full
    # per-path decision array at every fork)
    fork_parents: list[np.ndarray] = []
    fork_bits: list[np.ndarray] = []

    def read(bufs, ptr, l):
        if ptr[l] is not None:
            flat = bufs[l].reshape(B * P, -1)
            bufs[l] = np.take(flat, ptr[l], axis=0).reshape(bufs[l].shape)
            ptr[l] = None

    chan = llrs[:, None, :]  # broadcast over paths

    for i in range(N):
        if i == 0:
            top = n
        else:
            t = (i & -i).bit_length() - 1
            read(llr_lvl, llr_ptr, t + 1)
            read(sums, sum_ptr, t)
            a, b = _parent_halves(chan, llr_lvl, t, i, n)
            llr_lvl[t][:] = _g(a, b, sums[t])
            top = t
        for l in range(top - 1, -1, -1):
            read(llr_lvl, llr_ptr, l + 1)
            a, b = _parent_halves(chan, llr_lvl, l, i, n)
            llr_lvl[l][:] = f_func(a, b)
        leaf = llr_lvl[0][:, :, 0]  # (B, P)

        if frozen[i]:
            if exact_metric:
                metrics = metrics + np.logaddexp(0.0, -leaf)
            else:
                metrics = metrics + np.maximum(0.0, -leaf)
            u = np.zeros((B, P), dtype=np.uint8)
        else:
            if exact_metric:
                pen0 = np.logaddexp(0.0, -leaf)
                pen1 = np.logaddexp(0.0, leaf)
            else:
                pen0 = np.maximum(0.0, -leaf)
                pen1 = np.maximum(0.0, leaf)
            # candidate index = 2*parent + u so the stable sort breaks
            # metric ties by fork index
            cand = np.empty((B, 2 * P))
            cand[:, 0::2] = metrics + pen0
            cand[:, 1::2] = metrics + pen1
            order = np.argsort(cand, axis=1, kind="stable")[:, :P]
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
        _propagate_sums(sums, u[:, :, None], i, n)

    # backtrack from the minimum-metric final path (ties: lowest index)
    best = np.argmin(metrics, axis=1)
    info = mask.info_positions()
    payload = np.empty((B, info.size), dtype=np.uint8)
    idx = best[:, None]
    for j in range(len(fork_parents) - 1, -1, -1):
        payload[:, j] = np.take_along_axis(fork_bits[j], idx, axis=1)[:, 0]
        idx = np.take_along_axis(fork_parents[j], idx, axis=1)
    return payload


def _compose(ptr, rows):
    """Pointer after a fork: each new path reads what its parent row read."""
    return rows if ptr is None else ptr[rows]


# ---------------------------------------------------------------------------
# single-frame wrappers


def sc_decode(spec: CodeSpec, mask: FrozenMask, llrs: LlrFrame,
              node_mode: str = "min_sum_f") -> np.ndarray:
    """Decode one frame with SC; returns the K information-bit decisions."""
    return sc_decode_batch(spec, mask, llrs.values[None, :], node_mode)[0]


def scl_decode(spec: CodeSpec, mask: FrozenMask, config: DecoderConfig,
               llrs: LlrFrame) -> np.ndarray:
    """Decode one frame with SCL; returns the best path's payload."""
    if config.algorithm != "scl":
        raise InvalidArgument("scl_decode requires algorithm='scl'")
    return scl_decode_batch(spec, mask, config, llrs.values[None, :])[0]


def decode_batch(spec: CodeSpec, mask: FrozenMask, config: DecoderConfig,
                 llrs: np.ndarray) -> np.ndarray:
    """Dispatch a batch to SC or SCL according to the decoder config."""
    if config.algorithm == "sc":
        return sc_decode_batch(spec, mask, llrs, config.node_mode)
    return scl_decode_batch(spec, mask, config, llrs)
