"""Prime-field Reed-Solomon coding and online error correction.

Symbols live in GF(q) for a prime q >= max(n+1, 257).  A byte message is
framed with a 4-byte big-endian length prefix, zero-filled to capacity,
and split into ``chunks`` independent (n, k) codewords that share the
evaluation points x = 1..n.  Share j concatenates the j-th evaluation of
every chunk, so comparing two shares compares all chunks at once.

Decoding is true error correction (Berlekamp-Welch), not erasure-only:
from m observed shares it recovers the unique codeword at distance <= e
whenever 2e + k <= m.  Besides the message, the decoder returns its
support: the shares that equal the decoded codeword on every chunk.
`OecAccumulator` wraps the decoder in the accumulate-retry loop used by
the agreement protocols: collect shares one at a time, attempt a decode
once k + t are present, and accept only when the support holds at least
k + t of the stored shares.  The support counts matches against the
codeword of the message's canonical frame; a decoded frame with nonzero
padding bits, which no honest encoder produces, is re-encoded to count
them.

Encoding and the clean decode path run on all chunks at once: the chunk
values of one polynomial degree are packed into one int, one fixed-width
lane per chunk (Kronecker substitution), and each evaluation is k
multiply-adds of those ints.  A lane must hold k*(q-1)^2, the largest
sum of k products of two field elements; `CodeParams.lane_code` picks the
narrowest machine width that does.
"""

from __future__ import annotations

import logging
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

log = logging.getLogger(__name__)

# Bits consumed by the length prefix that makes decoded output unambiguous.
# `derive_params` is a pure function of its bit-length argument; callers that
# feed byte messages through `ecc_encode` must size params for payload + frame
# (see `params_for_message_bits`).
LENGTH_PREFIX_BITS = 32


class ResilienceViolation(ValueError):
    """Raised when n < 3t + 1."""


class MessageTooLong(ValueError):
    """Raised when a framed message exceeds codeword capacity."""


class DecodeFailure(Exception):
    """Raised when no codeword lies within the correctable radius."""


def _is_prime(x: int) -> bool:
    if x < 2:
        return False
    if x % 2 == 0:
        return x == 2
    d = 3
    while d * d <= x:
        if x % d == 0:
            return False
        d += 2
    return True


def _next_prime(x: int) -> int:
    while not _is_prime(x):
        x += 1
    return x


@dataclass(frozen=True)
class CodeParams:
    """Code geometry shared by every protocol instance of one run.

    n: node count (evaluation points 1..n)
    t: fault bound, n >= 3t + 1
    k: data symbols per codeword, k = max(1, t // 3)
    q: prime field size, q >= n + 1
    chunks: parallel codewords per message
    """

    n: int
    t: int
    k: int
    q: int
    chunks: int

    @property
    def elem_payload_bits(self) -> int:
        """Usable data bits per field element: floor(log2 q)."""
        return self.q.bit_length() - 1

    @property
    def symbol_bits(self) -> int:
        """Metric width of one share: chunks * ceil(log2 q)."""
        return self.chunks * (self.q - 1).bit_length()

    @property
    def capacity_bits(self) -> int:
        return self.k * self.chunks * self.elem_payload_bits

    @property
    def oec_threshold(self) -> int:
        return self.k + self.t

    def valid_elems(self, elems) -> bool:
        """True when ``elems`` is one share: a tuple of ``chunks`` ints in [0, q)."""
        if not isinstance(elems, tuple) or len(elems) != self.chunks:
            return False
        q = self.q
        for e in elems:
            if not isinstance(e, int) or not 0 <= e < q:
                return False
        return True

    def valid_message(self, message) -> bool:
        """True when ``message`` is bytes that fits the code after framing."""
        return (isinstance(message, bytes)
                and LENGTH_PREFIX_BITS + 8 * len(message) <= self.capacity_bits)

    @cached_property
    def lane_code(self) -> str:
        """`array` typecode of one lane of the packed codec arithmetic.

        A lane holds one chunk's value while the codec sums k products of
        two field elements, so it must hold k*(q-1)^2; the narrowest
        machine width that does is used.
        """
        bits = (self.k * (self.q - 1) ** 2).bit_length()
        for code in "BHIQ":
            if 8 * array(code).itemsize >= bits:
                return code
        raise ValueError(f"k*(q-1)^2 needs {bits} bits, more than a 64-bit lane")

    @cached_property
    def powers(self) -> tuple:
        """powers[x-1][d] = x^d mod q for the evaluation points x = 1..n."""
        return tuple(tuple(pow(x, d, self.q) for d in range(self.k))
                     for x in range(1, self.n + 1))


def derive_params(n: int, t: int, msg_len_bits: int) -> CodeParams:
    """Pick code geometry for an ``msg_len_bits``-bit payload.

    k = max(1, floor(t/3)); q is the smallest prime >= max(n+1, 257);
    chunks = ceil(msg_len_bits / (k * floor(log2 q))).
    """
    if t < 0 or n < 3 * t + 1:
        raise ResilienceViolation(f"need n >= 3t+1, got n={n}, t={t}")
    if msg_len_bits < 1:
        raise ValueError("msg_len_bits must be >= 1")
    k = max(1, t // 3)
    q = _next_prime(max(n + 1, 257))
    payload = q.bit_length() - 1
    chunks = max(1, -(-msg_len_bits // (k * payload)))
    return CodeParams(n=n, t=t, k=k, q=q, chunks=chunks)


def params_for_message_bits(n: int, t: int, payload_bits: int) -> CodeParams:
    """Params sized so a ``payload_bits``-bit message fits after framing."""
    return derive_params(n, t, payload_bits + LENGTH_PREFIX_BITS)


class SymbolShare(NamedTuple):
    """One node's coded share: evaluation index plus one element per chunk."""

    index: int
    elems: tuple


# ---------------------------------------------------------------------------
# byte <-> field element packing
# ---------------------------------------------------------------------------


def pack_message(params: CodeParams, message: bytes) -> list:
    """Frame and split a byte message into k*chunks field elements."""
    cap = params.capacity_bits
    need = LENGTH_PREFIX_BITS + 8 * len(message)
    if need > cap:
        raise MessageTooLong(f"{len(message)} bytes exceed capacity of {cap} bits")
    blob = (len(message) << (cap - LENGTH_PREFIX_BITS)) | (
        int.from_bytes(message, "big") << (cap - need)
    )
    b = params.elem_payload_bits
    total = params.k * params.chunks
    mask = (1 << b) - 1
    return [(blob >> (cap - (m + 1) * b)) & mask for m in range(total)]


def unpack_message(params: CodeParams, elems: Sequence[int]) -> bytes:
    """Inverse of `pack_message`; raises DecodeFailure on a bad frame."""
    b = params.elem_payload_bits
    cap = params.capacity_bits
    blob = 0
    for e in elems:
        blob = (blob << b) | e
    length = blob >> (cap - LENGTH_PREFIX_BITS)
    if LENGTH_PREFIX_BITS + 8 * length > cap:
        raise DecodeFailure("decoded length prefix exceeds capacity")
    if length == 0:
        return b""
    shift = cap - LENGTH_PREFIX_BITS - 8 * length
    return ((blob >> shift) & ((1 << (8 * length)) - 1)).to_bytes(length, "big")


# ---------------------------------------------------------------------------
# codeword layer
# ---------------------------------------------------------------------------


def _pack(params: CodeParams, values: Sequence[int]) -> int:
    """One int holding ``values[c]`` in lane c; values lie in [0, q)."""
    code = params.lane_code
    return int.from_bytes(array(code, values).tobytes(), sys.byteorder)


def _unpack(params: CodeParams, packed: int) -> list:
    """Inverse of `_pack` for a non-negative lane sum, each lane reduced mod q."""
    code, q = params.lane_code, params.q
    raw = packed.to_bytes(params.chunks * array(code).itemsize, sys.byteorder)
    return [v % q for v in array(code, raw)]


def _evaluate(params: CodeParams, coeffs: Sequence[int], xs: Sequence[int]) -> list:
    """Evaluate every chunk's polynomial at each x in ``xs``.

    ``coeffs[d]`` packs the degree-d coefficient of every chunk (see
    `_pack`).  Each lane sums k products below q^2, so it stays under
    k*(q-1)^2, which the lane width holds without carrying into its
    neighbour.
    """
    code, q, powers = params.lane_code, params.q, params.powers
    nbytes = params.chunks * array(code).itemsize
    rows = []
    for x in xs:
        acc = 0
        for w, c in zip(powers[x - 1], coeffs):
            acc += w * c
        raw = acc.to_bytes(nbytes, sys.byteorder)
        rows.append(tuple([v % q for v in array(code, raw)]))
    return rows


def encode_elements(params: CodeParams, data: Sequence[int]) -> list:
    """Evaluate each chunk's polynomial at x = 1..n.

    ``data`` holds k*chunks elements; chunk c uses data[c*k:(c+1)*k] as
    coefficients in ascending power order.  Returns one elems-tuple per
    node, indexable as result[j-1] for node j.
    """
    k, chunks = params.k, params.chunks
    if len(data) != k * chunks:
        raise ValueError(f"expected {k * chunks} data elements, got {len(data)}")
    coeffs = [_pack(params, data[d::k]) for d in range(k)]
    return _evaluate(params, coeffs, range(1, params.n + 1))


def ecc_encode(params: CodeParams, message: bytes) -> list:
    """Encode a byte message into n SymbolShares."""
    rows = encode_elements(params, pack_message(params, message))
    return [SymbolShare(i + 1, rows[i]) for i in range(params.n)]


def _lagrange_basis(xs: Sequence[int], q: int) -> list:
    """Ascending coefficients of each Lagrange polynomial of the points ``xs``.

    Row i is the degree-(k-1) polynomial that is 1 at xs[i] and 0 at every
    other point, so the rows form the inverse of the Vandermonde matrix.
    """
    k = len(xs)
    basis = []
    for i in range(k):
        # numerator polynomial prod_{j != i} (x - x_j), built incrementally
        num = [1]
        denom = 1
        for j in range(k):
            if j == i:
                continue
            nxt = [0] * (len(num) + 1)
            for d, c in enumerate(num):
                nxt[d + 1] = (nxt[d + 1] + c) % q
                nxt[d] = (nxt[d] - c * xs[j]) % q
            num = nxt
            denom = denom * (xs[i] - xs[j]) % q
        scale = pow(denom, -1, q)
        basis.append([c * scale % q for c in num])
    return basis


def _interpolate(xs: Sequence[int], ys: Sequence[int], q: int) -> list:
    """Lagrange interpolation; returns ascending coefficients, len(xs) of them."""
    basis = _lagrange_basis(xs, q)
    return [sum(y * row[d] for y, row in zip(ys, basis)) % q
            for d in range(len(xs))]


def _poly_eval(coeffs: Sequence[int], x: int, q: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def _solve_linear(mat: list, rhs: list, q: int) -> Optional[list]:
    """Solve mat * z = rhs over GF(q); free variables are set to 0.

    Returns None when the system is inconsistent.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    aug = [list(mat[r]) + [rhs[r] % q] for r in range(rows)]
    pivot_cols = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if aug[i][c] % q != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = pow(aug[r][c], -1, q)
        aug[r] = [v * inv % q for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] % q != 0:
                f = aug[i][c]
                aug[i] = [(aug[i][j] - f * aug[r][j]) % q for j in range(cols + 1)]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][cols] % q != 0:
            return None
    sol = [0] * cols
    for row, c in enumerate(pivot_cols):
        sol[c] = aug[row][cols]
    return sol


def _poly_div(num: Sequence[int], den: Sequence[int], q: int):
    """Divide polynomials (ascending coeffs); returns (quotient, remainder)."""
    num = list(num)
    dd = len(den) - 1
    while dd > 0 and den[dd] == 0:
        dd -= 1
    lead_inv = pow(den[dd], -1, q)
    quot = [0] * max(1, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] * lead_inv % q
        quot[i - dd] = c
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % q
    return quot, num[:dd] if dd else []


def _decode_chunk(xs: Sequence[int], ys: Sequence[int], k: int, q: int,
                  max_errors: Optional[int] = None) -> list:
    """Recover the degree-(k-1) polynomial behind m >= k noisy evaluations.

    Corrects up to e = (m - k) // 2 errors via Berlekamp-Welch, lowered
    to ``max_errors`` when the caller can rule out larger error counts.
    Raises DecodeFailure when no codeword lies within that radius.
    """
    m = len(xs)
    if m < k:
        raise DecodeFailure("fewer shares than data symbols")
    # Zero-error fast path: fit the first k points and check the rest.
    p = _interpolate(xs[:k], ys[:k], q)
    if all(_poly_eval(p, x, q) == y for x, y in zip(xs, ys)):
        return p
    e = (m - k) // 2
    if max_errors is not None:
        e = min(e, max_errors)
    if e <= 0:
        raise DecodeFailure("inconsistent shares with no correction margin")
    # Unknowns: Q coefficients (deg <= k+e-1) then E's low coefficients
    # (E monic of degree e).  Equation per point:
    #   Q(x) - y * (E_low(x) + x^e) = 0.
    ncols = (k + e) + e
    mat = []
    rhs = []
    for x, y in zip(xs, ys):
        row = [0] * ncols
        xp = 1
        for d in range(k + e):
            row[d] = xp
            xp = xp * x % q
        xp = 1
        for d in range(e):
            row[k + e + d] = -y * xp % q
            xp = xp * x % q
        mat.append(row)
        rhs.append(y * pow(x, e, q) % q)
    sol = _solve_linear(mat, rhs, q)
    if sol is None:
        raise DecodeFailure("no error locator of admissible degree")
    qpoly = sol[: k + e]
    epoly = sol[k + e :] + [1]
    p, rem = _poly_div(qpoly, epoly, q)
    if any(rem):
        raise DecodeFailure("error locator does not divide the quotient")
    p = [c % q for c in p[:k]] + [0] * max(0, k - len(p))
    errors = sum(1 for x, y in zip(xs, ys) if _poly_eval(p, x, q) != y)
    if errors > e:
        raise DecodeFailure("nearest codeword outside correctable radius")
    return p


def decode_elements(params: CodeParams, shares: Mapping[int, Sequence[int]],
                    max_errors: Optional[int] = None) -> tuple:
    """Per-chunk error correction over a share map {index: elems}.

    Returns ``(data, support)``: the k*chunks decoded elements and the
    indices whose share equals the decoded codeword on every chunk.

    A Byzantine sender normally corrupts a whole share, so chunk 0 is
    corrected first and the indices it finds consistent ("clean") are
    tried as the error pattern of every chunk: one Lagrange basis on the
    first k clean indices interpolates all chunks at once, and the
    candidates are checked at every clean index.  Chunks that fail the
    check fall back to full correction, keeping the per-chunk
    unique-decoding semantics exact.  A share element outside [0, q)
    never matches, so it counts as an error in its chunk.
    """
    xs = sorted(shares)
    if not xs or xs[0] < 1 or xs[-1] > params.n:
        raise DecodeFailure("share indices outside 1..n")
    k, q = params.k, params.q
    first = _decode_chunk(xs, [shares[x][0] for x in xs], k, q, max_errors)
    clean = [x for x in xs if _poly_eval(first, x, q) == shares[x][0]]
    ys = [_pack(params, [e % q for e in shares[x]]) for x in clean[:k]]
    coeffs = []                  # coeffs[d][c]: degree-d coefficient of chunk c
    for row in zip(*_lagrange_basis(clean[:k], q)):
        acc = 0
        for w, y in zip(row, ys):
            acc += w * y
        coeffs.append(_unpack(params, acc))
    rows = _evaluate(params, [_pack(params, c) for c in coeffs], clean)
    failed = set()
    for x, row in zip(clean, rows):
        share = shares[x]
        if row != share:
            failed.update(c for c, (a, b) in enumerate(zip(row, share)) if a != b)
    support = set(clean)
    for c in sorted(failed):
        p = _decode_chunk(xs, [shares[x][c] for x in xs], k, q, max_errors)
        for d in range(k):
            coeffs[d][c] = p[d]
        support.difference_update(
            x for x in clean if _poly_eval(p, x, q) != shares[x][c])
    data = [coeffs[d][c] for c in range(params.chunks) for d in range(k)]
    return data, support


def ecc_decode(params: CodeParams, shares: Mapping[int, Sequence[int]],
               max_errors: Optional[int] = None) -> tuple:
    """Decode a byte message from m <= n shares with Byzantine errors.

    Recovers the unique message whose codeword differs from the given
    shares in <= e positions whenever 2e + k <= m.  Returns
    ``(message, support)``, where ``support`` holds the indices whose
    share equals ``ecc_encode(params, message)`` at that index.
    """
    for idx, elems in shares.items():
        if len(elems) != params.chunks:
            raise DecodeFailure(f"share {idx} has wrong chunk count")
    data, support = decode_elements(params, shares, max_errors)
    message = unpack_message(params, data)
    framed = pack_message(params, message)
    if framed != data:
        # Nonzero padding bits, which no honest encoder produces: the
        # message re-encodes to another codeword, so count its matches.
        rows = encode_elements(params, framed)
        support = {i for i, s in shares.items() if rows[i - 1] == tuple(s)}
    return message, support


# ---------------------------------------------------------------------------
# online error correction
# ---------------------------------------------------------------------------


class OecAccumulator:
    """Accumulate shares and decode once enough agree.

    Each submission past the k + t threshold triggers a decode attempt.
    A decode is accepted only when the decoded message's codeword matches
    at least k + t of the stored shares (its support, see `ecc_decode`) and
    any extra ``accept`` predicate passes; the adversary holds at most t
    slots, so an accepted message is pinned down by >= k honest shares.
    """

    __slots__ = ("params", "threshold", "accept", "shares", "decoded", "done",
                 "attempts", "duplicates")

    def __init__(self, params: CodeParams,
                 accept: Optional[Callable[[bytes], bool]] = None):
        self.params = params
        self.threshold = params.oec_threshold
        self.accept = accept
        self.shares: dict = {}
        self.decoded: Optional[bytes] = None
        self.done = False
        self.attempts = 0
        self.duplicates = 0

    def __contains__(self, index: int) -> bool:
        return index in self.shares

    def submit(self, index: int, elems: Sequence[int]) -> Optional[bytes]:
        """Store one share; returns the message on the accepting attempt."""
        if index in self.shares:
            self.duplicates += 1
            log.debug("duplicate share from %d ignored", index)
            return None
        self.shares[index] = tuple(elems)
        if self.done or len(self.shares) < self.threshold:
            return None
        self.attempts += 1
        try:
            # errors beyond m - threshold could never pass the match check
            message, support = ecc_decode(
                self.params, self.shares,
                max_errors=len(self.shares) - self.threshold)
        except DecodeFailure:
            return None
        if len(support) < self.threshold:
            return None
        if self.accept is not None and not self.accept(message):
            return None
        self.decoded = message
        self.done = True
        return message
