"""Prime-field Reed-Solomon coding and online error correction.

Symbols live in GF(q) for a prime q >= max(n+1, 257).  A byte message is
framed with a 4-byte big-endian length prefix, zero-filled to capacity,
and split into ``chunks`` independent (n, k) codewords that share the
evaluation points x = 1..n.  Share j concatenates the j-th evaluation of
every chunk, so comparing two shares compares all chunks at once.

`ecc_encode` encodes (once per message per run), `ecc_decode` corrects a
share map through `decode_elements` and `_decode_chunk`, and
`OecAccumulator` is the accumulate-and-retry loop of the agreement
protocols; it tallies its shares against the encode memo as they come,
so an attempt the memo settles, accepted or failed, makes no decode.
Encoding packs one lane per chunk into one int (Kronecker
substitution, see `CodeParams.lane_code`); the key-equation fold
corrects every chunk of a decode.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest
from typing import Mapping, Optional, Sequence

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

    @cached_property
    def elem_payload_bits(self) -> int:
        """Usable data bits per field element: floor(log2 q)."""
        return self.q.bit_length() - 1

    @property
    def symbol_bits(self) -> int:
        """Metric width of one share: chunks * ceil(log2 q)."""
        return self.chunks * (self.q - 1).bit_length()

    @cached_property
    def capacity_bits(self) -> int:
        return self.k * self.chunks * self.elem_payload_bits

    @property
    def oec_threshold(self) -> int:
        return self.k + self.t

    @cached_property
    def lead_chunk(self) -> int:
        """The first chunk that holds a message bit (the last if none does).

        The chunks before it hold only the length prefix, which two
        messages of one length share.
        """
        return min((LENGTH_PREFIX_BITS // self.elem_payload_bits) // self.k,
                   self.chunks - 1)

    def valid_elems(self, elems) -> bool:
        """True when ``elems`` is one share: a tuple of ``chunks`` ints in [0, q).

        A memo row is valid by construction, so a share whose id
        `encoded_rows` holds returns at once; the memo keeps every row
        alive, so that id cannot pass to another object.  Any other share
        must be exactly a ``tuple`` of exactly ``int`` elements: the check
        reads only ``type``, so it runs no method a sender defined, and a
        subclass of either is not a share.
        """
        if id(elems) in self.encoded_rows:
            return True
        if type(elems) is not tuple or len(elems) != self.chunks:
            return False
        q = self.q
        for e in elems:
            if type(e) is not int or not 0 <= e < q:
                return False
        return True

    @cached_property
    def encodings(self) -> dict:
        """`ecc_encode`'s memo: bytes message -> the tuple of its n rows."""
        return {}

    @cached_property
    def encoded_rows(self) -> dict:
        """id(row) -> (message, rows), for every row held in `encodings`."""
        return {}

    def valid_message(self, message) -> bool:
        """True when a node takes ``message``: exact bytes, not empty, that
        fit after framing (the type first: a subclass's len could raise)."""
        return (type(message) is bytes and 0 < len(message)
                and LENGTH_PREFIX_BITS + 8 * len(message) <= self.capacity_bits)

    @cached_property
    def lane_code(self) -> str:
        """`array` typecode of one lane of the packed encoder arithmetic.

        Only encoding uses lanes.  A lane holds one chunk's value while
        `encode_elements` sums k products of two field elements, so it must
        hold k*(q-1)^2; the narrowest machine width that does is used.
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
    if payload_bits < 1:
        raise ValueError("message length must be >= 1 bit")
    return derive_params(n, t, payload_bits + LENGTH_PREFIX_BITS)


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


def _unframe(params: CodeParams, elems: Sequence[int]) -> tuple:
    """Message of a decoded frame, and whether the frame is canonical.

    A frame is canonical when every element is below 2^b and the padding
    bits are zero, which is exactly ``pack_message(params, message) ==
    elems``.  Raises DecodeFailure on a length prefix beyond capacity.
    """
    b = params.elem_payload_bits
    cap = params.capacity_bits
    blob = 0
    wide = 0
    for e in elems:
        blob = (blob << b) | e
        wide |= e
    length = blob >> (cap - LENGTH_PREFIX_BITS)
    if LENGTH_PREFIX_BITS + 8 * length > cap:
        raise DecodeFailure("decoded length prefix exceeds capacity")
    shift = cap - LENGTH_PREFIX_BITS - 8 * length
    message = ((blob >> shift) & ((1 << (8 * length)) - 1)).to_bytes(length, "big")
    return message, wide >> b == 0 and blob & ((1 << shift) - 1) == 0


# ---------------------------------------------------------------------------
# codeword layer
# ---------------------------------------------------------------------------


def encode_elements(params: CodeParams, data: Sequence[int]) -> list:
    """Evaluate each chunk's polynomial at x = 1..n.

    ``data`` holds k*chunks elements; chunk c uses data[c*k:(c+1)*k] as
    coefficients in ascending power order.  Returns one elems-tuple per
    node, indexable as result[j-1] for node j.

    All chunks are evaluated at once: ``coeffs[d]`` is one int holding
    chunk c's degree-d coefficient in lane c.  Each lane sums k products
    below q^2, so it stays under k*(q-1)^2, which the lane width
    (`CodeParams.lane_code`) holds without carrying into its neighbour.
    """
    k, chunks = params.k, params.chunks
    if len(data) != k * chunks:
        raise ValueError(f"expected {k * chunks} data elements, got {len(data)}")
    code, q = params.lane_code, params.q
    coeffs = [int.from_bytes(array(code, data[d::k]).tobytes(), sys.byteorder)
              for d in range(k)]
    nbytes = chunks * array(code).itemsize
    rows = []
    for xpowers in params.powers:
        acc = 0
        for w, c in zip(xpowers, coeffs):
            acc += w * c
        raw = acc.to_bytes(nbytes, sys.byteorder)
        rows.append(tuple([v % q for v in array(code, raw)]))
    return rows


def ecc_encode(params: CodeParams, message: bytes) -> tuple:
    """Encode a byte message into the tuple of its n rows (node j's is row j-1).

    A message is encoded once per `CodeParams`: each call returns the same
    tuple of the same row objects, which the memo keeps alive (so an id
    cannot pass to another object) and indexes by id for
    `CodeParams.valid_elems` and `OecAccumulator`.
    """
    rows = params.encodings.get(message)
    if rows is None:
        rows = tuple(encode_elements(params, pack_message(params, message)))
        params.encodings[message] = rows
        params.encoded_rows.update(dict.fromkeys(map(id, rows), (message, rows)))
    return rows


def _poly_eval(coeffs: Sequence[int], x: int, q: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def _trim(p: list) -> list:
    """Drop zero leading coefficients in place; the zero polynomial is []."""
    while p and not p[-1]:
        p.pop()
    return p


def _poly_div(num: Sequence[int], den: Sequence[int], q: int):
    """Divide polynomials (ascending coeffs); returns (quotient, remainder)."""
    num = list(num)
    dd = len(den) - 1
    while dd > 0 and den[dd] == 0:
        dd -= 1
    lead_inv = pow(den[dd], -1, q)
    den = den[:dd + 1]
    quot = [0] * max(1, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] * lead_inv % q
        quot[i - dd] = c
        if c:
            lo = i - dd
            num[lo:i + 1] = [(a - c * b) % q for a, b in zip(num[lo:i + 1], den)]
    return quot, num[:dd] if dd else []


def _key_basis(k: int) -> list:
    """The key-equation basis of no shares, [key, N, W] for (1, 0) and (0, 1).

    key is twice the weighted degree max(deg N, deg W + k - 1), plus 1
    when the leading position is W (ties go to W); see `_decode_chunk`.
    """
    return [[0, [1], []], [2 * k - 1, [], [1]]]


def _times_linear(p: list, x: int, q: int) -> list:
    """p * (X - x) over GF(q)."""
    if not p:
        return p
    return [(lo - x * hi) % q for lo, hi in zip([0] + p, p + [0])]


def _fold(basis: list, x: int, y: int, q: int) -> None:
    """Fold the share (x, y) into a key-equation basis, in place.

    Each element's residual r = N(x) - y W(x) is computed; of the elements
    with r != 0, the one with the smaller key is multiplied by (X - x),
    and the other, if live, becomes r_min * b - r * b_min first.  Both
    elements then vanish at (x, y), and their leading terms are b_min's
    raised by one degree and the other's unchanged, so the keys stay
    distinct.  A new x leaves some residual nonzero.
    """
    lo, hi = basis if basis[0][0] < basis[1][0] else basis[::-1]
    r_lo = (_poly_eval(lo[1], x, q) - y * _poly_eval(lo[2], x, q)) % q
    r_hi = (_poly_eval(hi[1], x, q) - y * _poly_eval(hi[2], x, q)) % q
    if not r_lo:
        lo = hi
    elif r_hi:
        for i in (1, 2):
            hi[i] = [(r_lo * a - r_hi * b) % q
                     for a, b in zip_longest(hi[i], lo[i], fillvalue=0)]
    lo[0] += 2
    lo[1] = _times_linear(lo[1], x, q)
    lo[2] = _times_linear(lo[2], x, q)


def _decode_chunk(xs: Sequence[int], ys: Sequence[int], k: int, q: int,
                  max_errors: Optional[int] = None) -> tuple:
    """Recover the degree-(k-1) polynomial behind m >= k noisy evaluations.

    Returns ``(p, agree)``: p's k ascending coefficients and the x whose
    y equals p(x).  Corrects up to e = (m - k) // 2 errors, lowered to
    ``max_errors`` when the caller can rule out larger error counts, and
    raises DecodeFailure when no codeword lies within that radius.  A y
    outside [0, q) never equals p(x), so it counts as an error.

    The decoder solves the Welch-Berlekamp key equation N(xi) = yi W(xi)
    one share at a time (Welch & Berlekamp, US Patent 4,633,470, 1986;
    Groebner-basis form after Fitzpatrick, "On the key equation", IEEE
    Trans. IT, 1995).  The solutions (N, W) form a module of rank 2,
    ordered by weighted degree max(deg N, deg W + k - 1), with ties to
    W.  A basis of two elements with distinct leading positions starts
    from (1, 0) and (0, 1) (`_key_basis`) and takes each share by one
    O(m) `_fold`; its weighted degrees sum to m + k - 1.  A codeword p
    within e gives the solution (p L, L), L its error locator, of weighted
    degree <= e + k - 1, and 2e + k <= m puts the other element above
    that, so the minimal element is a multiple of (p L, L).  Hence the
    decode: if the minimal element's weighted degree exceeds e + k - 1,
    fail with no division; otherwise p = N / W must divide exactly, with
    deg p < k and at most e errors.  The minimal element is unique up to
    a scalar, so the answer is that of any exact bounded-distance
    decoder, whatever the order of the shares.
    """
    m = len(xs)
    if m < k:
        raise DecodeFailure("fewer shares than data symbols")
    e = (m - k) // 2
    if max_errors is not None:
        e = max(0, min(e, max_errors))
    basis = _key_basis(k)
    for x, y in zip(xs, ys):
        _fold(basis, x, y, q)
    key, num, den = min(basis)
    if key >> 1 > e + k - 1:
        raise DecodeFailure("no codeword within the correctable radius")
    p, rem = _poly_div(num, den, q)
    _trim(p)
    if any(rem) or len(p) > k:
        raise DecodeFailure("no codeword within the correctable radius")
    p += [0] * (k - len(p))
    agree = [x for x, y in zip(xs, ys) if _poly_eval(p, x, q) == y]
    if m - len(agree) > e:
        raise DecodeFailure("nearest codeword outside correctable radius")
    return p, agree


def decode_elements(params: CodeParams, shares: Mapping[int, Sequence[int]],
                    max_errors: Optional[int] = None) -> tuple:
    """Per-chunk error correction over a share map {index: elems}.

    Returns ``(data, support)``: the k*chunks decoded elements and the
    indices whose share equals the decoded codeword on every chunk.

    Each chunk is corrected on its own by `_decode_chunk`, so its result
    is the unique codeword within the radius, whatever the order of the
    chunks.  The lead chunk (`CodeParams.lead_chunk`, the first that
    holds a message bit) goes first, then the others in index order: the
    chunks before it hold only the length prefix, on which two messages
    of one length agree, so a map that mixes them fails on the first
    fold.  A share element outside [0, q) never matches, so it counts as
    an error in its chunk.  The support is the intersection of every
    chunk's agreeing indices.
    """
    xs = sorted(shares)
    if not xs or xs[0] < 1 or xs[-1] > params.n:
        raise DecodeFailure("share indices outside 1..n")
    k, q, lead = params.k, params.q, params.lead_chunk
    coeffs = [None] * params.chunks       # coeffs[c]: chunk c's polynomial
    support = set(xs)
    for c in [lead, *range(lead), *range(lead + 1, params.chunks)]:
        coeffs[c], agree = _decode_chunk(xs, [shares[x][c] for x in xs], k, q,
                                         max_errors)
        support.intersection_update(agree)
    return [e for p in coeffs for e in p], support


def ecc_decode(params: CodeParams, shares: Mapping[int, Sequence[int]],
               max_errors: Optional[int] = None) -> tuple:
    """Decode a byte message from m <= n shares with Byzantine errors.

    Recovers the unique message whose codeword differs from the shares in
    <= e positions, e = (m - k) // 2 clamped to ``max_errors`` as in
    `_decode_chunk`.  Returns ``(message, support)``, where ``support``
    holds the indices whose share equals ``ecc_encode(params, message)``
    at that index.

    Every call runs the full decoder; `OecAccumulator` settles the maps
    it can from the encode memo first.
    """
    for idx, elems in shares.items():
        if len(elems) != params.chunks:
            raise DecodeFailure(f"share {idx} has wrong chunk count")
    data, support = decode_elements(params, shares, max_errors)
    message, canonical = _unframe(params, data)
    if not canonical:
        # Nonzero padding bits or an element above 2^b, which no honest
        # encoder produces: the message re-encodes to another codeword, so
        # count its matches.
        rows = encode_elements(params, pack_message(params, message))
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
    the message is one a node takes (`CodeParams.valid_message`), so never
    the empty one; the adversary holds at most t slots, so an accepted
    message is pinned down by >= k honest shares.
    An attempt over m shares corrects e = min((m - k) // 2, m - threshold)
    errors, as more could never pass the match check.

    Each share is looked up in the encode memo (see `ecc_encode`) as it
    is stored: a memo row needs no `CodeParams.valid_elems` check, and
    ``hits`` counts per message the shares that are its memo row at their
    own index.  From the first attempt on, a candidate M with the most
    hits is kept too, with ``support``, the shares equal to M's row, and
    ``agree`` (a), those equal to it on `CodeParams.lead_chunk`.  One pass
    counts them when M is chosen (at the first attempt with a hit, or
    when another message overtakes M); any other share adds to them in
    O(1).  Each attempt then tests two facts exactly:

    * support >= m - e: M is the full decoder's answer.  On every chunk
      M's codeword equals the received word on the support, so it lies
      within e of it, and 2e + k <= m makes it the unique such codeword,
      which `decode_elements` returns chunk by chunk; M's frame is
      canonical, and the full decoder's support is the shares equal on
      every chunk.
    * a - e >= k and a < m - e: the full decoder fails on the lead chunk.
      A codeword within e of it agrees with the received word on m - e or
      more shares, so with M's lead codeword on a - e >= k of the a where
      M's does; two polynomials of degree below k that agree on k points
      are equal, so it is M's, which matches only a < m - e shares.

    Only an attempt that neither settles calls `ecc_decode`.
    """

    __slots__ = ("params", "threshold", "shares", "decoded", "done",
                 "attempts", "hits", "candidate", "support", "agree")

    def __init__(self, params: CodeParams):
        self.params = params
        self.threshold = params.oec_threshold
        self.shares: dict = {}
        self.decoded: Optional[bytes] = None
        self.done = False
        self.attempts = 0
        self.hits = defaultdict(int)        # message -> its rows held
        self.candidate: Optional[tuple] = None      # (M, M's rows)
        self.support = 0
        self.agree = 0

    def submit(self, index: int, elems: Sequence[int]) -> Optional[bytes]:
        """Store one share; returns the message on the accepting attempt.

        The share is checked here, where it is kept (`Bua` hands on a
        SYMBOL pair's forwarded half unchecked).  A share that fails
        `CodeParams.valid_elems`, a tuple subclass among them, an index
        that is not an int in 1..n, a duplicate, and any share once the
        accumulator is done, is ignored.
        """
        if self.done:
            return None
        params, shares = self.params, self.shares
        hit = params.encoded_rows.get(id(elems))      # a memo row is valid
        if (type(index) is not int or not 0 < index <= params.n
                or index in shares or hit is None and not params.valid_elems(elems)):
            return None
        shares[index] = elems
        if hit is not None and hit[1][index - 1] is elems:
            self.hits[hit[0]] += 1
        else:
            hit = None                          # not a row of its own index
        m, threshold = len(shares), self.threshold
        if m < threshold:
            return None
        self.attempts += 1
        hits, candidate = self.hits, self.candidate
        if candidate is None or hit is not None and hits[hit[0]] > hits[candidate[0]]:
            if hits:
                self._elect(max(hits, key=hits.get))
        else:
            self._count(candidate[1][index - 1], elems)
        e = min((m - params.k) // 2, m - threshold)
        if self.support >= m - e:
            message = self.candidate[0]
        elif self.agree - e >= params.k and self.agree < m - e:
            return None
        else:
            try:
                message, support = ecc_decode(params, shares,
                                              max_errors=m - threshold)
            except DecodeFailure:
                return None
            if len(support) < threshold:
                return None
        if not params.valid_message(message):
            return None
        self.decoded = message
        self.done = True
        return message

    def _elect(self, message: bytes) -> None:
        """Make ``message`` the candidate and count its support and a."""
        rows = self.params.encodings[message]
        self.candidate = message, rows
        shares = self.shares
        if self.hits[message] == len(shares):       # every share is M's row
            self.support = self.agree = len(shares)
            return
        self.support = self.agree = 0
        for x, s in shares.items():
            self._count(rows[x - 1], s)

    def _count(self, row: tuple, s: tuple) -> None:
        """Count the share ``s`` against the candidate's ``row``."""
        if s is row or row == s:
            self.support += 1
            self.agree += 1
        else:
            lead = self.params.lead_chunk
            self.agree += row[lead] == s[lead]
