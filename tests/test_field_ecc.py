"""Codec and online-error-correction tests.

Expected values come from independent oracles: hand polynomial
arithmetic over GF(7), brute-force minimum-distance search over all
q^k candidate polynomials, and the straightforward per-chunk codec kept
below as reference functions (Horner encode, one interpolation per
chunk, Berlekamp-Welch correction by Gaussian elimination, OEC
acceptance by re-encoding), which the lane-packed codec and the
key-equation decoder must match exactly.
"""

import random
from array import array

import pytest

from acool import field_ecc
from acool.field_ecc import (
    LENGTH_PREFIX_BITS, CodeParams, DecodeFailure, MessageTooLong,
    OecAccumulator, ResilienceViolation, _decode_chunk, _unframe,
    decode_elements, derive_params, ecc_decode, ecc_encode, encode_elements,
    pack_message, params_for_message_bits,
)

GF7 = CodeParams(n=6, t=1, k=2, q=7, chunks=1)


def brute_force_decode(params, shares):
    """Oracle: scan every q^k polynomial for the unique nearest codeword."""
    n, k, q = params.n, params.k, params.q
    xs = sorted(shares)
    m = len(xs)
    e_max = (m - k) // 2
    best = None
    for code in range(q ** k):
        coeffs = [(code // q ** i) % q for i in range(k)]
        dist = 0
        for x in xs:
            val = 0
            for c in reversed(coeffs):
                val = (val * x + c) % q
            if (val,) != tuple(shares[x]):
                dist += 1
        if dist <= e_max:
            if best is not None:
                return None  # not unique
            best = coeffs
    return best


def unpack_message(params, elems):
    """The message of a decoded frame; raises DecodeFailure on a bad frame."""
    return _unframe(params, elems)[0]


def one_shot(xs, ys, k, q, max_errors, rng=None):
    """`_decode_chunk`'s ``(p, agree)`` from scratch, or DecodeFailure."""
    try:
        return _decode_chunk(xs, ys, k, q, max_errors)
    except DecodeFailure:
        return DecodeFailure


def shuffled(xs, ys, k, q, max_errors, rng):
    """`_decode_chunk`'s ``(p, agree)`` with the shares folded in one random
    order, or DecodeFailure; ``agree`` is put back in the order of xs."""
    order = rng.sample(range(len(xs)), len(xs))
    got = one_shot([xs[i] for i in order], [ys[i] for i in order], k, q,
                   max_errors)
    if got is DecodeFailure:
        return got
    p, agree = got
    return p, sorted(agree, key=xs.index)


def with_agreement(p, xs, ys, q):
    """``(p, the x whose y equals p(x))``; DecodeFailure passes through."""
    if p is DecodeFailure:
        return p
    return p, [x for x, y in zip(xs, ys) if ref_eval(p, x, q) == y]


def test_derive_params_min_system():
    p = derive_params(4, 1, 8)
    assert (p.k, p.q, p.chunks, p.symbol_bits) == (1, 257, 1, 9)


def test_derive_params_k_floor():
    p = derive_params(31, 10, 80)
    assert p.k == 3 and p.q == 257


def test_derive_params_resilience():
    with pytest.raises(ResilienceViolation):
        derive_params(3, 1, 8)
    with pytest.raises(ValueError, match="msg_len_bits"):
        derive_params(4, 1, 0)
    params = derive_params(4, 1, 64)        # k * chunks = 8 data elements
    with pytest.raises(ValueError, match="expected 8 data elements"):
        encode_elements(params, [0])
    with pytest.raises(DecodeFailure, match="wrong chunk count"):
        ecc_decode(params, {1: (0,) * (params.chunks + 1)})


def test_field_size_tracks_n():
    assert derive_params(400, 100, 64).q == 401


def test_constant_code_shares_all_equal():
    params = params_for_message_bits(4, 1, 16)
    assert params.k == 1
    shares = ecc_encode(params, b"ab")
    assert len(shares) == 4
    assert len(set(shares)) == 1


def test_gf7_encode_matches_hand_values():
    # p(x) = 3 + 5x over GF(7): p(1..6) = 1, 6, 4, 2, 0, 5
    rows = encode_elements(GF7, [3, 5])
    assert [r[0] for r in rows] == [1, 6, 4, 2, 0, 5]


def test_gf7_two_errors_recovered():
    rows = encode_elements(GF7, [3, 5])
    shares = {i + 1: rows[i] for i in range(6)}
    shares[2] = ((shares[2][0] + 3) % 7,)
    shares[5] = ((shares[5][0] + 1) % 7,)
    xs = sorted(shares)
    got = _decode_chunk(xs, [shares[x][0] for x in xs], 2, 7)
    assert got == ([3, 5], [1, 3, 4, 6])
    assert brute_force_decode(GF7, shares) == [3, 5]


def test_gf7_oracle_agreement_sampled():
    rng = random.Random(7)
    for _ in range(300):
        coeffs = [rng.randrange(7), rng.randrange(7)]
        rows = encode_elements(GF7, coeffs)
        shares = {i + 1: rows[i] for i in range(6)}
        for pos in rng.sample(range(1, 7), rng.randrange(3)):
            shares[pos] = ((shares[pos][0] + rng.randrange(1, 7)) % 7,)
        expect = brute_force_decode(GF7, shares)
        xs = sorted(shares)
        ys = [shares[x][0] for x in xs]
        for decode in (one_shot, shuffled):
            got = decode(xs, ys, 2, 7, None, rng)
            assert got == with_agreement(expect or DecodeFailure, xs, ys, 7)


def test_roundtrip_with_corruption():
    rng = random.Random(11)
    for n, t in ((4, 1), (7, 2), (13, 4)):
        params = params_for_message_bits(n, t, 128)
        msg = bytes(rng.randrange(256) for _ in range(16))
        shares = dict(enumerate(ecc_encode(params, msg), 1))
        e = (n - params.k) // 2
        for idx in rng.sample(sorted(shares), min(e, t)):
            shares[idx] = tuple(rng.randrange(params.q) for _ in range(params.chunks))
        message, support = ecc_decode(params, shares)
        assert message == msg


def test_decode_failure_beyond_radius():
    params = params_for_message_bits(4, 1, 16)
    msg = b"xy"
    shares = dict(enumerate(ecc_encode(params, msg), 1))
    picked = {1: shares[1], 2: tuple((e + 1) % params.q for e in shares[2])}
    with pytest.raises(DecodeFailure):
        ecc_decode(params, picked)


def test_message_too_long():
    params = derive_params(4, 1, 8)   # capacity 8 bits < frame alone
    with pytest.raises(MessageTooLong):
        ecc_encode(params, b"a")


def test_pack_unpack_roundtrip():
    rng = random.Random(3)
    for _ in range(50):
        n, t = 7, 2
        params = params_for_message_bits(n, t, 256)
        msg = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 33)))
        assert unpack_message(params, pack_message(params, msg)) == msg


def test_oec_returns_at_threshold():
    params = params_for_message_bits(7, 2, 64)
    msg = b"payload!"
    # rows outside the encode memo, so the attempt reaches the full decoder
    rows = encode_elements(params, pack_message(params, msg))
    acc = OecAccumulator(params)
    got = None
    for i, elems in enumerate(rows):
        got = acc.submit(i + 1, elems)
        if got is not None:
            assert i + 1 == params.oec_threshold
            break
    assert got == msg and acc.done and acc.attempts == 1


def test_oec_below_threshold_returns_nothing():
    params = params_for_message_bits(7, 2, 64)
    rows = ecc_encode(params, b"payload!")
    acc = OecAccumulator(params)
    for i in range(1, params.oec_threshold):
        assert acc.submit(i, rows[i - 1]) is None
    assert not acc.done


def test_oec_duplicate_ignored():
    params = params_for_message_bits(7, 2, 64)
    rows = ecc_encode(params, b"payload!")
    acc = OecAccumulator(params)
    acc.submit(1, rows[0])
    assert acc.submit(1, (0,) * params.chunks) is None
    assert acc.shares == {1: rows[0]}


def test_oec_ignores_invalid_shares_and_indices():
    """An ill-typed share, one outside [0, q) or of the wrong length, and an
    index that is not an int in 1..n are ignored, so the accumulator still
    accepts at the threshold.  A stored ``("x",) * chunks`` share once
    made every later attempt raise TypeError."""
    params = params_for_message_bits(7, 2, 64)
    n, q, chunks = params.n, params.q, params.chunks
    rows = ecc_encode(params, b"payload!")
    acc = OecAccumulator(params)
    invalid = [(2, ("x",) * chunks), (2, list(rows[1])), (3, rows[2][:-1]),
               (3, (q,) + rows[2][1:]), (4, None), (0, rows[0]),
               (n + 1, rows[0]), (True, rows[0]), (2.0, rows[1]),
               ("3", rows[2]), ([4], rows[3])]
    for index, elems in invalid:
        assert acc.submit(index, elems) is None
    assert acc.shares == {} and acc.attempts == 0
    # a tuple subclass is no share, and its methods are never run
    flaky = _FlakyShare(rows[0])
    assert acc.submit(1, flaky) is None and acc.shares == {}
    assert not hasattr(flaky, "calls")
    acc.submit(1, rows[0])
    got = [acc.submit(x, tuple(list(row)) if x % 2 else row)
           for x, row in enumerate(rows[1:], 2)]
    assert got[params.oec_threshold - 2] == b"payload!" and acc.attempts == 1


def test_oec_with_garbage_recovers_within_t_retries():
    rng = random.Random(5)
    params = params_for_message_bits(7, 2, 64)
    msg = b"payload!"
    # rows outside the encode memo, so every attempt reaches the full decoder
    good = encode_elements(params, pack_message(params, msg))
    for _ in range(100):
        order = list(range(1, 8))
        rng.shuffle(order)
        bad = set(rng.sample(order, 2))
        acc = OecAccumulator(params)
        got = None
        for idx in order:
            elems = (tuple(rng.randrange(params.q) for _ in range(params.chunks))
                     if idx in bad else good[idx - 1])
            got = acc.submit(idx, elems)
            if got is not None:
                break
        assert got == msg
        assert acc.attempts <= params.t + 1


def test_oec_match_check_blocks_minority_decode():
    # Accepting requires k+t stored shares to match; garbage cannot fake it.
    params = params_for_message_bits(7, 2, 64)
    rng = random.Random(9)
    acc = OecAccumulator(params)
    for idx in range(1, 4):
        acc.submit(idx, tuple(rng.randrange(params.q) for _ in range(params.chunks)))
    assert not acc.done


def test_determinism():
    params = params_for_message_bits(7, 2, 64)
    msg = b"payload!"
    a = ecc_encode(params, msg)
    b = ecc_encode(params, msg)
    assert a == b


# ---------------------------------------------------------------------------
# reference codec: the per-chunk loops the lane-packed codec replaced
# ---------------------------------------------------------------------------


def ref_encode_elements(params, data):
    """Horner evaluation of every chunk at every point."""
    n, k, q, chunks = params.n, params.k, params.q, params.chunks
    out = []
    for x in range(1, n + 1):
        vals = []
        for c in range(chunks):
            acc = 0
            for coeff in reversed(data[c * k:(c + 1) * k]):
                acc = (acc * x + coeff) % q
            vals.append(acc)
        out.append(tuple(vals))
    return out


def ref_interpolate(xs, ys, q):
    """Lagrange interpolation of one chunk; ascending coefficients."""
    k = len(xs)
    coeffs = [0] * k
    for i in range(k):
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
        scale = ys[i] * pow(denom, -1, q) % q
        for d in range(len(num)):
            coeffs[d] = (coeffs[d] + scale * num[d]) % q
    return coeffs


def ref_eval(coeffs, x, q):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def ref_solve_linear(mat, rhs, q):
    """Solve mat * z = rhs over GF(q) by Gaussian elimination; free
    variables are set to 0.  Returns None when the system is inconsistent."""
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


def ref_poly_div(num, den, q):
    """Long division of ascending-coefficient polynomials: (quot, rem)."""
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


def ref_decode_chunk(xs, ys, k, q, max_errors=None):
    """Berlekamp-Welch: one linear system over GF(q), solved by elimination."""
    m = len(xs)
    if m < k:
        raise DecodeFailure("fewer shares than data symbols")
    p = ref_interpolate(xs[:k], ys[:k], q)
    if all(ref_eval(p, x, q) == y for x, y in zip(xs, ys)):
        return p
    e = (m - k) // 2
    if max_errors is not None:
        e = min(e, max_errors)
    if e <= 0:
        raise DecodeFailure("inconsistent shares with no correction margin")
    # Unknowns: Q's k + e coefficients, then the low coefficients of the
    # monic degree-e error locator E.  One equation per point:
    #   Q(x) - y * (E_low(x) + x^e) = 0.
    mat, rhs = [], []
    for x, y in zip(xs, ys):
        mat.append([pow(x, d, q) for d in range(k + e)]
                   + [-y * pow(x, d, q) % q for d in range(e)])
        rhs.append(y * pow(x, e, q) % q)
    sol = ref_solve_linear(mat, rhs, q)
    if sol is None:
        raise DecodeFailure("no error locator of admissible degree")
    p, rem = ref_poly_div(sol[:k + e], sol[k + e:] + [1], q)
    if any(rem):
        raise DecodeFailure("error locator does not divide the quotient")
    p = p[:k] + [0] * max(0, k - len(p))
    if sum(1 for x, y in zip(xs, ys) if ref_eval(p, x, q) != y) > e:
        raise DecodeFailure("nearest codeword outside correctable radius")
    return p


def ref_lead_chunk(params):
    """The chunk of the first element that holds a bit past the 32-bit
    length prefix, or the last chunk when no element does."""
    b = params.q.bit_length() - 1
    first = next(i for i in range(33) if (i + 1) * b > 32)
    return min(first // params.k, params.chunks - 1)


def ref_decode_elements(params, shares, max_errors=None, corrections=None):
    """Correct the lead chunk, then one interpolation per other chunk on
    its clean indices, else correction.

    Appends one entry to ``corrections`` per `ref_decode_chunk` call.
    """
    def decode_chunk(ys):
        if corrections is not None:
            corrections.append(1)
        return ref_decode_chunk(xs, ys, k, q, max_errors)

    xs = sorted(shares)
    if not xs or xs[0] < 1 or xs[-1] > params.n:
        raise DecodeFailure("share indices outside 1..n")
    k, q, lead = params.k, params.q, ref_lead_chunk(params)
    first = decode_chunk([shares[x][lead] for x in xs])
    clean = [x for x in xs if ref_eval(first, x, q) == shares[x][lead]]
    data = []
    for c in range(params.chunks):
        ys = {x: shares[x][c] for x in xs}
        p = first if c == lead else None
        if p is None and len(clean) >= k:
            cand = ref_interpolate(clean[:k], [ys[x] for x in clean[:k]], q)
            if all(ref_eval(cand, x, q) == ys[x] for x in clean):
                p = cand
        if p is None:
            p = decode_chunk([ys[x] for x in xs])
        data.extend(p)
    return data


def ref_matches(params, shares, data):
    """Indices whose share equals the codeword of ``data``."""
    rows = ref_encode_elements(params, data)
    return {i for i, s in shares.items() if rows[i - 1] == tuple(s)}


def ref_oec(params, arrivals):
    """Accumulate-and-retry with acceptance by re-encoding; a share that
    fails the share check is ignored, and b"" is never accepted.

    Returns (message, arrival position of the accepting submit, attempts),
    with None for the first two when nothing is accepted.
    """
    threshold = params.oec_threshold
    shares = {}
    attempts = 0
    for pos, (idx, elems) in enumerate(arrivals):
        if idx in shares or not ref_valid_elems(params, elems):
            continue
        shares[idx] = tuple(elems)
        if len(shares) < threshold:
            continue
        attempts += 1
        try:
            data = ref_decode_elements(params, shares, len(shares) - threshold)
            message = unpack_message(params, data)
        except DecodeFailure:
            continue
        framed = pack_message(params, message)
        if message and len(ref_matches(params, shares, framed)) >= threshold:
            return message, pos, attempts
    return None, None, attempts


def run_oec(params, arrivals):
    """Submit every arrival, also after acceptance, which must change nothing.

    Returns what `ref_oec` returns.
    """
    acc = OecAccumulator(params)
    accepted = None
    for pos, (idx, elems) in enumerate(arrivals):
        got = acc.submit(idx, elems)
        if accepted is None and got is not None:
            accepted = got, pos, acc.attempts
        else:
            assert got is None
    if accepted is None:
        assert not acc.done and acc.decoded is None
        return None, None, acc.attempts
    assert acc.done and acc.decoded == accepted[0]
    assert acc.attempts == accepted[2]
    return accepted


def decode_outcome(fn, params, shares, max_errors):
    try:
        return fn(params, shares, max_errors)
    except DecodeFailure:
        return DecodeFailure


def geometry(k, chunks, q):
    t = 3 * k
    n = max(3 * t + 1, q - 1 if q > 257 else 0)
    return CodeParams(n=n, t=t, k=k, q=q, chunks=chunks)


GEOMETRIES = [geometry(k, chunks, q)
              for q in (257, 263) for k in (1, 2, 5, 11) for chunks in (1, 2, 104)]
GEOMETRIES.append(CodeParams(n=12, t=3, k=2, q=65537, chunks=3))  # 64-bit lanes


def out_of_range(rng, q, v):
    return rng.choice((v + q, -1 - v, q, 2 ** 70 + v))


def corrupted_share_sets(rng, params, data):
    """Seeded share maps: whole-share garbage, per-chunk errors that defeat
    chunk 0's error pattern, errors beyond the radius, elements outside
    [0, q), and shares of a second codeword that equals the first on
    chunk 0 (as the all-zero top of the length prefix makes two messages
    do)."""
    n, k, q, chunks = params.n, params.k, params.q, params.chunks
    rows = ref_encode_elements(params, data)
    for trial in range(10):
        m = rng.randint(k, min(n, 3 * k + 8))
        xs = sorted(rng.sample(range(1, n + 1), m))
        shares = {x: list(rows[x - 1]) for x in xs}
        e = (m - k) // 2
        kind = trial % 5
        if kind == 0:          # whole shares replaced by garbage
            for x in rng.sample(xs, rng.randint(0, e)):
                shares[x] = [rng.randrange(q) for _ in range(chunks)]
        elif kind == 1:        # independent error patterns per chunk
            picked = rng.sample(range(chunks), rng.randint(1, chunks))
            for c in picked + [chunks - 1]:
                for x in rng.sample(xs, rng.randint(min(1, e), e)):
                    shares[x][c] = (shares[x][c] + rng.randrange(1, q)) % q
        elif kind == 2:        # one chunk beyond the correction radius
            c = rng.randrange(chunks)
            for x in rng.sample(xs, min(m, e + 1 + rng.randint(0, 2))):
                shares[x][c] = (shares[x][c] + rng.randrange(1, q)) % q
        elif kind == 3:        # elements outside [0, q)
            for _ in range(rng.randint(1, e + 2)):
                x, c = rng.choice(xs), rng.randrange(chunks)
                shares[x][c] = out_of_range(rng, q, shares[x][c])
        else:                  # a second codeword, equal on chunk 0
            other = data[:k] + [rng.randrange(q) for _ in range(k * (chunks - 1))]
            second = ref_encode_elements(params, other)
            for x in rng.sample(xs, rng.randint(0, min(m, e + 1))):
                shares[x] = list(second[x - 1])
        max_errors = rng.choice((None, None, 0, 1, e, m - params.oec_threshold))
        yield {x: tuple(v) for x, v in shares.items()}, max_errors


@pytest.mark.parametrize("params", GEOMETRIES,
                         ids=lambda p: f"k{p.k}-c{p.chunks}-q{p.q}")
def test_codec_matches_reference(params, monkeypatch):
    corrections = []
    decode_chunk = field_ecc._decode_chunk

    def counted(*args):
        corrections.append(1)
        return decode_chunk(*args)

    monkeypatch.setattr(field_ecc, "_decode_chunk", counted)
    rng = random.Random(params.k * 1000 + params.chunks * 10 + params.q)
    fallbacks = reseeded = 0
    for _ in range(3):
        data = [rng.randrange(params.q) for _ in range(params.k * params.chunks)]
        rows = ref_encode_elements(params, data)
        assert encode_elements(params, data) == rows
        for shares, max_errors in corrupted_share_sets(rng, params, data):
            del corrections[:]
            ref_corrections = []
            got = decode_outcome(decode_elements, params, shares, max_errors)
            want = decode_outcome(
                lambda *args: ref_decode_elements(*args, ref_corrections),
                params, shares, max_errors)
            if want is DecodeFailure:
                assert got is DecodeFailure
                continue
            assert got == (want, ref_matches(params, shares, want))
            assert len(corrections) <= len(ref_corrections)
            fallbacks += len(corrections) > 1
            reseeded += len(corrections) < len(ref_corrections)
    if params.k > 1 and params.chunks > 1:
        assert fallbacks > 0     # some chunks went to full correction
    if params.chunks > 2:
        # some chunk that failed the lead chunk's clean set passed on the
        # indices another chunk's full correction found, without its own
        assert reseeded > 0


@pytest.mark.parametrize("n,k", [(31, 3), (13, 1), (49, 5)])
def test_decode_chunk_matches_berlekamp_welch(n, k, monkeypatch):
    """The key-equation decoder, in order and shuffled, against the reference
    at the workloads' geometries.

    "exactly e" and "e + 1" put that many errors around the radius e, the
    lowered one included (max_errors = 0 at m = k + t among them).  Where
    2(e + 1) + k <= m, the codeword at distance e + 1 is the only one that
    near, so both decoders must fail on the degree comparison, with no
    division.
    """
    q = 257
    t = (n - 1) // 3
    rng = random.Random(n * 100 + k)
    divisions = counting(monkeypatch, "_poly_div")
    outcomes = set()             # "failed", "clean" or "corrected"
    on_degree = 0                # failures that must not divide
    for m in range(k, n + 1):
        xs = sorted(rng.sample(range(1, n + 1), m))
        e = (m - k) // 2
        for kind in ("garbage", "second codeword", "exactly e", "e + 1"):
            coeffs = [rng.randrange(q) for _ in range(k)]
            ys = [ref_eval(coeffs, x, q) for x in xs]
            max_errors = rng.choice((None, m - (k + t), rng.randint(0, e)))
            if kind == "garbage":
                for i in rng.sample(range(m), min(m, rng.randint(0, e + 2))):
                    ys[i] = rng.randrange(q)
            elif kind == "second codeword":
                other = [rng.randrange(q) for _ in range(k)]
                for i in rng.sample(range(m), rng.randint(0, m)):
                    ys[i] = ref_eval(other, xs[i], q)
            else:
                if m == k + t:
                    max_errors = 0
                radius = e if max_errors is None else max(0, min(e, max_errors))
                wrong = min(m, radius + (kind == "e + 1"))
                for i in rng.sample(range(m), wrong):
                    ys[i] = (ys[i] + rng.randrange(1, q)) % q
            try:
                want = ref_decode_chunk(xs, ys, k, q, max_errors)
            except DecodeFailure:
                want = DecodeFailure
            for decode in (one_shot, shuffled):
                del divisions[:]
                assert decode(xs, ys, k, q, max_errors, rng) == with_agreement(
                    want, xs, ys, q), (m, kind, max_errors, decode.__name__)
                if kind == "e + 1" and 2 * (radius + 1) + k <= m:
                    assert want is DecodeFailure and divisions == []
                    on_degree += 1
            if want is DecodeFailure:
                outcomes.add("failed")
            elif all(ref_eval(want, x, q) == y for x, y in zip(xs, ys)):
                outcomes.add("clean")
            else:
                outcomes.add("corrected")
    assert outcomes == {"failed", "clean", "corrected"}
    assert on_degree > 0


def test_largest_lane_sum():
    # k*(q-1)^2 just below 2^32 fills a 32-bit lane; at x = q-1 the lane
    # sums (q-1) + (q-1)^2 before reduction.
    q = 46337
    params = CodeParams(n=q - 1, t=0, k=2, q=q, chunks=2)
    assert 8 * array(params.lane_code).itemsize == 32
    data = [q - 1] * 4
    rows = encode_elements(params, data)
    assert rows == ref_encode_elements(params, data)
    shares = {x: rows[x - 1] for x in range(q - 6, q)}
    assert decode_elements(params, shares) == (data, set(shares))
    shares[q - 1] = (q - 2, 2 * q)
    assert decode_elements(params, shares) == (data, set(range(q - 6, q - 1)))


def test_lane_width_is_the_narrowest_holding_k_q_squared():
    widths = [8 * array(code).itemsize for code in "BHIQ"]
    assert 8 * array(GEOMETRIES[-1].lane_code).itemsize == 64
    for params in GEOMETRIES + [CodeParams(n=6, t=1, k=2, q=7, chunks=1)]:
        need = (params.k * (params.q - 1) ** 2).bit_length()
        width = 8 * array(params.lane_code).itemsize
        assert width >= need
        assert all(w < need for w in widths if w < width)
    with pytest.raises(ValueError):
        CodeParams(n=4, t=1, k=2, q=2 ** 32 + 15, chunks=1).lane_code


OEC_KINDS = 7


def oec_arrivals(rng, params, kind):
    """One share per node in random order, the t Byzantine ones corrupted by
    ``kind``, with re-submissions of earlier indices mixed in.

    Kinds 0-3: garbage, one element off by one, one element outside
    [0, q) (a share the accumulator ignores), and a second codeword equal
    to the message on chunk 0.  Kind 4, "garbage first", sends the t
    garbage shares before any honest one, so an accumulator makes all
    t + 1 attempts.  Kind 5 splits the honest
    indices between the memoised rows of two messages of one length, as
    an equivocating leader does, and the Byzantine ones send garbage.
    Kind 6 forges shares that equal the message on the lead chunk only,
    so an attempt passes the lead chunk's degree check and can still
    fail."""
    n, t, k, q, chunks = params.n, params.t, params.k, params.q, params.chunks
    msg = bytes(rng.randrange(256) for _ in range(
        rng.randrange(1, params.capacity_bits // 8 - 4)))
    framed = pack_message(params, msg)
    good = encode_elements(params, framed)
    # a second codeword, equal to the first on chunk 0
    second = encode_elements(params, framed[:k] + [
        rng.randrange(q) for _ in range(k * (chunks - 1))])
    bad = set(rng.sample(range(1, n + 1), t))
    order = rng.sample(range(1, n + 1), n)
    if kind == 4:
        order.sort(key=lambda idx: idx not in bad)
    elif kind == 5:
        other = bytes(rng.randrange(256) for _ in msg)
        honest = sorted(set(order) - bad)
        camp = set(rng.sample(honest, rng.randint(0, len(honest))))
        memo = ecc_encode(params, msg), ecc_encode(params, other)
    lead_chunk = ref_lead_chunk(params)
    arrivals = []
    for idx in order:
        elems = list(good[idx - 1])
        if kind == 5 and idx not in bad:
            elems = memo[idx in camp][idx - 1]
        elif idx in bad:
            if kind in (0, 4, 5):
                elems = [rng.randrange(q) for _ in range(chunks)]
            elif kind == 1:
                c = rng.randrange(chunks)
                elems[c] = (elems[c] + 1) % q
            elif kind == 2:
                c = rng.randrange(chunks)
                elems[c] = out_of_range(rng, q, elems[c])
            elif kind == 3:
                elems = list(second[idx - 1])
            else:
                elems = [v if c == lead_chunk else rng.randrange(q)
                         for c, v in enumerate(elems)]
        arrivals.append((idx, tuple(elems)))
    for _ in range(rng.randint(1, n // 2)):
        pos = rng.randrange(1, n + 1)
        idx = rng.choice(arrivals[:pos])[0]
        elems = rng.choice((good[idx - 1], second[idx - 1],
                            tuple(rng.randrange(q) for _ in range(chunks))))
        arrivals.insert(pos, (idx, elems))
    return arrivals


def memo_tallies(acc):
    """An accumulator's memo tallies recomputed from its stored shares.

    Returns ``(hits, support, agree)``: per memoised message, the shares
    that are its row at their own index, and the shares equal to the
    candidate's row in whole and on the lead chunk (0 and 0 while there
    is no candidate).
    """
    params, shares = acc.params, acc.shares
    hits = {}
    for message, rows in params.encodings.items():
        count = sum(s is rows[x - 1] for x, s in shares.items())
        if count:
            hits[message] = count
    if acc.candidate is None:
        return hits, 0, 0
    rows, lead = params.encodings[acc.candidate[0]], ref_lead_chunk(params)
    return (hits, sum(rows[x - 1] == s for x, s in shares.items()),
            sum(rows[x - 1][lead] == s[lead] for x, s in shares.items()))


def settled_by(acc):
    """What settles an accumulator's last attempt from the recomputed
    tallies: "memo" when support >= m - e, "certificate" when a - e >= k
    and a < m - e, else None (the full decoder must run)."""
    m, k = len(acc.shares), acc.params.k
    e = min((m - k) // 2, m - acc.threshold)
    _, support, agree = memo_tallies(acc)
    if support >= m - e:
        return "memo"
    if agree - e >= k and agree < m - e:
        return "certificate"
    return None


def audit(monkeypatch):
    """Check every `OecAccumulator.submit` of the test as it returns.

    The tallies must equal `memo_tallies`, and once an attempt is made the
    candidate must hold the most hits.  An attempt calls `ecc_decode`
    exactly once unless `settled_by` names what settles it, and then
    never; a memo answer is the candidate (None for b"", which is never
    accepted), and a certificate a failure.
    Returns the list of ``(accumulator, settled_by, returned)`` that
    collects every attempt.
    """
    attempts, calls = [], []
    submit, decode = OecAccumulator.submit, field_ecc.ecc_decode

    def audited(acc, *args):
        before, made = acc.attempts, len(calls)
        got = submit(acc, *args)
        hits, support, agree = memo_tallies(acc)
        assert acc.hits == hits
        assert (acc.support, acc.agree) == (support, agree)
        if acc.attempts and hits:
            assert hits[acc.candidate[0]] == max(hits.values())
        if acc.attempts == before:
            assert len(calls) == made and got is None
            return got
        by = settled_by(acc)
        assert len(calls) - made == (by is None)
        if by == "memo":
            assert got == (acc.candidate[0] or None)
        elif by == "certificate":
            assert got is None
        attempts.append((acc, by, got))
        return got

    def counted(*args, **kwargs):
        calls.append(1)
        return decode(*args, **kwargs)

    monkeypatch.setattr(OecAccumulator, "submit", audited)
    monkeypatch.setattr(field_ecc, "ecc_decode", counted)
    return attempts


def oec_reference(params, shares, threshold):
    """What an attempt over the shares of ``shares`` that pass
    `ref_valid_elems` returns by the full decoder on copies: its message
    when it is not empty and at least ``threshold`` of them match it."""
    shares = {x: s for x, s in shares.items() if ref_valid_elems(params, s)}
    m = len(shares)
    try:
        message, support = full_decode(params, shares, m - threshold)
    except DecodeFailure:
        return None
    return message if message and len(support) >= threshold else None


@pytest.mark.parametrize("n,t,bits", [(7, 2, 64), (13, 4, 1024), (19, 6, 512),
                                      (31, 10, 1024), (49, 16, 256)])
def test_oec_matches_reference(n, t, bits, monkeypatch):
    """The accumulator against `ref_oec` on every arrival kind, garbage
    first making all t + 1 attempts.  Every attempt calls `ecc_decode`
    exactly once unless its memo tallies settle it (see `audit`), and
    the certificate settles some, as on the memo rows of kind 5."""
    params = params_for_message_bits(n, t, bits)
    assert params.lead_chunk == ref_lead_chunk(params)
    rng = random.Random(n)
    attempts = audit(monkeypatch)
    accepted = 0
    for trial in range(4 * OEC_KINDS):
        kind = trial % OEC_KINDS
        arrivals = oec_arrivals(rng, params, kind)
        got = run_oec(params, arrivals)
        assert got == ref_oec(params, arrivals)
        accepted += got[1] is not None and got[1] < len(arrivals) - 1
        if kind == 4:             # garbage first: every attempt is made
            assert got[2] == t + 1
    assert accepted > 0           # some submits came after acceptance
    assert any(by == "certificate" for _, by, _ in attempts)


@pytest.mark.parametrize("padding", ["low bit", "element above 2^b"])
def test_noncanonical_frame_falls_back_to_reencode(padding, monkeypatch):
    params = params_for_message_bits(19, 6, 256)
    framed = pack_message(params, b"short")
    crafted = list(framed)
    crafted[-1] = 1 if padding == "low bit" else params.q - 1
    rows = ref_encode_elements(params, crafted)
    shares = {i + 1: rows[i] for i in range(params.n)}
    assert unpack_message(params, crafted) == unpack_message(params, framed)
    assert decode_elements(params, shares) == (crafted, set(shares))

    encodes = []
    encode = field_ecc.encode_elements

    def counted(*args):
        encodes.append(1)
        return encode(*args)

    monkeypatch.setattr(field_ecc, "encode_elements", counted)
    message, support = ecc_decode(params, shares)
    assert encodes == [1]
    assert message == unpack_message(params, crafted)
    assert support == ref_matches(params, shares, pack_message(params, message))
    assert len(support) < params.k
    arrivals = sorted(shares.items())
    attempts = params.n - params.oec_threshold + 1
    assert run_oec(params, arrivals) == ref_oec(params, arrivals) == (None, None, attempts)


def test_canonical_frame_decodes_without_reencode(monkeypatch):
    params = params_for_message_bits(19, 6, 256)
    # rows outside the encode memo, so the full decoder runs
    rows = encode_elements(params, pack_message(params, b"short"))
    shares = {i + 1: row for i, row in enumerate(rows)}
    monkeypatch.setattr(field_ecc, "encode_elements", None)
    assert ecc_decode(params, shares) == (b"short", set(shares))


def test_canonical_flag_is_pack_of_unpack():
    params = params_for_message_bits(19, 6, 256)
    rng = random.Random(4)
    b, total = params.elem_payload_bits, params.k * params.chunks
    framed = pack_message(params, b"short")
    seen = set()
    for _ in range(400):
        elems = list(framed)
        for _ in range(rng.randrange(3)):
            i = rng.randrange(total)
            elems[i] = rng.choice((rng.randrange(1 << b), rng.randrange(params.q),
                                   (1 << b) + rng.randrange(params.q - (1 << b))))
        try:
            message = unpack_message(params, elems)
        except DecodeFailure:
            continue
        canonical = _unframe(params, elems) == (message, True)
        assert canonical == (pack_message(params, message) == elems)
        seen.add(canonical)
    assert seen == {True, False}


def ref_valid_elems(params, elems):
    """The share check as a plain loop over exact types, without the memo
    index: a bool or a subclass is no field element or share."""
    if type(elems) is not tuple or len(elems) != params.chunks:
        return False
    return all(type(e) is int and 0 <= e < params.q for e in elems)


class _FlakyShare(tuple):
    """A tuple subclass that iterates as a valid share only the first time."""

    def __iter__(self):
        self.calls = getattr(self, "calls", 0) + 1
        if self.calls == 1:
            return super().__iter__()
        return iter([-1] * len(self))


def test_valid_elems_cache_matches_plain_loop():
    params = params_for_message_bits(7, 2, 64)
    share = ecc_encode(params, b"cached!")[3]
    with_bool = (True,) + share[1:]
    inputs = [
        share, with_bool, tuple(share), share[:-1], share + (0,),
        (params.q,) + share[1:], (-1,) + share[1:], (2 ** 70,) + share[1:],
        (1.0,) + share[1:], ("1",) + share[1:], (None,) + share[1:],
        list(share), None, b"share", 7,
    ]
    for _ in range(2):           # before the cache holds them, then after
        for elems in inputs:
            assert params.valid_elems(elems) == ref_valid_elems(params, elems)
    # a memo row is valid by the memo index; a bool is no field element
    assert id(share) in params.encoded_rows and params.valid_elems(share)
    assert not params.valid_elems(with_bool)


def test_valid_elems_checks_an_equal_copy_of_a_memo_row_in_full():
    """Only the memo's own row object passes by the memo index: a tuple
    equal to it is checked element by element."""
    params = params_for_message_bits(7, 2, 64)
    row = ecc_encode(params, b"memo row")[2]
    assert params.valid_elems(row) and id(row) in params.encoded_rows
    floats = tuple(float(e) for e in row)
    assert floats == row and not params.valid_elems(floats)
    copy = tuple(list(row))
    assert copy == row and copy is not row
    assert params.valid_elems(copy) and id(copy) not in params.encoded_rows


class _RaisingBytes(bytes):
    def __len__(self):
        raise RuntimeError("len ran")


def test_valid_message_takes_non_empty_exact_bytes_that_fit():
    params = params_for_message_bits(7, 2, 64)
    room = (params.capacity_bits - LENGTH_PREFIX_BITS) // 8
    assert params.valid_message(b"x") and params.valid_message(bytes(room))
    for message in (b"", bytes(room + 1), bytearray(b"x"), _RaisingBytes(b"x"),
                    "x", None, 7):
        assert not params.valid_message(message)


def test_valid_elems_cache_never_hits_other_objects():
    params = params_for_message_bits(4, 1, 64)
    share = tuple([1] * params.chunks)
    assert params.valid_elems(share)
    # a sentinel-free probe, accepted.get(id(x)) is x, would accept None
    assert not params.valid_elems(None)
    as_list = list(share)
    assert not params.valid_elems(as_list) and not params.valid_elems(as_list)
    float_copy = (1.0,) + share[1:]
    assert float_copy == share and not params.valid_elems(float_copy)
    flaky = _FlakyShare(share)
    assert not params.valid_elems(flaky)      # a subclass is no share
    assert not params.valid_elems(flaky)
    assert not hasattr(flaky, "calls")        # its __iter__ never ran
    assert params.valid_elems(share)


# ---------------------------------------------------------------------------
# encode memo and recognition of memoised codewords
# ---------------------------------------------------------------------------


def counting(monkeypatch, name):
    """Replace field_ecc.<name> by a wrapper that counts its calls."""
    calls = []
    fn = getattr(field_ecc, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(field_ecc, name, counted)
    return calls


def full_decode(params, shares, max_errors=None):
    """`ecc_decode` on copies of the shares, which hold no memo row, so an
    accumulator fed them never answers from its memo tallies."""
    copies = {x: tuple(list(s)) for x, s in shares.items()}
    assert not any(id(c) in params.encoded_rows for c in copies.values())
    return ecc_decode(params, copies, max_errors)


def first_attempt(monkeypatch, params, shares, threshold):
    """Submit ``shares`` in order to a fresh accumulator that makes its
    first attempt on the last one, with ``threshold``, so the attempt
    corrects e = min((m - k) // 2, m - threshold) errors.

    Returns what that submit returned and its `ecc_decode` calls.
    """
    acc = OecAccumulator(params)
    items = list(shares.items())
    acc.threshold = len(items) + 1        # no attempt before the last share
    for x, s in items[:-1]:
        acc.submit(x, s)
    acc.threshold = threshold
    with monkeypatch.context() as patch:
        calls = counting(patch, "ecc_decode")
        got = acc.submit(*items[-1])
    assert acc.attempts == 1
    return got, len(calls)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_recognised_decode_equals_full_decode(k, monkeypatch):
    """An accumulator holding memo rows of one message alone settles it
    from its tallies, with no `ecc_decode` call, at any error radius, and
    accepts it unless it is b""; the full decoder on copies gives the same
    message, every index matching."""
    rng = random.Random(k)
    t = 3 * k
    n = 3 * t + 1
    for bits in (8, 200, 1000):
        params = params_for_message_bits(n, t, bits)
        for _ in range(2):
            msg = bytes(rng.randrange(256)
                        for _ in range(rng.randrange(bits // 8 + 1)))
            rows = ecc_encode(params, msg)
            for m in range(k, n + 1):
                xs = rng.sample(range(1, n + 1), m)   # shuffled insertion
                shares = {x: rows[x - 1] for x in xs}
                e = rng.choice((0, (m - k) // 2, min((m - k) // 2,
                                                    max(0, m - k - t))))
                assert full_decode(params, shares, e) == (msg, set(xs))
                got = first_attempt(monkeypatch, params, shares, m - e)
                assert got == (msg or None, 0)
                assert oec_reference(params, shares, m - e) == (msg or None)


class _TupleSub(tuple):
    pass


def test_share_maps_within_the_radius_take_the_memo_path(monkeypatch):
    params = params_for_message_bits(19, 6, 256)      # k = 2
    n, k = params.n, params.k
    rows = ecc_encode(params, b"first")
    other = ecc_encode(params, b"second")
    whole = {x: rows[x - 1] for x in range(1, n + 1)}
    cases = {
        "wrong index": {**whole, 1: rows[1], 2: rows[0]},
        "two messages": {**whole, **{x: other[x - 1] for x in range(1, 8)}},
        "equal but distinct": {**whole, 5: tuple(list(rows[4]))},
        "tuple subclass": {**whole, 5: _TupleSub(rows[4])},
    }
    for name, shares in cases.items():
        threshold = n - (n - k) // 2
        assert oec_reference(params, shares, threshold) == b"first", name
        got = first_attempt(monkeypatch, params, shares, threshold)
        assert got == (b"first", 0), name
    # the mix is within the radius: the majority message, on its own rows
    assert full_decode(params, cases["two messages"]) == (
        b"first", set(range(8, n + 1)))


def mixed_share(rng, params, x, first, second):
    """One share for index ``x`` of the differential test's share maps."""
    q, chunks = params.q, params.chunks
    kind = rng.choice(("first", "first", "first", "second", "copy",
                       "subclass", "valid", "above q", "chunk count"))
    row = first[x - 1] if 1 <= x <= params.n else first[0]
    if kind == "second":
        return second[x - 1] if 1 <= x <= params.n else second[0]
    if kind == "copy":
        return tuple(list(row))
    if kind == "subclass":
        return _TupleSub(row)
    if kind == "valid":
        return tuple(rng.randrange(q) for _ in range(chunks))
    if kind == "above q":
        c = rng.randrange(chunks)
        return row[:c] + (q + rng.randrange(3),) + row[c + 1:]
    if kind == "chunk count":
        return row + (0,) if rng.random() < 0.5 else row[:-1]
    return row


@pytest.mark.parametrize("k", [1, 2, 3])
def test_memo_path_matches_full_decoder_on_mixed_maps(k, monkeypatch):
    """Seeded differential test: on share maps mixing the rows of one or
    two memoised messages, or copies of the first's rows, with equal
    copies, tuple subclasses, valid random shares, elements >= q, wrong
    chunk counts and indices 0 or n+1, an accumulator's attempt gives exactly the full decoder's outcome
    on copies of the shares it keeps, whether its tallies settle it or
    `ecc_decode` runs."""
    rng = random.Random(100 + k)
    t = 3 * k
    n = 3 * t + 1
    params = params_for_message_bits(n, t, 64 * k)
    seen = set()                  # (tallies settled it, accepted)
    for trial in range(8):
        first = ecc_encode(params, bytes([trial]) * rng.randrange(1, 8 * k))
        second = ecc_encode(params, bytes([trial + 100, trial]))
        for m in range(k, n + 1):
            xs = rng.sample(range(1, n + 1), m)
            if rng.random() < 0.1:
                xs[rng.randrange(m)] = rng.choice((0, n + 1))
            noise = rng.choice((0, 0.1, 0.3, 1))
            base = rng.choice((first, first, [tuple(list(r)) for r in first]))
            shares = {x: mixed_share(rng, params, x, first, second)
                      if rng.random() < noise or not 0 < x <= n
                      else base[x - 1] for x in xs}
            kept = {x: s for x, s in shares.items()
                    if 0 < x <= n and ref_valid_elems(params, s)}
            if len(kept) < k:
                continue
            m = len(kept)
            ignored = {x: s for x, s in shares.items() if x not in kept}
            for e in {0, (m - k) // 2, min((m - k) // 2, max(0, m - k - t))}:
                expect = oec_reference(params, kept, m - e)
                got, calls = first_attempt(monkeypatch, params,
                                           {**ignored, **kept}, m - e)
                assert got == expect, (m, e, shares)
                if got is not None:
                    assert type(got) is bytes
                seen.add((calls == 0, got is not None))
    # the tallies accepted and failed, the full decoder accepted and failed
    assert {(True, True), (True, False), (False, True), (False, False)} <= seen


def lead_only_share(rng, params, row):
    """A valid copy of ``row`` that differs from it on one chunk past the
    lead chunk, chosen at random."""
    c = rng.choice([c for c in range(params.chunks) if c != params.lead_chunk])
    return row[:c] + ((row[c] + 1) % params.q,) + row[c + 1:]


def off_lead_share(rng, params, row):
    """A valid random share whose lead-chunk element differs from ``row``'s."""
    lead, q = params.lead_chunk, params.q
    share = [rng.randrange(q) for _ in range(params.chunks)]
    share[lead] = (row[lead] + rng.randrange(1, q)) % q
    return tuple(share)


@pytest.mark.parametrize("n,t,bits", [(13, 4, 256), (19, 6, 512),
                                      (28, 9, 512)])
def test_memo_certificate_at_its_boundaries(n, t, bits, monkeypatch):
    """Scripted maps of r memo rows of one message M, a - r valid copies
    of M's rows that differ past the lead chunk, and m - a shares whose
    lead element differs from M's, so M's whole-row support is r and its
    lead agreement a.  At a - e = k and a = m - e - 1 (with a - e >= k)
    an accumulator's attempt fails with no `ecc_decode` call; at a - e =
    k - 1 and a = m - e it calls `ecc_decode`.  Every outcome equals the
    full decoder's on copies."""
    params = params_for_message_bits(n, t, bits)
    k, threshold = params.k, params.oec_threshold
    rng = random.Random(n)
    rows = ecc_encode(params, bytes(range(bits // 16)))
    seen = set()                  # (boundary, certified)
    for m in range(k + 1, n + 1):
        # the radii of the full decoder, of none, and of an accumulator
        for e in sorted({(m - k) // 2, 0, max(0, min((m - k) // 2,
                                                     m - threshold))}):
            for name, a in (("a - e = k", e + k), ("a - e = k - 1", e + k - 1),
                            ("a = m - e - 1", m - e - 1), ("a = m - e", m - e)):
                if not 1 <= a <= m:
                    continue
                r = rng.randint(1, min(a, m - e - 1))
                xs = rng.sample(range(1, n + 1), m)
                shares = {}
                for i, x in enumerate(xs):
                    row = rows[x - 1]
                    shares[x] = (row if i < r else
                                 lead_only_share(rng, params, row) if i < a
                                 else off_lead_share(rng, params, row))
                shares = dict(rng.sample(list(shares.items()), m))
                expect = oec_reference(params, shares, m - e)
                got, calls = first_attempt(monkeypatch, params, shares, m - e)
                assert got == expect, (name, m, e)
                certified = a - e >= k and a < m - e
                assert calls == (not certified), (name, m, e)
                if certified:
                    assert got is None
                seen.add((name, certified))
    assert seen >= {("a - e = k", True), ("a - e = k - 1", False),
                    ("a = m - e - 1", True), ("a = m - e", False)}


@pytest.mark.parametrize("n,t,bits", [(13, 4, 1024), (19, 6, 512),
                                      (31, 10, 1024)])
def test_same_length_messages_fail_on_the_lead_chunk(n, t, bits, monkeypatch):
    """An equivocating leader's two messages of one length agree on every
    chunk before the lead chunk, which holds only the length prefix.
    Copies of their rows, mixed with garbage whose lead element is
    neither's and fed by arrival as an accumulator sees them, hold no
    memo row, so the full decoder answers: every attempt that fails does
    so on the lead chunk, before `_fit` compares any chunk.  The memo
    rows themselves give the same outcomes in an accumulator, some
    failures certified with no `ecc_decode` call."""
    params = params_for_message_bits(n, t, bits)
    q, lead, threshold = params.q, params.lead_chunk, params.oec_threshold
    rng = random.Random(n + t)
    fits = counting(monkeypatch, "_fit")
    lead_failures = certified = 0
    for trial in range(6):
        msg = bytes(rng.randrange(256) for _ in range(bits // 16))
        other = bytes([msg[0] ^ (1 + trial)]) + msg[1:-1] + bytes([msg[-1] ^ 1])
        first, second = ecc_encode(params, msg), ecc_encode(params, other)
        assert all(first[x][:lead] == second[x][:lead] for x in range(n))
        bad = set(rng.sample(range(1, n + 1), t))
        camp = set(rng.sample(range(1, n + 1), n // 2))
        arrivals = []
        for x in rng.sample(range(1, n + 1), n):
            if x in bad:
                share = [rng.randrange(q) for _ in range(params.chunks)]
                share[lead] = rng.choice(sorted(set(range(q)) - {
                    first[x - 1][lead], second[x - 1][lead]}))
                arrivals.append((x, tuple(share)))
            else:
                arrivals.append((x, (first if x in camp else second)[x - 1]))
        for m in range(threshold, n + 1):
            shares = dict(arrivals[:m])
            fitted = len(fits)
            expect = decode_outcome(full_decode, params, shares, m - threshold)
            if expect is DecodeFailure:
                assert len(fits) == fitted
                lead_failures += 1
            got, calls = first_attempt(monkeypatch, params, shares, threshold)
            assert got == oec_reference(params, shares, threshold)
            if expect is DecodeFailure:
                assert got is None
                certified += calls == 0
    assert lead_failures > 0 and certified > 0


def test_accumulator_on_memo_rows_matches_copies(monkeypatch):
    """An accumulator fed honest memo rows and t valid garbage shares
    accepts on the same submit, with the same message, support size and
    attempt count, as one fed equal copies of the same shares; only the
    copies reach a successful full decode, and the memo rows none."""
    params = params_for_message_bits(31, 10, 1024)
    n, t, q = params.n, params.t, params.q
    rng = random.Random(31)
    attempts = audit(monkeypatch)
    full = []                     # successful decode_elements calls
    decode_in_full = field_ecc.decode_elements

    def counted(*args, **kwargs):
        got = decode_in_full(*args, **kwargs)
        full.append(1)
        return got

    monkeypatch.setattr(field_ecc, "decode_elements", counted)
    for trial in range(10):
        message = bytes([trial]) * (1 + trial)
        rows = ecc_encode(params, message)
        bad = set(rng.sample(range(1, n + 1), t))
        arrivals = [(x, tuple(rng.randrange(q) for _ in range(params.chunks))
                     if x in bad else rows[x - 1])
                    for x in rng.sample(range(1, n + 1), n)]
        outcomes = []
        for shares in (arrivals, [(x, tuple(list(s))) for x, s in arrivals]):
            acc = OecAccumulator(params)
            attempts.clear()
            full.clear()
            accepting = [pos for pos, (x, s) in enumerate(shares)
                         if acc.submit(x, s) is not None]
            support = ref_matches(params, acc.shares, pack_message(params, message))
            outcomes.append((accepting, acc.decoded, len(support), acc.attempts,
                             len(full), [by for _, by, _ in attempts]))
            if shares is arrivals:
                assert acc.support == len(support)
        memo, copies = outcomes
        assert memo[:4] == copies[:4] and len(memo[0]) == 1
        assert memo[1] == message
        assert memo[4] == 0 and copies[4] == 1
        assert memo[5][-1] == "memo" and set(copies[5]) == {None}


def tally_arrival(rng, params, first, second):
    """One arrival of the tally property test: an index in 0..n+1 and a
    memo row of either message at its own index or another, an equal
    copy, garbage, or an invalid share."""
    n, q, chunks = params.n, params.q, params.chunks
    x = rng.randrange(n + 2)
    rows = rng.choice((first, first, second))
    kind = rng.choice(("row", "row", "row", "wrong index", "copy", "garbage",
                       "invalid"))
    row = rows[(x - 1) % n]
    if kind == "wrong index":
        return x, rows[x % n]
    if kind == "copy":
        return x, tuple(list(row))
    if kind == "garbage":
        return x, tuple(rng.randrange(q) for _ in range(chunks))
    if kind == "invalid":
        return x, rng.choice((row[:-1], list(row), (q,) + row[1:]))
    return x, row


@pytest.mark.parametrize("n,t,bits", [(7, 2, 64), (13, 4, 256), (19, 6, 512)])
def test_oec_tallies_match_a_scan_from_scratch(n, t, bits, monkeypatch):
    """Property test of the memo tallies: over random arrival orders that
    mix the memo rows of two messages of one length, at their own index
    or another, equal copies, garbage, invalid shares and indices outside
    1..n, the tallies equal a scan from scratch after every submit and
    each attempt calls `ecc_decode` only when they do not settle it (see
    `audit`); every attempt returns what the full decoder gives on
    copies.  Some attempts are settled each way, and some change the
    candidate."""
    params = params_for_message_bits(n, t, bits)
    threshold = params.oec_threshold
    rng = random.Random(1000 + n)
    attempts = audit(monkeypatch)
    seen = set()                  # what settled an attempt
    switched = 0
    for _ in range(40):
        msg = bytes(rng.randrange(256) for _ in range(bits // 16))
        first = ecc_encode(params, msg)
        second = ecc_encode(params, bytes(rng.randrange(256) for _ in msg))
        acc = OecAccumulator(params)
        while not acc.done and len(acc.shares) < n:
            before, made = acc.candidate, len(attempts)
            got = acc.submit(*tally_arrival(rng, params, first, second))
            if len(attempts) > made:
                assert got == oec_reference(params, acc.shares, threshold)
                seen.add(attempts[-1][1])
                switched += before is not None and acc.candidate is not before
    assert seen == {"memo", "certificate", None}
    assert switched > 0


def test_encode_memo_is_per_params_and_returns_the_same_rows(monkeypatch):
    p1 = params_for_message_bits(7, 2, 64)
    p2 = params_for_message_bits(7, 2, 64)
    assert p1 == p2 and p1 is not p2
    encodes = counting(monkeypatch, "encode_elements")
    a = ecc_encode(p1, b"memo")
    b = ecc_encode(p1, bytes(bytearray(b"memo")))      # an equal message
    assert len(encodes) == 1
    assert type(a) is tuple and len(a) == p1.n and a is b
    c = ecc_encode(p2, b"memo")
    assert len(encodes) == 2 and c == b
    assert all(x is not y for x, y in zip(b, c))
    assert list(p1.encodings) == list(p2.encodings) == [b"memo"]
    # one params' rows are not recognised by another's accumulator
    decodes = counting(monkeypatch, "ecc_decode")
    acc = OecAccumulator(p2)
    got = [acc.submit(x, row) for x, row in enumerate(b, 1)]
    assert got[p2.oec_threshold - 1] == b"memo"
    assert acc.hits == {} and decodes == [1]

