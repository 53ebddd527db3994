from functools import lru_cache
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invgen.gf import (
    GFContext,
    Q_CAP,
    gf_for_q,
    is_prime,
    prime_power_split,
)
from helpers import (
    Budget, PrimeTables, cached_field, coeffs, from_coeffs, in_subfield, poly_power, poly_product,
    ref_absolute_trace, ref_add, ref_generator, ref_modulus, ref_neg, ref_powers,
)

SMALL_QS = [4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_make_gf4():
    ctx = GFContext(2, 2)
    assert ctx.q == 4
    assert ctx.modulus == [1, 1, 1]  # x^2 + x + 1


def test_make_prime_field():
    ctx = GFContext(5, 1)
    assert ctx.q == 5
    assert ctx.mul(2, 3) == 1


def test_make_gf27_modulus_has_no_root():
    ctx = GFContext(3, 3)
    m = ctx.modulus
    assert len(m) == 4 and m[-1] == 1
    for x in range(3):
        value = sum(c * x ** i for i, c in enumerate(m)) % 3
        assert value != 0


def test_modulus_is_lex_least_gf8():
    # brute check: no lex-smaller monic degree-3 polynomial over GF(2) is irreducible
    from itertools import product
    ctx = GFContext(2, 3)
    chosen = tuple(ctx.modulus[:3])

    def reducible(tail):
        poly = list(tail) + [1]
        for r in range(2):
            if sum(c * r ** i for i, c in enumerate(poly)) % 2 == 0:
                return True
        return False

    for tail in product(range(2), repeat=3):
        if tail == chosen:
            return
        assert reducible(tail), f"{tail} is irreducible but lex-smaller"
    pytest.fail("chosen modulus not reached")


def test_make_errors():
    with pytest.raises(ValueError):
        GFContext(6, 1)
    with pytest.raises(ValueError):
        GFContext(4, 2)
    with pytest.raises(ValueError):
        GFContext(2, 0)
    with pytest.raises(ValueError):
        GFContext(2, 21)  # q > 2^20
    # refused on p and f alone, before p^f or a primality test is worked out
    with pytest.raises(ValueError, match="exceeds the supported cap"):
        GFContext(2, 10 ** 9)
    with pytest.raises(ValueError, match="exceeds the supported cap"):
        GFContext(10 ** 30 + 57, 1)
    with pytest.raises(ValueError, match="exceeds the supported cap"):
        gf_for_q(10 ** 30 + 57)  # refused before it is factorised


def test_is_prime_matches_sieve():
    n = 5000
    sieve = [False, False] + [True] * (n - 2)
    for i in range(2, n):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, n, i))
    assert [is_prime(k) for k in range(-2, n)] == [False, False] + sieve


def test_cap_boundary_context_is_usable():
    ctx = GFContext(1021, 2)  # q = 1042441 < 2^20, tables of about 10^6 entries
    assert ctx.q <= Q_CAP
    a = from_coeffs(ctx, [3, 7])
    assert ctx.mul(a, ctx.inv(a)) == 1
    assert ctx.pow(a, ctx.q - 1) == 1


def test_prime_power_split():
    assert prime_power_split(8) == (2, 3)
    assert prime_power_split(49) == (7, 2)
    assert prime_power_split(6) is None
    assert prime_power_split(1) is None
    assert is_prime(2) and is_prime(13) and not is_prime(27)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_gf4_polynomial_reduction():
    ctx = GFContext(2, 2)
    x = from_coeffs(ctx, [0, 1])
    assert ctx.mul(x, x) == from_coeffs(ctx, [1, 1])  # x^2 = x + 1 mod x^2+x+1


@pytest.mark.parametrize("q", [5, 7, 8, 9, 16, 25, 27])
def test_inverse_everywhere(q):
    ctx = gf_for_q(q)
    for a in range(1, q):
        assert ctx.mul(a, ctx.inv(a)) == 1


def test_inversion_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GFContext(7, 1).inv(0)


@pytest.mark.parametrize("q", [8, 9])
def test_field_axioms_exhaustive(q):
    ctx = gf_for_q(q)
    for a in range(q):
        assert ctx.add(a, 0) == a
        assert ctx.mul(a, 1) == a
        assert ctx.add(a, ctx.neg(a)) == 0
        for b in range(q):
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            for c in range(q):
                left = ctx.mul(a, ctx.add(b, c))
                right = ctx.add(ctx.mul(a, b), ctx.mul(a, c))
                assert left == right
                assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))


@pytest.mark.parametrize("q", [9, 25, 27, 49])
def test_table_addition_matches_digits_every_pair(q):
    # odd p, f > 1: add, sub and neg read the Zech and negation tables
    ctx = gf_for_q(q)
    for a in range(q):
        assert ctx.neg(a) == ref_neg(ctx, a)
        for b in range(q):
            assert ctx.add(a, b) == ref_add(ctx, a, b)
            assert ctx.sub(a, b) == ref_add(ctx, a, ref_neg(ctx, b))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([81, 243, 625, 729]), st.data())
def test_table_addition_matches_digits_random_pairs(q, data):
    ctx = cached_field(*prime_power_split(q))
    a, b = (data.draw(st.integers(0, q - 1)) for _ in range(2))
    assert ctx.neg(a) == ref_neg(ctx, a)
    assert ctx.add(a, b) == ref_add(ctx, a, b)
    assert ctx.sub(a, b) == ref_add(ctx, a, ref_neg(ctx, b))


def test_pow_matches_repeated_mul():
    ctx = GFContext(3, 3)
    for a in range(1, ctx.q):
        acc = 1
        for e in range(1, 8):
            acc = ctx.mul(acc, a)
            assert ctx.pow(a, e) == acc


def test_tables_match_polynomial_product_gf81():
    ctx = GFContext(3, 4)
    for a in range(0, 81, 7):
        for b in range(0, 81, 5):
            assert ctx.mul(a, b) == poly_product(ctx, a, b)
        if a:
            assert poly_product(ctx, a, ctx.inv(a)) == 1
            assert ctx.is_square(a) == (poly_power(ctx, a, 40) == 1)
        assert ctx.frobenius(a) == poly_power(ctx, a, 3)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def test_is_square_gf7_by_exhaustion():
    ctx = GFContext(7, 1)
    squares = {ctx.mul(b, b) for b in range(7)}
    assert squares == {0, 1, 2, 4}
    assert ctx.is_square(2)
    assert not ctx.is_square(3)


def test_is_square_gf4_everything():
    ctx = GFContext(2, 2)
    assert all(ctx.is_square(a) for a in range(4))


@pytest.mark.parametrize("q", SMALL_QS)
def test_nonzero_square_count(q):
    ctx = gf_for_q(q)
    d = 2 if q % 2 == 1 else 1
    count = sum(1 for a in range(1, q) if ctx.is_square(a))
    assert count == (q - 1) // d


def test_frobenius_fixes_prime_field():
    ctx = GFContext(13, 1)
    assert all(ctx.frobenius(a) == a for a in range(13))


def test_frobenius_gf9_is_cube():
    ctx = GFContext(3, 2)
    g = ctx.generator
    assert ctx.frobenius(g) == ctx.pow(g, 3)


@pytest.mark.parametrize("q", SMALL_QS)
def test_frobenius_galois_order(q):
    ctx = gf_for_q(q)
    for a in range(q):
        x = a
        for _ in range(ctx.f):
            x = ctx.frobenius(x)
        assert x == a


@pytest.mark.parametrize("q", SMALL_QS)
def test_frobenius_additive(q):
    ctx = gf_for_q(q)
    for a in range(q):
        fa = ctx.frobenius(a)
        for b in range(q):
            assert ctx.frobenius(ctx.add(a, b)) == ctx.add(fa, ctx.frobenius(b))


def test_in_subfield_basics():
    ctx = GFContext(3, 3)
    for a in range(3):  # prime-field constants pack as themselves
        assert in_subfield(ctx, a, 1)
    g = ctx.generator
    assert not in_subfield(ctx, g, 1)
    assert in_subfield(ctx, g, 3)
    with pytest.raises(RuntimeError, match="does not divide"):
        in_subfield(ctx, g, 2)  # 2 does not divide 3


@pytest.mark.parametrize("q", [q for q in SMALL_QS if prime_power_split(q)[1] > 1])
def test_subfield_sizes(q):
    ctx = gf_for_q(q)
    for e in range(1, ctx.f + 1):
        if ctx.f % e:
            continue
        members = sum(1 for a in range(q) if in_subfield(ctx, a, e))
        assert members == ctx.p ** e


def test_absolute_trace_additive_and_onto():
    ctx = GFContext(2, 4)
    values = set()
    for a in range(16):
        ta = ctx.absolute_trace(a)
        assert ta in (0, 1)
        values.add(ta)
        for b in range(16):
            assert ctx.absolute_trace(ctx.add(a, b)) == (ta + ctx.absolute_trace(b)) % 2
    assert values == {0, 1}


@pytest.mark.parametrize("p,f", [(2, f) for f in range(1, 11)] + [(3, 4), (5, 3)])
def test_absolute_trace_is_the_frobenius_sum(p, f):
    ctx = GFContext(p, f)
    assert [ctx.absolute_trace(a) for a in range(ctx.q)] == (
        [ref_absolute_trace(ctx, a) for a in range(ctx.q)])


def test_coeffs_roundtrip():
    ctx = GFContext(5, 3)
    for a in (0, 1, 17, 124):
        cs = coeffs(ctx, a)
        assert len(cs) == 3
        assert from_coeffs(ctx, cs) == a


# ---------------------------------------------------------------------------
# properties: field axioms, and every table read against the polynomial
# product, for fields on both sides of q = 4096
# ---------------------------------------------------------------------------

FIELDS = [(2, 2), (5, 1), (3, 3), (2, 8), (7, 2), (31, 2), (5, 4), (2, 12), (4093, 1),
          (2, 13), (3, 8), (101, 2), (5, 6), (4099, 1)]


@st.composite
def field_and_elements(draw, fields):
    p, f = draw(st.sampled_from(fields))
    q = p ** f
    return (p, f), [draw(st.integers(0, q - 1)) for _ in range(3)]


@settings(max_examples=300, deadline=None)
@given(field_and_elements(FIELDS))
def test_field_axioms(case):
    (p, f), (a, b, c) = case
    ctx = cached_field(p, f)
    add, mul = ctx.add, ctx.mul
    assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, 0) == a and mul(a, 1) == a and mul(a, 0) == 0
    assert add(a, ctx.neg(a)) == 0 and ctx.sub(add(a, b), b) == a
    if a:
        assert mul(a, ctx.inv(a)) == 1
        assert ctx.pow(a, ctx.q - 1) == 1


@settings(max_examples=300, deadline=None)
@given(field_and_elements(FIELDS), st.integers(-3 * 4096, 3 * 4096))
def test_table_reads_match_polynomial_reference(case, e):
    (p, f), (a, b, _) = case
    ctx = cached_field(p, f)
    q = ctx.q
    assert ctx.mul(a, b) == poly_product(ctx, a, b)
    assert ctx.is_square(a) == (p == 2 or a == 0 or poly_power(ctx, a, (q - 1) // 2) == 1)
    if a:
        assert ctx.inv(a) == poly_power(ctx, a, q - 2)
        assert ctx.pow(a, e) == (poly_power(ctx, a, e) if e >= 0
                                 else poly_power(ctx, poly_power(ctx, a, q - 2), -e))
    for d in range(1, f + 1):
        if f % d == 0:
            assert in_subfield(ctx, a, d) == (poly_power(ctx, a, p ** d) == a)


@pytest.mark.parametrize("field", FIELDS, ids=[f"{p}^{f}" for p, f in FIELDS])
def test_generator_is_least(field):
    ctx = GFContext(*field)
    assert ctx.generator == ref_generator(ctx)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(p, f) for p, f in FIELDS if f > 1]), st.data())
def test_exp_table_lists_generator_powers(field, data):
    ctx = cached_field(*field)
    exp = ctx.exp_table()
    assert len(exp) == ctx.q - 1
    k = data.draw(st.integers(0, ctx.q - 2))
    assert exp[k] == ref_powers(ctx)[k]


# every extension field up to 4096, and under INVGEN_EXTENDED the large
# fields whose power walks scale the most norm blocks
EXTENSION_FIELDS = [prime_power_split(q) for q in range(4, 4097)
                    if prime_power_split(q) and prime_power_split(q)[1] > 1]
LARGE_FIELDS = [(3, 10), (3, 11), (5, 7), (7, 6), (11, 5), (31, 4)]


def check_tables_against_references(ctx):
    p, f = ctx.p, ctx.f
    assert ctx.modulus == ref_modulus(p, f)
    assert ctx.generator == ref_generator(ctx)
    exp = ref_powers(ctx)
    assert ctx.exp_table() == tuple(exp)
    block = (ctx.q - 1) // (p - 1)  # the norm g^block of g lies in GF(p)
    assert exp[block % (ctx.q - 1)] < p


@pytest.mark.parametrize("field", EXTENSION_FIELDS, ids=[f"{p}^{f}" for p, f in EXTENSION_FIELDS])
def test_tables_match_the_per_cofactor_search_and_the_whole_walk(field):
    check_tables_against_references(cached_field(*field))


@pytest.mark.parametrize("field", EXTENSION_FIELDS, ids=[f"{p}^{f}" for p, f in EXTENSION_FIELDS])
def test_exp_table_is_the_whole_power_walk(field):
    # the walk meets every nonzero element once: the log table inverts it
    ctx = cached_field(*field)
    assert list(map(ctx._log.__getitem__, ctx.exp_table())) == list(range(ctx.q - 1))


@pytest.mark.extended
@pytest.mark.parametrize("field", LARGE_FIELDS, ids=[f"{p}^{f}" for p, f in LARGE_FIELDS])
def test_large_field_tables_match_the_references_extended(field):
    with Budget(f"tables of GF({field[0]}^{field[1]}) against the references", 60):
        check_tables_against_references(GFContext(*field))


# ---------------------------------------------------------------------------
# prime fields: the arithmetic on ints against exp/log tables over the
# context's generator
# ---------------------------------------------------------------------------

SMALL_PRIMES = [p for p in range(2, 102) if is_prime(p)]
PRIMES = SMALL_PRIMES + [127, 251, 509, 1021, 4093, 8191, 65521, 131071, 524287, 1048573]


def test_a_prime_field_holds_no_power_table():
    # at the largest prime below the cap, 1,048,573, a table of its powers
    # alone would be 8 MB of pointers
    p = max(n for n in range(Q_CAP - 64, Q_CAP) if is_prime(n))
    tracemalloc.start()
    try:
        ctx = GFContext(p, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ctx.generator == ref_generator(ctx)
    assert peak < 1 << 20, peak


@lru_cache(maxsize=None)
def prime_tables(p):
    return PrimeTables(cached_field(p, 1))


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_prime_field_arithmetic_is_the_tables_exhaustive(p):
    ctx, ref = cached_field(p, 1), prime_tables(p)
    assert not hasattr(ctx, "_log")  # a prime field builds no log table
    for a in range(p):
        assert ctx.is_square(a) == ref.is_square(a)
        assert [ctx.mul(a, b) for b in range(p)] == [ref.mul(a, b) for b in range(p)]
        if a:
            assert ctx.inv(a) == ref.inv(a)
            assert [ctx.pow(a, e) for e in range(-p, 2 * p)] == [
                ref.pow(a, e) for e in range(-p, 2 * p)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_prime_field_arithmetic_is_the_tables(p, data):
    ctx, ref = cached_field(p, 1), prime_tables(p)
    a, b = (data.draw(st.integers(0, p - 1)) for _ in range(2))
    e = data.draw(st.integers(-3 * p, 3 * p))
    assert ctx.mul(a, b) == ref.mul(a, b)
    assert ctx.is_square(a) == ref.is_square(a)
    if a:
        assert ctx.inv(a) == ref.inv(a)
        assert ctx.pow(a, e) == ref.pow(a, e)
