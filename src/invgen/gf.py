"""Exact arithmetic in GF(p^f).

A field element is a plain int in [0, q): the base-p packing of its
coefficient vector c0 + c1*x + ... + c_{f-1}*x^{f-1} (c0 is the least
significant digit).  The packing is a bijection onto canonical reduced
residues, so equality of elements is equality of ints.

The reduction modulus is chosen deterministically: the lexicographically
least monic irreducible of degree f, comparing the coefficient tuple
(c0, c1, ..., c_{f-1}) with c0 most significant.  Irreducibility is
certified by trial division against every monic polynomial of degree
at most f/2 (a plain root check for f <= 3).

Every context builds exp/log tables over a fixed multiplicative generator
(the least one by int value) when it is made, in O(q) time and memory.
Products, inverses and powers read them in every field, prime fields
included, and so do the square and subfield tests; for odd p and f > 1
so do sums, a + b = a * (1 + b/a) by the Zech table of log(1 + g^k), and
negatives, -1 being g^((q-1)/2).  The power walk multiplies the last
power by g with Horner's rule over the digits of g: in characteristic 2
by shifts and XORs of the packed bit vector, with an XOR of the packed
modulus when bit f comes up; for odd p on a digit vector, and over the
first norm block g^0, ..., g^(L-1), L = (q-1)/(p-1), only.  The norm g^L
lies in GF(p), so g^(k+L*m) = (g^L)^m * g^k, and a prime-field scalar
scales each digit on its own: a later block is the one before with the
low and the high half of its digits read through one table.  Only the
generator search multiplies polynomials, sharing a candidate's squarings
among the prime divisors of q - 1.

A context checks p and f against ``Q_CAP`` before it tests p for primality
or forms p^f, and ``gf_for_q`` checks q before it factorises, so an input
above the cap is refused without work proportional to its size.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress, product, repeat
from operator import add, mul

Q_CAP = 1 << 20  # contexts refuse q above this


class CapError(Exception):
    """A requested computation exceeds a work cap; the CLI exits 3."""


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: multiplicity}."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return factorize(n) == {n: 1}


def prime_power_split(q: int) -> tuple[int, int] | None:
    """Return (p, f) with q = p^f, or None if q is not a prime power."""
    if q < 2:
        return None
    fac = factorize(q)
    if len(fac) != 1:
        return None
    (p, f), = fac.items()
    return p, f


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); a polynomial is a list of ints mod p,
# index = degree, no trailing-zero normalization required by callers
# ---------------------------------------------------------------------------

def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    """a mod the monic polynomial m, as deg(m) coefficients."""
    a = a[:]
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    del a[dm:]
    return a


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _is_irreducible(m: list[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree 1..deg(m)//2."""
    f = len(m) - 1
    # x | m: psi2 --q 1024 --format csv CPU 0.042 s, 0.044 s without (2-core Xeon)
    if m[0] == 0 and f > 1:
        return False
    for deg in range(1, f // 2 + 1):
        for packed in range(p ** deg):
            if not any(_poly_mod(m, _unpack(packed, p, deg) + [1], p)):
                return False
    return True


def _unpack(v: int, p: int, f: int) -> list[int]:
    out = []
    for _ in range(f):
        v, r = divmod(v, p)
        out.append(r)
    return out


def _pack(coeffs: list[int] | tuple[int, ...], p: int) -> int:
    v = 0
    for c in reversed(coeffs):
        v = v * p + c
    return v


def _find_modulus(p: int, f: int) -> list[int]:
    """Lexicographically least monic irreducible of degree f over GF(p)."""
    # lex order on (c0, c1, ...) with c0 most significant
    for tail in product(range(p), repeat=f):
        m = list(tail) + [1]
        if _is_irreducible(m, p):
            return m
    raise RuntimeError(f"no irreducible of degree {f} over GF({p})")  # unreachable


class GFContext:
    """Fixed field GF(p^f); immutable after construction, all ops pure."""

    def __init__(self, p: int, f: int):
        if f < 1:
            raise ValueError(f"f must be positive, got {f}")
        if p > Q_CAP or (p > 1 and f >= Q_CAP.bit_length()):  # then p^f > Q_CAP
            raise ValueError(f"q={p}^{f} exceeds the supported cap {Q_CAP}")
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        q = p ** f
        if q > Q_CAP:
            raise ValueError(f"q={q} exceeds the supported cap {Q_CAP}")
        self.p = p
        self.f = f
        self.q = q
        self.modulus = _find_modulus(p, f)
        self.generator = self._find_generator()  # the least by int value
        self._exp = self._powers(self.generator)
        log = [0] * q  # log[a] is the k with g^k = a; log[0] is never read
        for k, a in enumerate(self._exp):
            log[a] = k
        self._log = log
        if p != 2 and f > 1:
            # one_plus[a] = log(1 + a): 1 + a bumps digit 0 of a, p - 1 wrapping to 0
            half = (q - 1) // 2
            one_plus = log[1:] + log[:1]
            one_plus[p - 1::p] = log[::p]
            self._zech = list(map(one_plus.__getitem__, self._exp))  # log(1 + g^k)
            self._zech[half] = None  # g^half = -1
            self._neg = [0, *map((self._exp[half:] + self._exp[:half]).__getitem__, log[1:])]

    def __repr__(self) -> str:
        return f"GFContext(p={self.p}, f={self.f})"

    # -- representation -----------------------------------------------------

    def scalar(self, n: int) -> int:
        """The prime-field constant n mod p as a field element."""
        return n % self.p

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        if self.f == 1:
            return (a + b) % p
        if a == 0 or b == 0:
            return a or b
        la = self._log[a]
        z = self._zech[self._log[b] - la]  # a + b = a * (1 + b/a)
        return 0 if z is None else self._exp[(la + z) % (self.q - 1)]

    def neg(self, a: int) -> int:
        p = self.p
        if p == 2:
            return a
        if self.f == 1:
            return (-a) % p
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero")
        return self._exp[-self._log[a] % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inversion of zero")
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.q - 1)]

    # -- field predicates ----------------------------------------------------

    def is_square(self, a: int) -> bool:
        """True iff a = b^2 for some b; zero counts, everything for q even."""
        if self.p == 2 or a == 0:
            return True
        return self._log[a] % 2 == 0

    def frobenius(self, a: int) -> int:
        """a -> a^p (generates the Galois group; f-fold iterate is identity)."""
        return self.pow(a, self.p)

    def absolute_trace(self, a: int) -> int:
        """Trace down to the prime field: sum of a^(p^i), i < f (an int < p)."""
        s = 0
        x = a
        for _ in range(self.f):
            s = self.add(s, x)
            x = self.frobenius(x)
        return s  # lies in the prime subfield, so the packed value is < p

    # -- multiplicative structure ---------------------------------------------

    def exp_table(self) -> tuple[int, ...]:
        """The powers (g^0, g^1, ..., g^(q-2)) of ``generator``."""
        return self._exp

    def neg_table(self) -> list[int]:
        """-a for every element a, indexed by element; odd p and f > 1 only."""
        return self._neg

    # -- table construction ----------------------------------------------------

    def _find_generator(self) -> int:
        """The least a (by int value) with a^((q-1)/r) != 1 for every prime r | q-1.

        In a prime field a^e is pow(a, e, p) (and GF(2)* is {1}).  Otherwise
        an a < p has order dividing p - 1 < q - 1, and a^e is the product of
        the squares a^(2^i) at the set bits of e, squared only as far as
        the cofactors e tested so far need."""
        n, p, f, modulus = self.q - 1, self.p, self.f, self.modulus
        cofactors = [n // r for r in factorize(n)]
        if f == 1:
            for a in range(2, p):
                if all(pow(a, e, p) != 1 for e in cofactors):
                    return a
            return 1

        def times(a: list[int], b: list[int]) -> list[int]:
            return _poly_mod(_poly_mul(a, b, p), modulus, p)
        for a in range(p, self.q):
            squares = [_unpack(a, p, f)]  # a^(2^i)
            for e in cofactors:
                while len(squares) < e.bit_length():
                    squares.append(times(squares[-1], squares[-1]))
                if _pack(reduce(times, compress(squares, map(int, bin(e)[:1:-1]))), p) == 1:
                    break
            else:
                return a
        raise RuntimeError("no multiplicative generator found")  # unreachable

    def _powers(self, g: int) -> tuple[int, ...]:
        """(g^0, ..., g^(q-2)) by the walk of the module docstring: v the last
        power, acc <- acc*x + g_i*v over the digits g_i of g."""
        p, f, q = self.p, self.f, self.q
        exp = [1] * (q - 1)
        if f == 1:
            x = 1
            for k in range(1, q - 1):
                exp[k] = x = x * g % p
            return tuple(exp)
        if p == 2:
            modulus = _pack(self.modulus, 2)
            lower = [g >> i & 1 for i in range(g.bit_length() - 2, -1, -1)]
            v = 1
            for k in range(1, q - 1):
                acc = v
                for gi in lower:
                    acc <<= 1
                    if acc >> f:
                        acc ^= modulus
                    if gi:
                        acc ^= v
                exp[k] = v = acc
            return tuple(exp)
        digits = _unpack(g, p, f)
        deg = max(i for i, c in enumerate(digits) if c)  # >= 1: g is not in GF(p)
        lead, lower = digits[deg], digits[deg - 1::-1]
        red = [-c % p for c in self.modulus[:f]]  # x^f = sum of red[j] x^j
        weights = [p ** j for j in range(f)]
        block = (q - 1) // (p - 1)
        v = [1] + [0] * (f - 1)
        for k in range(1, block + 1):  # exp[block] is overwritten by the next block
            acc = v if lead == 1 else [lead * c % p for c in v]
            for gi in lower:  # shift acc up one degree, fold its top digit back
                top = acc[-1]
                acc = [(c + top * r + gi * w) % p for c, r, w in zip([0, *acc], red, v)]
            v = acc
            exp[k] = sum(map(mul, v, weights))
        if (lam := exp[block]) >= p:  # the norm of g
            raise RuntimeError(f"g^{block} is not in the prime field")
        h = (f + 1) // 2  # a block value is lo + p^h * hi, lo < p^h
        scale = [0]  # scale[u] = lam * u for u < p^h, digit by digit
        for w in weights[:h]:
            scale = [u + w * (lam * d % p) for d in range(p) for u in scale]
        hi, lo = zip(*map(divmod, exp[:block], repeat(weights[h])))
        for start in range(block, q - 1, block):
            hi, lo = list(map(scale.__getitem__, hi)), list(map(scale.__getitem__, lo))
            exp[start:start + block] = map(add, lo, map(weights[h].__mul__, hi))
        return tuple(exp)


def gf_for_q(q: int) -> GFContext:
    """A new context for GF(q), q a prime power."""
    if q > Q_CAP:
        raise ValueError(f"q={q} exceeds the supported cap {Q_CAP}")
    pf = prime_power_split(q)
    if pf is None:
        raise ValueError(f"{q} is not a prime power")
    return GFContext(*pf)
