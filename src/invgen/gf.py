"""Exact arithmetic in GF(p^f).

A field element is a plain int in [0, q): the base-p packing of its
coefficient vector c0 + c1*x + ... + c_{f-1}*x^{f-1} (c0 is the least
significant digit).  The packing is a bijection onto canonical reduced
residues, so equality of elements is equality of ints.

The reduction modulus is chosen deterministically: the lexicographically
least monic irreducible of degree f, comparing the coefficient tuple
(c0, c1, ..., c_{f-1}) with c0 most significant.  Only c0 != 0 is tried
(else x | m).  A candidate is irreducible iff it has no root in GF(p),
found by Horner's rule on ints, and no factor among the monic polynomials
of degree 2..f/2 without a root: a reducible m without a root has an
irreducible factor of such a degree.

A prime field multiplies, inverts and takes powers and square classes
(Euler's criterion) on ints mod p, and keeps its least primitive root but
no table: the class inventory walks both tori, the split one too, by one
Dickson recursion on traces.  An extension field builds exp/log tables
over its least multiplicative generator g (by int value) in O(q) time
and memory;
products, inverses, powers and the square and subfield tests read them,
and for odd p so do sums, a + b = a * (1 + b/a) by the Zech table of
log(1 + g^k), and negatives, -1 being g^((q-1)/2).  The generator
certifies itself on its power walk.  With L = (q-1)/(p-1) the norm a^L
lies in GF(p); the k with a^k in GF(p)* are the multiples of the least
one, N, which divides L, so a has order N * ord(a^N) <= L * (p-1) = q - 1,
with equality iff no a^k with 0 < k < L lies in GF(p) and a^L is a
primitive root of GF(p).  The candidates a >= p (an a < p lies in GF(p))
are tried in turn.  One of degree 1, a = c1 * (x - r), has norm
(-c1)^f * m(r), m the modulus, and is passed over unwalked when that is
not a primitive root; the others are walked, each up to its first power
in GF(p), multiplying the last power by a with
Horner's rule over the digits of a: in characteristic 2 by shifts and
XORs of the packed bit vector, with an XOR of the packed modulus when bit
f comes up; for odd p on a digit vector, over the first norm block g^0,
..., g^(L-1) only.  The norm g^L lies in GF(p), so g^(k+L*m) = (g^L)^m *
g^k, and a prime-field scalar scales each digit on its own: a later block
is the one before with the low and the high half of its digits read
through one table.

Field sizes are checked once, in ``checked_field``: p and f against
``Q_CAP`` before p is tested for primality or p^f formed, and q before it
is factorised, so no refusal costs work in the size of its input.
"""

from __future__ import annotations

from itertools import product, repeat
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


def checked_field(q: int | None = None, p: int = 0, f: int = 1) -> tuple[int, int, int]:
    """(q, p, f) of GF(q), q = p^f, given by q or by p and f, as the module
    docstring says; a ``ValueError`` refuses any other input."""
    if q is not None:
        if q > Q_CAP:
            raise ValueError(f"q={q} exceeds the supported cap {Q_CAP}")
        pf = prime_power_split(q)
        if pf is None:
            raise ValueError(f"{q} is not a prime power")
        return (q, *pf)
    if f < 1:
        raise ValueError(f"f must be positive, got {f}")
    if p > Q_CAP or (p > 1 and f >= Q_CAP.bit_length()):  # then p^f > Q_CAP
        raise ValueError(f"q={p}^{f} exceeds the supported cap {Q_CAP}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    q = p ** f
    if q > Q_CAP:
        raise ValueError(f"q={q} exceeds the supported cap {Q_CAP}")
    return q, p, f


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


def _value(m: list[int], x: int, p: int) -> int:
    """The polynomial m at x in GF(p), by Horner's rule."""
    v = 0
    for c in reversed(m):
        v = (v * x + c) % p
    return v


def _rootless(m: list[int], p: int) -> bool:
    """True iff the polynomial m has no root in GF(p)."""
    return all(_value(m, x, p) for x in range(p))


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
    if f == 1:
        return [0, 1]
    monic = ([*t, 1] for k in range(2, f // 2 + 1) for t in product(range(p), repeat=k))
    divisors = [d for d in monic if _rootless(d, p)]
    for tail in product(range(1, p), *repeat(range(p), f - 1)):
        m = [*tail, 1]
        if _rootless(m, p) and all(any(_poly_mod(m, d, p)) for d in divisors):
            return m
    raise RuntimeError(f"no irreducible of degree {f} over GF({p})")  # unreachable


class GFContext:
    """Fixed field GF(p^f); immutable after construction, all ops pure."""

    def __init__(self, p: int, f: int):
        self.q = q = checked_field(p=p, f=f)[0]
        self.p, self.f = p, f
        self.modulus = _find_modulus(p, f)
        self.generator, exp = self._generator_powers()  # the least generator
        if f > 1:
            self._exp = exp
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
        if self.f == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero")
        if self.f == 1:
            return pow(a, -1, self.p)
        return self._exp[-self._log[a] % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inversion of zero")
            return 0 if e else 1
        if self.f == 1:
            return pow(a, e, self.p)
        return self._exp[self._log[a] * e % (self.q - 1)]

    # -- field predicates ----------------------------------------------------

    def is_square(self, a: int) -> bool:
        """True iff a = b^2 for some b; zero counts, everything for q even."""
        if self.p == 2 or a == 0:
            return True
        if self.f == 1:
            return pow(a, (self.p - 1) // 2, self.p) == 1
        return self._log[a] % 2 == 0

    def frobenius(self, a: int) -> int:
        """a -> a^p (generates the Galois group; f-fold iterate is identity)."""
        return self.pow(a, self.p)

    def absolute_trace(self, a: int) -> int:
        """Trace down to the prime field: sum of a^(p^i), i < f (an int < p).
        It is linear: a's coefficients against the traces of x^i, the power
        sums of the modulus's roots (Newton), found on first use."""
        p, form = self.p, getattr(self, "_trace_form", None)
        if form is None:
            m, s = self.modulus, [self.f % p]
            for k in range(1, self.f):
                s.append(-(k * m[-1 - k] + sum(m[-1 - j] * s[k - j] for j in range(1, k))) % p)
            form = self._trace_form = _pack(s, 2) if p == 2 else s
        if p == 2:
            return (a & form).bit_count() & 1
        return sum(map(mul, _unpack(a, p, self.f), form)) % p

    # -- multiplicative structure ---------------------------------------------

    def exp_table(self) -> tuple[int, ...]:
        """The powers (g^0, g^1, ..., g^(q-2)) of ``generator``; f > 1 only."""
        return self._exp

    def neg_table(self) -> list[int]:
        """-a for every element a, indexed by element; odd p and f > 1 only."""
        return self._neg

    # -- table construction ----------------------------------------------------

    def _generator_powers(self) -> tuple[int, tuple[int, ...] | None]:
        """The least generator g of GF(q)* and, for f > 1, its powers
        (g^0, ..., g^(q-2)) by the self-certifying walk of the module
        docstring; a prime field takes its least primitive root and no powers."""
        p, f, q = self.p, self.f, self.q
        cofactors = [(p - 1) // r for r in factorize(p - 1)]  # c^e != 1 at a primitive root c
        if f == 1:
            g = next((a for a in range(2, p) if all(pow(a, e, p) != 1 for e in cofactors)), 1)
            return g, None
        exp = [1] * q  # exp[q - 1] is dropped; characteristic 2 walks there
        block = (q - 1) // (p - 1)
        for g in range(p, q):
            if g < p * p:  # g = c1*x + c0 = c1*(x - r) has norm g^block = (-c1)^f * m(r)
                lam = (p - g // p) ** f * _value(self.modulus, -g * pow(g // p, -1, p) % p, p)
                if any(pow(lam, e, p) == 1 for e in cofactors):
                    continue
            if (self._walk(g, exp, block) == block and 0 < exp[block] < p
                    and all(pow(exp[block], e, p) != 1 for e in cofactors)):
                break
        else:
            raise RuntimeError("no multiplicative generator found")  # unreachable
        if block < q - 1:  # odd p: scale the first norm block by the norm lam = g^block
            lam, weights = exp[block], [p ** j for j in range(f)]
            h = (f + 1) // 2  # a block value is lo + p^h * hi, lo < p^h
            scale = [0]  # scale[u] = lam * u for u < p^h, digit by digit
            for w in weights[:h]:
                scale = [u + w * (lam * d % p) for d in range(p) for u in scale]
            hi, lo = zip(*map(divmod, exp[:block], repeat(weights[h])))
            for start in range(block, q - 1, block):
                hi, lo = list(map(scale.__getitem__, hi)), list(map(scale.__getitem__, lo))
                exp[start:start + block] = map(add, lo, map(weights[h].__mul__, hi))
        return g, tuple(exp[:-1])

    def _walk(self, g: int, exp: list[int], block: int) -> int:
        """Write g^1, g^2, ... into ``exp`` up to the first power in GF(p) or
        to g^block, and return its exponent: v the last power,
        acc <- acc*x + g_i*v over the digits g_i of g."""
        p, f = self.p, self.f
        if p == 2:
            modulus = _pack(self.modulus, 2)
            lower = [g >> i & 1 for i in range(g.bit_length() - 2, -1, -1)]
            v = 1
            for k in range(1, block + 1):
                acc = v
                for gi in lower:
                    acc <<= 1
                    if acc >> f:
                        acc ^= modulus
                    if gi:
                        acc ^= v
                exp[k] = v = acc
                if v < 2:
                    break
            return k
        digits = _unpack(g, p, f)
        deg = max(i for i, c in enumerate(digits) if c)  # >= 1: g is not in GF(p)
        lead, lower = digits[deg], digits[deg - 1::-1]
        red = [-c % p for c in self.modulus[:f]]  # x^f = sum of red[j] x^j
        weights = [p ** j for j in range(f)]
        v = [1] + [0] * (f - 1)
        for k in range(1, block + 1):
            acc = v if lead == 1 else [lead * c % p for c in v]
            for gi in lower:  # shift acc up one degree, fold its top digit back
                top = acc[-1]
                acc = [(c + top * r + gi * w) % p for c, r, w in zip([0, *acc], red, v)]
            v = acc
            exp[k] = sum(map(mul, v, weights))
            if exp[k] < p:
                break
        return k


def gf_for_q(q: int) -> GFContext:
    """A new context for GF(q), q a prime power."""
    return GFContext(*checked_field(q)[1:])
