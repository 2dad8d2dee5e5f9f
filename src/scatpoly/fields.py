"""Tower GF(p) < GF(q) < GF(q^t) < GF(q^n) with n = 2t and q = p^e odd.

Elements are integer indices encoding polynomial-basis coordinates over
GF(p) in little-endian base-p order: the element sum(c_i * x^i) has index
sum(c_i * p^i). Index 0 is the zero element, indices below p are the
prime-field scalars.

Fields up to 2^26 elements get full discrete-log tables (exp, log, Zech,
q-Frobenius) for the vectorized numpy kernels, built on first use (up to
2^20 elements, at construction); scalar operations without them use
polynomial-basis arithmetic with precomputed Frobenius matrices.

Only FieldCtx reads the tables: the scalar fast paths, the eight v-kernels
(vadd, vneg, vsub, vmul, vscale, vinv, vfrob, vpow_int), and vgen_power
and vlog, through which every other module gets omega^j and discrete logs.

FieldCtx.frobenius_orbits is the one orbit driver of the sweeps: slice by
slice, the smallest element of each orbit of x -> x^(p^d) on the field or
on the classes omega^j*GF(q)*, with its orbit's size, computed without
tables and kept on the context.

The tables are four int64 arrays, 32 bytes per element. They are built
by doubling on the digit planes of omega^j, each step one exact GF(p)
product (linalg.mod_p_product, which states why it is exact). Building them
peaks at max(32, e*n + 17) bytes per element plus a few MB of slice
buffers; on one core of a 2-core x86 box GF(13^6) (4.8M elements) takes
about 0.45 s, GF(5^10) (9.8M) about 1.4 s and GF(3^16) (43M) about 10 s
at a peak RSS of 1.43 GB.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np
import sympy

from .errors import (BadParams, EvenP, FieldTooLarge, NonPrimeP,
                     ReducibleModulus, TSmall)
from .linalg import digit_planes, mod_p_product, plane_indices, sweep_slices

TABLE_LIMIT = 1 << 26
EAGER_LIMIT = 1 << 20  # built at construction up to here: about 0.1 s, and fast scalars
_SLICE = 1 << 16  # columns per step of the table build

_CTX_CACHE: dict = {}


# ---------------------------------------------------------------------------
# GF(p)[x] helpers on little-endian coefficient lists


def _trim(poly):
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_mod(a, mod, p):
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        a = _trim(a)
        if len(a) - 1 < dm:
            break
        coef = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for i, m in enumerate(mod):
            a[shift + i] = (a[shift + i] - coef * m) % p
        a = _trim(a)
    return a


def _sub_shifted(a, c, shift, b, p):
    """a - c * x^shift * b over GF(p)."""
    out = list(a) + [0] * (shift + len(b) - len(a))
    for i, bi in enumerate(b):
        out[shift + i] = (out[shift + i] - c * bi) % p
    return _trim(out)


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def is_irreducible(coeffs, p) -> bool:
    """Rabin test for a monic polynomial over GF(p), little-endian coeffs."""
    m = len(coeffs) - 1
    if m < 1 or coeffs[-1] != 1:
        return False
    if m == 1:
        return True
    if coeffs[0] == 0:
        return False  # divisible by x

    def xq_pow(k):
        # x^(p^k) mod f by square and multiply
        e = pow(p, k)
        base = [0, 1]
        acc = [1]
        while e:
            if e & 1:
                acc = _poly_mod(_poly_mul(acc, base, p), coeffs, p)
            base = _poly_mod(_poly_mul(base, base, p), coeffs, p)
            e >>= 1
        return acc

    def minus_x(poly):
        d = list(poly) + [0] * (2 - len(poly))
        d[1] = (d[1] - 1) % p
        return _trim(d)

    if minus_x(xq_pow(m)):
        return False  # x^(p^m) != x mod f
    for r in sorted(int(f) for f in sympy.primefactors(m)):
        d = minus_x(xq_pow(m // r))
        if not d or len(_poly_gcd(coeffs, d, p)) - 1 != 0:
            return False
    return True


def smallest_irreducible(p: int, m: int) -> tuple:
    """Lexicographically smallest monic irreducible of degree m over GF(p).

    Candidates x^m + c are ordered by the base-p integer encoding of the
    non-leading part c, smallest first, so the choice is reproducible
    across implementations.
    """
    for idx in range(p**m):
        coeffs = _digits_of(idx, p, m) + [1]
        if is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


def _digits_of(a: int, p: int, m: int):
    out = []
    for _ in range(m):
        out.append(a % p)
        a //= p
    return out


def _undigits(digs, p: int) -> int:
    out = 0
    for d in reversed(digs):
        out = out * p + int(d)
    return out


def _orbit_minima(xs: np.ndarray, state, step, length: int):
    """(reps, sizes): the entries x of xs with x <= step^i(x) for every
    0 < i < length, each the smallest of its orbit when step^length is the
    identity, and the sizes of their orbits, the first i > 0 with
    step^i(x) = x. state holds xs in the coordinates step acts on, one
    column per entry on its last axis; step(state) returns the state of
    the images and their values, which may be the state itself. An entry
    leaves the batch at the first image below it, so the later steps act
    on a shrinking remainder.

    An orbit's size s divides length, and step^i(x) = x exactly when s
    divides i, so the last such i below length is length - s (or none,
    when s = length), and s = gcd(that i, length). The sizes are int8,
    as length is at most e*n."""
    sizes = np.full(len(xs), length, dtype=np.int8)
    for i in range(1, length):
        state, y = step(state)
        keep = xs <= y
        y_is_state = y is state
        xs, sizes, state = xs[keep], sizes[keep], state[..., keep]
        y = state if y_is_state else y[keep]
        sizes[y == xs] = i
    return xs, np.gcd(sizes, length)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSpec:
    """Serializable description of a tower field."""

    p: int
    e: int
    t: int
    modulus: Optional[tuple] = None

    def to_json(self) -> dict:
        out = {"p": self.p, "e": self.e, "t": self.t}
        if self.modulus is not None:
            out["modulus"] = list(self.modulus)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "FieldSpec":
        mod = obj.get("modulus")
        return cls(int(obj["p"]), int(obj["e"]), int(obj["t"]),
                   tuple(int(c) for c in mod) if mod is not None else None)


class FieldCtx:
    """Arithmetic context for GF(q^n), q = p^e, n = 2t.

    Do not construct directly; use build_field so validation and caching
    apply. Scalar operations take and return plain ints. Vector operations
    (v-prefixed) take numpy int64 arrays of element indices and build the
    tables on first use; has_tables tells whether they are built.
    """

    def __init__(self, spec: FieldSpec):
        p, e, t = spec.p, spec.e, spec.t
        self.p, self.e, self.t = p, e, t
        self.q = p**e
        self.n = 2 * t
        self.en = e * self.n
        self.order = p**self.en
        self.mult_order = self.order - 1
        if spec.modulus is not None:
            self.modulus = tuple(int(c) % p for c in spec.modulus)
        else:
            self.modulus = smallest_irreducible(p, self.en)
        self.spec = FieldSpec(p, e, t, self.modulus)
        self.has_tables = False

        self._ppow = [p**i for i in range(self.en + 1)]
        self._mod_list = list(self.modulus)
        self._frob_mats: dict = {}
        self._orbits: dict = {}
        self._action = None

        self.omega = self._find_generator()
        if self.order <= EAGER_LIMIT:
            self._build_tables()
        self.two_inv = pow(2, -1, p)  # p odd, so 2 is invertible

    # -- construction ------------------------------------------------------

    def _find_generator(self) -> int:
        """The smallest index c >= 2 with c^((q^n - 1)/r) != 1 for every
        prime r dividing q^n - 1. Candidates go in batches, 16 at first and
        doubling up to 256: their multiplication matrices are squared mod p,
        once per bit of q^n - 1, and each power c^m is read as the product
        of the squares for the bits of m applied to the digits of 1."""
        p, en, M = self.p, self.en, self.mult_order
        prime_parts = [M // r for r in sorted(sympy.factorint(M))]
        # M_(x^d), the matrix of y -> x^d * y, for every digit position d
        X = self._mult_matrix(p)
        basis = [np.eye(en, dtype=np.int64)]
        for _ in range(en - 1):
            basis.append(X @ basis[-1] % p)
        basis = np.stack(basis)
        one = basis[0, :, 0]
        lo, size = 2, 16
        while lo < self.order:
            cand = np.arange(lo, min(lo + size, self.order), dtype=np.int64)
            lo, size = lo + size, min(2 * size, 256)
            digs = digit_planes(cand, p, en, np.int64)
            squares = [np.einsum("db,drc->brc", digs, basis) % p]
            for _ in range(M.bit_length() - 1):
                squares.append(squares[-1] @ squares[-1] % p)
            ok = np.ones(len(cand), dtype=bool)
            for m in prime_parts:
                v = np.broadcast_to(one, (len(cand), en))
                for k in range(m.bit_length()):
                    if m >> k & 1:
                        v = np.einsum("brc,bc->br", squares[k], v) % p
                ok &= (v != one).any(axis=1)
            if ok.any():
                return int(cand[ok.argmax()])
        raise RuntimeError("no generator found")  # unreachable: GF(q^n)* is cyclic

    def _build_tables(self):
        # Digit planes V[:, j] = digits(omega^j), filled by doubling:
        # V[:, b:2b] = A^b V[:, :b] mod p with A the matrix of y -> omega*y
        # and A^b squared at each step, one exact product
        # (linalg.mod_p_product) per slice of 2^16 columns.
        # Peak: the planes (e*n bytes per element) with exp and 1 + omega^k
        # (8 each), then at most four int64 arrays of the field's size, so
        # max(32, e*n + 17) bytes per element plus the slice buffers.
        p, en, order, M = self.p, self.en, self.order, self.mult_order
        V = np.zeros((en, M), dtype=np.int8)
        V[0, 0] = 1
        A = self._mult_matrix(self.omega)
        b = 1
        while b < M:
            hi = min(2 * b, M)
            for lo in range(b, hi, _SLICE):
                top = min(lo + _SLICE, hi)
                V[:, lo:top] = mod_p_product(A, V[:, lo - b:top - b], p)
            A = A @ A % p
            b *= 2
        exp = plane_indices(V, p)
        # 1 + omega^k: add one to digit 0, which wraps from p - 1 to 0
        one_plus = exp + 1
        np.subtract(one_plus, p, out=one_plus, where=V[0] == p - 1)
        del V
        # exp is a bijection onto 1..order-1 exactly when its values lie in
        # that range and every one of them receives a log
        log = np.full(order, -1, dtype=np.int64)
        ok = exp[0] == 1 and exp.min() >= 1 and exp.max() < order
        if ok:
            log[exp] = np.arange(M, dtype=np.int64)
            ok = (log[1:] >= 0).all()
        if not ok:
            raise RuntimeError("generator table construction failed")
        # Zech logs: zech[k] = log(1 + omega^k), -1 where the sum is zero
        zech = log[one_plus]
        del one_plus
        # q-Frobenius as a permutation table on element indices,
        # frob[x] = omega^(q * log x), gathered one slice at a time
        frob = np.empty(order, dtype=np.int64)
        for lo in range(0, order, _SLICE):
            k = log[lo:lo + _SLICE] * self.q
            k %= M
            frob[lo:lo + _SLICE] = exp[k]
        frob[0] = 0
        self._exp, self._log, self._zech, self._frob_q = exp, log, zech, frob
        self.has_tables = True

    def _mult_matrix(self, a: int) -> np.ndarray:
        """Matrix of y -> a*y on GF(p) digit vectors."""
        p, en = self.p, self.en
        cols = np.zeros((en, en), dtype=np.int64)
        cur = self.digits(a)
        for j in range(en):
            cols[:, j] = cur
            cur = [0] + cur
            cur = _poly_mod(cur, self._mod_list, p)
            cur = list(cur) + [0] * (en - len(cur))
        return cols

    def action_tensor(self) -> np.ndarray:
        """(n*e*n, e*n, e*n) stack whose slot i*e*n + d is the matrix of
        y -> x^d * y^(q^i) on GF(p) digit vectors; a q-polynomial's matrix
        is the sum of the slots weighted by the digits of its coefficients.
        Built on first use and kept."""
        if self._action is None:
            p, en = self.p, self.en
            self._action = np.stack([self._mult_matrix(self._ppow[d])
                                     @ self._frob_matrix(self.e * i) % p
                                     for i in range(self.n) for d in range(en)])
        return self._action

    def frobenius_orbits(self, space: str, d: int):
        """Yield (reps, sizes) for each slice of linalg.sweep_slices over a
        space that sigma_d: x -> x^(p^d) permutes, d dividing e*n: the
        entries of the slice that are the smallest of their orbit,
        ascending, and the sizes of those orbits (_orbit_minima).

        "shifts" is the field, index order, and sigma_d acts on the
        digit planes of a slice by its GF(p) matrix (an exact
        linalg.mod_p_product), with no table read. "classes" is
        j in [0, R), R = (q^n - 1)/(q - 1), standing for omega^j*GF(q)*:
        sigma_d maps that class onto the class of j*p^d mod R, taken in
        int64 with a floor-division reduction. That is exact on [0, R):
        R = 1 mod p, so multiplication by p^d permutes the residues mod
        R, and p^(e*n) = 1 mod R. In both spaces e*n/d steps give the
        identity, so d = e*n keeps everything.

        The output depends on the field and d alone, so each slice is
        filtered once per field, when a sweep first reaches it, and kept
        read-only on the context under (space, d, slice), as the
        Frobenius matrices are; a sweep that stops early fills only the
        slices it reached."""
        p, en = self.p, self.en
        if d < 1 or en % d:
            raise BadParams(f"d = {d} must divide e*n = {en}")
        if space == "shifts":
            total = self.order
            F = self._frob_matrix(d)

            def step(planes):
                planes = mod_p_product(F, planes, p)
                return planes, plane_indices(planes, p)
        elif space == "classes":
            total = R = self.mult_order // (self.q - 1)
            g = pow(p, d, R)

            def step(js):
                js = js * g
                js -= js // R * R
                return js, js
        else:
            raise BadParams(f"unknown orbit space {space!r}, expected 'shifts' or 'classes'")
        for lo, hi in sweep_slices(total):
            key = (space, d, lo, hi)
            if key not in self._orbits:
                xs = np.arange(lo, hi, dtype=np.int64)
                state = digit_planes(xs, p, en) if space == "shifts" else xs
                reps, sizes = _orbit_minima(xs, state, step, en // d)
                reps.flags.writeable = sizes.flags.writeable = False
                self._orbits[key] = reps, sizes
            yield self._orbits[key]

    # -- representation ----------------------------------------------------

    def digits(self, a: int):
        return _digits_of(a, self.p, self.en)

    def from_digits(self, digs) -> int:
        return _undigits(list(digs) + [0] * (self.en - len(digs)), self.p)

    def gen_power(self, j: int) -> int:
        """omega^j, exponent taken mod q^n - 1."""
        return self.pow_(self.omega, j)

    def __repr__(self):
        return f"FieldCtx(p={self.p}, e={self.e}, t={self.t})"

    # -- scalar arithmetic -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        out = 0
        w = 1
        while a or b:
            out += ((a % p) + (b % p)) % p * w
            a //= p
            b //= p
            w *= p
        return out

    def neg(self, a: int) -> int:
        p = self.p
        out = 0
        w = 1
        while a:
            out += (p - a % p) % p * w
            a //= p
            w *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.has_tables:
            return int(self._exp[(self._log[a] + self._log[b]) % self.mult_order])
        return self._mul_nt(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self.has_tables:
            return int(self._exp[-self._log[a] % self.mult_order])
        return self._inv_nt(a)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow_(self, a: int, m: int) -> int:
        if a == 0:
            if m > 0:
                return 0
            if m == 0:
                return 1
            raise ZeroDivisionError("0 has no inverse")
        m %= self.mult_order
        if self.has_tables:
            return int(self._exp[self._log[a] * m % self.mult_order])
        return self._pow_nt(a, m)

    def frob(self, a: int, k: int = 1) -> int:
        """k-fold q-power Frobenius x -> x^(q^k)."""
        return self.frob_p(a, self.e * k)

    def frob_p(self, a: int, j: int = 1) -> int:
        """p-power Frobenius x -> x^(p^j), the automorphism generator."""
        if a == 0:
            return 0
        j %= self.en
        if self.has_tables:
            M = self.mult_order
            return int(self._exp[self._log[a] * pow(self.p, j, M) % M])
        digs = self._frob_matrix(j) @ np.array(self.digits(a), dtype=np.int64) % self.p
        return self.from_digits(digs)

    # -- no-table fallbacks ------------------------------------------------

    def _mul_nt(self, a: int, b: int) -> int:
        prod = _poly_mul(self.digits(a), self.digits(b), self.p)
        return self.from_digits(_poly_mod(prod, self._mod_list, self.p))

    def _pow_nt(self, a: int, m: int) -> int:
        acc, base = 1, a
        while m:
            if m & 1:
                acc = self._mul_nt(acc, base)
            base = self._mul_nt(base, base)
            m >>= 1
        return acc

    def _inv_nt(self, a: int) -> int:
        # extended Euclid in GF(p)[x] against the modulus, keeping
        # s_i * a = r_i mod the modulus for both rows; the modulus is
        # irreducible and a != 0, so r ends at a nonzero constant
        p = self.p
        r0, s0 = list(self._mod_list), []
        r1, s1 = _trim(self.digits(a)), [1]
        while len(r1) > 1:
            inv_lead = pow(r1[-1], p - 2, p)
            while len(r0) >= len(r1):
                c = r0[-1] * inv_lead % p
                shift = len(r0) - len(r1)
                r0 = _sub_shifted(r0, c, shift, r1, p)
                s0 = _sub_shifted(s0, c, shift, s1, p)
            r0, s0, r1, s1 = r1, s1, r0, s0
        c = pow(r1[0], p - 2, p)
        return self.from_digits([d * c % p for d in s1])

    def _frob_matrix(self, j: int) -> np.ndarray:
        """Matrix of x -> x^(p^j) on GF(p) digit vectors; the q^k
        Frobenius is j = e*k."""
        j %= self.en
        if j not in self._frob_mats:
            en = self.en
            cols = np.zeros((en, en), dtype=np.int64)
            for i in range(en):
                img = self._pow_nt(self._ppow[i], self._ppow[j])
                cols[:, i] = self.digits(img)
            self._frob_mats[j] = cols
        return self._frob_mats[j]

    # -- tower structure ---------------------------------------------------

    def _level_step(self, level: str) -> int:
        if level == "q":
            return 1
        if level == "qt":
            return self.t
        raise BadParams(f"unknown tower level {level!r}, expected 'q' or 'qt'")

    def trace(self, x: int, level: str = "q") -> int:
        """Relative trace from GF(q^n) onto GF(q) or GF(q^t)."""
        step = self._level_step(level)
        out = 0
        for i in range(0, self.n, step):
            out = self.add(out, self.frob(x, i))
        return out

    def norm(self, x: int, level: str = "q") -> int:
        """Relative norm from GF(q^n) onto GF(q) or GF(q^t)."""
        step = self._level_step(level)
        exp = (self.order - 1) // (self.q**step - 1)
        return self.pow_(x, exp)

    def in_subfield(self, x: int, level: str = "q") -> bool:
        return self.frob(x, self._level_step(level)) == x

    def in_w(self, x: int) -> bool:
        """Membership in W = {x : x + x^(q^t) = 0}, the twisted complement."""
        return self.add(x, self.frob(x, self.t)) == 0

    def split(self, x: int) -> tuple:
        """Decompose x = x1 + x2 with x1 in GF(q^t) and x2 in W."""
        half = self.two_inv
        xt = self.frob(x, self.t)
        x1 = self.mul(half, self.add(x, xt))
        x2 = self.mul(half, self.sub(x, xt))
        return x1, x2

    def w_unity_root(self, k: int) -> Optional[int]:
        """First x in W* (generator-power order) with x^(q^k + 1) = 1, else None.

        Nonzero W elements are exactly omega^j with j = (2m+1)(q^t+1)/2, so
        both the sweep and the unity test reduce to exponent arithmetic.
        """
        M = self.mult_order
        stride = self.q**self.t + 1
        target = self.q**k + 1
        j = stride // 2
        while j < M:
            if j * target % M == 0:
                return self.gen_power(j)
            j += stride
        return None

    # -- vector kernels ------------------------------------------------------

    def _need_tables(self):
        if not self.has_tables:
            self._need_whole_field(tables=True)
            self._build_tables()

    def _need_whole_field(self, tables: bool = False):
        """Raise FieldTooLarge before an array over every element of a
        field above TABLE_LIMIT is made, the tables included; tables words
        the error for the passes that sweep orbits or read the tables."""
        if self.order > TABLE_LIMIT:
            if tables:
                raise FieldTooLarge("vector kernels and orbit sweeps need the "
                                    f"tables, which fields of at most {TABLE_LIMIT} "
                                    f"elements get (field has {self.order})")
            raise FieldTooLarge(f"whole-field passes need at most {TABLE_LIMIT} "
                                f"elements (field has {self.order})")

    def vgen_power(self, js) -> np.ndarray:
        """omega^j for an int64 array of exponents j (taken mod q^n - 1)."""
        self._need_tables()
        return self._exp[np.mod(js, self.mult_order)]

    def vlog(self, a: np.ndarray) -> np.ndarray:
        """Discrete logs to base omega of the elements a, -1 at 0."""
        self._need_tables()
        return self._log[a]

    def vadd(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self._need_tables()
        M = self.mult_order
        la, lb = self._log[a], self._log[b]
        d = (lb - la) % M
        s = self._exp[(la + self._zech[d]) % M]
        out = np.where(d == M // 2, 0, s)
        out = np.where(b == 0, a, out)
        return np.where(a == 0, b, out)

    def vneg(self, a: np.ndarray) -> np.ndarray:
        self._need_tables()
        M = self.mult_order
        return np.where(a == 0, 0, self._exp[(self._log[a] + M // 2) % M])

    def vsub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.vadd(a, self.vneg(b))

    def vmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self._need_tables()
        prod = self._exp[(self._log[a] + self._log[b]) % self.mult_order]
        return np.where((a == 0) | (b == 0), 0, prod)

    def vscale(self, c: int, a: np.ndarray) -> np.ndarray:
        self._need_tables()
        if c == 0:
            return np.zeros_like(a)
        lc = int(self._log[c])
        return np.where(a == 0, 0, self._exp[(self._log[a] + lc) % self.mult_order])

    def vinv(self, a: np.ndarray) -> np.ndarray:
        self._need_tables()
        if np.any(a == 0):
            raise ZeroDivisionError("0 has no inverse")
        return self._exp[-self._log[a] % self.mult_order]

    def vfrob(self, a: np.ndarray, k: int = 1) -> np.ndarray:
        self._need_tables()
        out = a
        for _ in range(k % self.n):
            out = self._frob_q[out]
        return out

    def vpow_int(self, a: np.ndarray, m: int) -> np.ndarray:
        """Entrywise a^m for a fixed integer exponent; 0^m = 0 (m > 0)."""
        self._need_tables()
        m %= self.mult_order
        if m == 0:
            return np.where(a == 0, 0, 1)
        return np.where(a == 0, 0, self._exp[self._log[a] * m % self.mult_order])


def build_field(p: int, e: int, t: int, modulus=None) -> FieldCtx:
    """Validate parameters and return a (cached) field context.

    p, e and t may be any integers, numpy ones included, but not bools;
    modulus any sequence of integers. Raises BadParams, NonPrimeP, EvenP,
    TSmall or ReducibleModulus on bad input.
    """
    try:
        if any(isinstance(v, bool) for v in (p, e, t)):
            raise TypeError
        p, e, t = operator.index(p), operator.index(e), operator.index(t)
        if modulus is not None:
            modulus = tuple(operator.index(c) for c in modulus)
    except TypeError:
        raise BadParams(f"p = {p!r}, e = {e!r}, t = {t!r} and the modulus "
                        "coefficients must be integers") from None
    if p < 2 or not sympy.isprime(p):
        raise NonPrimeP(f"p = {p} is not prime")
    if p == 2:
        raise EvenP("characteristic 2 is not supported; p must be odd")
    if e < 1:
        raise BadParams(f"e = {e} must be a positive integer")
    if t < 3:
        raise TSmall(f"t = {t} is below the minimum t >= 3")
    key = (p, e, t, modulus)
    if key in _CTX_CACHE:
        return _CTX_CACHE[key]
    if modulus is not None:
        mod = [c % p for c in modulus]
        if len(mod) != e * 2 * t + 1 or mod[-1] != 1:
            raise ReducibleModulus(
                f"modulus must be monic of degree {e * 2 * t} over GF({p})")
        if not is_irreducible(mod, p):
            raise ReducibleModulus("supplied modulus is reducible over GF(p)")
    ctx = FieldCtx(FieldSpec(p, e, t, modulus))
    _CTX_CACHE[key] = ctx
    return ctx
