"""Tower GF(p) < GF(q) < GF(q^t) < GF(q^n) with n = 2t and q = p^e odd.

Elements are integer indices encoding polynomial-basis coordinates over
GF(p) in little-endian base-p order: the element sum(c_i * x^i) has index
sum(c_i * p^i). Index 0 is the zero element, indices below p are the
prime-field scalars.

Fields up to 2^26 elements get int32 discrete-log tables, exp and log,
for the vectorized numpy kernels, built on first use (up to 2^20
elements, at construction); the Zech logs and the q-Frobenius
permutation, read only by vadd/vsub and vfrob, are built from them when
first read. Without the tables, arithmetic runs on one
representation, the GF(p) matrices on digit vectors: FieldCtx.x_powers
holds M_(x^d), the powers of the modulus's companion matrix, for
d < e*n; M_a is the digit contraction of a against it, and products,
powers and inverses are products of such matrices. The p-Frobenius
matrix is read off the same stack, and its powers, kept on the context,
are the other Frobenius maps. Fields have at most 2^63 elements, so
indices fit int64.

Only FieldCtx reads the tables: the scalar fast paths, the eight v-kernels
(vadd, vneg, vsub, vmul, vscale, vinv, vfrob, vpow_int), and vgen_power
and vlog, through which every other module gets omega^j and discrete logs.
Each read is widened to int64 before any arithmetic on it, as a log
times an exponent or p^j overflows int32, and every one of those calls
returns int64.

FieldCtx.frobenius_orbits is the one orbit driver of the sweeps: slice by
slice, the smallest element of each orbit of x -> x^(p^d), with the
product by the G-th roots of unity on the field or j -> -j on the
classes omega^j*GF(q)*, and its orbit's size, computed without tables and
kept on the context.

exp and log are two int32 arrays, 8 bytes per element (TABLE_LIMIT <
2^31, so every index and log fits). They are built by doubling on the
digit planes of omega^j, each step one exact GF(p) product
(linalg.mod_p_product, which states why it is exact). Building them
peaks at e*n + 4 bytes per element (the int8 planes and exp) plus a few
MB of slice buffers; on one core of a 2-core x86 box GF(13^6) (4.8M
elements) takes 0.15-0.18 s at 10 bytes per element, GF(5^10) (9.8M)
0.53-0.63 s at 14, and GF(3^16) (43M), with a cold fiber verdict, 7.6 s
at a peak RSS of 915 MB. The Zech and Frobenius tables add 4 bytes per
element each when read.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np
import sympy

from .errors import (BadParams, EvenP, FieldTooLarge, NonPrimeP,
                     ReducibleModulus, TSmall)
from .linalg import (digit_planes, mod_p_product, modp_power, modp_rref, plane_indices,
                     sweep_slices)

TABLE_LIMIT = 1 << 26
EAGER_LIMIT = 1 << 20  # built at construction up to here: about 0.1 s, and fast scalars
_SLICE = 1 << 16  # columns per step of the table build
# orbit filter: images of the remaining entries per block, and the most
# powers of the second generator in one block
_ORBIT_IMAGES = 1 << 16
_ORBIT_BLOCK = 1 << 10

_CTX_CACHE: dict = {}


# ---------------------------------------------------------------------------
# GF(p)[x]/(f) as GF(p) matrices on little-endian digit vectors


def _x_powers(coeffs, p) -> np.ndarray:
    """(m, m, m) read-only stack of the powers of the companion matrix C of
    a monic f of degree m, little-endian coefficients coeffs: slot d is
    C^d = M_(x^d), the matrix of y -> x^d * y on the digits of
    GF(p)[x]/(f), so column i of slot d holds the digits of x^(d+i) mod f.
    M_a is the digit contraction of a against the stack."""
    m = len(coeffs) - 1
    C = np.eye(m, k=-1, dtype=np.int64)  # x * x^i = x^(i+1) for i < m - 1
    C[:, -1] = -np.asarray(coeffs[:m], dtype=np.int64) % p  # x^m = -(f - x^m)
    X = np.empty((m, m, m), dtype=np.int64)
    X[0] = np.eye(m, dtype=np.int64)
    for d in range(1, m):
        X[d] = C @ X[d - 1] % p
    X.flags.writeable = False
    return X


def _contract(digs, X: np.ndarray, p: int) -> np.ndarray:
    """M_a = sum_d digs[d] * X[d] mod p, a having the digits digs and X
    being an _x_powers stack."""
    m = len(X)
    return (np.dot(digs, X.reshape(m, m * m)) % p).reshape(m, m)


def _frobenius_matrix(X: np.ndarray, p: int) -> np.ndarray:
    """Matrix of y -> y^p on digit vectors, X being an _x_powers stack:
    column i holds the digits of x^(i*p) = (M_x^p)^i * 1, M_x = X[1]."""
    P = modp_power(X[1], p, p)
    F = np.empty(X.shape[1:], dtype=np.int64)
    col = X[0][:, 0]
    for i in range(len(X)):
        F[:, i] = col
        col = P @ col % p
    return F


def is_irreducible(coeffs, p) -> bool:
    """Rabin's test for a monic polynomial f over GF(p), little-endian
    coefficients, on the matrices of GF(p)[x]/(f): f of degree m is
    irreducible iff x^(p^m) = x there and, for every prime r | m,
    g = x^(p^(m/r)) - x is prime to f, that is M_g has full rank. The
    powers x^(p^k) are the Frobenius matrix applied k times to x."""
    m = len(coeffs) - 1
    if m < 1 or coeffs[-1] != 1:
        return False
    if m == 1:
        return True
    if coeffs[0] == 0:
        return False  # divisible by x
    if m * p * p >= 1 << 63:
        raise BadParams(f"p = {p} at degree {m} overflows the int64 products")
    X = _x_powers(coeffs, p)
    F = _frobenius_matrix(X, p)
    images = [X[1][:, 0]]  # the digits of x^(p^k), k = 0..m
    for _ in range(m):
        images.append(F @ images[-1] % p)
    if not np.array_equal(images[m], images[0]):
        return False
    for r in sympy.primefactors(m):
        g = (images[m // r] - images[0]) % p
        if len(modp_rref(_contract(g, X, p), p)[1]) < m:
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


def _orbit_minima(xs, state, images, L: int, A: int):
    """(reps, sizes): the entries x of xs with x <= g(x) for every g in a
    group {h^a o s^i : i < L, a < A} acting on them, each the smallest of
    its orbit, and the sizes of their orbits.

    state holds xs in the coordinates the group acts on, one column per
    entry on its last axis; images(state, i, a, c) returns the values of
    h^(a+k)(s^i(x)), k < c, one row each. The images are taken for each
    i in blocks of powers of h holding about _ORBIT_IMAGES values, and an
    entry leaves at the first block with an image below it, so the later
    blocks act on a shrinking remainder.

    The sizes come by orbit-stabilizer. The pairs (i, a) form a group of
    L*A elements when s^L and h^A are the identity and s o h = h^r o s for
    some r; it acts through x -> h^a(s^i(x)), possibly with two pairs
    giving one map, so an orbit has L*A elements divided by the number of
    pairs that fix x."""
    order = L * A
    fixed = np.ones(len(xs), dtype=np.min_scalar_type(order))  # (0, 0) is the identity
    for i in range(L):
        a = 0 if i else 1
        while a < A and len(xs):
            c = min(A - a, _ORBIT_BLOCK, max(1, _ORBIT_IMAGES // len(xs)))
            vals = images(state, i, a, c)
            keep = (xs <= vals).all(axis=0)
            fixed += (vals == xs).sum(axis=0, dtype=fixed.dtype)
            if not keep.all():
                xs, fixed, state = xs[keep], fixed[keep], state[..., keep]
            a += c
    return xs, order // fixed


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
    tables on first use; has_tables tells whether they are built. x_powers
    is the read-only stack of M_(x^d), d < e*n, that every table-free
    operation reads.
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

        self.x_powers = _x_powers(self.modulus, p)
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
        one = self.x_powers[0, :, 0]
        lo, size = 2, 16
        while lo < self.order:
            cand = np.arange(lo, min(lo + size, self.order), dtype=np.int64)
            lo, size = lo + size, min(2 * size, 256)
            digs = digit_planes(cand, p, en, np.int64)
            squares = [np.einsum("db,drc->brc", digs, self.x_powers) % p]
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
        # exp and log are int32 (TABLE_LIMIT < 2^31 bounds every index and
        # log), exp read off the planes straight into int32 and log made
        # after the planes are freed, so the build peaks at the planes and
        # exp, e*n + 4 bytes per element, plus the slice buffers.
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
        exp = plane_indices(V, p, np.int32)
        del V
        # exp is a bijection onto 1..order-1 exactly when its values lie in
        # that range and every one of them receives a log
        log = np.full(order, -1, dtype=np.int32)
        ok = exp[0] == 1 and exp.min() >= 1 and exp.max() < order
        if ok:
            for lo in range(0, M, _SLICE):
                log[exp[lo:lo + _SLICE]] = np.arange(lo, min(lo + _SLICE, M), dtype=np.int32)
            ok = (log[1:] >= 0).all()
        if not ok:
            raise RuntimeError("generator table construction failed")
        self._exp, self._log = exp, log
        self.has_tables = True

    @functools.cached_property
    def _zech(self) -> np.ndarray:
        """Zech logs, int32, built from exp and log on first read:
        zech[k] = log(1 + omega^k), -1 where the sum is zero."""
        self._need_tables()
        p, M = self.p, self.mult_order
        zech = np.empty(M, dtype=np.int32)
        for lo in range(0, M, _SLICE):
            # 1 + omega^k: add one to digit 0, which wraps from p - 1 to 0
            one_plus = self._exp[lo:lo + _SLICE] + 1
            one_plus[one_plus % p == 0] -= p
            zech[lo:lo + _SLICE] = self._log[one_plus]
        return zech

    @functools.cached_property
    def _frob_q(self) -> np.ndarray:
        """q-Frobenius as an int32 permutation table on element indices,
        frob[x] = omega^(q * log x), built from exp and log on first read."""
        self._need_tables()
        M = self.mult_order
        frob = np.empty(self.order, dtype=np.int32)
        for lo in range(0, self.order, _SLICE):
            k = self._log[lo:lo + _SLICE].astype(np.int64) * self.q
            k %= M
            frob[lo:lo + _SLICE] = self._exp[k]
        frob[0] = 0
        return frob

    def _mult_matrix(self, a: int) -> np.ndarray:
        """Matrix M_a of y -> a*y on GF(p) digit vectors: the digit
        contraction of a against x_powers."""
        return _contract(self.digits(a), self.x_powers, self.p)

    def action_tensor(self) -> np.ndarray:
        """(n*e*n, e*n, e*n) stack whose slot i*e*n + d is the matrix of
        y -> x^d * y^(q^i) on GF(p) digit vectors, x_powers[d] times the
        q^i-Frobenius matrix; a q-polynomial's matrix is the sum of the
        slots weighted by the digits of its coefficients. Built on first
        use and kept."""
        if self._action is None:
            self._action = np.concatenate([self.x_powers @ self._frob_matrix(self.e * i)
                                           % self.p for i in range(self.n)])
        return self._action

    def frobenius_orbits(self, space: str, d: int, G: int = 1):
        """Yield (reps, sizes) for each slice of linalg.sweep_slices over a
        space that sigma_d: x -> x^(p^d) permutes, d dividing e*n: the
        entries of the slice that are the smallest of their orbit under
        sigma_d and one more generator of order G, ascending, and the sizes
        of those orbits (_orbit_minima).

        "shifts" is the field, index order, and sigma_d acts on the digit
        planes of a slice by its GF(p) matrix (an exact
        linalg.mod_p_product), with no table read. G divides q^n - 1, and
        the other generator is M_zeta, the product by the primitive G-th
        root of unity zeta = omega^((q^n - 1)/G), also a GF(p) matrix on
        the planes: sigma_d(zeta*x) = zeta^(p^d)*sigma_d(x), so the group
        is {zeta^a*sigma_d^i} with G*e*n/d elements.

        "classes" is j in [0, R), R = (q^n - 1)/(q - 1), standing for
        omega^j*GF(q)*: sigma_d maps that class onto the class of
        j*p^d mod R, taken in int64 with a floor-division reduction. That
        is exact on [0, R): R = 1 mod p, so multiplication by p^d permutes
        the residues mod R, and p^(e*n) = 1 mod R. G is 1 or 2, and G = 2
        adds j -> -j mod R, the class of the inverse. In both spaces e*n/d
        steps of sigma_d give the identity, so d = e*n with G = 1 keeps
        everything.

        The output depends on the field, d and G alone, so each slice is
        filtered once per field, when a sweep first reaches it, and kept
        read-only on the context under (space, d, G, slice), as the
        Frobenius matrices are; a sweep that stops early fills only the
        slices it reached."""
        p, en = self.p, self.en
        if d < 1 or en % d:
            raise BadParams(f"d = {d} must divide e*n = {en}")
        if space == "shifts":
            if G < 1 or self.mult_order % G:
                raise BadParams(f"G = {G} must divide q^n - 1 = {self.mult_order}")
            total = self.order
            zeta = None

            def images(planes, i, a, c):
                # zeta^(a+k)*sigma_d^i(x) by the matrices M_zeta^(a+k) F^i,
                # with M_zeta^k, k < _ORBIT_BLOCK, made once per sweep
                nonlocal zeta
                if zeta is None:
                    M = self._mult_matrix(self.gen_power(self.mult_order // G))
                    Z = [np.eye(en, dtype=np.int64)]
                    for _ in range(min(G, _ORBIT_BLOCK) - 1):
                        Z.append(M @ Z[-1] % p)
                    zeta = M, np.array(Z)
                M, Z = zeta
                # the powers of M_zeta commute, so the block's matrices are
                # M_zeta^k W, k < c, with W = M_zeta^a F^i: one product
                W = modp_power(M, a, p) @ self._frob_matrix(d * i) % p
                mats = mod_p_product(Z[:c].reshape(-1, en), W, p).reshape(c, en, en)
                imgs = mod_p_product(mats, planes, p)
                return plane_indices(np.moveaxis(imgs, 1, 0), p)
        elif space == "classes":
            if G not in (1, 2):
                raise BadParams(f"G = {G} on the classes must be 1 or 2 (j -> -j)")
            total = R = self.mult_order // (self.q - 1)

            def images(js, i, a, c):
                js = js * pow(p, d * i, R)
                js -= js // R * R
                return js[None] if a + c == 1 else np.stack([js, (R - js) % R])[a:a + c]
        else:
            raise BadParams(f"unknown orbit space {space!r}, expected 'shifts' or 'classes'")
        for lo, hi in sweep_slices(total):
            key = (space, d, G, lo, hi)
            if key not in self._orbits:
                xs = np.arange(lo, hi, dtype=np.int64)
                state = digit_planes(xs, p, en) if space == "shifts" else xs
                reps, sizes = _orbit_minima(xs, state, images, en // d, G)
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
            return int(self._exp[(int(self._log[a]) + int(self._log[b])) % self.mult_order])
        return self._mul_nt(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self.has_tables:
            return int(self._exp[-int(self._log[a]) % self.mult_order])
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
            return int(self._exp[int(self._log[a]) * m % self.mult_order])
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
            return int(self._exp[int(self._log[a]) * pow(self.p, j, M) % M])
        digs = self._frob_matrix(j) @ np.array(self.digits(a), dtype=np.int64) % self.p
        return self.from_digits(digs)

    # -- no-table arithmetic: products of the matrices M_a -------------------

    def _mul_nt(self, a: int, b: int) -> int:
        return self.from_digits(self._mult_matrix(a) @ self.digits(b) % self.p)

    def _pow_nt(self, a: int, m: int) -> int:
        # column 0 of M_a^m = M_(a^m) holds the digits of a^m * 1
        return self.from_digits(modp_power(self._mult_matrix(a), m, self.p)[:, 0])

    def _inv_nt(self, a: int) -> int:
        # a^-1 = a^(r-1) / N(a) with r = (p^(e*n) - 1)/(p - 1): a^(r-1) is
        # the product of the conjugates a^(p^i), 0 < i < e*n, and the norm
        # N(a) = a^r = a * a^(r-1) lies in GF(p), its digits (N(a), 0, ...)
        p, X, F = self.p, self.x_powers, self._frob_matrix(1)
        digs = np.array(self.digits(a), dtype=np.int64)
        conj = acc = F @ digs % p
        for _ in range(2, self.en):
            conj = F @ conj % p
            acc = _contract(acc, X, p) @ conj % p
        norm = int(_contract(acc, X, p)[0] @ digs % p)
        return self.from_digits(acc * pow(norm, -1, p) % p)

    def _frob_matrix(self, j: int) -> np.ndarray:
        """Matrix of x -> x^(p^j) on GF(p) digit vectors, the j-th power of
        the p-Frobenius matrix, kept; the q^k Frobenius is j = e*k."""
        j %= self.en
        if j not in self._frob_mats:
            self._frob_mats[j] = (_frobenius_matrix(self.x_powers, self.p) if j == 1
                                  else modp_power(self._frob_matrix(1), j, self.p))
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

    def _exps(self, ks) -> np.ndarray:
        """omega^k as int64 for an array of k in [0, q^n - 1)."""
        return self._exp[ks].astype(np.int64)

    def _logs(self, a) -> np.ndarray:
        """The logs of the elements a as int64, -1 at 0: the table is int32,
        so sums and products of logs are taken after this widening."""
        return self._log[a].astype(np.int64)

    def vgen_power(self, js) -> np.ndarray:
        """omega^j for an int64 array of exponents j (taken mod q^n - 1)."""
        self._need_tables()
        return self._exps(np.mod(js, self.mult_order))

    def vlog(self, a: np.ndarray) -> np.ndarray:
        """Discrete logs to base omega of the elements a, -1 at 0."""
        self._need_tables()
        return self._logs(a)

    def vadd(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self._need_tables()
        M = self.mult_order
        la, lb = self._logs(a), self._logs(b)
        d = (lb - la) % M
        s = self._exps((la + self._zech[d]) % M)
        out = np.where(d == M // 2, 0, s)
        out = np.where(b == 0, a, out)
        return np.where(a == 0, b, out)

    def vneg(self, a: np.ndarray) -> np.ndarray:
        self._need_tables()
        M = self.mult_order
        return np.where(a == 0, 0, self._exps((self._logs(a) + M // 2) % M))

    def vsub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.vadd(a, self.vneg(b))

    def vmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self._need_tables()
        prod = self._exps((self._logs(a) + self._logs(b)) % self.mult_order)
        return np.where((a == 0) | (b == 0), 0, prod)

    def vscale(self, c: int, a: np.ndarray) -> np.ndarray:
        self._need_tables()
        if c == 0:
            return np.zeros_like(a)
        lc = int(self._log[c])
        return np.where(a == 0, 0, self._exps((self._logs(a) + lc) % self.mult_order))

    def vinv(self, a: np.ndarray) -> np.ndarray:
        self._need_tables()
        if np.any(a == 0):
            raise ZeroDivisionError("0 has no inverse")
        return self._exps(-self._logs(a) % self.mult_order)

    def vfrob(self, a: np.ndarray, k: int = 1) -> np.ndarray:
        self._need_tables()
        out = a
        for _ in range(k % self.n):
            out = self._frob_q[out]
        return out.astype(np.int64, copy=False)

    def vpow_int(self, a: np.ndarray, m: int) -> np.ndarray:
        """Entrywise a^m for a fixed integer exponent; 0^m = 0 (m > 0)."""
        self._need_tables()
        m %= self.mult_order
        if m == 0:
            return np.where(a == 0, 0, 1)
        return np.where(a == 0, 0, self._exps(self._logs(a) * m % self.mult_order))


def build_field(p: int, e: int, t: int, modulus=None) -> FieldCtx:
    """Validate parameters and return a (cached) field context.

    p, e and t may be any integers, numpy ones included, but not bools;
    modulus any sequence of integers. Raises BadParams, NonPrimeP, EvenP,
    TSmall or ReducibleModulus on bad input, and BadParams when q^n > 2^63,
    where element indices would overflow int64.
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
    en = e * 2 * t
    # the first test bounds p^(e*n) below by 2^(e*n*floor(log2 p)) without computing it
    if en * (p.bit_length() - 1) > 63 or p**en > 1 << 63:
        raise BadParams(f"q^n = {p}^{en} is above 2^63: element indices would overflow int64")
    key = (p, e, t, modulus)
    if key in _CTX_CACHE:
        return _CTX_CACHE[key]
    if modulus is not None:
        mod = [c % p for c in modulus]
        if len(mod) != en + 1 or mod[-1] != 1:
            raise ReducibleModulus(f"modulus must be monic of degree {en} over GF({p})")
        if not is_irreducible(mod, p):
            raise ReducibleModulus("supplied modulus is reducible over GF(p)")
    ctx = FieldCtx(FieldSpec(p, e, t, modulus))
    _CTX_CACHE[key] = ctx
    return ctx
