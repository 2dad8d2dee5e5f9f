"""Reference arithmetic for GF(p^N), N = e*n, written apart from scatpoly.

It works on scatpoly's documented element encoding: the element
sum(d_i * x^i) of GF(p)[x]/(modulus) has index sum(d_i * p^i). Nothing here
imports scatpoly; the benchmark checks the program's outputs with it.

Scalars are plain ints and are multiplied by schoolbook polynomial product
and reduction modulo the monic modulus. GF(p)-linear maps of the field
(multiplication by a constant, Frobenius powers, q-polynomials) are N x N
integer matrices acting on digit column vectors, so a map is checked on a
GF(p)-basis by one matrix product. Discrete-log tables are built only for
the small fields whose every element the checks visit.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import sympy


class RefField:
    """GF(p^N) for the tower GF(p) < GF(q) < GF(q^n), q = p^e, n = 2t."""

    def __init__(self, p: int, e: int, t: int, modulus):
        self.p, self.e, self.t = p, e, t
        self.n = 2 * t
        self.N = e * self.n
        self.q = p ** e
        self.order = p ** self.N
        mod = [int(c) % p for c in modulus]
        if len(mod) != self.N + 1 or mod[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {self.N}")
        x = sympy.Symbol("x")
        if not sympy.Poly(mod[::-1], x, modulus=p).is_irreducible:
            raise ValueError(f"modulus {mod} is reducible over GF({p})")
        self.modulus = tuple(mod)
        self.pw = np.array([p ** i for i in range(self.N)], dtype=np.int64)
        self._frob_mats: dict = {}
        self._tables = None

    # -- scalars ------------------------------------------------------------

    def digits(self, a: int) -> list:
        out = []
        for _ in range(self.N):
            out.append(a % self.p)
            a //= self.p
        return out

    def index(self, digs) -> int:
        out = 0
        for d in reversed(list(digs)):
            out = out * self.p + int(d) % self.p
        return out

    def add(self, a: int, b: int) -> int:
        return self.index(x + y for x, y in zip(self.digits(a), self.digits(b)))

    def neg(self, a: int) -> int:
        return self.index(-x for x in self.digits(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        p, N, mod = self.p, self.N, self.modulus
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * N - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        # x^N = -(mod[0] + ... + mod[N-1] x^(N-1))
        for deg in range(2 * N - 2, N - 1, -1):
            c = prod[deg] % p
            if c:
                for i in range(N):
                    prod[deg - N + i] -= c * mod[i]
        return self.index(prod[:N])

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            return self.pow(self.inv(a), -k)
        acc, base = 1, a
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(a, self.order - 2)

    def frob(self, a: int, k: int = 1) -> int:
        """x -> x^(q^k)."""
        return self.pow(a, self.q ** (k % self.n))

    def frob_p(self, a: int, j: int = 1) -> int:
        """x -> x^(p^j)."""
        return self.pow(a, self.p ** (j % self.N))

    def in_gf_q(self, a: int) -> bool:
        return self.frob(a) == a

    def norm_q(self, a: int) -> int:
        """Norm from GF(q^n) onto GF(q)."""
        return self.pow(a, (self.order - 1) // (self.q - 1))

    # -- GF(p)-linear maps as matrices ---------------------------------------

    def col(self, a: int) -> np.ndarray:
        return np.array(self.digits(a), dtype=np.int64)

    def mat_mul(self, a: int) -> np.ndarray:
        """Matrix of y -> a*y; column j is a * x^j."""
        return np.stack([self.col(self.mul(a, self.p ** j)) for j in range(self.N)], axis=1)

    def mat_frob(self, k: int) -> np.ndarray:
        """Matrix of y -> y^(q^k)."""
        k %= self.n
        if k not in self._frob_mats:
            self._frob_mats[k] = np.stack(
                [self.col(self.frob(self.p ** j, k)) for j in range(self.N)], axis=1)
        return self._frob_mats[k]

    def qpoly(self, coeffs) -> np.ndarray:
        """Matrix of x -> sum_i c_i x^(q^i)."""
        A = np.zeros((self.N, self.N), dtype=np.int64)
        for i, c in enumerate(coeffs):
            if c:
                A = (A + self.mat_mul(int(c)) @ self.mat_frob(i)) % self.p
        return A

    def apply(self, A: np.ndarray, a: int) -> int:
        return self.index(A @ self.col(a) % self.p)

    # -- small fields: every element at once ----------------------------------

    def primitive_element(self) -> int:
        M = self.order - 1
        parts = [M // r for r in sympy.factorint(M)]
        g = 2
        while not all(self.pow(g, m) != 1 for m in parts):
            g += 1
        return g

    def tables(self):
        """(exp, log) over the multiplicative group, built by stepping
        powers of a primitive element in blocks of matrix products."""
        if self._tables is None:
            p, N, M = self.p, self.N, self.order - 1
            g = self.primitive_element()
            B = min(M, 256)
            V = np.empty((N, M), dtype=np.int64)
            v, step = self.col(1), self.mat_mul(g)
            for j in range(B):
                V[:, j] = v
                v = step @ v % p
            jump = self.mat_mul(self.pow(g, B))
            for lo in range(B, M, B):
                hi = min(lo + B, M)
                V[:, lo:hi] = jump @ V[:, lo - B:hi - B] % p
            exp = self.pw @ V
            log = np.full(self.order, -1, dtype=np.int64)
            log[exp] = np.arange(M, dtype=np.int64)
            if exp[0] != 1 or (log[1:] < 0).any():
                raise RuntimeError("powers of the primitive element do not cover the field")
            self._tables = (exp, log)
        return self._tables

    def ratios(self, A: np.ndarray) -> np.ndarray:
        """f(x)/x for every nonzero x, f given by its matrix."""
        exp, log = self.tables()
        xs = np.arange(1, self.order, dtype=np.int64)
        D = (xs[None, :] // self.pw[:, None]) % self.p
        fx = self.pw @ (A @ D % self.p)
        M = self.order - 1
        return np.where(fx == 0, 0, exp[(log[fx] - log[xs]) % M])

    def fiber_sizes(self, A: np.ndarray) -> Counter:
        """Fiber size -> number of values m of f(x)/x with that fiber."""
        _, counts = np.unique(self.ratios(A), return_counts=True)
        return Counter(int(c) for c in counts)


# -- elimination mod p -----------------------------------------------------------

def rref_modp(A: np.ndarray, p: int):
    R = np.array(A, dtype=np.int64) % p
    rows, cols = R.shape
    pivots = []
    r = 0
    for j in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(R[r:, j])
        if not len(nz):
            continue
        i = r + int(nz[0])
        R[[r, i]] = R[[i, r]]
        R[r] = R[r] * pow(int(R[r, j]), -1, p) % p
        for i in range(rows):
            if i != r and R[i, j]:
                R[i] = (R[i] - R[i, j] * R[r]) % p
        pivots.append(j)
        r += 1
    return R[:r], pivots


def rank_modp(A: np.ndarray, p: int) -> int:
    return len(rref_modp(A, p)[1])


def nullspace_modp(A: np.ndarray, p: int) -> np.ndarray:
    """Rows spanning {v : A v = 0}."""
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    cols = A.shape[1]
    R, pivots = rref_modp(A, p)
    free = [j for j in range(cols) if j not in pivots]
    out = np.zeros((len(free), cols), dtype=np.int64)
    for k, f in enumerate(free):
        out[k, f] = 1
        for i, j in enumerate(pivots):
            out[k, j] = -R[i, f] % p
    return out


def span_member(vectors: np.ndarray, p: int):
    """Membership test for the GF(p)-row span of vectors: v is in the span
    iff v is orthogonal to every vector of the span's annihilator."""
    K = nullspace_modp(vectors, p)
    return lambda v: not (K @ (np.asarray(v, dtype=np.int64) % p) % p).any()


# -- elimination over the big field (small systems) --------------------------------

def rank_field(F: RefField, rows) -> int:
    R = [list(map(int, r)) for r in rows]
    if not R:
        return 0
    rank = 0
    for j in range(len(R[0])):
        piv = next((i for i in range(rank, len(R)) if R[i][j]), None)
        if piv is None:
            continue
        R[rank], R[piv] = R[piv], R[rank]
        inv = F.inv(R[rank][j])
        R[rank] = [F.mul(inv, v) for v in R[rank]]
        for i in range(len(R)):
            if i != rank and R[i][j]:
                c = R[i][j]
                R[i] = [F.sub(v, F.mul(c, w)) for v, w in zip(R[i], R[rank])]
        rank += 1
        if rank == len(R):
            break
    return rank


# -- the objects of the paper, restated ------------------------------------------

def psi_coeffs(F: RefField, k: int) -> tuple:
    """psi_k(x) = (x^(q^k) + x^(q^(t-k)) - x^(q^(t+k)) + x^(q^(2t-k))) / 2,
    slots taken mod n and accumulated when they collide."""
    n, t = F.n, F.t
    half = pow(2, -1, F.p)
    coeffs = [0] * n
    for slot, c in ((k, half), (t - k, half), (t + k, F.neg(half)), (n - k, half)):
        coeffs[slot % n] = F.add(coeffs[slot % n], c)
    return tuple(coeffs)
