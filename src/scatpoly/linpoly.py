"""GF(q)-linear polynomials over GF(q^n), stored as length-n coefficient
vectors: f(x) = sum_i c_i x^(q^i). Composition, adjoint, Dickson matrix and
rank live here; scatteredness checks build on top in scattered.py."""

from __future__ import annotations

from collections import Counter
from typing import Optional

import numpy as np

from .errors import CtxMismatch
from . import linalg


class LinPoly:
    """Immutable q-polynomial bound to a field context."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != ctx.n:
            raise ValueError(f"need exactly {ctx.n} coefficients, got {len(coeffs)}")
        for c in coeffs:
            if not 0 <= c < ctx.order:
                raise ValueError(f"coefficient {c} out of range")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("LinPoly is immutable")

    @classmethod
    def zero(cls, ctx) -> "LinPoly":
        return cls(ctx, [0] * ctx.n)

    @classmethod
    def identity(cls, ctx) -> "LinPoly":
        return cls.monomial(ctx, 1, 0)

    @classmethod
    def monomial(cls, ctx, c: int, k: int) -> "LinPoly":
        coeffs = [0] * ctx.n
        coeffs[k % ctx.n] = c
        return cls(ctx, coeffs)

    # -- ring structure ----------------------------------------------------

    def _check(self, other):
        if self.ctx is not other.ctx:
            raise CtxMismatch("operands built over different field contexts")

    def __eq__(self, other):
        return (isinstance(other, LinPoly) and self.ctx is other.ctx
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.ctx), self.coeffs))

    def __repr__(self):
        return f"LinPoly{self.coeffs}"

    def __add__(self, other) -> "LinPoly":
        self._check(other)
        add = self.ctx.add
        return LinPoly(self.ctx, [add(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other) -> "LinPoly":
        self._check(other)
        sub = self.ctx.sub
        return LinPoly(self.ctx, [sub(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "LinPoly":
        return LinPoly(self.ctx, [self.ctx.neg(c) for c in self.coeffs])

    def scale(self, c: int) -> "LinPoly":
        """Left scalar multiple c * f."""
        mul = self.ctx.mul
        return LinPoly(self.ctx, [mul(c, v) for v in self.coeffs])

    def frob_twist(self, j: int = 1) -> "LinPoly":
        """Apply the p-power automorphism x -> x^(p^j) to every coefficient."""
        return LinPoly(self.ctx, [self.ctx.frob_p(c, j) for c in self.coeffs])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def support(self):
        return [i for i, c in enumerate(self.coeffs) if c != 0]

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x: int) -> int:
        ctx = self.ctx
        out = 0
        for i, c in enumerate(self.coeffs):
            if c:
                out = ctx.add(out, ctx.mul(c, ctx.frob(x, i)))
        return out

    def eval_vec(self, xs: np.ndarray) -> np.ndarray:
        ctx = self.ctx
        out = np.zeros_like(xs)
        cur = xs
        for i, c in enumerate(self.coeffs):
            if c:
                out = ctx.vadd(out, ctx.vscale(c, cur))
            if i + 1 < ctx.n:
                cur = ctx.vfrob(cur, 1)
        return out

    def matrix(self) -> np.ndarray:
        """A_f, the (e*n, e*n) GF(p)-matrix of f on digit vectors: column d
        holds the base-p digits of f(p^d)."""
        ctx = self.ctx
        return np.array([ctx.digits(self(ctx.p ** d)) for d in range(ctx.en)],
                        dtype=np.int64).T

    def eval_all(self) -> np.ndarray:
        """f(x) for every x in index order, by GF(p)-linearity and no tables.

        For x = x_low + j*p^d with x_low < p^d, digit row r of f(x) is that
        of f(x_low) plus j*A_f[r, d] mod p, so each row of digits over the
        whole field grows from its first entry in e*n block steps; the rows
        are then assembled into indices, top digit first."""
        ctx = self.ctx
        ctx._need_whole_field()
        p, order = ctx.p, ctx.order
        A = self.matrix()
        # residues below p stay below 2p < 128 before their reduction
        row = np.empty(order, dtype=np.int8 if p < 64 else np.int16)
        out = np.zeros(order, dtype=np.int64)
        for r in reversed(range(ctx.en)):
            row[0] = 0
            size = 1
            for a in A[r].tolist():
                for j in range(1, p):
                    blk = row[j * size:(j + 1) * size]
                    np.add(row[(j - 1) * size:j * size], a, out=blk)
                    np.subtract(blk, p, out=blk, where=blk >= p)
                size *= p
            out *= p
            out += row
        return out

    def _fibers(self):
        """(bins, occupied, sizes) of x -> f(x)/x on nonzero x, in the log
        domain.

        f is GF(q)-linear, so f(lam*x)/(lam*x) = f(x)/x for lam in GF(q)*,
        and GF(q)* is generated by omega^R, R = (q^n - 1)/(q - 1): every
        fiber is a union of orbits x*GF(q)*, each with one representative
        omega^j, j < R. So f is evaluated at those R elements only, by A_f
        on their digit planes. bins[j] = log f(x) - j mod (q^n - 1) at
        x = omega^j, and q^n - 1 where f(x) = 0, which keeps the kernel
        apart. occupied holds the distinct bins in ascending order, the
        kernel's last, and sizes the sizes of their fibers, q - 1 times
        their numbers of representatives."""
        ctx = self.ctx
        ctx._need_tables()
        p, M = ctx.p, ctx.mult_order
        R = M // (ctx.q - 1)
        A = self.matrix()
        bins = np.empty(R, dtype=np.int64)
        for lo in range(0, R, linalg.SLICE):
            hi = min(lo + linalg.SLICE, R)
            rows = linalg.digit_contract(ctx, A.T, ctx._exp[lo:hi])
            fx = rows[-1].astype(np.int64)
            for r in range(ctx.en - 2, -1, -1):
                fx *= p
                fx += rows[r]
            b = bins[lo:hi]
            np.subtract(ctx._log[fx], np.arange(lo, hi), out=b)
            np.add(b, M, out=b, where=b < 0)
            b[fx == 0] = M
        occupied, reps = np.unique(bins, return_counts=True)
        return bins, occupied, reps * (ctx.q - 1)

    def line_values(self) -> np.ndarray:
        """Sorted distinct values of f(x)/x over nonzero x."""
        ctx = self.ctx
        occupied = self._fibers()[1]
        if occupied[-1] == ctx.mult_order:
            return np.sort(np.append(ctx._exp[occupied[:-1]], 0))
        return np.sort(ctx._exp[occupied])

    # -- algebra of maps ----------------------------------------------------

    def compose(self, other: "LinPoly") -> "LinPoly":
        """self after other: (f o g)_m = sum_{i+j = m mod n} f_i * g_j^(q^i)."""
        self._check(other)
        ctx = self.ctx
        n = ctx.n
        out = [0] * n
        for i, fi in enumerate(self.coeffs):
            if fi == 0:
                continue
            for j, gj in enumerate(other.coeffs):
                if gj == 0:
                    continue
                m = (i + j) % n
                out[m] = ctx.add(out[m], ctx.mul(fi, ctx.frob(gj, i)))
        return LinPoly(ctx, out)

    def left_matrix(self) -> np.ndarray:
        """L_f, the GF(p)-matrix with poly_vec(f o h) = L_f poly_vec(h):
        block (m, j) is the matrix of the monomial f_(m-j) x^(q^(m-j))."""
        ctx = self.ctx
        mono = linalg.qpoly_matrices(ctx, np.diag(np.array(self.coeffs, dtype=np.int64)))
        lag = (np.arange(ctx.n)[:, None] - np.arange(ctx.n)) % ctx.n
        return _block_matrix(mono[:, :, lag])

    def right_matrix(self) -> np.ndarray:
        """R_f, with poly_vec(h o f) = R_f poly_vec(h): block (m, i) is M_a
        for a = f_(m-i)^(q^i), entry (i, m) of the Dickson matrix."""
        ctx = self.ctx
        vals = np.array(self.dickson(), dtype=np.int64).T
        return _block_matrix(linalg.digit_contract(ctx, linalg.mult_tensor(ctx), vals))

    def adjoint(self) -> "LinPoly":
        """The map f^ with Tr(y * f(x)) = Tr(x * f^(y)) for all x, y."""
        ctx = self.ctx
        n = ctx.n
        return LinPoly(ctx, [ctx.frob(self.coeffs[(n - i) % n], i) for i in range(n)])

    def dickson(self):
        """n x n matrix over GF(q^n) with entry (i, j) = c_{(j-i) mod n}^(q^i);
        its rank equals the rank of f as a GF(q)-linear map."""
        ctx = self.ctx
        n = ctx.n
        return [[ctx.frob(self.coeffs[(j - i) % n], i) for j in range(n)]
                for i in range(n)]

    def rank(self) -> int:
        return linalg.field_rank(self.ctx, self.dickson())

    def kernel_dim(self) -> int:
        return self.ctx.n - self.rank()

    def map_order(self, max_steps: int = 100_000) -> Optional[int]:
        """Least m >= 1 with the m-fold composition equal to the identity,
        or None when f is not invertible."""
        if self.rank() < self.ctx.n:
            return None
        ident = LinPoly.identity(self.ctx)
        g = self
        m = 1
        while g != ident:
            g = g.compose(self)
            m += 1
            if m > max_steps:
                raise RuntimeError(f"map order exceeds {max_steps}")
        return m

    def fiber_histogram(self) -> Counter:
        """Multiset of fiber sizes of x -> f(x)/x on nonzero x, as a Counter
        mapping fiber size to the number of fibers of that size."""
        sizes, mult = np.unique(self._fibers()[2], return_counts=True)
        return Counter({int(s): int(m) for s, m in zip(sizes, mult)})

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return list(self.coeffs)

    @classmethod
    def from_json(cls, ctx, obj) -> "LinPoly":
        return cls(ctx, obj)


# -- GF(p) coordinates -----------------------------------------------------------

def poly_vec(ctx, coeffs) -> np.ndarray:
    """q-polynomials as GF(p)-vectors of length n*(e*n): the little-endian
    base-p digit blocks of their coefficients, slot by slot. coeffs has
    shape (..., n), one coefficient vector per polynomial."""
    c = np.asarray(coeffs, dtype=np.int64)[..., None]
    digits = c // ctx.p ** np.arange(ctx.en, dtype=np.int64) % ctx.p
    return digits.reshape(*digits.shape[:-2], -1)


def vec_poly(ctx, v: np.ndarray) -> LinPoly:
    """The q-polynomial with GF(p)-vector v; inverse of poly_vec."""
    return LinPoly(ctx, np.reshape(v, (ctx.n, ctx.en)) @ ctx.p ** np.arange(ctx.en))


def _block_matrix(T: np.ndarray) -> np.ndarray:
    """The int64 matrix on poly_vec coordinates whose (e*n, e*n) block
    (m, j) is T[:, :, m, j]."""
    en, _, n, _ = T.shape
    return T.transpose(2, 0, 3, 1).reshape(n * en, n * en).astype(np.int64)
