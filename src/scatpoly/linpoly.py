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

    def coeff_degree(self) -> int:
        """The smallest d dividing e*n with every coefficient in GF(p^d),
        that is with frob_twist(d) == self. x -> x^(p^d) then commutes
        with f."""
        en = self.ctx.en
        return next(d for d in range(1, en + 1)
                    if en % d == 0 and self.frob_twist(d) == self)

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
        """f(x) for every x in xs, by A_f on the digit planes of xs; reads
        no tables."""
        return linalg.apply_matrix(self.ctx, self.matrix(), xs)

    def matrix(self) -> np.ndarray:
        """A_f, the (e*n, e*n) GF(p)-matrix of f on digit vectors: column d
        holds the base-p digits of f(p^d)."""
        ctx = self.ctx
        return np.array([ctx.digits(self(ctx.p ** d)) for d in range(ctx.en)],
                        dtype=np.int64).T

    def eval_all(self) -> np.ndarray:
        """f(x) for every x in index order, by eval_vec; reads no tables."""
        self.ctx._need_whole_field()
        return self.eval_vec(np.arange(self.ctx.order, dtype=np.int64))

    def _fibers(self):
        """(occupied, sizes) of x -> f(x)/x on nonzero x, in the log domain.

        f is GF(q)-linear, so f(lam*x)/(lam*x) = f(x)/x for lam in GF(q)*,
        and GF(q)* is generated by omega^R, R = (q^n - 1)/(q - 1): every
        fiber is a union of orbits x*GF(q)*, each with one representative
        omega^j, j < R. So f is evaluated at those R elements only, by A_f
        on their digit planes. At x = omega^j the bin is
        log f(x) - j mod (q^n - 1), and q^n - 1 where f(x) = 0, which keeps
        the kernel apart. occupied holds the distinct bins in ascending
        order, the kernel's last, and sizes the sizes of their fibers, q - 1
        times their numbers of representatives. The fiber of the value v is
        ker(A_f - M_v) minus 0."""
        ctx = self.ctx
        ctx._need_whole_field(tables=True)
        M = ctx.mult_order
        R = M // (ctx.q - 1)
        A = self.matrix()
        bins = np.empty(R, dtype=np.int64)
        for lo in range(0, R, linalg.SLICE):
            b = bins[lo:lo + linalg.SLICE]
            fx = linalg.apply_matrix(ctx, A, ctx.vgen_power(slice(lo, lo + len(b))))
            np.subtract(ctx.vlog(fx), np.arange(lo, lo + len(b)), out=b)
            np.add(b, M, out=b, where=b < 0)
            b[fx == 0] = M
        occupied, reps = np.unique(bins, return_counts=True)
        return occupied, reps * (ctx.q - 1)

    def line_values(self) -> np.ndarray:
        """Sorted distinct values of f(x)/x over nonzero x."""
        M = self.ctx.mult_order
        occupied = self._fibers()[0]
        # bin q^n - 1, the kernel's, holds the value 0
        return np.sort(np.where(occupied < M, self.ctx.vgen_power(occupied), 0))

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
        sizes, mult = np.unique(self._fibers()[1], return_counts=True)
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
    digits = np.moveaxis(linalg.digit_planes(coeffs, ctx.p, ctx.en, np.int64), 0, -1)
    return digits.reshape(*digits.shape[:-2], -1)


def vec_poly(ctx, v: np.ndarray) -> LinPoly:
    """The q-polynomial with GF(p)-vector v; inverse of poly_vec."""
    return LinPoly(ctx, linalg.plane_indices(np.reshape(v, (ctx.n, ctx.en)).T, ctx.p))


def _block_matrix(T: np.ndarray) -> np.ndarray:
    """The int64 matrix on poly_vec coordinates whose (e*n, e*n) block
    (m, j) is T[:, :, m, j]."""
    en, _, n, _ = T.shape
    return T.transpose(2, 0, 3, 1).reshape(n * en, n * en).astype(np.int64)
