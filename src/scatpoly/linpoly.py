"""GF(q)-linear polynomials over GF(q^n), stored as length-n coefficient
vectors: f(x) = sum_i c_i x^(q^i). Composition, adjoint, Dickson matrix and
rank live here; scatteredness checks build on top in scattered.py."""

from __future__ import annotations

import math
from collections import Counter
from typing import Optional

import numpy as np

from .errors import CtxMismatch
from . import linalg


class LinPoly:
    """Immutable q-polynomial bound to a field context. Its GF(p)-matrix
    and coefficient degree are computed on first use and kept."""

    __slots__ = ("ctx", "coeffs", "_matrix", "_degree")

    def __init__(self, ctx, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != ctx.n:
            raise ValueError(f"need exactly {ctx.n} coefficients, got {len(coeffs)}")
        for c in coeffs:
            if not 0 <= c < ctx.order:
                raise ValueError(f"coefficient {c} out of range")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_matrix", None)
        object.__setattr__(self, "_degree", None)

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
        with f. Kept after the first call."""
        if self._degree is None:
            en = self.ctx.en
            object.__setattr__(self, "_degree", next(
                d for d in range(1, en + 1) if en % d == 0 and self.frob_twist(d) == self))
        return self._degree

    def support_coset(self):
        """(m, s): the largest m dividing n with every index i of the
        support i = s mod m and gcd(s, m) = 1, 0 <= s < m; (1, 0) when no
        m > 1 qualifies, and for the zero map.

        Then f(lam*x) = lam^(q^s)*f(x) for lam in GF(q^m), so
        ker(f + c*lam^(q^s - 1)*id) = lam*ker(f + c*id). As lam runs over
        GF(q^m)*, lam^(q^s - 1) runs over the G-th roots of unity mu_G,
        G = (q^m - 1)/(q - 1): the rank of f + c*id is constant on each
        class c*mu_G. Every valid m divides the largest, the lcm of them
        all."""
        n, support = self.ctx.n, self.support()
        for m in range(n, 1, -1):
            if n % m == 0 and support:
                s = support[0] % m
                if math.gcd(s, m) == 1 and all(i % m == s for i in support):
                    return m, s
        return 1, 0

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
        holds the base-p digits of f(p^d). It is one contraction of the
        coefficients' digits against FieldCtx.action_tensor, digit d of
        c_i weighting slot i*e*n + d, the matrix of y -> x^d * y^(q^i).
        Built on the first call and kept, read-only."""
        if self._matrix is None:
            ctx = self.ctx
            digs = linalg.digit_planes(self.coeffs, ctx.p, ctx.en, np.int64)
            A = np.tensordot(digs.T.ravel(), ctx.action_tensor(), 1) % ctx.p
            A.flags.writeable = False
            object.__setattr__(self, "_matrix", A)
        return self._matrix

    def eval_all(self) -> np.ndarray:
        """f(x) for every x in index order, by eval_vec; reads no tables."""
        self.ctx._need_whole_field()
        return self.eval_vec(np.arange(self.ctx.order, dtype=np.int64))

    def _fibers(self):
        """(keys, lengths, weights): the fibers of x -> f(x)/x on nonzero
        x, in the log domain, one entry per Frobenius orbit of bins.

        f is GF(q)-linear, so f(lam*x)/(lam*x) = f(x)/x for lam in GF(q)*,
        and GF(q)* is generated by omega^R, R = (q^n - 1)/(q - 1): every
        fiber is a union of classes x*GF(q)*, each with one representative
        omega^j, j < R. At x = omega^j the bin is log f(x) - j mod
        M = q^n - 1, and M where f(x) = 0, which keeps the kernel apart.

        sigma_d: x -> x^(p^d), d = coeff_degree(), commutes with f, so
        f(sigma_d(x))/sigma_d(x) = (f(x)/x)^(p^d): the class of
        j*p^(d*i) mod R has the bin b*p^(d*i) mod M when the class of j
        has the bin b, and the kernel's bin M stays M. So f is evaluated,
        by A_f on the digit planes, only at the orbit representatives that
        FieldCtx.frobenius_orbits yields over the classes (filtered once per
        field and d). The o_r classes of a representative's orbit have the
        bins of the orbit of b under b -> b*p^d mod M, whose length o_b,
        the first return, divides o_r: each of its o_b bins takes o_r/o_b
        of the classes. The orbits of the classes partition them, so a bin
        orbit's classes per bin are the sum of these weights over the
        representatives with that orbit.

        Each representative is keyed by the least bin of its orbit, taken
        in e*n/d - 1 multiply-and-reduce steps, and (key, o_b, o_r/o_b) is
        packed in one int64, sorted in place and cut where the key
        changes. keys holds the distinct orbit minima ascending, the
        kernel's bin M last, lengths the orbits' lengths (1 for M), and
        weights their classes per bin: the bins are key*p^(d*i) mod M for
        i < length (_orbit_bins), (q^n - 1)/(q - 1) distinct values
        exactly when lengths sums to R, and each bin's fiber has
        (q - 1)*weight elements. The fiber of the value v is
        ker(A_f - M_v) minus 0."""
        ctx = self.ctx
        ctx._need_whole_field(tables=True)
        M = ctx.mult_order
        d = self.coeff_degree()
        steps = ctx.en // d
        js, sizes = map(np.concatenate, zip(*ctx.frobenius_orbits("classes", d)))
        fx = linalg.apply_matrix(ctx, self.matrix(), ctx.vgen_power(js))
        b = ctx.vlog(fx) - js
        np.add(b, M, out=b, where=b < 0)
        kernel = fx == 0
        del js, fx
        kernel_classes = int(sizes[kernel].sum())
        b, sizes = b[~kernel], sizes[~kernel].astype(np.int64)
        # the orbit's least bin, and its length o_b: the returns are the
        # multiples of o_b, which divides steps, so the last one below
        # steps is steps - o_b (0 when there is none)
        keys, img, back = b.copy(), b.copy(), np.zeros(len(b), dtype=np.int64)
        g = pow(ctx.p, d, M)
        for i in range(1, steps):
            img *= g
            img -= img // M * M
            np.minimum(keys, img, out=keys)
            back[img == b] = i
        lengths = steps - back
        # key, length and weight, each length and weight at most steps
        bits = steps.bit_length()
        mask = (1 << bits) - 1
        packed = keys << 2 * bits
        packed |= lengths << bits
        sizes //= lengths
        packed |= sizes
        packed.sort()
        keys = packed >> 2 * bits
        change = np.empty(len(keys), dtype=bool)
        change[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=change[1:])
        starts = np.flatnonzero(change)
        del change
        keys = keys[starts]
        lengths = packed[starts] >> bits & mask
        packed &= mask
        weights = np.add.reduceat(packed, starts) if len(starts) else packed[:0]
        if kernel_classes:
            keys = np.append(keys, M)
            lengths = np.append(lengths, 1)
            weights = np.append(weights, kernel_classes)
        return keys, lengths, weights

    def _orbit_bins(self, keys, lengths) -> np.ndarray:
        """The bins key*p^(d*i) mod q^n - 1, i < length, of the orbits that
        _fibers keys, d = coeff_degree(): image i of every orbit longer
        than i at a time, so not sorted. The kernel's key q^n - 1 has
        length 1 and stays as it is."""
        ctx = self.ctx
        M = ctx.mult_order
        g = pow(ctx.p, self.coeff_degree(), M)
        out = np.empty(int(lengths.sum()), dtype=np.int64)
        img, lo = keys, 0
        for i in range(int(lengths.max(initial=0))):
            if i:
                longer = lengths > i
                img, lengths = img[longer] * g, lengths[longer]
                img -= img // M * M
            out[lo:lo + len(img)] = img
            lo += len(img)
        return out

    def line_values(self) -> np.ndarray:
        """Sorted distinct values of f(x)/x over nonzero x: the bins of
        every orbit that _fibers keys, mapped to omega^bin."""
        M = self.ctx.mult_order
        keys, lengths, _ = self._fibers()
        bins = self._orbit_bins(keys, lengths)
        # bin q^n - 1, the kernel's, holds the value 0
        return np.sort(np.where(bins < M, self.ctx.vgen_power(bins), 0))

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
        mapping fiber size to the number of fibers of that size: each
        orbit that _fibers keys adds its length to the count of
        (q - 1)*weight."""
        _, lengths, weights = self._fibers()
        weights, which = np.unique(weights, return_inverse=True)
        counts = np.bincount(which, weights=lengths)
        q1 = self.ctx.q - 1
        return Counter({q1 * int(w): int(c) for w, c in zip(weights, counts)})

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
