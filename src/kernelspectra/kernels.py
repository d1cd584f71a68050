"""Random kernel matrices A_ij = f(g(X_i, X_j), p) and their linearizations.

The kernel g is either the inner product X^T Y or the squared distance
||X - Y||^2; the scalar envelope f is applied entrywise. Symmetry is
exact without copying a triangle: the Gram matrix X^T X is one symmetric
rank-k product (BLAS syrk) with G_ij and G_ji bit-equal, the distances
(g_i + g_j) - 2 G_ij are symmetric because addition commutes, and the
envelope maps equal values to equal values. The diagonal convention
(keep or zero) is part of the kernel specification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ensembles import SampleMatrix
from .errors import DerivativeError, EnvelopeError

INNER_PRODUCT = "inner"
SQUARED_DISTANCE = "distance"
KERNELS = (INNER_PRODUCT, SQUARED_DISTANCE)

KEEP = "keep"
ZERO = "zero"
DIAGONALS = (KEEP, ZERO)


@dataclass(frozen=True)
class EnvelopeAnalytic:
    """Known envelope values at the points the linearization theorems use.

    Entries are None when unavailable; p-dependent envelopes omit any
    value that varies with p.
    """

    f0: float | None = None   # f(0)
    d0: float | None = None   # f'(0)
    f1: float | None = None   # f(1)
    f2: float | None = None   # f(2)
    d2: float | None = None   # f'(2)


@dataclass(frozen=True)
class Envelope:
    """Scalar envelope f(x, p), deterministic and total on the reals.

    ``fn`` must accept numpy arrays in x and broadcast entrywise.
    Degenerate points are handled by explicit extension inside ``fn``
    (e.g. the nonsmooth oscillatory envelope takes the value 0 at x = 0).
    """

    name: str
    fn: Callable[[np.ndarray, int], np.ndarray]
    analytic: EnvelopeAnalytic = field(default_factory=EnvelopeAnalytic)

    def __call__(self, x, p: int):
        return self.fn(np.asarray(x, dtype=float), p)

    def value(self, x0: float, p: int) -> float:
        """f(x0, p), preferring the analytic record at 0, 1, 2."""
        for point, name in ((0.0, "f0"), (1.0, "f1"), (2.0, "f2")):
            if x0 == point:
                known = getattr(self.analytic, name)
                if known is not None:
                    return float(known)
        with np.errstate(over="ignore"):  # callers reject a non-finite value
            return float(self(x0, p))

    def has_analytic_derivative(self, x0: float) -> bool:
        if x0 == 0.0:
            return self.analytic.d0 is not None
        if x0 == 2.0:
            return self.analytic.d2 is not None
        return False

    def derivative(self, x0: float, p: int) -> float:
        """f'(x0, p): analytic record if present, else numeric fallback."""
        if x0 == 0.0 and self.analytic.d0 is not None:
            return float(self.analytic.d0)
        if x0 == 2.0 and self.analytic.d2 is not None:
            return float(self.analytic.d2)
        return numeric_derivative(self, x0, p)


def numeric_derivative(envelope: Envelope, x0: float, p: int) -> float:
    """Central difference with one Richardson extrapolation step.

    Step h = max(1e-6, 1e-6 |x0|). Raises DerivativeError when the two
    half-step estimates disagree badly (no convergence, e.g. a jump).
    """
    h = max(1e-6, 1e-6 * abs(x0))

    def central(hh: float) -> float:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return float((envelope(x0 + hh, p) - envelope(x0 - hh, p))
                         / (2.0 * hh))

    d_h = central(h)
    d_h2 = central(h / 2.0)
    richardson = (4.0 * d_h2 - d_h) / 3.0
    if not np.isfinite(richardson):
        raise DerivativeError(
            f"numeric derivative of {envelope.name!r} at x={x0} is not finite")
    if abs(d_h - d_h2) > 0.1 * max(1.0, abs(richardson)):
        raise DerivativeError(
            f"numeric derivative of {envelope.name!r} at x={x0} did not "
            f"converge: D(h)={d_h:.6g}, D(h/2)={d_h2:.6g}")
    return richardson


# ---------------------------------------------------------------------------
# Envelope registry
# ---------------------------------------------------------------------------

def identity_envelope() -> Envelope:
    return Envelope("identity", lambda x, p: x,
                    EnvelopeAnalytic(f0=0.0, d0=1.0, f1=1.0, f2=2.0, d2=1.0))


def constant_envelope(c: float = 1.0) -> Envelope:
    return Envelope(f"const:c={c:g}",
                    lambda x, p, c=c: np.full_like(np.asarray(x, dtype=float), c),
                    EnvelopeAnalytic(f0=c, d0=0.0, f1=c, f2=c, d2=0.0))


def exp_envelope(a: float = 1.0) -> Envelope:
    def finite_or_none(v: float) -> float | None:
        return float(v) if np.isfinite(v) else None

    with np.errstate(over="ignore"):
        analytic = EnvelopeAnalytic(f0=1.0, d0=a,
                                    f1=finite_or_none(np.exp(a)),
                                    f2=finite_or_none(np.exp(2 * a)),
                                    d2=finite_or_none(a * np.exp(2 * a)))
    return Envelope(f"exp:a={a:g}", lambda x, p, a=a: np.exp(a * x), analytic)


def power_envelope(a: float) -> Envelope:
    """f(x) = (1 + x)^a for a > 0, extended by |1 + x|^a below x = -1."""
    if a <= 0:
        raise ValueError(f"power envelope needs a > 0, got {a}")
    return Envelope(f"power:a={a:g}",
                    lambda x, p, a=a: np.abs(1.0 + x) ** a,
                    EnvelopeAnalytic(f0=1.0, d0=a, f1=float(2.0 ** a),
                                     f2=float(3.0 ** a),
                                     d2=float(a * 3.0 ** (a - 1))))


def sign_scaled_envelope() -> Envelope:
    """p-dependent envelope f(x, p) = sign(x) / sqrt(p).

    Not differentiable at 0, so only f(0) = 0 is recorded; the scaled
    form sqrt(p) f(x / sqrt(p), p) = sign(x) is p-independent.
    """
    return Envelope("sign-scaled",
                    lambda x, p: np.sign(x) / np.sqrt(p),
                    EnvelopeAnalytic(f0=0.0))


def nonsmooth_sin_envelope() -> Envelope:
    """f(x) = x + x^2 sin(1/x), extended by f(0) = 0.

    Differentiable at 0 with f'(0) = 1 but not C^1 there.
    """
    def fn(x, p):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.divide(1.0, x, out=np.zeros_like(x), where=x != 0.0)
            return x + x * x * np.sin(inv)

    d2 = 1.0 + 4.0 * np.sin(0.5) - np.cos(0.5)
    return Envelope("nonsmooth-sin", fn,
                    EnvelopeAnalytic(f0=0.0, d0=1.0,
                                     f1=float(1.0 + np.sin(1.0)),
                                     f2=float(2.0 + 4.0 * np.sin(0.5)),
                                     d2=float(d2)))


ENVELOPE_FACTORIES: dict[str, Callable[..., Envelope]] = {
    "identity": identity_envelope,
    "const": constant_envelope,
    "exp": exp_envelope,
    "power": power_envelope,
    "sign-scaled": sign_scaled_envelope,
    "nonsmooth-sin": nonsmooth_sin_envelope,
}


def parse_envelope(text: str) -> Envelope:
    """Parse CLI envelope strings like 'identity', 'exp:a=1', 'power:a=0.5'."""
    name, _, params = text.partition(":")
    name = name.strip()
    if name not in ENVELOPE_FACTORIES:
        raise ValueError(f"unknown envelope {name!r}; "
                         f"known: {sorted(ENVELOPE_FACTORIES)}")
    kwargs: dict[str, float] = {}
    if params:
        for item in params.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise ValueError(f"malformed envelope parameter {item!r}")
            kwargs[key.strip()] = float(val)
    return ENVELOPE_FACTORIES[name](**kwargs)


# ---------------------------------------------------------------------------
# Kernel specification and matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice, diagonal convention, and envelope."""

    kernel: str
    diagonal: str
    envelope: Envelope

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {self.kernel!r}")
        if self.diagonal not in DIAGONALS:
            raise ValueError(f"diagonal must be one of {DIAGONALS}, "
                             f"got {self.diagonal!r}")

    def label(self) -> str:
        return f"{self.kernel}/{self.diagonal}/{self.envelope.name}"


def gram(S: SampleMatrix) -> np.ndarray:
    """Gram matrix G_ij = X_i^T X_j, exactly symmetric."""
    return S.data.T @ S.data


def _distances_from_gram(G: np.ndarray) -> np.ndarray:
    g = np.diag(G)
    D = g[:, None] + g[None, :]
    D -= 2.0 * G
    np.maximum(D, 0.0, out=D)
    np.fill_diagonal(D, 0.0)
    return D


def squared_distances(S: SampleMatrix) -> np.ndarray:
    """D_ij = ||X_i - X_j||^2 with exact zero diagonal, clamped at 0."""
    return _distances_from_gram(gram(S))


def build(spec: KernelSpec, S: SampleMatrix, G: np.ndarray) -> np.ndarray:
    """A_ij = f(g(X_i, X_j), p) for i != j; diagonal per the spec.

    ``G`` is the sample's Gram matrix, ``gram(S)``; it is left unchanged.
    """
    K = G if spec.kernel == INNER_PRODUCT else _distances_from_gram(G)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        A = np.asarray(spec.envelope(K, S.p), dtype=float)
    if np.may_share_memory(A, G):
        A = A.copy()
    if spec.diagonal == ZERO:
        np.fill_diagonal(A, 0.0)
    finite = np.isfinite(A)
    if not finite.all():
        i, j = map(int, np.argwhere(~finite)[0])
        raise EnvelopeError(
            f"envelope {spec.envelope.name!r} returned a non-finite value at "
            f"entry (i={i}, j={j}) for kernel value x={K[i, j]!r}",
            i=i, j=j, x=float(K[i, j]))
    return A


def linearization_coefficients(spec: KernelSpec, p: int) -> tuple[float, float]:
    """(alpha, beta) with B = alpha I + beta G for the matching theorem.

    inner/keep:  alpha = f(1) - f(0) - f'(0),      beta = f'(0)
    inner/zero:  alpha = -f(0) - f'(0),            beta = f'(0)
    distance:    alpha = f(0) - f(2) + 2 f'(2),    beta = -2 f'(2)
                 (zero-diagonal distance drops the f(0) diagonal term)
    """
    f = spec.envelope
    if spec.kernel == INNER_PRODUCT:
        beta = f.derivative(0.0, p)
        alpha = -f.value(0.0, p) - beta
        if spec.diagonal == KEEP:
            alpha = f.value(1.0, p) - f.value(0.0, p) - beta
        return alpha, beta
    d2 = f.derivative(2.0, p)
    alpha = -f.value(2.0, p) + 2.0 * d2
    if spec.diagonal == KEEP:
        alpha += f.value(0.0, p)
    return alpha, -2.0 * d2


def linearized(spec: KernelSpec, S: SampleMatrix) -> np.ndarray:
    """The linearized companion matrix B of the matching theorem."""
    alpha, beta = linearization_coefficients(spec, S.p)
    B = beta * gram(S)
    B[np.diag_indices(S.n)] += alpha
    return B


def transference_linearized(g_matrix: np.ndarray, envelope: Envelope,
                            a: float, p: int = 1) -> np.ndarray:
    """B = (a f'(a) - f(a)) I + f'(a) * g_matrix.

    ``g_matrix`` is a realized kernel matrix (zero-diagonal model) whose
    entries concentrate at a; ``p`` is forwarded to the envelope and is
    irrelevant for p-independent envelopes.
    """
    M = np.asarray(g_matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"kernel matrix must be square, got shape {M.shape}")
    if not np.array_equal(M, M.T):
        raise ValueError("kernel matrix must be exactly symmetric")
    fa = envelope.value(float(a), p)
    da = envelope.derivative(float(a), p)
    B = da * M
    B[np.diag_indices(M.shape[0])] += a * da - fa
    return B


def single_entry_swap(S: SampleMatrix, i: int, j: int, new_value: float,
                      spec: KernelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Kernel matrices before and after replacing sample entry (i, j).

    Entry (i, j) of the p x n sample matrix is coordinate i of column X_j,
    so the two kernel matrices can differ only in row j and column j and
    their difference has rank at most 2.
    """
    if not (0 <= i < S.p and 0 <= j < S.n):
        raise ValueError(f"entry ({i}, {j}) out of range for a "
                         f"{S.p} x {S.n} sample matrix")
    before = build(spec, S, gram(S))
    data = S.data.copy()
    data[i, j] = new_value
    swapped = SampleMatrix(data=data, ensemble=S.ensemble, seed=S.seed)
    return before, build(spec, swapped, gram(swapped))
