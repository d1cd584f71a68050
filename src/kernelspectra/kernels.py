"""Random kernel matrices A_ij = f(g(X_i, X_j), p) and their linearizations.

The kernel g is either the inner product X^T Y or the squared distance
||X - Y||^2; the scalar envelope f is applied entrywise, so ``build``
writes A over the Gram matrix G in row blocks, allocates no n x n array,
and every temporary is block-sized. Symmetry is exact without copying a
triangle: G = X^T X is one symmetric rank-k product (BLAS syrk) with
G_ij and G_ji bit-equal, the distances (g_i + g_j) - 2 G_ij are
symmetric because addition commutes, and the envelope maps equal values
to equal values. The diagonal convention (keep or zero) is part of the
kernel specification.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
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

_BLOCK_ENTRIES = 2 ** 16  # entries in one row block (512 KB)


@dataclass(frozen=True)
class Envelope:
    """Scalar envelope f(x, p), deterministic and total on the reals.

    ``fn`` must accept numpy arrays in x and broadcast entrywise.
    Degenerate points are handled by explicit extension inside ``fn``
    (e.g. the nonsmooth oscillatory envelope takes the value 0 at x = 0).
    ``slopes`` holds the (x0, f'(x0)) pairs the affine MP law reads. An
    envelope records a slope only where f' is known in closed form, is
    finite and does not depend on p, so an envelope that varies with p
    records none and has no affine law.
    """

    name: str
    fn: Callable[[np.ndarray, int], np.ndarray]
    slopes: tuple[tuple[float, float], ...] = ()

    def __call__(self, x, p: int):
        return self.fn(np.asarray(x, dtype=float), p)

    def value(self, x0: float) -> float:
        with np.errstate(over="ignore"):  # callers reject a non-finite value
            return float(self(x0, 1))  # an envelope with slopes is p-free

    def derivative(self, x0: float) -> float:
        """The slope f'(x0) recorded in ``slopes``."""
        slopes = dict(self.slopes)
        if x0 not in slopes:
            raise DerivativeError(
                f"envelope {self.name!r} records no slope at x={x0}, so it "
                f"has no affine MP law")
        return slopes[x0]


# ---------------------------------------------------------------------------
# Envelope registry
# ---------------------------------------------------------------------------

def identity_envelope() -> Envelope:
    return Envelope("identity", lambda x, p: x, ((0.0, 1.0), (2.0, 1.0)))


def constant_envelope(c: float = 1.0) -> Envelope:
    return Envelope(f"const:c={c:g}",
                    lambda x, p, c=c: np.full_like(np.asarray(x, dtype=float), c),
                    ((0.0, 0.0), (2.0, 0.0)))


def _finite_slopes(*pairs: tuple[float, float]) -> tuple[tuple[float, float], ...]:
    return tuple((x0, float(d)) for x0, d in pairs if np.isfinite(d))


def exp_envelope(a: float = 1.0) -> Envelope:
    with np.errstate(over="ignore"):
        d2 = a * np.exp(2 * a)
    return Envelope(f"exp:a={a:g}", lambda x, p, a=a: np.exp(a * x),
                    _finite_slopes((0.0, a), (2.0, d2)))


def power_envelope(a: float) -> Envelope:
    """f(x) = (1 + x)^a for a > 0, extended by |1 + x|^a below x = -1."""
    if a <= 0:
        raise ValueError(f"power envelope needs a > 0, got {a}")
    with np.errstate(over="ignore"):
        d2 = a * np.float64(3.0) ** (a - 1)
    return Envelope(f"power:a={a:g}",
                    lambda x, p, a=a: np.abs(1.0 + x) ** a,
                    _finite_slopes((0.0, a), (2.0, d2)))


def sign_scaled_envelope() -> Envelope:
    """p-dependent envelope f(x, p) = sign(x) / sqrt(p).

    It varies with p (and jumps at 0), so it records no slope and has no
    affine MP law; its limit is a functional-equation law. The scaled form
    sqrt(p) f(x / sqrt(p), p) = sign(x) is p-independent.
    """
    return Envelope("sign-scaled", lambda x, p: np.sign(x) / np.sqrt(p))


def nonsmooth_sin_envelope() -> Envelope:
    """f(x) = x + x^2 sin(1/x), extended by f(0) = 0.

    Differentiable at 0 with f'(0) = 1 but not C^1 there.
    """
    def fn(x, p):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.divide(1.0, x, out=np.zeros_like(x), where=x != 0.0)
            return x + x * x * np.sin(inv)

    d2 = float(1.0 + 4.0 * np.sin(0.5) - np.cos(0.5))
    return Envelope("nonsmooth-sin", fn, ((0.0, 1.0), (2.0, d2)))


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
    factory = ENVELOPE_FACTORIES[name]
    parameters = inspect.signature(factory).parameters
    accepted = list(parameters)
    kwargs: dict[str, float] = {}
    if params:
        for item in params.split(","):
            key, _, val = item.partition("=")
            key = key.strip()
            if not val:
                raise ValueError(f"malformed envelope parameter {item!r}")
            if key not in accepted:
                raise ValueError(f"envelope {name!r} has no parameter "
                                 f"{key!r}; accepted: {accepted}")
            if key in kwargs or not np.isfinite(float(val)):
                raise ValueError(f"envelope parameter {key!r} must be given "
                                 f"once and be finite, got {text!r}")
            kwargs[key] = float(val)
    for key, param in parameters.items():
        if param.default is param.empty and key not in kwargs:
            raise ValueError(f"envelope {name!r} needs parameter {key!r}, "
                             f"got {text!r}")
    return factory(**kwargs)


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


def _distance_rows(G: np.ndarray, g: np.ndarray, r0: int, r1: int
                   ) -> np.ndarray:
    """Rows r0:r1 of D_ij = (g_i + g_j) - 2 G_ij, clamped at 0, D_ii = 0."""
    D = g[r0:r1, None] + g[None, :]
    D -= 2.0 * G[r0:r1]
    np.maximum(D, 0.0, out=D)
    np.fill_diagonal(D[:, r0:], 0.0)
    return D


def build(spec: KernelSpec, G: np.ndarray, p: int) -> np.ndarray:
    """A_ij = f(g(X_i, X_j), p) for i != j; diagonal per the spec.

    ``G`` is the sample's Gram matrix, ``gram(S)``, and ``p`` is ``S.p``.
    A is written over G in row blocks and G's buffer is returned, so no
    n x n array is allocated: kernel values, envelope temporaries and the
    finiteness mask are block-sized.
    """
    n = G.shape[0]
    g = np.diag(G).copy()  # earlier row blocks overwrite the diagonal
    rows = max(1, _BLOCK_ENTRIES // n)
    for r0 in range(0, n, rows):
        # a distance overflows on the diagonal before it is set to 0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            K = G[r0:r0 + rows] if spec.kernel == INNER_PRODUCT \
                else _distance_rows(G, g, r0, r0 + rows)
            block = np.asarray(spec.envelope(K, p), dtype=float)
        if spec.diagonal == ZERO:
            np.fill_diagonal(block[:, r0:], 0.0)
        finite = np.isfinite(block)
        if not finite.all():
            i, j = map(int, np.argwhere(~finite)[0])
            raise EnvelopeError(
                f"envelope {spec.envelope.name!r} returned a non-finite value"
                f" at entry (i={r0 + i}, j={j}) for kernel value "
                f"x={float(K[i, j])!r}", i=r0 + i, j=j, x=float(K[i, j]))
        G[r0:r0 + rows] = block
    return G


def linearization_coefficients(spec: KernelSpec) -> tuple[float, float]:
    """(alpha, beta) with B = alpha I + beta G for the matching theorem.

    inner/keep:  alpha = f(1) - f(0) - f'(0),      beta = f'(0)
    inner/zero:  alpha = -f(0) - f'(0),            beta = f'(0)
    distance:    alpha = f(0) - f(2) + 2 f'(2),    beta = -2 f'(2)
                 (zero-diagonal distance drops the f(0) diagonal term)

    Raises DerivativeError, before any value is read, when the envelope
    records no slope it needs; with the slopes found the values are p-free.
    """
    f = spec.envelope
    if spec.kernel == INNER_PRODUCT:
        beta = f.derivative(0.0)
        alpha = -f.value(0.0) - beta
        if spec.diagonal == KEEP:
            alpha = f.value(1.0) - f.value(0.0) - beta
        return alpha, beta
    d2 = f.derivative(2.0)
    alpha = -f.value(2.0) + 2.0 * d2
    if spec.diagonal == KEEP:
        alpha += f.value(0.0)
    return alpha, -2.0 * d2


def linearized(spec: KernelSpec, S: SampleMatrix) -> np.ndarray:
    """The linearized companion matrix B of the matching theorem."""
    alpha, beta = linearization_coefficients(spec)
    B = gram(S)
    B *= beta
    B[np.diag_indices(S.n)] += alpha
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
    before = build(spec, gram(S), S.p)
    data = S.data.copy()
    data[i, j] = new_value
    return before, build(spec, gram(SampleMatrix(data)), S.p)
