"""Rough drivers built from vector-field families and rough-path data.

A driver is the pair (V, VV) of a time-indexed first-order and
second-order operator.  We store the irreducible data: the first-order
field V_{s,t} and the vector-field part W_{s,t} = VV_{s,t} - (1/2)
V_{s,t} V_{s,t}; the full second-order action is reconstructed on demand.

Conventions, fixed once and validated against smooth-path Taylor
expansions (see the tests):

    level-2 increment:   two[i, j] = int (x^i_u - x^i_s) dx^j_u,
    bracket:             [f, g] = Dg f - Df g,
    vector part:         W_{s,t} = (1/2) sum_{i<j} [sigma_i, sigma_j]
                                    (two[i, j] - two[j, i]).

Expanding the brackets with A = two - two^T gives the form the driver
evaluates on the family's stacked jets:

    W_{s,t}(x) = sum_j D sigma_j(x) w_j(x),   w = (1/2) A^T sigma(x),

that is w_j = (1/2) sum_i A[i, j] sigma_i: the Taylor cell kernel's w term
with (1/2) A in place of two.  The double-sum form (1/2) sum_{n,k}
[sigma_n, sigma_k] two[n, k] over explicit bracket fields is kept as a
separate evaluation route for cross-checks.

Spatial norms are sampled estimators on a configured box; the true
supremum over R^m is not computable and every norm-based check uses the
same estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .cocycle import NoiseRealization, regenerated_shift, shift_omega
from .errors import ArgumentError, NumericalError
from .paths import SampledRoughPath, geometricity_residual_max, resample_lift
from .tensor_algebra import batch_gather, batch_increments

_FD_JAC_STEP = 1e-5
_FD_HESS_STEP = 1e-3


# ------------------------------------------------------------- vector fields


class VectorField:
    """Vector field on R^m with Jacobian and Hessian evaluation.

    Values accept points of shape (m,) or batches (..., m) and return
    matching shapes; Jacobians append (m, m), Hessians (m, m, m) with
    H[a, i, j] = d2 f_a / dx_i dx_j.  Subclasses override the analytic
    derivatives where available; the base class falls back to central
    finite differences.
    """

    def __init__(self, dim: int):
        self.dim = int(dim)

    def value(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x):
        return self.value(np.asarray(x, dtype=float))

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        cols = []
        for i in range(self.dim):
            e = np.zeros(self.dim)
            e[i] = _FD_JAC_STEP
            cols.append((self.value(x + e) - self.value(x - e)) / (2 * _FD_JAC_STEP))
        return np.stack(cols, axis=-1)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        cols = []
        for i in range(self.dim):
            e = np.zeros(self.dim)
            e[i] = _FD_HESS_STEP
            cols.append(
                (self.jacobian(x + e) - self.jacobian(x - e)) / (2 * _FD_HESS_STEP)
            )
        return np.stack(cols, axis=-1)


class ConstantField(VectorField):
    def __init__(self, vector):
        v = np.asarray(vector, dtype=float).reshape(-1)
        super().__init__(v.size)
        self.vector = v

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self.vector, x.shape).copy()

    def jacobian(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (self.dim,))

    def hessian(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (self.dim, self.dim))


class LinearField(VectorField):
    """f(x) = A x."""

    def __init__(self, matrix):
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ArgumentError("linear field needs a square matrix", shape=a.shape)
        super().__init__(a.shape[0])
        self.matrix = a

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return x @ self.matrix.T

    def jacobian(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self.matrix, x.shape + (self.dim,)).copy()

    def hessian(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (self.dim, self.dim))


class DecayField(VectorField):
    """f(x) = scale * v * (1 + |x|^2)^(-eta): smooth with polynomial decay."""

    def __init__(self, vector, eta: float = 1.0, scale: float = 1.0):
        v = np.asarray(vector, dtype=float).reshape(-1)
        super().__init__(v.size)
        self.vector = v
        self.eta = float(eta)
        self.scale = float(scale)

    def _weight(self, x):
        r2 = np.sum(x * x, axis=-1)
        return (1.0 + r2) ** (-self.eta)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.scale * self._weight(x)[..., None] * self.vector

    def jacobian(self, x):
        x = np.asarray(x, dtype=float)
        r2 = np.sum(x * x, axis=-1)
        dw = -2.0 * self.eta * (1.0 + r2) ** (-self.eta - 1.0)
        return self.scale * self.vector[:, None] * (dw[..., None, None] * x[..., None, :])

    def hessian(self, x):
        x = np.asarray(x, dtype=float)
        r2 = np.sum(x * x, axis=-1)
        c1 = -2.0 * self.eta * (1.0 + r2) ** (-self.eta - 1.0)
        c2 = 4.0 * self.eta * (self.eta + 1.0) * (1.0 + r2) ** (-self.eta - 2.0)
        eye = np.eye(self.dim)
        quad = c2[..., None, None] * x[..., :, None] * x[..., None, :]
        lin = c1[..., None, None] * eye
        return self.scale * self.vector[:, None, None] * (quad + lin)[..., None, :, :]


class Poly1DField(VectorField):
    """Scalar field on R^1 given by polynomial coefficients (ascending)."""

    def __init__(self, coefficients):
        super().__init__(1)
        self.coefficients = np.asarray(coefficients, dtype=float)
        self._d1 = np.polynomial.polynomial.polyder(self.coefficients)
        self._d2 = np.polynomial.polynomial.polyder(self.coefficients, 2)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.polynomial.polynomial.polyval(x[..., 0], self.coefficients)[..., None]

    def jacobian(self, x):
        x = np.asarray(x, dtype=float)
        return np.polynomial.polynomial.polyval(x[..., 0], self._d1)[..., None, None]

    def hessian(self, x):
        x = np.asarray(x, dtype=float)
        return np.polynomial.polynomial.polyval(x[..., 0], self._d2)[..., None, None, None]


class CallableField(VectorField):
    """Adapter for plain callables, with optional analytic derivatives."""

    def __init__(self, func: Callable, dim: int, jac: Optional[Callable] = None, hess: Optional[Callable] = None):
        super().__init__(dim)
        self._func = func
        self._jac = jac
        self._hess = hess

    def value(self, x):
        return np.asarray(self._func(np.asarray(x, dtype=float)), dtype=float)

    def jacobian(self, x):
        if self._jac is None:
            return super().jacobian(x)
        return np.asarray(self._jac(np.asarray(x, dtype=float)), dtype=float)

    def hessian(self, x):
        if self._hess is None:
            return super().hessian(x)
        return np.asarray(self._hess(np.asarray(x, dtype=float)), dtype=float)


class BracketField(VectorField):
    """Lie bracket [f, g] = Dg f - Df g with an analytic Jacobian."""

    def __init__(self, f: VectorField, g: VectorField):
        if f.dim != g.dim:
            raise ArgumentError("bracket of fields on different spaces", dims=(f.dim, g.dim))
        super().__init__(f.dim)
        self.f = f
        self.g = g

    def value(self, x):
        x = np.asarray(x, dtype=float)
        fv, gv = self.f.value(x), self.g.value(x)
        fj, gj = self.f.jacobian(x), self.g.jacobian(x)
        return np.einsum("...ai,...i->...a", gj, fv) - np.einsum(
            "...ai,...i->...a", fj, gv
        )

    def jacobian(self, x):
        # d/dx_i (Dg f)_a = sum_j Hg[a, j, i] f_j + (Dg Df)[a, i]
        x = np.asarray(x, dtype=float)
        fv, gv = self.f.value(x), self.g.value(x)
        fj, gj = self.f.jacobian(x), self.g.jacobian(x)
        fh, gh = self.f.hessian(x), self.g.hessian(x)
        term = np.einsum("...aji,...j->...ai", gh, fv) + np.einsum(
            "...aj,...ji->...ai", gj, fj
        )
        term -= np.einsum("...aji,...j->...ai", fh, gv) + np.einsum(
            "...aj,...ji->...ai", fj, gj
        )
        return term


def lie_bracket(f: VectorField, g: VectorField) -> VectorField:
    """[f, g] = Dg f - Df g."""
    return BracketField(f, g)


# ------------------------------------------------------------- field families


@dataclass(frozen=True)
class BoxSpec:
    """Spatial sampling box [-radius, radius]^m for norm estimators."""

    radius: float = 4.0
    nodes_per_axis: int = 17
    seed: int = 0

    def points(self, dim: int) -> np.ndarray:
        r, n = self.radius, self.nodes_per_axis
        if dim == 1:
            return np.linspace(-r, r, n)[:, None]
        if dim == 2:
            axis = np.linspace(-r, r, n)
            xx, yy = np.meshgrid(axis, axis)
            return np.column_stack([xx.ravel(), yy.ravel()])
        rng = np.random.default_rng(self.seed)
        return rng.uniform(-r, r, size=(n * n, dim))


class VectorFieldFamily:
    """Finite family (sigma_n) with decay/smoothness bookkeeping.

    kappa and eta mirror the decay constants of the driving-field
    estimates; gamma is the assumed smoothness index.  Construction
    probes every field on the test box and rejects non-finite output.
    """

    def __init__(
        self,
        fields: Sequence[VectorField],
        kappa: float = 1.0,
        eta: float = 1.0,
        gamma: float = 1.0,
        box: BoxSpec = BoxSpec(),
    ):
        fields = list(fields)
        if not fields:
            raise ArgumentError("family needs at least one field")
        dim = fields[0].dim
        for f in fields:
            if f.dim != dim:
                raise ArgumentError("fields act on different state spaces")
        if not 0.0 < float(gamma) <= 1.0:
            raise ArgumentError("smoothness gamma must lie in (0, 1]", gamma=gamma)
        if float(kappa) <= 0.0 or float(eta) <= 0.0:
            raise ArgumentError("decay constants must be positive", kappa=kappa, eta=eta)
        probe = box.points(dim)[:: max(1, box.nodes_per_axis // 4)]
        for n, f in enumerate(fields):
            sample = np.concatenate(
                [
                    np.ravel(f.value(probe)),
                    np.ravel(f.jacobian(probe)),
                    np.ravel(f.hessian(probe)),
                ]
            )
            if not np.all(np.isfinite(sample)):
                raise ArgumentError("field is not finite on the test box", index=n)
        self.fields = fields
        self.kappa = float(kappa)
        self.eta = float(eta)
        self.gamma = float(gamma)
        self.box = box
        self._matrices = None
        if all(isinstance(f, LinearField) for f in fields):
            self._matrices = np.stack([f.matrix for f in fields])
            self._matrices.setflags(write=False)

    def __len__(self):
        return len(self.fields)

    @property
    def dim(self) -> int:
        return self.fields[0].dim

    def jets(self, x, hessians: bool = False):
        """Values (..., n, m), Jacobians (..., n, m, m), Hessians (..., n, m, m, m) at x (..., m).

        One point gives (n, m), (n, m, m) and (n, m, m, m).  Hessians are None
        unless requested, and for an all-linear family, which answers from its
        (n, m, m) matrix stack without calling a field: its Hessians vanish.
        """
        x = np.asarray(x, dtype=float)
        a = self._matrices
        if a is not None:
            vals = np.matmul(a, x[..., None, :, None])[..., 0]
            jacs = a if x.ndim == 1 else np.broadcast_to(a, x.shape[:-1] + a.shape)
            return vals, jacs, None
        vals = np.stack([f.value(x) for f in self.fields], axis=-2)
        jacs = np.stack([f.jacobian(x) for f in self.fields], axis=-3)
        hess = np.stack([f.hessian(x) for f in self.fields], axis=-4) if hessians else None
        return vals, jacs, hess

    def component_norms(self, box: Optional[BoxSpec] = None) -> np.ndarray:
        """Sampled sup-box size |sigma_n| + |D sigma_n| + |D2 sigma_n| per field."""
        pts = (box or self.box).points(self.dim)
        out = []
        for f in self.fields:
            out.append(
                float(np.max(np.abs(f.value(pts))))
                + float(np.max(np.abs(f.jacobian(pts))))
                + float(np.max(np.abs(f.hessian(pts))))
            )
        return np.asarray(out)

    def tail_ratio(self, box: Optional[BoxSpec] = None) -> float:
        """Size of the last field relative to the largest: a summability proxy."""
        if len(self.fields) == 1:
            return 0.0  # a one-term series has no tail
        norms = self.component_norms(box)
        top = float(np.max(norms))
        if top == 0.0:
            return 0.0
        return float(norms[-1]) / top

    def truncate(self, count: int) -> "VectorFieldFamily":
        if not 1 <= count <= len(self.fields):
            raise ArgumentError("truncation outside stored family", count=count, stored=len(self.fields))
        return VectorFieldFamily(
            self.fields[:count], self.kappa, self.eta, self.gamma, self.box
        )


def shear_pair_fields() -> VectorFieldFamily:
    """The two nilpotent shear generators on R^2; their bracket is diagonal."""
    a = LinearField([[0.0, 1.0], [0.0, 0.0]])
    b = LinearField([[0.0, 0.0], [1.0, 0.0]])
    return VectorFieldFamily([a, b])


def linear_fields(matrices, **kwargs) -> VectorFieldFamily:
    return VectorFieldFamily([LinearField(a) for a in matrices], **kwargs)


def rotation_fields(count: int = 2, decay: float = 0.5, **kwargs) -> VectorFieldFamily:
    """Alternating rotation/stretch generators on R^2 with geometric decay."""
    spin = np.array([[0.0, -1.0], [1.0, 0.0]])
    stretch = np.array([[1.0, 0.0], [0.0, -1.0]])
    mats = [
        float(decay) ** n * (spin if n % 2 == 0 else stretch) for n in range(int(count))
    ]
    return linear_fields(mats, **kwargs)


def decaying_linear_fields(
    count: int, state_dim: int, decay: float = 0.5, seed: int = 0, **kwargs
) -> VectorFieldFamily:
    """Seeded random linear fields with norms shrinking geometrically."""
    rng = np.random.default_rng(seed)
    mats = []
    for n in range(int(count)):
        a = rng.normal(size=(state_dim, state_dim))
        a /= max(1.0, float(np.linalg.norm(a, 2)))
        mats.append(float(decay) ** n * a)
    return linear_fields(mats, **kwargs)


def decay_fields(
    count: int,
    state_dim: int,
    eta: float = 1.0,
    kappa: float = 1.0,
    decay: float = 0.5,
    seed: int = 0,
) -> VectorFieldFamily:
    """Spatially decaying fields kappa * decay^n * u_n * (1 + |x|^2)^(-eta)."""
    rng = np.random.default_rng(seed)
    fields = []
    for n in range(int(count)):
        u = rng.normal(size=state_dim)
        u /= np.linalg.norm(u)
        fields.append(DecayField(u, eta=eta, scale=kappa * float(decay) ** n))
    return VectorFieldFamily(fields, kappa=kappa, eta=eta)


def scalar_polynomial_fields(coefficient_rows) -> VectorFieldFamily:
    """One-dimensional polynomial fields, one per coefficient row."""
    return VectorFieldFamily([Poly1DField(row) for row in coefficient_rows])


field_family_registry = {
    "shear_pair": shear_pair_fields,
    "linear": linear_fields,
    "rotation": rotation_fields,
    "decaying_linear": decaying_linear_fields,
    "decay": decay_fields,
    "scalar_polynomial": scalar_polynomial_fields,
}


def make_field_family(name: str, **params) -> VectorFieldFamily:
    key = str(name).lower()
    if key not in field_family_registry:
        raise ArgumentError(
            "unknown field family", name=name, known=sorted(field_family_registry)
        )
    return field_family_registry[key](**params)


# ------------------------------------------------------------------ drivers


def _project_lift(lift: SampledRoughPath, count: int) -> SampledRoughPath:
    """Coordinate projection of a lift onto its first `count` components."""
    if count == lift.dim:
        return lift
    n, d = lift.times.size, lift.dim
    levels = [
        lvl.reshape((n,) + (d,) * k)[(slice(None),) + (slice(0, count),) * k].reshape(n, count**k)
        for k, lvl in enumerate(lift.levels, start=1)
    ]
    return SampledRoughPath.from_levels(lift.times, levels, lift.p)


class RoughDriver:
    """Driver (V, W) induced by a vector-field family and a level-2 lift.

    V_{s,t}(x) = sum_i sigma_i(x) one_i and W_{s,t}(x) = sum_j D sigma_j(x)
    w_j with w = (1/2) (two - two^T)^T sigma(x), both contractions of one
    `sigma.jets` call; DV, D2V and DW add the Jacobians and Hessians.  Lifts
    of level above 2 contribute their first two levels.  All spatial
    arguments broadcast over leading batch dimensions.
    """

    def __init__(
        self,
        sigma: VectorFieldFamily,
        lift: SampledRoughPath,
        p: Optional[float] = None,
        rho: float = 1.0,
        check_geometric: bool = True,
    ):
        if lift.level < 2:
            raise ArgumentError("driver needs a level-2 lift", level=lift.level)
        if lift.dim != len(sigma):
            raise ArgumentError(
                "field count must match noise dimension",
                fields=len(sigma),
                noise_dim=lift.dim,
            )
        if check_geometric:
            residual = geometricity_residual_max(lift)
            scale = 1.0 + max(
                float(np.max(np.abs(lvl))) for lvl in lift.levels
            )
            if residual > 1e-8 * scale:
                raise ArgumentError(
                    "lift is not geometric", symmetric_part_residual=float(residual)
                )
        self.sigma = sigma
        self.lift = lift
        self.p = float(p) if p is not None else max(2.0, lift.p)
        if not 2.0 <= self.p < 3.0:
            raise ArgumentError("driver regularity p must lie in [2, 3)", p=self.p)
        self.rho = float(rho)
        if not self.p - 2.0 < self.rho <= 1.0:
            raise ArgumentError(
                "rho must lie in (p - 2, 1]", rho=self.rho, p=self.p
            )
        self._cache: dict = {}

    @property
    def grid(self) -> np.ndarray:
        return self.lift.times

    @property
    def state_dim(self) -> int:
        return self.sigma.dim

    @property
    def noise_dim(self) -> int:
        return self.lift.dim

    def increment(self, s: float, t: float):
        """(level-1, level-2) arrays of the lift increment over [s, t]; both times must be nodes."""
        i, j = self.lift.node_index(s), self.lift.node_index(t)
        if (i, j) not in self._cache:
            d = self.noise_dim
            one, two = batch_increments(batch_gather(self.lift.levels[:2], [i, j]), [0], [1], d)
            self._cache[i, j] = (one[0], two[0].reshape(d, d))
        return self._cache[i, j]

    def _half_antisymmetric(self, s: float, t: float) -> np.ndarray:
        """(1/2) A with A = two - two^T; W pairs it with the fields through w = (1/2) A^T vals."""
        _, two = self.increment(s, t)
        return 0.5 * (two - two.T)

    def V(self, s: float, t: float, x) -> np.ndarray:
        one, _ = self.increment(s, t)
        return one @ self.sigma.jets(x)[0]

    def DV(self, s: float, t: float, x) -> np.ndarray:
        one, _ = self.increment(s, t)
        return np.einsum("i,...iab->...ab", one, self.sigma.jets(x)[1])

    def D2V(self, s: float, t: float, x) -> np.ndarray:
        one, _ = self.increment(s, t)
        x = np.asarray(x, dtype=float)
        hess = self.sigma.jets(x, hessians=True)[2]
        if hess is None:
            return np.zeros(x.shape + (self.state_dim, self.state_dim))
        return np.einsum("i,...iabc->...abc", one, hess)

    def W(self, s: float, t: float, x) -> np.ndarray:
        vals, jacs, _ = self.sigma.jets(x)
        w = self._half_antisymmetric(s, t).T @ vals
        return np.einsum("...jab,...jb->...a", jacs, w)

    def DW(self, s: float, t: float, x) -> np.ndarray:
        """sum_j D sigma_j (1/2 A^T D sigma)_j + sum_j D2 sigma_j w_j."""
        vals, jacs, hess = self.sigma.jets(x, hessians=True)
        half = self._half_antisymmetric(s, t)
        dw = np.einsum("ij,...ibk->...jbk", half, jacs)
        out = np.einsum("...jab,...jbk->...ak", jacs, dw)
        if hess is not None:
            out += np.einsum("...jabk,...jb->...ak", hess, half.T @ vals)
        return out

    def second_order_action(self, s, t, grad, hess, x) -> np.ndarray:
        """VV_{s,t} f from raw field data: sum_{ij} two[i,j] sigma_i(sigma_j f).

        grad and hess are callables x -> grad f(x) (..., m) and
        x -> Hess f(x) (..., m, m).  This route never touches W, so it can
        cross-check the stored decomposition.
        """
        _, two = self.increment(s, t)
        x = np.asarray(x, dtype=float)
        vals, jacs, _ = self.sigma.jets(x)
        paired = two.T @ vals  # row j: sum_i two[i, j] sigma_i
        quad = np.einsum("...ja,...ab,...jb->...", paired, hess(x), vals)
        return quad + np.einsum("...a,...jab,...jb->...", grad(x), jacs, paired)


def driver_from_rough_path(
    sigma: VectorFieldFamily,
    lift: SampledRoughPath,
    p: Optional[float] = None,
    rho: float = 1.0,
) -> RoughDriver:
    """Driver (V, W) of a geometric level-2 rough path against sigma."""
    return RoughDriver(sigma, lift, p=p, rho=rho)


def gaussian_driver(
    sigma: VectorFieldFamily,
    betas: SampledRoughPath,
    truncation: int,
    p: Optional[float] = None,
    rho: float = 1.0,
    tail_bound: float = 0.9,
    box: Optional[BoxSpec] = None,
) -> RoughDriver:
    """Truncated series driver from scalar paths with joint level-2 data.

    The first `truncation` fields pair with the first `truncation`
    components of the joint lift.  The family's tail ratio over the kept
    truncation must stay below `tail_bound`, otherwise the series is
    treated as effectively divergent at the stored scale.
    """
    truncation = int(truncation)
    if truncation < 1:
        raise ArgumentError("truncation must be positive", truncation=truncation)
    if truncation > len(sigma) or truncation > betas.dim:
        raise ArgumentError(
            "truncation exceeds stored fields or paths",
            truncation=truncation,
            fields=len(sigma),
            paths=betas.dim,
        )
    family = sigma.truncate(truncation)
    ratio = family.tail_ratio(box)
    if ratio >= tail_bound:
        raise NumericalError(
            "series tail does not decay at the stored truncation",
            tail_ratio=float(ratio),
            bound=float(tail_bound),
        )
    return RoughDriver(family, _project_lift(betas, truncation), p=p, rho=rho)


def series_vector_part(
    driver: RoughDriver, s: float, t: float, x, truncation: Optional[int] = None
) -> np.ndarray:
    """W via the literal double sum (1/2) sum_{n,k} [sigma_n, sigma_k] two[n, k].

    Independent evaluation route kept for cross-checking the driver's
    evaluation on the family jets.
    """
    _, two = driver.increment(s, t)
    x = np.asarray(x, dtype=float)
    k_max = truncation if truncation is not None else driver.noise_dim
    out = np.zeros(x.shape)
    for n in range(k_max):
        for k in range(k_max):
            if n == k or two[n, k] == 0.0:
                continue
            out += 0.5 * two[n, k] * BracketField(
                driver.sigma.fields[n], driver.sigma.fields[k]
            ).value(x)
    return out


class _CorruptedDriver:
    """Wrapper that adds a constant offset to W on one exact (s, t) cell.

    Every other attribute is the base driver's.  It is not a RoughDriver, so
    solvers that require one reject it.
    """

    def __init__(self, base: RoughDriver, s0: float, t0: float, offset):
        self._base = base
        self._s0, self._t0 = float(s0), float(t0)
        self._offset = np.asarray(offset, dtype=float)

    def __getattr__(self, name):
        return getattr(self._base, name)

    def W(self, s, t, x):
        out = self._base.W(s, t, x)
        if abs(s - self._s0) < 1e-12 and abs(t - self._t0) < 1e-12:
            out = out + self._offset
        return out


def corrupt_driver_cell(driver: RoughDriver, s0: float, t0: float, offset):
    """Fault-injection helper: constant field added to W on one cell."""
    return _CorruptedDriver(driver, s0, t0, offset)


# ----------------------------------------------------------- driver checks


def _quadratic_tests(m: int):
    """Gradient/Hessian pairs of the monomials x_k and x_k x_l."""
    tests = []
    for k in range(m):
        e = np.zeros(m)
        e[k] = 1.0
        tests.append((lambda x, e=e: np.broadcast_to(e, x.shape).copy(), np.zeros((m, m))))
    for k in range(m):
        for l in range(k, m):
            q = np.zeros((m, m))
            q[k, l] += 1.0
            q[l, k] += 1.0

            def grad(x, k=k, l=l):
                g = np.zeros(x.shape)
                g[..., k] += x[..., l]
                g[..., l] += x[..., k]
                return g

            tests.append((grad, q))
    return tests


def _second_order(v, w, dv, g, hess_mat):
    """VV applied to a quadratic f with gradient g and Hessian hess_mat, via the stored (V, W)."""
    half_vv = 0.5 * (
        np.einsum("...i,ij,...j->...", v, hess_mat, v)
        + np.einsum("...a,...a->...", g, np.einsum("...ai,...i->...a", dv, v))
    )
    return np.einsum("...i,...i->...", g, w) + half_vv


def driver_chen_residual(driver, s: float, u: float, t: float, points) -> float:
    """Chen defect of VV over the split s <= u <= t on quadratic tests.

    Applies VV_{s,t} - VV_{u,t} - V_{s,u} V_{u,t} - VV_{s,u} to every
    quadratic monomial at every test point and returns the largest
    absolute value.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    worst = 0.0
    whole, first, second = [
        (driver.V(a, b, x), driver.W(a, b, x), driver.DV(a, b, x))
        for a, b in ((s, t), (s, u), (u, t))
    ]
    v_su, v_ut, dv_ut = first[0], second[0], second[2]
    for grad_fn, hess in _quadratic_tests(driver.state_dim):
        g = grad_fn(x)
        big = _second_order(*whole, g, hess)
        left = _second_order(*first, g, hess)
        right = _second_order(*second, g, hess)
        cross = np.einsum("...i,ij,...j->...", v_su, hess, v_ut) + np.einsum(
            "...a,...a->...", g, np.einsum("...ai,...i->...a", dv_ut, v_su)
        )
        worst = max(worst, float(np.max(np.abs(big - left - right - cross))))
    return worst


def driver_additivity_residual(driver, s: float, u: float, t: float, points) -> float:
    """Largest defect of V_{s,t} = V_{s,u} + V_{u,t} over the test points."""
    x = np.atleast_2d(np.asarray(points, dtype=float))
    gap = driver.V(s, t, x) - driver.V(s, u, x) - driver.V(u, t, x)
    return float(np.max(np.abs(gap)))


def _fd_grad(fn, x, step=1e-3):
    m = x.shape[-1]
    cols = []
    for i in range(m):
        e = np.zeros(m)
        e[i] = step
        cols.append((fn(x + e) - fn(x - e)) / (2 * step))
    return np.stack(cols, axis=-1)


def _fd_hess(fn, x, step=1e-3):
    m = x.shape[-1]
    cols = []
    for i in range(m):
        e = np.zeros(m)
        e[i] = step
        cols.append((_fd_grad(fn, x + e, step) - _fd_grad(fn, x - e, step)) / (2 * step))
    return np.stack(cols, axis=-1)


def driver_leibniz_residual(driver, s: float, t: float, points) -> float:
    """First-order Leibniz defect of VV - (1/2) V V on products of scalars.

    The operator is evaluated through the raw sigma-composition route with
    finite-difference derivatives of the test functions, so the check does
    not presuppose the stored W is a vector field.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    m = driver.state_dim
    a = np.linspace(0.3, 0.7, m)
    b = np.linspace(-0.5, 0.4, m) + 0.15

    def f(z):
        return np.sin(z @ a)

    def g(z):
        return np.cos(z @ b) + 0.2 * z[..., 0]

    def fg(z):
        return f(z) * g(z)

    v = driver.V(s, t, x)
    dv = driver.DV(s, t, x)

    def op(fn):
        vv = driver.second_order_action(
            s, t, lambda z: _fd_grad(fn, z), lambda z: _fd_hess(fn, z), x
        )
        grad = _fd_grad(fn, x)
        hess = _fd_hess(fn, x)
        half = 0.5 * (
            np.einsum("...i,...ij,...j->...", v, hess, v)
            + np.einsum("...a,...a->...", grad, np.einsum("...ai,...i->...a", dv, v))
        )
        return vv - half

    gap = op(fg) - f(x) * op(g) - g(x) * op(f)
    return float(np.max(np.abs(gap)))


def _with_nodes_lift(lift: SampledRoughPath, needed) -> SampledRoughPath:
    """Lift with the needed times present as nodes; no-op when they already are."""
    needed = np.atleast_1d(np.asarray(needed, dtype=float))
    missing = needed[lift.match_nodes(needed) < 0]
    if not missing.size:
        return lift
    return resample_lift(lift, np.union1d(lift.times, missing))


def driver_cocycle_residual(
    sigma: VectorFieldFamily,
    noise: NoiseRealization,
    h: float,
    s: float,
    t: float,
    points,
    p: Optional[float] = None,
    rho: float = 1.0,
    regenerate: bool = False,
) -> float:
    """Largest V/W discrepancy between time-shifted and shifted-noise drivers.

    Compares V_{s+h, t+h} and W_{s+h, t+h} of the driver built on omega
    against V_{s,t}, W_{s,t} of the driver built on theta_h omega.  Times
    missing from a grid are completed geodesically rather than raising.

    The group shift conjugates every point by the same element, so with
    regenerate=False the residual is a pure consistency check (small even
    for off-grid h).  With regenerate=True the shifted side is re-lifted
    from the stored underlying path at full data resolution, which exposes
    the projection error of a coarse lift and shrinks under refinement.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    base_lift = _with_nodes_lift(noise.omega, [s + h, t + h])
    base = RoughDriver(sigma, base_lift, p=p, rho=rho, check_geometric=False)
    if regenerate:
        shifted = regenerated_shift(noise, h)
    else:
        shifted = shift_omega(NoiseRealization(base_lift, dict(noise.meta), noise.path), h)
    shifted_lift = _with_nodes_lift(shifted.omega, [s, t])
    moved = RoughDriver(sigma, shifted_lift, p=p, rho=rho, check_geometric=False)
    gap_v = base.V(s + h, t + h, x) - moved.V(s, t, x)
    gap_w = base.W(s + h, t + h, x) - moved.W(s, t, x)
    return max(float(np.max(np.abs(gap_v))), float(np.max(np.abs(gap_w))))


# -------------------------------------------------------------- driver norm


def _holder_quotient(fn, box: BoxSpec, dim: int, rho: float, rng) -> float:
    worst = 0.0
    for k in range(2, 7):
        sep = box.radius * 2.0 ** (-k)
        centers = rng.uniform(-box.radius + sep, box.radius - sep, size=(8, dim))
        dirs = rng.normal(size=(8, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        a = fn(centers)
        b = fn(centers + sep * dirs)
        gap = np.max(np.abs(b - a).reshape(len(centers), -1), axis=1)
        worst = max(worst, float(np.max(gap / sep ** rho)))
    return worst


def _space_norm(value_fn, deriv_fns, holder_fn, box, dim, rho, rng) -> float:
    pts = box.points(dim)
    out = float(np.max(np.abs(value_fn(pts))))
    for fn in deriv_fns:
        out = max(out, float(np.max(np.abs(fn(pts)))))
    return max(out, _holder_quotient(holder_fn, box, dim, rho, rng))


def driver_norm(
    driver,
    interval=None,
    time_samples: int = 9,
    box: BoxSpec = BoxSpec(),
    max_pairs: int = 24,
    detail: bool = False,
):
    """Sampled (p, rho)-norm estimator of a driver.

    Maximizes C^{2+rho}(V_{s,t}) / |t-s|^{1/p} and
    sqrt(C^{1+rho}(W_{s,t}) / |t-s|^{2/p}) over grid pairs at dyadic index
    separations, with the spatial norms sampled on the configured box.  A
    lower bound of the true norm, consistent across all callers.  With
    detail=True returns (value, resolution dict) so reports can carry the
    sampling parameters alongside the estimate.
    """
    grid = driver.grid
    if interval is not None:
        a, b = float(interval[0]), float(interval[1])
        keep = (grid >= a - 1e-12) & (grid <= b + 1e-12)
        grid = grid[keep]
    if grid.size < 2:
        raise ArgumentError("interval holds fewer than two grid nodes")
    if grid.size > time_samples:
        grid = grid[np.linspace(0, grid.size - 1, time_samples).astype(int)]
    pairs = []
    sep = 1
    while sep < grid.size:
        pairs.extend((i, i + sep) for i in range(0, grid.size - sep, max(1, sep)))
        sep *= 2
    if len(pairs) > max_pairs:
        pairs = [pairs[i] for i in np.linspace(0, len(pairs) - 1, max_pairs).astype(int)]
    rng = np.random.default_rng(box.seed + 1)
    rho, p = driver.rho, driver.p
    dim = driver.state_dim
    worst = 0.0
    for i, j in pairs:
        s, t = float(grid[i]), float(grid[j])
        dt = t - s
        v_norm = _space_norm(
            lambda z: driver.V(s, t, z),
            [lambda z: driver.DV(s, t, z), lambda z: driver.D2V(s, t, z)],
            lambda z: driver.D2V(s, t, z),
            box,
            dim,
            rho,
            rng,
        )
        w_norm = _space_norm(
            lambda z: driver.W(s, t, z),
            [lambda z: driver.DW(s, t, z)],
            lambda z: driver.DW(s, t, z),
            box,
            dim,
            rho,
            rng,
        )
        worst = max(worst, v_norm / dt ** (1.0 / p), np.sqrt(w_norm / dt ** (2.0 / p)))
    worst = float(worst)
    if detail:
        return worst, {
            "box_radius": box.radius,
            "nodes_per_axis": box.nodes_per_axis,
            "time_pairs": len(pairs),
            "p": p,
            "rho": rho,
        }
    return worst
