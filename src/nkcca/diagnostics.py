"""Dense, small-N verifiers of the approximation and stability bounds,
each returning ``BoundReport`` rows. They form N x N operators on purpose
and refuse N above ``_DENSE_N_LIMIT``. README, "Numerical notes", has how
their norms and projections are computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .kernels import _check_finite, _check_positive, as_matrix
from .kcca import KccaModel, _gkl_norm, _ridge_projection, project_many
from .leverage import _psd_eigh, _sketch_eigh, _whitening
from .sampling import SamplingPlan, _check_plan

__all__ = [
    "BoundReport",
    "d_matrix_norm",
    "projection_error_check",
    "correlation_error_check",
    "stability_check",
    "psd_ordering_check",
    "tail_bound_check",
]

_SLACK = 1e-8
_DENSE_N_LIMIT = 2000


@dataclass
class BoundReport:
    """One verified inequality: holds iff lhs <= rhs + 1e-8 max(1, rhs).

    `applicable` is False when the check's preconditions (e.g. a singular
    value gap) failed; such reports must never be counted as passes.
    """

    context: str
    lhs: float
    rhs: float
    holds: bool
    applicable: bool = True
    extras: dict = field(default_factory=dict)

    @classmethod
    def make(cls, context: str, lhs: float, rhs: float, applicable: bool = True,
             **extras) -> "BoundReport":
        holds = bool(applicable and lhs <= rhs + _SLACK * max(1.0, rhs))
        return cls(context=context, lhs=float(lhs), rhs=float(rhs),
                   holds=holds, applicable=applicable, extras=extras)


def _check_dense_feasible(n: int) -> None:
    if n > _DENSE_N_LIMIT:
        raise ValueError(f"diagnostics are dense and gated to N <= "
                         f"{_DENSE_N_LIMIT}; got N = {n}")


def _check_t(name: str, t: float) -> None:
    if not 0 < t < 1:
        raise ValueError(f"{name} must lie in (0, 1)")


def _stability_terms(exact: KccaModel, alpha_prime: np.ndarray):
    """The stability bound's terms for an approximate fit whose top vector
    is ``alpha_prime[:, 0]``: the gap r = rho_1 - (rho_2 if L > 1, else
    sigma_next) of ``exact``, the coefficient 1/2 + 4 sqrt2 / r (inf unless
    r > 0), and the sign, -1.0 or 1.0, that aligns the approximate vector
    with the exact one."""
    sigma2 = float(exact.rho[1]) if exact.L > 1 else float(exact.sigma_next)
    r = float(exact.rho[0]) - sigma2
    coef = 0.5 + 4.0 * math.sqrt(2.0) / r if r > 0 else np.inf
    dot = float(alpha_prime[:, 0] @ exact.alpha_prime[:, 0])
    return r, coef, -1.0 if dot < 0 else 1.0


def _norm(*terms) -> float:
    """Spectral norm of the first term minus the others (kcca._gkl_norm)."""
    return float(_gkl_norm(*terms)[0])


def _low_rank(K, plan: SamplingPlan, gammas) -> list[np.ndarray]:
    """low_rank_dense(K, plan, gamma) for each gamma in ``gammas``, all
    from one eigendecomposition of the sketch block."""
    for gamma in gammas:
        _check_positive("gamma", gamma, zero_ok=True)
    K = as_matrix(K)
    n = K.shape[0]
    _check_plan("plan", plan, n)
    _check_finite("K", K)
    idx, w = plan.indices, plan.weights
    W = K[np.ix_(idx, idx)] * w
    W *= w[:, None]
    eig = _sketch_eigh(W)
    # C-ordered, unlike K[:, idx]: the BLAS rounding depends on layout
    C = np.take(K, idx, axis=1)
    C *= w
    out = []
    for gamma in gammas:
        F = C @ _whitening(eig, n * gamma)
        out.append(F @ F.T)   # a rank-k update: exactly symmetric
    return out


def low_rank_dense(K, plan: SamplingPlan, gamma: float) -> np.ndarray:
    """Dense column-sampled approximation K S (S^T K S + N gamma I)^+ S^T K.

    S carries the plan's importance weights. The result is F F^T for the
    whitened sketch F of C = K S and W = S^T K S at shift N gamma, so a
    singular core at gamma = 0 is pseudo-inverted. Raises ValueError for a
    negative or non-finite gamma, a plan index outside [0, N) or a
    non-finite K.
    """
    return _low_rank(K, plan, (gamma,))[0]


def d_matrix_norm(K, plan: SamplingPlan | None, gamma: float) -> float:
    """Spectral norm of D = Phi - Phi^(1/2) U^T S S^T U Phi^(1/2).

    Phi = Sig (Sig + N gamma I)^-1 from the eigendecomposition K = U Sig U^T
    and S is the weighted sampling matrix. An empty plan gives ||Phi||.
    Raises ValueError for a plan index outside [0, N) or a non-finite K.
    """
    _check_positive("gamma", gamma)
    K = as_matrix(K)
    n = K.shape[0]
    _check_dense_feasible(n)
    if plan is not None:
        _check_plan("plan", plan, n)
    _check_finite("K", K)
    sig, U = _psd_eigh(K)
    phi = sig / (sig + n * gamma)
    if plan is None:
        return float(phi.max(initial=0.0))
    # U^T S: column j of S is weights[j] at row indices[j]
    B = np.sqrt(phi)[:, None] * (U[plan.indices].T * plan.weights)
    D = np.diag(phi) - B @ B.T
    return _norm(D)


def psd_ordering_check(K, plan: SamplingPlan, gamma: float) -> BoundReport:
    """Verify the ordering L_gamma <= L <= K in the PSD sense.

    lhs is the largest violation -min eig over the three gaps (K - L),
    (L - L_gamma), (K - L_gamma); rhs is the tolerance 1e-8 ||K||.
    """
    K = as_matrix(K)
    _check_dense_feasible(K.shape[0])
    L, Lg = _low_rank(K, plan, (0.0, gamma))
    mins = [float(scipy.linalg.eigvalsh(M)[0])
            for M in (K - L, L - Lg, K - Lg)]
    norm_k = _norm(K)
    return BoundReport.make("psd-ordering", lhs=-min(mins),
                            rhs=_SLACK * norm_k, min_eigs=mins, norm_k=norm_k)


def tail_bound_check(K, plan: SamplingPlan, gamma: float, t: float) -> BoundReport:
    """Verify max eig(K - L_gamma) <= N gamma / (1 - t) when ||D|| <= t."""
    K = as_matrix(K)
    n = K.shape[0]
    _check_dense_feasible(n)
    _check_t("t", t)
    d_norm = d_matrix_norm(K, plan, gamma)
    applicable = d_norm <= t
    Lg = low_rank_dense(K, plan, gamma)
    # K - L_gamma is PSD: its norm is its largest eigenvalue
    lhs = _norm(K - Lg)
    rhs = n * gamma / (1.0 - t)
    return BoundReport.make("tail-bound", lhs=lhs, rhs=rhs,
                            applicable=applicable, d_norm=d_norm, t=t)


def projection_error_check(K, plan: SamplingPlan, gamma: float, lam: float,
                           t: float) -> BoundReport:
    """Verify the regularized-projection error bound (gamma/lam)/(1 - t).

    lhs is the max over the four spectral errors {uncentered, centered} x
    {L, L_gamma} of ||A (A + N lam I)^-1 - B (B + N lam I)^-1||; the report
    is not applicable unless the measured ||D|| is at most t.
    """
    _check_positive("lambda", lam)
    _check_t("t", t)
    K = as_matrix(K)
    _check_dense_feasible(K.shape[0])
    d_norm = d_matrix_norm(K, plan, gamma)
    applicable = d_norm <= t
    L, Lg = _low_rank(K, plan, (0.0, gamma))
    errs = {}
    for tag, centered in (("uncentered", False), ("centered", True)):
        P = _ridge_projection(K, lam, centered)
        for name, A in (("L", L), ("Lgamma", Lg)):
            errs[f"{tag}_{name}"] = _norm(P - _ridge_projection(A, lam,
                                                                centered))
    rhs = (gamma / lam) / (1.0 - t)
    return BoundReport.make("projection-error", lhs=max(errs.values()),
                            rhs=rhs, applicable=applicable, d_norm=d_norm,
                            t=t, **errs)


def correlation_error_check(K1, K2, plans: tuple, lambdas: tuple,
                            gammas: tuple, t1: float, t2: float) -> BoundReport:
    """Verify |rho - rho_tilde| against the reconstructed epsilon.

    epsilon is recovered from the per-view shrinkage gamma = eps lam (1-t)/2,
    i.e. eps_view = 2 gamma / (lam (1 - t)), taking the max over views. The
    intermediate quantities of the triangle-inequality chain (||T - T_tilde||
    and both per-view terms) are reported in extras; the report is gated on
    the measured ||D|| of both views. Every argument is checked before any
    N x N work: a K2 of another shape than K1, a plan index outside [0, N),
    a regularizer or shrinkage that is not positive and finite, or a t
    outside (0, 1), or a non-finite K1 or K2, raises ValueError naming it.
    """
    K1 = as_matrix(K1)
    K2 = as_matrix(K2)
    n = K1.shape[0]
    if K2.shape != K1.shape:
        raise ValueError(f"K2 must be {n} x {n}, like K1")
    _check_dense_feasible(n)
    plan1, plan2 = plans
    lam1, lam2 = lambdas
    gam1, gam2 = gammas
    for i, plan in enumerate(plans):
        _check_plan(f"plans[{i}]", plan, n)
    for name, values in (("lambdas", lambdas), ("gammas", gammas)):
        for i, value in enumerate(values):
            _check_positive(f"{name}[{i}]", value)
    _check_t("t1", t1)
    _check_t("t2", t2)
    _check_finite("K1", K1)
    _check_finite("K2", K2)
    # T = P1 P2 from the views' ridge projections P = Kc (Kc + N lam I)^-1,
    # and T_tilde likewise from the centered approximations at gamma = 0;
    # neither product is formed
    P1 = _ridge_projection(K1, lam1, True, name="K1", param="lambdas[0]")
    P2 = _ridge_projection(K2, lam2, True, name="K2", param="lambdas[1]")
    Pt1 = _ridge_projection(low_rank_dense(K1, plan1, 0.0), lam1, centered=True)
    Pt2 = _ridge_projection(low_rank_dense(K2, plan2, 0.0), lam2, centered=True)
    rho = _norm((P1, P2))
    rho_tilde = _norm((Pt1, Pt2))
    t_err = _norm((P1, P2), (Pt1, Pt2))
    # each per-view term is a difference of entries near 1 that can be
    # 1e-8 apart: forming it keeps the rounding of its matrix-vector product
    # to that of one matrix
    view1_term = _norm(P1 - Pt1)
    view2_term = _norm(P2 - Pt2)
    del P1, P2, Pt1, Pt2   # d_matrix_norm's eigh needs the room

    d1 = d_matrix_norm(K1, plan1, gam1)
    d2 = d_matrix_norm(K2, plan2, gam2)
    eps = max(2.0 * gam1 / (lam1 * (1.0 - t1)), 2.0 * gam2 / (lam2 * (1.0 - t2)))
    applicable = d1 <= t1 and d2 <= t2
    return BoundReport.make("correlation-error",
                            lhs=abs(rho - rho_tilde), rhs=eps,
                            applicable=applicable, rho=rho,
                            rho_tilde=rho_tilde, t_err=t_err,
                            view1_term=view1_term, view2_term=view2_term,
                            d1=d1, d2=d2, t1=t1, t2=t2)


def stability_check(exact: KccaModel, approx: KccaModel, test_points,
                    c: float = 1.0, *, grams=None) -> list[BoundReport]:
    """Layered out-of-sample stability checks for the top canonical pair.

    Returns three reports:

    I.   ||a' - a~'|| <= (4 sqrt2 / r) ||T - T~||
    II.  ||a - a~|| / sqrt(N) <= (1/2 + 4 sqrt2 / r) eps / (N lam1)
    III. max_x |f(x) - f~(x)| <= (1/2 + 4 sqrt2 / r) c eps / lam1

    with r, the coefficient and the sign of ``_stability_terms``, and eps
    twice the larger measured per-view projection error. All three are not
    applicable when r <= 0 or ||T - T~|| > r/2. ``grams = (K1, K2)``, the
    exact model's Gram matrices if the caller holds them, are only read;
    without them they are built from its view oracles. Models without
    their T, oracles, landmarks or coefficients, an approx model of
    another N, or grams of another shape raise ValueError naming the
    argument, before any N x N work.
    """
    if exact.t_matrix is None or approx.t_matrix is None:
        raise ValueError("both models must carry their dense T matrix "
                         "(fit with keep_t=True)")
    if exact.view1 is None or exact.view2 is None:
        raise ValueError("exact model must carry view oracles")
    if approx.landmarks1 is None or approx.landmarks2 is None:
        raise ValueError("approx model must carry landmark bookkeeping")
    if approx.alpha is None:
        raise ValueError("approx model must carry its coefficients (fit "
                         "with compute_coefficients=True)")
    n = exact.n
    if approx.n != n:
        raise ValueError(f"approx has N = {approx.n}, exact has N = {n}")
    if grams is not None and [np.shape(K) for K in grams] != [(n, n)] * 2:
        raise ValueError(f"grams must be two {n} x {n} matrices")
    _check_dense_feasible(n)
    lam1 = exact.lambda1

    r, coef, flip = _stability_terms(exact, approx.alpha_prime)
    t_err = _norm(exact.t_matrix, approx.t_matrix)
    applicable = r > 0 and t_err <= r / 2.0

    # L at gamma = 0 does not depend on the landmark weights: use unit ones
    K1, K2 = grams or (exact.view1.dense(), exact.view2.dense())
    eps_views = []
    for K, lm, lam in ((K1, approx.landmarks1, lam1),
                       (K2, approx.landmarks2, exact.lambda2)):
        L = low_rank_dense(K, SamplingPlan(lm.indices, np.ones(lm.indices.size)),
                           0.0)
        eps_views.append(_norm(_ridge_projection(K, lam, centered=True)
                               - _ridge_projection(L, lam, centered=True)))
    eps1, eps2 = eps_views
    eps = 2.0 * max(eps1, eps2)

    step1 = BoundReport.make(
        "stability-step-I", lhs=float(np.linalg.norm(
            exact.alpha_prime[:, 0] - flip * approx.alpha_prime[:, 0])),
        rhs=(4.0 * math.sqrt(2.0) / r) * t_err if r > 0 else np.inf,
        applicable=applicable, gap=r, t_err=t_err)

    step2 = BoundReport.make(
        "stability-step-II", lhs=float(np.linalg.norm(
            exact.alpha[:, 0] - flip * approx.alpha[:, 0])) / math.sqrt(n),
        rhs=coef * eps / (n * lam1), applicable=applicable,
        eps=eps, eps_view1=eps1, eps_view2=eps2, eps_sum=eps1 + eps2,
        gap=r, t_err=t_err)

    X_test = np.atleast_2d(np.asarray(test_points, dtype=float))
    f_exact = project_many(exact, X_test, view=1)[:, 0]
    f_approx = flip * project_many(approx, X_test, view=1)[:, 0]
    step3 = BoundReport.make(
        "stability-step-III",
        lhs=float(np.max(np.abs(f_exact - f_approx))),
        rhs=coef * c * eps / lam1, applicable=applicable,
        eps=eps, gap=r, c=c, n_test=X_test.shape[0])

    return [step1, step2, step3]
