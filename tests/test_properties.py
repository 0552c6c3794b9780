"""Property tests of the rank path.

* The incremental path equals restarts: every entry of ``nkcca_fit`` along
  a random plan (with repeated draws) and a random nondecreasing sequence of
  per-view checkpoints must match a from-scratch ``nkcca_fit_direct`` at the
  same ranks: the same landmarks, rho within 1e-8 and principal angles
  within 1e-6 (criterion 2's tolerances). This includes a gate-rejected
  index drawn again after a checkpoint.
* Importance weights never change the fit: giving every draw of a plan an
  arbitrary positive probability leaves the kept landmarks, the skipped
  positions, rho, alpha' and beta' bitwise equal to those of the
  unit-weight plan, on the incremental path and on the restart.
* Duplicate draws never change rho: a plan with repeats gives the same
  final landmarks and rho (within 1e-8) as the plan with them removed.
* save/load round-trips a rank-path model: every field the record holds
  (landmark bookkeeping included) comes back equal, and the reloaded model
  projects new points bitwise like the original.
* The bordered checkpoint matrix equals the formed one: at every checkpoint
  of a random path, ``T_hat`` grown from the previous checkpoint's equals
  ``(M1 @ Kt) @ M2^T`` within 1e-12 relative, and no ``T_hat`` handed out
  earlier changes afterwards. Paths grow one view at a time, repeat
  checkpoints and offer blocks that the gate rejects entirely.
* One factor state per view holds its invariants after every append: over
  random splits of distinct candidates into blocks, ``Q^T Q = I`` within
  1e-12, ``||Q^T 1|| <= 1e-12 sqrt(N)``, ``||A - Q P|| <= 1e-12 ||A||``
  against the equilibrated columns rebuilt from scratch,
  ``R^T R = N lam gram + P^T P`` within 1e-12, and the kept landmarks are
  those of ``admit_columns`` on the whole target (the restart's gate).
* The top-k SVD policy matches a full LAPACK SVD on either side of its
  ARPACK crossover: singular values within 1e-12 sigma_1, and singular
  subspaces within 1e-8 wherever the spectrum has a gap, on full-rank,
  rank-deficient, all-zero and row-centered (T 1 = 0) matrices.
* Sketched leverage scores are dominated by the exact ones: on ring data
  with duplicated points (so the sketch block W is often singular and the
  pseudo-inverse drops directions), ``approx_leverage`` never exceeds
  ``exact_leverage`` by more than 1e-12, equals it within 1e-10 with the
  full sketch, and lies in [0, 1].
* Exact leverage from one Cholesky matches the eigen formula: on the same
  duplicated ring data (K singular), the scores agree within 1e-11 and
  d_eff within 1e-10 relative of ``effective_dimension``.
* The dense approximations keep the PSD ordering L_gamma <= L <= K: on
  ring kernels and plans with repeated draws and arbitrary weights, every
  violation is at most 1e-12 ||K||.
* The CLI never ends in a traceback: every command on tiny synthetic data
  (n 1-40, small splits, random ranks, L, strategy, sketch and select_n,
  sigma, lambda and gamma_mult up to 1e+-300) exits 0, 2 or 3, and a run
  that exits 0 leaves its table. So does every command that reads data on
  small CSV files (1-40 rows, 1-3 columns per view, an optional header,
  magnitudes up to 1e+-200, splits as counts or fractions).

Examples are derandomized, so the suite is reproducible.
"""

import contextlib
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import scipy.linalg
from hypothesis import HealthCheck, assume, example, given, settings
from conftest import (assert_same_record_state, eigen_leverage, recording,
                      unit_plan)
from hypothesis import strategies as st

from nkcca import kcca
from nkcca.cli import main
from nkcca.datasets import synthetic_circles
from nkcca.diagnostics import low_rank_dense
from nkcca.kcca import (load_model, nkcca_fit, nkcca_fit_direct,
                        project_many, save_model)
from nkcca.kernels import KernelColumns, KernelSpec, gram
from nkcca.leverage import (approx_leverage, effective_dimension,
                            exact_leverage)
from nkcca.nystrom import (FactorState, _equilibrated_block, admit_columns,
                           chol_append_block)
from nkcca.sampling import SamplingPlan

RHO_TOL = 1e-8
ANGLE_TOL = 1e-6
# Principal angles are only determined up to (perturbation / gap); below
# this singular-value gap the top-L subspace itself is ill-posed.
MIN_GAP = 1e-5


@st.composite
def rank_paths(draw):
    n = draw(st.integers(20, 50))
    m = draw(st.integers(4, 30))
    # a pool smaller than the plan forces repeated draws
    pool = draw(st.integers(3, min(n, m - 1)))
    plans = [draw(st.lists(st.integers(0, pool - 1), min_size=m, max_size=m))
             for _ in range(2)]
    count = draw(st.integers(1, 4))
    ranks = [sorted(draw(st.lists(st.integers(1, m), min_size=count,
                                  max_size=count))) for _ in range(2)]
    checkpoints = list(zip(*ranks))
    assume(any(a != b for a, b in checkpoints))
    return dict(n=n, copies=1, seed=draw(st.integers(0, 10_000)),
                sigma=draw(st.sampled_from([0.3, 0.5, 1.0])),
                lam=draw(st.sampled_from([1e-3, 1e-2, 1e-1])),
                L=draw(st.integers(1, 2)), plans=plans,
                checkpoints=checkpoints)


def _checked_columns(direct, L):
    """Leading columns with a singular-value gap wide enough for angles."""
    rho = direct.rho_tilde
    k = int(np.count_nonzero(np.linalg.norm(direct.model.alpha_prime,
                                            axis=0)))
    below = rho[k] if k < L else direct.model.sigma_next
    return k if k and rho[k - 1] - below > MIN_GAP else 0


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(rank_paths())
# every point appears twice (i and i + 10): the gate rejects the second
# copies 10 and 13 before the first checkpoint, and both are drawn again
# after it
@example(dict(n=10, copies=2, seed=5, sigma=0.5, lam=1e-3, L=1,
              plans=[[0, 1, 2, 10, 3, 10, 4, 5], [3, 4, 13, 5, 6, 13, 7, 1]],
              checkpoints=[(4, 3), (8, 8)]))
def test_incremental_path_equals_restart(case):
    ds = synthetic_circles(case["n"], case["seed"])
    spec = KernelSpec(sigma=case["sigma"])
    o1 = KernelColumns.from_data(spec, np.vstack([ds.X] * case["copies"]))
    o2 = KernelColumns.from_data(spec, np.vstack([ds.Y] * case["copies"]))
    p1, p2 = (unit_plan(p) for p in case["plans"])
    lam, L = case["lam"], case["L"]
    entries = nkcca_fit(o1, o2, p1, p2, lam, lam, L, case["checkpoints"])
    for e in entries:
        direct = nkcca_fit_direct(o1, o2, p1, p2, lam, lam, L,
                                  m1=e.m1, m2=e.m2)
        for tag in ("1", "2"):
            inc = getattr(e.model, f"landmarks{tag}")
            ref = getattr(direct.model, f"landmarks{tag}")
            np.testing.assert_array_equal(inc.indices, ref.indices)
            assert inc.skipped == ref.skipped
        np.testing.assert_allclose(e.rho_tilde, direct.rho_tilde, rtol=0,
                                   atol=RHO_TOL)
        k = _checked_columns(direct, L)
        for a, b in ((e.model.alpha_prime, direct.model.alpha_prime),
                     (e.model.beta_prime, direct.model.beta_prime)):
            if k:
                angle = scipy.linalg.subspace_angles(a[:, :k], b[:, :k]).max()
                assert angle <= ANGLE_TOL


@st.composite
def weighted_rank_paths(draw):
    case = draw(rank_paths())
    positive = st.floats(1e-9, 1e3, allow_nan=False, allow_infinity=False)
    case["p_sampled"] = [draw(st.lists(positive, min_size=len(p),
                                       max_size=len(p)))
                         for p in case["plans"]]
    return case


def _assert_same_fit(a, b):
    for tag in ("1", "2"):
        lm_a = getattr(a.model, f"landmarks{tag}")
        lm_b = getattr(b.model, f"landmarks{tag}")
        np.testing.assert_array_equal(lm_a.indices, lm_b.indices)
        assert lm_a.skipped == lm_b.skipped
    np.testing.assert_array_equal(a.rho_tilde, b.rho_tilde)
    np.testing.assert_array_equal(a.model.alpha_prime, b.model.alpha_prime)
    np.testing.assert_array_equal(a.model.beta_prime, b.model.beta_prime)


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(weighted_rank_paths())
def test_importance_weights_never_change_the_fit(case):
    ds = synthetic_circles(case["n"], case["seed"])
    spec = KernelSpec(sigma=case["sigma"])
    o1 = KernelColumns.from_data(spec, ds.X)
    o2 = KernelColumns.from_data(spec, ds.Y)
    unit = [unit_plan(p) for p in case["plans"]]
    weighted = [SamplingPlan(indices=p, p_sampled=q)
                for p, q in zip(case["plans"], case["p_sampled"])]
    lam, L, cps = case["lam"], case["L"], case["checkpoints"]
    for a, b in zip(nkcca_fit(o1, o2, *unit, lam, lam, L, cps),
                    nkcca_fit(o1, o2, *weighted, lam, lam, L, cps)):
        _assert_same_fit(a, b)
    m1, m2 = cps[-1]
    _assert_same_fit(
        nkcca_fit_direct(o1, o2, *unit, lam, lam, L, m1=m1, m2=m2),
        nkcca_fit_direct(o1, o2, *weighted, lam, lam, L, m1=m1, m2=m2))


@st.composite
def plans_with_repeats(draw):
    n = draw(st.integers(20, 50))
    distinct = [draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=15,
                              unique=True)) for _ in range(2)]
    plans = []
    for base in distinct:
        # each draw may be followed by a repeat of any earlier draw
        plan = []
        for i in base:
            plan.append(i)
            if draw(st.booleans()):
                plan.append(draw(st.sampled_from(plan)))
        plans.append(plan)
    count = draw(st.integers(1, 4))
    cps = [sorted(draw(st.lists(st.integers(1, len(p)), min_size=count,
                                max_size=count))) + [len(p)] for p in plans]
    return dict(n=n, seed=draw(st.integers(0, 10_000)),
                sigma=draw(st.sampled_from([0.3, 0.5, 1.0])),
                lam=draw(st.sampled_from([1e-3, 1e-2, 1e-1])),
                L=draw(st.integers(1, 2)), distinct=distinct, plans=plans,
                checkpoints=list(zip(*cps)))


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(plans_with_repeats())
def test_duplicate_draws_never_change_rho(case):
    ds = synthetic_circles(case["n"], case["seed"])
    spec = KernelSpec(sigma=case["sigma"])
    o1 = KernelColumns.from_data(spec, ds.X)
    o2 = KernelColumns.from_data(spec, ds.Y)
    lam, L = case["lam"], case["L"]
    repeated = nkcca_fit(o1, o2, *(unit_plan(p) for p in case["plans"]),
                         lam, lam, L, case["checkpoints"])[-1]
    distinct = nkcca_fit(o1, o2, *(unit_plan(p) for p in case["distinct"]),
                         lam, lam, L,
                         [tuple(len(p) for p in case["distinct"])])[-1]
    for tag in ("1", "2"):
        np.testing.assert_array_equal(
            getattr(repeated.model, f"landmarks{tag}").indices,
            getattr(distinct.model, f"landmarks{tag}").indices)
    np.testing.assert_allclose(repeated.rho_tilde, distinct.rho_tilde, rtol=0,
                               atol=RHO_TOL)


@st.composite
def saved_paths(draw):
    n = draw(st.integers(20, 40))
    m = draw(st.integers(2, 20))
    # a small pool repeats draws, so the skipped lists are not all empty
    pool = draw(st.integers(2, n))
    plans = [draw(st.lists(st.integers(0, pool - 1), min_size=m, max_size=m))
             for _ in range(2)]
    checkpoints = sorted(draw(st.lists(st.integers(1, m), min_size=1,
                                       max_size=3)))
    return dict(n=n, seed=draw(st.integers(0, 10_000)),
                sigma=draw(st.sampled_from([0.3, 0.5, 1.0])),
                lam=draw(st.sampled_from([1e-3, 1e-2, 1e-1])),
                L=draw(st.integers(1, 2)), plans=plans,
                checkpoints=checkpoints)


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(saved_paths())
def test_save_load_round_trips_rank_path_models(case):
    ds = synthetic_circles(case["n"], case["seed"])
    test = synthetic_circles(8, case["seed"] + 1)
    spec = KernelSpec(sigma=case["sigma"])
    o1 = KernelColumns.from_data(spec, ds.X)
    o2 = KernelColumns.from_data(spec, ds.Y)
    p1, p2 = (unit_plan(p) for p in case["plans"])
    lam = case["lam"]
    for e in nkcca_fit(o1, o2, p1, p2, lam, lam, case["L"],
                       case["checkpoints"]):
        buf = io.BytesIO()
        save_model(e.model, buf)
        buf.seek(0)
        back = load_model(buf, ds.X, ds.Y)
        assert_same_record_state(e.model, back)
        assert back.view1.spec == spec and back.view2.spec == spec
        for view, X in ((1, test.X), (2, test.Y)):
            np.testing.assert_array_equal(project_many(back, X, view),
                                          project_many(e.model, X, view))


@st.composite
def bordered_paths(draw):
    # every point appears twice (i and i + half), so a draw of the second
    # copy after the first is a column the gate rejects
    half = draw(st.integers(6, 20))
    m = draw(st.integers(2, 24))
    plans = [draw(st.lists(st.integers(0, 2 * half - 1), min_size=m,
                           max_size=m)) for _ in range(2)]
    count = draw(st.integers(1, 5))
    ranks = [sorted(draw(st.lists(st.integers(1, m), min_size=count,
                                  max_size=count))) for _ in range(2)]
    return dict(half=half, seed=draw(st.integers(0, 10_000)),
                sigma=draw(st.sampled_from([0.3, 0.5, 1.0])),
                lam=draw(st.sampled_from([1e-3, 1e-2, 1e-1])), plans=plans,
                checkpoints=list(zip(*ranks)))


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(bordered_paths())
# view 2 alone grows, then the same checkpoint again, then view 1 draws the
# second copies of points 0 and 1, which the gate rejects entirely
@example(dict(half=10, seed=3, sigma=0.5, lam=1e-3,
              plans=[[0, 1, 2, 3, 10, 11, 4, 5], [0, 1, 2, 3, 4, 5, 6, 7]],
              checkpoints=[(4, 2), (4, 6), (4, 6), (6, 6), (8, 8)]))
def test_bordered_t_hat_equals_formed_product(case):
    ds = synthetic_circles(case["half"], case["seed"])
    spec = KernelSpec(sigma=case["sigma"])
    o1 = KernelColumns.from_data(spec, np.vstack([ds.X, ds.X]))
    o2 = KernelColumns.from_data(spec, np.vstack([ds.Y, ds.Y]))
    p1, p2 = (unit_plan(p) for p in case["plans"])
    states, xs, t_hats, checked = [], [], [], []

    def hook(entry, Q1, Q2, T_hat):
        assert T_hat is t_hats[-1]
        M1, M2 = (v.factor.M for v in states)
        ref = (M1 @ (M1.T @ xs[-1] @ M2)) @ M2.T
        assert T_hat.shape == ref.shape
        assert np.linalg.norm(T_hat - ref) <= 1e-12 * np.linalg.norm(ref)
        checked.append(T_hat.copy())

    with mock.patch.object(kcca, "_ViewState",
                           recording(kcca._ViewState, states)), \
            mock.patch.object(kcca, "_border_x",
                              recording(kcca._border_x, xs)), \
            mock.patch.object(kcca, "_border_t_hat",
                              recording(kcca._border_t_hat, t_hats)):
        nkcca_fit(o1, o2, p1, p2, case["lam"], case["lam"], 1,
                  case["checkpoints"], on_checkpoint=hook)
    assert len(checked) == len(t_hats) == len(case["checkpoints"])
    for T_hat, copy in zip(t_hats, checked):
        np.testing.assert_array_equal(T_hat, copy)


@st.composite
def factor_appends(draw):
    n = draw(st.integers(8, 60))
    m = draw(st.integers(1, n))
    cuts = draw(st.lists(st.integers(1, max(m - 1, 1)), max_size=6,
                         unique=True)) if m > 1 else []
    return dict(n=n, seed=draw(st.integers(0, 10_000)),
                sigma=draw(st.sampled_from([0.3, 0.5, 1.0])),
                lam=draw(st.sampled_from([1e-3, 1e-2, 1e-1])),
                candidates=draw(st.permutations(range(n)))[:m],
                cuts=sorted(cuts))


# The strategy's N <= 60 never offers a block wider than two QR sub-blocks
# (2 * _QR_SUB = 64 columns); the example appends 75 kept columns between
# blocks of 20 and 15.
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(factor_appends())
@example(dict(n=120, seed=3, sigma=0.3, lam=1e-3,
              candidates=list(range(110)), cuts=[20, 95]))
def test_factor_state_invariants_after_every_append(case):
    n, lam = case["n"], case["lam"]
    ds = synthetic_circles(n, case["seed"])
    oracle = KernelColumns.from_data(KernelSpec(sigma=case["sigma"]), ds.X)
    cand = np.array(case["candidates"])
    # the restart's target over every candidate, built from scratch
    A_all, _, G_all = _equilibrated_block(oracle.columns(cand), cand, lam)
    state = FactorState(n, lam, capacity=len(cand))
    ones = np.ones(n)
    for lo, hi in zip([0, *case["cuts"]], [*case["cuts"], len(cand)]):
        chol_append_block(state, cand[lo:hi], oracle.columns(cand[lo:hi]))
        kept, _ = admit_columns(G_all[:hi, :hi])
        assert state.indices == cand[kept].tolist()
        Q, P, R, M = state.Q, state.P, state.R, state.M
        np.testing.assert_allclose(Q.T @ Q, np.eye(state.r), rtol=0,
                                   atol=1e-12)
        assert np.linalg.norm(Q.T @ ones) <= 1e-12 * np.sqrt(n)
        A = A_all[:, kept]
        assert np.linalg.norm(A - Q @ P) <= 1e-12 * np.linalg.norm(A)
        c = state._c[:state.m]
        idx = cand[kept]
        gram_kept = c[:, None] * oracle.columns(idx)[idx] * c[None, :]
        np.testing.assert_allclose(R.T @ R, n * lam * gram_kept + P.T @ P,
                                   rtol=0, atol=1e-12)
        assert M.shape == (state.r, state.m)
        assert (np.linalg.norm(M @ R - P)
                <= 1e-12 * np.linalg.norm(M) * np.linalg.norm(R))


def _row_centered(rng, shape):
    """Small integers with rows summing to exactly zero (T 1 = 0)."""
    T = rng.integers(-4, 5, size=shape).astype(float)
    T[:, -1] = -T[:, :-1].sum(axis=1)
    return T


@st.composite
def top_svd_inputs(draw):
    k = draw(st.integers(1, 40))
    crossover = max(kcca._SVDS_MIN_SIDE, kcca._SVDS_SIDE_PER_TRIPLET * k)
    short = draw(st.one_of(st.integers(k, crossover),
                           st.integers(crossover + 1, crossover + 40)))
    shape = [short, short + draw(st.integers(0, 40))]
    if draw(st.booleans()):
        shape.reverse()
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    kind = draw(st.sampled_from(["decaying", "rank_deficient", "zero",
                                 "centered"]))
    if kind == "decaying":
        U = np.linalg.qr(rng.normal(size=(shape[0], short)))[0]
        V = np.linalg.qr(rng.normal(size=(shape[1], short)))[0]
        rate = draw(st.floats(0.3, 0.99))
        T = (U * rate ** np.arange(short)) @ V.T
    elif kind == "rank_deficient":
        rank = draw(st.integers(1, 2 * k))
        T = rng.normal(size=(shape[0], rank)) @ rng.normal(size=(rank, shape[1]))
    elif kind == "zero":
        T = np.zeros(shape)
    else:
        # like the exact T, whose right factor is centered
        T = _row_centered(rng, shape)
    return T, k


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(top_svd_inputs())
# both guards of the ARPACK side, always: the zero matrix, and a tall
# T with T 1 = 0, where a start vector of ones is exactly null
@example((np.zeros((150, 130)), 2))
@example((_row_centered(np.random.default_rng(0), (160, 130)), 3))
def test_top_svd_matches_full_svd(case):
    T, k = case
    U, s, Vt = kcca._top_svd(T, k)
    assert U.shape == (T.shape[0], k) and Vt.shape == (k, T.shape[1])
    U_ref, s_ref, Vt_ref = scipy.linalg.svd(T, full_matrices=False)
    scale = s_ref[0]
    np.testing.assert_allclose(s, s_ref[:k], rtol=0, atol=1e-12 * scale)
    for j in range(1, k + 1):
        below = s_ref[j] if j < s_ref.shape[0] else 0.0
        if s_ref[j - 1] - below > 1e-6 * scale:
            for a, b in ((U, U_ref), (Vt.T, Vt_ref.T)):
                angle = scipy.linalg.subspace_angles(a[:, :j], b[:, :j]).max()
                assert angle <= 1e-8


@st.composite
def duplicated_ring_data(draw):
    n = draw(st.integers(2, 60))
    distinct = draw(st.integers(1, n))
    # every distinct point once, then repeats of them
    rows = list(range(distinct)) + draw(st.lists(
        st.integers(0, distinct - 1), min_size=n - distinct,
        max_size=n - distinct))
    order = np.random.default_rng(draw(st.integers(0, 10_000))).permutation(n)
    X = synthetic_circles(distinct, draw(st.integers(0, 10_000))).X
    # gamma >= 1e-3: eigen-directions at the pseudo-inverse threshold
    # (s eps ||W||) carry up to about eps ||K|| / gamma of an exact score,
    # which passes 1e-10 below that, for this estimator and the old one
    return dict(X=X[np.asarray(rows)[order]],
                sigma=10.0 ** draw(st.floats(-1.3, 0.7)),
                gamma=10.0 ** draw(st.floats(-3.0, 0.0)),
                sketch=draw(st.integers(1, n)),
                seed=draw(st.integers(0, 10_000)))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(duplicated_ring_data())
# every point twice and the full sketch: W is singular, always
@example(dict(X=np.repeat(synthetic_circles(15, 0).X, 2, axis=0), sigma=1.0,
              gamma=1e-2, sketch=30, seed=0))
def test_sketched_leverage_is_dominated_by_exact(case):
    oracle = KernelColumns.from_data(KernelSpec(sigma=case["sigma"]),
                                     case["X"])
    n, gamma = oracle.n, case["gamma"]
    exact = exact_leverage(oracle.dense(), gamma).scores
    approx = approx_leverage(oracle, gamma, case["sketch"],
                             case["seed"]).scores
    assert np.all(approx <= exact + 1e-12)
    assert np.all((approx >= 0) & (approx <= 1))
    full = approx_leverage(oracle, gamma, n, case["seed"]).scores
    np.testing.assert_allclose(full, exact, rtol=0, atol=1e-10)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(duplicated_ring_data())
# every point twice: K is singular, always
@example(dict(X=np.repeat(synthetic_circles(15, 0).X, 2, axis=0), sigma=1.0,
              gamma=1e-3, sketch=30, seed=0))
def test_exact_leverage_matches_the_eigen_formula(case):
    K = gram(KernelSpec(sigma=case["sigma"]), case["X"])
    gamma = case["gamma"]
    scores, _ = eigen_leverage(K, gamma)
    lv = exact_leverage(K, gamma)
    np.testing.assert_allclose(lv.scores, scores, rtol=0, atol=1e-11)
    ref = effective_dimension(K, gamma)
    assert abs(lv.d_eff - ref) <= 1e-10 * ref


@st.composite
def dense_plans_with_repeats(draw):
    n = draw(st.integers(8, 40))
    m = draw(st.integers(2, 40))
    # a pool smaller than the plan forces repeated draws, so S^T K S is
    # singular at gamma = 0
    pool = draw(st.integers(1, min(n, m - 1)))
    return dict(n=n, seed=draw(st.integers(0, 1000)),
                sigma=draw(st.sampled_from([0.2, 0.5, 1.0])),
                gamma=draw(st.sampled_from([1e-4, 1e-3, 1e-2, 1e-1])),
                idx=draw(st.lists(st.integers(0, pool - 1), min_size=m,
                                  max_size=m)),
                p=draw(st.lists(st.floats(0.01, 1.0), min_size=m,
                                max_size=m)))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(dense_plans_with_repeats())
# a Cholesky of the singular core with a pseudo-inverse fallback violated
# K - L >= 0 here by 2e-11 ||K||
@example(dict(n=33, seed=130, sigma=1.0, gamma=1e-4,
              idx=[0] * 36 + [1, 3, 7, 9], p=[1.0] * 37 + [0.5, 1.0, 1.0]))
def test_low_rank_dense_keeps_the_psd_ordering(case):
    K = gram(KernelSpec(sigma=case["sigma"]),
             synthetic_circles(case["n"], case["seed"]).X)
    plan = SamplingPlan(np.array(case["idx"]), np.array(case["p"]))
    L = low_rank_dense(K, plan, 0.0)
    Lg = low_rank_dense(K, plan, case["gamma"])
    tol = 1e-12 * np.linalg.norm(K, 2)
    assert np.linalg.eigvalsh(K - L)[0] >= -tol
    assert np.linalg.eigvalsh(L - Lg)[0] >= -tol


CLI_COMMANDS = ("gen-data", "exact", "nkcca", "rcca", "error-curve",
                "speedup", "compare", "check-bounds")
CLI_TABLES = {"gen-data": "x.csv", "exact": "correlations.csv",
              "nkcca": "rank_path.csv", "rcca": "rcca.csv",
              "error-curve": "error_curve.csv", "speedup": "speedup.csv",
              "compare": "compare.csv", "check-bounds": "bounds.csv"}


# usual values of the numeric flags, then extreme ones
CLI_NUMBERS = {"sigma1": (["0.5", "1.0", "2.0"],
                          ["1e-200", "1e-155", "1e155", "1e200"]),
               "lambda1": (["1e-3", "0.1"], ["1e-300", "1e300"]),
               "gamma-mult": (["1.0", "10"], ["1e-300", "1e300"])}
CLI_NUMBERS["sigma2"] = CLI_NUMBERS["sigma1"]
CLI_NUMBERS["lambda2"] = CLI_NUMBERS["lambda1"]


@st.composite
def cli_argvs(draw):
    ranks = sorted(draw(st.sets(st.integers(1, 50), min_size=1, max_size=3)))
    seeds = sorted(draw(st.sets(st.integers(0, 5), min_size=1, max_size=2)))
    argv = [draw(st.sampled_from(CLI_COMMANDS)),
            "--n", str(draw(st.integers(1, 40))),
            "--tune-n", str(draw(st.integers(0, 3))),
            "--test-n", str(draw(st.integers(0, 3))),
            "--ranks", ",".join(map(str, ranks)),
            "--L", str(draw(st.integers(1, 4))),
            "--strategy", draw(st.sampled_from(["uniform", "ridge", "exact"])),
            "--sketch", str(draw(st.integers(0, 50))),
            "--select-n", draw(st.sampled_from(["600", "2", "5", "1"])),
            "--seeds", ",".join(map(str, seeds))]
    # a few flags take extreme values, so most runs get past the boundary
    extreme = draw(st.sets(st.sampled_from(list(CLI_NUMBERS)), max_size=2))
    for flag, (usual, extremes) in CLI_NUMBERS.items():
        pool = usual + extremes if flag in extreme else usual
        size = 1 if flag == "gamma-mult" else 2
        argv += [f"--{flag}", ",".join(draw(st.lists(
            st.sampled_from(pool), min_size=1, max_size=size, unique=True)))]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cli_argvs())
# sigma^2 overflows on every command that builds a kernel
@example(("nkcca --n 40 --ranks 21,28,37 --tune-n 3 --strategy ridge "
                "--sigma1 1e200").split())
@example(("error-curve --n 40 --ranks 21,28,37 --tune-n 3 "
                "--strategy ridge --sigma1 1e200").split())
@example(("speedup --n 40 --ranks 21,28,37 --tune-n 3 "
                "--strategy ridge --sigma1 1e200").split())
@example(("compare --n 40 --ranks 21,28,37 --tune-n 3 "
                "--strategy ridge --sigma1 1e200").split())
@example(("check-bounds --n 40 --ranks 21,28,37 --tune-n 3 "
                "--strategy ridge --sigma1 1e200").split())
# sigma^2 underflows to 0: the kernel divides 0 by -0
@example(("nkcca --n 3 --test-n 0 --strategy ridge --sketch 45 "
                "--sigma1 1e-200").split())
# every landmark column is NaN, so the gate rejects them all
@example(("check-bounds --n 27 --L 3 --sigma1 1e-200 "
                "--lambda1 1e-3,1e-1 --seeds 0,1").split())
# gamma = gamma_mult * lambda underflows to 0
@example(("compare --n 40 --ranks 5,40 --tune-n 3 --lambda1 1e-300 "
                "--gamma-mult 1e-300").split())
# gamma overflows, so every leverage score is 0
@example(("nkcca --n 10 --tune-n 2 --test-n 2 --ranks 3 --lambda1 1e300 "
                "--gamma-mult 1e300 --strategy ridge").split())
# model selection, or the RFF baseline, on one training point
@example("exact --n 20 --sigma1 0.5,1.0 --select-n 1".split())
@example("compare --n 1 --tune-n 2 --test-n 2 --ranks 1".split())
# error-curve runs t_error_norm's bidiagonalization
@example("error-curve --n 130 --ranks 20,60 --tune-n 3 --test-n 3".split())
# exact leverage with N gamma = 4e-299: the Cholesky of K + N gamma I has
# next to no shift
@example(("nkcca --n 40 --ranks 5,40 --tune-n 3 --strategy exact "
          "--sigma1 2.0 --lambda1 1e-300 --gamma-mult 1.0").split())
def test_cli_exits_cleanly_on_any_small_config(argv):
    """Every command on tiny data with extreme numbers exits 0, 2 or 3,
    never with a traceback, and a run that exits 0 leaves its table."""
    with tempfile.TemporaryDirectory() as out:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv + ["--out", out])
            except SystemExit as exc:   # argparse rejects a flag
                code = exc.code
        assert code in (0, 2, 3), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert (Path(out) / argv[0] / CLI_TABLES[argv[0]]).is_file()


@st.composite
def csv_cases(draw):
    rows = draw(st.integers(1, 40))
    # coordinates are mantissas times 10^e with |e| up to a per-file cap,
    # so most files get past the boundary check and some do not
    cap = draw(st.sampled_from([0, 3, 150, 200]))
    values = st.builds(lambda mant, exp: mant * 10.0 ** exp,
                       st.floats(-9.99, 9.99), st.integers(-cap, cap))
    views = []
    for _ in range(2):
        cols = draw(st.integers(1, 3))
        views.append(draw(st.lists(st.lists(values, min_size=cols,
                                            max_size=cols),
                                   min_size=rows, max_size=rows)))
    if draw(st.booleans()):
        train = draw(st.integers(0, rows))
        tune = draw(st.integers(0, rows - train))
        split = f"{train}:{tune}:{rows - train - tune}"
    else:
        split = ":".join(f"{v:.3g}" for v in draw(st.lists(
            st.floats(0.05, 1.0), min_size=3, max_size=3)))
    ranks = sorted(draw(st.sets(st.integers(1, 30), min_size=1, max_size=2)))
    argv = [draw(st.sampled_from(CLI_COMMANDS[1:])), "--split", split,
            "--ranks", ",".join(map(str, ranks)),
            "--L", str(draw(st.integers(1, 2))),
            "--strategy", draw(st.sampled_from(["uniform", "ridge"]))]
    return dict(argv=argv, x=views[0], y=views[1],
                header=draw(st.booleans()))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(csv_cases())
# a coordinate of 1e200 made the squared distances inf - inf = NaN, and
# compare ended in an eigh traceback
@example(dict(argv="compare --split 0.6:0.2:0.2 --ranks 5,10".split(),
              x=[[1e200, 0.0]] + [[i % 7, i % 5] for i in range(1, 40)],
              y=[[i % 3, i % 11] for i in range(40)], header=False))
def test_cli_exits_cleanly_on_any_small_csv(case):
    """Every command that reads data, on small CSV files with or without a
    header, magnitudes up to 1e+-200 and splits given as counts or
    fractions, exits 0, 2 or 3, never with a traceback, and a run that
    exits 0 leaves its table."""
    with tempfile.TemporaryDirectory() as out:
        paths = []
        for tag in ("x", "y"):
            path = Path(out) / f"{tag}.csv"
            lines = ["a,b"] if case["header"] else []
            lines += [",".join(map(repr, row)) for row in case[tag]]
            path.write_text("\n".join(lines) + "\n")
            paths.append(str(path))
        argv = case["argv"] + ["--dataset", "csv", "--csv-x", paths[0],
                               "--csv-y", paths[1], "--seeds", "0",
                               "--out", out]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert (Path(out) / argv[0] / CLI_TABLES[argv[0]]).is_file()

