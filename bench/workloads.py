"""The benchmark's three workloads.

Each workload makes a fixed number of input instances from a seed
(``setup``), runs a timed body on one instance through the public nkcca API
(``body``) and checks the body's outputs against an independent reference
outside the timed region (``check``). The body calls the library only
through module attributes (``nk.name``, ``nk_kcca.name``), so a traced run
sees every call.

The work of a rank path depends on its data: the landmarks the gate keeps
and the number of ARPACK iterations vary from one data set to the next. A
run of rank_path or ridge_compare therefore times several independent
instances drawn from its seed, rather than one instance several times, so
its figures average over data sets.

Why these three:

* ``rank_path``: the CLI/acceptance rank path (N=3000, uniform plans, L=1,
  19 checkpoints of 50-column blocks). Dominated by the checkpoint SVD and
  the Cholesky/QR block appends; the leverage layer does no work.
* ``ridge_compare``: the ``compare`` protocol (sketched ridge leverage,
  L=4, four 250-column blocks, out-of-sample scoring of every checkpoint on
  3000 held-out pairs, and the RFF-CCA baseline at the same ranks).
* ``dense_reference``: the ``error-curve`` protocol against the dense exact
  solver (exact leverage, ``exact_kcca(keep_t=True)``, ``t_error_norm`` at
  every checkpoint) plus the ``check-bounds`` protocol at N=400; the only
  workload for the dense verifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import scipy.linalg

import nkcca as nk
from nkcca import kcca as nk_kcca

# The dense_reference training set is one fixed reference problem (the CLI's
# default data seed); --seed draws its sampling plans, held-out points and
# bound-check problem. scipy's default eigh driver is bimodal over ring data
# sets at N=2000, sigma=0.2 (about 1.3 s or 7.4 s on view 1, one thread), so
# a training set drawn from the seed would make run_s bimodal across seeds.
# Data seed 0 hits the slow case, so a change of eigh driver shows on every
# run.
REFERENCE_DATA_SEED = 0

RHO_TOL = 1e-8        # |rho_incremental - rho_restart| (criteria 2 and 3)
ANGLE_TOL = 1e-6      # principal angles against the restart (criterion 2)
DEFF_RTOL = 1e-8      # sum of exact leverage scores vs effective_dimension
BOUND_T = 0.9         # ||D|| gate of the check-bounds protocol


def _streams(seed: int, tag: int, instance: int) -> list[int]:
    """Independent integer seeds for one instance, derived from --seed."""
    return [int(s) for s in
            np.random.SeedSequence([seed, tag, instance]).generate_state(32)]


def _test_corr(model, X, Y) -> float:
    return nk.total_correlation(nk.project_many(model, X, 1),
                                nk.project_many(model, Y, 2))


def _max_angle(a, b) -> float:
    return float(scipy.linalg.subspace_angles(a, b).max())


@dataclass
class FitRecord:
    """One nkcca_fit call of the body: its rank path and the plans it used."""

    entries: list
    plan1: object
    plan2: object


@dataclass
class Result:
    """What a body returns; ``fits`` feeds the path and waste counters."""

    fits: list[FitRecord]
    rho: np.ndarray                     # compared across repeats
    test_corr: float
    extra: dict = field(default_factory=dict)
    reports: list = field(default_factory=list)


class Workload:
    name = ""
    tag = 0
    full: dict = {}
    tiny: dict = {}

    def __init__(self, tiny: bool = False):
        self.cfg = SimpleNamespace(**(self.tiny if tiny else self.full))

    def setup(self, seed: int) -> list:
        """The run's input instances, each from its own seed stream."""
        return [self.instance(_streams(seed, self.tag, i))
                for i in range(self.cfg.instances)]

    def _restart_check(self, inp, out: Result):
        """|drho| and the largest principal angle against a restart at the
        final checkpoint."""
        c = self.cfg
        fit = out.fits[0]
        direct = nk.nkcca_fit_direct(inp.o1, inp.o2, fit.plan1, fit.plan2,
                                     c.lam, c.lam, c.L,
                                     compute_coefficients=False)
        model = fit.entries[-1].model
        drho = float(np.abs(direct.rho_tilde - out.rho).max())
        angle = max(_max_angle(model.alpha_prime, direct.model.alpha_prime),
                    _max_angle(model.beta_prime, direct.model.beta_prime))
        return drho, angle


class RankPath(Workload):
    name = "rank_path"
    tag = 1
    full = dict(instances=4, n=3000, n_test=1000, sigma=0.2, lam=1e-3, L=1,
                m=1000, checkpoints=list(range(100, 1001, 50)))
    tiny = dict(instances=2, n=300, n_test=100, sigma=0.2, lam=1e-3, L=1,
                m=100, checkpoints=list(range(10, 101, 10)))

    def instance(self, s: list[int]):
        c = self.cfg
        train = nk.synthetic_circles(c.n, s[0])
        spec = nk.KernelSpec(sigma=c.sigma)
        uniform = nk.SamplingDistribution(p=np.full(c.n, 1.0 / c.n))
        return SimpleNamespace(
            test=nk.synthetic_circles(c.n_test, s[1]),
            o1=nk.KernelColumns.from_data(spec, train.X),
            o2=nk.KernelColumns.from_data(spec, train.Y),
            plan1=nk.sample(uniform, c.m, seed=s[2]),
            plan2=nk.sample(uniform, c.m, seed=s[3]))

    def body(self, inp, clock) -> Result:
        c = self.cfg
        entries = nk.nkcca_fit(inp.o1, inp.o2, inp.plan1, inp.plan2, c.lam,
                               c.lam, c.L, c.checkpoints,
                               on_checkpoint=clock.hook())
        final = entries[-1]
        return Result(fits=[FitRecord(entries, inp.plan1, inp.plan2)],
                      rho=final.rho_tilde,
                      test_corr=_test_corr(final.model, inp.test.X,
                                           inp.test.Y))

    def check(self, inp, out: Result):
        """Criterion 3's tolerance against a restart at the final
        checkpoint."""
        drho, _ = self._restart_check(inp, out)
        return drho <= RHO_TOL, [f"|drho| vs restart = {drho:.3e} "
                                 f"(tol {RHO_TOL:g})"]


class RidgeCompare(Workload):
    name = "ridge_compare"
    tag = 2
    full = dict(instances=2, n=3000, n_test=3000, sigma=0.3, lam=1e-3,
                gamma_mult=10.0, sketch=1200, L=4, m=1000,
                checkpoints=[250, 500, 750, 1000])
    tiny = dict(instances=2, n=300, n_test=300, sigma=0.3, lam=1e-3,
                gamma_mult=10.0, sketch=120, L=4, m=100,
                checkpoints=[25, 50, 75, 100])

    def instance(self, s: list[int]):
        c = self.cfg
        train = nk.synthetic_circles(c.n, s[0])
        spec = nk.KernelSpec(sigma=c.sigma)
        return SimpleNamespace(
            train=train, test=nk.synthetic_circles(c.n_test, s[1]),
            o1=nk.KernelColumns.from_data(spec, train.X),
            o2=nk.KernelColumns.from_data(spec, train.Y), streams=s)

    def body(self, inp, clock) -> Result:
        c = self.cfg
        s = inp.streams
        gamma = c.gamma_mult * c.lam
        dists = [nk.make_distribution(nk.approx_leverage(o, gamma, c.sketch,
                                                         seed=sk))
                 for o, sk in ((inp.o1, s[4]), (inp.o2, s[5]))]
        plan1 = nk.sample(dists[0], c.m, seed=s[2])
        plan2 = nk.sample(dists[1], c.m, seed=s[3])
        entries = nk.nkcca_fit(inp.o1, inp.o2, plan1, plan2, c.lam, c.lam,
                               c.L, c.checkpoints, on_checkpoint=clock.hook())
        X, Y = inp.test.X, inp.test.Y
        nkcca_corr = [_test_corr(e.model, X, Y) for e in entries]
        rcca_corr = []
        for rank in c.checkpoints:
            _, project = nk.rcca_fit(inp.train.X, inp.train.Y, c.sigma,
                                     c.sigma, rank, c.lam, c.lam, c.L,
                                     seed=s[6])
            rcca_corr.append(nk.total_correlation(*project(X, Y)))
        return Result(fits=[FitRecord(entries, plan1, plan2)],
                      rho=entries[-1].rho_tilde, test_corr=nkcca_corr[-1],
                      extra={"nkcca_test_corr": nkcca_corr,
                             "rcca_test_corr": rcca_corr})

    def check(self, inp, out: Result):
        """Criterion 2's tolerances against a restart at the final rank."""
        drho, angle = self._restart_check(inp, out)
        notes = [f"|drho| vs restart = {drho:.3e} (tol {RHO_TOL:g}), "
                 f"max principal angle = {angle:.3e} (tol {ANGLE_TOL:g})",
                 "test_corr by rank: nkcca " + " ".join(
                     f"{v:.4f}" for v in out.extra["nkcca_test_corr"])
                 + " | rcca " + " ".join(
                     f"{v:.4f}" for v in out.extra["rcca_test_corr"])]
        return drho <= RHO_TOL and angle <= ANGLE_TOL, notes


class DenseReference(Workload):
    name = "dense_reference"
    tag = 3
    full = dict(instances=1, n=2000, n_test=2000, sigma=0.2, lam=1e-3,
                gamma_mult=10.0, L=1, m=500,
                checkpoints=list(range(50, 501, 50)), sweeps=5,
                bound_n=400, bound_test=200, bound_seeds=3)
    tiny = dict(instances=1, n=300, n_test=100, sigma=0.2, lam=1e-3,
                gamma_mult=10.0, L=1, m=50, checkpoints=list(range(5, 51, 5)),
                sweeps=2, bound_n=100, bound_test=50, bound_seeds=3)

    def instance(self, s: list[int]):
        c = self.cfg
        spec = nk.KernelSpec(sigma=c.sigma)
        train = nk.synthetic_circles(c.n, REFERENCE_DATA_SEED)
        small = nk.synthetic_circles(c.bound_n, s[0])
        return SimpleNamespace(
            test=nk.synthetic_circles(c.n_test, s[1]),
            o1=nk.KernelColumns.from_data(spec, train.X),
            o2=nk.KernelColumns.from_data(spec, train.Y),
            b1=nk.KernelColumns.from_data(spec, small.X),
            b2=nk.KernelColumns.from_data(spec, small.Y),
            bound_test=nk.synthetic_circles(c.bound_test, s[2]).X,
            plan_seeds=s[3:3 + 2 * c.sweeps],
            bound_seeds=s[3 + 2 * c.sweeps:3 + 2 * (c.sweeps + c.bound_seeds)])

    def body(self, inp, clock) -> Result:
        c = self.cfg
        gamma = c.gamma_mult * c.lam
        K1, K2 = inp.o1.dense(), inp.o2.dense()
        lev = (nk.exact_leverage(K1, gamma), nk.exact_leverage(K2, gamma))
        exact = nk.exact_kcca(K1, K2, c.lam, c.lam, L=c.L, keep_t=True,
                              view1=inp.o1, view2=inp.o2)
        d1, d2 = (nk.make_distribution(scores) for scores in lev)

        # error-curve protocol: t_error_norm and |rho - rho~| per checkpoint
        fits, rho_err, t_err, corr = [], [], [], []
        for j in range(c.sweeps):
            plan1 = nk.sample(d1, c.m, seed=inp.plan_seeds[2 * j])
            plan2 = nk.sample(d2, c.m, seed=inp.plan_seeds[2 * j + 1])
            errs: list[float] = []

            def measure(entry, f1, f2, core):
                errs.append(nk_kcca.t_error_norm(exact.t_matrix, f1, f2, core))

            entries = nk.nkcca_fit(inp.o1, inp.o2, plan1, plan2, c.lam, c.lam,
                                   c.L, c.checkpoints,
                                   on_checkpoint=clock.hook(measure))
            fits.append(FitRecord(entries, plan1, plan2))
            rho_err.append(abs(float(exact.rho[0] - entries[-1].rho_tilde[0])))
            t_err.append(errs[-1])
            corr.append(_test_corr(entries[-1].model, inp.test.X, inp.test.Y))

        # check-bounds protocol at small N; like the CLI, its rank is the
        # largest error-curve rank capped at N - 1
        B1, B2 = inp.b1.dense(), inp.b2.dense()
        exact_b = nk.exact_kcca(B1, B2, c.lam, c.lam, L=1, keep_t=True,
                                view1=inp.b1, view2=inp.b2)
        db1 = nk.make_distribution(nk.exact_leverage(B1, gamma))
        db2 = nk.make_distribution(nk.exact_leverage(B2, gamma))
        rank = min(c.m, c.bound_n - 1)
        reports = []
        for j in range(c.bound_seeds):
            p1 = nk.sample(db1, rank, seed=inp.bound_seeds[2 * j])
            p2 = nk.sample(db2, rank, seed=inp.bound_seeds[2 * j + 1])
            reports.append(nk.psd_ordering_check(B1, p1, gamma))
            reports.append(nk.tail_bound_check(B1, p1, gamma, BOUND_T))
            reports.append(nk.projection_error_check(B1, p1, gamma, c.lam,
                                                     BOUND_T))
            reports.append(nk.correlation_error_check(
                B1, B2, (p1, p2), (c.lam, c.lam), (gamma, gamma), BOUND_T,
                BOUND_T))
            approx = nk.nkcca_fit_direct(inp.b1, inp.b2, p1, p2, c.lam, c.lam,
                                         L=1, keep_t=True)
            reports.extend(nk.stability_check(exact_b, approx.model,
                                              inp.bound_test, c=1.0))

        return Result(fits=fits,
                      rho=np.array([f.entries[-1].rho_tilde[0] for f in fits]),
                      test_corr=float(np.mean(corr)), reports=reports,
                      extra={"leverage": lev, "rho_err": rho_err,
                             "t_err": t_err})

    def check(self, inp, out: Result):
        """Every applicable bound report holds, at least one applies, and
        the exact leverage scores sum to an independently computed
        effective dimension."""
        c = self.cfg
        gamma = c.gamma_mult * c.lam
        applicable = [r for r in out.reports if r.applicable]
        bounds_ok = bool(applicable) and all(r.holds for r in applicable)
        deff_err = 0.0
        for oracle, scores in zip((inp.o1, inp.o2), out.extra["leverage"]):
            ref = nk.effective_dimension(oracle.dense(), gamma)
            deff_err = max(deff_err, abs(float(scores.scores.sum()) - ref) / ref)
        notes = [f"bound reports: {len(applicable)} of {len(out.reports)} "
                 f"applicable, {sum(r.holds for r in applicable)} hold",
                 f"sum of leverage scores vs effective_dimension: rel err "
                 f"{deff_err:.3e} (tol {DEFF_RTOL:g})",
                 "t_error_norm at the final rank, per sweep: "
                 + " ".join(f"{v:.4g}" for v in out.extra["t_err"])]
        return bounds_ok and deff_err <= DEFF_RTOL, notes


WORKLOADS = {w.name: w for w in (RankPath, RidgeCompare, DenseReference)}
