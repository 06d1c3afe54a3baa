"""Scheme registry and trajectory integration in spectral coordinates.

Four schemes are provided. The Milstein-type pair consumes iterated
integrals; the Euler-type pair consumes plain increments:

    DFM: semigroup step with the second-order noise term realized through
         difference quotients of the diffusion at stage values, one stage
         per noise direction. Derivative-free.
    MIL: semigroup step with the second-order term assembled from the
         diffusion derivative.
    EES: exponential Euler, the DFM step without its stage-difference sum.
    LIE: linear implicit Euler; the semigroup factor is replaced by the
         diagonal resolvent 1/(1 + lambda_i h).

REGISTRY holds, per kind, the array kernel (one signature for all four),
the diagonal propagator, the Milstein-type flag and the per-step
functional-evaluation counts; config validation, the cost model, the
planner, the harness and the CLI all read it. `integrate` is the single
step entry point: a single step is m = 1.

The noise may carry a leading path axis, (P, m, k) increments and
(P, m, k, k) iterated integrals; the kernels then step all P paths as one
(P, n) state, and each path's result equals an unbatched call on its own
noise bit for bit. The problem's drift and diffusion compute their
per-dimension constants once and reuse them across steps.

All steps end inside the projected space, so trailing projection is a
no-op. Kernels are pure; an optional ledger records the functional
evaluations of one path per the cost model, whatever the batch size (the
Milstein derivative tensor is charged at K N^2 once per step, applications
being free). States are checked for finiteness every few hundred steps; a
non-finite path stops the integration with `NonFiniteState`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from .problems import ProblemSpec

__all__ = ["Scheme", "REGISTRY", "KINDS", "MILSTEIN_KINDS", "canonical_kind",
           "SchemeConfig", "NonFiniteState", "integrate"]


# --- array kernels ----------------------------------------------------------
# kernel(problem, y, db, iq, h, propagator, sqrt_eta, ledger) -> next state.
# y is the (P, n) state of P paths, db their (P, k) increments and iq their
# (P, k, k) iterated-integral matrices (None for the Euler-type kinds). The
# ledger is charged what one path's step costs, whatever P is.

def _drift_term(problem, y, h, ledger):
    if ledger is not None:
        ledger.charge_f(y.shape[-1])
    return y + h * problem.drift(y)


def _noise_term(bmat, sqrt_eta, db):
    # one matrix-vector product per path: (P, n, k) @ (P, k, 1)
    return (bmat @ (sqrt_eta * db)[..., None])[..., 0]


def _dfm_kernel(problem, y, db, iq, h, propagator, sqrt_eta, ledger):
    n, k = y.shape[-1], db.shape[-1]
    u = _drift_term(problem, y, h, ledger)
    bmat = problem.diffusion.matrix(y, n, k)
    u = u + _noise_term(bmat, sqrt_eta, db)
    stages = y[:, None, :] + np.swapaxes(bmat @ iq, -1, -2)
    stage_cols = problem.diffusion.stage_columns(stages, n)
    u = u + (stage_cols - bmat).sum(axis=-1)
    if ledger is not None:
        ledger.charge_b(2 * k * n)
        ledger.charge_unit(n)
    return propagator * u


def _mil_kernel(problem, y, db, iq, h, propagator, sqrt_eta, ledger):
    n, k = y.shape[-1], db.shape[-1]
    u = _drift_term(problem, y, h, ledger)
    bmat = problem.diffusion.matrix(y, n, k)
    u = u + _noise_term(bmat, sqrt_eta, db)
    # sum_ij iq[i,j] B'(y)(b_i, e_j) = sum_j B'(y)(dirs_j, e_j): the
    # derivative is linear in its direction
    dirs = bmat @ iq
    second = np.zeros_like(y)
    for j in range(1, k + 1):
        second += problem.diffusion.deriv_column(y, dirs[..., j - 1], j, n)
    u = u + second
    if ledger is not None:
        ledger.charge_b(k * n)
        ledger.charge_bprime(k * n * n)
        ledger.charge_unit(n)
    return propagator * u


def _euler_kernel(problem, y, db, iq, h, propagator, sqrt_eta, ledger):
    n, k = y.shape[-1], db.shape[-1]
    u = _drift_term(problem, y, h, ledger)
    bmat = problem.diffusion.matrix(y, n, k)
    u = u + _noise_term(bmat, sqrt_eta, db)
    if ledger is not None:
        ledger.charge_b(k * n)
        ledger.charge_unit(n)
    return propagator * u


def _decay(problem, n, h):
    return np.exp(-problem.a_law.values(n) * h)


def _resolvent(problem, n, h):
    return 1.0 / (1.0 + problem.a_law.values(n) * h)


# --- the registry -----------------------------------------------------------

@dataclass(frozen=True)
class Scheme:
    """One scheme kind: its step kernel, its diagonal propagator
    (problem, n, h) -> (n,), whether it consumes iterated integrals, and its
    per-step functional evaluations f = N, b = b_per_nk * N K and
    b' = bprime_per_n2k * N^2 K."""

    kernel: Callable
    propagator: Callable
    milstein: bool
    b_per_nk: int
    bprime_per_n2k: int


REGISTRY: Dict[str, Scheme] = {
    "DFM": Scheme(_dfm_kernel, _decay, milstein=True, b_per_nk=2, bprime_per_n2k=0),
    "MIL": Scheme(_mil_kernel, _decay, milstein=True, b_per_nk=1, bprime_per_n2k=1),
    "EES": Scheme(_euler_kernel, _decay, milstein=False, b_per_nk=1, bprime_per_n2k=0),
    "LIE": Scheme(_euler_kernel, _resolvent, milstein=False, b_per_nk=1, bprime_per_n2k=0),
}
KINDS = tuple(REGISTRY)
MILSTEIN_KINDS = tuple(kind for kind in KINDS if REGISTRY[kind].milstein)


def canonical_kind(kind: str) -> str:
    """Upper-cased registry kind; ValueError for anything else."""
    upper = kind.upper()
    if upper not in REGISTRY:
        raise ValueError(f"unknown scheme kind {kind!r} (expected one of {', '.join(KINDS)})")
    return upper


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme kind plus the discretization triple (N, K, M) on [0, T]."""

    kind: str
    n: int
    k: int
    m: int
    d: Optional[int] = None
    horizon: float = 1.0

    def __post_init__(self):
        kind = canonical_kind(self.kind)
        object.__setattr__(self, "kind", kind)
        if self.m < 1:
            raise ValueError("need at least one time step")
        if not 1 <= self.k <= self.n:
            raise ValueError("need 1 <= K <= N")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if REGISTRY[kind].milstein:
            if self.d is None or self.d < 1:
                raise ValueError(f"{kind} needs a series depth d >= 1")
        elif self.d is not None:
            raise ValueError(f"{kind} takes no series depth")

    @property
    def h(self) -> float:
        return self.horizon / self.m


# --- trajectory integration -------------------------------------------------

# integrate checks the states for finiteness once per this many steps
_FINITE_CHECK_STEPS = 256


class NonFiniteState(ValueError):
    """A path's state turned non-finite during `integrate`; `path` is its
    index in the batch (0 for an unbatched call)."""

    def __init__(self, kind: str, path: int, step: int):
        super().__init__(f"non-finite {kind} state on path {path} of the batch "
                         f"by step {step}")
        self.kind, self.path, self.step = kind, path, step

    def __reduce__(self):
        return type(self), (self.kind, self.path, self.step)


def _check_finite(states: np.ndarray, kind: str, step: int) -> None:
    finite = np.isfinite(states).reshape(states.shape[0], -1).all(axis=1)
    if not finite.all():
        raise NonFiniteState(kind, int(np.argmin(finite)), step)


def integrate(config: SchemeConfig, problem: ProblemSpec, db: np.ndarray,
              iq: Optional[np.ndarray] = None, *, ledger=None,
              store: str = "trajectory", capture=None):
    """Iterate the configured scheme from the projected initial value.

    The noise may carry a leading path axis: P paths are then stepped
    together as one (P, n) state, and every result gains that axis. Each
    path's result equals, bit for bit, an unbatched call on its own noise.

    Args:
        db: (m, k) or (P, m, k) standard Brownian increments on the uniform
            grid.
        iq: (m, k, k) or (P, m, k, k) covariance-scaled iterated integrals,
            required by the Milstein-type kinds and refused by the
            Euler-type ones.
        ledger: optional cost ledger charged with the functional
            evaluations of every step of one path (noise draws are charged
            where the noise is drawn).
        store: "trajectory" returns an (m+1, n) or (P, m+1, n) coefficient
            array, "final" just the (n,) or (P, n) terminal state.
        capture: optional collection of step indices; if given, a dict
            index -> state copy ((n,) or (P, n)) is returned alongside the
            main result.

    Returns:
        array, or (array, captures) when capture is not None. Deterministic
        given the noise.

    Raises:
        NonFiniteState: some path's state is not finite. The states are
            checked every few hundred steps and at the end; stepping stops
            at the first block that fails, under suppressed overflow and
            invalid-value warnings.
    """
    if store not in ("trajectory", "final"):
        raise ValueError("store must be 'trajectory' or 'final'")
    n, k, m, h = config.n, config.k, config.m, config.h
    scheme = REGISTRY[config.kind]
    db = np.ascontiguousarray(db, dtype=float)
    batched = db.ndim == 3
    lead = db.shape[:1] if batched else ()
    if db.shape != lead + (m, k):
        raise ValueError(f"increments have shape {db.shape}, config needs {lead + (m, k)}")
    if scheme.milstein:
        if iq is None:
            raise ValueError(f"{config.kind} needs iterated integrals")
        iq = np.ascontiguousarray(iq, dtype=float)
        if iq.shape != lead + (m, k, k):
            raise ValueError(f"iterated integrals have shape {iq.shape}, "
                             f"config needs {lead + (m, k, k)}")
    elif iq is not None:
        raise ValueError(f"{config.kind} takes no iterated integrals")
    if not batched:
        db = db[None]
        iq = None if iq is None else iq[None]
    p = db.shape[0]
    y = np.tile(np.asarray(problem.initial_coeffs(n), dtype=float), (p, 1))
    sqrt_eta = np.sqrt(problem.q_law.values(k))
    propagator = scheme.propagator(problem, n, h)
    kernel = scheme.kernel
    traj = None
    if store == "trajectory":
        traj = np.empty((p, m + 1, n))
        traj[:, 0] = y
    captures = {} if capture is not None else None
    capture_set = set(capture) if capture is not None else ()
    if 0 in capture_set:
        captures[0] = y.copy()
    checked = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, m + 1):
            iq_step = None if iq is None else iq[:, step - 1]
            y = kernel(problem, y, db[:, step - 1], iq_step, h, propagator, sqrt_eta, ledger)
            if traj is not None:
                traj[:, step] = y
            if step in capture_set:
                captures[step] = y.copy()
            if step % _FINITE_CHECK_STEPS == 0 or step == m:
                _check_finite(y if traj is None else traj[:, checked:step + 1],
                              config.kind, step)
                checked = step + 1
    result = traj if store == "trajectory" else y
    if not batched:
        result = result[0]
        if captures is not None:
            captures = {step: state[0] for step, state in captures.items()}
    if capture is not None:
        return result, captures
    return result
