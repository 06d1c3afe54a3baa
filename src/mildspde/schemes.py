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
functional-evaluation counts (`Scheme.evals`); config validation, the cost
model, the planner, the harness and the CLI all read it. `integrate` is
the single step entry point: a single step is m = 1, and it returns the
states at the steps its caller asks for (`at`).

The noise may carry a leading path axis, (P, m, k) increments and
(P, m, k, k) iterated integrals; the kernels then step all P paths as one
(P, n) state, and each path's result equals an unbatched call on its own
noise bit for bit. The problem's drift and diffusion compute their
per-dimension constants once and reuse them across steps, and `integrate`
scales the increments by sqrt(eta) once per call. DFM and MIL put one
batched question each to the diffusion, in the same K directions
dirs_j = (B(y) iq)^T_j: DFM asks for its stage values B(y + dirs_j) e_j
(`stage_columns`), MIL for B'(y)(dirs_j, e_j) (`deriv_column`), so neither
step's count of numpy calls grows with K.

A call may continue a trajectory: given a state y0, it takes the next
s <= m steps of the grid from there, so calls chained through their last
states equal one call bit for bit. All steps end inside the projected
space, so trailing projection is a no-op. Kernels are pure. `integrate`
bills an optional ledger once per call with the steps taken times
`Scheme.evals`, the cost of one path whatever the batch size (the
Milstein derivative tensor is billed at K N^2 once per step, applications
being free). The current state is checked for finiteness every few
hundred steps; a non-finite path stops the integration with
`NonFiniteState`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .exactmath import _check_integers
from .problems import ProblemSpec

__all__ = ["Scheme", "REGISTRY", "KINDS", "MILSTEIN_KINDS", "canonical_kind",
           "SchemeConfig", "NonFiniteState", "integrate"]


# --- array kernels ----------------------------------------------------------
# kernel(problem, y, dw, iq, h, propagator) -> next state.
# y is the (P, n) state of P paths, dw their (P, k) covariance-scaled
# increments sqrt(eta) db and iq their (P, k, k) iterated-integral matrices
# (None for the Euler-type kinds). A kernel writes in place only into the
# arrays it made itself, never into y, dw or what the problem returns.

def _euler_part(problem, y, dw, h):
    # y + h F(y) + B(y) dw, and B(y) itself; the matrix-vector product runs
    # once per path: (P, n, k) @ (P, k, 1)
    bmat = problem.diffusion.matrix(y, y.shape[-1], dw.shape[-1])
    u = h * problem.drift(y)
    u += y
    u += (bmat @ dw[..., None])[..., 0]
    return u, bmat


def _dfm_kernel(problem, y, dw, iq, h, propagator):
    # sum_j [B(y + dirs_j) e_j - B(y) e_j] with the stage directions
    # dirs_j = (B(y) iq)^T_j; the diffusion forms the stage values it needs
    u, bmat = _euler_part(problem, y, dw, h)
    dirs = np.swapaxes(bmat @ iq, -1, -2)
    u += (problem.diffusion.stage_columns(y, dirs, y.shape[-1]) - bmat).sum(axis=-1)
    u *= propagator
    return u


def _mil_kernel(problem, y, dw, iq, h, propagator):
    # sum_ij iq[i,j] B'(y)(b_i, e_j) = sum_j B'(y)(dirs_j, e_j): the
    # derivative is linear in its direction. One call returns the K
    # terms as (P, K, n) rows, added in column order from the first.
    u, bmat = _euler_part(problem, y, dw, h)
    dirs = np.swapaxes(bmat @ iq, -1, -2)
    u += problem.diffusion.deriv_column(y, dirs, y.shape[-1]).sum(axis=-2)
    u *= propagator
    return u


def _euler_kernel(problem, y, dw, iq, h, propagator):
    u = _euler_part(problem, y, dw, h)[0]
    u *= propagator
    return u


def _decay(problem, n, h):
    return np.exp(-problem.a_law.values(n) * h)


def _resolvent(problem, n, h):
    return 1.0 / (1.0 + problem.a_law.values(n) * h)


# --- the registry -----------------------------------------------------------

@dataclass(frozen=True)
class Scheme:
    """One scheme kind: its step kernel, its diagonal propagator
    (problem, n, h) -> (n,), whether it consumes iterated integrals, and the
    multiples of N K and N^2 K in its per-step evaluations of b and b'."""

    kernel: Callable
    propagator: Callable
    milstein: bool
    b_per_nk: int
    bprime_per_n2k: int

    def evals(self, n: int, k: int) -> Tuple[int, int, int]:
        """Functional evaluations (f, b, b') of one step of one path."""
        return n, self.b_per_nk * n * k, self.bprime_per_n2k * n * n * k


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


def _check_resolution(role: str, kind: str, n, k, m) -> str:
    """The canonical kind; ValueError naming the role ("row", ...) unless
    N, K and M are integers with 1 <= K <= N and M >= 1."""
    kind = canonical_kind(kind)
    _check_integers(N=n, K=k, M=m)
    if not 1 <= k <= n or m < 1:
        raise ValueError(f"{role} needs 1 <= K <= N and M >= 1, got N={n}, K={k}, M={m}")
    return kind


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme kind plus the discretization triple (N, K, M); the M steps
    span the problem's horizon."""

    kind: str
    n: int
    k: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "kind",
                           _check_resolution("scheme", self.kind, self.n, self.k, self.m))


# --- trajectory integration -------------------------------------------------

# integrate checks the state for finiteness once per this many steps
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


def _observation_steps(at, m: int) -> np.ndarray:
    if at is None:
        return np.arange(m + 1)
    steps = np.asarray(at)
    if (steps.ndim != 1 or steps.size == 0 or steps.dtype.kind not in "iu"
            or steps[0] < 0 or steps[-1] > m or np.any(np.diff(steps) <= 0)):
        raise ValueError(f"at must be a non-empty increasing sequence of step "
                         f"indices in 0..{m}")
    return steps


def integrate(config: SchemeConfig, problem: ProblemSpec, db: np.ndarray,
              iq: Optional[np.ndarray] = None, *, ledger=None, at=None,
              y0=None) -> np.ndarray:
    """States of the configured scheme at the increasing step indices `at`
    (default: every step 0..s), stepped from the projected initial value or
    from the state y0.

    db holds (s, k) standard Brownian increments on the uniform grid of step
    h = problem.horizon / m, iq the (s, k, k) covariance-scaled iterated
    integrals that the Milstein-type kinds require and the Euler-type ones
    refuse. From the initial value s is the grid's m; from y0, the call
    continues a trajectory by any s <= m of its steps, and step 0 is y0. With a leading path axis on both, P
    paths are stepped together as one (P, n) state, and each path's result
    equals, bit for bit, an unbatched call on its own noise. y0 is one (n,)
    state, or with a path axis (P, n) states or one (n,) state for every
    path; it must be finite.

    Returns the (len(at), n) or (P, len(at), n) states; stepping stops at
    at[-1]. A ledger is billed the functional evaluations of those steps
    for one path (noise draws are billed where the noise is drawn).

    Raises NonFiniteState when some path's state is not finite: the state
    is checked every few hundred steps of the call and at its last one, and
    stepping stops at the first check that fails, under suppressed overflow
    and invalid-value warnings.
    """
    n, k, m = config.n, config.k, config.m
    h = problem.horizon / m
    scheme = REGISTRY[config.kind]
    db = np.ascontiguousarray(db, dtype=float)
    batched = db.ndim == 3
    lead = db.shape[:1] if batched else ()
    s = m
    if y0 is not None and db.ndim in (2, 3) and db.shape[-2] <= m:
        s = db.shape[-2]
    if db.shape != lead + (s, k):
        want = m if y0 is None else f"s <= {m}"
        raise ValueError(f"increments have shape {db.shape}, config needs "
                         f"{lead + (want, k)}")
    steps = _observation_steps(at, s)
    if scheme.milstein:
        if iq is None:
            raise ValueError(f"{config.kind} needs iterated integrals")
        iq = np.ascontiguousarray(iq, dtype=float)
        if iq.shape != lead + (s, k, k):
            raise ValueError(f"iterated integrals have shape {iq.shape}, "
                             f"config needs {lead + (s, k, k)}")
    elif iq is not None:
        raise ValueError(f"{config.kind} takes no iterated integrals")
    if not batched:
        db = db[None]
        iq = None if iq is None else iq[None]
    marks = steps.tolist()
    p, last = db.shape[0], marks[-1]
    if y0 is None:
        y = np.tile(np.asarray(problem.initial_coeffs(n), dtype=float), (p, 1))
    else:
        y = np.asarray(y0, dtype=float)
        if y.shape not in {(n,), lead + (n,)}:
            raise ValueError(f"y0 has shape {y.shape}, config needs {lead + (n,)}"
                             + (f" or {(n,)}" if batched else ""))
        if not np.isfinite(y).all():
            raise ValueError("y0 must be finite")
        y = np.tile(y, (p, 1)) if y.ndim == 1 else y
    dw = np.sqrt(problem.q_law.values(k)) * db
    propagator = scheme.propagator(problem, n, h)
    out = np.empty((p, steps.size, n))
    slot = 0
    if marks[0] == 0:
        out[:, 0] = y
        slot = 1
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, last + 1):
            iq_step = None if iq is None else iq[:, step - 1]
            y = scheme.kernel(problem, y, dw[:, step - 1], iq_step, h, propagator)
            if marks[slot] == step:
                out[:, slot] = y
                slot += 1
            if step % _FINITE_CHECK_STEPS == 0 or step == last:
                finite = np.isfinite(y).all(axis=1)
                if not finite.all():
                    raise NonFiniteState(config.kind, int(np.argmin(finite)), step)
    if ledger is not None:
        f, b, bprime = scheme.evals(n, k)
        ledger.charge_f(last * f)
        ledger.charge_b(last * b)
        ledger.charge_bprime(last * bprime)
        ledger.charge_unit(last * n)
    return out if batched else out[0]
