"""Splitting solver for sums of proximable terms.

Minimizes f_1(K_1 x) + ... + f_K(K_K x), where each term gives the prox of
its f_i and, optionally, a linear map K_i and the value of f_i for the
objective trace.

One loop serves every term list: with exactly one term g without a map,
the relaxed primal-dual iteration of Condat (JOTA 2013; Chambolle & Pock
2011 at theta = 1), one dual u_i per mapped term,

    x~  = prox_{tau g}(x_t - tau sum_i K_i^T u_{t,i})
    u~_i = prox_{sigma f_i^*}(u_{t,i} + sigma K_i (2 x~ - x_t))
    (x_{t+1}, u_{t+1}) = (x_t, u_t) + theta ((x~, u~) - (x_t, u_t))

which at theta = 1 is (x~, u~) itself, taken so with no relaxation pass.
Here tau = mu and sigma = 0.99 / (tau sum_i ||K_i||^2) from the maps'
declared spectral bounds. A term's ``conj`` writes its dual prox
prox_{sigma f_i^*} into the term's part of the dual stack; a term without
one gets Moreau's identity from its own prox,
prox_{sigma f^*}(v) = v - sigma prox_{f / sigma}(v / sigma). No prox has an
inner loop. Iteration stops when both the primal relative change and the
duals' change drop to ``tol``. The primal change is theta ||x~ - x_t||,
which is ||x_{t+1} - x_t|| (up to round-off at theta != 1), relative to
||x_t||. The duals' change is the shift they make in the primal step,
tau ||sum_i K_i^T (u_{t+1,i} - u_{t,i})||, relative to
max(||x_t||, ||x_{t+1}||): finite from zero duals, and +inf while the duals
move an iterate that sits at zero, so such an iterate never stops the run.

A list without maps makes its first term g and puts the others behind the
identity. A lone term has no duals, and the loop is the proximal-point step
x_{t+1} = x_t + theta (prox_{tau g}(x_t) - x_t).

The duals are one flat stack, u_i a slice of it, as are the K_i x_bar
(``MapStack``): each linear step on them is one numpy call over a part
of the stack (on one thread the whole stack), and only the proxes run
term by term. The loop allocates its arrays once per solve and then only
writes into them, and one finite check over each updated part of the
dual stack covers its dual proxes: its sum, with a scan only when that is
not finite. The primal update reads one difference d = x~ - x_t, and the
change and the primal finite check come from d . d.
At theta = 1, x_{t+1} is a copy of x~, x_bar = x~ + d and u_{t+1} = u~ by
a swap of the dual stack's two buffers; otherwise x_{t+1} = x_t + theta d,
x_bar = x_t + 2 d and u_{t+1} = u_t + theta (u~ - u_t) in place. Each step
is one ufunc, FFT pass or array method, never a dispatch wrapper such as
``np.linalg.norm`` (a norm is ``math.sqrt(a.dot(a))``, its arithmetic) or
``np.all``.

The primal steps run one block of the variable's bands at a time
(``MapStack.blocks``) inside the stack's two calls, so that a block's
arrays are still in cache for the next step, and the dual steps run in
the same calls, on parts of the dual stack, by the stack's hook rule.
g's prox always lands in x_{t+1}'s buffer: a separable g's
(``ProxTerm.separable``; both priors of ``deconvolve`` declare theirs)
block by block in apply's hand, any other g's once on the whole vector
before the call. apply's fill then takes, per block and before its
forward transform, d, its square and the finite check, x_{t+1}, x_bar and
||x_{t+1}||^2, and its drain, per part once it is written, the carried
K x (see below) and v = sigma K x_bar + u_t. adjoint's hand takes, per
part, the duals' proxes, their finite check and u_{t+1}; its meanwhile
the objective trace, every term's value on the whole iterate; its drain,
per block after its inverse transform, the block's part of the duals'
shift and the next gradient step x_{t+1} - tau sum_i K_i^T u_{t+1,i},
into the spent x_t buffer. The stack's plan rule (``MapStack``) sets the
parts: on one thread the dual stack is one part, and the steps run in
the order of the equations above. The first gradient step is taken
before the loop, the last iteration takes none, and one that the
stopping rule ends discards it. The iterates and the objective
trace do not depend on the blocks. fill and drain keep each block's parts
of the three norms, which the loop sums after each call, in block order,
so the change traces round by the blocks.

Where the stack hands blocks to a worker (a stack of more than one block
of large bands on two CPUs; ``MapStack`` states which parts the worker
takes), the loop runs inside ``MapStack.threads``, each part of the dual
stack is one map's image, and the worker fills and drains some blocks
and drains some images. The loop does not ask which: a block's hooks
write only that block's parts, so the iterates and every trace keep
their one-thread bits.
adjoint's hand takes the dual steps image by image, the last term's first
while the worker is parked (the positivity's, in a synthesis solve of
``deconvolve``), and the worker transforms each image once its step is
done. Every term's callback, and so every function a term looks up by
name, runs in a hand or in meanwhile, on the solve's thread; a block's
or an image's finite check raises there too, naming the term and the
iteration. Only when two dual images turn non-finite in one iteration
does the term depend on the threads: one thread names the first term in
term order (the data fidelity), two threads the first image checked,
the last term's (the positivity). The worker is joined when the solve
returns or raises.

The objective trace costs no map: x_{t+1} = x_t + (theta / 2)(x_bar - x_t)
with x_bar = 2 x~ - x_t, or (x_bar + x_t) / 2 at theta = 1, so the loop
carries K_i x by linearity from the K_i x_bar the duals need. After the
loop the solve's one ``MapStack`` recomputes K_i x exactly, for the last
entry and ``SplittingState.images``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteIterateError
from .operators import (LinearOperator, MapStack, _check_count,
                        _check_nonnegative, _check_positive, _flat64,
                        identity_operator)

Array = np.ndarray


@dataclass(frozen=True)
class ProxTerm:
    """One summand f(op v), or f(v) without ``op``: ``prox(point, scale)``
    must return prox_{scale * f}(point), the prox of f itself, and
    ``value(point)`` f(point). An indicator leaves ``value`` None and counts
    0 in the objective trace.

    ``conj(v, sigma)``, read only for a term with a map, must overwrite v,
    the term's part of the dual stack, with prox_{sigma f*}(v), the prox of
    f's conjugate. Without it the solver takes Moreau's identity,
    v - sigma prox_{f / sigma}(v / sigma), from ``prox``.

    ``separable`` declares that ``prox`` acts entry by entry: its output on
    a slice of a point is that slice of the point's prox, so the solver may
    take it block by block. ``value`` is always taken on a whole point.

    The solver hands a prox only points it owns, so any prox may write its
    output over the point it is given and return it. It calls every
    callback on the thread that called ``solve``.
    """

    prox: Callable[[Array, float], Array]
    label: str = ""
    op: LinearOperator | None = None
    value: Callable[[Array], float] | None = None
    conj: Callable[[Array, float], None] | None = None
    separable: bool = False


@dataclass(frozen=True)
class SplittingConfig:
    mu: float = 1.0
    theta: float = 1.0
    max_outer: int = 300
    tol: float = 1e-5

    def __post_init__(self):
        _check_positive(self.mu, "mu")
        if not 0.0 < self.theta < 2.0:
            raise ValueError(f"theta must lie in the open interval (0, 2), "
                             f"got {self.theta}")
        _check_count(self.max_outer, "max_outer")
        _check_nonnegative(self.tol, "tol")


@dataclass
class SplittingState:
    """Final iterate, the duals and its images K_i x (one each per mapped
    term, in term order) and the per-iteration traces: the primal and the
    duals' relative change (empty in a state not made by ``solve``), their
    maximum, which the stopping rule reads, and the objective."""

    x: Array
    aux: list[Array]
    images: list[Array]
    iterations: int
    converged: bool
    relative_changes: list[float]
    objectives: list[float]
    primal_changes: list[float] = field(default_factory=list)
    dual_changes: list[float] = field(default_factory=list)


def _ratio(num: float, denom: float) -> float:
    """num / denom, where 0 / 0 is 0 and any other x / 0 is +inf."""
    if denom == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / denom


def _total(parts) -> float:
    """The parts' sum from 0.0, added in their order."""
    total = 0.0
    for part in parts:
        total += part
    return total


def _moreau(term: ProxTerm) -> Callable[[Array, float], None]:
    """The term's conj by Moreau's identity from its prox."""
    def conj(v: Array, sigma: float) -> None:
        proxed = _flat64(term.prox(v / sigma, 1.0 / sigma), v.size,
                         f"prox output of term {term.label!r}")
        v -= proxed * sigma
    return conj


def _images(ops: list[LinearOperator], x: Array) -> list[Array]:
    """The op(x), as views of one new stack."""
    maps = MapStack(ops)
    return maps.split(maps.apply(x))


def objective_value(terms: Sequence[ProxTerm], x: Array,
                    images: Sequence[Array] | None = None) -> float:
    """f_1(K_1 x) + ... + f_K(K_K x) over the terms with a value, in term
    order; ``images``, when given, holds the K_i x of every term with a map,
    in term order."""
    images = iter(images if images is not None else
                  _images([term.op for term in terms if term.op is not None], x))
    points = [x if term.op is None else next(images) for term in terms]
    return _total(float(term.value(point)) for term, point in zip(terms, points)
                  if term.value is not None)


def solve(terms: Sequence[ProxTerm], cfg: SplittingConfig, init
          ) -> tuple[Array, SplittingState]:
    """Run the primal-dual iteration of the module docstring from ``init``
    and zero duals until tolerance or max_outer. A list without maps puts
    all but its first term behind identity maps. When a term has a value,
    the trace records ``objective_value`` at each new iterate. Term order
    changes the path, not the minimizer.

    Every array it writes is allocated here, once per solve, or is a
    term's part of the dual stack, which its conj step overwrites: x and
    x_next take turns in two buffers (x_next holds the gradient step until
    the prox has read it, or the prox has written its output over it),
    x_bar's with the dual sum's, and at theta = 1 the duals' with the
    dual step's. Maps and proxes may hand back their input or an array
    they keep, so their outputs are read or copied, never updated. The
    state traces the primal change, the duals' change and their maximum,
    which the stopping rule reads.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("need at least one prox term")
    x = np.asarray(init, dtype=np.float64).ravel().copy()
    del init  # a caller's temporary start need not live through the loop
    if all(term.op is None for term in terms):
        eye = identity_operator(x.size)
        terms[1:] = [replace(term, op=eye) for term in terms[1:]]
    free = [term for term in terms if term.op is None]
    mapped = [term for term in terms if term.op is not None]
    if len(free) != 1:
        raise ValueError(f"terms with maps need exactly one term without a "
                         f"map, got {len(free)}")
    g = free[0]
    context = f"prox output of term {g.label!r}"
    norm2 = _total(term.op.spectral_bound ** 2 for term in mapped)
    if mapped and norm2 == 0.0:
        raise ValueError("every map has spectral bound 0")
    tau, theta = cfg.mu, cfg.theta
    unrelaxed = theta == 1.0  # the new iterates are x~ and u~ themselves
    # A lone term has no duals, so sigma steps nothing.
    sigma = 0.99 / (tau * norm2) if mapped else 0.0
    maps = MapStack([term.op for term in mapped])
    parts = list(zip(mapped, maps.slices))
    conjs = [(term.conj or _moreau(term), s) for term, s in parts]
    duals = np.zeros(maps.out_dim)
    v = np.empty(maps.out_dim)  # K x_bar, then the dual step v
    back = np.zeros(x.size)  # sum_i K_i^T u_i, carried between iterations
    x_next, x_bar = np.empty(x.size), np.empty(x.size)
    # The trace carries K x up to the last term with a value, by linearity.
    traced = any(term.value is not None for term in terms)
    kx = maps.apply(x)
    images = maps.split(kx)
    carried = slice(max([0] + [s.stop for term, s in parts if term.value is not None]))
    step = None if unrelaxed else np.empty(carried.stop)
    norm = math.sqrt(x.dot(x))
    rel_trace, primal_trace, dual_trace, obj_trace = [], [], [], []
    # g's prox output lives until the next prox has returned: freeing a
    # new array sooner let the allocator trim and refault the heap top
    # every iteration.
    proxed = None
    # Each block's parts of d . d, ||x_next||^2 and the shift's square,
    # from whichever thread ran its hook; the loop sums them after each
    # call, in block order.
    dds, nns, sss = ({b.start: 0.0 for b in maps.blocks} for _ in range(3))

    def hand(b: slice) -> None:
        # g's prox of a part of x_next, on this thread, into that part.
        nonlocal proxed
        nxt = x_next[b]
        proxed = g.prox(nxt, tau)
        if proxed is not nxt:
            np.copyto(nxt, _flat64(proxed, nxt.size, context))

    def fill(b: slice) -> None:
        # d = x~ - x in the spent x_bar buffer. A finite d . d means a
        # finite x~, so only an infinite or NaN one pays for the scan.
        old, nxt = x[b], x_next[b]
        d = np.subtract(nxt, old, out=x_bar[b])
        part = d.dot(d)
        if not part < math.inf and not np.isfinite(nxt).all():
            raise NonFiniteIterateError(iteration=t, label=g.label)
        # At theta = 1, x_next = x~ and x_bar = x~ + d; otherwise x_next =
        # x + theta d and x_bar = x + 2 d.
        if unrelaxed:
            np.add(nxt, d, out=d)
        else:
            np.multiply(d, theta, out=nxt)
            np.add(nxt, old, out=nxt)
            d *= 2.0
            d += old
        dds[b.start], nns[b.start] = part, nxt.dot(nxt)

    def scale(s: slice) -> None:
        # x_{t+1} = x_t + (theta / 2) (x_bar - x_t), so by linearity
        # K x_{t+1} = K x_t + (theta / 2) (K x_bar - K x_t), which at
        # theta = 1 is (K x_bar + K x_t) / 2; then v = sigma K x_bar + u.
        top = min(s.stop, carried.stop)
        if s.start < top:
            kc, kv = kx[s.start:top], v[s.start:top]
            if unrelaxed:
                np.add(kv, kc, out=kc)
                kc *= 0.5
            else:
                part = step[s.start:top]
                np.subtract(kv, kc, out=part)
                part *= 0.5 * theta
                kc += part
        part = v[s]
        part *= sigma
        part += duals[s]

    def dual_step(s: slice) -> None:
        # u~_i = prox_{sigma f_i*}(v_i), each in its part of the stack. A
        # finite sum means a finite part; only a non-finite one (or a
        # finite part whose sum overflows) pays for the scan. Then u_{t+1}
        # = u_t + theta (u~ - u_t), u~ itself at theta = 1, where the two
        # buffers swap after the adjoint.
        for conj, c in conjs:
            if s.start <= c.start and c.stop <= s.stop:
                conj(v[c], sigma)
        part = v[s]
        if not math.isfinite(part.sum()) and not np.isfinite(part).all():
            first = s.start + int(np.argmin(np.isfinite(part)))
            raise NonFiniteIterateError(iteration=t, label=next(
                term.label for term, c in parts if first < c.stop))
        if not unrelaxed:
            part -= duals[s]
            part *= theta
            new = duals[s]
            new += part

    def trace() -> None:
        # The objective at x_{t+1}.
        if traced:
            obj_trace.append(objective_value(terms, x_next, images))

    def drain(b: slice) -> None:
        # The duals' shift K^T (u_next - u) in the spent back buffer; x is
        # spent too, so the next gradient step x_next - tau K^T u_next goes
        # there, unless no iteration follows.
        summed, shift = x_bar[b], back[b]
        np.subtract(summed, shift, out=shift)
        sss[b.start] = shift.dot(shift)
        if t + 1 < cfg.max_outer:
            grad = x[b]
            np.multiply(summed, tau, out=grad)
            np.subtract(x_next[b], grad, out=grad)
    # The first gradient step, from zero duals; drain takes the others.
    np.multiply(back, tau, out=x_next)
    np.subtract(x, x_next, out=x_next)
    with maps.threads():
        for t in range(cfg.max_outer):
            if not g.separable:
                hand(slice(None))
            # hand takes a separable g's prox and fill writes x_bar, K's
            # input, one block before K transforms it; scale carries K x
            # and steps v.
            maps.apply(x_bar, out=v, fill=fill, drain=scale,
                       hand=hand if g.separable else None)
            change = theta * math.sqrt(_total(dds.values()))
            # dual_step takes u_{t+1} one part before K^T transforms it, in
            # v at theta = 1 (the two buffers swap after) and in duals
            # otherwise; trace takes the objective at x_next. The duals'
            # change is the shift tau K^T (u_next - u) they make in the
            # primal step, relative to the larger of the two iterates. x_bar
            # is spent, so the new sum goes there and the two swap.
            maps.adjoint(v if unrelaxed else duals, out=x_bar, drain=drain,
                         hand=dual_step, meanwhile=trace)
            if unrelaxed:
                duals, v = v, duals
            shift = tau * math.sqrt(_total(sss.values()))
            back, x_bar = x_bar, back
            norm_next = math.sqrt(_total(nns.values()))
            primal, dual = _ratio(change, norm), _ratio(shift, max(norm, norm_next))
            rel = max(primal, dual)
            x, x_next, norm = x_next, x, norm_next
            rel_trace.append(rel)
            primal_trace.append(primal)
            dual_trace.append(dual)
            if rel <= cfg.tol:
                break
        # Carried images drift from K_i x by round-off; the last ones are
        # exact.
        maps.apply(x, out=kx)
    if traced:
        obj_trace[-1] = objective_value(terms, x, images)
    return x, SplittingState(x=x, aux=maps.split(duals), images=images,
                             iterations=len(rel_trace),
                             converged=rel <= cfg.tol,
                             relative_changes=rel_trace, objectives=obj_trace,
                             primal_changes=primal_trace, dual_changes=dual_trace)
