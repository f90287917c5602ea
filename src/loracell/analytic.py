"""Coupled fixed-point model of uplink and downlink success probabilities.

The cell state is summarized by two per-SF vectors: ``s_ul``, the
probability that an uplink transmission is accepted by the gateway
(survives interference, is not trampled by a gateway transmission, and
finds a free demodulator), and ``s_dl``, the probability that the
matching ACK reaches the device through one of its two receive windows.
Both feed back into each other through retransmission traffic, gateway
duty cycling and demodulator occupancy, so the model is solved by plain
fixed-point iteration, by default from the all-ones starting point.  Given
the Jacobian of the sweep at a nearby fixed point, :func:`solve` steps by the
chord method instead (Kelley, *Iterative Methods for Linear and Nonlinear
Equations*, SIAM 1995, section 5.4): the optimizer's line search solves
each candidate this way with the Jacobian its gradient already built.

Traffic is Poisson and spreading factors are treated as orthogonal:
only same-SF packets on the same channel collide, and collision events
with more than two packets are neglected.  A packet involved in a
two-packet collision may still be captured, with probability ``w_gw``
at the gateway and ``w_ed`` at the device.

:func:`solve_groups` solves many scenarios at once.  Those that agree on the
fields fixing array shapes, loop counts or the ``gw_may_transmit`` branch
(``m``, ``h``, ``tau1``, ``tau2``, ``n_demodulators``) and on the airtimes form
one batch: per-SF vectors gain a leading row axis, ``(K, 6)``, per-row scalars
(``p_on``, ``s_demod``, the other scenario fields such as ``w_gw``, ...)
become ``(K,)`` arrays, an SF distribution is read by its ``p`` alone, and the
model functions below, :func:`iterate` among them, accept either form.
Each row stops when its own residual reaches the tolerance and is then
frozen, so its numbers and sweep count are those of its own ``solve``,
the one-row call of the same code.  A finishing row is copied into the
batch's output, one batched ``SteadyState`` whose arrays have a row for
every config of the batch, so a finished row holds no sweep's arrays.
:func:`solve_groups` hands out that output as it is, with the batched
config, for a caller that reports a whole batch at once.

A sweep of one row works on 6-element vectors, so its cost is mostly numpy's
per-call overhead, and the sweep keeps its calls few.  The airtime terms that
do not change between sweeps (``t_ack1 + t_data`` and the products by the
prioritization flags) are computed once per
:class:`~loracell.scenario.AirtimeTable` and read from it, and a sweep hands
the solver its arrays: a one-row solve builds its ``SteadyState`` once, when
it finishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, is_dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .scenario import N_SF, ScenarioConfig, ValidationError


class ModelError(RuntimeError):
    """A model quantity became non-finite or inconsistent during iteration."""


@dataclass(frozen=True)
class TrafficRates:
    """Per-channel packet rates by SF [pck/s] and the PHY-layer SF share."""

    r_c_app: np.ndarray   # confirmed application-layer rate
    r_u_app: np.ndarray   # unconfirmed application-layer rate
    r_c_phy: np.ndarray   # confirmed rate including retransmissions
    r_u_phy: np.ndarray   # unconfirmed rate including repetitions
    r_phy: np.ndarray     # total PHY rate per channel
    d: np.ndarray         # share of PHY packets per SF (zeros when idle)


@dataclass(frozen=True)
class SubBandState:
    """Alternating renewal process of one downlink sub-band.

    The sub-band is ON while allowed to transmit and OFF while blocked by
    its duty cycle after an ACK.  An idle sub-band (no ACK traffic) is
    always ON by convention: ``e_on`` is infinite and ``e_off`` zero.
    """

    r: np.ndarray         # per-SF rate of ACKs attempted in this sub-band
    b: np.ndarray         # SF distribution of those ACKs (zeros when idle)
    e_on: float           # mean ON sojourn [s]
    e_off: float          # mean OFF sojourn [s]
    p_on: float
    p_off: float
    p_t: float            # probability the gateway may transmit here


@dataclass(frozen=True)
class DemodChainState:
    """Occupancy of the gateway demodulator bank.

    Demodulators are filled in order, so each one only sees the packets
    that found all earlier ones locked; ``p_lock`` is therefore
    non-increasing.
    """

    e_lock: float         # mean time a demodulator stays locked on a packet [s]
    e_avail: np.ndarray   # mean idle time per demodulator [s]
    p_lock: np.ndarray    # probability each demodulator is locked
    s_demod: float        # probability an arrival finds some demodulator free


@dataclass(frozen=True)
class SteadyState:
    """Converged (or best) iterate of the fixed-point system."""

    s_ul: np.ndarray          # uplink success probability per SF
    s_dl: np.ndarray          # ACK success probability per SF
    s_int: np.ndarray         # uplink interference survival per SF
    s_tx: np.ndarray          # survival of gateway-transmission overlap per SF
    f_tx1: np.ndarray         # probability of falling in an SB1 TX window
    f_tx2: np.ndarray         # same for SB2
    s_int_ack1: np.ndarray    # ACK interference survival in RX1 per SF
    s_sb1: np.ndarray         # ACK success through RX1 per SF
    s_sb2: float              # ACK success through RX2 (SF independent)
    rates: TrafficRates
    sb1: SubBandState
    sb2: SubBandState
    demod: DemodChainState
    iterations: int
    residual: float           # final sup-norm change of (s_ul, s_dl)
    converged: bool


def _vec(values) -> np.ndarray:
    return np.asarray(values, dtype=float)


def _col(values):
    """Per-row scalars as a column that broadcasts against per-SF vectors."""
    return values[..., None] if isinstance(values, np.ndarray) else values


def _any(mask) -> bool:
    """``mask.any()`` of a boolean array or numpy bool, without the cost of a reduction."""
    return bool(mask) if mask.ndim == 0 else np.count_nonzero(mask) > 0


@lru_cache(maxsize=16)   # attempt counts m and h are at most 15
def _arange(n: int) -> np.ndarray:
    """``np.arange(n, dtype=float)``, built once per ``n`` and read-only."""
    j = np.arange(n, dtype=float)
    j.flags.writeable = False
    return j


def app_rates(cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Application-layer packet rates per channel and SF [pck/s]."""
    scale, alpha = _col(cfg.lambda_total / cfg.c_channels), _col(cfg.alpha)
    return (_vec(cfg.p_confirmed.p) * scale * alpha,
            _vec(cfg.p_unconfirmed.p) * scale * (1.0 - alpha))


def attempt_distributions(p, n: int) -> np.ndarray:
    """Probability of first success at exactly the j-th attempt, j = 1..n.

    ``p`` is the per-SF (..., 6) success probability of one attempt: ``s_ul``
    for an uplink that only has to reach the gateway, ``s_ul * s_dl`` for
    one that also needs its ACK.  Returns the (..., 6, n) rows, geometric
    in ``p``, so row sums are 1 - (1 - p)**n.
    """
    if n < 1:
        raise ValueError(f"attempt count must be >= 1, got {n}")
    p = _vec(p)[..., None]
    return p * (1.0 - p) ** _arange(n)


def phy_rates(cfg: ScenarioConfig, p_dl, app=None) -> TrafficRates:
    """PHY-layer rates including repetitions and retransmissions.

    ``p_dl[i, j-1]`` is the probability that a confirmed packet at SF i is
    delivered and acknowledged at exactly attempt j.  A confirmed packet
    is transmitted j times when it succeeds at attempt j < m, and m times
    otherwise, so the expected attempt count lies in [1, m].  ``app`` is
    ``app_rates(cfg)`` when the caller has it already.
    """
    r_c_app, r_u_app = app_rates(cfg) if app is None else app
    p_dl = np.asarray(p_dl, dtype=float)
    m = cfg.m
    if p_dl.shape[-2:] != (N_SF, m):
        raise ValueError(f"p_dl must have shape ({N_SF}, {m}), got {p_dl.shape}")
    head = p_dl[..., : m - 1]
    head_sum = np.add.reduce(head, -1)
    # Non-negative entries whose rounded row sums stay at most 1 pass both
    # checks below, since such a sum is no smaller than any of its terms.
    if not (np.minimum.reduce(p_dl, None) >= 0.0
            and np.maximum.reduce(head_sum + p_dl[..., m - 1], None) <= 1.0):
        if p_dl.min() < -1e-12 or p_dl.max() > 1.0 + 1e-12:
            raise ValueError("p_dl entries must be probabilities in [0, 1]")
        if p_dl.sum(axis=-1).max() > 1.0 + 1e-9:
            raise ValueError("p_dl rows must sum to at most 1")

    attempts = np.add.reduce(head * _arange(m)[1:], -1) + m * (1.0 - head_sum)
    r_c_phy = r_c_app * attempts
    r_u_phy = r_u_app * _col(cfg.h)
    r_phy = r_c_phy + r_u_phy
    total = np.add.reduce(r_phy, -1)
    idle = np.logical_not(total > 0.0)   # a NaN total too
    if _any(idle):
        total = np.where(idle, np.inf, total)
    d = r_phy / _col(total)   # zeros when idle
    return TrafficRates(r_c_app, r_u_app, r_c_phy, r_u_phy, r_phy, d)


def interference_survival(t_data, r_phy, w_gw: float):
    """Probability that an uplink survives same-SF interference.

    The vulnerability window of a packet of airtime T against Poisson
    traffic of rate R is 2T.  The packet survives if no other packet
    starts inside it, or if exactly one does and the receiver captures
    the frame (probability ``w_gw``); overlaps of three or more packets
    are treated as always destructive.
    """
    x = 2.0 * np.asarray(t_data, dtype=float) * np.asarray(r_phy, dtype=float)
    return np.exp(-x) * (1.0 + x * _col(w_gw))


def gw_may_transmit(cfg: ScenarioConfig, rates: TrafficRates, k: int) -> float | np.ndarray:
    """Probability that the gateway is free to transmit in sub-band k.

    With transmission prioritized (tau_k = 1) the gateway always may;
    otherwise it transmits only if no uplink reception is ongoing, i.e.
    no packet started within its own airtime before now.
    """
    if k not in (1, 2):
        raise ValueError(f"sub-band index must be 1 or 2, got {k}")
    tau = cfg.tau1 if k == 1 else cfg.tau2
    if tau == 1:
        return 1.0
    return np.exp(-cfg.c_channels * np.add.reduce(rates.r_phy * cfg.airtimes._t_data, -1))


def demod_chain(cfg: ScenarioConfig, rates: TrafficRates) -> DemodChainState:
    """Occupancy of the demodulator bank under the total uplink load.

    Each demodulator is an alternating available/locked renewal process;
    demodulator j only receives the arrival stream thinned by the
    probability that demodulators 1..j-1 are all locked.  With no
    traffic every demodulator is free and ``s_demod`` is 1.
    """
    e_lock = np.add.reduce(rates.d * cfg.airtimes._t_data, -1)
    total = cfg.c_channels * np.add.reduce(rates.r_phy, -1)
    # The recurrence runs unguarded, demodulator by demodulator, and its dead
    # ends are patched afterwards: cheaper than testing every step of every row.
    with np.errstate(divide="ignore", over="ignore"):
        e_avail = [1.0 / total]
        p_lock = [e_lock / (e_avail[0] + e_lock)]
        for _ in range(1, cfg.n_demodulators):
            e_avail.append(e_avail[-1] / p_lock[-1])
            p_lock.append(e_lock / (e_avail[-1] + e_lock))
    e_avail, p_lock = np.array(e_avail), np.array(p_lock)   # demodulator axis first
    # Arrival stream to the later demodulators dies out geometrically: once a
    # predecessor is never locked, or its idle time is infinite or would
    # overflow, every later demodulator is idle.  The comparison also fails
    # for a NaN lock probability, which only a row whose rates are already
    # non-finite (and that therefore fails its checks) can produce.
    dead = ~(e_avail[:-1] < p_lock[:-1] * 1e300)
    if _any(dead):
        dead = np.logical_or.accumulate(dead, axis=0)
        e_avail[1:][dead] = np.inf
        p_lock[1:][dead] = 0.0
    return DemodChainState(e_lock, e_avail.T, p_lock.T, 1.0 - np.multiply.reduce(p_lock, 0))


#: Largest ACK rate whose mean wait 1/rate overflows to infinity.
_OVERFLOW_RATE = 1.0 / np.finfo(float).max


def _subband(r: np.ndarray, t_ack: np.ndarray, delta: float, p_t,
             c_channels: int) -> SubBandState:
    total = np.add.reduce(r, -1)
    rate = c_channels * total
    # Idle: no ACK traffic, or too little for a finite ON sojourn 1/rate.
    # A NaN total is not idle, so the sweep's failure check still reports it.
    idle = rate <= _OVERFLOW_RATE
    any_idle = _any(idle)
    if any_idle:
        # Never duty-cycle blocked: a stand-in total of 1 gives b = r ~ 0,
        # e_off ~ 0 and p_on = 1; e_on becomes infinite below.
        total = total + idle
        rate = c_channels * total
    b = r / _col(total)
    e_on = 1.0 / rate
    e_off = np.add.reduce(b * (_col(1.0 + delta) * t_ack), -1)
    p_on = e_on / (e_on + e_off)
    if any_idle:
        e_on = np.where(idle, np.inf, e_on)[()]   # [()] keeps a numpy scalar a scalar
    return SubBandState(r, b, e_on, e_off, p_on, 1.0 - p_on, p_t)


def subband_states(cfg: ScenarioConfig, rates: TrafficRates,
                   s_ul) -> tuple[SubBandState, SubBandState]:
    """ON/OFF renewal state of both downlink sub-bands.

    SB1 serves the ACKs of successfully received confirmed uplinks; SB2
    serves the ones that found SB1 blocked (OFF, or the gateway unable to
    transmit).  An ON sojourn is the wait for the next ACK on any of the
    C channels and an OFF sojourn is the airtime of the chosen ACK plus
    its duty-cycle silence.
    """
    r1 = rates.r_c_phy * _vec(s_ul)
    p_t1 = gw_may_transmit(cfg, rates, 1)
    # The sub-band enters gw_may_transmit only through its flag.
    p_t2 = p_t1 if cfg.tau2 == cfg.tau1 else gw_may_transmit(cfg, rates, 2)
    sb1 = _subband(r1, cfg.airtimes._t_ack1, cfg.delta_sb1, p_t1, cfg.c_channels)
    r2 = r1 * _col(sb1.p_off + sb1.p_on * (1.0 - sb1.p_t))
    sb2 = _subband(r2, cfg.airtimes._t_ack2, cfg.delta_sb2, p_t2, cfg.c_channels)
    return sb1, sb2


def _tx_window_fraction(sb: SubBandState, t_ack: np.ndarray,
                        t_data_tau: np.ndarray) -> np.ndarray:
    """Fraction of time an uplink arrival falls in a gateway TX window.

    This is the mean vulnerable time per renewal cycle of the sub-band,
    which is 0 for an idle sub-band (infinite ON sojourn).  The printed
    ratio can exceed 1 when the vulnerability window is longer than a
    whole renewal period (very aggressive ACK load, e.g. with duty
    cycling disabled), so it is capped at 1 to remain a probability.
    """
    window = _col(np.add.reduce(sb.b * t_ack, -1)) + t_data_tau
    return np.minimum(window / _col(sb.e_on + sb.e_off), 1.0)


def gw_tx_survival(cfg: ScenarioConfig, sb1: SubBandState,
                   sb2: SubBandState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-SF probability that an uplink is not hit by a gateway transmission.

    An arrival is lost if it lands during an ACK transmission in either
    sub-band, or (when transmission is prioritized) if an ACK starts
    during its own airtime.  The two sub-band processes are treated as
    independent.
    """
    airtimes = cfg.airtimes
    f_tx1 = _tx_window_fraction(sb1, airtimes._t_ack1, airtimes._t_data_tau[cfg.tau1])
    f_tx2 = _tx_window_fraction(sb2, airtimes._t_ack2, airtimes._t_data_tau[cfg.tau2])
    s_tx = (1.0 - f_tx1) * (1.0 - f_tx2)
    return f_tx1, f_tx2, s_tx


def ack_interference_survival(cfg: ScenarioConfig, rates: TrafficRates) -> np.ndarray:
    """Probability that an RX1 ACK is not destroyed by uplink traffic.

    The no-collision window is the ACK airtime, extended by the data
    airtime when reception is not prioritized (``tau1 = 1``), since then
    an uplink already in the air when the ACK was due would not have
    stopped it.  A single colliding uplink may still be captured by the
    device with probability ``w_ed``.  The two terms together can
    marginally exceed 1 when ``tau1 = 0`` under light load, so the result
    is truncated at 1.
    """
    windows = cfg.airtimes._t_rx1_tau
    r = rates.r_phy
    minus_r = -r
    clear = np.exp(minus_r * windows[cfg.tau1])
    both = windows[1]   # t_ack1 + t_data
    captured = r * both * np.exp(minus_r * both) * _col(cfg.w_ed)
    return np.minimum(clear + captured, 1.0)


def dl_success(cfg: ScenarioConfig, sb1: SubBandState, sb2: SubBandState,
               s_int_ack1) -> tuple[np.ndarray, float, np.ndarray]:
    """Probability that an ACK for a received uplink reaches the device.

    RX1 succeeds if SB1 is ON, the gateway may transmit there, and the
    ACK survives interference on the shared channel.  Otherwise the ACK
    falls through to RX2 on the dedicated sub-band, where transmission
    (once possible) is always received.  Returns the RX1 term, the RX2
    term and their sum; a sum above 1 marks a broken iterate, which the
    sweep's failure check reports.
    """
    s_sb1 = _col(sb1.p_on * sb1.p_t) * _vec(s_int_ack1)
    fallthrough = sb1.p_off + sb1.p_on * (1.0 - sb1.p_t)
    s_sb2 = fallthrough * sb2.p_on * sb2.p_t
    return s_sb1, s_sb2, s_sb1 + _col(s_sb2)


#: Largest ACK success probability an iterate may reach before it counts as broken.
_S_DL_MAX = 1.0 + 1e-9
_CHECKED_QUANTITIES = ("r_phy", "s_int", "s_tx", "s_ul", "s_int_ack1", "s_dl")


def _failures(r_phy, s_int, s_tx, s_ul, s_int_ack1, s_dl) -> dict[int, str]:
    """ModelError message of each row whose sweep broke, by row index.

    A row fails on the first broken check: ACK success above 1, then the
    finiteness of each quantity in the order of the sweep.
    """
    checked = np.concatenate((r_phy, s_int, s_tx, s_ul, s_int_ack1, s_dl), axis=-1)
    # One sum is finite when every term is: only an overflow takes the long way.
    if (math.isfinite(np.add.reduce(checked, None))
            and np.maximum.reduce(s_dl, None) <= _S_DL_MAX):
        return {}
    finite = np.atleast_2d(np.isfinite(checked))   # one row per state row
    s_dl = np.atleast_2d(s_dl)
    broken = ~finite.all(axis=-1) | (s_dl > _S_DL_MAX).any(axis=-1)
    failures = {}
    for i in np.flatnonzero(broken):
        if np.any(s_dl[i] > _S_DL_MAX):
            failures[int(i)] = ("downlink success probability exceeded 1 "
                                f"(max {float(s_dl[i].max())!r}); broken iterate")
        else:
            # The first non-finite entry; each quantity spans N_SF of them.
            name = _CHECKED_QUANTITIES[int(np.argmin(finite[i])) // N_SF]
            failures[int(i)] = f"non-finite value in {name}"
    return failures


def _sweep(cfg: ScenarioConfig, app, s_ul: np.ndarray,
           s_dl: np.ndarray) -> tuple[dict, dict[int, str]]:
    """One update sweep of K rows given their application rates ``app``.

    The arrays are ``(K, 6)``, or ``(6,)`` for one row without a row axis.
    Returns the new state's fields except ``iterations``, ``residual`` and
    ``converged``, and the failure message of each broken row.  No
    ``SteadyState`` is built here: the solver builds one per row that
    finishes, so a sweep after which every row iterates on costs none.
    """
    rates = phy_rates(cfg, attempt_distributions(s_ul * s_dl, cfg.m), app)
    demod = demod_chain(cfg, rates)
    sb1, sb2 = subband_states(cfg, rates, s_ul)
    s_int = interference_survival(cfg.airtimes._t_data, rates.r_phy, cfg.w_gw)
    f_tx1, f_tx2, s_tx = gw_tx_survival(cfg, sb1, sb2)
    new_ul = s_int * s_tx * _col(demod.s_demod)
    s_int_ack1 = ack_interference_survival(cfg, rates)
    s_sb1, s_sb2, new_dl = dl_success(cfg, sb1, sb2, s_int_ack1)
    fields = dict(s_ul=new_ul, s_dl=new_dl, s_int=s_int, s_tx=s_tx,
                  f_tx1=f_tx1, f_tx2=f_tx2, s_int_ack1=s_int_ack1,
                  s_sb1=s_sb1, s_sb2=s_sb2, rates=rates, sb1=sb1, sb2=sb2, demod=demod)
    return fields, _failures(rates.r_phy, s_int, s_tx, new_ul, s_int_ack1, new_dl)


def _stack(objs):
    """The batched result dataclass of a list of one-row ones.

    Every field gains a leading row axis, in nested dataclasses too, so row
    ``i`` of every field is that field of ``objs[i]``.  For a single object the
    array fields are views of its own arrays: a batch of one copies nothing.
    """
    return type(objs[0])(**{
        name: (_stack([getattr(obj, name) for obj in objs]) if is_dataclass(value)
               else np.asarray(value)[None] if len(objs) == 1
               else np.array([getattr(obj, name) for obj in objs]))
        for name, value in vars(objs[0]).items()})


def _blank(fields: dict, k: int) -> dict:
    """Output of a ``k``-row batch for the fields of one of its sweeps: every
    array becomes a NaN array of ``k`` rows, in nested dataclasses too; other
    values are shared."""
    return {name: (np.full((k,) + value.shape[1:], np.nan) if isinstance(value, np.ndarray)
                   else type(value)(**_blank(vars(value), k)) if is_dataclass(value) else value)
            for name, value in fields.items()}


def _put(out: dict, fields: dict, at, rows) -> None:
    """Copy rows ``rows`` of every array of a sweep's ``fields`` to rows ``at``
    of the same array of the output ``out``, nested dataclasses included."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            out[name][at] = value.take(rows, 0)   # cheaper than value[rows]
        elif is_dataclass(value):
            _put(vars(out[name]), vars(value), at, rows)


def iterate(cfg: ScenarioConfig, s_ul, s_dl) -> SteadyState:
    """One full update sweep of the fixed-point system.

    Recomputes, in order: attempt distributions, PHY rates, demodulator
    chain, sub-band states, interference/TX survivals, the new uplink
    success, ACK interference, and the new downlink success.  The
    sub-band states are driven by the incoming ``s_ul`` iterate; a batch
    with ``(K, 6)`` iterates gives a batched state.  Raises ``ModelError``
    with the first broken row's message when the sweep breaks (ACK success
    above 1, or a non-finite quantity): the same per-row check with which
    :func:`solve_groups` names each broken row of a batch.
    """
    fields, failures = _sweep(cfg, app_rates(cfg), _vec(s_ul), _vec(s_dl))
    if failures:
        raise ModelError(failures[min(failures)])
    return SteadyState(**fields, iterations=1, residual=math.inf, converged=False)


#: The solver's default stopping rule, also the CLI's ``--tol`` and ``--max-iter``.
_TOL = 1e-10
_MAX_ITER = 1000

#: A chord-stepped solve steps plainly from the first sweep whose residual is
#: above this share of the previous sweep's: the ratio past which the chord
#: code ``nsol`` of Kelley (1995) evaluates a new Jacobian.
_CHORD_RATIO = 0.5


def solve(cfg: ScenarioConfig, tol: float = _TOL, max_iter: int = _MAX_ITER,
          start=None, jacobian=None) -> SteadyState:
    """Solve the fixed point by iteration from the all-ones starting point.

    Stops when the sup-norm change of (s_ul, s_dl) between sweeps falls
    below ``tol``.  If ``max_iter`` sweeps are exhausted first, the best
    iterate is returned with ``converged`` False.  ``start``, a pair
    ``(s_ul, s_dl)`` of per-SF probabilities, replaces the all-ones starting
    point, e.g. with the fixed point of a nearby scenario.  ``cfg`` is one
    scenario in any form that the model functions read.

    ``jacobian``, the 12 x 12 derivative dG/dz of the sweep G at a nearby
    fixed point with rows and columns ordered (s_ul, s_dl), turns each step
    into a chord step: with M = (I - J)^-1, formed once per call, the next
    iterate is z + M (G(z) - z), clipped to [0, 1], in place of G(z).  Far
    from the point where J was taken the chord steps can stall, so from the
    first sweep whose residual ||G(z) - z|| is above ``_CHORD_RATIO`` times
    the previous sweep's, the solve steps plainly, to G(z).  The stopping
    rule is the same, and the state returned is the last sweep's own, G(z)
    with its residual, never the stepped z.
    """
    start, chord = _checked_start(tol, max_iter, start, jacobian)
    _, state, errors = _solve_batch([cfg], tol, max_iter, start, chord)
    if errors:
        raise errors[0]
    return state


def _checked_start(tol: float, max_iter: int, start, jacobian=None) -> tuple:
    """Validated copies of a starting point ``(s_ul, s_dl)``, None for all-ones,
    and the chord matrix (I - ``jacobian``)^-1, None without a Jacobian, once
    the stopping rule ``tol``, ``max_iter`` is checked too."""
    if start is not None:
        try:
            s_ul, s_dl = (np.array(v, dtype=float) for v in start)
        except (TypeError, ValueError):
            raise ValidationError("start must be a pair (s_ul, s_dl) of per-SF vectors") from None
        for v in (s_ul, s_dl):
            if v.shape != (N_SF,):
                raise ValidationError(f"start vectors must have shape ({N_SF},), got {v.shape}")
            if not np.logical_and.reduce((v >= 0.0) & (v <= 1.0)):   # also false for NaN
                raise ValidationError(
                    f"start entries must be probabilities in [0, 1], got {v.tolist()}")
        start = s_ul, s_dl
    if not tol > 0.0:
        raise ValidationError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    if jacobian is None:
        return start, None
    n = 2 * N_SF
    try:
        jacobian = np.array(jacobian, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError("jacobian must be a 12 x 12 array of numbers") from None
    if jacobian.shape != (n, n):
        raise ValidationError(f"jacobian must have shape ({n}, {n}), got {jacobian.shape}")
    if not np.logical_and.reduce(np.isfinite(jacobian), None):
        raise ValidationError("jacobian entries must be finite")
    try:
        return start, np.linalg.inv(np.eye(n) - jacobian)
    except np.linalg.LinAlgError:
        raise ValidationError("I - jacobian is singular") from None


#: Fields that fix array shapes, loop counts or the ``gw_may_transmit`` branch,
#: and the airtimes, which the model reads as per-SF vectors: configs solved or
#: reported as one batch must agree on them.
_SHARED = ("m", "h", "tau1", "tau2", "n_demodulators", "airtimes")
#: Scalars that the sweep reads from the config and that may differ by row.
_PER_ROW = ("delta_sb1", "delta_sb2", "c_channels", "w_gw", "w_ed")


def _groups(cfgs) -> list[list[int]]:
    """Indices into ``cfgs`` of each group of configs that agree on the
    ``_SHARED`` fields, in order of first appearance."""
    groups: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        groups.setdefault(tuple(getattr(cfg, name) for name in _SHARED), []).append(i)
    return list(groups.values())


def _batch(cfgs) -> SimpleNamespace:
    """One scenario for configs that agree on the ``_SHARED`` fields, in the
    batched form that the model functions accept.

    The ``_SHARED`` fields keep their common value; every other field
    becomes a ``(K,)`` array, and an SF distribution a namespace whose ``p``
    is ``(K, 6)``.
    """
    fields = {}
    for name, value in vars(cfgs[0]).items():
        if name in _SHARED:
            fields[name] = value
        elif hasattr(value, "p"):   # an SF distribution
            fields[name] = SimpleNamespace(p=np.array([getattr(c, name).p for c in cfgs]))
        else:
            fields[name] = np.array([getattr(c, name) for c in cfgs])
    return SimpleNamespace(**fields)


def solve_groups(cfgs, tol: float = _TOL, max_iter: int = _MAX_ITER, start=None) -> list[
        tuple[list[int], SimpleNamespace, SteadyState | None, dict[int, ModelError]]]:
    """Solve every config as :func:`solve` would, one batch per group of configs.

    Configs that agree on ``m``, ``h``, ``tau1``, ``tau2``, ``n_demodulators``
    and the airtimes form a group and are iterated together.  A row is frozen
    once its own residual reaches ``tol``, and a row whose sweep breaks gives
    its ``ModelError`` without stopping the others.  Every row starts from
    ``start`` when it is given.

    Each group is ``(indices, cfg, state, errors)``: the indices into
    ``cfgs`` of its configs, their batched config and batched state, whose
    row ``j`` is the result of config ``indices[j]`` (``iterations``,
    ``residual`` and ``converged`` are ``(K,)`` arrays too), and the
    ``ModelError`` of each broken config by its index into ``cfgs``.  A
    broken config's row reads NaN; a group of one config that broke has no
    state.  The batched forms are those that the model and metric functions
    accept, so ``metrics.compute_report(state, cfg)`` reports a whole group.
    """
    start, _ = _checked_start(tol, max_iter, start)
    groups = []
    for indices in _groups(cfgs):
        cfg, state, errors = _solve_batch([cfgs[i] for i in indices], tol, max_iter, start)
        if len(indices) == 1:
            cfg, state = _batch([cfg]), state and _stack([state])
        groups.append((indices, cfg, state, {indices[j]: e for j, e in errors.items()}))
    return groups


def _solve_batch(cfgs, tol: float, max_iter: int, start, chord=None) -> tuple:
    """Solve configs that agree on ``_SHARED`` with checked arguments, as one batch.

    Returns the scenario the rows ran on, their result and the ``ModelError``
    of each broken row by its index into ``cfgs``.  One config runs on its
    own and gives its one-row ``SteadyState`` (None when it broke).  More
    configs run as one batch on their batched config and give the batch's
    output, one batched ``SteadyState`` into which each row is copied when it
    finishes; a broken row reads NaN there.  ``chord``, the 12 x 12 matrix
    (I - J)^-1 of :func:`solve`, steps a single config by the chord method.
    """
    batched = len(cfgs) > 1
    if not batched:
        # A single row runs on its own config without a row axis: its per-row
        # scalars are then numpy scalars, whose arithmetic costs a fraction of
        # a one-element array's.
        batch = cfg = cfgs[0]
    else:
        # One scenario for all rows: each per-row field is a (K,) array, rates (K, 6).
        batch = _batch(cfgs)
        cfg = SimpleNamespace(**{name: getattr(batch, name) for name in _SHARED + _PER_ROW})
        rows = np.arange(len(cfgs))   # index in ``cfgs`` of each active row
        out, errors = None, {}
    app = app_rates(batch)
    # Every row starts from the same (6,) pair, which a batch's first sweep broadcasts.
    s_ul, s_dl = (np.ones(N_SF),) * 2 if start is None else start
    previous = np.inf   # the last sweep's residual
    for iterations in range(1, max_iter + 1):
        fields, failures = _sweep(cfg, app, s_ul, s_dl)
        new_ul, new_dl = fields["s_ul"], fields["s_dl"]
        residual = np.maximum.reduce(np.maximum(np.abs(new_ul - s_ul), np.abs(new_dl - s_dl)),
                                     -1)
        converged = residual <= tol
        if failures or iterations == max_iter or _any(converged):
            if not batched:
                if failures:
                    return batch, None, {0: ModelError(failures[0])}
                return batch, SteadyState(**fields, iterations=iterations,
                                          residual=float(residual),
                                          converged=bool(converged)), {}
            if out is None:
                out = _blank(fields, len(cfgs))
                out.update(iterations=np.zeros(len(cfgs), dtype=int),
                           residual=np.full(len(cfgs), np.nan),
                           converged=np.zeros(len(cfgs), dtype=bool))
            done = converged | (iterations == max_iter)
            finished = done.copy()
            for i, message in failures.items():
                errors[int(rows[i])] = ModelError(message)
                done[i], finished[i] = True, False
            at, finished = rows[finished], np.flatnonzero(finished)
            _put(out, fields, at, finished)
            out["iterations"][at] = iterations
            out["residual"][at] = residual[finished]
            out["converged"][at] = converged[finished]
            if done.all():
                break
            active = np.flatnonzero(~done)
            rows = rows[active]
            cfg = SimpleNamespace(**{name: value[active] if name in _PER_ROW else value
                                     for name, value in vars(cfg).items()})
            app = tuple(rates[active] for rates in app)
            new_ul, new_dl = new_ul[active], new_dl[active]
        if chord is not None:   # one config: z + M (G(z) - z), clipped to [0, 1]
            if residual > _CHORD_RATIO * previous:
                chord = None    # too slow a contraction: plain steps G(z) from here on
            else:
                z = np.concatenate((s_ul, s_dl))
                z += chord @ (np.concatenate((new_ul, new_dl)) - z)
                z = np.minimum(np.maximum(z, 0.0), 1.0)
                new_ul, new_dl = z[:N_SF], z[N_SF:]
            previous = residual
        s_ul, s_dl = new_ul, new_dl
    return batch, SteadyState(**out), errors
