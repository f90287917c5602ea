"""Coupled fixed-point model of uplink and downlink success probabilities.

The cell state is summarized by two per-SF vectors: ``s_ul``, the
probability that an uplink transmission is accepted by the gateway
(survives interference, is not trampled by a gateway transmission, and
finds a free demodulator), and ``s_dl``, the probability that the
matching ACK reaches the device through one of its two receive windows.
Both feed back into each other through retransmission traffic, gateway
duty cycling and demodulator occupancy, so the model is solved by plain
fixed-point iteration, by default from the all-ones starting point.

Traffic is Poisson and spreading factors are treated as orthogonal:
only same-SF packets on the same channel collide, and collision events
with more than two packets are neglected.  A packet involved in a
two-packet collision may still be captured, with probability ``w_gw``
at the gateway and ``w_ed`` at the device.

``solve_many`` solves many scenarios at once.  Those that agree on the
fields fixing array shapes, loop counts or the ``gw_may_transmit`` branch
(``m``, ``tau1``, ``tau2``, ``n_demodulators``) and on the airtimes form one
batch: per-SF vectors gain a leading row axis, ``(K, 6)``, per-row scalars
(``p_on``, ``s_demod``, the other scenario fields such as ``h`` or ``w_gw``,
...) become ``(K,)`` arrays, and the model functions below accept either form.
Each row stops when its own residual reaches the tolerance and is then
frozen, so its numbers and sweep count are those of its own ``solve``,
the one-row call of the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, is_dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .scenario import N_SF, ScenarioConfig, SfDistribution, ValidationError


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
    scale = cfg.lambda_total / cfg.c_channels
    return (_vec(cfg.p_confirmed.p) * scale * cfg.alpha,
            _vec(cfg.p_unconfirmed.p) * scale * (1.0 - cfg.alpha))


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
    head_sum = head.sum(axis=-1)
    # Non-negative entries whose rounded row sums stay at most 1 pass both
    # checks below, since such a sum is no smaller than any of its terms.
    if not (p_dl.min() >= 0.0 and (head_sum + p_dl[..., m - 1]).max() <= 1.0):
        if p_dl.min() < -1e-12 or p_dl.max() > 1.0 + 1e-12:
            raise ValueError("p_dl entries must be probabilities in [0, 1]")
        if p_dl.sum(axis=-1).max() > 1.0 + 1e-9:
            raise ValueError("p_dl rows must sum to at most 1")

    attempts = (head * _arange(m)[1:]).sum(axis=-1) + m * (1.0 - head_sum)
    r_c_phy = r_c_app * attempts
    r_u_phy = r_u_app * _col(cfg.h)
    r_phy = r_c_phy + r_u_phy
    total = r_phy.sum(axis=-1, keepdims=True)
    d = r_phy / np.where(total > 0.0, total, np.inf)   # zeros when idle
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
    return np.exp(-cfg.c_channels * (rates.r_phy * cfg.airtimes._t_data).sum(axis=-1))


def demod_chain(cfg: ScenarioConfig, rates: TrafficRates) -> DemodChainState:
    """Occupancy of the demodulator bank under the total uplink load.

    Each demodulator is an alternating available/locked renewal process;
    demodulator j only receives the arrival stream thinned by the
    probability that demodulators 1..j-1 are all locked.  With no
    traffic every demodulator is free and ``s_demod`` is 1.
    """
    e_lock = (rates.d * cfg.airtimes._t_data).sum(axis=-1)
    total = cfg.c_channels * rates.r_phy.sum(axis=-1)
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
    return DemodChainState(e_lock, e_avail.T, p_lock.T, 1.0 - p_lock.prod(axis=0))


#: Largest ACK rate whose mean wait 1/rate overflows to infinity.
_OVERFLOW_RATE = 1.0 / np.finfo(float).max


def _subband(r: np.ndarray, t_ack: np.ndarray, delta: float, p_t,
             c_channels: int) -> SubBandState:
    total = r.sum(axis=-1)
    # Idle: no ACK traffic, or too little for a finite ON sojourn 1/(c total).
    # A NaN total is not idle, so the sweep's failure check still reports it.
    idle = c_channels * total <= _OVERFLOW_RATE
    any_idle = _any(idle)
    if any_idle:
        # Never duty-cycle blocked: a stand-in total of 1 gives b = r ~ 0,
        # e_off ~ 0 and p_on = 1; e_on becomes infinite below.
        total = total + idle
    b = r / _col(total)
    e_on = 1.0 / (c_channels * total)
    e_off = (b * (_col(1.0 + delta) * t_ack)).sum(axis=-1)
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
    sb1 = _subband(r1, cfg.airtimes._t_ack1, cfg.delta_sb1, gw_may_transmit(cfg, rates, 1),
                   cfg.c_channels)
    r2 = r1 * _col(sb1.p_off + sb1.p_on * (1.0 - sb1.p_t))
    sb2 = _subband(r2, cfg.airtimes._t_ack2, cfg.delta_sb2, gw_may_transmit(cfg, rates, 2),
                   cfg.c_channels)
    return sb1, sb2


def _tx_window_fraction(sb: SubBandState, t_ack: np.ndarray, tau: int,
                        t_data: np.ndarray) -> np.ndarray:
    """Fraction of time an uplink arrival falls in a gateway TX window.

    This is the mean vulnerable time per renewal cycle of the sub-band,
    which is 0 for an idle sub-band (infinite ON sojourn).  The printed
    ratio can exceed 1 when the vulnerability window is longer than a
    whole renewal period (very aggressive ACK load, e.g. with duty
    cycling disabled), so it is capped at 1 to remain a probability.
    """
    window = _col((sb.b * t_ack).sum(axis=-1)) + t_data * tau
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
    f_tx1 = _tx_window_fraction(sb1, airtimes._t_ack1, cfg.tau1, airtimes._t_data)
    f_tx2 = _tx_window_fraction(sb2, airtimes._t_ack2, cfg.tau2, airtimes._t_data)
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
    t_data, t_ack1 = cfg.airtimes._t_data, cfg.airtimes._t_ack1
    r = rates.r_phy
    clear = np.exp(-r * (t_ack1 + cfg.tau1 * t_data))
    both = t_ack1 + t_data
    captured = r * both * np.exp(-r * both) * _col(cfg.w_ed)
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


def _failures(state: SteadyState) -> dict[int, str]:
    """ModelError message of each row whose sweep broke, by row index.

    A row fails on the first broken check: ACK success above 1, then the
    finiteness of each quantity in the order of the sweep.
    """
    checked = np.concatenate((state.rates.r_phy, state.s_int, state.s_tx, state.s_ul,
                              state.s_int_ack1, state.s_dl), axis=-1)
    # One sum is finite when every term is: only an overflow takes the long way.
    if math.isfinite(checked.sum()) and state.s_dl.max() <= _S_DL_MAX:
        return {}
    finite = np.atleast_2d(np.isfinite(checked))   # one row per state row
    s_dl = np.atleast_2d(state.s_dl)
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
           s_dl: np.ndarray) -> tuple[SteadyState, dict[int, str]]:
    """One update sweep of K rows given their application rates ``app``.

    The arrays are ``(K, 6)``, or ``(6,)`` for one row without a row axis.
    Returns the new state and the failure message of each broken row.
    """
    rates = phy_rates(cfg, attempt_distributions(s_ul * s_dl, cfg.m), app)
    demod = demod_chain(cfg, rates)
    sb1, sb2 = subband_states(cfg, rates, s_ul)
    s_int = interference_survival(cfg.airtimes._t_data, rates.r_phy, cfg.w_gw)
    f_tx1, f_tx2, s_tx = gw_tx_survival(cfg, sb1, sb2)
    new_ul = s_int * s_tx * _col(demod.s_demod)
    s_int_ack1 = ack_interference_survival(cfg, rates)
    s_sb1, s_sb2, new_dl = dl_success(cfg, sb1, sb2, s_int_ack1)
    state = SteadyState(
        s_ul=new_ul, s_dl=new_dl, s_int=s_int, s_tx=s_tx,
        f_tx1=f_tx1, f_tx2=f_tx2, s_int_ack1=s_int_ack1,
        s_sb1=s_sb1, s_sb2=s_sb2, rates=rates, sb1=sb1, sb2=sb2, demod=demod,
        iterations=1, residual=math.inf, converged=False,
    )
    return state, _failures(state)


def _take(obj, i: int, **changes):
    """Row ``i`` of a batched result dataclass, nested dataclasses included.

    Every array field has the row axis first; other fields are shared.
    """
    values = {}
    for name, value in vars(obj).items():
        if isinstance(value, np.ndarray):
            value = value[i]
        elif is_dataclass(value):
            value = _take(value, i)
        values[name] = value
    values.update(changes)
    return type(obj)(**values)


def _stack(objs):
    """The batched result dataclass of a list of one-row ones: the inverse of ``_take``.

    Every field gains a leading row axis, in nested dataclasses too, so
    ``_take(_stack(objs), i)`` equals ``objs[i]``.
    """
    return type(objs[0])(**{
        name: (_stack([getattr(obj, name) for obj in objs]) if is_dataclass(value)
               else np.array([getattr(obj, name) for obj in objs]))
        for name, value in vars(objs[0]).items()})


def iterate(cfg: ScenarioConfig, s_ul, s_dl) -> SteadyState:
    """One full update sweep of the fixed-point system.

    Recomputes, in order: attempt distributions, PHY rates, demodulator
    chain, sub-band states, interference/TX survivals, the new uplink
    success, ACK interference, and the new downlink success.  The
    sub-band states are driven by the incoming ``s_ul`` iterate.  Raises
    ``ModelError`` when the sweep breaks (ACK success above 1, or a
    non-finite quantity): the same per-row check with which
    :func:`solve_many` names the broken row of a batch.
    """
    state, failures = _sweep(cfg, app_rates(cfg), _vec(s_ul), _vec(s_dl))
    if failures:
        raise ModelError(failures[0])
    return state


def solve(cfg: ScenarioConfig, tol: float = 1e-10, max_iter: int = 1000,
          start=None) -> SteadyState:
    """Solve the fixed point by iteration from the all-ones starting point.

    Stops when the sup-norm change of (s_ul, s_dl) between sweeps falls
    below ``tol``.  If ``max_iter`` sweeps are exhausted first, the best
    iterate is returned with ``converged`` False.  ``start``, a pair
    ``(s_ul, s_dl)`` of per-SF probabilities, replaces the all-ones starting
    point, e.g. with the fixed point of a nearby scenario.
    """
    [state] = solve_many([cfg], tol, max_iter, start)
    if isinstance(state, ModelError):
        raise state
    return state


def _start_vectors(start) -> tuple[np.ndarray, np.ndarray]:
    """Validated copies of a starting point ``(s_ul, s_dl)``."""
    try:
        s_ul, s_dl = (np.array(v, dtype=float) for v in start)
    except (TypeError, ValueError):
        raise ValidationError("start must be a pair (s_ul, s_dl) of per-SF vectors") from None
    for v in (s_ul, s_dl):
        if v.shape != (N_SF,):
            raise ValidationError(f"start vectors must have shape ({N_SF},), got {v.shape}")
        if not np.all((v >= 0.0) & (v <= 1.0)):   # also false for NaN
            raise ValidationError(f"start entries must be probabilities in [0, 1], got {v.tolist()}")
    return s_ul, s_dl


#: Fields that fix array shapes, loop counts or the ``gw_may_transmit`` branch,
#: and the airtimes, which the model reads as per-SF vectors: configs solved as
#: one batch must agree on them.
_SHARED = ("m", "tau1", "tau2", "n_demodulators", "airtimes")
#: Scalars that the sweep reads from the config and that may differ by row.
_PER_ROW = ("h", "delta_sb1", "delta_sb2", "c_channels", "w_gw", "w_ed")


def _by_shape(cfgs, run, shared=_SHARED) -> list:
    """``run(group)`` on each group of ``cfgs`` that agree on the ``shared``
    fields; the results of all groups, scattered back into config order.

    ``run`` takes the list of indices into ``cfgs`` of one group and returns
    one result per index.
    """
    if len(cfgs) == 1:   # one group: nothing to sort or scatter
        return list(run([0]))
    groups: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        groups.setdefault(tuple(getattr(cfg, name) for name in shared), []).append(i)
    results: list = [None] * len(cfgs)
    for group in groups.values():
        for i, result in zip(group, run(group)):
            results[i] = result
    return results


def _batch(cfgs, shared=_SHARED, names=None) -> SimpleNamespace:
    """One scenario for configs that agree on the ``shared`` fields, in the
    batched form that the model functions accept.

    The ``shared`` fields keep their common value; every other field of
    ``names`` (default: all) becomes a ``(K,)`` array, and an SF
    distribution a namespace whose ``p`` is ``(K, 6)``.
    """
    fields = {}
    for name in names or vars(cfgs[0]):
        value = getattr(cfgs[0], name)
        if name in shared:
            fields[name] = value
        elif isinstance(value, SfDistribution):
            fields[name] = SimpleNamespace(p=np.array([getattr(c, name).p for c in cfgs]))
        else:
            fields[name] = np.array([getattr(c, name) for c in cfgs])
    return SimpleNamespace(**fields)


def solve_many(cfgs, tol: float = 1e-10, max_iter: int = 1000,
               start=None) -> list[SteadyState | ModelError]:
    """Solve every config as :func:`solve` would; one result per config, in order.

    Configs that agree on ``m``, ``tau1``, ``tau2``, ``n_demodulators`` and
    the airtimes are iterated together as one batch.  A row is frozen once
    its own residual reaches ``tol``, and a row whose sweep breaks yields
    its ``ModelError`` without stopping the others.  Every row starts from
    ``start`` when it is given.
    """
    if start is not None:
        start = _start_vectors(start)
    if not tol > 0.0:
        raise ValidationError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    return _by_shape(cfgs, lambda group: _solve_batch([cfgs[i] for i in group], tol,
                                                      max_iter, start))


def _solve_batch(cfgs, tol: float, max_iter: int, start) -> list[SteadyState | ModelError]:
    """:func:`solve_many` of configs that agree on ``_SHARED``, with validated arguments."""
    results: list = [None] * len(cfgs)
    rows = list(range(len(cfgs)))     # index in ``cfgs`` of each active row
    batched = len(rows) > 1
    if batched:
        # One scenario for all rows: each per-row field is a (K,) array, rates (K, 6).
        cfg = _batch(cfgs, names=_SHARED + _PER_ROW)
        app = tuple(np.array(rates) for rates in zip(*map(app_rates, cfgs)))
    else:
        # A single row runs on its own config without a row axis: its per-row
        # scalars are then numpy scalars, whose arithmetic costs a fraction of
        # a one-element array's.
        cfg, app = cfgs[0], app_rates(cfgs[0])
    if start is None:
        s_ul = s_dl = np.ones(app[0].shape)
    else:
        s_ul, s_dl = (np.broadcast_to(v, app[0].shape) for v in start)
    for iterations in range(1, max_iter + 1):
        state, failures = _sweep(cfg, app, s_ul, s_dl)
        new_ul, new_dl = state.s_ul, state.s_dl
        residual = np.maximum(np.abs(new_ul - s_ul), np.abs(new_dl - s_dl)).max(axis=-1)
        converged = residual <= tol
        if failures or iterations == max_iter or _any(converged):
            done = failures.keys() | np.flatnonzero(converged | (iterations == max_iter)).tolist()
            for i in done:
                if i in failures:
                    results[rows[i]] = ModelError(failures[i])
                    continue
                at = i if batched else ()
                changes = dict(iterations=iterations, residual=float(residual[at]),
                               converged=bool(converged[at]))
                results[rows[i]] = (_take(state, i, **changes) if batched
                                    else SteadyState(**{**vars(state), **changes}))
            if len(done) == len(rows):
                break
            active = [i for i in range(len(rows)) if i not in done]
            rows = [rows[i] for i in active]
            cfg = SimpleNamespace(**{name: value[active] if name in _PER_ROW else value
                                     for name, value in vars(cfg).items()})
            app = tuple(rates[active] for rates in app)
            new_ul, new_dl = new_ul[active], new_dl[active]
        s_ul, s_dl = new_ul, new_dl
    return results
