"""Performance metrics derived from a solved steady state.

Maps a converged :class:`~loracell.analytic.SteadyState` to delivery
ratios (unconfirmed uplink UU, confirmed uplink CU, confirmed downlink
CD), delays, Jain's fairness index, the distribution of retransmission
counts, and the decomposition of PHY losses by cause.

Every metric also takes a leading row axis, in the forms that the model
functions of :mod:`~loracell.analytic` accept: a batched state whose
per-SF vectors are ``(K, 6)``, and a batched config whose per-row fields
are ``(K,)`` arrays (or shared scalars) and whose SF distributions are
``(K, 6)``.  The rows of a batch share the fields on which
:func:`~loracell.analytic.solve_groups` groups configs (``m``, ``h``, ``tau1``,
``tau2``, ``n_demodulators``, the airtimes), which fix the shapes of the
state's and the metrics' arrays.  A metric that is undefined for a row
reads NaN there, in a one-row call as in a batch, and each row of a batch
equals its one-row call bit for bit.  :func:`compute_report` reports a
one-row state as a batch of one, and a batch of
:func:`~loracell.analytic.solve_groups` in one call; a NaN field of a report
row reads ``None``.

Fairness is reported only by :func:`compute_report`: Jain's index over the
(traffic type, SF) populations that have devices, ``None`` when no
population has any success.  Its vector length differs by row, so
:func:`jain_index` takes one vector and each row is computed on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import SteadyState, _any, _arange, _batch, _col, _stack, attempt_distributions
from .scenario import ScenarioConfig


#: The scalar metrics that the model, the simulator and the optimizer all
#: report, in CLI column order; each is a field of ``MetricsReport``,
#: ``simulate.ReplicationResult`` and ``simulate.SimReport``.
METRICS = ("uu", "cu", "cd", "delta_ul", "delta_dl", "jain", "f_nmd", "f_gwtx", "f_int")

#: Smallest normal float: a sum of squares below it has lost precision to underflow.
_TINY = np.finfo(float).tiny


class MetricsError(ValueError):
    """:func:`jain_index` got no valid allocation vector (empty, negative or all zero)."""


@dataclass(frozen=True)
class MetricsReport:
    """All scalar metrics of one solved configuration.

    ``delta_ul``, ``delta_dl`` and ``retx_dist`` are ``None`` when there
    is no confirmed traffic to measure them on (``alpha`` = 0, or no
    confirmed packet can succeed), and ``jain`` is ``None`` when no
    (traffic type, SF) population has any success.
    """

    uu: float
    cu: float
    cd: float
    uu_per_sf: tuple[float, ...]
    cu_per_sf: tuple[float, ...]
    cd_per_sf: tuple[float, ...]
    delta_ul: float | None         # mean first-attempt-to-gateway delay [s]
    delta_dl: float | None         # mean first-attempt-to-ACK delay [s]
    jain: float | None
    retx_dist: tuple[float, ...] | None   # success share per attempt 1..m, then failure share
    f_nmd: float                   # PHY loss share: no free demodulator
    f_gwtx: float                  # PHY loss share: gateway transmitting
    f_int: float                   # PHY loss share: interference

    def to_dict(self) -> dict:
        """Plain JSON-ready mapping: tuples become lists, ``None`` stays."""
        return {name: list(v) if isinstance(v, tuple) else v
                for name, v in vars(self).items()}


def reliability(state: SteadyState, cfg: ScenarioConfig):
    """Delivery ratios UU, CU, CD with their per-SF vectors.

    An unconfirmed packet is delivered if any of its h copies reaches the
    gateway; a confirmed packet counts for CU when any of its m attempts
    reaches the gateway and for CD when the ACK also comes back.  A
    batched state gives ``(K,)`` ratios and ``(K, 6)`` vectors.
    """
    p_u = np.asarray(cfg.p_unconfirmed.p)
    p_c = np.asarray(cfg.p_confirmed.p)
    # The first n attempts of the longer distribution are those of an n-attempt one.
    p_ul = attempt_distributions(state.s_ul, max(cfg.h, cfg.m))
    uu_i = np.add.reduce(p_ul[..., :cfg.h], -1)
    cu_i = np.add.reduce(p_ul[..., :cfg.m], -1)
    cd_i = np.add.reduce(attempt_distributions(state.s_ul * state.s_dl, cfg.m), -1)
    return _weighted(p_u, uu_i), _weighted(p_c, cu_i), _weighted(p_c, cd_i), uu_i, cu_i, cd_i


def _weighted(p: np.ndarray, per_sf: np.ndarray):
    """Share-weighted sum ``p @ per_sf`` of each row: a float for one row.

    The stacked product is bit-identical to a per-row ``p @ per_sf``.
    """
    total = (p[..., None, :] @ per_sf[..., None])[..., 0, 0]
    return float(total) if total.ndim == 0 else total


def delays(state: SteadyState, cfg: ScenarioConfig):
    """Mean uplink and downlink delays of successful confirmed packets [s].

    Attempt j starts (j-1) inter-transmission periods after the first
    one; each period is the duty-cycle silence plus the mean
    retransmission timeout.  The ACK itself lands 1 s (RX1) or 2 s (RX2)
    after the uplink, weighted by the raw per-window success
    probabilities, which makes the ACK term a lower bound on the
    conditional ACK delay when those probabilities do not sum to 1.
    Failed packets are excluded: the per-attempt weights are normalized
    over successful attempts, per SF.  A batched state gives ``(K,)``
    delays; both read NaN where a row has no confirmed traffic that can succeed.
    """
    p_ul = attempt_distributions(state.s_ul, cfg.m)
    p_dl = attempt_distributions(state.s_ul * state.s_dl, cfg.m)
    can_succeed = np.logical_or.reduce(np.add.reduce(p_dl, -1) > 0.0, -1)
    undefined = (np.asarray(cfg.alpha) <= 0.0) | ~can_succeed
    p_c = np.asarray(cfg.p_confirmed.p)
    airtimes = cfg.airtimes
    t_data, t_ack1, t_ack2 = airtimes._t_data, airtimes._t_ack1, airtimes._t_ack2

    gamma = _col(cfg.delta_sb1 + 1.0) * t_data + _col(cfg.mu_retx)
    phi = state.s_sb1 * (1.0 + t_ack1) + _col(state.s_sb2) * (2.0 + t_ack2)

    j0 = _arange(cfg.m)  # attempt index j-1
    t_ul = t_data[:, None] + j0 * gamma[..., None]
    t_dl = t_ul + (j0 + 1.0) * phi[..., None]
    delta_ul, delta_dl = _mean_delay(p_c, p_ul, t_ul), _mean_delay(p_c, p_dl, t_dl)
    if _any(undefined):
        delta_ul, delta_dl = (np.where(undefined, np.nan, v) for v in (delta_ul, delta_dl))
    return delta_ul, delta_dl


def _mean_delay(p_c: np.ndarray, p: np.ndarray, t: np.ndarray):
    """Sum over SFs i of ``p_c[i]`` times the ``p[i]``-weighted mean of ``t[i]`` (0 if
    ``p[i]`` is all zero), bit-identical to a per-SF loop of ``weights @ t[i]``,
    for each row."""
    total = np.add.reduce(p, -1)
    keep = total > 0.0
    weights = p / np.where(keep, total, 1.0)[..., None]
    per_sf = np.where(keep, (weights[..., None, :] @ t[..., :, None])[..., 0, 0], 0.0)
    # Python's sum adds the SFs left to right, as the per-SF loop did.
    return sum((p_c * per_sf).T)


def jain_index(x) -> float:
    """Jain's fairness index (sum x)^2 / (n sum x^2) of one allocation
    vector; 1 means perfectly fair."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise MetricsError(f"fairness takes one allocation vector, got shape {x.shape}")
    if len(x) == 0:
        raise MetricsError("fairness undefined for an empty allocation vector")
    if np.logical_or.reduce(x < 0.0):
        raise MetricsError("fairness requires non-negative allocations")
    total = np.add.reduce(x)
    if total <= 0.0:
        raise MetricsError("fairness undefined for an all-zero allocation vector")
    squares = np.add.reduce(x * x)
    if squares < _TINY:
        # The squares underflow; the index is scale-free.
        return jain_index(x / np.maximum.reduce(x))
    return float(total * total / (len(x) * squares))


def _categories(cfg: ScenarioConfig, uu_i, cu_i) -> np.ndarray:
    """Per-category throughput proxies for the fairness index.

    Categories are the up-to-12 (traffic type, SF) populations: the
    uplink success probability ``uu_i`` (from :func:`reliability`) for
    unconfirmed devices and ``cu_i`` for confirmed ones.  Structurally empty
    categories (no devices) read NaN, which the index leaves out, so they
    cannot depress it; a batched config gives a ``(K, 12)`` stack.
    """
    alpha = _col(cfg.alpha)
    present = np.concatenate(((1.0 - alpha) * np.asarray(cfg.p_unconfirmed.p) > 0.0,
                              alpha * np.asarray(cfg.p_confirmed.p) > 0.0), axis=-1)
    categories = np.concatenate((uu_i, cu_i), axis=-1)
    return np.where(present, categories, np.nan)


def retx_distribution(state: SteadyState, cfg: ScenarioConfig) -> np.ndarray:
    """Share of confirmed traffic acknowledged at each attempt, plus failures.

    Returns m+1 entries: the aggregate probability of first ACK success
    at attempt j = 1..m, then the residual share that exhausts all m
    attempts without an ACK.  Entries sum to 1, or all read NaN without
    confirmed traffic.  A batched state gives a ``(K, m+1)`` stack.
    """
    undefined = np.asarray(cfg.alpha) <= 0.0
    p_c = np.asarray(cfg.p_confirmed.p)
    p_dl = attempt_distributions(state.s_ul * state.s_dl, cfg.m)
    shares = (p_c[..., None, :] @ p_dl)[..., 0, :]
    fail = 1.0 - np.add.reduce(shares, -1)
    out = np.concatenate((shares, np.maximum(fail, 0.0)[..., None]), axis=-1)
    out = out / np.add.reduce(out, -1, keepdims=True)
    return np.where(_col(undefined), np.nan, out) if _any(undefined) else out


def loss_decomposition(state: SteadyState, cfg: ScenarioConfig):
    """PHY-layer loss shares by cause, averaged over the PHY SF mix.

    A packet first needs a free demodulator, then must not be hit by a
    gateway transmission, then must survive interference; the three loss
    shares plus the mean uplink success over the PHY SF share sum to 1.
    A batched state gives three ``(K,)`` arrays.
    """
    d = state.rates.d
    s = _col(state.demod.s_demod)
    f_nmd = 1.0 - state.demod.s_demod
    f_gwtx = _weighted(d, s * (1.0 - state.s_tx))
    f_int = _weighted(d, s * state.s_tx * (1.0 - state.s_int))
    return f_nmd, f_gwtx, f_int


def compute_report(state: SteadyState, cfg: ScenarioConfig):
    """Assemble the full metrics report of a solved configuration.

    A one-row state and config are reported as a batch of one; a batched
    state and config give a list with one report per row.
    """
    one_row = np.ndim(state.s_ul) == 1
    if one_row:
        state, cfg = _stack([state]), _batch([cfg])
    uu, cu, cd, uu_i, cu_i, cd_i = reliability(state, cfg)
    delta_ul, delta_dl = delays(state, cfg)
    retx = retx_distribution(state, cfg)
    f_nmd, f_gwtx, f_int = loss_decomposition(state, cfg)
    jain = _jain(_categories(cfg, uu_i, cu_i))
    values = (uu, cu, cd, uu_i, cu_i, cd_i, delta_ul, delta_dl, jain, retx, f_nmd, f_gwtx, f_int)
    reports = [MetricsReport(*row) for row in zip(*map(_column, values))]
    return reports[0] if one_row else reports


def _jain(categories: np.ndarray) -> np.ndarray:
    """Jain index of each row's present (non-NaN) categories: NaN, not an
    error, where no population has any success."""
    # A present category with any success; an absent one's NaN does not count.
    live = np.logical_or.reduce(~np.isnan(categories) & (categories != 0.0), -1)
    return np.array([jain_index(row[~np.isnan(row)]) if ok else np.nan
                     for row, ok in zip(categories, live.tolist())])


def _column(values: np.ndarray) -> list:
    """The report fields of each row of a batched metric; None where it is NaN."""
    rows = values.tolist()
    if values.ndim == 2:
        return [None if row[0] != row[0] else tuple(row) for row in rows]
    return [None if v != v else v for v in rows]
