"""Performance metrics derived from a solved steady state.

Maps a converged :class:`~loracell.analytic.SteadyState` to delivery
ratios (unconfirmed uplink UU, confirmed uplink CU, confirmed downlink
CD), delays, Jain's fairness index, the distribution of retransmission
counts, and the decomposition of PHY losses by cause.

Every metric also takes a leading row axis, in the forms that the model
functions of :mod:`~loracell.analytic` accept: a batched state whose
per-SF vectors are ``(K, 6)``, and a batched config whose per-row fields
are ``(K,)`` arrays (or shared scalars) and whose SF distributions are
``(K, 6)``.  The rows of a batch share ``h`` and the fields on which
:func:`~loracell.analytic.solve_many` groups a batch (``m``, ``tau1``,
``tau2``, ``n_demodulators``, the airtimes), which fix the shapes of the
state's and the metrics' arrays.  A metric that is undefined for one
row raises :class:`MetricsError` in a one-row call and reads NaN in a
batched one.  Each row equals its one-row call bit for bit, which
:func:`compute_report` relies on: a batched call gives one report per row,
and :func:`report_many` batches a list of solved configs that way.

Fairness is reported only by :func:`compute_report`: Jain's index over the
(traffic type, SF) populations, ``None`` when no population has any
success.  It is the one metric whose vector length differs by row: a row
has only the populations that have devices, so a batched call marks the
absent ones NaN.  :func:`jain_index` computes the rows of each such
category mask as one compact block, because numpy's pairwise sum changes
its blocking at 8 elements: summing a 6-category row padded to 12 would
not round like the 6-element sum of its one-row call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import (_SHARED, SteadyState, _arange, _batch, _by_shape, _col, _stack,
                       attempt_distributions)
from .scenario import ScenarioConfig


#: The scalar metrics that the model, the simulator and the optimizer all
#: report, in CLI column order; each is a field of ``MetricsReport``,
#: ``simulate.ReplicationResult`` and ``simulate.SimReport``.
METRICS = ("uu", "cu", "cd", "delta_ul", "delta_dl", "jain", "f_nmd", "f_gwtx", "f_int")

#: Config fields that rows reported as one batch share: those of a solver
#: batch, and ``h``, which fixes the length of the unconfirmed attempt axis.
_BATCH_KEY = _SHARED + ("h",)

#: Smallest normal float: a sum of squares below it has lost precision to underflow.
_TINY = np.finfo(float).tiny


class MetricsError(ValueError):
    """A metric is undefined for the given state (e.g. no traffic to measure)."""


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
    uu_i = attempt_distributions(state.s_ul, cfg.h).sum(axis=-1)
    cu_i = attempt_distributions(state.s_ul, cfg.m).sum(axis=-1)
    cd_i = attempt_distributions(state.s_ul * state.s_dl, cfg.m).sum(axis=-1)
    return _weighted(p_u, uu_i), _weighted(p_c, cu_i), _weighted(p_c, cd_i), uu_i, cu_i, cd_i


def _weighted(p: np.ndarray, per_sf: np.ndarray):
    """Share-weighted sum ``p @ per_sf`` of each row: a float for one row.

    The stacked product is bit-identical to a per-row ``p @ per_sf``.
    """
    total = (p[..., None, :] @ per_sf[..., None])[..., 0, 0]
    return float(total) if total.ndim == 0 else total


def _undefined(state: SteadyState, rows, message: str):
    """The rows where a metric is undefined: raises for a one-row state."""
    if np.ndim(state.s_ul) == 1 and rows:
        raise MetricsError(message)
    return rows


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
    delays, NaN where a row has no confirmed traffic that can succeed.
    """
    unconfirmed = _undefined(state, np.asarray(cfg.alpha) <= 0.0,
                             "delays are undefined without confirmed traffic (alpha = 0)")
    p_ul = attempt_distributions(state.s_ul, cfg.m)
    p_dl = attempt_distributions(state.s_ul * state.s_dl, cfg.m)
    undefined = unconfirmed | _undefined(
        state, ~(p_dl.sum(axis=-1) > 0.0).any(axis=-1),
        "downlink delay undefined: no confirmed packet can succeed")
    p_c = np.asarray(cfg.p_confirmed.p)
    airtimes = cfg.airtimes
    t_data, t_ack1, t_ack2 = airtimes._t_data, airtimes._t_ack1, airtimes._t_ack2

    gamma = _col(cfg.delta_sb1 + 1.0) * t_data + _col(cfg.mu_retx)
    phi = state.s_sb1 * (1.0 + t_ack1) + _col(state.s_sb2) * (2.0 + t_ack2)

    j0 = _arange(cfg.m)  # attempt index j-1
    t_ul = t_data[:, None] + j0 * gamma[..., None]
    t_dl = t_ul + (j0 + 1.0) * phi[..., None]
    delta_ul, delta_dl = _mean_delay(p_c, p_ul, t_ul), _mean_delay(p_c, p_dl, t_dl)
    if undefined.any():
        delta_ul, delta_dl = (np.where(undefined, np.nan, v) for v in (delta_ul, delta_dl))
    return delta_ul, delta_dl


def _mean_delay(p_c: np.ndarray, p: np.ndarray, t: np.ndarray):
    """Sum over SFs i of ``p_c[i]`` times the ``p[i]``-weighted mean of ``t[i]`` (0 if
    ``p[i]`` is all zero), bit-identical to a per-SF loop of ``weights @ t[i]``:
    a float for one row, else one value per row."""
    total = p.sum(axis=-1)
    keep = total > 0.0
    weights = p / np.where(keep, total, 1.0)[..., None]
    per_sf = np.where(keep, (weights[..., None, :] @ t[..., :, None])[..., 0, 0], 0.0)
    # Python's sum adds the SFs left to right, as the per-SF loop did.
    delay = sum((p_c * per_sf).T)
    return float(delay) if np.ndim(delay) == 0 else delay


def jain_index(x):
    """Jain's fairness index (sum x)^2 / (n sum x^2); 1 means perfectly fair.

    A ``(K, n)`` stack gives one index per row.  NaN entries of a stack
    mark absent members, so rows may differ in size; each row's index
    equals the one of its vector without them.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        present = ~np.isnan(x)
        if not present.all():
            masks, group = np.unique(present, axis=0, return_inverse=True)
            index = np.empty(len(x))
            for g, mask in enumerate(masks):
                rows = group == g
                # compress keeps each row contiguous, so its sum rounds as in a one-row call.
                index[rows] = jain_index(np.compress(mask, x[rows], axis=1))
            return index
    if x.shape[-1] == 0:
        raise MetricsError("fairness undefined for an empty allocation vector")
    if (x < 0.0).any():
        raise MetricsError("fairness requires non-negative allocations")
    total = x.sum(axis=-1)
    if (total <= 0.0).any():
        raise MetricsError("fairness undefined for an all-zero allocation vector")
    squares = (x * x).sum(axis=-1)
    tiny = squares < _TINY
    if tiny.any():
        # The squares underflow; the index is scale-free.
        return jain_index(np.where(tiny[..., None], x / x.max(axis=-1, keepdims=True), x))
    index = total * total / (x.shape[-1] * squares)
    return float(index) if index.ndim == 0 else index


def _categories(cfg: ScenarioConfig, uu_i, cu_i) -> np.ndarray:
    """Per-category throughput proxies for the fairness index.

    Categories are the up-to-12 (traffic type, SF) populations: the
    uplink success probability ``uu_i`` (from :func:`reliability`) for
    unconfirmed devices and ``cu_i`` for confirmed ones.  Structurally empty
    categories (no devices) are excluded so they cannot depress the index;
    a batched config gives a ``(K, 12)`` stack in which they are NaN, the
    form :func:`jain_index` reads.
    """
    alpha = _col(cfg.alpha)
    present = np.concatenate(((1.0 - alpha) * np.asarray(cfg.p_unconfirmed.p) > 0.0,
                              alpha * np.asarray(cfg.p_confirmed.p) > 0.0), axis=-1)
    categories = np.concatenate((uu_i, cu_i), axis=-1)
    return categories[present] if categories.ndim == 1 else np.where(present, categories, np.nan)


def retx_distribution(state: SteadyState, cfg: ScenarioConfig) -> np.ndarray:
    """Share of confirmed traffic acknowledged at each attempt, plus failures.

    Returns m+1 entries: the aggregate probability of first ACK success
    at attempt j = 1..m, then the residual share that exhausts all m
    attempts without an ACK.  Entries sum to 1.  A batched state gives a
    ``(K, m+1)`` stack, NaN in the rows without confirmed traffic.
    """
    undefined = _undefined(state, np.asarray(cfg.alpha) <= 0.0,
                           "retransmission distribution undefined without confirmed traffic")
    p_c = np.asarray(cfg.p_confirmed.p)
    p_dl = attempt_distributions(state.s_ul * state.s_dl, cfg.m)
    shares = (p_c[..., None, :] @ p_dl)[..., 0, :]
    fail = 1.0 - shares.sum(axis=-1)
    out = np.concatenate((shares, np.maximum(fail, 0.0)[..., None]), axis=-1)
    out = out / out.sum(axis=-1, keepdims=True)
    return np.where(_col(undefined), np.nan, out) if undefined.any() else out


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
    if np.ndim(f_nmd) == 0:
        f_nmd = float(f_nmd)
    f_gwtx = _weighted(d, s * (1.0 - state.s_tx))
    f_int = _weighted(d, s * state.s_tx * (1.0 - state.s_int))
    return f_nmd, f_gwtx, f_int


def compute_report(state: SteadyState, cfg: ScenarioConfig):
    """Assemble the full metrics report of a solved configuration.

    A batched state and config give a list with one report per row, each
    equal to the report of its one-row call.
    """
    uu, cu, cd, uu_i, cu_i, cd_i = reliability(state, cfg)
    try:
        delta_ul, delta_dl = delays(state, cfg)
    except MetricsError:
        delta_ul = delta_dl = None
    try:
        retx = retx_distribution(state, cfg)
    except MetricsError:
        retx = None
    f_nmd, f_gwtx, f_int = loss_decomposition(state, cfg)
    jain = _jain(_categories(cfg, uu_i, cu_i))
    values = (uu, cu, cd, uu_i, cu_i, cd_i, delta_ul, delta_dl, jain, retx, f_nmd, f_gwtx, f_int)
    if np.ndim(uu) == 0:
        return MetricsReport(*map(_field, values))
    return [MetricsReport(*row) for row in zip(*map(_column, values))]


def _jain(categories: np.ndarray):
    """Jain index of each row's categories: undefined, not an error, when no
    population has any success (None for one row, NaN in a batch)."""
    if categories.ndim == 1:
        return jain_index(categories) if categories.any() or not categories.size else None
    live = np.nan_to_num(categories).any(axis=-1)   # an absent category's NaN reads 0
    jain = np.full(len(categories), np.nan)
    if live.any():
        jain[live] = jain_index(categories[live])
    return jain


def _field(value):
    """A one-row report field: a tuple of floats for a vector."""
    return tuple(value.tolist()) if isinstance(value, np.ndarray) else value


def _column(values: np.ndarray) -> list:
    """The report fields of each row of a batched metric; None where it is NaN."""
    rows = values.tolist()
    if values.ndim == 2:
        return [None if row[0] != row[0] else tuple(row) for row in rows]
    return [None if v != v else v for v in rows]


def report_many(states, cfgs) -> list[MetricsReport]:
    """The report of every solved config, in order, as :func:`compute_report` gives it.

    Configs that agree on ``h`` and on the fields with which
    :func:`~loracell.analytic.solve_many` groups a batch (``m``, ``tau1``,
    ``tau2``, ``n_demodulators``, the airtimes) are reported as one batch.
    """
    return _by_shape(cfgs, lambda group: compute_report(
        _stack([states[i] for i in group]), _batch([cfgs[i] for i in group], _BATCH_KEY)),
        _BATCH_KEY)
