"""Performance metrics derived from a solved steady state.

Maps a converged :class:`~loracell.analytic.SteadyState` to delivery
ratios (unconfirmed uplink UU, confirmed uplink CU, confirmed downlink
CD), delays, Jain's fairness index, the distribution of retransmission
counts, and the decomposition of PHY losses by cause.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import SteadyState, attempt_distributions
from .scenario import ScenarioConfig


#: The scalar metrics that the model, the simulator and the optimizer all
#: report, in CLI column order; each is a field of ``MetricsReport``,
#: ``simulate.ReplicationResult`` and ``simulate.SimReport``.
METRICS = ("uu", "cu", "cd", "delta_ul", "delta_dl", "jain", "f_nmd", "f_gwtx", "f_int")


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
    reaches the gateway and for CD when the ACK also comes back.

    A batched state, whose per-SF vectors are ``(K, 6)`` as in a batched
    sweep of :mod:`~loracell.analytic`, gives ``(K,)`` ratios; the SF
    distributions of ``cfg`` may then be ``(K, 6)`` arrays as well, one
    row per state row.  Each row's ratios equal its one-row call's.
    """
    p_u = np.asarray(cfg.p_unconfirmed.p)
    p_c = np.asarray(cfg.p_confirmed.p)
    p_ul_h, _ = attempt_distributions(state.s_ul, state.s_dl, cfg.h)
    p_ul_m, p_dl_m = attempt_distributions(state.s_ul, state.s_dl, cfg.m)
    uu_i = p_ul_h.sum(axis=-1)
    cu_i = p_ul_m.sum(axis=-1)
    cd_i = p_dl_m.sum(axis=-1)
    return _weighted(p_u, uu_i), _weighted(p_c, cu_i), _weighted(p_c, cd_i), uu_i, cu_i, cd_i


def _weighted(p: np.ndarray, per_sf: np.ndarray):
    """Share-weighted sum ``p @ per_sf`` of each row: a float for one row.

    The stacked product is bit-identical to a per-row ``p @ per_sf``.
    """
    total = (p[..., None, :] @ per_sf[..., None])[..., 0, 0]
    return float(total) if total.ndim == 0 else total


def delays(state: SteadyState, cfg: ScenarioConfig) -> tuple[float, float]:
    """Mean uplink and downlink delays of successful confirmed packets [s].

    Attempt j starts (j-1) inter-transmission periods after the first
    one; each period is the duty-cycle silence plus the mean
    retransmission timeout.  The ACK itself lands 1 s (RX1) or 2 s (RX2)
    after the uplink, weighted by the raw per-window success
    probabilities, which makes the ACK term a lower bound on the
    conditional ACK delay when those probabilities do not sum to 1.
    Failed packets are excluded: the per-attempt weights are normalized
    over successful attempts, per SF.
    """
    if cfg.alpha <= 0.0:
        raise MetricsError("delays are undefined without confirmed traffic (alpha = 0)")
    p_c = np.asarray(cfg.p_confirmed.p)
    t_data = np.asarray(cfg.airtimes.t_data)
    t_ack1 = np.asarray(cfg.airtimes.t_ack1)
    t_ack2 = np.asarray(cfg.airtimes.t_ack2)

    gamma = (cfg.delta_sb1 + 1.0) * t_data + cfg.mu_retx
    phi = state.s_sb1 * (1.0 + t_ack1) + state.s_sb2 * (2.0 + t_ack2)

    p_ul, p_dl = attempt_distributions(state.s_ul, state.s_dl, cfg.m)
    if not np.any(p_dl.sum(axis=1) > 0.0):
        raise MetricsError("downlink delay undefined: no confirmed packet can succeed")

    j0 = np.arange(cfg.m, dtype=float)  # attempt index j-1
    t_ul = t_data[:, None] + j0 * gamma[:, None]
    t_dl = t_ul + (j0 + 1.0) * phi[:, None]
    return _mean_delay(p_c, p_ul, t_ul), _mean_delay(p_c, p_dl, t_dl)


def _mean_delay(p_c: np.ndarray, p: np.ndarray, t: np.ndarray) -> float:
    """Sum over SFs i of ``p_c[i]`` times the ``p[i]``-weighted mean of ``t[i]`` (0 if
    ``p[i]`` is all zero), bit-identical to a per-SF loop of ``weights @ t[i]``."""
    total = p.sum(axis=1)
    keep = total > 0.0
    weights = p / np.where(keep, total, 1.0)[:, None]
    per_sf = np.where(keep, (weights[:, None, :] @ t[:, :, None])[:, 0, 0], 0.0)
    return float(sum(p_c * per_sf))


def jain_index(x) -> float:
    """Jain's fairness index (sum x)^2 / (n sum x^2); 1 means perfectly fair."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise MetricsError("fairness undefined for an empty allocation vector")
    if np.any(x < 0.0):
        raise MetricsError("fairness requires non-negative allocations")
    total = float(x.sum())
    if total <= 0.0:
        raise MetricsError("fairness undefined for an all-zero allocation vector")
    squares = float(np.sum(x * x))
    if squares < np.finfo(float).tiny:
        return jain_index(x / x.max())   # the squares underflow; the index is scale-free
    return float(total * total / (x.size * squares))


def fairness_categories(state: SteadyState, cfg: ScenarioConfig) -> np.ndarray:
    """Per-category throughput proxies for the fairness index.

    Categories are the up-to-12 (traffic type, SF) populations: the
    uplink success probability UU_i for unconfirmed devices and CU_i for
    confirmed ones.  Structurally empty categories (no devices) are
    excluded so they cannot depress the index.
    """
    _, _, _, uu_i, cu_i, _ = reliability(state, cfg)
    unconfirmed = (1.0 - cfg.alpha) * np.asarray(cfg.p_unconfirmed.p) > 0.0
    confirmed = cfg.alpha * np.asarray(cfg.p_confirmed.p) > 0.0
    return np.concatenate((uu_i[unconfirmed], cu_i[confirmed]))


def fairness(state: SteadyState, cfg: ScenarioConfig) -> float:
    """Jain index over the non-empty (traffic type, SF) categories."""
    return jain_index(fairness_categories(state, cfg))


def retx_distribution(state: SteadyState, cfg: ScenarioConfig) -> np.ndarray:
    """Share of confirmed traffic acknowledged at each attempt, plus failures.

    Returns m+1 entries: the aggregate probability of first ACK success
    at attempt j = 1..m, then the residual share that exhausts all m
    attempts without an ACK.  Entries sum to 1.
    """
    if cfg.alpha <= 0.0:
        raise MetricsError("retransmission distribution undefined without confirmed traffic")
    p_c = np.asarray(cfg.p_confirmed.p)
    _, p_dl = attempt_distributions(state.s_ul, state.s_dl, cfg.m)
    shares = p_c @ p_dl
    fail = 1.0 - float(shares.sum())
    out = np.append(shares, max(fail, 0.0))
    return out / out.sum()


def loss_decomposition(state: SteadyState, cfg: ScenarioConfig) -> tuple[float, float, float]:
    """PHY-layer loss shares by cause, averaged over the PHY SF mix.

    A packet first needs a free demodulator, then must not be hit by a
    gateway transmission, then must survive interference; the three loss
    shares plus the mean uplink success over the PHY SF share sum to 1.
    """
    d = state.rates.d
    s = state.demod.s_demod
    f_nmd = 1.0 - s
    f_gwtx = float(d @ (s * (1.0 - state.s_tx)))
    f_int = float(d @ (s * state.s_tx * (1.0 - state.s_int)))
    return f_nmd, f_gwtx, f_int


def compute_report(state: SteadyState, cfg: ScenarioConfig) -> MetricsReport:
    """Assemble the full metrics report for one solved configuration."""
    uu, cu, cd, uu_i, cu_i, cd_i = reliability(state, cfg)
    if cfg.alpha > 0.0 and np.any(cd_i > 0.0):
        delta_ul, delta_dl = delays(state, cfg)
    else:
        delta_ul = delta_dl = None
    retx = tuple(float(v) for v in retx_distribution(state, cfg)) if cfg.alpha > 0.0 else None
    f_nmd, f_gwtx, f_int = loss_decomposition(state, cfg)
    categories = fairness_categories(state, cfg)
    # Undefined, not an error, when no population has any success.
    jain = None if categories.size and not categories.any() else jain_index(categories)
    return MetricsReport(
        uu=uu, cu=cu, cd=cd,
        uu_per_sf=tuple(float(v) for v in uu_i),
        cu_per_sf=tuple(float(v) for v in cu_i),
        cd_per_sf=tuple(float(v) for v in cd_i),
        delta_ul=delta_ul, delta_dl=delta_dl,
        jain=jain,
        retx_dist=retx,
        f_nmd=f_nmd, f_gwtx=f_gwtx, f_int=f_int,
    )
