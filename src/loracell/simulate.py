"""Event-driven Monte-Carlo simulator of the LoRaWAN cell.

Where the analytic model assumes independent Poisson filters, the
simulator tracks every device and the gateway explicitly: per-device
duty-cycle timers, correlated retransmission timing, a finite demodulator
bank, a half-duplex gateway radio and per-sub-band gateway duty cycling.
It is the validation oracle for the fixed-point model at desk scale.

Two capture models are available.  ``probabilistic`` mirrors the
analytic assumptions exactly: a reception overlapping one same-SF packet
on the same channel survives with the configured capture probability,
and overlapping two or more is always lost.  ``geometric`` places
devices on a disc, applies log-distance path loss and lets a reception
survive if its power exceeds the maximum concurrent sum of same-SF
interferers by the co-channel rejection margin.

A listener (the gateway receiving an uplink, or a device receiving its
RX1 acknowledgement) is the list of same-channel same-SF transmissions
that overlap it.  Their received powers are evaluated only when the
reception resolves, by one capture rule shared by uplinks and ACKs.  A
reception that met none survives without the rule, and so without a
capture coin.

A run is a batch-means run (Schmeiser, "Batch size effects in the
analysis of simulation output", Operations Research 1982).  Its
replications are batches: ``n_replications`` of them split into
ceil(n_replications / 5) chains, and each chain is one event loop that
runs one warmup, then its batches back to back, each ``sim_duration -
warmup`` long.  A packet belongs to the batch of its first attempt and an
uplink transmission to the batch of its own start.  After the last batch
the arrivals go on, uncounted, until every packet whose first attempt came
before that batch's end has finished, so the last packets of a chain meet
the same load as the others.

Each chain places its devices with its own generator, then spawns one
child stream per purpose: channel choice, retransmission timeout, capture
coin, inter-arrival gap and arriving device.  Streams are drawn in blocks,
so event handlers make no scalar generator call, and each purpose sees the
same numbers whatever the others consume.

The heap holds one pending arrival for the whole cell.  With Poisson
arrivals, n independent Poisson(lambda/n) sources are exactly one
Poisson(lambda) stream whose device is drawn uniformly (the superposition
theorem), so one chain draws a gap and a device per arrival.  With
periodic arrivals each device keeps the random phase it draws once; the
phases are sorted, and arrival k falls on the k mod n-th phase plus
k // n periods.

Every confirmed uplink draws its retransmission back-off when it ends and
keeps it on its device; a failed attempt retransmits that back-off after
its RX2 window closes (or when its duty cycle allows, if later).  The
timeout stream is thus consumed in uplink-end order, whenever a failure
becomes known, which is what lets the two shortcuts below decide a
window early and still give the same results.

An RX1 window that SB1's duty cycle is sure to block is not an event.
``sb1_free_at`` only changes when an RX1 ACK is sent, which needs the
sub-band free, so it never decreases.  If it already lies beyond the
window when the uplink ends, the window is blocked, and a blocked window
draws nothing, counts nothing and traces nothing; the uplink's end
schedules RX2 directly, and every result except the event count is the
same as with the window's own event.

An RX2 window that SB2's duty cycle is sure to block is not an event
either, while the packet has attempts left.  ``sb2_free_at`` never
decreases for the same reason, so when the RX2 window would be scheduled
(at the uplink's end, or in a blocked RX1 window) and already lies before
it, the ACK is dropped there and then: ``dl_no_window`` is counted, the
drop is traced with the time it is decided, and the retransmission is
scheduled.  On the last attempt the RX2 event stays, because the packet
is finished, and its device freed, only when that window closes.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import length_hint
from pathlib import Path

import numpy as np

from .metrics import METRICS, jain_index
from .scenario import N_SF, ScenarioConfig, ValidationError, _set_number

# Uplink PHY outcomes, also the row of each outcome's per-SF counter.
_OUT_DELIVERED = 0
_OUT_INTERFERENCE = 1
_OUT_GWTX = 2
_OUT_NMD = 3

_OUTCOME_NAMES = ("delivered", "interference", "gw_tx", "no_demod")

_ARRIVAL_MODELS = ("poisson", "periodic")
_CAPTURE_MODELS = ("probabilistic", "geometric")

_BLOCK = 1024  # draws per refill of a random stream

_BATCHES_PER_CHAIN = 5  # the most replications one chain runs

_MAX_EVENTS = 50_000_000  # heap events a chain may handle per replication

#: The handler of an uplink start's heap entry, which ``_Chain.run`` runs itself.
_UPLINK_START = object()

#: A chain holds about 340 B per device, so a million devices take about
#: 340 MB before the first event; that is three times the largest cell studied
#: so far (300,000 devices).
_MAX_DEVICES = 1_000_000

#: A run's 95% intervals read the Student-t quantile for n - 1 degrees of
#: freedom from a table, so at most this many replications.
_MAX_REPLICATIONS = 1000

#: The 0.975 quantile of Student's t for df = 1 ... _MAX_REPLICATIONS - 1, as one
#: JSON line; ``tests/data/golden/make_student_t.py`` regenerates it.
_T975_PATH = Path(__file__).with_name("student_t_975.json")


class SimulationError(RuntimeError):
    """An internal simulator invariant was violated or a budget exceeded."""


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls wrapped around a scenario."""

    scenario: ScenarioConfig
    n_devices: int = 1200
    arrival_model: str = "poisson"
    capture_model: str = "probabilistic"
    radius_m: float = 2500.0
    path_loss_exponent: float = 3.76
    cr_db: float = 6.0                  # co-channel rejection margin (geometric mode)
    sim_duration: float = 3600.0
    warmup: float | None = None         # None: 10x the longest retransmission period
    seed: int = 1
    n_replications: int = 10
    trace_path: str | None = None       # per-event line trace, disabled by default

    def __post_init__(self):
        _set_number(self, "n_devices", int, minimum=1, maximum=_MAX_DEVICES)
        _set_number(self, "n_replications", int, minimum=1, maximum=_MAX_REPLICATIONS)
        _set_number(self, "seed", int, minimum=0)
        for name in ("radius_m", "cr_db", "sim_duration"):
            _set_number(self, name, float)
        _set_number(self, "path_loss_exponent", float, minimum=0.0)
        if self.warmup is not None:
            _set_number(self, "warmup", float)
        if self.arrival_model not in _ARRIVAL_MODELS:
            raise ValidationError(f"arrival_model must be one of {_ARRIVAL_MODELS}")
        if self.capture_model not in _CAPTURE_MODELS:
            raise ValidationError(f"capture_model must be one of {_CAPTURE_MODELS}")
        if self.radius_m <= 0:
            raise ValidationError("radius_m must be positive")
        # ACK capture reads device-to-device powers, up to twice the radius apart.
        if max(2.0 * self.radius_m, 1.0) ** -self.path_loss_exponent < np.finfo(float).tiny:
            raise ValidationError(
                f"path_loss_exponent {self.path_loss_exponent} underflows the received "
                f"power at twice radius_m {self.radius_m}")
        if self.sim_duration <= 0:
            raise ValidationError("sim_duration must be positive")
        if self.warmup is not None and not 0 <= self.warmup < self.sim_duration:
            raise ValidationError("need sim_duration > warmup >= 0")

    def resolved_warmup(self) -> float:
        if self.warmup is not None:
            return self.warmup
        sc = self.scenario
        gamma_max = max((sc.delta_sb1 + 1.0) * t + sc.mu_retx for t in sc.airtimes.t_data)
        warmup = 10.0 * gamma_max
        if warmup >= self.sim_duration:
            raise ValidationError(
                f"default warmup ({warmup:.0f} s, ten times the slowest "
                f"retransmission period) does not fit in sim_duration "
                f"{self.sim_duration:.0f} s; pass an explicit warmup")
        return warmup

    def chains(self) -> list[range]:
        """The replications of each chain, in order: the fewest chains of at
        most ``_BATCHES_PER_CHAIN``, whose sizes differ by at most one."""
        n = self.n_replications
        k = -(-n // _BATCHES_PER_CHAIN)
        return [range(n * c // k, n * (c + 1) // k) for c in range(k)]


@dataclass(frozen=True)
class ReplicationResult:
    """Counters and empirical metrics of one replication, a batch of a chain."""

    seed: int                           # the replication's number in the run
    chain: int                          # the number of the chain that ran it
    # Application-layer counts per SF.
    offered_app_u: tuple[int, ...]
    offered_app_c: tuple[int, ...]
    delivered_app_u: tuple[int, ...]
    delivered_app_c: tuple[int, ...]
    acked_app_c: tuple[int, ...]
    # PHY-layer counts per SF.
    offered_phy: tuple[int, ...]
    delivered_phy: tuple[int, ...]
    lost_interference: tuple[int, ...]
    lost_gwtx: tuple[int, ...]
    lost_nmd: tuple[int, ...]
    # Downlink tallies.
    dl_sb1_sent: int
    dl_sb2_sent: int
    dl_no_window: int
    dl_rx1_corrupted: int
    # Empirical metrics (None when undefined: no traffic of that kind).
    uu: float | None
    cu: float | None
    cd: float | None
    delta_ul: float | None
    delta_dl: float | None
    jain: float | None
    f_nmd: float | None
    f_gwtx: float | None
    f_int: float | None
    dc_violations: int
    # Saturation: per SF, the share of the batch's arrivals that find their
    # device busy with an earlier packet (None: no arrival on that SF), and
    # the offered application rate over lambda (None when lambda is 0).
    busy_at_arrival: tuple[float | None, ...]
    offered_rate_ratio: float | None
    events: int                         # heap events handled in the batch's window, the
                                        # first batch's warmup and the last one's tail
                                        # included; a window surely blocked by its
                                        # sub-band's duty cycle is none


@dataclass(frozen=True)
class MetricSummary:
    """Mean and 95% confidence half-width of one metric over replications."""

    mean: float | None
    halfwidth: float | None


@dataclass(frozen=True)
class SimReport:
    replications: tuple[ReplicationResult, ...]
    uu: MetricSummary
    cu: MetricSummary
    cd: MetricSummary
    delta_ul: MetricSummary
    delta_dl: MetricSummary
    jain: MetricSummary
    f_nmd: MetricSummary
    f_gwtx: MetricSummary
    f_int: MetricSummary
    # Saturation fields, each the mean over the replications that define it.
    busy_at_arrival: tuple[float | None, ...]
    offered_rate_ratio: float | None
    # Pooled counts over all replications.
    offered_app: int
    offered_phy: int
    delivered_phy: int
    lost_interference: int
    lost_gwtx: int
    lost_nmd: int
    dc_violations: int


def place_devices(sim_cfg: SimConfig, seed) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw device positions and assign traffic types and SFs for one chain.

    Positions are uniform on the disc of radius ``radius_m`` around the
    gateway.  Types and SFs are set by quota: n (1 - alpha) p_u,k
    unconfirmed and n alpha p_c,k confirmed devices on SF k, rounded by
    largest remainder (ties to the unconfirmed type and the lower SF), so
    each count is its quota rounded down or up and the counts sum to n.
    Devices come in (type, SF) order, unconfirmed SF7 first.  Returns
    ``(x, y, confirmed, sf_index)`` arrays.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    sc = sim_cfg.scenario
    n = sim_cfg.n_devices
    radius = sim_cfg.radius_m * np.sqrt(rng.uniform(0.0, 1.0, n))
    angle = rng.uniform(0.0, 2.0 * math.pi, n)
    x = radius * np.cos(angle)
    y = radius * np.sin(angle)
    quotas = n * np.concatenate([(1.0 - sc.alpha) * np.asarray(sc.p_unconfirmed.p),
                                 sc.alpha * np.asarray(sc.p_confirmed.p)])
    counts = np.floor(quotas).astype(np.int64)
    counts[np.argsort(counts - quotas, kind="stable")[:n - int(counts.sum())]] += 1
    confirmed = np.repeat(np.arange(2 * N_SF) >= N_SF, counts)
    sf_idx = np.repeat(np.tile(np.arange(N_SF), 2), counts)
    return x, y, confirmed, sf_idx


class _Device:
    __slots__ = ("idx", "confirmed", "sfi", "x", "y", "power", "airtime", "silence",
                 "next_allowed", "queued", "busy", "attempts", "first_attempt", "counted",
                 "delivered_time", "backoff")

    def __init__(self, idx, confirmed, sfi, x, y, power, airtime, silence):
        self.idx = idx
        self.confirmed = confirmed
        self.sfi = sfi
        self.x = x
        self.y = y
        self.power = power          # received power at the gateway (geometric mode)
        self.airtime = airtime      # of one uplink on the device's SF
        self.silence = silence      # duty-cycle silence after an uplink: delta_sb1 * airtime
        self.next_allowed = 0.0     # duty-cycle gate for the next uplink
        self.queued = 0             # arrivals waiting for the radio
        self.busy = False
        self.attempts = 0
        self.first_attempt = 0.0
        self.counted = None         # batch of the current packet's first attempt, None: uncounted
        self.delivered_time = None  # first gateway delivery time of the current packet
        self.backoff = 0.0          # retransmission timeout drawn at the last uplink's end


class _Tx:
    """One uplink transmission on the air.

    It has no ``__init__``: the uplink start in ``_Chain.run``, which makes
    every one, sets its fields itself, which saves a Python call per uplink.
    """

    __slots__ = (
        "device",
        "slot",                     # ch * N_SF + device.sfi: index into on_air and listeners
        "start",
        "end",
        "counted",                  # batch of the start, None: uncounted
        "fate",                     # None, or the outcome if lost at arrival or aborted
    )


def _max_concurrent_power(interferers, start, end) -> float:
    """Peak instantaneous interference power inside the reception window."""
    edges = []
    for power, s, e in interferers:
        s = max(s, start)
        e = min(e, end)
        if e > s:
            edges.append((s, power))
            edges.append((e, -power))
    if not edges:
        return 0.0
    edges.sort()
    level = 0.0
    peak = 0.0
    for _, delta in edges:
        level += delta
        if level > peak:
            peak = level
    return peak


def _stream(draw):
    """A function that returns the values of ``draw(_BLOCK)`` one at a time,
    refilling forever.  It is the ``__next__`` of a chain, so taking a value
    runs no Python frame."""
    return itertools.chain.from_iterable(iter(lambda: draw(_BLOCK).tolist(), None)).__next__


def _poisson_arrivals(devices, next_gap, next_pick):
    """Yield ``(time, device)`` of the cell's Poisson arrivals, in time order."""
    time = 0.0
    while True:
        time += next_gap()
        yield time, devices[next_pick()]


def _periodic_arrivals(devices, phases, period):
    """Yield ``(time, device)`` for devices that each arrive once per ``period``.

    Arrival k is at ``phases[k % n] + (k // n) * period`` over the sorted
    phases, for the device that drew that phase.
    """
    order = np.argsort(phases, kind="stable")
    cycle = list(zip(phases[order].tolist(), [devices[i] for i in order.tolist()]))
    for lap in itertools.count():
        offset = lap * period
        for phase, dev in cycle:
            yield phase + offset, dev


def _mean(values) -> float | None:
    """Mean of the values that are not None; None when there are none."""
    defined = [v for v in values if v is not None]
    return float(np.mean(defined)) if defined else None


@functools.cache
def _t975() -> tuple[float, ...]:
    """The two-sided 95% Student-t quantiles, indexed by degrees of freedom - 1."""
    return tuple(json.loads(_T975_PATH.read_text()))


def _summary(values) -> MetricSummary:
    defined = [v for v in values if v is not None]
    mean = _mean(defined)
    if len(defined) < 2:
        return MetricSummary(mean, None)
    n = len(defined)
    sd = float(np.std(defined, ddof=1))
    return MetricSummary(mean, _t975()[n - 2] * sd / math.sqrt(n))


def _ratio(num, den) -> float | None:
    return None if den == 0 else num / den


class _Tally:
    """The counters of one batch."""

    __slots__ = ("offered_app_u", "offered_app_c", "delivered_app_u", "delivered_app_c",
                 "acked_app_c", "offered_phy", "phy_outcomes", "dl_sb1_sent", "dl_sb2_sent",
                 "dl_no_window", "dl_rx1_corrupted", "ul_delay_sum", "ul_delay_n",
                 "dl_delay_sum", "dl_delay_n", "dc_violations", "arrivals", "busy_arrivals")

    def __init__(self):
        self.offered_app_u = [0] * N_SF; self.offered_app_c = [0] * N_SF
        self.delivered_app_u = [0] * N_SF; self.delivered_app_c = [0] * N_SF
        self.acked_app_c = [0] * N_SF
        self.offered_phy = [0] * N_SF
        self.phy_outcomes = tuple([0] * N_SF for _ in _OUTCOME_NAMES)  # row per _OUT_*
        self.dl_sb1_sent = 0; self.dl_sb2_sent = 0
        self.dl_no_window = 0; self.dl_rx1_corrupted = 0
        self.ul_delay_sum = 0.0; self.ul_delay_n = 0
        self.dl_delay_sum = 0.0; self.dl_delay_n = 0
        self.dc_violations = 0
        self.arrivals = [0] * N_SF; self.busy_arrivals = [0] * N_SF


class _Chain:
    """One single-threaded event loop that runs a chain of batches; state is
    local to the chain.

    A heap entry is ``(time, seq, handler, payload)``, pushed with
    ``heappush``: ``seq`` breaks ties in schedule order.  ``handler`` is a
    plain function, looked up on the class (``_Chain.on_rx1``), and the loop
    runs the event as ``handler(self, time, payload)``, so no push binds a
    method.  An uplink start is the exception, since it is the most frequent
    event with the uplink's end: its handler is the tag ``_UPLINK_START``,
    its payload the device, and ``run`` runs it itself, in the loop.

    ``batches`` holds the run's numbers of the chain's replications, one
    tally each; ``batch`` is the index into ``tallies`` of the batch under
    way, None in the warmup and the tail.  An event at a batch boundary
    switches it.  Events and duty-cycle violations count in the window of
    the batch they fall in, the warmup's in the first and the tail's in the
    last.

    Tests wrap some methods on the class to observe or alter a run, so the
    handlers call them through ``self`` and pushes look them up on the class:
    ``on_tx_end`` and ``on_rx1`` (the every-window oracle of
    ``tests/data/golden/make_golden.py``), ``captured``,
    ``confirmed_attempt_failed`` and ``gw_blocked``; the main loop calls the
    module-level ``heappop``.  ``run`` reads ``on_tx_end`` once, when it
    starts.

    The uplink path makes few calls.  ``on_tx_end`` calls ``captured`` only
    for a reception that met an interferer.  For a delivered confirmed
    uplink it compares the RX1 window with ``sb1_free_at`` and, if SB1
    surely blocks it, the RX2 window with ``sb2_free_at``; if that is surely
    blocked too and the packet has attempts left, it calls ``drop_ack``,
    which calls ``confirmed_attempt_failed``.  So the uplink's end decides
    the drop of an ACK whose two windows are surely blocked then; the RX1
    event decides it when its window turns out blocked and RX2 is surely
    blocked, and the RX2 event when its own window is blocked.  All three
    drop through ``drop_ack``.
    """

    def __init__(self, sim_cfg: SimConfig, rng: np.random.Generator, index: int,
                 batches: range):
        self.cfg = sim_cfg
        self.sc = sc = sim_cfg.scenario
        self.index = index
        self.batches = batches
        self.warmup = sim_cfg.resolved_warmup()
        self.batch_length = sim_cfg.sim_duration - self.warmup
        self.horizon = self.warmup + len(batches) * self.batch_length  # the last batch's end
        self.geometric = sim_cfg.capture_model == "geometric"
        self.margin = 10.0 ** (sim_cfg.cr_db / 10.0)

        self.t_ack1 = sc.airtimes.t_ack1
        self.t_ack2 = sc.airtimes.t_ack2
        # Scenario scalars read on every event.
        self.m = sc.m
        self.h = sc.h
        self.delta_sb1 = sc.delta_sb1
        self.w_gw = sc.w_gw
        self.n_demodulators = sc.n_demodulators

        x, y, confirmed, sf_idx = place_devices(sim_cfg, rng)
        dist = np.maximum(np.hypot(x, y), 1.0)
        power = dist ** (-sim_cfg.path_loss_exponent)
        t_data = sc.airtimes.t_data
        silence = [sc.delta_sb1 * airtime for airtime in t_data]
        self.devices = [
            _Device(i, bool(confirmed[i]), sfi, float(x[i]), float(y[i]), float(power[i]),
                    t_data[sfi], silence[sfi])
            for i, sfi in enumerate(sf_idx.tolist())
        ]

        # One block-drawn stream per purpose.  The draw closures and the
        # arrival generator capture locals only, never ``self``, so a
        # finished chain holds no reference cycle and is freed at once.
        ch_rng, timeout_rng, coin_rng, gap_rng, pick_rng = rng.spawn(5)
        n_ch = sc.c_channels
        # Uniform on mu_retx +- min(1 s, mu_retx): mean mu_retx, never negative.
        spread = min(1.0, sc.mu_retx)
        lo, hi = sc.mu_retx - spread, sc.mu_retx + spread
        self.next_channel = _stream(lambda k: ch_rng.integers(n_ch, size=k))
        self.next_timeout = _stream(lambda k: timeout_rng.uniform(lo, hi, k))
        self.next_coin = _stream(coin_rng.random)
        self.next_arrival = None        # () -> (time, device) of the cell's next arrival
        if sc.lambda_total > 0.0:
            if sim_cfg.arrival_model == "poisson":
                next_gap = _stream(lambda k: gap_rng.exponential(1.0 / sc.lambda_total, k))
                next_pick = _stream(lambda k: pick_rng.integers(sim_cfg.n_devices, size=k))
                arrivals = _poisson_arrivals(self.devices, next_gap, next_pick)
            else:
                period = sim_cfg.n_devices / sc.lambda_total
                phases = rng.uniform(0.0, period, sim_cfg.n_devices)
                arrivals = _periodic_arrivals(self.devices, phases, period)
            self.next_arrival = arrivals.__next__

        # Gateway state.
        self.receptions = {}            # {_Tx being demodulated: its interferers}
        self.tx_until = 0.0             # gateway radio busy transmitting until
        self.sb1_free_at = 0.0          # duty-cycle gates per sub-band
        self.sb2_free_at = 0.0

        # One entry per (channel, SF) slot ch * N_SF + sfi.  A listener is the
        # _Tx that the gateway receives or the _Device that awaits its RX1 ACK.
        self.on_air = [{} for _ in range(n_ch * N_SF)]      # {_Tx: None}, in start order
        self.listeners = [{} for _ in range(n_ch * N_SF)]   # {listener: [interfering _Tx]}

        self.heap = []
        self.seq = itertools.count()

        self.tallies = [_Tally() for _ in batches]
        self.batch = None
        self.window = 0                 # index of the tally that events count in
        self.marks = []                 # events handled when each batch after the first began
        self.tail_open = None           # in the tail: packets left that began before the horizon
        self.budget = 0                 # events the chain may handle
        self.ticks = None               # the main loop's iterator over event numbers
        self.trace = None

    # -- event plumbing ----------------------------------------------------

    def emit(self, time, dev, slot, kind, outcome):
        """Write one trace line for ``dev`` on ``slot``; callers check ``self.trace`` first."""
        self.trace.write(f"{time:.6f} {dev.idx} {dev.sfi + 7} {slot // N_SF} {kind} {outcome}\n")

    # -- device MAC --------------------------------------------------------

    def start_packet(self, dev, now):
        dev.busy = True
        dev.queued -= 1
        dev.attempts = 0
        dev.delivered_time = None
        allowed = dev.next_allowed
        heappush(self.heap, (allowed if allowed > now else now, next(self.seq),
                             _UPLINK_START, dev))

    def finish_packet(self, dev, acked, now):
        if dev.counted is not None:
            tally = self.tallies[dev.counted]
            if dev.confirmed:
                if dev.delivered_time is not None:
                    tally.delivered_app_c[dev.sfi] += 1
                    tally.ul_delay_sum += dev.delivered_time - dev.first_attempt
                    tally.ul_delay_n += 1
                if acked:
                    tally.acked_app_c[dev.sfi] += 1
                    tally.dl_delay_sum += now - dev.first_attempt
                    tally.dl_delay_n += 1
            elif dev.delivered_time is not None:
                tally.delivered_app_u[dev.sfi] += 1
        # ``now`` may lie after the event that decided the finish: no uplink
        # starts while the device's receive windows are still open (class A).
        if dev.next_allowed < now:
            dev.next_allowed = now
        dev.busy = False
        if dev.queued:
            self.start_packet(dev, now)
        if self.tail_open and dev.first_attempt < self.horizon:
            self.tail_open -= 1
            if not self.tail_open:
                heappush(self.heap, (now, next(self.seq), _Chain.on_end, None))

    def confirmed_attempt_failed(self, dev, ul_end):
        fail_at = ul_end + 2.0  # the attempt ends when its second window closes
        if dev.attempts < self.m:
            retx_at = fail_at + dev.backoff
            allowed = dev.next_allowed
            heappush(self.heap, (allowed if allowed > retx_at else retx_at, next(self.seq),
                                 _UPLINK_START, dev))
        else:
            self.finish_packet(dev, acked=False, now=fail_at)

    # -- gateway helpers ---------------------------------------------------

    def power_at(self, tx, dev) -> float:
        """Received power of ``tx`` at device ``dev``."""
        dist = max(math.hypot(tx.device.x - dev.x, tx.device.y - dev.y), 1.0)
        return dist ** (-self.cfg.path_loss_exponent)

    def captured(self, interferers, dev, power, start, end, w) -> bool:
        """Whether a reception of ``power`` over [start, end] survives the
        non-empty list ``interferers``, at device ``dev`` or, if None, at the
        gateway.

        One interferer is the peak interference power over the reception if
        the two overlap, and no interference if they do not, which is what
        ``_max_concurrent_power`` finds for a list of one.
        """
        if not self.geometric:
            return len(interferers) == 1 and self.next_coin() < w
        if len(interferers) == 1:
            tx = interferers[0]
            if min(tx.end, end) <= max(tx.start, start):
                return True
            peak = tx.device.power if dev is None else self.power_at(tx, dev)
        else:
            peak = _max_concurrent_power(
                [(tx.device.power if dev is None else self.power_at(tx, dev), tx.start, tx.end)
                 for tx in interferers],
                start, end)
        return peak == 0.0 or power >= self.margin * peak

    def gw_blocked(self, now, free_at, tau) -> bool:
        """The gateway cannot answer in a window whose sub-band frees at ``free_at``."""
        return now < self.tx_until or now < free_at or (tau == 0 and bool(self.receptions))

    def gw_transmit(self, now, airtime, tau):
        """Key the gateway radio; with ``tau`` = 1 every ongoing reception is lost."""
        if tau == 1:
            for tx in self.receptions:
                tx.fate = _OUT_GWTX
                del self.listeners[tx.slot][tx]
            self.receptions.clear()
        if self.receptions:
            raise SimulationError("gateway would transmit while receiving")
        self.tx_until = now + airtime

    # -- event handlers ----------------------------------------------------

    def on_batch_start(self, now, batch):
        """Count what starts from now on in ``batch``, an index into ``tallies``."""
        if batch:
            self.marks.append(self.budget - length_hint(self.ticks))
        self.batch = self.window = batch

    def on_tail_start(self, now, _):
        """Count nothing more, and end the chain once every packet that has
        made its first attempt by now has finished."""
        self.batch = None
        self.tail_open = sum(dev.busy and dev.attempts > 0 for dev in self.devices)
        if not self.tail_open:
            self.on_end(now, None)

    def on_end(self, now, _):
        """Drop every pending event, which ends the main loop."""
        self.heap.clear()

    def schedule_arrival(self):
        time, dev = self.next_arrival()
        heappush(self.heap, (time, next(self.seq), _Chain.on_arrival, dev))

    def on_arrival(self, now, dev):
        self.schedule_arrival()
        batch = self.batch
        if batch is not None:
            tally = self.tallies[batch]
            tally.arrivals[dev.sfi] += 1
            if dev.busy:
                tally.busy_arrivals[dev.sfi] += 1
        dev.queued += 1
        if not dev.busy:
            self.start_packet(dev, now)

    def on_tx_end(self, now, tx):
        slot = tx.slot
        dev = tx.device
        del self.on_air[slot][tx]
        rx = self.receptions.pop(tx, None)
        if rx is None:
            outcome = tx.fate
        else:
            del self.listeners[slot][tx]
            if rx and not self.captured(rx, None, dev.power, tx.start, now, self.w_gw):
                outcome = _OUT_INTERFERENCE
            else:
                outcome = _OUT_DELIVERED
        if tx.counted is not None:
            self.tallies[tx.counted].phy_outcomes[outcome][dev.sfi] += 1
        if self.trace is not None:
            self.emit(now, dev, slot, "ul_end", _OUTCOME_NAMES[outcome])

        delivered = outcome == _OUT_DELIVERED
        if delivered and dev.delivered_time is None:
            dev.delivered_time = now
        if dev.confirmed:
            dev.backoff = self.next_timeout()
            if not delivered:
                self.confirmed_attempt_failed(dev, now)
            elif now + 1.0 >= self.sb1_free_at:
                heappush(self.heap, (now + 1.0, next(self.seq), _Chain.on_rx1, (dev, slot, now)))
            elif now + 2.0 < self.sb2_free_at and dev.attempts < self.m:
                self.drop_ack(now, dev, slot, now)   # both windows surely blocked
            else:
                heappush(self.heap, (now + 2.0, next(self.seq), _Chain.on_rx2, (dev, slot, now)))
        elif dev.attempts < self.h:
            # Next copy after both receive windows, duty cycle allowing.
            copy_at = now + 2.0
            allowed = dev.next_allowed
            heappush(self.heap, (allowed if allowed > copy_at else copy_at, next(self.seq),
                                 _UPLINK_START, dev))
        else:
            self.finish_packet(dev, acked=False, now=now + 2.0)

    def drop_ack(self, now, dev, slot, ul_end):
        """No window is left for the ACK of ``dev``'s uplink that ended at
        ``ul_end``: the attempt fails."""
        if dev.counted is not None:
            self.tallies[dev.counted].dl_no_window += 1
        if self.trace is not None:
            self.emit(now, dev, slot, "ack_dropped", "no_window")
        self.confirmed_attempt_failed(dev, ul_end)

    def on_rx1(self, now, ctx):
        dev, slot, ul_end = ctx
        if self.gw_blocked(now, self.sb1_free_at, self.sc.tau1):
            # Schedule the RX2 window, or drop the ACK now if it is surely blocked.
            if ul_end + 2.0 < self.sb2_free_at and dev.attempts < self.m:
                self.drop_ack(now, dev, slot, ul_end)
            else:
                heappush(self.heap, (ul_end + 2.0, next(self.seq), _Chain.on_rx2, ctx))
            return
        airtime = self.t_ack1[dev.sfi]
        self.gw_transmit(now, airtime, self.sc.tau1)
        self.sb1_free_at = now + airtime * (1.0 + self.delta_sb1)
        if dev.counted is not None:
            self.tallies[dev.counted].dl_sb1_sent += 1
        self.listeners[slot][dev] = interferers = list(self.on_air[slot])
        heappush(self.heap, (now + airtime, next(self.seq), _Chain.on_ack_end,
                             (dev, slot, ul_end, 1, interferers, now)))
        if self.trace is not None:
            self.emit(now, dev, slot, "ack1_start", "")

    def on_rx2(self, now, ctx):
        dev, slot, ul_end = ctx
        if self.gw_blocked(now, self.sb2_free_at, self.sc.tau2):
            self.drop_ack(now, dev, slot, ul_end)
            return
        airtime = self.t_ack2[dev.sfi]
        self.gw_transmit(now, airtime, self.sc.tau2)
        self.sb2_free_at = now + airtime * (1.0 + self.sc.delta_sb2)
        if dev.counted is not None:
            self.tallies[dev.counted].dl_sb2_sent += 1
        heappush(self.heap, (now + airtime, next(self.seq), _Chain.on_ack_end,
                             (dev, slot, ul_end, 2, None, now)))
        if self.trace is not None:
            self.emit(now, dev, slot, "ack2_start", "")

    def on_ack_end(self, now, ctx):
        dev, slot, ul_end, window, interferers, start = ctx
        if window == 1:
            del self.listeners[slot][dev]
            if interferers and not self.captured(interferers, dev, dev.power, start, now,
                                                 self.sc.w_ed):
                if dev.counted is not None:
                    self.tallies[dev.counted].dl_rx1_corrupted += 1
                if self.trace is not None:
                    self.emit(now, dev, slot, "ack1_end", "corrupted")
                self.confirmed_attempt_failed(dev, ul_end)
                return
        if self.trace is not None:
            self.emit(now, dev, slot, f"ack{window}_end", "received")
        self.finish_packet(dev, acked=True, now=now)

    # -- main loop ----------------------------------------------------------

    def run(self) -> list[ReplicationResult]:
        """Run the chain; one result per batch, in order."""
        if self.cfg.trace_path is not None:
            self.trace = open(self.cfg.trace_path, "a")
        heap = self.heap
        seq = self.seq
        tallies = self.tallies
        listeners = self.listeners
        on_air = self.on_air
        receptions = self.receptions
        next_channel = self.next_channel
        n_demodulators = self.n_demodulators
        on_tx_end = _Chain.on_tx_end
        self.budget = budget = _MAX_EVENTS * len(self.batches)
        # Batch boundaries read how many event numbers the loop has drawn.
        self.ticks = ticks = iter(range(budget))
        events = 0
        try:
            for i in range(len(self.batches)):
                heappush(heap, (self.warmup + i * self.batch_length, next(seq),
                                _Chain.on_batch_start, i))
            heappush(heap, (self.horizon, next(seq), _Chain.on_tail_start, None))
            if self.next_arrival is not None:
                self.schedule_arrival()
            for events in ticks:  # ``events`` counts the events handled so far
                if not heap:
                    break
                now, _, handler, payload = heappop(heap)
                if handler is not _UPLINK_START:
                    handler(self, now, payload)
                    continue
                # An uplink of the device ``payload`` starts.
                dev = payload
                if now < dev.next_allowed - 1e-9:
                    tallies[self.window].dc_violations += 1
                sfi = dev.sfi
                end = now + dev.airtime
                slot = next_channel() * N_SF + sfi
                batch = self.batch
                dev.attempts = attempts = dev.attempts + 1
                if attempts == 1:
                    dev.first_attempt = now
                    dev.counted = batch
                if batch is not None:
                    tally = tallies[batch]
                    tally.offered_phy[sfi] += 1
                    if attempts == 1:
                        if dev.confirmed:
                            tally.offered_app_c[sfi] += 1
                        else:
                            tally.offered_app_u[sfi] += 1
                dev.next_allowed = end + dev.silence

                tx = _Tx()
                tx.device = dev
                tx.slot = slot
                tx.start = now
                tx.end = end
                tx.counted = batch
                tx.fate = None
                ears = listeners[slot]
                if ears:
                    for interferers in ears.values():
                        interferers.append(tx)
                air = on_air[slot]
                if now < self.tx_until:
                    tx.fate = _OUT_GWTX          # gateway radio is transmitting
                elif len(receptions) == n_demodulators:
                    tx.fate = _OUT_NMD           # all demodulators locked
                else:
                    receptions[tx] = ears[tx] = list(air) if air else []
                air[tx] = None
                heappush(heap, (end, next(seq), on_tx_end, tx))
                if self.trace is not None:
                    self.emit(now, dev, slot, "ul_start", "")
            else:
                events = budget
                if heap:
                    raise SimulationError(f"event budget exceeded ({budget} events)")
        finally:
            if self.trace is not None:
                self.trace.close()
                self.trace = None
        bounds = [0, *self.marks, events]
        return [self.result(i, bounds[i + 1] - bounds[i]) for i in range(len(self.batches))]

    # -- reporting -----------------------------------------------------------

    def result(self, i, events) -> ReplicationResult:
        """The result of the chain's batch ``i``, which handled ``events`` events."""
        t = self.tallies[i]
        delivered_phy, lost_int, lost_gwtx, lost_nmd = t.phy_outcomes
        off_u = sum(t.offered_app_u)
        off_c = sum(t.offered_app_c)
        off_phy = sum(t.offered_phy)
        offered_rate = (off_u + off_c) / self.batch_length
        # Jain's index over the delivery ratios of the populations that offered traffic.
        shares = [delivered / offered for delivered, offered
                  in zip(t.delivered_app_u + t.delivered_app_c,
                         t.offered_app_u + t.offered_app_c) if offered > 0]
        return ReplicationResult(
            seed=self.batches[i],
            chain=self.index,
            offered_app_u=tuple(t.offered_app_u),
            offered_app_c=tuple(t.offered_app_c),
            delivered_app_u=tuple(t.delivered_app_u),
            delivered_app_c=tuple(t.delivered_app_c),
            acked_app_c=tuple(t.acked_app_c),
            offered_phy=tuple(t.offered_phy),
            delivered_phy=tuple(delivered_phy),
            lost_interference=tuple(lost_int),
            lost_gwtx=tuple(lost_gwtx),
            lost_nmd=tuple(lost_nmd),
            dl_sb1_sent=t.dl_sb1_sent,
            dl_sb2_sent=t.dl_sb2_sent,
            dl_no_window=t.dl_no_window,
            dl_rx1_corrupted=t.dl_rx1_corrupted,
            uu=_ratio(sum(t.delivered_app_u), off_u),
            cu=_ratio(sum(t.delivered_app_c), off_c),
            cd=_ratio(sum(t.acked_app_c), off_c),
            delta_ul=_ratio(t.ul_delay_sum, t.ul_delay_n),
            delta_dl=_ratio(t.dl_delay_sum, t.dl_delay_n),
            jain=jain_index(shares) if any(shares) else None,
            f_nmd=_ratio(sum(lost_nmd), off_phy),
            f_gwtx=_ratio(sum(lost_gwtx), off_phy),
            f_int=_ratio(sum(lost_int), off_phy),
            dc_violations=t.dc_violations,
            busy_at_arrival=tuple(map(_ratio, t.busy_arrivals, t.arrivals)),
            offered_rate_ratio=_ratio(offered_rate, self.sc.lambda_total),
            events=events,
        )


def _run_chain(job) -> list[ReplicationResult]:
    sim_cfg, index, batches = job
    rng = np.random.default_rng(np.random.SeedSequence(entropy=sim_cfg.seed,
                                                       spawn_key=(index,)))
    return _Chain(sim_cfg, rng, index, batches).run()


def _fan_out(fn, jobs: list, workers: int | None) -> list:
    """``[fn(job) for job in jobs]`` on ``workers`` processes, the calling one included.

    ``None`` means one per usable core, below 1 is a ``ValidationError``, and
    the count is capped at ``len(jobs)``.  The caller runs the first
    ``len(jobs) // workers`` jobs itself while a pool of ``workers - 1`` runs
    the rest, which gives the same wall time as an idle caller with one
    process fewer.  Results come back in job order.  However it ends, the
    pool is shut down and its processes joined.  ``optimize`` uses it too.
    """
    if workers is None:
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    elif workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor

    own = len(jobs) // workers
    pool = ProcessPoolExecutor(max_workers=workers - 1)
    try:
        futures = [pool.submit(fn, job) for job in jobs[own:]]
        results = [fn(job) for job in jobs[:own]]
        return results + [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def run(sim_cfg: SimConfig, workers: int | None = 1) -> SimReport:
    """Run all replications and aggregate them into a report.

    The replications are the batches of ``sim_cfg.chains()``.  Each chain
    draws its positions, SF assignments and traffic from its own
    deterministic stream, so the same ``seed`` always produces a
    bit-identical report, whatever ``workers`` is; see ``_fan_out`` for how
    ``workers`` splits the chains.  A traced run stays in one process,
    since every chain appends to one file.
    """
    sim_cfg.resolved_warmup()  # a default warmup that does not fit fails before any fork
    if sim_cfg.trace_path is not None:
        workers = 1 if workers is None else min(workers, 1)
    chains = _fan_out(_run_chain, [(sim_cfg, index, batches)
                                   for index, batches in enumerate(sim_cfg.chains())],
                      workers)
    reps = [rep for chain in chains for rep in chain]

    return SimReport(
        replications=tuple(reps),
        **{name: _summary([getattr(rep, name) for rep in reps]) for name in METRICS},
        busy_at_arrival=tuple(map(_mean, zip(*(rep.busy_at_arrival for rep in reps)))),
        offered_rate_ratio=_mean([rep.offered_rate_ratio for rep in reps]),
        offered_app=sum(sum(r.offered_app_u) + sum(r.offered_app_c) for r in reps),
        offered_phy=sum(sum(r.offered_phy) for r in reps),
        delivered_phy=sum(sum(r.delivered_phy) for r in reps),
        lost_interference=sum(sum(r.lost_interference) for r in reps),
        lost_gwtx=sum(sum(r.lost_gwtx) for r in reps),
        lost_nmd=sum(sum(r.lost_nmd) for r in reps),
        dc_violations=sum(r.dc_violations for r in reps),
    )
