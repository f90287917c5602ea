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
reception resolves, by one capture rule shared by uplinks and ACKs.

Each replication places its devices with its own generator, then spawns
one child stream per purpose: channel choice, retransmission timeout,
capture coin, inter-arrival gap and arriving device.  Streams are drawn in
blocks, so event handlers make no scalar generator call, and each purpose
sees the same numbers whatever the others consume.

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

import itertools
import math
import os
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .metrics import METRICS, _jain
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

_MAX_EVENTS = 50_000_000  # heap events one replication may handle

#: A replication holds about 340 B per device, so a million devices take about
#: 340 MB before the first event; that is three times the largest cell studied
#: so far (300,000 devices).
_MAX_DEVICES = 1_000_000


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
        _set_number(self, "n_replications", int, minimum=1)
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


@dataclass(frozen=True)
class ReplicationResult:
    """Counters and empirical metrics of one replication (post-warmup)."""

    seed: int
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
    # Saturation: per SF, the share of post-warmup arrivals that find their
    # device busy with an earlier packet (None: no arrival on that SF), and
    # the offered application rate over lambda (None when lambda is 0).
    busy_at_arrival: tuple[float | None, ...]
    offered_rate_ratio: float | None
    events: int                         # heap events handled; a window surely
                                        # blocked by its sub-band's duty cycle is none


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
    """Draw device positions, traffic types and SFs for one replication.

    Positions are uniform on the disc of radius ``radius_m`` around the
    gateway; each device is confirmed with probability alpha and draws
    its SF from the distribution of its traffic type.  Returns
    ``(x, y, confirmed, sf_index)`` arrays.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    sc = sim_cfg.scenario
    n = sim_cfg.n_devices
    radius = sim_cfg.radius_m * np.sqrt(rng.uniform(0.0, 1.0, n))
    angle = rng.uniform(0.0, 2.0 * math.pi, n)
    x = radius * np.cos(angle)
    y = radius * np.sin(angle)
    confirmed = rng.random(n) < sc.alpha
    sf_idx = np.empty(n, dtype=np.int64)
    n_conf = int(confirmed.sum())
    if n_conf:
        sf_idx[confirmed] = rng.choice(N_SF, size=n_conf, p=np.asarray(sc.p_confirmed.p))
    if n - n_conf:
        sf_idx[~confirmed] = rng.choice(N_SF, size=n - n_conf, p=np.asarray(sc.p_unconfirmed.p))
    return x, y, confirmed, sf_idx


class _Device:
    __slots__ = ("idx", "confirmed", "sfi", "x", "y", "power", "next_allowed",
                 "queued", "busy", "attempts", "first_attempt", "counted",
                 "delivered_time", "backoff")

    def __init__(self, idx, confirmed, sfi, x, y, power):
        self.idx = idx
        self.confirmed = confirmed
        self.sfi = sfi
        self.x = x
        self.y = y
        self.power = power          # received power at the gateway (geometric mode)
        self.next_allowed = 0.0     # duty-cycle gate for the next uplink
        self.queued = 0             # arrivals waiting for the radio
        self.busy = False
        self.attempts = 0
        self.first_attempt = 0.0
        self.counted = False
        self.delivered_time = None  # first gateway delivery time of the current packet
        self.backoff = 0.0          # retransmission timeout drawn at the last uplink's end


class _Tx:
    """One uplink transmission on the air."""

    __slots__ = ("device", "slot", "start", "end", "counted", "fate")

    def __init__(self, device, slot, start, end, counted):
        self.device = device
        self.slot = slot            # ch * N_SF + device.sfi: index into on_air and listeners
        self.start = start
        self.end = end
        self.counted = counted
        self.fate = None            # set when lost at arrival or aborted


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


def _summary(values) -> MetricSummary:
    defined = [v for v in values if v is not None]
    mean = _mean(defined)
    if len(defined) < 2:
        return MetricSummary(mean, None)
    from scipy.special import stdtrit  # imported here: scipy is slow to load

    n = len(defined)
    sd = float(np.std(defined, ddof=1))
    return MetricSummary(mean, float(stdtrit(n - 1, 0.975) * sd / math.sqrt(n)))


def _ratio(num, den) -> float | None:
    return None if den == 0 else num / den


class _Replication:
    """One single-threaded event loop; state is local to a replication.

    A heap entry is ``(time, seq, handler, payload)``, pushed with
    ``heappush``: ``seq`` breaks ties in schedule order and
    ``handler(time, payload)`` runs the event.

    Tests replace some methods to observe or alter a run, so the event
    handlers call them through ``self``: ``rx1_surely_blocked``,
    ``rx2_surely_blocked`` and ``confirmed_attempt_failed`` (on the class),
    and ``on_tx_start`` (on the instance).  Each push therefore binds its
    handler afresh.  A handler bound once and stored on ``self`` would
    also make a reference cycle, so a finished replication would wait
    for the cycle collector instead of being freed at once.
    """

    def __init__(self, sim_cfg: SimConfig, rng: np.random.Generator, seed_label: int):
        self.cfg = sim_cfg
        self.sc = sc = sim_cfg.scenario
        self.seed_label = seed_label
        self.warmup = sim_cfg.resolved_warmup()
        self.duration = sim_cfg.sim_duration
        self.geometric = sim_cfg.capture_model == "geometric"
        self.margin = 10.0 ** (sim_cfg.cr_db / 10.0)

        self.t_data = sc.airtimes.t_data
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
        self.devices = [
            _Device(i, bool(confirmed[i]), int(sf_idx[i]), float(x[i]), float(y[i]),
                    float(power[i]))
            for i in range(sim_cfg.n_devices)
        ]

        # One block-drawn stream per purpose.  The draw closures and the
        # arrival generator capture locals only, never ``self``, so a
        # finished replication holds no reference cycle and is freed at once.
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
        dev.counted = False
        allowed = dev.next_allowed
        heappush(self.heap, (allowed if allowed > now else now, next(self.seq),
                             self.on_tx_start, dev))

    def finish_packet(self, dev, acked, now):
        if dev.counted:
            if dev.confirmed:
                if dev.delivered_time is not None:
                    self.delivered_app_c[dev.sfi] += 1
                    self.ul_delay_sum += dev.delivered_time - dev.first_attempt
                    self.ul_delay_n += 1
                if acked:
                    self.acked_app_c[dev.sfi] += 1
                    self.dl_delay_sum += now - dev.first_attempt
                    self.dl_delay_n += 1
            elif dev.delivered_time is not None:
                self.delivered_app_u[dev.sfi] += 1
        dev.busy = False
        if dev.queued:
            self.start_packet(dev, now)

    def confirmed_attempt_failed(self, dev, ul_end):
        fail_at = ul_end + 2.0  # the attempt ends when its second window closes
        if dev.attempts < self.m:
            retx_at = fail_at + dev.backoff
            allowed = dev.next_allowed
            heappush(self.heap, (allowed if allowed > retx_at else retx_at, next(self.seq),
                                 self.on_tx_start, dev))
        else:
            self.finish_packet(dev, acked=False, now=fail_at)

    # -- gateway helpers ---------------------------------------------------

    def power_at(self, tx, dev) -> float:
        """Received power of ``tx`` at device ``dev``."""
        dist = max(math.hypot(tx.device.x - dev.x, tx.device.y - dev.y), 1.0)
        return dist ** (-self.cfg.path_loss_exponent)

    def captured(self, interferers, dev, power, start, end, w) -> bool:
        """Whether a reception of ``power`` over [start, end] survives, at
        device ``dev`` or, if None, at the gateway."""
        if not interferers:
            return True
        if self.geometric:
            peak = _max_concurrent_power(
                [(tx.device.power if dev is None else self.power_at(tx, dev), tx.start, tx.end)
                 for tx in interferers],
                start, end)
            return peak == 0.0 or power >= self.margin * peak
        return len(interferers) == 1 and self.next_coin() < w

    def rx1_surely_blocked(self, rx1_at) -> bool:
        """Whether SB1's duty cycle blocks the RX1 window at ``rx1_at`` already.

        ``sb1_free_at`` never decreases, so this is the duty-cycle test that
        ``on_rx1`` would make at ``rx1_at``, decided early.
        """
        return rx1_at < self.sb1_free_at

    def rx2_surely_blocked(self, dev, rx2_at) -> bool:
        """Whether ``dev``'s ACK can be dropped now: SB2's duty cycle already
        blocks its RX2 window at ``rx2_at``, and the packet has attempts left
        (on the last one, the window's own event finishes the packet).

        ``sb2_free_at`` never decreases, so this is the duty-cycle test that
        ``on_rx2`` would make at ``rx2_at``, decided early.
        """
        return rx2_at < self.sb2_free_at and dev.attempts < self.m

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

    def schedule_arrival(self):
        time, dev = self.next_arrival()
        heappush(self.heap, (time, next(self.seq), self.on_arrival, dev))

    def on_arrival(self, now, dev):
        if now >= self.duration:
            return
        self.schedule_arrival()
        if now >= self.warmup:
            self.arrivals[dev.sfi] += 1
            if dev.busy:
                self.busy_arrivals[dev.sfi] += 1
        dev.queued += 1
        if not dev.busy:
            self.start_packet(dev, now)

    def on_tx_start(self, now, dev):
        if now < dev.next_allowed - 1e-9:
            self.dc_violations += 1
        sfi = dev.sfi
        airtime = self.t_data[sfi]
        end = now + airtime
        slot = self.next_channel() * N_SF + sfi
        counted = self.warmup <= now <= self.duration
        dev.attempts = attempts = dev.attempts + 1
        if attempts == 1:
            dev.first_attempt = now
            dev.counted = counted
            if counted:
                if dev.confirmed:
                    self.offered_app_c[sfi] += 1
                else:
                    self.offered_app_u[sfi] += 1
        if counted:
            self.offered_phy[sfi] += 1
        dev.next_allowed = end + self.delta_sb1 * airtime

        tx = _Tx(dev, slot, now, end, counted)
        ears = self.listeners[slot]
        if ears:
            for interferers in ears.values():
                interferers.append(tx)
        air = self.on_air[slot]
        receptions = self.receptions
        if now < self.tx_until:
            tx.fate = _OUT_GWTX          # gateway radio is transmitting
        elif len(receptions) == self.n_demodulators:
            tx.fate = _OUT_NMD           # all demodulators locked
        else:
            receptions[tx] = ears[tx] = list(air) if air else []
        air[tx] = None
        heappush(self.heap, (end, next(self.seq), self.on_tx_end, tx))
        if self.trace is not None:
            self.emit(now, dev, slot, "ul_start", "")

    def on_tx_end(self, now, tx):
        slot = tx.slot
        dev = tx.device
        del self.on_air[slot][tx]
        rx = self.receptions.pop(tx, None)
        if rx is None:
            outcome = tx.fate
        else:
            del self.listeners[slot][tx]
            ok = self.captured(rx, None, dev.power, tx.start, now, self.w_gw)
            outcome = _OUT_DELIVERED if ok else _OUT_INTERFERENCE
        if tx.counted:
            self.phy_outcomes[outcome][dev.sfi] += 1
        if self.trace is not None:
            self.emit(now, dev, slot, "ul_end", _OUTCOME_NAMES[outcome])

        delivered = outcome == _OUT_DELIVERED
        if delivered and dev.delivered_time is None:
            dev.delivered_time = now
        if dev.confirmed:
            dev.backoff = self.next_timeout()
            if not delivered:
                self.confirmed_attempt_failed(dev, now)
            elif self.rx1_surely_blocked(now + 1.0):
                self.open_rx2(now, (dev, slot, now))
            else:
                heappush(self.heap, (now + 1.0, next(self.seq), self.on_rx1, (dev, slot, now)))
        elif dev.attempts < self.h:
            # Next copy after both receive windows, duty cycle allowing.
            copy_at = now + 2.0
            allowed = dev.next_allowed
            heappush(self.heap, (allowed if allowed > copy_at else copy_at, next(self.seq),
                                 self.on_tx_start, dev))
        else:
            self.finish_packet(dev, acked=False, now=now + 2.0)

    def open_rx2(self, now, ctx):
        """Schedule the RX2 window of ``ctx``, or drop its ACK now if it is surely blocked."""
        dev, _, ul_end = ctx
        rx2_at = ul_end + 2.0
        if self.rx2_surely_blocked(dev, rx2_at):
            self.drop_ack(now, ctx)
        else:
            heappush(self.heap, (rx2_at, next(self.seq), self.on_rx2, ctx))

    def drop_ack(self, now, ctx):
        """No window is left for the ACK of ``ctx``: the attempt fails."""
        dev, slot, ul_end = ctx
        if dev.counted:
            self.dl_no_window += 1
        if self.trace is not None:
            self.emit(now, dev, slot, "ack_dropped", "no_window")
        self.confirmed_attempt_failed(dev, ul_end)

    def on_rx1(self, now, ctx):
        dev, slot, ul_end = ctx
        if self.gw_blocked(now, self.sb1_free_at, self.sc.tau1):
            self.open_rx2(now, ctx)
            return
        airtime = self.t_ack1[dev.sfi]
        self.gw_transmit(now, airtime, self.sc.tau1)
        self.sb1_free_at = now + airtime * (1.0 + self.delta_sb1)
        if dev.counted:
            self.dl_sb1_sent += 1
        self.listeners[slot][dev] = interferers = list(self.on_air[slot])
        heappush(self.heap, (now + airtime, next(self.seq), self.on_ack_end,
                             (dev, slot, ul_end, 1, interferers, now)))
        if self.trace is not None:
            self.emit(now, dev, slot, "ack1_start", "")

    def on_rx2(self, now, ctx):
        dev, slot, ul_end = ctx
        if self.gw_blocked(now, self.sb2_free_at, self.sc.tau2):
            self.drop_ack(now, ctx)
            return
        airtime = self.t_ack2[dev.sfi]
        self.gw_transmit(now, airtime, self.sc.tau2)
        self.sb2_free_at = now + airtime * (1.0 + self.sc.delta_sb2)
        if dev.counted:
            self.dl_sb2_sent += 1
        heappush(self.heap, (now + airtime, next(self.seq), self.on_ack_end,
                             (dev, slot, ul_end, 2, None, now)))
        if self.trace is not None:
            self.emit(now, dev, slot, "ack2_start", "")

    def on_ack_end(self, now, ctx):
        dev, slot, ul_end, window, interferers, start = ctx
        if window == 1:
            del self.listeners[slot][dev]
            if not self.captured(interferers, dev, dev.power, start, now, self.sc.w_ed):
                if dev.counted:
                    self.dl_rx1_corrupted += 1
                if self.trace is not None:
                    self.emit(now, dev, slot, "ack1_end", "corrupted")
                self.confirmed_attempt_failed(dev, ul_end)
                return
        if self.trace is not None:
            self.emit(now, dev, slot, f"ack{window}_end", "received")
        self.finish_packet(dev, acked=True, now=now)

    # -- main loop ----------------------------------------------------------

    def run(self) -> ReplicationResult:
        if self.cfg.trace_path is not None:
            self.trace = open(self.cfg.trace_path, "a")
        heap = self.heap
        budget = _MAX_EVENTS
        events = 0
        try:
            if self.next_arrival is not None:
                self.schedule_arrival()
            for events in range(budget):  # ``events`` counts the events handled so far
                if not heap:
                    break
                now, _, handler, payload = heappop(heap)
                handler(now, payload)
            else:
                events = budget
                if heap:
                    raise SimulationError(f"event budget exceeded ({budget} events)")
        finally:
            self.events = events
            if self.trace is not None:
                self.trace.close()
                self.trace = None
        return self.result()

    # -- reporting -----------------------------------------------------------

    def result(self) -> ReplicationResult:
        delivered_phy, lost_int, lost_gwtx, lost_nmd = self.phy_outcomes
        off_u = sum(self.offered_app_u)
        off_c = sum(self.offered_app_c)
        off_phy = sum(self.offered_phy)
        offered_rate = (off_u + off_c) / (self.duration - self.warmup)
        # Jain's index over the delivery ratios of the populations that offered traffic.
        shares = [delivered / offered for delivered, offered
                  in zip(self.delivered_app_u + self.delivered_app_c,
                         self.offered_app_u + self.offered_app_c) if offered > 0]
        return ReplicationResult(
            seed=self.seed_label,
            offered_app_u=tuple(self.offered_app_u),
            offered_app_c=tuple(self.offered_app_c),
            delivered_app_u=tuple(self.delivered_app_u),
            delivered_app_c=tuple(self.delivered_app_c),
            acked_app_c=tuple(self.acked_app_c),
            offered_phy=tuple(self.offered_phy),
            delivered_phy=tuple(delivered_phy),
            lost_interference=tuple(lost_int),
            lost_gwtx=tuple(lost_gwtx),
            lost_nmd=tuple(lost_nmd),
            dl_sb1_sent=self.dl_sb1_sent,
            dl_sb2_sent=self.dl_sb2_sent,
            dl_no_window=self.dl_no_window,
            dl_rx1_corrupted=self.dl_rx1_corrupted,
            uu=_ratio(sum(self.delivered_app_u), off_u),
            cu=_ratio(sum(self.delivered_app_c), off_c),
            cd=_ratio(sum(self.acked_app_c), off_c),
            delta_ul=_ratio(self.ul_delay_sum, self.ul_delay_n),
            delta_dl=_ratio(self.dl_delay_sum, self.dl_delay_n),
            jain=_jain(np.array(shares)),
            f_nmd=_ratio(sum(lost_nmd), off_phy),
            f_gwtx=_ratio(sum(lost_gwtx), off_phy),
            f_int=_ratio(sum(lost_int), off_phy),
            dc_violations=self.dc_violations,
            busy_at_arrival=tuple(map(_ratio, self.busy_arrivals, self.arrivals)),
            offered_rate_ratio=_ratio(offered_rate, self.sc.lambda_total),
            events=self.events,
        )


def _run_one(args) -> ReplicationResult:
    sim_cfg, r = args
    rng = np.random.default_rng(np.random.SeedSequence(entropy=sim_cfg.seed,
                                                       spawn_key=(r,)))
    return _Replication(sim_cfg, rng, seed_label=r).run()


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

    Each replication draws fresh positions, SF assignments and traffic
    from its own deterministic stream, so the same ``seed`` always
    produces a bit-identical report, whatever ``workers`` is; see
    ``_fan_out`` for how ``workers`` splits the replications.  A traced run
    stays in one process, since every replication appends to one file.
    """
    sim_cfg.resolved_warmup()  # a default warmup that does not fit fails before any fork
    if sim_cfg.trace_path is not None:
        workers = 1 if workers is None else min(workers, 1)
    reps = _fan_out(_run_one, [(sim_cfg, r) for r in range(sim_cfg.n_replications)],
                    workers)

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
