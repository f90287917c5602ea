"""Scenario description for a single-gateway LoRaWAN cell.

Everything the analytic model and the simulator consume lives in
:class:`ScenarioConfig`: traffic mix, per-SF device shares, duty-cycle
ratios, receive-window prioritization flags, capture constants and the
per-SF airtime table.  Configs are immutable after construction and safe
to share across threads.

Scenarios are read from and written to YAML documents whose keys match
the ``ScenarioConfig`` field names exactly; unknown keys are rejected so
typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping

import numpy as np

#: The six LoRa spreading factors, ordered.
SPREADING_FACTORS: tuple[int, ...] = (7, 8, 9, 10, 11, 12)
N_SF = len(SPREADING_FACTORS)

#: Airtime of a 10-byte data packet at 125 kHz, per SF 7..12 [s].
DEFAULT_DATA_AIRTIME: tuple[float, ...] = (0.051, 0.102, 0.185, 0.329, 0.659, 1.318)
#: Airtime of a payload-less ACK at 125 kHz, per SF 7..12 [s].
DEFAULT_ACK_AIRTIME: tuple[float, ...] = (0.041, 0.072, 0.144, 0.247, 0.495, 0.991)
#: The airtime columns of :class:`AirtimeTable`, in field order.
_AIRTIME_KEYS = ("t_data", "t_ack1", "t_ack2")

#: EXPLoRa SF shares as commonly tabulated.  They add up to 0.998 because of
#: rounding in the source table; :func:`preset` renormalizes them.
EXPLORA_RAW: tuple[float, ...] = (0.487, 0.243, 0.135, 0.076, 0.038, 0.019)

SCHEMA_VERSION = 1

#: Sum tolerance for SF distributions.
DISTRIBUTION_TOL = 1e-9


class ParseError(ValueError):
    """A scenario document could not be parsed at all."""


class ValidationError(ValueError):
    """A scenario value violates one of the documented invariants."""


def _as_float_tuple(name: str, values) -> tuple[float, ...]:
    try:
        vals = tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a sequence of {N_SF} numbers") from exc
    if len(vals) != N_SF:
        raise ValidationError(f"{name} must have {N_SF} entries (SF 7..12), got {len(vals)}")
    return vals


def _set_number(obj, name: str, kind: type, minimum=None, maximum=None):
    """Coerce the setting ``name`` of the frozen ``obj`` with ``kind``, check it, store it.

    A ``float`` setting takes what ``float`` parses, strings included (YAML 1.1
    reads ``1e-3`` as a string), and must be finite.  An ``int`` setting takes a
    number equal to an integer, such as 8 or 8.0, and no bool or string.  Both
    must lie in [minimum, maximum] where those are given.
    """
    raw = getattr(obj, name)
    try:
        value = kind(raw)
    except (TypeError, ValueError, OverflowError):
        value = None
    if kind is int and (value is None or value != raw or isinstance(raw, bool)):
        raise ValidationError(f"{name} must be an integer, got {raw!r}")
    if value is None:
        raise ValidationError(f"{name} must be a number, got {raw!r}")
    if kind is float and not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{name} must be <= {maximum}, got {value}")
    object.__setattr__(obj, name, value)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class AirtimeTable:
    """Per-SF airtimes [s] of data packets and of ACKs in the two receive windows.

    ``t_ack2`` is the ACK airtime seen by a device that uplinked with the
    row's SF.  The second receive window uses SF12 unless the network
    server reconfigures it, so the default column repeats the SF12 ACK
    airtime for every row.

    Each column is also held as a read-only float array, ``_t_data``,
    ``_t_ack1`` and ``_t_ack2``, built once here for the model's per-SF
    arithmetic, and so are the airtime sums that the fixed-point sweep
    reads every iteration, indexed by a prioritization flag tau in {0, 1}:

    * ``_t_data_tau[tau]`` is ``t_data * tau``, the data airtime that a
      gateway TX window adds when transmission preempts reception;
    * ``_t_rx1_tau[tau]`` is ``t_ack1 + t_data * tau``, the no-collision
      window of an RX1 ACK; ``_t_rx1_tau[1]``, ``t_ack1 + t_data``, is also
      the window in which one uplink may be captured by the device.

    None of them is a field: equality, hashing and ``to_dict`` read the
    tuples only.
    """

    t_data: tuple[float, ...] = DEFAULT_DATA_AIRTIME
    t_ack1: tuple[float, ...] = DEFAULT_ACK_AIRTIME
    t_ack2: tuple[float, ...] = (DEFAULT_ACK_AIRTIME[-1],) * N_SF

    def __post_init__(self):
        for name in _AIRTIME_KEYS:
            vals = _as_float_tuple(f"airtimes.{name}", getattr(self, name))
            object.__setattr__(self, name, vals)
            if any(not math.isfinite(v) or v <= 0.0 for v in vals):
                raise ValidationError(f"airtimes.{name} entries must be strictly positive")
            object.__setattr__(self, f"_{name}", _read_only(np.array(vals)))
        # Doubling the symbol time per SF step makes these strictly increasing.
        for name in ("t_data", "t_ack1"):
            vals = getattr(self, name)
            if any(a >= b for a, b in zip(vals, vals[1:])):
                raise ValidationError(f"airtimes.{name} must be strictly increasing in SF")
        t_data_tau = tuple(_read_only(self._t_data * tau) for tau in (0, 1))
        object.__setattr__(self, "_t_data_tau", t_data_tau)
        object.__setattr__(self, "_t_rx1_tau",
                           tuple(_read_only(self._t_ack1 + t) for t in t_data_tau))

    def __reduce__(self):
        # Rebuild from the tuples, so that a copy's arrays are read-only too.
        return type(self), tuple(getattr(self, name) for name in _AIRTIME_KEYS)

    def to_dict(self) -> dict:
        return {name: list(getattr(self, name)) for name in _AIRTIME_KEYS}


@dataclass(frozen=True)
class SfDistribution:
    """Share of devices per spreading factor; entries are >= 0 and sum to 1."""

    p: tuple[float, ...]

    def __post_init__(self):
        vals = _as_float_tuple("SF distribution", self.p)
        object.__setattr__(self, "p", vals)
        if any(not math.isfinite(v) or v < 0.0 for v in vals):
            raise ValidationError("SF distribution entries must be finite and non-negative")
        total = sum(vals)
        if abs(total - 1.0) > DISTRIBUTION_TOL:
            raise ValidationError(
                f"SF distribution must sum to 1 within {DISTRIBUTION_TOL:g} (got {total!r}); "
                "pass renormalize=True to accept and rescale"
            )

    @classmethod
    def from_values(cls, values, renormalize: bool = False) -> "SfDistribution":
        vals = _as_float_tuple("SF distribution", values)
        if renormalize:
            if any(not math.isfinite(v) or v < 0.0 for v in vals):
                raise ValidationError("SF distribution entries must be finite and non-negative")
            total = sum(vals)
            if total <= 0.0:
                raise ValidationError("cannot renormalize an all-zero SF distribution")
            vals = tuple(v / total for v in vals)
        return cls(vals)

    @classmethod
    def equal(cls) -> "SfDistribution":
        return cls((1.0 / N_SF,) * N_SF)

    @classmethod
    def explora(cls) -> "SfDistribution":
        return cls.from_values(EXPLORA_RAW, renormalize=True)


_PRESETS = {
    "equal": SfDistribution.equal,
    "explora": SfDistribution.explora,
}


def preset(name: str) -> SfDistribution:
    """Return a named SF distribution: ``equal`` or ``explora``."""
    try:
        factory = _PRESETS[name.lower()]
    except (KeyError, AttributeError):
        raise ValidationError(
            f"unknown SF distribution preset {name!r}; known presets: {sorted(_PRESETS)}"
        ) from None
    return factory()


@dataclass(frozen=True)
class ScenarioConfig:
    """All tunable inputs of the cell model.

    Defaults reproduce the European channel plan: three shared UL/DL
    channels with a 1% duty cycle (``delta_sb1 = 99``), one dedicated DL
    channel at 10% (``delta_sb2 = 9``), eight gateway demodulators, and
    capture probabilities for a uniform disc deployment.
    """

    lambda_total: float = 1.0      # aggregate application packet rate [pck/s]
    alpha: float = 0.0             # fraction of traffic requiring an ACK
    p_unconfirmed: SfDistribution = field(default_factory=SfDistribution.equal)
    p_confirmed: SfDistribution = field(default_factory=SfDistribution.equal)
    h: int = 1                     # transmissions per unconfirmed packet
    m: int = 8                     # max attempts per confirmed packet
    delta_sb1: float = 99.0        # silent/airtime ratio in the shared sub-band
    delta_sb2: float = 9.0         # silent/airtime ratio in the DL-only sub-band
    tau1: int = 1                  # 1: gateway TX preempts reception in RX1
    tau2: int = 1                  # 1: gateway TX preempts reception in RX2
    c_channels: int = 3            # number of UL frequency channels
    mu_retx: float = 2.0           # mean retransmission timeout [s]
    w_gw: float = 0.1796           # uplink capture probability at the gateway
    w_ed: float = 0.5682           # downlink capture probability at the device
    airtimes: AirtimeTable = field(default_factory=AirtimeTable)
    n_demodulators: int = 8

    def __post_init__(self):
        _set_number(self, "lambda_total", float, minimum=0.0)
        _set_number(self, "alpha", float, minimum=0.0, maximum=1.0)
        # LoRaWAN's 4-bit NbTrans field (LinkADRReq) caps both at 15.
        _set_number(self, "h", int, minimum=1, maximum=15)
        _set_number(self, "m", int, minimum=1, maximum=15)
        _set_number(self, "delta_sb1", float, minimum=0.0)
        _set_number(self, "delta_sb2", float, minimum=0.0)
        _set_number(self, "tau1", int, minimum=0, maximum=1)
        _set_number(self, "tau2", int, minimum=0, maximum=1)
        # At most 1,000 channels and demodulators, ten times the 96 uplink channels of LoRaWAN's
        # largest regional plan (CN470-510).  Solve time grows with the demodulators and
        # simulator memory with the channels.
        _set_number(self, "c_channels", int, minimum=1, maximum=1000)
        _set_number(self, "mu_retx", float, minimum=0.0)
        _set_number(self, "w_gw", float, minimum=0.0, maximum=1.0)
        _set_number(self, "w_ed", float, minimum=0.0, maximum=1.0)
        _set_number(self, "n_demodulators", int, minimum=1, maximum=1000)
        for name in ("p_unconfirmed", "p_confirmed"):
            if not isinstance(getattr(self, name), SfDistribution):
                raise ValidationError(f"{name} must be an SfDistribution")
        if not isinstance(self.airtimes, AirtimeTable):
            raise ValidationError("airtimes must be an AirtimeTable")

    def to_dict(self) -> dict:
        """Plain-scalar mapping: schema_version, then every field in field order."""
        data = {"schema_version": SCHEMA_VERSION}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, SfDistribution):
                value = list(value.p)
            elif isinstance(value, AirtimeTable):
                value = value.to_dict()
            data[f.name] = value
        return data


_CONFIG_KEYS = {f.name for f in fields(ScenarioConfig)} | {"schema_version"}


def _parse_distribution(value, renormalize: bool) -> SfDistribution:
    if isinstance(value, str):
        return preset(value)
    if isinstance(value, SfDistribution):
        return value
    return SfDistribution.from_values(value, renormalize=renormalize)


def _parse_airtimes(value) -> AirtimeTable:
    if isinstance(value, AirtimeTable):
        return value
    if not isinstance(value, Mapping):
        raise ValidationError(f"airtimes must be a mapping with {'/'.join(_AIRTIME_KEYS)} lists")
    unknown = set(value).difference(_AIRTIME_KEYS)
    if unknown:
        raise ValidationError(f"unknown airtimes keys: {sorted(unknown)}")
    return AirtimeTable(**value)


def read_document(source) -> dict:
    """The scenario mapping of ``source``, not yet validated: a copy of a mapping,
    or the parsed YAML of text or of a :class:`~pathlib.Path` to a file.

    An empty document is an empty mapping.  Raises :class:`ParseError` when
    the YAML is malformed or is not a mapping, and ``OSError`` when the file
    cannot be read.
    """
    if isinstance(source, Mapping):
        return dict(source)
    import yaml   # imported here: only documents in text need the parser

    text = source.read_text() if isinstance(source, Path) else source
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"malformed scenario document: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, Mapping):
        raise ParseError(f"scenario document must be a mapping, got {type(data).__name__}")
    return dict(data)


def load_scenario(source, renormalize: bool = False) -> ScenarioConfig:
    """Build a validated :class:`ScenarioConfig` from a YAML document.

    ``source`` may be YAML text, a :class:`~pathlib.Path` to a YAML file,
    or an already-parsed mapping (see :func:`read_document`).  Missing keys
    take the European defaults; unknown keys raise :class:`ValidationError`.
    With ``renormalize`` set, SF distributions that do not sum to one are
    rescaled instead of rejected.
    """
    data = read_document(source)
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValidationError(f"unknown scenario keys: {sorted(unknown)}")

    version = data.pop("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema_version {version!r} (this release reads version {SCHEMA_VERSION})"
        )

    kwargs = dict(data)
    for name in ("p_unconfirmed", "p_confirmed"):
        if name in kwargs:
            kwargs[name] = _parse_distribution(kwargs[name], renormalize)
    if "airtimes" in kwargs:
        kwargs["airtimes"] = _parse_airtimes(kwargs["airtimes"])
    return ScenarioConfig(**kwargs)


def scenario_to_yaml(cfg: ScenarioConfig) -> str:
    """Serialize a config to YAML; ``load_scenario`` of the result round-trips."""
    import yaml

    return yaml.safe_dump(cfg.to_dict(), sort_keys=False)
