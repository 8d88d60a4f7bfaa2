"""Scenario configuration: a flat, diff-friendly key=value file format with
units spelled out in key names, plus built-in presets that reproduce the
reference experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .engine import CONTROLLERS
from .estimators import MIN_POBS_SAMPLES
from .mac import CAPTURE_MODES, TRAFFIC_KINDS
from .phy import BUILTIN_PROFILES, MAX_MSDU_BYTES, PhyProfile, get_profile, is_pow2


class ConfigError(ValueError):
    """Invalid scenario configuration; `field` carries the offending key."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"{field_name}: {message}")


@dataclass(frozen=True)
class Scenario:
    snr_db: tuple[float, ...]
    name: str = "custom"
    profile: str = "80211a-24mbps"
    controller: str = "cac"              # one of CONTROLLERS
    payload_bytes: int = 1500
    duration_s: float = 30.0
    replications: int = 3
    seed: int = 1
    capture_mode: str = "none"           # one of CAPTURE_MODES
    capture_threshold_db: float = 10.0
    traffic: str = "saturated"           # one of TRAFFIC_KINDS
    burst_bytes: int = 10_000_000
    silent_mean_s: float = 30.0
    static_cw: int = 16
    static_beb: bool = False             # let the static baseline double its window
    hidden_pairs: tuple[tuple[int, int], ...] = ()
    hidden_from_ap: tuple[int, ...] = ()
    hidden_links: tuple[tuple[int, int], ...] = ()   # directed: first cannot hear second
    allow_asymmetric: bool = False
    defer_min_samples: int = MIN_POBS_SAMPLES
    kp_override: float | None = None
    ki_override: float | None = None
    cw_floor_override: int | None = None
    cw_ceiling_override: int | None = None
    snr_jitter_db: float = 0.0           # per-replication SNR redraw sigma
    station_add_order: str = "ascending"  # sweep growth order by link quality

    @property
    def n_stations(self) -> int:
        return len(self.snr_db)

    @property
    def duration_us(self) -> int:
        """The run length in whole microseconds, rounded once."""
        return round(self.duration_s * 1e6)

    def phy(self) -> PhyProfile:
        return get_profile(self.profile)

    def cw_bounds(self) -> tuple[int, int]:
        """Controller window (floor, ceiling): the overrides, else the PHY's."""
        phy = self.phy()
        floor, ceiling = self.cw_floor_override, self.cw_ceiling_override
        return (phy.cw_floor if floor is None else floor,
                phy.cw_ceiling if ceiling is None else ceiling)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if any(c in self.name for c in '#,"') or self.name != self.name.strip() \
                or len(self.name.splitlines()) > 1:
            raise ConfigError("name", "must be one line, without '#', ',', '\"' "
                              "or surrounding whitespace")
        if self.profile not in BUILTIN_PROFILES:
            raise ConfigError("profile", f"unknown profile {self.profile!r}")
        if self.controller not in CONTROLLERS:
            raise ConfigError("controller", f"unknown controller {self.controller!r}")
        if self.traffic not in TRAFFIC_KINDS:
            raise ConfigError("traffic", f"unknown traffic model {self.traffic!r}")
        if self.capture_mode not in CAPTURE_MODES:
            raise ConfigError("capture_mode", f"unknown capture mode {self.capture_mode!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f.name, "must be finite")
        if self.capture_mode == "threshold" and self.capture_threshold_db <= 0:
            raise ConfigError("capture_threshold_db", "must be positive")
        if self.n_stations < 1:
            raise ConfigError("snr_db", "at least one station required")
        if any(not math.isfinite(s) for s in self.snr_db):
            raise ConfigError("snr_db", "SNR values must be finite")
        if self.replications < 1:
            raise ConfigError("replications", "must be >= 1")
        phy = self.phy()
        if self.duration_us < 10 * phy.beacon_interval:
            raise ConfigError("duration_s", "must span at least 10 beacon intervals")
        if self.duration_us % phy.beacon_interval:
            raise ConfigError("duration_s", "must be a whole number of beacon "
                              f"intervals ({phy.beacon_interval / 1e6:g} s)")
        if not 1 <= self.payload_bytes <= MAX_MSDU_BYTES:
            raise ConfigError("payload_bytes",
                              f"must be 1..{MAX_MSDU_BYTES} (the 802.11 MSDU maximum)")
        if self.traffic == "onoff":
            if self.burst_bytes < self.payload_bytes:
                raise ConfigError("burst_bytes", "must hold at least one frame")
            if self.silent_mean_s <= 0:
                raise ConfigError("silent_mean_s", "must be positive")
        if self.static_cw < 1:
            raise ConfigError("static_cw", "must be >= 1")
        if self.static_beb and self.static_cw > phy.cw_ceiling:
            raise ConfigError("static_cw", "with static_beb, must not exceed the "
                              f"PHY's window ceiling {phy.cw_ceiling}")
        if self.defer_min_samples < 1:
            raise ConfigError("defer_min_samples", "must be >= 1")
        ids = range(1, self.n_stations + 1)
        for a, b in self.hidden_pairs:
            if a == b or a not in ids or b not in ids:
                raise ConfigError("hidden_pairs", f"bad station pair ({a},{b})")
        for a in self.hidden_from_ap:
            if a not in ids:
                raise ConfigError("hidden_from_ap", f"unknown station {a}")
        if self.hidden_links and not self.allow_asymmetric:
            raise ConfigError("hidden_links",
                              "asymmetric hearing requires allow_asymmetric = true")
        for a, b in self.hidden_links:
            if a == b or a not in ids or b not in ids:
                raise ConfigError("hidden_links", f"bad directed pair ({a},{b})")
        if not self.is_fully_connected() and self.traffic != "saturated":
            raise ConfigError("traffic",
                              "hidden topologies support saturated traffic only")
        if self.station_add_order not in ("ascending", "descending"):
            raise ConfigError("station_add_order", "ascending or descending")
        if self.snr_jitter_db < 0:
            raise ConfigError("snr_jitter_db", "must be >= 0")
        for name in ("cw_floor_override", "cw_ceiling_override"):
            value = getattr(self, name)
            if value is not None and not is_pow2(value):
                raise ConfigError(name, f"must be a power of 2, got {value}")
        floor, ceiling = self.cw_bounds()
        if ceiling > phy.cw_ceiling:
            raise ConfigError("cw_ceiling_override", "must not exceed the PHY's "
                              f"window ceiling {phy.cw_ceiling}")
        if floor >= ceiling:
            name = ("cw_floor_override" if self.cw_floor_override is not None
                    else "cw_ceiling_override")
            raise ConfigError(name, f"window floor {floor} must be below "
                              f"ceiling {ceiling}")
        for name in ("kp_override", "ki_override"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigError(name, "must be positive")
        if (self.kp_override is None) != (self.ki_override is None):
            missing = "ki_override" if self.ki_override is None else "kp_override"
            raise ConfigError(missing, "kp_override and ki_override go together")

    def is_fully_connected(self) -> bool:
        return not (self.hidden_pairs or self.hidden_from_ap or self.hidden_links)


def hidden_node_visibility(scenario: Scenario) -> dict[int, set[int]]:
    """Build per-station heard sets (audible node ids, AP = 0). Stations
    default to hearing everyone. Hearing the AP is symmetric, so the AP
    hears exactly the stations whose heard set holds it.
    """
    n = scenario.n_stations
    heard = {i: set(range(0, n + 1)) for i in range(1, n + 1)}
    for a, b in scenario.hidden_pairs:
        heard[a].discard(b)
        heard[b].discard(a)
    for a in scenario.hidden_from_ap:
        heard[a].discard(0)
        for i in heard:
            if i != a:
                heard[i].discard(a)
    for a, b in scenario.hidden_links:
        heard[a].discard(b)
    return heard


# -- flat key = value config files -------------------------------------------

def _parse_bool(raw: str) -> bool:
    word = raw.lower()
    if word in ("true", "yes", "1"):
        return True
    if word in ("false", "no", "0"):
        return False
    raise ValueError(raw)


def _parse_pairs(raw: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for chunk in raw.split(";"):
        if chunk.strip():
            a, b = chunk.split("-")
            pairs.append((int(a), int(b)))
    return tuple(pairs)


def _comma_list(parse):
    return lambda raw: tuple(parse(v) for v in raw.split(",") if v.strip())


def _optional(parse, render):
    return (lambda raw: None if raw.lower() in ("", "none") else parse(raw),
            lambda v: "none" if v is None else render(v))


# Field annotation -> (parser, renderer, what the parser expects). Every
# Scenario field and the `stations` shorthand are read and written through it.
_FORMAT = {
    "str": (str, str, "text"),
    "int": (int, str, "an integer"),
    "float": (float, repr, "a number"),
    "bool": (_parse_bool, lambda v: "true" if v else "false", "true/false"),
    "int | None": (*_optional(int, str), "an integer or none"),
    "float | None": (*_optional(float, repr), "a number or none"),
    "tuple[int, ...]": (_comma_list(int), lambda v: ", ".join(str(x) for x in v),
                        "comma-separated integers"),
    "tuple[float, ...]": (_comma_list(float), lambda v: ", ".join(repr(x) for x in v),
                          "comma-separated numbers"),
    "tuple[tuple[int, int], ...]": (
        _parse_pairs, lambda v: "; ".join(f"{a}-{b}" for a, b in v),
        "'a-b' pairs separated by ';'"),
}
_FIELD_TYPES = {f.name: f.type for f in fields(Scenario)}
# Every key a config file may set: the fields and the `stations` shorthand.
_KEY_TYPES = {**_FIELD_TYPES, "stations": "int"}


def _parse_value(name: str, raw: str, type_name: str):
    parse, _, expected = _FORMAT[type_name]
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(name, f"expected {expected}, got {raw!r}") from None


def parse_scenario(text: str) -> Scenario:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_TYPES:
            raise ConfigError(key, "unknown configuration key")
        if key in values:
            raise ConfigError(key, f"given twice (again on line {lineno})")
        values[key] = _parse_value(key, raw, _KEY_TYPES[key])
    if "snr_db" not in values:
        raise ConfigError("snr_db", "missing required key")
    n = values.pop("stations", None)
    if n is not None:
        snr = values["snr_db"]
        if n < 1:
            raise ConfigError("stations", f"must be >= 1, got {n}")
        if len(snr) == 1:
            values["snr_db"] = snr * n
        elif len(snr) != n:
            raise ConfigError("stations", f"stations = {n} but {len(snr)} SNR values given")
    return Scenario(**values)


def emit_scenario(scenario: Scenario) -> str:
    """Serialize with every field explicit; parse(emit(s)) == s."""
    lines = [f"# scenario: {scenario.name}"]
    for name, type_name in _FIELD_TYPES.items():
        render = _FORMAT[type_name][1]
        lines.append(f"{name} = {render(getattr(scenario, name))}")
    return "\n".join(lines) + "\n"


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


# -- presets ------------------------------------------------------------------

# Per-node SNR table read off the testbed link-quality figure; values are
# approximate dB levels, stations numbered in decreasing link quality.
TESTBED_SNR_DB = (40.0, 39.2, 38.5, 37.8, 37.0, 36.2, 35.5, 34.7, 34.0,
                  33.2, 32.5, 31.7, 31.0, 29.5, 28.0, 26.0, 24.5)

# Ten-node subset used by the throughput/fairness/SNR experiments.
_SUBSET_10 = (0, 2, 4, 6, 8, 10, 12, 13, 14, 15)
SNR_SUBSET_10 = tuple(TESTBED_SNR_DB[i] for i in _SUBSET_10)


def _presets() -> dict[str, Scenario]:
    return {
        "fig5_cac_point_of_operation": Scenario(
            name="fig5_cac_point_of_operation",
            controller="cac",
            snr_db=(30.0,) * 10,
            capture_mode="none",
            duration_s=120.0,
            replications=1,
            seed=5,
        ),
        "fig7_udp_total": Scenario(
            name="fig7_udp_total",
            controller="cac",
            snr_db=SNR_SUBSET_10,
            capture_mode="threshold",
            duration_s=30.0,
            replications=3,
            seed=7,
        ),
        "fig9_snr_correlation": Scenario(
            name="fig9_snr_correlation",
            controller="cac",
            snr_db=SNR_SUBSET_10,
            capture_mode="threshold",
            duration_s=30.0,
            replications=3,
            seed=9,
        ),
        "fig10_hidden": Scenario(
            name="fig10_hidden",
            controller="cac",
            snr_db=(31.0, 30.0),
            capture_mode="none",
            hidden_pairs=((1, 2),),
            duration_s=30.0,
            replications=3,
            seed=10,
        ),
        "fig11_sweep_n": Scenario(
            name="fig11_sweep_n",
            controller="cac",
            snr_db=(30.0,) * 18,
            capture_mode="none",
            duration_s=15.0,
            replications=1,
            seed=11,
        ),
        "fig12_delay": Scenario(
            name="fig12_delay",
            controller="cac",
            snr_db=SNR_SUBSET_10,
            capture_mode="threshold",
            traffic="onoff",
            burst_bytes=10_000_000,
            silent_mean_s=30.0,
            duration_s=300.0,
            replications=1,
            seed=12,
        ),
    }


PRESETS = _presets()


def get_preset(name: str) -> Scenario:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError("preset", f"unknown preset {name!r}; "
                          f"known: {sorted(PRESETS)}") from None
