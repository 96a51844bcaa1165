"""Run configuration: file reading and validation.

The config file is TOML 1.0, read by the standard library's tomllib, with
every key inside a table:

    # comment
    [link]
    distance_m = 30000.0
    wavelength_m = 3.95e-6

    [sweep]
    axes = ["waist_m"]
    waist_m = [0.10, 0.1457, 0.20]

A parse error carries tomllib's message, which names the line and column.
Each key is declared once, as a RunConfig field whose metadata holds its
table, its range and its allowed values; every value must have the type of
its field (an int passes for a float), and every physical value is
range-checked against RANGES, which is derived from those fields.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace

from .entanglement import MAX_PAIR_MODES
from .lgmodes import MAX_COUPLING_CUTOFF
from .schmidt import BiphotonSpec, frequency_grid
from .temporal import MAX_FULL_IPE_CUTOFF, MAX_FULL_IPE_GRID, MAX_GRID_ORDER, KernelFidelity
from .turbulence import CN2_MAX, CN2_MIN, TRAD_S, LinkGeometry, TurbulenceProfile, extinction_depth
from .turbulence import two_pi_c_over


# run length bounds the step count of `propagate` and the full-IPE kernel
MAX_STEPS = 100000


class ConfigError(ValueError):
    """Malformed or out-of-range configuration."""


def parse_table_text(text: str) -> dict:
    """Parse TOML text into nested dicts, one per [table]."""
    # imported here: tomllib's import costs about 4.7 ms after numpy
    # (python -X importtime), which runs without --config need not pay
    import tomllib

    try:
        tables = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(str(exc)) from None
    for key, value in tables.items():
        if not isinstance(value, dict):
            raise ConfigError(f"key {key!r} outside any [table]")
    return tables


def _key(default, section: str, bounds: tuple = (), choices=None, zero_ok: bool = False):
    """A config key's RunConfig field: its default, its [section], and
    either its (lower, upper, unit) range, where zero_ok also admits 0, or
    the Enum whose values it takes."""
    allowed = tuple(member.value for member in choices or ())
    metadata = {"section": section, "range": bounds, "choices": allowed, "zero_ok": zero_ok}
    return field(default=default, metadata=metadata)


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for every subcommand.

    Frequencies in the file are T rad/s (1e12 rad/s); lengths are meters.
    The upper bounds that a library module enforces are read from that module.
    """

    distance_m: float = _key(30000.0, "link", (1.0, 5.0e5, "m"))
    wavelength_m: float = _key(3.95e-6, "link", (0.3e-6, 15e-6, "m"))
    waist_m: float = _key(0.1457, "link", (1e-3, 10.0, "m"))
    transmitter_height_m: float = _key(19.0, "link", (0.1, 1e4, "m"))
    receiver_height_m: float = _key(19.0, "link", (0.1, 1e4, "m"))
    # 0 switches turbulence off
    cn2: float = _key(1e-15, "turbulence", (CN2_MIN, CN2_MAX, "m^-2/3"), zero_ok=True)
    profile_csv: str = _key("", "turbulence")
    extinction_per_km: float = _key(0.0, "turbulence", (0.0, 100.0, "1/km"))
    sigma_a_trad: float = _key(10.0, "source", (1e-3, 1e4, "T rad/s"))
    sigma_b_trad: float = _key(80.0, "source", (1e-3, 1e4, "T rad/s"))
    # 0 derives the pump from the wavelength (2 * 2 pi c / lambda)
    pump_trad: float = _key(0.0, "source", (1.0, 1e5, "T rad/s"), zero_ok=True)
    cutoff: int = _key(4, "solver", (0, MAX_COUPLING_CUTOFF, ""))
    steps: int = _key(256, "solver", (16, MAX_STEPS, ""))
    grid_order: int = _key(32, "channel", (4, MAX_GRID_ORDER, ""))
    kernel_fidelity: str = _key("analytic", "channel", choices=KernelFidelity)
    max_mode: int = _key(3, "channel", (0, 14, ""))
    pair_modes: int = _key(12, "entangle", (2, MAX_PAIR_MODES, ""))
    fixed_mode: int = _key(0, "entangle", (0, 10, ""))
    output_dir: str = _key(".", "output")
    sweep_axes: tuple = ()
    sweep_values: tuple = ()

    @property
    def spec(self) -> BiphotonSpec:
        """The source in rad/s; pump_trad = 0 pumps at 2 * 2 pi c / lambda."""
        pump = self.pump_trad * TRAD_S if self.pump_trad > 0 else 2.0 * two_pi_c_over(self.wavelength_m)
        return BiphotonSpec(
            sigma_a=self.sigma_a_trad * TRAD_S, sigma_b=self.sigma_b_trad * TRAD_S, omega_p=pump
        )

    @property
    def geometry(self) -> LinkGeometry:
        """The link, in meters."""
        return LinkGeometry(
            path_length=self.distance_m,
            transmitter_height=self.transmitter_height_m,
            receiver_height=self.receiver_height_m,
            waist=self.waist_m,
            wavelength=self.wavelength_m,
        )

    def profile(self) -> TurbulenceProfile:
        """The C_n^2 profile: profile_csv read from its file, else constant cn2."""
        if self.profile_csv:
            return TurbulenceProfile.from_csv(self.profile_csv)
        return TurbulenceProfile.from_constant(self.cn2)

    @property
    def scan_modes(self) -> range:
        """Second modes n of the entangle scan: n < min(11, pair_modes - 1)."""
        return range(min(11, self.pair_modes - 1))


# the config keys, in file order, and the tables derived from their fields
_KEYS = {f.name: f.metadata for f in fields(RunConfig) if f.metadata}
_SECTION_KEYS = {
    section: tuple(key for key, meta in _KEYS.items() if meta["section"] == section)
    for section in dict.fromkeys(meta["section"] for meta in _KEYS.values())
}
RANGES = {key: meta["range"] for key, meta in _KEYS.items() if meta["range"]}

# value types by the type of a key's RunConfig default (a bool is no int or float)
_ACCEPTS = {float: (int, float), int: (int,), str: (str,)}


def _check_type(key: str, value):
    kind = type(getattr(RunConfig, key))
    if not isinstance(value, _ACCEPTS[kind]) or isinstance(value, bool):
        raise ConfigError(f"value for '{key}' must be a {kind.__name__}, got {value!r}")


def config_from_tables(tables: dict) -> RunConfig:
    """Validate nested tables and build a RunConfig."""
    values = {}
    for section, body in tables.items():
        if section == "sweep":
            continue
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown table [{section}]")
        for key, value in body.items():
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"unknown key '{key}' in [{section}]")
            values[key] = value

    sweep = tables.get("sweep", {})
    axes = tuple(sweep.get("axes", ()))
    sweep_values = []
    for axis in axes:
        if axis not in _KEYS:
            raise ConfigError(f"sweep axis '{axis}' is not a configurable key")
        if axis not in sweep:
            raise ConfigError(f"sweep axis '{axis}' has no value list in [sweep]")
        points = sweep[axis]
        if not isinstance(points, list) or not points:
            raise ConfigError(f"sweep axis '{axis}' needs a non-empty array of values")
        for point in points:
            _check_type(axis, point)
        sweep_values.append(tuple(points))
    total = 1
    for points in sweep_values:
        total *= len(points)
    if total > 100000:
        raise ConfigError(f"sweep would evaluate {total} points (limit 100000)")

    config = RunConfig(**values, sweep_axes=axes, sweep_values=tuple(sweep_values))
    validate_config(config)
    return config


def validate_config(config: RunConfig, command: str = ""):
    """Reject out-of-range values and inconsistent key pairs.

    `command` adds the rules of keys only that subcommand reads, so that
    (say) a coarse kernel grid is not refused over the entangle defaults.
    """
    for key in _KEYS:
        _check_type(key, getattr(config, key))
    for key, (lower, upper, unit) in RANGES.items():
        value = getattr(config, key)
        if not (lower <= value <= upper or _KEYS[key]["zero_ok"] and value == 0.0):
            suffix = f" {unit}" if unit else ""
            raise ConfigError(
                f"value for '{key}' out of range: {value} not in [{lower}, {upper}]{suffix}"
            )
    if config.profile_csv and not os.path.isfile(config.profile_csv):
        raise ConfigError(f"value for 'profile_csv' invalid: {config.profile_csv!r} is not a file")
    if os.path.exists(config.output_dir) and not os.path.isdir(config.output_dir):
        raise ConfigError(f"value for 'output_dir' invalid: {config.output_dir!r} is not a directory")
    for key, meta in _KEYS.items():
        value = getattr(config, key)
        if meta["choices"] and value not in meta["choices"]:
            allowed = ", ".join(map(repr, meta["choices"]))
            raise ConfigError(f"value for '{key}' must be one of {allowed}, got {value!r}")
    if config.kernel_fidelity == "full_ipe":
        for key, limit in (("grid_order", MAX_FULL_IPE_GRID), ("cutoff", MAX_FULL_IPE_CUTOFF)):
            if getattr(config, key) > limit:
                raise ConfigError(
                    f"value for '{key}' out of range: full_ipe kernels allow at most {limit}"
                )
    # `validate` also refuses the frequency grid of a full-IPE kernel, as the kernel commands do
    full_ipe = config.kernel_fidelity == "full_ipe" and command == "validate"
    if command in ("kernel", "tmatrix", "entangle") or full_ipe:
        omegas = frequency_grid(config.spec, config.grid_order)
        if not omegas[0] > 0:
            raise ConfigError(
                f"value for 'pump_trad' out of range: the frequency grid of grid_order {config.grid_order}"
                f" reaches {omegas[0] / TRAD_S:.6g} T rad/s; raise pump_trad or narrow the bandwidths"
            )
    # a flat extinction that underflows leaves no mode to transmit or to entangle
    depth = extinction_depth(config.extinction_per_km, config.distance_m)
    if command in ("tmatrix", "entangle") and math.exp(-depth) == 0.0:
        raise ConfigError(
            f"value for 'extinction_per_km' out of range: {config.extinction_per_km} over "
            f"distance_m = {config.distance_m} absorbs every mode (exp underflows to 0)"
        )
    if command == "tmatrix" and config.max_mode + 1 > config.grid_order // 2:
        raise ConfigError(
            f"value for 'max_mode' out of range: {config.max_mode} needs grid_order >= {2 * (config.max_mode + 1)}"
        )
    if command == "entangle":
        if config.fixed_mode >= config.pair_modes:
            raise ConfigError(
                f"value for 'fixed_mode' out of range: {config.fixed_mode} must be below pair_modes = {config.pair_modes}"
            )
        if config.pair_modes > config.grid_order // 2:
            raise ConfigError(
                f"value for 'pair_modes' out of range: {config.pair_modes} needs grid_order >= {2 * config.pair_modes}"
            )
        if all(n == config.fixed_mode for n in config.scan_modes):
            raise ConfigError(
                f"value for 'pair_modes' out of range: {config.pair_modes} scans only "
                f"n = {config.fixed_mode} = fixed_mode, the degenerate row"
            )


def parse_config(path: str) -> RunConfig:
    """Read and validate a config file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return config_from_tables(parse_table_text(text))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def apply_overrides(config: RunConfig, overrides: dict) -> RunConfig:
    """Apply `key=value` command-line overrides (same keys as the file)."""
    if not overrides:
        return config
    parsed = {}
    for key, text in overrides.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown override key '{key}'")
        kind = type(getattr(RunConfig, key))
        try:
            parsed[key] = kind(text)
        except ValueError:
            raise ConfigError(f"override '{key}={text}': not a {kind.__name__}") from None
    updated = replace(config, **parsed)
    validate_config(updated)
    return updated
