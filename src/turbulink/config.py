"""Run configuration: file format, validation, and serialization.

The config file is a small key-value format with nested tables, a strict
subset of the common bracketed-section style:

    # comment
    [link]
    distance_m = 30000.0
    wavelength_m = 3.95e-6

    [sweep]
    axes = ["waist_m"]
    waist_m = [0.10, 0.1457, 0.20]

Values are floats, integers, booleans (true/false), double-quoted strings,
or flat arrays of those.  A '#' starts a comment and a ',' separates array
items except inside a string, so `profile_csv = "run#1.csv"` names that file.  Every parse error reports line
and column.  Each key is declared once, as a RunConfig field whose metadata
holds its table, its range and its allowed values; every value must have
the type of its field (an int passes for a float), and every physical value
is range-checked against RANGES, which is derived from those fields.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace

from .entanglement import MAX_PAIR_MODES
from .ipe import PropagationScheme
from .lgmodes import MAX_COUPLING_CUTOFF
from .temporal import MAX_FULL_IPE_CUTOFF, MAX_FULL_IPE_GRID, MAX_GRID_ORDER, KernelFidelity
from .turbulence import CN2_MAX, CN2_MIN


class ConfigError(ValueError):
    """Malformed or out-of-range configuration."""


def _parse_scalar(token: str, lineno: int, col: int):
    token = token.strip()
    if not token:
        raise ConfigError(f"line {lineno}, column {col}: empty value")
    if token == "true":
        return True
    if token == "false":
        return False
    if token.startswith('"'):
        if not (len(token) >= 2 and token.endswith('"')):
            raise ConfigError(f"line {lineno}, column {col}: unterminated string")
        return token[1:-1]
    try:
        if any(c in token for c in ".eE") and not token.lstrip("+-").isdigit():
            return float(token)
        return int(token)
    except ValueError:
        try:
            return float(token)
        except ValueError:
            raise ConfigError(
                f"line {lineno}, column {col}: cannot parse value {token!r}"
            ) from None


def _split_unquoted(text: str, mark: str) -> list:
    """`text` split at every `mark` outside a double-quoted string."""
    pieces, quoted, start = [], False, 0
    for col, char in enumerate(text):
        if char == '"':
            quoted = not quoted
        elif char == mark and not quoted:
            pieces.append(text[start:col])
            start = col + 1
    return pieces + [text[start:]]


def parse_table_text(text: str) -> dict:
    """Parse the documented key-value/nested-table grammar into nested dicts."""
    tables: dict = {}
    current: dict | None = None
    current_name = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _split_unquoted(raw, "#")[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        col = len(line) - len(line.lstrip()) + 1
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError(f"line {lineno}, column {col}: unterminated table header")
            name = stripped[1:-1].strip()
            if not name:
                raise ConfigError(f"line {lineno}, column {col}: empty table name")
            if name in tables:
                raise ConfigError(f"line {lineno}, column {col}: duplicate table [{name}]")
            current = {}
            current_name = name
            tables[name] = current
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}, column {col}: expected 'key = value'")
        if current is None:
            raise ConfigError(f"line {lineno}, column {col}: key outside any [table]")
        key, _, value_text = stripped.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        value_col = col + len(stripped) - len(value_text)
        if not key:
            raise ConfigError(f"line {lineno}, column {col}: empty key")
        if key in current:
            raise ConfigError(
                f"line {lineno}, column {col}: duplicate key {key!r} in [{current_name}]"
            )
        if value_text.startswith("["):
            if not value_text.endswith("]"):
                raise ConfigError(f"line {lineno}, column {value_col}: unterminated array")
            inner = value_text[1:-1].strip()
            pieces = _split_unquoted(inner, ",") if inner else []
            current[key] = [_parse_scalar(piece, lineno, value_col) for piece in pieces]
        else:
            current[key] = _parse_scalar(value_text, lineno, value_col)
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
    scheme: str = _key("truncated_exact", "solver", choices=PropagationScheme)
    steps: int = _key(256, "solver", (16, 100000, ""))
    check_convergence: bool = _key(False, "solver")
    grid_order: int = _key(32, "channel", (4, MAX_GRID_ORDER, ""))
    kernel_fidelity: str = _key("analytic", "channel", choices=KernelFidelity)
    max_mode: int = _key(3, "channel", (0, 14, ""))
    pair_modes: int = _key(12, "entangle", (2, MAX_PAIR_MODES, ""))
    fixed_mode: int = _key(0, "entangle", (0, 10, ""))
    output_dir: str = _key(".", "output")
    sweep_axes: tuple = ()
    sweep_values: tuple = ()

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
_ACCEPTS = {float: (int, float), int: (int,), bool: (bool,), str: (str,)}
_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _check_type(key: str, value):
    kind = type(getattr(RunConfig, key))
    if not isinstance(value, _ACCEPTS[kind]) or (isinstance(value, bool) and kind is not bool):
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
    if config.profile_csv and not os.path.exists(config.profile_csv):
        raise ConfigError(f"value for 'profile_csv' invalid: no such file {config.profile_csv!r}")
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
    if command == "tmatrix" and config.max_mode + 1 > config.grid_order // 2:
        raise ConfigError(
            f"value for 'max_mode' out of range: {config.max_mode} needs grid_order >= {2 * (config.max_mode + 1)}"
        )
    if command != "entangle":
        return
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
    except OSError as exc:
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
            parsed[key] = _BOOL_WORDS[text.lower()] if kind is bool else kind(text)
        except (KeyError, ValueError):
            raise ConfigError(f"override '{key}={text}': not a {kind.__name__}") from None
    updated = replace(config, **parsed)
    validate_config(updated)
    return updated
