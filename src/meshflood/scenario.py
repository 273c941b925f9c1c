"""Scenario files: flat `key=value` text mapping onto SimConfig.

Lines are `key = value`, `#` starts a comment, blank lines are ignored.
The keys are SimConfig's field names, and each value is parsed as the type
of that field's default (booleans also as on/off or yes/no). The exceptions
are `fixture`, a built-in topology name, and `rate_schedule`, `t:bits` pairs
joined by commas. Unknown keys are rejected so typos cannot silently fall
back to defaults.
"""

from __future__ import annotations

from pathlib import Path

from .engine import SimConfig
from .errors import ConfigError

_BOOL_WORDS = {
    "on": True,
    "off": False,
    "true": True,
    "false": False,
    "yes": True,
    "no": False,
    "1": True,
    "0": False,
}


def _parse_bool(key: str, raw: str) -> bool:
    try:
        return _BOOL_WORDS[raw.lower()]
    except KeyError:
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}") from None


def parse_rate_schedule(raw: str) -> tuple[tuple[float, int], ...]:
    """Parse `t:bits,t:bits` into a sorted schedule of payload changes."""
    entries = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        t_s, sep, bits_s = chunk.partition(":")
        if not sep:
            raise ConfigError(f"rate_schedule entry {chunk!r} is not t:bits")
        try:
            entries.append((float(t_s), int(bits_s)))
        except ValueError:
            raise ConfigError(f"rate_schedule entry {chunk!r} is not t:bits") from None
    return tuple(sorted(entries))


# A key's value type is that of its SimConfig default, except that `fixture`
# (default None) takes a name and `rate_schedule` has its own syntax.
_KEY_TYPES = {name: type(d) for name, d in SimConfig._field_defaults.items()}
_KEY_TYPES["fixture"] = str


def _convert(key: str, raw: str):
    if key == "rate_schedule":
        return parse_rate_schedule(raw)
    kind = _KEY_TYPES[key]
    if kind is bool:
        return _parse_bool(key, raw)
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def parse_scenario_text(text: str, origin: str = "<string>") -> SimConfig:
    """Build a validated SimConfig from scenario text."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key:
            raise ConfigError(f"{origin}:{lineno}: expected key=value, got {raw!r}")
        if key not in _KEY_TYPES:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        values[key] = _convert(key, value)
    cfg = SimConfig(**values)
    cfg.validate()
    return cfg


def load_scenario(path) -> SimConfig:
    """Read and validate a scenario file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {p}: {exc}") from exc
    return parse_scenario_text(text, origin=str(p))
