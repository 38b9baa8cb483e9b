"""Runtime configuration of the CLI: degree budget and output format.

A config file is plain ``key = value`` lines (# comments allowed); the
environment variable SYMVERTEX_CONFIG names a default file.  Command-line
flags override file values, which override the dataclass defaults.  Suite
ranges are not configuration: each `verify_*` signature holds its own
defaults, and only the `verify` flags change them.
"""

import os
from dataclasses import dataclass


class ConfigError(Exception):
    """Raised for an unreadable, unparsable, or out-of-range configuration."""


ENV_CONFIG = "SYMVERTEX_CONFIG"


@dataclass
class CliConfig:
    """The CLI's own settings."""

    degree_budget: int = 14
    format: str = "text"

    def validate(self):
        if self.degree_budget < 0:
            raise ConfigError("degree_budget must be >= 0")
        if self.format not in ("text", "json"):
            raise ConfigError("format must be 'text' or 'json'")
        return self


_PARSERS = {
    "degree_budget": int,
    "format": lambda s: s.strip(),
}


def parse_config_text(text, base=None):
    cfg = base or CliConfig()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key = value, got %r"
                              % (lineno, raw))
        raw_key, val = (x.strip() for x in line.split("=", 1))
        key = raw_key.replace("-", "_")
        if key not in _PARSERS:
            raise ConfigError("line %d: unknown key %r" % (lineno, raw_key))
        try:
            setattr(cfg, key, _PARSERS[key](val))
        except ValueError as exc:
            raise ConfigError("line %d: bad value for %s: %s"
                              % (lineno, key, exc))
    return cfg.validate()


def load_config(path=None, env=None):
    """Build a CliConfig from defaults, then the config file if any.

    The file is `path` if given, else $SYMVERTEX_CONFIG if set.  A missing
    explicit path is an error; a missing environment default is ignored.
    """
    env = os.environ if env is None else env
    chosen = path or env.get(ENV_CONFIG)
    cfg = CliConfig()
    if not chosen:
        return cfg
    if not os.path.exists(chosen):
        if path:
            raise ConfigError("config file %r does not exist" % chosen)
        return cfg
    with open(chosen, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), cfg)
