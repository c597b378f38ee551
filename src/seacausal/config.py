"""Config files: flat `key = value` lines, read as the command's own flags."""

from __future__ import annotations


class ConfigError(ValueError):
    """Malformed or invalid configuration (CLI exit code 2)."""


def config_argv(path: str, flags: dict, command: str) -> list:
    """The `--flag=value` tokens of the config file at `path`, where
    `flags` maps each key that `command` reads to its flag.  '#' starts a
    comment, a later line of a key overrides an earlier one, and any other
    key is an error.  The '=' form keeps a value such as `-0.02,0.02` from
    being read as an option.  A file that cannot be read or is not UTF-8
    is a ConfigError that names it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config file %s: %s"
                          % (path, exc.strerror or exc)) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError("config file %s is not UTF-8: %s"
                          % (path, exc)) from exc
    values = {}
    # text mode has turned every line ending into '\n'
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key = value" % lineno)
        key, raw = (s.strip() for s in line.split("=", 1))
        values[key] = raw
    unread = sorted(set(values) - set(flags))
    if unread:
        raise ConfigError("%s reads no config key %s (its keys: %s)"
                          % (command, ", ".join(unread),
                             ", ".join(sorted(flags))))
    return ["%s=%s" % (flags[key], raw) for key, raw in values.items()]
