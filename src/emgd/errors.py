"""Exception types and the typed JSON reader shared across the package."""

import json
import sys
from pathlib import Path


class EmgdError(Exception):
    """Base class for all library errors."""


class InvalidInputError(EmgdError):
    """Arguments violate a documented precondition (shape, range, value)."""


class NumericError(EmgdError):
    """A computation produced or received non-finite values; mid-run, the
    message names the failing tick."""


class ConfigError(EmgdError):
    """Invalid or infeasible configuration."""


class FormatError(EmgdError):
    """Malformed binary file; the message ends with the first bad byte's offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")


_KINDS = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string",
          list: "a list of integers", dict: "a JSON object"}


def is_number(value) -> bool:
    """A JSON int or float; a bool is never a number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def read_field(doc: dict, key: str, default, path: str = "", error=ConfigError):
    """``doc[key]`` as the JSON type of ``default``, or ``default`` when absent.

    A ``default`` that is itself a type marks a required field of that type.
    An int accepts an integral number such as 3.0, a float any finite number,
    a bool is never a number, a list must hold integers. Anything else raises
    ``error`` naming the dotted path ``path.key``.
    """
    where = f"{path}.{key}" if path else key
    kind = default if isinstance(default, type) else type(default)
    if key not in doc:
        if kind is default:
            raise error(f"missing field {where}")
        return default
    value = doc[key]
    number = is_number(value)
    if kind is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if kind is float and number and abs(value) <= sys.float_info.max:
        return float(value)
    if kind is list and isinstance(value, list) and all(
            isinstance(v, int) and not isinstance(v, bool) for v in value):
        return value
    if kind in (bool, str, dict) and isinstance(value, kind):
        return value
    raise error(f"field {where} must be {_KINDS[kind]}, got {value!r}")


def section(doc, path: str, defaults: dict) -> dict:
    """Every field of ``defaults`` read from the JSON object ``doc``; the keys
    of ``defaults`` are the only ones allowed (see ``read_field``)."""
    if not isinstance(doc, dict):
        raise ConfigError(f"field {path} must be a JSON object, got {doc!r}")
    unknown = sorted(set(doc) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown field: {path}.{unknown[0]}")
    return {key: read_field(doc, key, default, path) for key, default in defaults.items()}


def parse_json(text: str, what: str):
    """The JSON value in ``text``, else a ConfigError that names ``what``."""
    try:
        return json.loads(text)
    except ValueError as err:
        raise ConfigError(f"{what} is not valid JSON: {err}") from None
    except RecursionError:
        raise ConfigError(f"{what} nests too deeply to parse") from None


def load_json_object(path, what: str) -> dict:
    """The JSON object in the file at ``path``; ConfigError names ``what``."""
    try:
        doc = parse_json(Path(path).read_text(), f"{what} {path}")
    except OSError as err:
        raise ConfigError(f"cannot read {what} {path}: {err.strerror}") from None
    except ValueError as err:  # not UTF-8
        raise ConfigError(f"{what} {path} is not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} {path} must be a JSON object")
    return doc
