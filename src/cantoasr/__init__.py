"""Cantonese syllable-scheme speech recognition experimentation toolkit."""

import json
import math
from contextlib import contextmanager

__version__ = "0.1.0"


class DataError(ValueError):
    """Malformed or out-of-range user input; the command line exits 2 on it."""


def check_kind(name: str, value, kind, what: str, error: type[DataError] = DataError):
    """``value`` when it is a ``kind``, else ``error`` saying that ``name`` must be ``what``.

    A bool is an int to Python, but True is no count, number or name, so no
    bool passes; a numpy scalar passes as the ``numbers`` kind it registers.
    """
    if isinstance(value, bool) or not isinstance(value, kind):
        raise error(f"{name} must be {what}, got {value!r}")
    return value


@contextmanager
def open_text(path, error: type[DataError] = DataError):
    """A UTF-8 text file opened to read; bytes that do not decode raise ``error`` naming it.

    A leading byte-order mark is read as nothing.  A reader of a format
    passes the format's own error type.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not utf-8 text ({exc.reason})") from None


def _finite(value):
    """``value`` with each non-finite float written as its string, such as ``"-inf"``."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def json_text(value, indent: int | None = None) -> str:
    """``value`` as JSON with sorted keys and unescaped non-ASCII text.

    Every JSON the package prints or saves comes from here.  JSON has no
    infinities (an RFC 8259 parser rejects Python's ``Infinity``), so a
    non-finite float is written as the string ``"inf"``, ``"-inf"`` or ``"nan"``.
    """
    return json.dumps(
        _finite(value), ensure_ascii=False, sort_keys=True, indent=indent, allow_nan=False
    )


def left_sum(values) -> float:
    """The sum of ``values`` added left to right, one rounding per addition.

    Every float sum that feeds an output comes from here: from Python 3.12
    the built-in ``sum`` of floats is compensated, which can change the last
    bit of a result and so the bytes of a report.
    """
    total = 0.0
    for value in values:
        total += value
    return total
