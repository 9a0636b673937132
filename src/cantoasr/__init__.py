"""Cantonese syllable-scheme speech recognition experimentation toolkit."""

from contextlib import contextmanager

__version__ = "0.1.0"


class DataError(ValueError):
    """Malformed or out-of-range user input; the command line exits 2 on it."""


@contextmanager
def open_text(path):
    """A UTF-8 text file opened to read; bytes that do not decode raise a ``DataError`` naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not utf-8 text ({exc.reason})") from None
