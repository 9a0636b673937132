"""Cantonese syllable-scheme speech recognition experimentation toolkit."""

__version__ = "0.1.0"


class DataError(ValueError):
    """Malformed or out-of-range user input; the command line exits 2 on it."""
