"""``python -m cantoasr``: the command line, as the ``cantoasr`` script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
