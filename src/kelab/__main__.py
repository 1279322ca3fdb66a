"""``python -m kelab``: the command-line runner of :mod:`kelab.cli`."""
import sys

from .cli import main

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
