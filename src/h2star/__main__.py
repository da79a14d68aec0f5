"""``python -m h2star``: the command-line interface, as in ``h2star.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
