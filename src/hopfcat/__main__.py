"""`python -m hopfcat verify <file>` and `python -m hopfcat build ...`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
