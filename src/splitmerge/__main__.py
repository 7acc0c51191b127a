"""``python -m splitmerge``: the same command line as ``splitmerge``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
