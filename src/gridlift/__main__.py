"""The command-line interface as a module: python -m gridlift <command>."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
