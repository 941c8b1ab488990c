"""``python -m crring``: the command line of ``crring.cli``."""

import sys

from .cli import main

sys.exit(main())
