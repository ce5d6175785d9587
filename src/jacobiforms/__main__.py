"""`python -m jacobiforms ...`: the command line of :mod:`jacobiforms.cli`."""

import sys

from jacobiforms.cli import main

sys.exit(main())
