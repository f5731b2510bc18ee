"""`python -m biimplicit`: the same command line as the `biimplicit` script."""

import sys

from .cli import main

sys.exit(main())
