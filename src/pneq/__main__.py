"""`python -m pneq`: the same command line as the `pneq` script."""
import sys

from .cli import main

sys.exit(main())
