"""`python -m kundu_dnls`: the `kdnls` command line, without installing it."""
import sys

from .cli import main

sys.exit(main())
