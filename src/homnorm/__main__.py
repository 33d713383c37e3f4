"""``python -m homnorm``: the ``homnorm`` command."""

import sys

from .cli import main

sys.exit(main())
