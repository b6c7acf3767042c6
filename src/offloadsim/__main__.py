"""``python -m offloadsim``: the ``offloadsim`` command."""
from .cli import main

raise SystemExit(main())
