"""``python -m cayley8`` runs the ``cayley8`` command line (:func:`cayley8.cli.main`)."""
from .cli import main
raise SystemExit(main())
