"""``python -m raytransport``: the command-line runner of :mod:`raytransport.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
