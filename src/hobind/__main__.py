"""``python -m hobind``: the command-line interface, as ``hobind``."""

from .cli import run

if __name__ == "__main__":
    run()
