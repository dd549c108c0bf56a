"""``python -m geodiscord``: the same command line as the ``geodiscord`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
