"""``python -m taydel``: the command line interface."""

from taydel.cli import entry

if __name__ == "__main__":
    entry()
