"""``python -m btfvs``: the command-line interface of :mod:`btfvs.cli`."""

from .cli import entry

if __name__ == "__main__":
    entry()
