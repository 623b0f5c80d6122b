"""``python -m vicert ARGS`` runs the ``vicert`` command with ARGS."""

from vicert.cli import entry

if __name__ == "__main__":
    entry()
