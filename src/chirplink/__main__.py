"""``python -m chirplink``: the command-line front end (see :mod:`chirplink.cli`)."""

from .cli import main

if __name__ == "__main__":
    main()
