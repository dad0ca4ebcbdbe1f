"""``python -m botledger``: the same command line as the ``botledger`` script."""

from .cli import main

if __name__ == "__main__":
    main()
