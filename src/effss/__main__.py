"""``python -m effss``: the same command line as the ``effss`` script."""

from .cli import main

if __name__ == "__main__":
    main()
