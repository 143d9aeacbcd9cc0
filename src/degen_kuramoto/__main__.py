"""`python -m degen_kuramoto`: the same command line as the degen-kuramoto script."""

from .cli import main

if __name__ == "__main__":
    main()
