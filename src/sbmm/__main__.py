"""``python3 -m sbmm``: the sbmm command line."""

from .bench import cli_main

if __name__ == "__main__":
    raise SystemExit(cli_main())
