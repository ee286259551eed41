"""The program's launcher: ``python -m genscope`` runs this module, and
the ``genscope`` script calls its ``main``."""

import os
import sys


def main() -> int:
    """``cli.entry``, imported here so that a Ctrl-C while the command's
    modules load exits 130 with ``error: interrupted``, as one while the
    command runs does."""
    try:
        from .cli import entry

        return entry()
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    code = main()
    if code == 130:
        # CPython marks an interrupt that left an exec of a string (as
        # @dataclass runs one) as unhandled, even once it was caught, and
        # under -m ends the process by SIGINT at exit: skip that exit
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
    sys.exit(code)
