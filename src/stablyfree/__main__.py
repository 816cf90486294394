import signal
import sys

from . import cli


def main() -> int:
    """The `stablyfree` console script and `python -m stablyfree`.

    A reader that closes stdout early ends the process quietly by SIGPIPE,
    as it ends any Unix tool, with a status apart from obstruct's verdicts
    0, 1, 2.  In-process callers of `cli.main` keep Python's handling."""
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    return cli.main()


if __name__ == "__main__":
    sys.exit(main())
