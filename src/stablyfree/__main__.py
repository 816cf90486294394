import signal
import sys

from .cli import main

# a reader that closes stdout early ends the process quietly by SIGPIPE, as
# it ends any Unix tool, with a status apart from obstruct's verdicts 0, 1, 2
if hasattr(signal, "SIGPIPE"):
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
sys.exit(main())
