"""Time one CLI command from process start to its first objective call.

Usage (from the repository root):

    python3 perfbench/setup_probe.py run --config CFG --out DIR
    python3 perfbench/setup_probe.py validate-fidelity --geometry C,T,P,I --out DIR

The arguments are passed to ``mfdgp.cli.main``. When the command first
calls the objective (or, for ``validate-fidelity``, the reactor solver),
the probe prints ``time.monotonic()`` and stops the command there, so the
caller can subtract the monotonic time at which it started the process.
Exit code 0 means the objective was reached, 1 that it was not.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path


class FirstCall(BaseException):
    """Raised at the first objective call; not an Exception, so the CLI lets it pass."""


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from mfdgp import cli
    from mfdgp.objectives import forrester, reactor

    def stop(*args, **kwargs):
        raise FirstCall(time.monotonic())

    forrester.ForresterFamily.evaluate = stop
    reactor.ReactorProxyObjective.evaluate = stop
    reactor.reactor_proxy_simulate = stop
    try:
        cli.main(argv)
    except FirstCall as reached:
        print(repr(reached.args[0]))
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
