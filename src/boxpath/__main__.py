"""Entry point of ``python -m boxpath`` and of the ``boxpath`` script.

Both run `boxpath.cli` as ``__main__``, the way ``python -m boxpath.cli``
does, so a stage loads numpy and the stage modules only if it needs them;
importing `boxpath.cli` would load them all.
"""

import runpy

__all__ = ["main"]


def main() -> None:
    """Run the command line on ``sys.argv``; exits with its code."""
    runpy.run_module("boxpath.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
