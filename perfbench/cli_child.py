"""Run one hubbertfit CLI command with the library wrapped, for a traced cli-forecast op.

    python3 cli_child.py SPANS.csv forecast --fit fit.json ...

Wraps the library as the in-process traced runs do, runs
`hubbertfit.cli.main` on the remaining arguments, writes the spans to
SPANS.csv and exits with the command's code.
"""

import sys

from spans import Tracer


def main() -> int:
    import hubbertfit.cli as cli

    tracer = Tracer()
    tracer.install()
    code = cli.main(sys.argv[2:])
    tracer.write(sys.argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main())
