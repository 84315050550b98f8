"""The depbounds CLI under the span recorder, for traced cli-oneshot runs.

    python traced_cli.py <depbounds arguments>

Same standard output and exit code as ``python -m depbounds.cli``.  The
recorded spans follow the program's own stderr as one last line that starts
with ``spans.MARK``.
"""

import json
import sys

import spans
from depbounds import cli


def main():
    recorder = spans.Recorder()
    with spans.installed(recorder):
        try:
            rc = cli.main(sys.argv[1:])
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    sys.stdout.flush()
    sys.stderr.write(spans.MARK + json.dumps(recorder.take()) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
