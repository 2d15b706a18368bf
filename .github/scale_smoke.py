"""Run plethysm CLI commands in this process and gate their exits and peak RSS.

Usage: PYTHONPATH=src python .github/scale_smoke.py MAX_MB 'ARGS' ['ARGS' ...]

Each quoted ARGS is one ``plethysm`` command line, run in turn through
``plethysm.cli.main`` with its stdout discarded. Exits 0 when every command
exits 0 and the process's peak RSS stays below MAX_MB megabytes, 1
otherwise. ``ru_maxrss`` covers the whole process, so give each case its
own process.
"""

import contextlib
import io
import resource
import shlex
import sys

from plethysm.cli import main


def run(max_mb: float, commands: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [main(shlex.split(command)) for command in commands]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{', '.join(commands)}: exits {codes}, peak RSS {peak_mb:.1f} MB (bound {max_mb:g} MB)")
    return 0 if not any(codes) and peak_mb < max_mb else 1


if __name__ == "__main__":
    sys.exit(run(float(sys.argv[1]), sys.argv[2:]))
