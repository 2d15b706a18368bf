"""Run plethysm CLI commands in this process and gate their exits and peak RSS.

Usage: PYTHONPATH=src python .github/scale_smoke.py MAX_MB 'ARGS' ['ARGS' ...]

Each quoted ARGS is one ``plethysm`` command line, run in turn through
``plethysm.cli.main`` with its stdout discarded. Exits 0 when every command
exits 0 and the larger of two peaks stays below MAX_MB megabytes, 1
otherwise: the peak RSS of this process and that of the largest child it
has reaped. No command forks today; the children's peak keeps a command
that starts one from passing on the caller's peak alone. ``ru_maxrss``
covers a whole process, so give each case its own process.

The bounds assume compiled bytecode: a run that finds no cached bytecode
compiles the package too, and peaks about 0.5 MB higher. Run
``python -m compileall -q src`` first.
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
    self_mb, children_mb = (resource.getrusage(who).ru_maxrss / 1024
                            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    print(f"{', '.join(commands)}: exits {codes}, peak RSS {self_mb:.1f} MB, "
          f"children {children_mb:.1f} MB (bound {max_mb:g} MB)")
    return 0 if not any(codes) and max(self_mb, children_mb) < max_mb else 1


if __name__ == "__main__":
    sys.exit(run(float(sys.argv[1]), sys.argv[2:]))
