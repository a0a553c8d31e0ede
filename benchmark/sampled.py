"""Run a Python command under the speed sampler and write its samples out.

    python3 benchmark/sampled.py OUT.json -m riemvisc.cli report --seed 1 --out DIR
    python3 benchmark/sampled.py OUT.json -c "import riemvisc.cli"

It starts the sampler of ``speed.py``, runs the module (as ``python -m``)
or the command string (as ``python -c``), and on the way out writes the
calibration samples and the time they took to ``OUT.json``, so that the
caller can take that time off the subprocess's wall time and read it at
reference speed.  The exit code is the command's.
"""

import runpy
import sys
from pathlib import Path

import speed


def main() -> int:
    out, mode, target, *rest = sys.argv[1:]
    speed.SAMPLER.start()
    code = 0
    try:
        if mode == "-m":
            sys.argv = [target, *rest]
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            sys.argv = ["-c", *rest]
            exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (exc.code is not None)
    finally:
        speed.SAMPLER.stop()
        speed.SAMPLER.dump(Path(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
