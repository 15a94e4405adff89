"""Command-line entry of the luspm benchmark (the work is in ``bench.py``).

Run from the repository root:

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 10 --trace 0

The package is imported from this checkout's ``src/`` and nowhere else; the
benchmark exits with an error if it is missing.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

if __name__ == "__main__":
    sys.path.insert(0, SRC)
    try:
        import luspm
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import luspm from {SRC}: {exc}")
    if os.path.dirname(os.path.abspath(luspm.__file__)) != os.path.join(SRC, "luspm"):
        sys.exit(f"perfbench: luspm came from {luspm.__file__}, not from {SRC}")

    from bench import main

    sys.exit(main())
