"""Make the benchmark's modules and the library importable.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests`` (the
repository's ``benchmarks/conftest.py`` imports ``repro`` before this
file is read, hence the PYTHONPATH).
"""

import os
import sys

E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (E2E, os.path.join(E2E, "..", "..", "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
