"""Machine-speed reference: interpreter start plus imports outside the package.

Usage: python3 perfbench/reference.py

Prints the `time.perf_counter` reading taken once mpmath and the standard
modules anosograph uses are imported.  It does the same kind of work as a
job's set-up but none of the package's, so no change to the package moves it.
"""

import time
import argparse  # noqa: F401
import dataclasses  # noqa: F401
import fractions  # noqa: F401
import hashlib  # noqa: F401
import itertools  # noqa: F401
import json  # noqa: F401
import math  # noqa: F401
import random  # noqa: F401

import mpmath  # noqa: F401

print(repr(time.perf_counter()))
