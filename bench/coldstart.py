"""Load a workload's .circ corpus into library objects, from a cold start.

    python3 bench/coldstart.py SRC_DIR CORPUS_DIR

Imports ordercircuits from SRC_DIR, parses every file of CORPUS_DIR, and
prints time.monotonic() once the objects exist.  The parent reads the
clock before it starts this process, so the difference is the set-up
time from a fresh interpreter.  Then it times one calibration pass (see
calibrate.py) and prints that too, so the parent can scale this set-up
by the machine's speed at that moment.
"""

import os
import sys
import time


def load_corpus(textio, corpus_dir):
    """Parse every corpus file, in name order, into a Document."""
    docs = []
    for name in sorted(os.listdir(corpus_dir)):
        with open(os.path.join(corpus_dir, name), encoding="utf-8") as fh:
            docs.append(textio.parse(fh.read()))
    return docs


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    from ordercircuits import textio
    load_corpus(textio, sys.argv[2])
    loaded = time.monotonic()
    from calibrate import Calibration
    cal = Calibration()
    cal.measure()
    print(repr(loaded), repr(cal.times[0]))
