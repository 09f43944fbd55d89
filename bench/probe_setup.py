"""Set-up probe: load what a job needs, then print the monotonic clock.

``run.py`` starts this script in a fresh interpreter and subtracts its own
clock reading taken just before the spawn, giving the time from process
start to the first job being ready.
"""

import time

from run import load

load()
print(repr(time.perf_counter()))
