"""Set-up time of one workload, measured inside a fresh interpreter.

    python3 bench/setup_probe.py <workload> <seed>

Prints the raw seconds to a constructed `Simulation` and the factor that
scales them to reference host speed (hostspeed.py). Timed are importing
cwrsim (through the benchmark's workloads module), building or parsing the
config and constructing the simulation; interpreter start-up and the
host-speed kernel's samples are not.
"""
import sys
import time
from pathlib import Path

import hostspeed

# set-up takes under 0.1 s; sample the host several times within it
SAMPLE_INTERVAL_S = 0.02

with hostspeed.SpeedSampler(hostspeed.Kernel(), SAMPLE_INTERVAL_S) as speed:
    started = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import workloads

    workloads.SETUPS[sys.argv[1]](int(sys.argv[2]))
    seconds = time.perf_counter() - started - speed.interrupted_s
print(repr(seconds), repr(speed.scale()))
