"""Cold-start probe: a fresh interpreter imports carpetdim, loads and
validates one workload's inputs, then prints 'ready'.

    python3 perfbench/coldstart.py <workload> <seed> <rounds>

perfbench/run.py times it from launch to 'ready' for setup_s.
"""

import sys

from run import load_package

if __name__ == "__main__":
    workload, seed, rounds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    cd = load_package()
    import workloads
    workloads.WORKLOADS[workload][0](cd, seed, rounds)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
