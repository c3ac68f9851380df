"""Set-up time of one fresh interpreter, printed in seconds.

Times what ``seqtune tune`` does before its first evaluation: importing
seqtune.cli, parsing the run config with the CLI's own parser, building
the SpotConfig and resolving the objective.
Run as: python3 setup_probe.py <checkout root> <config path>
"""

import os
import sys
import time

start = time.perf_counter()
root, config = sys.argv[1], sys.argv[2]
sys.path.insert(0, os.path.join(root, "src"))

import seqtune.cli as cli  # noqa: E402  (the import is what is timed)

cp = cli._read_ini(config)
run = cli._run_section(cp)
cli._build_spot_config(cli._spot_config(cp, run))
cli.get_objective(run["fun"])
print(repr(time.perf_counter() - start))
