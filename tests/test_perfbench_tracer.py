"""The benchmark's tracer (`perfbench/tracer.py`) patches carlstab by name.

Besides every public function of the traced modules, `install_carlstab`
wraps `CarlemanWeight.__init__` and `log_weight`, the samplers'
`__call__`, `SeparableSource.__call__` and `dt`, and
`experiments._ShiftedPotential` and `experiments._zero_source`; its hook on
`reconstruct_source` reads `ReconstructionResult.iterations` and
`forward_solves`.  Renaming one of them breaks the benchmark's traced runs;
this test installs the tracer the way a traced benchmark interpreter does and
runs one small reconstruct suite under it, so such a rename fails here first.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
from tracer import Tracer
tracer = Tracer()
tracer.install_scipy()
import carlstab.cli
tracer.install_carlstab()
tracer.begin_pass(0)
rc = carlstab.cli.main(["reconstruct", "--set", "reconstruct.steps=16",
                        "--set", "reconstruct.coeff_n=15", "--set", "reconstruct.coeff_steps=64",
                        "--out", {out!r}])
assert rc == 0, rc
assert tracer.count["inverse.reconstruct_source.forward_solves"] > 0
"""


def test_tracer_installs_on_carlstab(tmp_path):
    # a fresh interpreter: install_scipy must run before carlstab is imported;
    # -B keeps bytecode out of perfbench/
    code = INSTALL.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"),
                          out=str(tmp_path / "reconstruct"))
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
